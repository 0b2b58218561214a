"""Command-line front end: sample, attack, verify, complexity.

Every subcommand prints a single machine-readable document (JSON by
default, CSV on request) to stdout or ``--out``.  Exit codes follow one
contract throughout: 0 means the attack identified its target or all
checks passed, 2 means the defense held or a check failed.  A usage error
also exits 2, with a diagnostic on stderr and nothing on stdout.  Besides
argparse's own, a usage error is any ``ValueError`` that a subcommand's
handler, or a library call it makes, raises: :func:`main` alone turns it
into the diagnostic.  Any other exception is a bug, and its traceback is
shown.

JSON field names are stable and covered by a golden-file test; floats are
rendered with Python's shortest round-trip representation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable

from . import attack as attack_mod
from . import dist, stats
from .sampler import _bm_pair, get_method
# complexity draws its numerators itself, but the name stays bound here:
# the benchmark's traced run (benchmarks/tracing.py) wraps cli.GaussianStream
from .sampler import GaussianStream  # noqa: F401
from .urand import MAX_PRECISION, BitSource, _take_numerator, check_positive

EXIT_OK = 0
EXIT_FAIL = 2

__all__ = ["main"]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # The full parser, and each subcommand's own parser by name
    parser = argparse.ArgumentParser(
        prog="divsamp",
        description="Floating-point-aware noise sampling, attacks, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--method", default="naive-laplace", help="sampler method name")
        sp.add_argument("--p", type=int, default=MAX_PRECISION, help="uniform grid precision")
        sp.add_argument(
            "--n", type=int, default=None, help="divisibility order, where the method has one"
        )
        sp.add_argument(
            "--seed", type=int, default=None, help="deterministic seed; omit for secure mode"
        )
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        sp.add_argument(
            "--epsilon",
            type=float,
            default=None,
            help="privacy budget; Laplace noise is scaled by b = 1/epsilon",
        )

    commands: dict[str, argparse.ArgumentParser] = {}
    sp = commands["sample"] = sub.add_parser("sample", help="draw noise samples")
    add_common(sp)
    sp.add_argument("--count", type=int, default=10, help="number of draws")

    sp = commands["attack"] = sub.add_parser("attack", help="run a candidate-elimination attack")
    add_common(sp)
    sp.add_argument(
        "--attack",
        dest="attack_kind",
        choices=("mironov", "gaussian-pair"),
        default="mironov",
    )
    sp.add_argument(
        "--candidates",
        default="0.0,1.0",
        help="comma-separated candidate values for the hidden target",
    )
    sp.add_argument(
        "--target",
        type=float,
        default=None,
        help="hidden value the simulated oracle protects (default: first candidate)",
    )
    sp.add_argument("--max-queries", type=int, default=100)

    sp = commands["verify"] = sub.add_parser("verify", help="test a sampler's distribution")
    add_common(sp)
    sp.add_argument("--count", type=int, default=100_000, help="number of draws")

    sp = commands["complexity"] = sub.add_parser(
        "complexity", help="search-cost model for single-output inversion"
    )
    sp.add_argument("--p", type=int, default=MAX_PRECISION,
                    help="uniform grid precision; a brute-force search runs for p <= 20")
    sp.add_argument("--count", type=int, default=200, help="draws for the empirical mean")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None)
    return parser, commands


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built once per process: every add_argument call constructs a help
    # formatter, which queries the terminal size.  Shared by every main()
    # call, so nothing may mutate them (no set_defaults, no added arguments).
    return _build_parsers()


def _parse(argv: list[str]) -> argparse.Namespace:
    # A subcommand's own parser does the same work as the full parser, which
    # hands it everything after the subcommand name, in about 60% of the time.
    # Anything it leaves over, and any argv that does not start with a
    # subcommand, goes through the full parser, so every usage error reads
    # as the full parser's.
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not rest:
            return args
    return parser.parse_args(argv)


def _draw_bound(method) -> float:
    # Every grid uniform has 1 - u >= 2**-p >= 2**-MAX_PRECISION, so
    # -log(1 - u) <= L = MAX_PRECISION ln 2, and a unit-scale draw that
    # combines U uniforms is at most U * L in magnitude (logcos reaches 2L
    # from U = 4; sqsum and proddiff over 2m-fold Gaussians, each output at
    # most sqrt(2m * 2L), reach U L / 2 and U L from U = 8m).
    return method.uniforms_per_draw * MAX_PRECISION * math.log(2.0)


def _noise_scale(args, method) -> float:
    if args.epsilon is None:
        return 1.0
    if not (0 < args.epsilon < math.inf and 1.0 / args.epsilon < math.inf):
        raise ValueError("epsilon must be positive and finite, with 1/epsilon finite; "
                         f"got {args.epsilon}")
    if method.family != "laplace":
        raise ValueError("epsilon scaling applies to Laplace-family methods only")
    scale = 1.0 / args.epsilon
    bound = _draw_bound(method)
    if not math.isfinite(scale * bound):
        raise ValueError(f"epsilon {args.epsilon} is too small for finite {method.name} noise; "
                         f"it must be at least {bound / sys.float_info.max:.3g}")
    return scale


# The types json.dumps writes, in the order its own isinstance checks take
# them; None, True and False it matches by identity first.
_JSON_KINDS = (str, int, float, list, tuple, dict)
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_FLOATS.get(text, text)


class _Rounds(list):
    """An attack trace: ``(query, eliminated)`` rounds of floats.

    ``_json`` writes it as ``[{"query": query, "eliminated": eliminated}, ...]``
    would be written, a pair query as a list.
    """


def _json_rounds(rounds: _Rounds, pad: str) -> str:
    # One pass over the rounds, in place of building a dict per round and
    # recursing through _json, which took about twice as long.
    if not rounds:
        return "[]"
    obj = pad + "  "
    key = obj + "  "
    item = key + "  "
    sep = "," + item
    parts = []
    for q, gone in rounds:
        q = f"[{item}{sep.join(map(_json_float, q))}{key}]" if type(q) is tuple else _json_float(q)
        gone = f"[{item}{sep.join(map(_json_float, gone))}{key}]" if gone else "[]"
        parts.append(f'{{{key}"query": {q},{key}"eliminated": {gone}{obj}}}')
    return f"[{obj}" + f",{obj}".join(parts) + f"{pad}]"


def _json(value, pad: str = "\n") -> str:
    # json.dumps(value, indent=2), byte for byte, for dicts with str keys.
    # On Python 3.11 ``indent`` turns off json's C encoder, and its pure
    # Python fallback takes about three times as long on an attack report.
    kind = type(value)
    if kind not in _JSON_KINDS:
        if kind is _Rounds:
            return _json_rounds(value, pad)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        kind = next((k for k in _JSON_KINDS if isinstance(value, k)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if kind is float:
        return _json_float(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    if kind is dict:  # encode_basestring_ascii raises TypeError on a key that is no str
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return f"{{{inner}" + f",{inner}".join(items) + f"{pad}}}"
    return f"[{inner}" + f",{inner}".join([_json(v, inner) for v in value]) + f"{pad}]"


def _emit(args, payload: dict, csv_rows: Callable[[], tuple[list[str], list[list]]]) -> None:
    # ``csv_rows`` builds the header and rows; it runs only for --format csv
    if args.format == "json":
        text = _json(payload) + "\n"
    else:
        header, rows = csv_rows()
        meta = " ".join(
            f"{k}={'' if v is None else v}"
            for k, v in payload.items()
            if not isinstance(v, (list, dict))
        )
        lines = [f"# {meta}", ",".join(header)]
        for row in rows:
            lines.append(",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _run_sample(args) -> int:
    check_positive(args.count, "count")
    method = get_method(args.method, args.n)
    scale = _noise_scale(args, method)
    src = BitSource(args.seed)
    values = (scale * method.column(src, args.p, args.count)).tolist()
    payload = {
        "command": "sample",
        "method": method.name,
        "family": method.family,
        "hardening": method.hardening,
        "uniforms_per_draw": method.uniforms_per_draw,
        "p": args.p,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "scale": scale,
        "count": args.count,
        "values": values,
    }
    _emit(args, payload, lambda: (["index", "value"], [[i, v] for i, v in enumerate(values)]))
    return EXIT_OK


def _run_attack(args) -> int:
    method = get_method(args.method, args.n)
    scale = _noise_scale(args, method)
    candidates = [float(tok) for tok in args.candidates.split(",") if tok.strip() != ""]
    if not candidates:
        raise ValueError("candidate list is empty")
    if args.target is not None and not math.isfinite(args.target):
        raise ValueError(f"target must be finite, got {args.target}")
    target = candidates[0] if args.target is None else args.target
    if args.attack_kind == "mironov":
        if method.family != "laplace":
            raise ValueError("the Mironov attack applies to Laplace-family noise")
        w, campaign = attack_mod.DEFAULT_WINDOW, attack_mod.mironov_attack
    else:
        if method.family != "gaussian":
            raise ValueError("the pair attack applies to Gaussian-family noise")
        w, campaign = attack_mod.DEFAULT_PAIR_WINDOW, attack_mod.gaussian_pair_attack
    src = BitSource(args.seed)
    drawer = method.make_drawer(src, args.p)
    oracle = attack_mod.QueryOracle(target, lambda: scale * drawer())
    # the campaign checks its arguments before the first query
    outcome = campaign(oracle, candidates, p=args.p, w=w, max_queries=args.max_queries,
                       scale=scale)

    payload = {
        "command": "attack",
        "attack": args.attack_kind,
        "method": method.name,
        "p": args.p,
        "window": w,
        "max_queries": args.max_queries,
        "seed": args.seed,
        "scale": scale,
        "candidates": candidates,
        "target": target,
        "status": outcome.status,
        "identified": outcome.value,
        "queries_used": outcome.queries_used,
        "trace": _Rounds(outcome.trace),
        "cost": {
            "uniforms_drawn": src.uniforms_drawn,
            "bits_drawn": src.bits_drawn,
            "survival_checks": outcome.survival_checks,
        },
    }
    _emit(args, payload, lambda: (["round", "query", "eliminated"], [
        [i, q if not isinstance(q, tuple) else ";".join(repr(v) for v in q),
         ";".join(repr(c) for c in elim)]
        for i, (q, elim) in enumerate(outcome.trace)
    ]))
    return EXIT_OK if outcome.status == "identified" else EXIT_FAIL


def _run_verify(args) -> int:
    if args.count < 4:
        raise ValueError(f"verification needs at least 4 draws, got {args.count}")
    method = get_method(args.method, args.n)
    scale = _noise_scale(args, method)
    # Deviations from the sample mean are at most 2 * bound * scale, with
    # bound = _draw_bound(method), and the fourth-moment sum over ``count``
    # draws is the first quantity to overflow; it stays finite while
    # count * (2 * bound * scale)**4 does.
    max_scale = (sys.float_info.max / args.count) ** 0.25 / (2 * _draw_bound(method))
    if scale > max_scale:
        raise ValueError(f"epsilon {args.epsilon} is too small for finite moments over "
                         f"{args.count} {method.name} draws; "
                         f"it must be at least {1 / max_scale:.3g}")
    src = BitSource(args.seed)
    values = scale * method.column(src, args.p, args.count)
    # KS of x / scale on the family's unit CDF: dividing by scale > 0 keeps
    # the order, so the samples may be divided first, and ks_statistic then
    # evaluates the CDF itself on a column (a Gaussian-family scale is 1.0)
    laplace = method.family == "laplace"
    stat = stats.ks_statistic(values / scale, dist.laplace_cdf if laplace else dist.gaussian_cdf)
    ref_variance = (2.0 if laplace else 1.0) * scale * scale
    critical = stats.ks_critical_value(args.count)
    try:
        summary = stats.moments(values)
    except ValueError as exc:  # every draw equal, as naive-laplace at p=1
        raise ValueError(f"cannot verify {method.name} at p={args.p}: {exc}") from exc
    ks_pass = stat < critical
    var_pass = abs(summary.variance - ref_variance) <= 0.03 * ref_variance

    payload = {
        "command": "verify",
        "method": method.name,
        "p": args.p,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "scale": scale,
        "count": args.count,
        "reference": method.family,
        "checks": [
            {
                "name": "ks",
                "statistic": stat,
                "critical_value": critical,
                "alpha": 0.01,
                "pass": ks_pass,
                "margin": critical - stat,
                "p_value": stats.ks_p_value(stat, args.count),
            },
            {
                "name": "variance",
                "estimate": summary.variance,
                "expected": ref_variance,
                "tolerance": 0.03,
                "pass": var_pass,
            },
        ],
        "moments": {
            "mean": summary.mean,
            "variance": summary.variance,
            "skewness": summary.skewness,
            "excess_kurtosis": summary.excess_kurtosis,
        },
        "pass": ks_pass and var_pass,
        "cost": {"uniforms_drawn": src.uniforms_drawn, "bits_drawn": src.bits_drawn},
    }
    _emit(args, payload, lambda: (["check", "value", "reference", "pass"], [
        ["ks", stat, critical, ks_pass],
        ["variance", summary.variance, ref_variance, var_pass],
    ]))
    return EXIT_OK if payload["pass"] else EXIT_FAIL


def _run_complexity(args) -> int:
    check_positive(args.count, "count")
    theoretical = attack_mod.expected_checks(args.p)
    src = BitSource(args.seed)  # checks the seed, which the report names even with no draws
    payload = {
        "command": "complexity",
        "p": args.p,
        "seed": args.seed,
        "theoretical_checks": theoretical,
    }
    rows = [["theoretical_checks", theoretical]]
    code = EXIT_OK
    if args.p > attack_mod.BRUTE_FORCE_MAX_PRECISION:  # too large to search: the model alone
        payload["empirical_mean_checks"] = None
        payload["ratio"] = None
    else:
        p = args.p
        total = found = recovered = most = 0
        for _ in range(args.count):
            # the two numerators GaussianStream would take, and the cosine half
            # of its pair; the sine half is discarded, since the search inverts
            # the cosine branch
            m1 = _take_numerator(src, p)
            m2 = _take_numerator(src, p)
            n1 = _bm_pair(math.ldexp(m1, -p), math.ldexp(m2, -p), math)[0]
            result = attack_mod.brute_force_single_gaussian(n1, p)
            total += result.checks
            found += len(result.pairs)
            recovered += (m1, m2) in result.pairs
            most = max(most, len(result.pairs))
        empirical = total / args.count
        payload["count"] = args.count
        payload["window"] = attack_mod.DEFAULT_WINDOW
        payload["empirical_mean_checks"] = empirical
        payload["ratio"] = empirical / theoretical
        payload["cost"] = {
            "checks": total,
            "pairs_found": found,
            "uniforms_drawn": src.uniforms_drawn,
            "bits_drawn": src.bits_drawn,
            "recovered": recovered,
            "max_preimages": most,
        }
        rows.append(["empirical_mean_checks", empirical])
        rows.append(["ratio", payload["ratio"]])
        # the check: every search recovered the pair its output was drawn from
        code = EXIT_OK if recovered == args.count else EXIT_FAIL
    _emit(args, payload, lambda: (["quantity", "value"], rows))
    return code


_HANDLERS = {"sample": _run_sample, "attack": _run_attack,
             "verify": _run_verify, "complexity": _run_complexity}


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        _parsers()[0].error(str(exc))  # exits with code 2
