"""Workload op lists, report digests and the golden-digest gate.

An *op* is one ``divsamp.cli.main(argv)`` call.  Every op the benchmark can
run has a golden entry (expected exit code plus a SHA-256 over the report's
deterministic fields), so each run checks every op bit for bit.  A golden
file can only cover finitely many ops, so each workload has two fixed op
pools: ``regression`` and ``held-out``.  The held-out seed replays the
held-out pool; every other seed replays the regression pool in an order
drawn from that seed.  A claim tuned on the regression pool is confirmed on
inputs it was not written against with ``--seed 1``.

Regenerate the golden file (only when a change is meant to alter a seeded
stream) with::

    python3 benchmarks/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-sweep", "attack-campaigns", "inversion-search")
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
POOLS = ("regression", "held-out")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# verify-sweep: all eight registry methods plus an 8-fold secure Gaussian, so
# uniforms per draw run from 1 (naive-laplace, box-muller) to 16.
VERIFY_CONFIGS = (
    ("naive-laplace", None),
    ("box-muller", None),
    ("laplace-expdiff", None),
    ("laplace-sqsum", None),
    ("laplace-proddiff", None),
    ("laplace-logcos", None),
    ("laplace-logcos-sym", None),
    ("secure-gaussian", None),
    ("secure-gaussian", 8),
)
VERIFY_COUNT = 2000
VERIFY_SEEDS_PER_CONFIG = 12

# attack-campaigns: blocks of ten campaigns, two of them hardened controls
# that must end with every candidate eliminated.
ATTACK_BLOCK = (
    ("mironov", "naive-laplace", None, "naive"),
    ("gaussian-pair", "box-muller", None, "naive"),
    ("mironov", "naive-laplace", None, "naive"),
    ("gaussian-pair", "box-muller", None, "naive"),
    ("mironov", "laplace-logcos", None, "control"),
    ("mironov", "naive-laplace", None, "naive"),
    ("gaussian-pair", "box-muller", None, "naive"),
    ("mironov", "naive-laplace", None, "naive"),
    ("gaussian-pair", "box-muller", None, "naive"),
    ("gaussian-pair", "secure-gaussian", 2, "control"),
)
ATTACK_BLOCKS = 10
ATTACK_CANDIDATES = ("0.0", "1.0")
ATTACK_BUDGET = 100

# inversion-search: one brute-force single-output search per op.
INVERSION_PRECISIONS = (12, 14)
INVERSION_SEEDS_PER_P = 50

PRECISION = 53


def method_key(method: str, n: int | None) -> str:
    return method if n is None else f"{method}-n{n}"


# The methods whose per-draw time the traced run reports.
DRAW_KEYS = tuple(method_key(m, n) for m, n in VERIFY_CONFIGS)


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``role`` marks attack campaigns as naive or control."""

    argv: tuple[str, ...]
    label: str
    role: str = ""

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def pool_of(seed: int) -> str:
    return "held-out" if seed == HELD_OUT_SEED else "regression"


def _argv_seeds(workload: str, pool: str, k: int) -> list[int]:
    rng = random.Random(f"{workload}/{pool}")
    return [rng.randrange(2**31) for _ in range(k)]


def canonical_ops(workload: str, pool: str) -> list[Op]:
    """The fixed op pool of ``workload``, in canonical order."""
    if workload == "verify-sweep":
        seeds = _argv_seeds(workload, pool, VERIFY_SEEDS_PER_CONFIG)
        ops = []
        for s in seeds:
            for method, n in VERIFY_CONFIGS:
                argv = ["verify", "--method", method, "--p", str(PRECISION),
                        "--seed", str(s), "--count", str(VERIFY_COUNT)]
                if n is not None:
                    argv += ["--n", str(n)]
                ops.append(Op(tuple(argv), method_key(method, n)))
        return ops
    if workload == "attack-campaigns":
        seeds = _argv_seeds(workload, pool, ATTACK_BLOCKS * len(ATTACK_BLOCK))
        ops = []
        for i, s in enumerate(seeds):
            kind, method, n, role = ATTACK_BLOCK[i % len(ATTACK_BLOCK)]
            argv = ["attack", "--attack", kind, "--method", method, "--p", str(PRECISION),
                    "--candidates", ",".join(ATTACK_CANDIDATES),
                    "--target", ATTACK_CANDIDATES[i % 2],
                    "--max-queries", str(ATTACK_BUDGET), "--seed", str(s)]
            if n is not None:
                argv += ["--n", str(n)]
            ops.append(Op(tuple(argv), f"{kind}:{method_key(method, n)}", role))
        return ops
    if workload == "inversion-search":
        seeds = _argv_seeds(workload, pool, INVERSION_SEEDS_PER_P * len(INVERSION_PRECISIONS))
        ops = []
        for i, s in enumerate(seeds):
            p = INVERSION_PRECISIONS[i % len(INVERSION_PRECISIONS)]
            ops.append(Op(("complexity", "--p", str(p), "--count", "1", "--seed", str(s)), f"p{p}"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def build_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one run: the seed's pool, shuffled by the seed."""
    ops = canonical_ops(workload, pool_of(seed))
    random.Random(seed).shuffle(ops)
    return ops


def warmup_op(workload: str, seed: int) -> Op:
    """The untimed warm-up op: the first op of the pool's canonical order."""
    return canonical_ops(workload, pool_of(seed))[0]


def digest(report: dict) -> str:
    """SHA-256 over the report fields that are deterministic at a given seed.

    Only fields present at the commit that wrote the golden file are read,
    so report fields added later, and timing fields, leave it unchanged.
    """
    command = report["command"]
    if command == "verify":
        fields = {
            "statistic": [c["statistic"] for c in report["checks"] if c["name"] == "ks"],
            "moments": {k: report["moments"][k]
                        for k in ("mean", "variance", "skewness", "excess_kurtosis")},
            "pass": report["pass"],
        }
    elif command == "attack":
        fields = {
            "status": report["status"],
            "identified": report["identified"],
            "queries_used": report["queries_used"],
            "trace": [[t["query"], t["eliminated"]] for t in report["trace"]],
        }
    elif command == "complexity":
        fields = {"empirical_mean_checks": report["empirical_mean_checks"]}
    else:
        raise ValueError(f"no digest defined for command {command!r}")
    text = json.dumps(fields, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    """``{workload: {op key: [exit code, digest]}}`` over both pools."""
    with open(path) as fh:
        data = json.load(fh)
    return {w: {**pools["regression"], **pools["held-out"]}
            for w, pools in data["workloads"].items()}


def _write_golden() -> None:
    import tempfile

    import harness

    out = {"note": "expected exit code and report digest of every op; see workloads.py",
           "environment": harness.environment(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=harness.ROOT) as tmp:
        out_path = str(Path(tmp) / "report.json")
        for workload in WORKLOADS:
            out["workloads"][workload] = {}
            for pool in POOLS:
                entries = {}
                for op in canonical_ops(workload, pool):
                    result = harness.run_op(op, out_path)
                    if result.error is not None:
                        raise RuntimeError(f"{op.key}: {result.error}")
                    entries[op.key] = [result.exit_code, result.digest]
                out["workloads"][workload][pool] = entries
                print(f"{workload}/{pool}: {len(entries)} ops")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _write_golden()
