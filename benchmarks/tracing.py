"""Per-module attribution for the traced run, recorded from outside ``src/``.

The traced run swaps the module attributes that ``divsamp.cli`` calls
through for timing wrappers, and restores them afterwards:

* ``divsamp.cli.get_method``: drawers time every draw (layer ``sampler``);
* ``divsamp.cli.BitSource``: sources are kept so their ``uniforms_drawn`` and
  ``bits_drawn`` counters can be read after the op (layer ``urand``);
* ``divsamp.cli.GaussianStream``: ``next`` is timed like a drawer;
* ``divsamp.attack.mironov_attack``, ``gaussian_pair_attack`` and
  ``brute_force_single_gaussian`` (layer ``attack``);
* ``divsamp.stats.ks_statistic`` and ``moments`` (layer ``stats``); the CDF
  handed to ``ks_statistic`` is timed per call (layer ``dist``).

Ops, attack calls and stats calls are spans (name, start, end, parent).
Draws and CDF evaluations take microseconds, so they are aggregated per
parent span as ``[calls, seconds]`` rather than stored one by one.  Spans
stay in memory and are written out when the run ends.

``urand`` and ``dist`` work inside survival checks runs through names that
``divsamp.attack`` bound at import, which no attribute swap reaches; those
layers are measured by probes that call their public functions directly.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

import divsamp.attack
import divsamp.cli
import divsamp.stats
from divsamp import dist, urand
from divsamp.sampler import get_method

from workloads import DRAW_KEYS, PRECISION, VERIFY_CONFIGS, method_key

# (module, attribute) pairs the traced run replaces; restored on exit.
PATCHED = (
    (divsamp.cli, "get_method"),
    (divsamp.cli, "BitSource"),
    (divsamp.cli, "GaussianStream"),
    (divsamp.attack, "mironov_attack"),
    (divsamp.attack, "gaussian_pair_attack"),
    (divsamp.attack, "brute_force_single_gaussian"),
    (divsamp.stats, "ks_statistic"),
    (divsamp.stats, "moments"),
)

CAMPAIGNS = ("attack:mironov", "attack:pair")
SAMPLER_PREFIX = "sampler:"
CDF_LEAF = "dist:cdf"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "leaves", "attrs")

    def __init__(self, sid: int, parent: Span | None, name: str) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.leaves: dict[str, list] = {}
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": None if self.parent is None else self.parent.id,
                "name": self.name, "start": self.start, "end": self.end,
                "leaves": self.leaves, "attrs": self.attrs}


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._sources: list = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def leaf(self, name: str, fn, *args):
        """Call ``fn(*args)``, adding its time to the enclosing span's ``name`` aggregate."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            agg = self._stack[-1].leaves.get(name)
            if agg is None:
                self._stack[-1].leaves[name] = [1, dt]
            else:
                agg[0] += 1
                agg[1] += dt

    def begin_op(self, op) -> Span:
        self._sources = []
        span = self.begin("op")
        span.attrs.update(label=op.label, role=op.role)
        return span

    def end_op(self, span: Span) -> None:
        self.end(span)
        span.attrs["uniforms"] = sum(s.uniforms_drawn for s in self._sources)
        span.attrs["bits"] = sum(s.bits_drawn for s in self._sources)

    def add_source(self, src):
        self._sources.append(src)
        return src


def survival_checks(candidates, outcome) -> int:
    """Candidates alive at each round of an elimination campaign, summed over rounds."""
    alive, checks = len(set(float(c) for c in candidates)), 0
    for _, eliminated in outcome.trace:
        checks += alive
        alive -= len(eliminated)
    return checks


class _TimedMethod:
    """A ``SamplerMethod`` whose drawers time each draw."""

    def __init__(self, method, tracer: Tracer, key: str) -> None:
        self._method = method
        self._tracer = tracer
        self._leaf = SAMPLER_PREFIX + key

    def __getattr__(self, name):
        return getattr(self._method, name)

    def make_drawer(self, src, p=urand.DEFAULT_PRECISION):
        draw = self._method.make_drawer(src, p)
        leaf, name = self._tracer.leaf, self._leaf
        return lambda: leaf(name, draw)


def _wrappers(tracer: Tracer, originals: dict) -> dict:
    get_method_, bit_source, stream_cls = (
        originals["get_method"], originals["BitSource"], originals["GaussianStream"])

    def traced_get_method(name, n=None):
        return _TimedMethod(get_method_(name, n), tracer, method_key(name, n))

    def traced_bit_source(seed=None):
        return tracer.add_source(bit_source(seed))

    class TracedGaussianStream(stream_cls):
        def next(self):
            return tracer.leaf(SAMPLER_PREFIX + "box-muller", super().next)

    def campaign(name, fn):
        def traced(oracle, candidates, *args, **kwargs):
            span = tracer.begin(name)
            try:
                outcome = fn(oracle, candidates, *args, **kwargs)
            finally:
                tracer.end(span)
            span.attrs.update(checks=survival_checks(candidates, outcome),
                              queries=outcome.queries_used,
                              status=outcome.status, rounds=len(outcome.trace),
                              hit=outcome.status == "identified" and outcome.value == oracle.target)
            return outcome
        return traced

    def brute_force(n1, p, *args, **kwargs):
        span = tracer.begin("attack:brute")
        try:
            result = originals["brute_force_single_gaussian"](n1, p, *args, **kwargs)
        finally:
            tracer.end(span)
        span.attrs.update(checks=result.checks, p=p)
        return result

    def ks_statistic(samples, cdf):
        span = tracer.begin("stats:ks")
        try:
            return originals["ks_statistic"](samples, lambda x: tracer.leaf(CDF_LEAF, cdf, x))
        finally:
            tracer.end(span)

    def moments(samples):
        span = tracer.begin("stats:moments")
        try:
            return originals["moments"](samples)
        finally:
            tracer.end(span)

    return {
        "get_method": traced_get_method,
        "BitSource": traced_bit_source,
        "GaussianStream": TracedGaussianStream,
        "mironov_attack": campaign("attack:mironov", originals["mironov_attack"]),
        "gaussian_pair_attack": campaign("attack:pair", originals["gaussian_pair_attack"]),
        "brute_force_single_gaussian": brute_force,
        "ks_statistic": ks_statistic,
        "moments": moments,
    }


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the CLI's calls through ``tracer`` for the duration of the block."""
    saved = [(module, name, getattr(module, name)) for module, name in PATCHED]
    wrappers = _wrappers(tracer, {name: value for _, name, value in saved})
    try:
        for module, name in PATCHED:
            setattr(module, name, wrappers[name])
        yield tracer
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts(spans: list[Span]) -> dict:
    """Exact work counts of one traced pass; equal passes must give equal counts."""
    ops = [s for s in spans if s.name == "op"]
    campaigns = [s for s in spans if s.name in CAMPAIGNS]
    naive = [s for s in campaigns if s.parent.attrs["role"] == "naive"]
    controls = [s for s in campaigns if s.parent.attrs["role"] == "control"]
    brute = [s for s in spans if s.name == "attack:brute"]
    leaves = [(name, agg) for s in spans for name, agg in s.leaves.items()]
    return {
        "urand.uniforms_drawn": sum(s.attrs["uniforms"] for s in ops),
        "urand.bits_drawn": sum(s.attrs["bits"] for s in ops),
        "sampler.draws": sum(a[0] for n, a in leaves if n.startswith(SAMPLER_PREFIX)),
        "dist.cdf_calls": sum(a[0] for n, a in leaves if n == CDF_LEAF),
        "attack.survival_checks": sum(s.attrs["checks"] for s in campaigns),
        "attack.queries": sum(s.attrs["queries"] for s in campaigns),
        "attack.ident_rate": _ratio(sum(s.attrs["hit"] for s in naive), len(naive)),
        "attack.first_round_elim": _ratio(
            sum(s.attrs["status"] == "all_eliminated" and s.attrs["rounds"] == 1
                for s in controls), len(controls)),
        "attack.bf_checks": sum(s.attrs["checks"] for s in brute),
        "attack.bf_checks_vs_model": _ratio(
            sum(s.attrs["checks"] / divsamp.attack.expected_checks(s.attrs["p"]) for s in brute),
            len(brute)),
    }


def timings(spans: list[Span]) -> dict:
    """Self times and per-call times over traced passes.

    A ``*_s`` metric is seconds of self time per op; ``*_us`` is microseconds
    per call (per draw, per CDF call, per survival or brute-force check).
    A metric whose layer did no work on this workload is left out.
    """
    child_time: dict[Span, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def self_time(s: Span) -> float:
        leaf_time = sum(a[1] for a in s.leaves.values())
        return s.duration - child_time.get(s, 0.0) - leaf_time

    ops = [s for s in spans if s.name == "op"]
    campaigns = [s for s in spans if s.name in CAMPAIGNS]
    brute = [s for s in spans if s.name == "attack:brute"]
    attacks = campaigns + brute
    ks = [s for s in spans if s.name == "stats:ks"]
    moments = [s for s in spans if s.name == "stats:moments"]
    n_ops = len(ops)

    draws: dict[str, list] = {}
    noise = 0.0
    cdf = [0, 0.0]
    for s in spans:
        for name, (calls, secs) in s.leaves.items():
            if name.startswith(SAMPLER_PREFIX):
                agg = draws.setdefault(name[len(SAMPLER_PREFIX):], [0, 0.0])
                agg[0] += calls
                agg[1] += secs
                if s.name.startswith("attack:"):
                    noise += secs
            elif name == CDF_LEAF:
                cdf[0] += calls
                cdf[1] += secs

    out = {
        "cli.self_share": _ratio(sum(self_time(s) for s in ops), sum(s.duration for s in ops)),
        "sampler.self_s": sum(a[1] for a in draws.values()) / n_ops,
        "sampler.noise_share": _ratio(noise, sum(s.duration for s in attacks)),
    }
    for key, (calls, secs) in draws.items():
        if key in DRAW_KEYS:
            out[f"sampler.draw_us.{key}"] = 1e6 * secs / calls
    if attacks:
        out["attack.self_s"] = sum(self_time(s) for s in attacks) / n_ops
    checks = sum(s.attrs["checks"] for s in campaigns)
    if checks:
        out["attack.check_us"] = 1e6 * sum(self_time(s) for s in campaigns) / checks
    bf_checks = sum(s.attrs["checks"] for s in brute)
    if bf_checks:
        out["attack.bf_check_us"] = 1e6 * sum(self_time(s) for s in brute) / bf_checks
    if ks:
        out["stats.ks_self_s"] = sum(self_time(s) for s in ks) / n_ops
        out["dist.cdf_us"] = 1e6 * cdf[1] / cdf[0]
    if moments:
        out["stats.moments_s"] = sum(self_time(s) for s in moments) / n_ops
    return out


def _per_call(fn, args_list, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean microseconds per ``fn(*args)`` call."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        samples.append(1e6 * (time.perf_counter() - t0) / len(args_list))
    return statistics.median(samples)


def probes() -> dict:
    """Layer costs timed by direct public calls at p=53, independent of the workload.

    The ``urand.*`` and ``dist.laplace_*`` probes are always reported.  The
    others stand in for a trace metric when the workload never reaches that
    layer, so every metric is a measured time on every workload.
    """
    p = PRECISION
    grid = [(i + 0.5) / 2000 for i in range(2000)]
    xs = [urand.round_to_variate(u, p) for u in grid]
    ys = [dist.laplace_inverse_cdf(u) for u in grid]
    src = urand.BitSource(2021)
    out = {
        "urand.next_uniform_us": _per_call(urand.next_uniform, [(src, p)] * 5000),
        "urand.round_to_variate_us": _per_call(urand.round_to_variate, [(u, p) for u in grid]),
        "urand.neighbors_us": _per_call(
            urand.neighbors, [(v, divsamp.attack.DEFAULT_WINDOW) for v in xs]),
        "dist.laplace_cdf_us": _per_call(dist.laplace_cdf, [(y,) for y in ys]),
        "dist.laplace_inverse_cdf_us": _per_call(dist.laplace_inverse_cdf, [(u,) for u in grid]),
    }
    out["dist.cdf_us"] = out["dist.laplace_cdf_us"]
    for name, n in VERIFY_CONFIGS:
        draw = get_method(name, n).make_drawer(urand.BitSource(2021), p)
        out[f"sampler.draw_us.{method_key(name, n)}"] = _per_call(draw, [()] * 200)

    noise_src = get_method("naive-laplace").make_drawer(urand.BitSource(2021), p)
    noise = [noise_src() for _ in range(100)]

    def campaign():
        it = iter(noise)
        oracle = divsamp.attack.QueryOracle(1.0, lambda: next(it))
        return divsamp.attack.mironov_attack(oracle, [0.0, 1.0], p=p, max_queries=100)

    checks = survival_checks([0.0, 1.0], campaign())
    campaign_us = _per_call(campaign, [()])
    out["attack.check_us"] = campaign_us / checks
    out["attack.self_s"] = campaign_us / 1e6
    bf_p = 10
    bf_checks = divsamp.attack.brute_force_single_gaussian(0.5, bf_p).checks
    out["attack.bf_check_us"] = _per_call(
        divsamp.attack.brute_force_single_gaussian, [(0.5, bf_p)]) / bf_checks
    out["stats.ks_self_s"] = _per_call(divsamp.stats.ks_statistic, [(ys, dist.laplace_cdf)]) / 1e6
    out["stats.moments_s"] = _per_call(divsamp.stats.moments, [(ys,)]) / 1e6
    return out


def write_spans(path: Path, passes: list[list[Span]], environment: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"environment": environment,
                   "passes": [[s.as_dict() for s in spans] for spans in passes]}, fh)
