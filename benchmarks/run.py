"""divsamp benchmark: one workload, one process, one thread, closed loop.

    python3 benchmarks/run.py --workload verify-sweep --seed 0 --seconds 30 --trace 0

Each op is one in-process ``divsamp.cli.main(argv)`` call writing its report
to a temporary ``--out`` file inside the checkout; the next op starts when
the previous one returns.  Every report is read back and checked against
``golden.json`` (exit code and digest).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment.  See README.md.
"""

import time

_T0 = time.perf_counter()  # setup_s starts before numpy and divsamp are imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import host_scale  # noqa: E402
from workloads import DEFAULT_SEED, DRAW_KEYS, WORKLOADS  # noqa: E402

MIN_CYCLES = 3  # an op's median latency needs at least three runs
SETUP_SAMPLES = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "cli.self_share": "ratio",
    "sampler.draws": "count",
    "sampler.self_s": "s",
    "sampler.noise_share": "ratio",
    **{f"sampler.draw_us.{key}": "us" for key in DRAW_KEYS},
    "urand.uniforms_drawn": "count",
    "urand.bits_drawn": "count",
    "urand.next_uniform_us": "us",
    "urand.round_to_variate_us": "us",
    "urand.neighbors_us": "us",
    "dist.cdf_calls": "count",
    "dist.cdf_us": "us",
    "dist.laplace_cdf_us": "us",
    "dist.laplace_inverse_cdf_us": "us",
    "attack.survival_checks": "count",
    "attack.self_s": "s",
    "attack.check_us": "us",
    "attack.queries": "count",
    "attack.ident_rate": "ratio",
    "attack.first_round_elim": "ratio",
    "attack.bf_checks": "count",
    "attack.bf_check_us": "us",
    "attack.bf_checks_vs_model": "ratio",
    "stats.ks_self_s": "s",
    "stats.moments_s": "s",
    "trace.overhead": "ratio",
    "fail_frac": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def scaled_latencies(cycle) -> list[float]:
    """Each op's latency times the host scale sampled just before and just after it."""
    hosts = [r.host_s for r in cycle]
    before = hosts[:1] + hosts[:-1]
    return [r.latency_s * host_scale([b, a]) for r, b, a in zip(cycle, before, hosts)]


def per_op_latency(cycles, scaled: bool = True) -> list[float]:
    """Each op's median latency over the cycles, in seconds, sorted.

    Every cycle runs the same ops in the same order, so each op's runs are
    spread over the whole pass.  With ``scaled``, latencies are first scaled
    to reference host speed.
    """
    rows = [scaled_latencies(c) if scaled else [r.latency_s for r in c] for c in cycles]
    return sorted(statistics.median(col) for col in zip(*rows))


def _ops_per_s(latencies) -> float:
    return len(latencies) / sum(latencies)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_SAMPLES`` fresh interpreters, each timing itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def timed_run(ops, out_path, golden, seconds, setups):
    """Untraced closed loop over whole cycles of ``ops`` until ``seconds`` have elapsed."""
    from harness import run_cycle

    cycles = []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        cycles.append(run_cycle(ops, out_path, golden))
    # One set-up is too short for a steady host sample of its own, so set-up
    # is scaled by the host speed of the whole timed pass that follows it.
    scale = host_scale([r.host_s for c in cycles for r in c])
    metrics = {"setup_s": statistics.median(setups) * scale}
    unscaled = {"setup_s": statistics.median(setups)}
    for out, scaled in ((metrics, True), (unscaled, False)):
        latencies = per_op_latency(cycles, scaled)
        out.update({
            "ops_per_s": _ops_per_s(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        })
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"cycles": len(cycles), "unscaled": unscaled, "host_scale": scale}
    return [r for c in cycles for r in c], metrics, [], info


def traced_run(ops, out_path, golden, seconds, trace_path, env):
    """Alternate untraced and traced cycles over the same ops until ``seconds`` have elapsed."""
    import tracing
    from harness import run_cycle

    plain_cycles, traced_cycles, passes = [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_CYCLES or time.perf_counter() - start < seconds:
        plain_cycles.append(run_cycle(ops, out_path, golden))
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced_cycles.append(run_cycle(ops, out_path, golden, tracer))
        passes.append(tracer.spans)
    tracing.write_spans(trace_path, passes, env)

    pass_counts = [tracing.counts(spans) for spans in passes]
    problems = [] if all(c == pass_counts[0] for c in pass_counts) else [
        f"work counts differ between identical traced passes: {pass_counts}"]
    results = [r for c in plain_cycles + traced_cycles for r in c]
    metrics = {
        **tracing.probes(),
        **tracing.timings([s for spans in passes for s in spans]),
        **pass_counts[0],
        "trace.overhead": 1.0 - (_ops_per_s(per_op_latency(traced_cycles))
                                 / _ops_per_s(per_op_latency(plain_cycles))),
        "fail_frac": sum(r.failure is not None for r in results) / len(results),
    }
    info = {"cycles": len(passes),
            "host_scale": host_scale([r.host_s for r in results])}
    return results, metrics, problems, info


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import harness
    except ImportError as exc:
        print(f"cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    from workloads import build_ops, load_golden, pool_of, warmup_op

    golden = load_golden()[args.workload]
    ops = build_ops(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=harness.ROOT) as tmp:
        out_path = str(Path(tmp) / "report.json")
        warm_op = warmup_op(args.workload, args.seed)
        warm = harness.checked(warm_op, harness.run_op(warm_op, out_path), golden)
        if args.setup_only:
            print(f"{time.perf_counter() - _T0!r}")
            return 0
        env = harness.environment()
        if args.trace:
            trace_path = harness.ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            results, metrics, problems, info = traced_run(
                ops, out_path, golden, args.seconds, trace_path, env)
            units = PER_LAYER
        else:
            setups = setup_seconds(args.workload, args.seed)
            results, metrics, problems, info = timed_run(
                ops, out_path, golden, args.seconds, setups)
            units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    problems += [r.failure for r in [warm, *results] if r.failure is not None]
    for line in problems[:10]:
        print(f"FAIL {line}")
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed,
                      "pool": pool_of(args.seed), "distinct_ops": len(ops), **info}))
    failed = sum(r.failure is not None for r in results)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
