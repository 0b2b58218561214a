"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def out_path(tmp_path):
    return str(tmp_path / "report.json")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_identical_for_equal_seeds(workload):
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, 7, 123456):
        assert workloads.build_ops(workload, seed) == workloads.build_ops(workload, seed)
    assert workloads.build_ops(workload, 2) != workloads.build_ops(workload, 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_covers_both_pools_and_held_out_is_disjoint(workload):
    golden = workloads.load_golden()[workload]
    regression = {op.key for op in workloads.build_ops(workload, workloads.DEFAULT_SEED)}
    held_out = {op.key for op in workloads.build_ops(workload, workloads.HELD_OUT_SEED)}
    assert regression <= golden.keys() and held_out <= golden.keys()
    assert not regression & held_out
    # every op is its own latency sample, so p90 has at least ten ops beyond it
    assert min(len(regression), len(held_out)) >= 100


def test_metric_names_are_well_formed_and_match_the_spec():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == {**run.END_TO_END, **run.PER_LAYER}[m["name"]]


def _nudge_first_draw(get_method, nudged):
    """A ``get_method`` whose drawers move the first draw of the run up by one ulp."""

    class Nudged:
        def __init__(self, method):
            self._method = method

        def __getattr__(self, name):
            return getattr(self._method, name)

        def make_drawer(self, src, p=53):
            draw = self._method.make_drawer(src, p)

            def drawer():
                x = draw()
                if not nudged:
                    nudged.append(x)
                    return math.nextafter(x, math.inf)
                return x

            return drawer

    return lambda name, n=None: Nudged(get_method(name, n))


def test_one_ulp_nudge_of_one_draw_makes_fail_frac_positive(monkeypatch, out_path, tmp_path):
    # With target 0.0 the query is the draw itself; with target 1.0 the sum
    # 1.0 + noise can round the nudge away and leave the report bit-identical.
    ops = [op for op in workloads.build_ops("attack-campaigns", workloads.DEFAULT_SEED)
           if "naive-laplace" in op.argv and op.argv[op.argv.index("--target") + 1] == "0.0"]
    golden = workloads.load_golden()["attack-campaigns"]
    env = harness.environment()

    _, clean, _, _ = run.traced_run(ops, out_path, golden, 0, tmp_path / "t.json", env)
    assert clean["fail_frac"] == 0

    nudged: list[float] = []
    monkeypatch.setattr(harness.divsamp.cli, "get_method",
                        _nudge_first_draw(harness.divsamp.cli.get_method, nudged))
    results, metrics, _, _ = run.traced_run(ops, out_path, golden, 0, tmp_path / "t.json", env)
    assert len(nudged) == 1
    assert sum(r.failure is not None for r in results) == 1
    assert metrics["fail_frac"] > 0


def test_traced_run_restores_every_wrapped_attribute(out_path):
    before = [getattr(module, name) for module, name in tracing.PATCHED]
    ops = workloads.build_ops("inversion-search", workloads.DEFAULT_SEED)[:2]
    ops += workloads.build_ops("verify-sweep", workloads.DEFAULT_SEED)[:2]
    ops += workloads.build_ops("attack-campaigns", workloads.DEFAULT_SEED)[:5]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="stop"):
        with tracing.traced(tracer):
            assert all(getattr(m, n) is not b for (m, n), b in zip(tracing.PATCHED, before))
            harness.run_cycle(ops, out_path, {}, tracer)
            raise RuntimeError("stop")
    assert all(getattr(m, n) is b for (m, n), b in zip(tracing.PATCHED, before))
    assert {s.name for s in tracer.spans} >= {
        "op", "attack:mironov", "attack:pair", "attack:brute", "stats:ks", "stats:moments"}


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_result_line_reports_every_metric(trace, names):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "attack-campaigns",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True, cwd=harness.ROOT)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    assert list(result["metrics"]) == list(names)
    for metric, unit in names.items():
        assert result["metrics"][metric]["unit"] == unit
        assert math.isfinite(result["metrics"][metric]["value"])
