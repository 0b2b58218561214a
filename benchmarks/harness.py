"""Runs ops through ``divsamp.cli.main`` and checks each report against the golden file.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses to go on unless ``divsamp`` resolves there, so the benchmark always
measures the source next to it and never an installed copy.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "divsamp" / "__init__.py").is_file():
    raise ImportError(f"no divsamp source under {SRC}")
sys.path.insert(0, str(SRC))

import divsamp  # noqa: E402
import divsamp.cli  # noqa: E402
import numpy  # noqa: E402

if Path(divsamp.__file__).resolve().parent != SRC / "divsamp":
    raise ImportError(f"divsamp imported from {divsamp.__file__}, not from {SRC}")

from calibration import host_sample  # noqa: E402
from workloads import Op, digest  # noqa: E402


@dataclass
class OpResult:
    """Outcome of one op: its latency, exit code, report digest and any failure."""

    latency_s: float
    exit_code: int | None
    digest: str | None
    error: str | None = None
    failure: str | None = None
    host_s: float = math.nan


def run_op(op: Op, out_path: str, tracer=None) -> OpResult:
    """Run one op through ``divsamp.cli.main`` with ``--out out_path`` and digest its report."""
    try:
        os.remove(out_path)
    except FileNotFoundError:
        pass
    argv = [*op.argv, "--out", out_path]
    span = tracer.begin_op(op) if tracer is not None else None
    error = None
    t0 = time.perf_counter()
    try:
        code = divsamp.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op, not a crash
        code = None
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if span is not None:
        tracer.end_op(span)
    if error is not None:
        return OpResult(latency, code, None, error)
    try:
        with open(out_path) as fh:
            report = json.load(fh)
        return OpResult(latency, code, digest(report))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return OpResult(latency, code, None, f"unreadable report: {type(exc).__name__}: {exc}")


def checked(op: Op, result: OpResult, golden: dict) -> OpResult:
    """Set ``result.failure`` unless exit code and digest match the golden entry."""
    expected = golden.get(op.key)
    if result.error is not None:
        result.failure = result.error
    elif expected is None:
        result.failure = "no golden entry"
    elif [result.exit_code, result.digest] != expected:
        result.failure = (f"exit {result.exit_code} digest {result.digest}, "
                          f"golden exit {expected[0]} digest {expected[1]}")
    if result.failure is not None:
        result.failure = f"{op.key}: {result.failure}"
    return result


def run_cycle(ops: list[Op], out_path: str, golden: dict, tracer=None) -> list[OpResult]:
    """Run ``ops`` once each in a closed loop, sampling host speed after each, and check them."""
    results = []
    for op in ops:
        result = run_op(op, out_path, tracer)
        result.host_s = host_sample()
        results.append(checked(op, result, golden))
    return results


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What the bit-exactness of the digests depends on: interpreter, numpy, libm, CPU."""
    libc, libc_version = platform.libc_ver()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "libc": f"{libc} {libc_version}".strip(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }
