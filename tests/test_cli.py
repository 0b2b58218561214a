"""Tests for the command-line interface.

Exercises every subcommand through ``main()`` directly: exit codes,
output schema, byte-level determinism against a golden file, and the
usage-error paths (which argparse reports on stderr with exit code 2).
``TestTopLevel`` also runs the ``divsamp`` command in fresh interpreters:
through the ``[project.scripts]`` entry point, through ``python -m divsamp``
and, where one is installed, through the ``divsamp`` executable.
"""

import errno
import json
import math
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divsamp
import divsamp.cli
from divsamp.attack import DEFAULT_WINDOW, count_feasible_checks
from divsamp.cli import EXIT_FAIL, EXIT_OK, _Rounds, _build_parsers, _json, _parse, main
from divsamp.dist import gaussian_cdf, laplace_cdf
from divsamp.sampler import GaussianStream, get_method, method_names
from divsamp.stats import ks_p_value, ks_statistic, moments
from divsamp.urand import BitSource, check_count, check_precision

DATA = Path(__file__).parent / "data"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# the directory holding the divsamp this session imported; child processes
# get it as their only PYTHONPATH entry so they cannot load another copy
PACKAGE_ROOT = Path(divsamp.__file__).resolve().parents[1]

GOLDEN_ARGV = ["sample", "--method", "naive-laplace", "--p", "53",
               "--seed", "42", "--count", "3"]
DEFENDED_ARGV = ["attack", "--method", "laplace-logcos", "--seed", "1003",
                 "--candidates", "0.0,1.0", "--max-queries", "40"]
# attack reports pinned byte for byte: golden file name -> argv and the
# report's cost object, which the golden files predate
GOLDEN_ATTACKS = {
    "attack_mironov_seed1.json": (
        ["attack", "--seed", "1"],
        {"uniforms_drawn": 100, "bits_drawn": 5300, "survival_checks": 101},
    ),
    "attack_pair_box_muller_seed1.json": (
        ["attack", "--attack", "gaussian-pair", "--method", "box-muller",
         "--candidates", "0.0,1.0", "--seed", "1"],
        {"uniforms_drawn": 100, "bits_drawn": 5300, "survival_checks": 51},
    ),
}
COST_KEY = ',\n  "cost": '
# verify reports pinned byte for byte: golden file name -> argv.  The
# laplace-sqsum run draws 72,008 uniforms, so it spans several draw batches.
SQSUM_ARGV = ["verify", "--method", "laplace-sqsum", "--epsilon", "0.3",
              "--count", "9001", "--seed", "0"]
GOLDEN_VERIFY = {
    "verify_secure_gaussian_n8_seed0.json":
        ["verify", "--method", "secure-gaussian", "--n", "8", "--count", "2000", "--seed", "0"],
    "verify_laplace_sqsum_eps03_seed0.json": SQSUM_ARGV,
    "verify_laplace_sqsum_eps03_seed0.csv": [*SQSUM_ARGV, "--format", "csv"],
}

# what an installer's console-script wrapper does, with the entry point's
# value passed as the first argument instead of baked in
CONSOLE_SCRIPT = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "main = EntryPoint(name='divsamp', value=sys.argv[1],"
    " group='console_scripts').load()\n"
    "sys.argv[:2] = ['divsamp']\n"
    "sys.exit(main())\n"
)


def run_cli(argv, capsys):
    """Invoke main(), normalizing argparse's SystemExit into a return code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def usage_cases(cases: dict[str, list[str]]):
    """Parametrize ``argv`` over ``cases``, a dict from fixed test id to argv.

    Each case keeps its id wherever it sits, so inserting or deleting a case
    renames no other.  The ``argvN`` ids are the names those cases had when
    pytest numbered them by position.
    """
    return pytest.mark.parametrize("argv", list(cases.values()), ids=list(cases))


class TestSample:
    def test_matches_golden_file(self, capsys):
        code, out, err = run_cli(GOLDEN_ARGV, capsys)
        assert code == EXIT_OK
        assert out == (DATA / "sample_naive_seed42.json").read_text()

    def test_seeded_runs_are_byte_identical(self, capsys):
        argv = ["sample", "--method", "laplace-logcos", "--seed", "7", "--count", "5"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second

    def test_default_count(self, capsys):
        code, out, _ = run_cli(["sample", "--seed", "1"], capsys)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["count"] == 10
        assert len(payload["values"]) == 10
        assert payload["epsilon"] is None

    def test_epsilon_scales_laplace(self, capsys):
        base = json.loads(run_cli(["sample", "--seed", "3", "--count", "4"], capsys)[1])
        scaled = json.loads(
            run_cli(["sample", "--seed", "3", "--count", "4", "--epsilon", "0.5"], capsys)[1]
        )
        assert scaled["scale"] == 2.0
        assert scaled["values"] == [2.0 * v for v in base["values"]]

    # a divisible kernel bound to a non-default order
    @pytest.mark.parametrize("method,uniforms", [("secure-gaussian", 4), ("laplace-sqsum", 16)])
    def test_divisibility_shows_in_metadata(self, method, uniforms, capsys):
        code, out, _ = run_cli(["sample", "--method", method, "--n", "2", "--seed", "1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["uniforms_per_draw"] == uniforms

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--seed", "11", "--count", "3", "--format", "csv"], capsys
        )
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0].startswith("# command=sample")
        assert lines[1] == "index,value"
        assert len(lines) == 5
        # floats are emitted in round-trip form
        for line in lines[2:]:
            idx, val = line.split(",")
            assert float(val) == pytest.approx(float(val))
            assert repr(float(val)) == val

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["sample", "--seed", "5", "--count", "2", "--out", str(dest)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(dest.read_text())["count"] == 2

    @usage_cases({
        "argv0": ["sample", "--count", "0"],
        "argv1": ["sample", "--method", "no-such-method"],
        "argv2": ["sample", "--p", "0"],
        "argv3": ["sample", "--p", "54"],
        "argv4": ["sample", "--n", "0"],
        "argv5": ["sample", "--epsilon", "0"],
        "argv6": ["sample", "--method", "box-muller", "--epsilon", "1.0"],
        "argv7": ["sample", "--method", "naive-laplace", "--n", "2"],
        "argv8": ["sample", "--epsilon", "nan"],
        "argv9": ["sample", "--epsilon", "inf"],
        "argv10": ["sample", "--epsilon", "1e-320"],
        "argv11": ["sample", "--method", "laplace-logcos", "--epsilon", "1e-308",
                   "--seed", "1", "--count", "200"],
        "argv12": ["sample", "--seed", "-1", "--count", "3"],
        "argv13": ["sample", "--method", "secure-gaussian", "--n", "-2"],
    })
    def test_usage_errors(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err != ""


class TestAttack:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ATTACKS))
    def test_matches_golden_file(self, name, capsys):
        argv, cost = GOLDEN_ATTACKS[name]
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        # the cost object comes last; the rest of the report is the golden file
        head, key, _ = out.rpartition(COST_KEY)
        assert key == COST_KEY
        assert head + "\n}\n" == (DATA / name).read_text()
        assert json.loads(out)["cost"] == cost

    @pytest.mark.parametrize("name", sorted(GOLDEN_ATTACKS))
    def test_csv_matches_golden_file(self, name, capsys):
        # the same argv with --format csv, pinned at the commit before the
        # cost object, so the meta line must still leave it out
        argv, _ = GOLDEN_ATTACKS[name]
        code, out, _ = run_cli([*argv, "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out == (DATA / name).with_suffix(".csv").read_text()

    def test_mironov_identifies_naive_target(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--seed", "1001", "--candidates", "0.0,1.0,2.0",
             "--target", "1.0", "--max-queries", "40"],
            capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["status"] == "identified"
        assert payload["identified"] == 1.0
        assert payload["target"] == 1.0
        assert payload["queries_used"] == 40
        assert len(payload["trace"]) == 40

    def test_target_defaults_to_first_candidate(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--seed", "1002", "--candidates", "3.5,0.0", "--max-queries", "30"],
            capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["target"] == 3.5
        assert payload["identified"] == 3.5

    def test_hardened_sampler_defeats_attack(self, capsys):
        code, out, _ = run_cli(DEFENDED_ARGV, capsys)
        payload = json.loads(out)
        assert code == EXIT_FAIL
        assert payload["status"] == "all_eliminated"
        assert payload["identified"] is None

    def test_pair_attack_on_box_muller(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--attack", "gaussian-pair", "--method", "box-muller",
             "--seed", "1004", "--candidates", "0.0,1.0", "--max-queries", "40"],
            capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["status"] == "identified"
        assert payload["identified"] == 0.0
        # each trace round holds a two-element query pair
        assert all(len(rnd["query"]) == 2 for rnd in payload["trace"])

    def test_pair_attack_defeated_by_secure_gaussian(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--attack", "gaussian-pair", "--method", "secure-gaussian",
             "--seed", "1005", "--candidates", "0.0,1.0", "--max-queries", "60"],
            capsys,
        )
        assert code == EXIT_FAIL
        assert json.loads(out)["status"] == "all_eliminated"

    def test_epsilon_scaled_attack_still_identifies(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--seed", "1006", "--candidates", "0.0,1.0", "--target", "1.0",
             "--epsilon", "0.25", "--max-queries", "40"],
            capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["scale"] == 4.0
        assert payload["identified"] == 1.0

    def test_csv_trace(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--seed", "1007", "--candidates", "0.0,1.0",
             "--max-queries", "10", "--format", "csv"],
            capsys,
        )
        lines = out.splitlines()
        assert lines[0].startswith("# command=attack")
        assert lines[1] == "round,query,eliminated"

    @usage_cases({
        "argv0": ["attack", "--candidates", ""],
        "argv1": ["attack", "--candidates", "1.0,abc"],
        "argv2": ["attack", "--attack", "mironov", "--method", "box-muller"],
        "argv3": ["attack", "--attack", "gaussian-pair", "--method", "naive-laplace"],
        "argv4": ["attack", "--attack", "unknown-kind"],
        # every attack runs at the library's default window
        "argv5": ["attack", "--window", "3"],
        "argv6": ["attack", "--candidates", "0.0,nan", "--seed", "1"],
        "argv7": ["attack", "--target", "nan", "--seed", "1"],
        "argv8": ["attack", "--max-queries", "-5", "--seed", "1"],
        "argv9": ["attack", "--epsilon", "nan", "--seed", "1"],
        "argv10": ["attack", "--epsilon", "inf", "--seed", "1"],
        "argv11": ["attack", "--epsilon", "1e-320", "--seed", "1"],
        "argv12": ["attack", "--epsilon", "1e-308", "--seed", "1"],
        "argv15": ["attack", "--seed", "-1"],
        "argv16": ["attack", "--p", "54"],
    })
    def test_usage_errors(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err != ""
        if "--window" in argv:
            assert "unrecognized arguments: --window" in err


class TestVerify:
    @pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
    def test_matches_golden_file(self, name, capsys):
        code, out, _ = run_cli(GOLDEN_VERIFY[name], capsys)
        assert code == EXIT_OK
        assert out == (DATA / name).read_text()

    def test_naive_laplace_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--seed", "2001", "--count", "20000"], capsys
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["pass"] is True
        assert [c["name"] for c in payload["checks"]] == ["ks", "variance"]
        assert all(c["pass"] for c in payload["checks"])
        assert payload["reference"] == "laplace"

    def test_secure_gaussian_passes_against_own_family(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--method", "secure-gaussian", "--seed", "2002",
             "--count", "20000"],
            capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["reference"] == "gaussian"
        assert payload["pass"] is True

    def test_coarse_grid_fails(self, capsys):
        # naive-laplace at p=2 draws from four grid points only
        code, out, _ = run_cli(
            ["verify", "--p", "2", "--seed", "2003", "--count", "20000"],
            capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_FAIL
        assert payload["pass"] is False
        assert payload["checks"][0]["p_value"] == 0.0

    def test_epsilon_rescales_reference_variance(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--seed", "2004", "--count", "40000", "--epsilon", "0.5"],
            capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        var_check = payload["checks"][1]
        assert var_check["expected"] == 8.0
        assert abs(payload["moments"]["variance"] - 8.0) <= 0.24

    @pytest.mark.parametrize(
        "extra,uniforms,bits",
        [([], 2000, 106_000),
         (["--method", "secure-gaussian", "--n", "8"], 32_000, 1_696_000)],
    )
    def test_cost_reported(self, extra, uniforms, bits, capsys):
        _, out, _ = run_cli(["verify", "--seed", "2006", "--count", "2000", *extra], capsys)
        assert json.loads(out)["cost"] == {"uniforms_drawn": uniforms, "bits_drawn": bits}

    def test_cost_left_out_of_csv(self, capsys):
        _, out, _ = run_cli(
            ["verify", "--seed", "2006", "--count", "100", "--format", "csv"], capsys)
        assert "cost" not in out and "uniforms_drawn" not in out

    @pytest.mark.parametrize("name", method_names())
    def test_ks_statistic_matches_scalar_cdf(self, name, capsys):
        # verify's KS evaluates the dist CDF on numpy columns; wrapped in a
        # lambda, the scalar CDF is called once per sample instead
        cases = [([], 1.0)]
        laplace = get_method(name).family == "laplace"
        if laplace:
            cases.append((["--epsilon", "0.3"], 1.0 / 0.3))
        for extra, scale in cases:
            _, out, _ = run_cli(["verify", "--method", name, "--seed", "2007", "--count", "3001",
                                 *extra], capsys)
            column = get_method(name).column(BitSource(seed=2007), 53, 3001)
            values = [scale * x for x in column.tolist()]
            if laplace:
                want = ks_statistic(values, lambda x: laplace_cdf(x / scale))
            else:
                want = ks_statistic(values, lambda x: gaussian_cdf(x))
            assert json.loads(out)["checks"][0]["statistic"] == want

    def test_ks_margin_and_p_value(self, capsys):
        checks = []
        for extra in ([], ["--p", "2"]):
            _, out, _ = run_cli(["verify", "--seed", "2008", "--count", "3000", *extra], capsys)
            ks = json.loads(out)["checks"][0]
            # added after the fields the report always had, which keep their order
            assert list(ks) == ["name", "statistic", "critical_value", "alpha", "pass",
                                "margin", "p_value"]
            assert ks["margin"] == ks["critical_value"] - ks["statistic"]
            assert (ks["margin"] > 0) == ks["pass"]
            assert ks["p_value"] == ks_p_value(ks["statistic"], 3000)
            checks.append(ks)
        # naive Laplace passes on the full grid and fails on a 4-point one
        assert checks[0]["p_value"] > 0.01 > checks[1]["p_value"] >= 0.0

    def test_moments_reported(self, capsys):
        _, out, _ = run_cli(["verify", "--seed", "2005", "--count", "5000"], capsys)
        m = json.loads(out)["moments"]
        assert set(m) == {"mean", "variance", "skewness", "excess_kurtosis"}

    @usage_cases({
        "argv0": ["verify", "--count", "2"],
        "argv1": ["verify", "--against", "poisson"],
        "argv2": ["verify", "--method", "box-muller", "--epsilon", "1.0"],
        "argv3": ["verify", "--epsilon", "nan", "--count", "100"],
        "argv4": ["verify", "--epsilon", "inf", "--count", "100"],
        "argv5": ["verify", "--epsilon", "1e-320", "--count", "100"],
        "argv6": ["verify", "--epsilon", "1e-200", "--count", "1000", "--seed", "1"],
        # naive-laplace emits only 0.0 at p=1: no variance to check
        "argv7": ["verify", "--p", "1", "--seed", "0", "--count", "10"],
        "argv8": ["verify", "--seed", "-1", "--count", "100"],
        "argv9": ["verify", "--p", "0", "--count", "100"],
        "argv10": ["verify", "--method", "secure-gaussian", "--n", "0", "--count", "100"],
        # every sampler is verified against its own family only
        "argv11": ["verify", "--against", "gaussian"],
    })
    def test_usage_errors(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err != ""
        if "--against" in argv:
            assert "unrecognized arguments: --against" in err


class TestComplexity:
    def test_theoretical_only_full_precision(self, capsys):
        code, out, _ = run_cli(["complexity", "--p", "53"], capsys)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["theoretical_checks"] == 2.0**52.5
        assert payload["empirical_mean_checks"] is None
        assert payload["ratio"] is None

    def test_empirical_tracks_theory_at_small_precision(self, capsys):
        code, out, _ = run_cli(
            ["complexity", "--p", "10", "--count", "150", "--seed", "8"], capsys
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["count"] == 150
        assert payload["theoretical_checks"] == 2.0**9.5
        assert 0.7 < payload["ratio"] < 1.3
        assert payload["empirical_mean_checks"] == pytest.approx(
            payload["ratio"] * payload["theoretical_checks"], rel=1e-12
        )

    # p = 20 is the largest precision the brute-force search allows
    @pytest.mark.parametrize("p,count,cost", [
        (10, 20, {"checks": 12589, "pairs_found": 24, "uniforms_drawn": 40, "bits_drawn": 400}),
        (20, 1, {"checks": 367036, "pairs_found": 1, "uniforms_drawn": 2, "bits_drawn": 40}),
    ], ids=["p10", "p20"])
    def test_reports_window_and_cost(self, p, count, cost, capsys):
        code, out, _ = run_cli(
            ["complexity", "--p", str(p), "--count", str(count), "--seed", "0"], capsys
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert list(payload) == [
            "command", "p", "seed", "theoretical_checks", "count", "window",
            "empirical_mean_checks", "ratio", "cost",
        ]
        assert payload["window"] == 2
        # one search per draw; each draw takes two p-bit uniforms for one
        # Box-Muller pair, whose sine half is discarded
        assert payload["cost"] == cost
        assert payload["empirical_mean_checks"] == cost["checks"] / count

    def test_window_changes_checks(self, capsys):
        p, count = 10, 20
        _, out, _ = run_cli(
            ["complexity", "--p", str(p), "--count", str(count), "--seed", "0"], capsys
        )
        payload = json.loads(out)
        assert payload["window"] == DEFAULT_WINDOW
        # replay the CLI's draws: cosine halves searched, sine halves discarded
        stream = GaussianStream(BitSource(0), p)
        feasible = 0
        for _ in range(count):
            feasible += count_feasible_checks(stream.next(), p)
            stream.next()
        assert feasible == 12589 - 2 * 20
        # the window pads the u1 walk by that many rows per search
        assert payload["cost"]["checks"] == feasible + DEFAULT_WINDOW * count

    # above the search cap the report is the model alone, and nothing is drawn
    @pytest.mark.parametrize("p,theoretical", [
        (21, "1482910.4003789306"), (53, "6369051672525773.0"),
    ], ids=["p21", "p53"])
    def test_model_only_above_search_cap(self, p, theoretical, capsys, monkeypatch):
        def no_stream(*args):
            raise AssertionError("no GaussianStream above the search cap")

        monkeypatch.setattr(divsamp.cli, "GaussianStream", no_stream)
        code, out, _ = run_cli(["complexity", "--p", str(p)], capsys)
        assert code == EXIT_OK
        assert list(json.loads(out)) == [
            "command", "p", "seed", "theoretical_checks", "empirical_mean_checks", "ratio",
        ]
        assert out == (
            '{\n  "command": "complexity",\n'
            f'  "p": {p},\n  "seed": 0,\n  "theoretical_checks": {theoretical},\n'
            '  "empirical_mean_checks": null,\n  "ratio": null\n}\n'
        )
        code, out, _ = run_cli(["complexity", "--p", str(p), "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert out == (
            f"# command=complexity p={p} seed=0 theoretical_checks={theoretical}"
            " empirical_mean_checks= ratio=\n"
            f"quantity,value\ntheoretical_checks,{theoretical}\n"
        )

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["complexity", "--p", "8", "--count", "20", "--format", "csv"], capsys
        )
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[1] == "quantity,value"
        assert any(line.startswith("theoretical_checks,") for line in lines)

    @usage_cases({
        "argv0": ["complexity", "--p", "0"],
        "argv1": ["complexity", "--p", "60"],
        "argv2": ["complexity", "--p", "8", "--count", "0"],
        "argv3": ["complexity", "--p", "8", "--count", "5", "--seed", "-1"],
        # count and seed are checked where no search runs, too
        "argv4": ["complexity", "--p", "30", "--count", "-5"],
        # every search runs at the library's default window
        "argv5": ["complexity", "--window", "2"],
        "argv6": ["complexity", "--p", "30", "--seed", "-1"],
        # p alone decides whether a search runs
        "argv7": ["complexity", "--p", "53", "--theoretical-only"],
    })
    def test_usage_errors(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err != ""
        for flag in ("--window", "--theoretical-only"):
            if flag in argv:
                assert f"unrecognized arguments: {flag}" in err


def library_message(call, *args) -> str:
    """The message of the ValueError that ``call(*args)`` raises."""
    with pytest.raises(ValueError) as exc:
        call(*args)
    return str(exc.value)


class TestOneErrorPath:
    """main() alone turns a ValueError into a usage error, and only a ValueError.

    Handlers and the library raise ``ValueError`` for a bad argument; the
    message on stderr is the library's own.
    """

    @pytest.mark.parametrize("argv,out,message", [
        (["sample", "--p", "0"], "report.json",
         lambda out: library_message(check_precision, 0)),
        (["attack", "--seed", "-1"], "report.json",
         lambda out: library_message(BitSource, -1)),
        (["sample", "--n", "0"], "report.json",
         lambda out: library_message(get_method, "naive-laplace", 0)),
        (["attack", "--max-queries", "-1"], "report.json",
         lambda out: library_message(check_count, -1, "query budget")),
        (["complexity", "--p", "0"], "report.json",
         lambda out: library_message(check_precision, 0)),
        (["verify", "--p", "1", "--seed", "0", "--count", "10"], "report.json",
         lambda out: "cannot verify naive-laplace at p=1: "
                     + library_message(moments, [0.0] * 10)),
        (["sample", "--seed", "1"], "missing/report.json",
         lambda out: f"cannot write {out}: {os.strerror(errno.ENOENT)}"),
    ], ids=["sample-p0", "attack-seed-negative", "sample-n0", "attack-max-queries-negative",
            "complexity-p0", "verify-p1", "sample-out-missing-dir"])
    def test_message_is_the_library_s(self, argv, out, message, capsys, tmp_path):
        out = tmp_path / out
        code, stdout, err = run_cli([*argv, "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err.splitlines()[-1] == "divsamp: error: " + message(out)
        assert not out.exists()

    def test_rejected_before_the_first_draw(self, capsys, monkeypatch):
        calls = []

        class Counted(GaussianStream):
            def next(self):
                calls.append(1)
                return super().next()

        monkeypatch.setattr(divsamp.cli, "GaussianStream", Counted)
        for argv in (["--p", "54", "--count", "3"], ["--p", "14", "--count", "0"]):
            code, out, _ = run_cli(["complexity", *argv], capsys)
            assert (code, out, calls) == (2, "", [])
        # above the search cap the report needs no draw
        code, _, _ = run_cli(["complexity", "--p", "21", "--count", "3"], capsys)
        assert (code, calls) == (EXIT_OK, [])

    def test_other_exceptions_propagate(self, capsys, monkeypatch):
        def broken(seed=None):
            raise RuntimeError("not a usage error")

        monkeypatch.setattr(divsamp.cli, "BitSource", broken)
        with pytest.raises(RuntimeError, match="not a usage error"):
            main(["sample", "--seed", "1"])
        assert capsys.readouterr() == ("", "")


# report-shaped JSON trees: str keys; nested dicts, lists, tuples and empty
# containers; every float json writes specially; big ints, bools and None;
# strings with non-ASCII and control characters
json_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 1e-5]),
)
json_strings = st.one_of(st.text(), st.sampled_from(["é", "\x00\x1f\x7f", "\u2028", "😀", '"\\/']))
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**63, max_value=2**200),
    json_floats, json_strings,
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(json_strings, kids, max_size=4),
    ),
    max_leaves=25,
)


# attack traces: scalar and pair queries, and 0, 1 or 2 eliminated
# candidates, over every float json writes specially and subnormals
trace_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-308]),
)
traces = st.lists(st.tuples(st.one_of(trace_floats, st.tuples(trace_floats, trace_floats)),
                            st.lists(trace_floats, max_size=2)), max_size=6)


class TestJsonWriter:
    """``cli._json`` writes what ``json.dumps(value, indent=2)`` writes, byte for byte."""

    @given(json_trees)
    @settings(max_examples=200)
    def test_matches_json_dumps(self, tree):
        assert _json(tree) + "\n" == json.dumps(tree, indent=2) + "\n"

    @given(traces)
    @example([])
    @settings(max_examples=200)
    def test_trace_matches_json_dumps(self, rounds):
        # the trace writer, at the top level and inside a report, against
        # the round objects the report's "trace" stands for
        report = {"queries_used": 7, "trace": _Rounds(rounds), "cost": {"survival_checks": 3}}
        expected = {**report, "trace": [{"query": q, "eliminated": gone} for q, gone in rounds]}
        assert _json(report) == json.dumps(expected, indent=2)
        assert _json(report["trace"]) == json.dumps(expected["trace"], indent=2)

    def test_float_subclass_written_as_float(self):
        class Tagged(float):
            def __repr__(self):
                return "tagged"

        value = {"x": Tagged(0.1), "y": [Tagged(math.inf)]}
        assert _json(value) == json.dumps(value, indent=2)
        assert "tagged" not in _json(value)

    @pytest.mark.parametrize("value", [{1, 2}, {"x": [set()]}, {1: 2}, b"x"])
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError):
            _json(value)


class TestTopLevel:
    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 2
        assert err != ""

    def test_main_is_reentrant(self, capsys):
        # main() parses with one parser per process; no call may leave an
        # option, a default or an error message behind for the next one
        bad = ["attack", "--max-queries", "-1"]
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        _, first_err = capsys.readouterr()
        assert first_err != ""
        _, out, _ = run_cli(["attack", "--max-queries", "7"], capsys)
        assert json.loads(out)["max_queries"] == 7
        _, out, _ = run_cli(["attack"], capsys)
        assert json.loads(out)["max_queries"] == 100
        assert json.loads(out)["seed"] is None
        code, out, _ = run_cli(GOLDEN_ARGV, capsys)
        assert code == EXIT_OK
        assert out == (DATA / "sample_naive_seed42.json").read_text()
        assert run_cli(bad, capsys) == (2, "", first_err)

    # main() parses a subcommand's options with that subcommand's own
    # parser, and hands any argv it cannot finish to the full parser
    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["attack", "--bogus"], ["attack", "--p", "x"],
        ["verify", "--format", "xml"], ["complexity", "--", "3"], ["attack", "-h"],
    ])
    def test_parse_errors_read_as_the_full_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as want:
            _build_parsers()[0].parse_args(argv)
        want_out, want_err = capsys.readouterr()
        assert run_cli(argv, capsys) == (want.value.code, want_out, want_err)

    @pytest.mark.parametrize("argv", [
        ["sample"],
        GOLDEN_ARGV,
        DEFENDED_ARGV,
        ["attack", "--attack", "gaussian-pair", "--method", "box-muller",
         "--target", "1.0", "--epsilon", "2", "--format", "csv", "--out", "x"],
        ["attack", "--max-q", "7", "--cand", "1,2"],
        ["verify", "--method", "secure-gaussian", "--n", "3", "--count", "50"],
        ["complexity", "--p", "8", "--count", "3"],
    ])
    def test_parses_as_the_full_parser(self, argv):
        assert vars(_parse(argv)) == vars(_build_parsers()[0].parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["sample", "--seed", "1", "--out", "{tmp}/missing/x.json"],
        ["verify", "--seed", "1", "--count", "5000", "--out", "{tmp}"],
    ])
    def test_unwritable_out(self, argv, capsys, tmp_path):
        # a usage error naming the path, not an OSError traceback
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(f"divsamp: error: cannot write {argv[-1]}: ")

    def test_entry_point_installed(self):
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
        assert "divsamp" in scripts, "[project.scripts] declares no divsamp"
        value = scripts["divsamp"]
        entry = EntryPoint(name="divsamp", value=value, group="console_scripts")
        assert entry.load() is main
        assert_runs_as_divsamp([sys.executable, "-c", CONSOLE_SCRIPT, value])

    def test_cli_import_loads_no_openssl(self):
        # secure mode needs only random.SystemRandom; secrets would pull in
        # hmac and _hashlib, which load libcrypto into every divsamp process
        probe = ("import sys, divsamp.cli; "
                 "print(sorted({'secrets', 'hmac', '_hashlib'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env,
                              timeout=120, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_python_dash_m(self):
        assert_runs_as_divsamp([sys.executable, "-m", "divsamp"])

    @pytest.mark.skipif(
        shutil.which("divsamp") is None, reason="divsamp console script not installed"
    )
    def test_installed_executable(self):
        assert_runs_as_divsamp([shutil.which("divsamp")])


def assert_runs_as_divsamp(command):
    """Check that ``command`` behaves as the ``divsamp`` CLI in a fresh process."""

    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}

    def run(argv):
        return subprocess.run(
            [*command, *argv], capture_output=True, env=env, timeout=120
        )

    golden = run(GOLDEN_ARGV)
    assert golden.returncode == EXIT_OK, golden.stderr
    assert golden.stdout == (DATA / "sample_naive_seed42.json").read_bytes()

    usage = run([])
    assert usage.returncode == 2
    assert usage.stderr != b""

    # exit 2 here is main()'s own return value: the report is on stdout
    defended = run(DEFENDED_ARGV)
    assert defended.returncode == EXIT_FAIL, defended.stderr
    assert json.loads(defended.stdout)["status"] == "all_eliminated"
