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
from hypothesis import given, settings
from hypothesis import strategies as st

import divsamp
import divsamp.cli
from divsamp.attack import brute_force_single_gaussian
from divsamp.cli import EXIT_FAIL, EXIT_OK, _build_parsers, _json, _parse, main
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

    def test_divisibility_shows_in_metadata(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--method", "secure-gaussian", "--n", "2", "--seed", "1"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["uniforms_per_draw"] == 4

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--count", "0"],
            ["sample", "--method", "no-such-method"],
            ["sample", "--p", "0"],
            ["sample", "--p", "54"],
            ["sample", "--n", "0"],
            ["sample", "--epsilon", "0"],
            ["sample", "--method", "box-muller", "--epsilon", "1.0"],
            ["sample", "--method", "naive-laplace", "--n", "2"],
            ["sample", "--epsilon", "nan"],
            ["sample", "--epsilon", "inf"],
            ["sample", "--epsilon", "1e-320"],
            ["sample", "--method", "laplace-logcos", "--epsilon", "1e-308",
             "--seed", "1", "--count", "200"],
            ["sample", "--seed", "-1", "--count", "3"],
            ["sample", "--method", "secure-gaussian", "--n", "-2"],
        ],
    )
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "--candidates", ""],
            ["attack", "--candidates", "1.0,abc"],
            ["attack", "--attack", "mironov", "--method", "box-muller"],
            ["attack", "--attack", "gaussian-pair", "--method", "naive-laplace"],
            ["attack", "--attack", "unknown-kind"],
            ["attack", "--window", "-1"],
            ["attack", "--candidates", "0.0,nan", "--seed", "1"],
            ["attack", "--target", "nan", "--seed", "1"],
            ["attack", "--max-queries", "-5", "--seed", "1"],
            ["attack", "--epsilon", "nan", "--seed", "1"],
            ["attack", "--epsilon", "inf", "--seed", "1"],
            ["attack", "--epsilon", "1e-320", "--seed", "1"],
            ["attack", "--epsilon", "1e-308", "--seed", "1"],
            ["attack", "--seed", "1", "--window", "100000000", "--max-queries", "2"],
            ["attack", "--attack", "gaussian-pair", "--method", "box-muller",
             "--window", "128", "--seed", "1"],
            ["attack", "--seed", "-1"],
            ["attack", "--p", "54"],
            ["attack", "--attack", "gaussian-pair", "--method", "box-muller", "--window", "-1"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err != ""


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

    def test_wrong_reference_fails(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--seed", "2003", "--count", "20000", "--against", "gaussian"],
            capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_FAIL
        assert payload["pass"] is False

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
        cases = [([], "laplace", 1.0), ([], "gaussian", 1.0)]
        if get_method(name).family == "laplace":
            cases.append((["--epsilon", "0.3"], "laplace", 1.0 / 0.3))
        for extra, reference, scale in cases:
            _, out, _ = run_cli(["verify", "--method", name, "--seed", "2007", "--count", "3001",
                                 "--against", reference, *extra], capsys)
            column = get_method(name).column(BitSource(seed=2007), 53, 3001)
            values = [scale * x for x in column.tolist()]
            if reference == "laplace":
                want = ks_statistic(values, lambda x: laplace_cdf(x / scale))
            else:
                want = ks_statistic(values, lambda x: gaussian_cdf(x))
            assert json.loads(out)["checks"][0]["statistic"] == want

    def test_ks_margin_and_p_value(self, capsys):
        checks = []
        for extra in ([], ["--against", "gaussian"]):
            _, out, _ = run_cli(["verify", "--seed", "2008", "--count", "3000", *extra], capsys)
            ks = json.loads(out)["checks"][0]
            # added after the fields the report always had, which keep their order
            assert list(ks) == ["name", "statistic", "critical_value", "alpha", "pass",
                                "margin", "p_value"]
            assert ks["margin"] == ks["critical_value"] - ks["statistic"]
            assert (ks["margin"] > 0) == ks["pass"]
            assert ks["p_value"] == ks_p_value(ks["statistic"], 3000)
            checks.append(ks)
        # naive Laplace passes against its own family and fails against Gaussian
        assert checks[0]["p_value"] > 0.01 > checks[1]["p_value"] >= 0.0

    def test_moments_reported(self, capsys):
        _, out, _ = run_cli(["verify", "--seed", "2005", "--count", "5000"], capsys)
        m = json.loads(out)["moments"]
        assert set(m) == {"mean", "variance", "skewness", "excess_kurtosis"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--count", "2"],
            ["verify", "--against", "poisson"],
            ["verify", "--method", "box-muller", "--epsilon", "1.0"],
            ["verify", "--epsilon", "nan", "--count", "100"],
            ["verify", "--epsilon", "inf", "--count", "100"],
            ["verify", "--epsilon", "1e-320", "--count", "100"],
            ["verify", "--epsilon", "1e-200", "--count", "1000", "--seed", "1"],
            # naive-laplace emits only 0.0 at p=1: no variance to check
            ["verify", "--p", "1", "--seed", "0", "--count", "10"],
            ["verify", "--seed", "-1", "--count", "100"],
            ["verify", "--p", "0", "--count", "100"],
            ["verify", "--method", "secure-gaussian", "--n", "0", "--count", "100"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err != ""


class TestComplexity:
    def test_theoretical_only_full_precision(self, capsys):
        code, out, _ = run_cli(
            ["complexity", "--p", "53", "--theoretical-only"], capsys
        )
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

    def test_reports_window_and_cost(self, capsys):
        code, out, _ = run_cli(
            ["complexity", "--p", "10", "--count", "20", "--seed", "0"], capsys
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert list(payload) == [
            "command", "p", "seed", "theoretical_checks", "count", "window",
            "empirical_mean_checks", "ratio", "cost",
        ]
        assert payload["window"] == 2
        assert payload["empirical_mean_checks"] == 629.45
        # 20 searches; each draw takes two p-bit uniforms for one
        # Box-Muller pair, whose sine half is discarded
        assert payload["cost"] == {
            "checks": 12589, "pairs_found": 24, "uniforms_drawn": 40, "bits_drawn": 400,
        }
        assert payload["cost"]["checks"] == payload["empirical_mean_checks"] * 20

    def test_window_changes_checks(self, capsys):
        _, out, _ = run_cli(
            ["complexity", "--p", "10", "--count", "20", "--seed", "0", "--window", "0"], capsys
        )
        payload = json.loads(out)
        assert payload["window"] == 0
        # a window of w pads the u1 walk by w rows per search
        assert payload["cost"]["checks"] == 12589 - 2 * 20

    def test_high_precision_needs_theoretical_flag(self, capsys):
        code, _, err = run_cli(["complexity", "--p", "30"], capsys)
        assert code == 2
        assert "--theoretical-only" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["complexity", "--p", "8", "--count", "20", "--format", "csv"], capsys
        )
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[1] == "quantity,value"
        assert any(line.startswith("theoretical_checks,") for line in lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["complexity", "--p", "0"],
            ["complexity", "--p", "60", "--theoretical-only"],
            ["complexity", "--p", "8", "--count", "0"],
            ["complexity", "--p", "8", "--count", "5", "--seed", "-1"],
            ["complexity", "--p", "12", "--theoretical-only", "--count", "-5"],
            ["complexity", "--p", "53", "--theoretical-only", "--window", "2"],
            ["complexity", "--p", "12", "--theoretical-only", "--seed", "-1"],
            ["complexity", "--p", "8", "--window", "-1"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err != ""


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
        (["attack", "--window", "-1"], "report.json",
         lambda out: library_message(check_count, -1, "window")),
        (["complexity", "--p", "8", "--window", "-1"], "report.json",
         lambda out: library_message(brute_force_single_gaussian, 0.5, 8, -1)),
        (["verify", "--p", "1", "--seed", "0", "--count", "10"], "report.json",
         lambda out: "cannot verify naive-laplace at p=1: "
                     + library_message(moments, [0.0] * 10)),
        (["sample", "--seed", "1"], "missing/report.json",
         lambda out: f"cannot write {out}: {os.strerror(errno.ENOENT)}"),
    ])
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
        code, out, _ = run_cli(["complexity", "--p", "8", "--count", "3", "--window", "-1"],
                               capsys)
        assert (code, out, calls) == (2, "", [])

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


class TestJsonWriter:
    """``cli._json`` writes what ``json.dumps(value, indent=2)`` writes, byte for byte."""

    @given(json_trees)
    @settings(max_examples=200)
    def test_matches_json_dumps(self, tree):
        assert _json(tree) + "\n" == json.dumps(tree, indent=2) + "\n"

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
        bad = ["attack", "--window", "-1"]
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        _, first_err = capsys.readouterr()
        assert first_err != ""
        _, out, _ = run_cli(["attack", "--window", "3"], capsys)
        assert json.loads(out)["window"] == 3
        _, out, _ = run_cli(["attack"], capsys)
        assert json.loads(out)["window"] == 2
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
        ["attack", "--attack", "gaussian-pair", "--method", "box-muller", "--window", "3",
         "--target", "1.0", "--epsilon", "2", "--format", "csv", "--out", "x"],
        ["attack", "--max-q", "7", "--cand", "1,2"],
        ["verify", "--against", "gaussian", "--n", "3", "--count", "50"],
        ["complexity", "--p", "8", "--theoretical-only", "--window", "1"],
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
