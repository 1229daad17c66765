import argparse
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _factories import GOLDEN_REPLICABLE, random_claim, random_market
from platonic import as_float_model, find_measure, find_separating_density, ftap_verdict, lpsolve
from platonic.cli import (
    EXIT_INCONSISTENT,
    EXIT_INVALID,
    EXIT_NO_ANSWER,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)
from platonic.scenario import parse_scenario, serialize_model


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def without_timing(report):
    return {k: v for k, v in report.items() if k != "timing_ms"}


# Runs the CLI as ``-m platonic.cli`` does and, at exit, prints the loaded
# ``platonic.*`` modules as the last line of stderr.
MODULE_PROBE = (
    "import atexit, runpy, sys; "
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith('platonic.')), "
    "file=sys.stderr)); "
    "runpy.run_module('platonic.cli', run_name='__main__', alter_sys=True)"
)


def run_process(*argv, stdout=subprocess.PIPE, entry=("-m", "platonic.cli")):
    """The CLI in a fresh interpreter, for what reaches the real stderr;
    ``entry`` is what the interpreter runs, with ``argv`` as its arguments."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *entry, *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )


class TestFtapCommand:
    def test_binomial_golden(self, capsys, scenario_path):
        code, report = run(capsys, "ftap", scenario_path("binomial"))
        assert code == 0
        assert report["verdict"] == "NO_ARBITRAGE"
        assert report["measure"]["q"] == {"up": "1/3", "down": "2/3"}
        assert report["measure"]["max_residual"] == "0"

    def test_long_only_flag(self, capsys, scenario_path):
        code, report = run(capsys, "ftap", scenario_path("binomial"), "--long-only")
        assert code == 0
        assert report["strategy_mode"] == "long_only"
        assert report["measure"]["kind"] == "supermartingale"

    def test_float_mode(self, capsys, scenario_path):
        code, report = run(capsys, "ftap", scenario_path("binomial"), "--float")
        assert code == 0
        assert report["mode"] == "float"
        assert abs(report["measure"]["q"]["up"] - 1 / 3) < 1e-9

    @pytest.mark.parametrize("mode", ["--exact", "--float"])
    def test_arbitrage_section(self, capsys, tmp_path, scenario_path, mode):
        """The certificate of a market with arbitrage: a nonnegative,
        somewhere-positive gain, nonnegative consumption, and legs whose
        holdings times price moves add up to gain plus consumption."""
        path = TestNoCertifiedAnswer._arbitrage_scenario(tmp_path, scenario_path)
        code, report = run(capsys, "ftap", path, mode)
        assert code == EXIT_OK
        assert report["verdict"] == "ARBITRAGE" and "measure" not in report
        num = Fraction if mode == "--exact" else float
        arb = report["arbitrage"]
        gain = [num(v) for v in arb["terminal_gain"]]
        consumption = [num(v) for v in arb["consumption"]]
        assert min(gain) >= 0 and max(gain) > 0
        assert min(consumption) >= 0

        doc = json.loads(Path(path).read_text())
        at = {Fraction(t): k for k, t in enumerate(doc["grid"])}
        moved = [num(0)] * len(gain)
        for leg in arb["legs"]:
            start, end = at[Fraction(leg["from"])], at[Fraction(leg["to"])]
            for asset, holdings in leg["holdings"].items():
                path_of = doc["assets"][asset]
                for o, h in enumerate(holdings):
                    moved[o] += num(h) * (num(path_of[end][o]) - num(path_of[start][o]))
        expected = [g + c for g, c in zip(gain, consumption)]
        if mode == "--exact":
            assert moved == expected
        else:
            assert moved == pytest.approx(expected, abs=1e-9)

        code, table = run(capsys, "ftap", path, mode, "--table")
        assert code == EXIT_OK
        assert "verdict: ARBITRAGE" in table.splitlines()


class TestSuperhedgeCommand:
    def test_call_price_one_third(self, capsys, scenario_path):
        code, report = run(capsys, "superhedge", scenario_path("binomial"), "--claim", "call")
        assert code == 0
        assert report["price"] == "1/3"
        assert report["duality_gap"] == "0"

    def test_unknown_claim_is_parse_error(self, capsys, scenario_path):
        code = main(["superhedge", scenario_path("binomial"), "--claim", "nope"])
        assert code == 1

    def test_semistatic_scenario(self, capsys, scenario_path):
        code, report = run(
            capsys, "superhedge", scenario_path("semistatic_call"), "--claim", "digital"
        )
        assert code == 0
        assert report["duality_gap"] == "0"


class TestIntervalCommand:
    def test_delayed_call_interval(self, capsys, scenario_path):
        code, report = run(capsys, "interval", scenario_path("delayed_binomial"), "--claim", "call")
        assert code == 0
        assert (report["lower"], report["upper"]) == ("0", "1/2")
        assert report["attained"] == {"lower": False, "upper": False}
        assert "upper_openness" in report

    def test_replicable_claim(self, capsys, scenario_path):
        code, report = run(
            capsys, "interval", scenario_path("delayed_binomial"), "--claim", "first_leg"
        )
        assert code == 0
        assert report["lower"] == report["upper"] == "0"
        assert "replication" in report

    def test_float_null_outcomes_match_exact(self, capsys, scenario_path):
        # the float optimizer keeps rounding-level mass where its hedge consumes
        reports = [
            run(capsys, "interval", scenario_path("noisy_price"), "--claim", "call", *flag)[1]
            for flag in ((), ("--float",))
        ]
        exact, rounded = (
            {side: r[f"{side}_openness"]["optimizer_null_outcomes"] for side in ("lower", "upper")}
            for r in reports
        )
        assert rounded == exact
        assert all(len(nulls) == 2 for nulls in exact.values())


class TestValidateCommand:
    def test_clean_model(self, capsys, scenario_path):
        code, report = run(capsys, "validate", scenario_path("two_asset_binomial"))
        assert code == 0 and report["valid"]

    def test_invalid_model_exit_code(self, capsys, tmp_path, scenario_path):
        doc = json.loads(open(scenario_path("binomial")).read())
        doc["assets"]["stock"][0] = ["1", "2"]  # not adapted at t=0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, report = run(capsys, "validate", str(bad))
        assert code == 2
        assert report["violations"] == ["adaptedness: asset stock at t=0"]

    def test_unparseable_file_exit_code(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["validate", str(broken)]) == 1

    def test_missing_file_exit_code(self):
        assert main(["validate", "/nonexistent/nowhere.json"]) == 1


@pytest.mark.parametrize("case", ["scenario is a directory", "scenario is not UTF-8", "--out is a directory"])
def test_file_level_inputs_end_in_one_line(tmp_path, scenario_path, case):
    """A scenario or ``--out`` file that cannot be read or written: exit 1
    and one ``scenario error:`` line on the real stderr, no traceback."""
    argv = {
        "scenario is a directory": ("ftap", str(tmp_path)),
        "scenario is not UTF-8": ("validate", str(tmp_path / "latin1.json")),
        "--out is a directory": ("bayes", "build", scenario_path("two_theta"), "--out", str(tmp_path)),
    }[case]
    (tmp_path / "latin1.json").write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    proc = run_process(*argv)
    assert proc.returncode == EXIT_PARSE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("scenario error:")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


def test_a_broken_verdict_ends_in_exit_3_and_one_line(capsys, monkeypatch, cold_caches, scenario_path):
    """An exact verdict whose LP comes back with neither an arbitrage nor a
    measure that passes its check is a bug (``FtapInconsistencyError``):
    exit 3, one ``internal inconsistency:`` line on stderr and no report."""
    from platonic import ftap

    monkeypatch.setattr(ftap, "_solve_arbitrage_lp", lambda *args: (None, None))
    code = main(["ftap", scenario_path("binomial")])
    captured = capsys.readouterr()
    assert code == EXIT_INCONSISTENT and captured.out == ""
    assert captured.err == (
        "internal inconsistency: no arbitrage found, yet no full-support measure passed its check\n")


MEASURE = {"kind": "martingale", "q": {"up": "1/3", "down": "2/3"}}

# ``project binomial.json --measure FILE`` inputs: the file's JSON (None for
# a directory) and the exit code
BAD_MEASURES = {
    "empty object": ({}, EXIT_PARSE),
    "list": ([MEASURE], EXIT_PARSE),
    "missing outcome": ({"measure": {**MEASURE, "q": {"up": "1/3"}}}, EXIT_PARSE),
    "not a number": ({"measure": {**MEASURE, "q": {"up": "abc", "down": "2/3"}}}, EXIT_PARSE),
    "zero denominator": ({"measure": {**MEASURE, "q": {"up": "1/0", "down": "2/3"}}}, EXIT_PARSE),
    "negative mass": ({"measure": {**MEASURE, "q": {"up": "-1", "down": "2"}}}, EXIT_PARSE),
    "unknown kind": ({"measure": {**MEASURE, "kind": "bogus"}}, EXIT_PARSE),
    "directory": (None, EXIT_PARSE),
    "zero-mass block": ({"measure": {**MEASURE, "q": {"up": "1", "down": "0"}}}, EXIT_INCONSISTENT),
    "not a martingale": ({"measure": {**MEASURE, "q": {"up": "1/2", "down": "1/2"}}}, EXIT_INCONSISTENT),
}


class TestProjectCommand:
    def test_search_measure(self, capsys, scenario_path):
        code, report = run(
            capsys, "project", scenario_path("delayed_binomial"), "--set", "stock"
        )
        assert code == 0
        projections = report["projections"]["stock"]
        assert len(projections) == 3
        assert len(set(projections[0])) == 1  # nothing observed at time 0

    def test_measure_from_report(self, capsys, tmp_path, scenario_path):
        code, report = run(capsys, "ftap", scenario_path("delayed_binomial"))
        saved = tmp_path / "report.json"
        saved.write_text(json.dumps(report))
        code, projected = run(
            capsys, "project", scenario_path("delayed_binomial"),
            "--set", "stock", "--measure", str(saved),
        )
        assert code == 0
        assert projected["measure"]["kind"] == "martingale"

    @pytest.mark.parametrize("mode", ["--exact", "--float"])
    def test_project_reports_the_ftap_measure(self, capsys, cold_caches, scenario_path, mode):
        """One measure per market: on every golden scenario, ``project`` with
        each admissible set reports the measure that ``ftap`` reports, each
        asked with empty caches as in a fresh process."""
        for path in sorted(Path(scenario_path("binomial")).parent.glob("*.json")):
            cold_caches()
            lpsolve._last_optimum = None
            _, verdict = run(capsys, "ftap", str(path), mode)
            for aset in sorted(",".join(sorted(s)) for s in parse_scenario(str(path)).model.admissible_sets):
                cold_caches()
                lpsolve._last_optimum = None
                code, report = run(capsys, "project", str(path), "--set", aset, mode)
                assert code == EXIT_OK
                assert report["measure"] == verdict["measure"], (path.stem, aset)

    @pytest.mark.parametrize("mode", ["--exact", "--float"])
    def test_measure_of_a_market_without_generators(self, capsys, tmp_path, scenario_path, mode):
        """Constant prices leave no generator to check the measure against;
        ``project`` still reports the measure it projected with, as ``ftap``
        does."""
        doc = json.loads(Path(scenario_path("binomial")).read_text())
        doc["assets"]["stock"] = [["1", "1"], ["1", "1"]]
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(doc))
        _, verdict = run(capsys, "ftap", str(path), mode)
        code, report = run(capsys, "project", str(path), "--set", "stock", mode)
        assert code == EXIT_OK
        assert report["measure"]["generator_expectations"] == []
        assert report["measure"] == verdict["measure"]

    def test_set_not_admissible(self, capsys, scenario_path):
        code = main(["project", scenario_path("binomial"), "--set", "nosuch"])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert err == "scenario error: --set nosuch: not an admissible asset set (admissible: stock)\n"

    @pytest.mark.parametrize("name", sorted(BAD_MEASURES))
    def test_bad_measure_file(self, capsys, tmp_path, scenario_path, name):
        """A file that is not a measure is a parse error; a measure that fails
        the projection check is a failed certificate. One line each."""
        doc, code = BAD_MEASURES[name]
        path = tmp_path
        if doc is not None:
            path = tmp_path / "measure.json"
            path.write_text(json.dumps(doc))
        argv = ["project", scenario_path("binomial"), "--set", "stock", "--measure", str(path)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "scenario error" if code == EXIT_PARSE else "measure check failed"
        assert captured.err.startswith(f"{prefix}: --measure {path}: ")
        assert captured.err.count("\n") == 1


README = Path(__file__).resolve().parents[1] / "README.md"

# the results README's CLI examples annotate, by annotation
README_RESULTS = {
    "measure (1/3, 2/3)": lambda report: report["measure"]["q"] == {"up": "1/3", "down": "2/3"},
    'price "1/3"': lambda report: report["price"] == "1/3",
}


def test_readme_cli_examples(capsys, monkeypatch, tmp_path):
    """Every ``platonic ...`` line of README's sh blocks exits 0, run from an
    empty directory with its scenario paths taken from the repository, and
    the results it annotates hold."""
    lines = [line for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
             for line in block.splitlines() if line.startswith("platonic ")]
    assert lines
    root = README.parent
    monkeypatch.chdir(tmp_path)
    checked = []
    for line in lines:
        argv = [str(root / a) if a.startswith("src/") else a for a in shlex.split(line, comments=True)]
        code, report = run(capsys, *argv[1:])
        assert code == EXIT_OK, line
        if "#" in line:
            note = line.split("#", 1)[1].strip()
            assert README_RESULTS[note](report), line
            checked.append(note)
    assert sorted(checked) == sorted(README_RESULTS)


class TestBuilders:
    def test_two_theta_build_roundtrip(self, capsys, tmp_path, scenario_path):
        out = tmp_path / "built.json"
        code, report = run(
            capsys, "bayes", "build", scenario_path("two_theta"), "--out", str(out)
        )
        assert code == 0
        built = parse_scenario(str(out))
        assert built.model.space.size == 8
        assert "call" in built.claims and "bull_swap" in built.claims
        code, verdict = run(capsys, "ftap", str(out))
        assert verdict["verdict"] == "NO_ARBITRAGE"

    def test_build_without_out_keeps_the_report_header(self, capsys, tmp_path, scenario_path):
        """Without ``--out`` the built document is the report's ``built``,
        as ``--out`` puts its file under ``written``: ``scenario`` stays the
        scenario's name, as in every other report, and the document is the
        one ``--out`` writes."""
        code, report = run(capsys, "bayes", "build", scenario_path("two_theta"))
        out = tmp_path / "built.json"
        _, written = run(capsys, "bayes", "build", scenario_path("two_theta"), "--out", str(out))
        assert code == EXIT_OK and report["scenario"] == written["scenario"] == parse_scenario(
            scenario_path("two_theta")).name
        assert report["built"] == json.loads(out.read_text())
        header = {k: v for k, v in without_timing(report).items() if k != "built"}
        assert header == {k: v for k, v in without_timing(written).items() if k != "written"}

    def test_noisy_scenario(self, capsys, scenario_path):
        code, report = run(capsys, "ftap", scenario_path("noisy_price"))
        assert code == 0 and report["verdict"] == "NO_ARBITRAGE"

    def test_noise_mean_warning_is_one_line(self, tmp_path, scenario_path):
        doc = json.loads(Path(scenario_path("noisy_price")).read_text())
        doc["noise"]["values"] = ["1/5", "-1/10"]
        biased = tmp_path / "biased.json"
        biased.write_text(json.dumps(doc))
        proc = run_process("validate", str(biased))
        assert proc.returncode == EXIT_OK
        assert proc.stderr == "warning: noise mean is 1/20, not zero\n"

    def test_free_lunch_scenario(self, capsys, scenario_path):
        code, report = run(capsys, "ftap", scenario_path("free_lunch_3"))
        assert code == 0 and report["verdict"] == "NO_ARBITRAGE"


class TestExperiment:
    def test_free_lunch_table(self, capsys):
        code, report = run(capsys, "experiment", "free-lunch", "--max-n", "6")
        assert code == 0
        assert report["gap_strictly_decreasing"] and report["all_no_arbitrage"]
        assert [r["n"] for r in report["rows"]] == list(range(1, 7))
        assert report["rows"][0]["gap"] == "3/4"

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_no_truncation_level_is_a_usage_error(self, max_n):
        """A sweep over no level would report vacuous ``True`` flags."""
        proc = run_process("experiment", "free-lunch", "--max-n", max_n)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: platonic experiment free-lunch")
        assert proc.stderr.count("usage:") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.endswith(f"argument --max-n: invalid value {max_n!r}: need an integer >= 1\n")

    def test_one_truncation_level(self):
        proc = run_process("experiment", "free-lunch", "--max-n", "1")
        assert proc.returncode == 0 and proc.stderr == ""
        assert [r["n"] for r in json.loads(proc.stdout)["rows"]] == [1]


class TestCheckDuality:
    def test_delayed_binomial(self, capsys, scenario_path):
        code, report = run(capsys, "check-duality", scenario_path("delayed_binomial"))
        assert code == 0
        polar = report["checks"]["polar_cone"]
        assert polar["vertex_sets_match"] and polar["double_inclusion"]
        for claim in report["checks"]["claims"].values():
            assert claim["gap"] == "0" and claim["attainability_tests_agree"]


class TestRoundTripAndDeterminism:
    def test_roundtrip_structural_identity(self, scenario_path):
        scenario = parse_scenario(scenario_path("two_asset_binomial"))
        doc = serialize_model(scenario.model, scenario.claims, name="rt")
        again = parse_scenario(doc)
        assert again.model == scenario.model
        assert again.claims == scenario.claims

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_random_markets(self, seed):
        rng = random.Random(seed)
        model = random_market(rng)
        claims = {"c": random_claim(rng, model.n_outcomes)}
        doc = json.loads(json.dumps(serialize_model(model, claims, name="rt")))
        again = parse_scenario(doc)
        assert again.model == model
        assert again.claims == claims

    def test_report_determinism(self, capsys, scenario_path):
        _, a = run(capsys, "ftap", scenario_path("delayed_binomial"), "--seed", "7")
        _, b = run(capsys, "ftap", scenario_path("delayed_binomial"), "--seed", "7")
        assert without_timing(a) == without_timing(b)

    def test_table_output(self, capsys, scenario_path):
        code, out = run(capsys, "ftap", scenario_path("binomial"), "--table")
        assert code == 0
        assert isinstance(out, str) and "NO_ARBITRAGE" in out


class TestExitCodes:
    def test_invalid_model_blocks_analysis_commands(self, tmp_path, scenario_path):
        doc = json.loads(open(scenario_path("binomial")).read())
        doc["assets"]["stock"][0] = ["1", "2"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["ftap", str(bad)]) == 2
        assert main(["superhedge", str(bad), "--claim", "call"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "abc"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, scenario_path, tol):
        """argparse rejects a tolerance ``numeric.pick_tol`` would reject:
        exit 2 with the usage message, never a verdict."""
        with pytest.raises(SystemExit) as stop:
            main(["ftap", scenario_path("binomial"), "--float", f"--tol={tol}"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: platonic ftap")
        assert f"argument --tol: invalid tolerance {tol!r}" in captured.err

    def test_zero_float_tolerance_is_accepted(self, capsys, scenario_path):
        code, report = run(capsys, "ftap", scenario_path("binomial"), "--float", "--tol", "0")
        assert code == 0
        assert report["verdict"] == "NO_ARBITRAGE"

    def test_superhedge_noisy_scenario(self, capsys, scenario_path):
        code, report = run(capsys, "superhedge", scenario_path("noisy_price"), "--claim", "call")
        assert code == 0
        assert report["price"] == "33/85"


@pytest.mark.parametrize("argv,code", [
    (("validate", "binomial", "--json"), EXIT_OK),
    (("ftap", "two_asset_binomial"), EXIT_OK),
    (("project", "delayed_binomial", "--set", "stock", "--float"), EXIT_OK),
    (("validate", "not_adapted"), EXIT_INVALID),
])
def test_closed_stdout_without_traceback(tmp_path, scenario_path, argv, code):
    """A reader that closed stdout before the report is written (``| head
    -c 0``): nothing on stderr, and the exit code of a full read, also
    where the report comes with a failing code."""
    path = scenario_path(argv[1])
    if argv[1] == "not_adapted":  # a time-0 price the big filtration cannot see
        doc = json.loads(open(scenario_path("binomial")).read())
        doc["assets"]["stock"][0] = ["1", "2"]
        path = tmp_path / "not_adapted.json"
        path.write_text(json.dumps(doc))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process(argv[0], str(path), *argv[2:], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == code


class TestNoCertifiedAnswer:
    """Refusals end in exit code 4 with one line on stderr."""

    @staticmethod
    def _arbitrage_scenario(tmp_path, scenario_path):
        doc = json.loads(open(scenario_path("binomial")).read())
        doc["assets"]["stock"][1] = ["2", "1"]
        path = tmp_path / "arbitrage.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_superhedge_on_arbitrage_without_traceback(self, tmp_path, scenario_path):
        proc = run_process(
            "superhedge", self._arbitrage_scenario(tmp_path, scenario_path), "--claim", "call"
        )
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("no certified answer:")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_project_search_on_arbitrage(self, capsys, tmp_path, scenario_path):
        code = main(["project", self._arbitrage_scenario(tmp_path, scenario_path), "--set", "stock"])
        err = capsys.readouterr().err
        assert code == EXIT_NO_ANSWER
        assert err.startswith("no certified answer: the market admits arbitrage")
        assert err.count("\n") == 1

    def test_interval_on_arbitrage(self, capsys, tmp_path, scenario_path):
        code = main(["interval", self._arbitrage_scenario(tmp_path, scenario_path), "--claim", "call"])
        assert code == 4
        assert capsys.readouterr().err.startswith("no certified answer:")

    def test_check_duality_beyond_vertex_guard(self, capsys, tmp_path):
        from _factories import binomial_tree
        from platonic import RandomVariable

        model = binomial_tree(4)
        terminal = model.price_path("stock")[-1]
        claim = RandomVariable(tuple(max(v - 100, 0) for v in terminal))
        path = tmp_path / "tree16.json"
        path.write_text(json.dumps(serialize_model(model, {"call": claim}, name="tree16")))
        code = main(["check-duality", str(path)])
        assert code == 4
        assert "exceeds the guard" in capsys.readouterr().err

    def test_float_refusal(self, capsys, monkeypatch, scenario_path):
        from platonic import FloatModeError, hedging

        def refuse(*args, **kwargs):
            raise FloatModeError("boundary case; retry exact")

        monkeypatch.setattr(hedging, "superreplicate", refuse)
        code = main(["superhedge", scenario_path("binomial"), "--float", "--claim", "call"])
        assert code == 4
        assert capsys.readouterr().err == "no certified answer: boundary case; retry exact\n"

    @pytest.mark.parametrize("tol,refusing", [
        ("0.1", {"noisy_price"}), ("0.5", {"delayed_binomial", "two_theta"}),
    ])
    def test_loose_float_tolerances(self, capsys, cold_caches, scenario_path, tol, refusing):
        """``ftap``, ``superhedge``, ``interval`` and ``check-duality`` on every
        golden scenario at a loose ``--float --tol``, each as in a fresh
        process: an answer, or a check that fails within the tolerance (here
        a zero-width interval whose hedge consumes) as a refusal with one
        stderr line."""
        refused = set()
        for path in sorted(Path(scenario_path("binomial")).parent.glob("*.json")):
            claims = sorted(parse_scenario(str(path)).claims)
            for name, *flags in [["ftap"], ["check-duality"], *(
                    [command, "--claim", claim] for command in ("superhedge", "interval")
                    for claim in claims)]:
                cold_caches()
                lpsolve._last_optimum = None
                code = main([name, str(path), *flags, "--float", "--tol", tol])
                err = capsys.readouterr().err
                assert code in (EXIT_OK, EXIT_NO_ANSWER), (path.stem, name, flags)
                if code == EXIT_NO_ANSWER:
                    assert err.startswith("no certified answer: ") and err.count("\n") == 1
                    refused.add(path.stem)
        assert refused == refusing


class TestLpSolvesPerCommand:
    """LP solves per CLI command on every golden scenario, with the
    model-keyed caches empty as in a fresh process: a verdict is one LP, a
    superhedge one more, an interval two superhedges, ``project`` the
    verdict's LP, and ``check-duality`` a verdict plus, per claim, a superhedge and
    the LPs of ``attainability_set_check``: the lower hedge of its interval
    and two cone tests, since the upper hedge is the cached superhedge. The
    interval of a replicable claim (``GOLDEN_REPLICABLE``) solves no lower
    hedge. A claim equal to an earlier one (``free_lunch_3`` has two) has
    both hedges cached and costs the two cone tests alone."""

    @pytest.mark.parametrize("command,solves_per_claim,once", [
        ("ftap", 0, 1),
        ("ftap --long-only", 0, 1),
        ("superhedge", 0, 2),
        ("superhedge --long-only", 0, 2),
        ("interval", 0, 3),
        ("project", 0, 1),
        ("check-duality", 4, 1),
        ("ftap --float", 0, 1),
        ("ftap --long-only --float", 0, 1),
        ("superhedge --float", 0, 2),
        ("superhedge --long-only --float", 0, 2),
        ("interval --float", 0, 3),
        ("project --float", 0, 1),
        ("check-duality --float", 4, 1),
    ])
    def test_golden_scenarios(self, lp_solves, cold_caches, capsys, scenario_path, command,
                              solves_per_claim, once):
        name, *flags = command.split()
        for path in sorted(Path(scenario_path("binomial")).parent.glob("*.json")):
            scenario = parse_scenario(str(path))
            claim = sorted(scenario.claims)[0]
            if name in ("superhedge", "interval"):
                flags_here = [*flags, "--claim", claim]
            elif name == "project":
                widest = max(scenario.model.admissible_sets, key=lambda s: (len(s), sorted(s)))
                flags_here = ["--set", ",".join(sorted(widest))]
            else:
                flags_here = flags
            cold_caches()
            lp_solves.clear()
            assert main([name, str(path), *flags_here]) == EXIT_OK
            capsys.readouterr()
            repeats = len(scenario.claims) - len(set(scenario.claims.values()))
            cached = 2 * repeats if name == "check-duality" else 0  # both hedges of a repeat
            replicable = {scenario.claims[c] for c in GOLDEN_REPLICABLE[path.stem]}
            skipped = {"interval": scenario.claims[claim] in replicable,
                       "check-duality": len(replicable)}.get(name, 0)  # lower hedges
            assert len(lp_solves) == (
                once + solves_per_claim * len(scenario.claims) - cached - skipped), path.stem


    @pytest.mark.parametrize("arithmetic", ["exact", "float"])
    def test_measure_and_density_reuse_the_verdict(self, lp_solves, cold_caches, scenario_path, arithmetic):
        """``find_measure`` and ``find_separating_density`` return the
        verdict's measure: the three questions cost one LP in total."""
        for path in sorted(Path(scenario_path("binomial")).parent.glob("*.json")):
            model = parse_scenario(str(path)).model
            if arithmetic == "float":
                model = as_float_model(model)
            cold_caches()
            lp_solves.clear()
            measure = ftap_verdict(model).measure
            assert find_measure(model) is measure
            assert find_separating_density(model).measure is measure
            assert len(lp_solves) == 1, path.stem


def _paths(node, prefix=()):
    """Every key path into a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


DROP = object()  # mutation that deletes the key instead of replacing its value


class TestMalformedScenarios:
    """A golden scenario with one key dropped or one value of the wrong type
    ends in a documented exit code and a one-line message, never in a
    traceback."""

    DOCUMENTED = {EXIT_OK, EXIT_PARSE, EXIT_INVALID, EXIT_INCONSISTENT, EXIT_NO_ANSWER}
    WRONG = (None, True, 5, -1, "x", "1/0", [], [1], [[]], {}, {"x": 1})

    @staticmethod
    def _validate(tmp_path, scenario_path, name, path, value):
        doc = json.loads(Path(scenario_path(name)).read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        return main(["validate", str(mutated)])

    @pytest.mark.parametrize("name,path,value,message", [
        ("two_theta", ("bayes", "models"), DROP, "scenario error: bayes: missing key 'models'"),
        ("binomial", ("admissible_sets",), [["S", "ZZZ"]], "scenario error: market: admissible set"),
        ("two_theta", ("bayes", "thetas"), 5, "scenario error: bayes:"),
        ("noisy_price", ("noise", "base"), DROP, "scenario error: noise:"),
        ("semistatic_call", ("options", 0, "name"), DROP, "scenario error: options: missing key 'name'"),
        ("binomial", ("filtrations",), [1], "scenario error: filtrations:"),
        ("two_theta", ("bayes", "prices", "stock", 0, 0), "5", "invalid model: "),
        ("noisy_price", ("noise", "times"), ["1", "1"],
         "scenario error: noise: noise times must be distinct"),
    ])
    def test_reported_inputs(self, capsys, tmp_path, scenario_path, name, path, value, message):
        code = self._validate(tmp_path, scenario_path, name, path, value)
        err = capsys.readouterr().err
        assert code == (EXIT_INVALID if message.startswith("invalid") else EXIT_PARSE)
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("asset", ["stock", "s"])
    def test_admissible_sets_as_a_string(self, capsys, tmp_path, scenario_path, asset):
        """A string is not read as the set of its characters, also where
        each character names an asset."""
        doc = json.loads(Path(scenario_path("binomial")).read_text())
        doc["assets"] = {asset: doc["assets"]["stock"]}
        doc["claims"] = {"bond": doc["claims"]["bond"]}
        doc["admissible_sets"] = asset
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        assert main(["validate", str(mutated)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "scenario error: admissible_sets: expected a list of asset lists, got str\n"
        )

    def test_noise_price_rows_longer_than_the_base(self, capsys, tmp_path, scenario_path):
        doc = json.loads(Path(scenario_path("noisy_price")).read_text())
        for row in doc["noise"]["prices"]["stock"]:
            row.append("99")
        longer = tmp_path / "longer.json"
        longer.write_text(json.dumps(doc))
        assert main(["validate", str(longer)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "scenario error: noise: asset stock has prices on the wrong path space\n"
        )

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_validate_exits_with_documented_code(self, data, tmp_path, capsys, scenario_path):
        names = sorted(p.stem for p in Path(scenario_path("binomial")).parent.glob("*.json"))
        name = data.draw(st.sampled_from(names))
        doc = json.loads(Path(scenario_path(name)).read_text())
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(st.sampled_from((DROP,) + self.WRONG))
        assert self._validate(tmp_path, scenario_path, name, path, value) in self.DOCUMENTED
        capsys.readouterr()


BASE_MODULES = {"errors", "market", "numeric", "probspace", "scenario"}
LP_MODULES = BASE_MODULES | {"ftap", "lpsolve", "_linalg"}
HEDGE_MODULES = LP_MODULES | {"hedging"}


@pytest.mark.parametrize("argv,modules", [
    (("validate", "binomial"), BASE_MODULES),
    (("bayes", "build", "binomial"), BASE_MODULES),
    (("ftap", "binomial"), LP_MODULES),
    (("project", "binomial", "--set", "stock"), LP_MODULES),
    (("superhedge", "binomial", "--claim", "call"), HEDGE_MODULES),
    (("interval", "binomial", "--claim", "call"), HEDGE_MODULES),
    (("check-duality", "binomial"), HEDGE_MODULES),
    (("bayes", "build", "two_theta"), HEDGE_MODULES | {"bayes"}),
    (("experiment", "free-lunch", "--max-n", "1"), HEDGE_MODULES | {"bayes"}),
])
def test_commands_load_only_what_they_run(scenario_path, argv, modules):
    """Each command in a fresh interpreter loads the ``platonic`` modules
    it runs and no other: ``bayes`` only for a builder section or an
    experiment, the solvers only for a question that needs an LP."""
    argv = [scenario_path(a) if a in ("binomial", "two_theta") else a for a in argv]
    proc = run_process(*argv, entry=("-c", MODULE_PROBE))
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.splitlines()[-1].split()) == {f"platonic.{m}" for m in modules}


# Per subcommand: positional arguments, option strings in declaration order,
# and the defaults of the shared and numeric flags.
SHARED = ["-h", "--help", "--exact", "--float", "--tol", "--seed", "--json", "--table"]
CLI_SURFACE = {
    "validate": (["scenario"], SHARED),
    "ftap": (["scenario"], SHARED + ["--long-only"]),
    "project": (["scenario"], SHARED + ["--set", "--measure"]),
    "superhedge": (["scenario"], SHARED + ["--claim", "--long-only"]),
    "interval": (["scenario"], SHARED + ["--claim"]),
    "check-duality": (["scenario"], SHARED),
    "bayes build": (["scenario"], SHARED + ["--out"]),
    "experiment free-lunch": ([], SHARED + ["--max-n"]),
}
CLI_DEFAULTS = {"--tol": 1e-9, "--seed": 0, "--measure": "search", "--max-n": 8}


def _subcommands(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_cli_surface():
    """Every subcommand keeps its arguments, flags and defaults."""
    found = {}
    for name, parser in _subcommands(build_parser()):
        positionals = [a.dest for a in parser._actions if not a.option_strings]
        options = [o for a in parser._actions for o in a.option_strings]
        found[name] = (positionals, options)
        for action in parser._actions:
            for option in set(action.option_strings) & set(CLI_DEFAULTS):
                assert action.default == CLI_DEFAULTS[option], (name, option)
    assert found == CLI_SURFACE

