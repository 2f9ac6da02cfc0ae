"""Command line harness: parsing, exit codes, streams."""

import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import warnings

import pytest

import hlab
from hlab import experiments
from hlab.cli import _parse_times, build_config, main
from hlab.experiments import ConfigError, ExperimentConfig, ExperimentReport


def test_parse_times():
    assert _parse_times("0.5,1,2") == (0.5, 1.0, 2.0)
    assert _parse_times("0.5, 1") == (0.5, 1.0)
    assert _parse_times("1,2,") == (1.0, 2.0)
    with pytest.raises(ConfigError, match="cannot parse time list"):
        _parse_times("1,zebra")
    with pytest.raises(ConfigError, match="positive"):
        _parse_times("")
    with pytest.raises(ConfigError, match="positive"):
        _parse_times("1,-2")
    with pytest.raises(ConfigError, match="positive"):
        _parse_times("0")


def test_build_config_flags():
    cfg = build_config(["kernel-consistency", "--R0", "2.5", "--t", "0.5,2"])
    assert cfg.experiment == "kernel-consistency"
    assert cfg.r0 == 2.5
    assert cfg.t_values == (0.5, 2.0)
    assert cfg.fast is False
    assert cfg.seed == 20260816


def test_main_pass(capsys):
    code = main(["mkappa"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.startswith("# schema=1\n# experiment=mkappa\n")
    assert err == "mkappa: 8/8 rows pass -> PASS\n"


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = main(["mkappa", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert "-> PASS" in err
    assert target.read_text().startswith("# schema=1\n")


def test_main_failing_rows_exit_one(monkeypatch, capsys):
    # a failing row must surface as exit code 1, with the table still
    # written so the failing rows can be inspected
    def failing(cfg):
        return ExperimentReport("mkappa", ["check", "pass"],
                                [("ok", True), ("bad", False)])
    monkeypatch.setitem(experiments.CATALOG, "mkappa", failing)
    code = main(["mkappa"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "mkappa: 1/2 rows pass -> FAIL\n"
    assert out == ("# schema=1\n# experiment=mkappa\ncheck,pass\n"
                   "ok,1\nbad,0\n")


def test_removed_options_are_refused(capsys):
    # grid sizes, pass gates and settings files are not configurable
    for argv in (["mkappa", "--tol", "1e-9"], ["mkappa", "--grid", "9"],
                 ["mkappa", "--config", "run.cfg"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_main_config_errors(capsys):
    cases = (
        (["nope"], "unknown experiment"),
        (["mkappa", "--t", "1,zebra"], "cannot parse time list"),
        (["mkappa", "--d", "0"], "d must be a positive integer"),
        (["dispersion", "--kappa", "2.0"], "too large"),
        (["dispersion", "--fast", "--kappa", "-1"], "must be positive"),
        (["dispersion", "--fast", "--kappa", "0"], "must be positive"),
        (["strichartz-window", "--fast", "--kappa", "0"], "must be positive"),
        (["kernel-consistency", "--fast", "--kappa", "0"],
         "must be positive"),
        (["kernel-consistency", "--d", "2", "--fast"], "only at d = 1"),
        (["heat-equiv", "--t", "nan"], "t must be finite, got nan"),
        (["restricted-sweep", "--t", "nan"], "t must be finite"),
        (["concentrate", "--t", "inf"], "t must be finite, got inf"),
        (["kernel-consistency", "--fast", "--t", "nan"], "t must be finite"),
        (["dispersion", "--fast", "--kappa", "nan"],
         "kappa must be finite, got nan"),
        (["mkappa", "--R0", "nan"], "R0 must be finite, got nan"),
        (["dispersion", "--fast", "--R0", "1e100"],
         "R0 = 1e+100 is too large"),
        (["mkappa", "--R0", "1e200"], "R0 = 1e+200 is too large"),
        (["dispersion", "--fast", "--t", "5"], "at least 3 strictly"),
        (["strichartz-window", "--fast", "--t", "32,16,8,4"],
         "at least 3 strictly"),
        (["dispersion", "--t", "4,4,8"], "at least 3 strictly"),
    )
    for argv, needle in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("hlab: ")
        assert needle in err
    # an infinite R0 puts the onset time, which the default times of
    # dispersion double past, at infinity
    with pytest.raises(ConfigError, match="R0 must be finite, got inf"):
        build_config(["dispersion", "--fast", "--R0", "inf"]).validate()


@pytest.mark.parametrize("report", ["dispersion", "strichartz-window"])
def test_bump_reports_run_at_d2(report, capsys):
    # the bump's profile does not depend on d, so the convolution reports
    # take it on H^2 as they do on H^1
    code = main([report, "--d", "2", "--fast"])
    out, err = capsys.readouterr()
    assert code == 0
    assert "\n# d=2\n" in out
    assert err.endswith("rows pass -> PASS\n")


def test_times_a_report_would_drop_are_refused(capsys):
    # kernel-consistency and concentrate use one time; under --fast
    # heat-equiv uses two, dispersion and restricted-sweep three
    cases = ((["kernel-consistency", "--fast", "--t", "2.5,5"],
              "kernel-consistency --fast uses 1 time(s), got 2.5,5"),
             (["kernel-consistency", "--t", "2.5,5"],
              "kernel-consistency uses 1 time(s), got 2.5,5"),
             (["concentrate", "--t", "1.7,3"],
              "concentrate uses 1 time(s), got 1.7,3"),
             (["heat-equiv", "--fast", "--t", "0.5,1,2"],
              "heat-equiv --fast uses 2 time(s), got 0.5,1,2"),
             (["dispersion", "--fast", "--t", "4,8,16,32"],
              "dispersion --fast uses 3 time(s), got 4,8,16,32"),
             (["restricted-sweep", "--fast", "--t", "1,2,4,8"],
              "restricted-sweep --fast uses 3 time(s), got 1,2,4,8"))
    for argv, message in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "hlab: %s\n" % message
    # at default size the same lists are used in full, and under --fast
    # the default lists are cut to what the report uses
    for argv in (["heat-equiv", "--t", "0.5,1,2"],
                 ["dispersion", "--t", "4,8,16,32"],
                 ["restricted-sweep", "--t", "1,2,4,8"],
                 ["heat-equiv", "--fast"], ["dispersion", "--fast"],
                 ["restricted-sweep", "--fast"]):
        build_config(argv).validate()
    assert ExperimentConfig("heat-equiv", fast=True).times(
        (0.5, 1.0, 2.0)) == (0.5, 1.0)
    assert ExperimentConfig("dispersion", fast=True).times(
        (4.0, 8.0, 16.0, 32.0)) == (4.0, 8.0, 16.0)


def test_unread_flags_are_refused(capsys):
    # one flag per report that the report would ignore; kernel-consistency
    # reads every setting
    cases = (["heat-equiv", "--kappa", "0.5"], ["mehler", "--d", "2"],
             ["dispersion", "--fast", "--seed", "5"],
             ["strichartz-window", "--fast", "--seed", "5"],
             ["concentrate", "--R0", "2"],
             ["restricted-sweep", "--seed", "3"],
             ["mkappa", "--kappa", "0.5", "--t", "2"])
    for argv in cases:
        flags = [a for a in argv[1:] if a.startswith("--") and a != "--fast"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "hlab: %s does not read %s\n" % (argv[0],
                                                     ", ".join(flags))
    assert set(experiments.READS) == set(experiments.CATALOG)
    assert set(experiments.READS["kernel-consistency"]) == {
        "d", "kappa", "r0", "t_values", "fast", "seed"}


def test_main_default_times_spelled_out(capsys):
    # --fast dispersion runs at 4, 8, 16; naming them changes nothing
    assert main(["dispersion", "--fast"]) == 0
    default = capsys.readouterr().out
    assert main(["dispersion", "--fast", "--t", "4,8,16"]) == 0
    assert capsys.readouterr().out == default


def test_dispersion_times_follow_the_onset_time(capsys):
    # at kappa = 1.9 the onset time is (1 / (2 - 1.9))^2 = 100: the default
    # times double past it, to 128, 256, 512 under --fast, and a list that
    # starts at or below it is refused
    assert main(["dispersion", "--fast", "--kappa", "1.9"]) == 0
    default = capsys.readouterr().out
    assert [row.split(",")[1] for row in default.splitlines()
            if row.startswith("sup,")] == ["128", "256", "512"]
    assert main(["dispersion", "--fast", "--kappa", "1.9",
                 "--t", "128,256,512"]) == 0
    assert capsys.readouterr().out == default
    code = main(["dispersion", "--fast", "--kappa", "1.9", "--t", "4,8,16"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "after the onset time 100" in err


def test_main_numerical_failure_exit_three(capsys):
    # at t = 0.001 the heat integrand's phase cuts its tau range into
    # over 4000 panels before the first is evaluated
    code = main(["heat-equiv", "--t", "0.001"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("hlab: numerical failure: "
                          "panel budget 4000 exhausted by the first cut")
    assert err.count("\n") == 1


@pytest.mark.parametrize("d", [2, 3])
def test_mkappa_reaches_the_endpoint_at_d2_and_d3(capsys, d):
    # the level sum's first term b^(-(d+1)), b = (4d - kappa^2) / 8,
    # dominates at the endpoint: b ten times smaller multiplies M_kappa
    # by about 10^(d+1)
    assert main(["mkappa", "--d", str(d)]) == 0
    out, err = capsys.readouterr()
    assert err == "mkappa: 8/8 rows pass -> PASS\n"
    growth = [row.split(",") for row in out.splitlines()
              if row.startswith("endpoint-growth,")]
    assert len(growth) == 1
    assert float(growth[0][3]) == pytest.approx(10.0 ** (d + 1), rel=1e-3)


def test_r0_past_what_the_reports_can_run_is_refused(capsys):
    # at R0 = 1e20 strichartz-window's convolution moments overflow and 4
    # of 10 rows fail
    for argv, needle in (
            (["strichartz-window", "--fast", "--R0", "1e20"],
             "R0 = 1e+20 is too large: the onset time, the bump's R0^4 or "
             "the convolution's moments overflow"),
            (["strichartz-window", "--fast", "--d", "3", "--R0", "1e11"],
             "R0 = 1e+11 is too large: the onset time, the bump's R0^4 or "
             "the convolution's moments overflow")):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "hlab: " + needle + "\n"
    # below the bounds both still run and pass; dispersion's spectral mass
    # row takes its lambda grid, and so its 101-node s rule, from R0
    for argv in (["dispersion", "--fast", "--R0", "10"],
                 ["dispersion", "--fast", "--R0", "100"],
                 ["strichartz-window", "--fast", "--R0", "1e10"],
                 ["strichartz-window", "--fast", "--d", "3", "--R0", "1e10"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", os.devnull])
        assert code == 0, argv
        assert capsys.readouterr().err.endswith("-> PASS\n")


def test_kernel_consistency_runs_up_to_its_t_over_r0_squared_cap(capsys):
    # its lambda grid follows t / R0^2, which passes up to 4 (38801 nodes
    # at --fast --t 4) and is refused above it: --t 6, where a point near
    # rho = 0 can miss the tolerance, and R0 = 0.5 at t = 2.5; kappa = 1.5
    # puts the onset time at 4 R0^2 and leaves no time to run
    assert main(["kernel-consistency", "--fast", "--t", "4",
                 "--out", os.devnull]) == 0
    assert capsys.readouterr().err.endswith("-> PASS\n")
    for argv, window in (
            (["kernel-consistency", "--fast", "--t", "6"],
             "(1, 4] for kappa=1, R0=1, got t = 6"),
            (["kernel-consistency", "--R0", "0.5", "--t", "2.5"],
             "(0.25, 1] for kappa=1, R0=0.5, got t = 2.5"),
            (["kernel-consistency", "--fast", "--kappa", "1.5"],
             "(4, 4] for kappa=1.5, R0=1, got t = 4")):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("hlab: kernel-consistency needs t in (onset, 4 R0^2] "
                       "= %s\n" % window)


def test_kernel_consistency_default_time_sits_in_its_window(capsys):
    # at kappa = 1.4 the window (onset, 4 R0^2] starts at 2.78 R0^2, past
    # 2.5 R0^2: the default time is then the window's middle
    assert main(["kernel-consistency", "--fast", "--kappa", "1.4"]) == 0
    out, err = capsys.readouterr()
    assert err == "kernel-consistency: 13/13 rows pass -> PASS\n"
    assert "\n# t=3.38888888889\n" in out


def _rel_err_column(out):
    return [float(row.split(",")[8]) for row in out.splitlines()
            if row.startswith("evolve,")]


def test_kernel_consistency_default_time_follows_r0(capsys):
    # the default time is 2.5 R0^2 and the lambda grid [5e-4, 40] / R0^2:
    # the report at R0 = 2 is the one at R0 = 1 dilated by delta_2, and
    # its evolve rows keep their relative errors
    assert main(["kernel-consistency", "--fast"]) == 0
    unit = capsys.readouterr().out
    assert main(["kernel-consistency", "--fast", "--R0", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == "kernel-consistency: 13/13 rows pass -> PASS\n"
    assert "\n# t=10\n" in out
    assert len(_rel_err_column(out)) == 10
    assert _rel_err_column(out) == pytest.approx(_rel_err_column(unit),
                                                 rel=1e-9)


@pytest.mark.parametrize("r0", ["0.5", "12", "100", "1e6"])
def test_reports_that_read_r0_run_or_refuse_at_every_scale(r0, capsys):
    # each report sizes its times and grids from R0, so it either runs
    # and passes or refuses with one line; it never fails a row, stops
    # on a numerical failure or raises
    for argv in (["dispersion", "--fast"], ["strichartz-window", "--fast"],
                 ["kernel-consistency", "--fast"], ["mkappa"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--R0", r0, "--out", os.devnull])
        err = capsys.readouterr().err
        assert code in (0, 2), argv
        assert err.count("\n") == 1
        assert err.endswith("-> PASS\n") if code == 0 else err.startswith(
            "hlab: ")


def test_heat_equiv_below_the_round_off_floor_exit_three(capsys):
    # at t = 0.1 the kernel falls to 1.4e-13 (rho = 0, s = +-4): a tail
    # target of 1e-9 times that lies under the series' round-off floor
    code = main(["heat-equiv", "--fast", "--t", "0.1,0.2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("hlab: numerical failure: round-off floor")
    assert err.count("\n") == 1


def test_heat_equiv_under_the_quadrature_floor_exit_three(capsys):
    # at t = 0.05 the target of Gaveau's tau integral lies under its
    # panels' summed round-off floors, 50 eps resabs: the quadrature
    # stops there and names the floor, instead of using up its 4000
    # panels first
    code = main(["heat-equiv", "--t", "0.05,0.5,1"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    got = re.fullmatch(r"hlab: numerical failure: round-off floor (\S+) "
                       r"above tolerance (\S+)\n", err)
    assert got and float(got[1]) > float(got[2])


# The console script exists only once the package is installed; look in
# the interpreter's scripts directory as well as on PATH.
HLAB_SCRIPT = (shutil.which("hlab")
               or shutil.which("hlab", path=sysconfig.get_path("scripts")))


@pytest.mark.skipif(HLAB_SCRIPT is None,
                    reason="hlab console script not installed")
def test_console_script(tmp_path):
    target = tmp_path / "table.csv"
    proc = subprocess.run([HLAB_SCRIPT, "mkappa", "--out", str(target)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "-> PASS" in proc.stderr
    assert target.read_text().startswith("# schema=1\n")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hlab.cli", "mkappa"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# schema=1\n")


def _fresh_python(script, *args) -> str:
    """Standard output of a script run in a new interpreter on this hlab."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(hlab.__file__))]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from hlab.cli import main
from hlab.experiments import CATALOG, READS
for name in sorted(CATALOG):
    argv = [name] + (["--fast"] if "fast" in READS[name] else [])
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_reports_import_no_scipy():
    # numpy is the only runtime dependency: scipy serves the tests alone
    assert _fresh_python(_NO_SCIPY_SCRIPT) == "[]\n"


_LOADED_SCRIPT = """
import contextlib, io, json, os, sys
from hlab.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--out", os.devnull]) == 0, argv
    loaded.append([m for m in ("numpy.random", "numpy.polynomial")
                   if m in sys.modules])
print(json.dumps(loaded))
"""


def test_reports_leave_numpy_random_and_polynomial_unloaded():
    # the seeded draws are a pure-Python PCG64 and the 16- and 24-node
    # Gauss rules literal tables, so these reports, run one after another
    # in one new process, load neither package; kernel-consistency and
    # dispersion, run last, build 101- to 225-node rules through
    # numpy.polynomial but still draw without numpy.random
    lean = [["heat-equiv"], ["restricted-sweep"], ["mkappa"], ["mehler"],
            ["strichartz-window", "--fast"], ["concentrate", "--fast"]]
    rules = [["kernel-consistency", "--fast"], ["dispersion", "--fast"]]
    loaded = json.loads(_fresh_python(_LOADED_SCRIPT,
                                      json.dumps(lean + rules)))
    assert loaded[:len(lean)] == [[]] * len(lean)
    assert all("numpy.random" not in got for got in loaded[len(lean):])
