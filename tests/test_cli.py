"""Command line harness: parsing, precedence, exit codes, streams."""

import shutil
import subprocess
import sys
import sysconfig

import pytest

from hlab.cli import (_parse_bool, _parse_times, build_config, main,
                      read_config_file)
from hlab.experiments import ConfigError


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


def test_parse_bool():
    for text in ("1", "true", "YES", " on "):
        assert _parse_bool(text) is True
    for text in ("0", "false", "No", "off"):
        assert _parse_bool(text) is False
    with pytest.raises(ConfigError, match="cannot parse boolean"):
        _parse_bool("maybe")


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full comment line\n"
        "\n"
        "fast = true\n"
        "T = 0.5,1.5\n"
        "tol=1e-9   # trailing comment\n"
        "SEED = 7\n"
        "r0 = 2.0\n")
    assert read_config_file(str(path)) == {
        "fast": True, "t_values": (0.5, 1.5), "tol": 1e-9, "seed": 7,
        "r0": 2.0}


def test_read_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        read_config_file(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        read_config_file(str(bad))
    for text in ("speed = 9\n", "ell = 3\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="unknown key"):
            read_config_file(str(bad))
    bad.write_text("d = 1\nd = x\n")
    # conversion errors carry the file position
    with pytest.raises(ConfigError, match=r"bad\.cfg:2:"):
        read_config_file(str(bad))


def test_build_config_flags():
    cfg = build_config(["mkappa", "--R0", "2.5", "--t", "0.5,2"])
    assert cfg.experiment == "mkappa"
    assert cfg.r0 == 2.5
    assert cfg.t_values == (0.5, 2.0)
    assert cfg.fast is False
    assert cfg.seed == 20260816


def test_build_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("kappa = 0.5\nfast = true\nseed = 3\n")
    cfg = build_config(["mkappa", "--config", str(path), "--kappa", "0.9"])
    assert cfg.kappa == 0.9
    assert cfg.fast is True
    assert cfg.seed == 3
    assert cfg.d == 1


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


def test_main_failing_rows_exit_one(capsys):
    # an unreachable tolerance must surface as exit code 1, with the
    # table still written so the failing rows can be inspected
    code = main(["concentrate", "--fast", "--tol", "1e-30"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "concentrate: 22/40 rows pass -> FAIL\n"
    assert out.count("\n") == 6 + 40


def test_main_config_errors(capsys):
    cases = (
        (["nope"], "unknown experiment"),
        (["mkappa", "--config", "/no/such/file.cfg"], "cannot read config"),
        (["mkappa", "--t", "1,zebra"], "cannot parse time list"),
        (["mkappa", "--d", "0"], "d must be a positive integer"),
        (["dispersion", "--kappa", "2.0"], "too large"),
        (["dispersion", "--d", "2", "--fast"], "only at d = 1"),
        (["strichartz-window", "--d", "2", "--fast"], "only at d = 1"),
        (["kernel-consistency", "--d", "2", "--fast"], "only at d = 1"),
    )
    for argv, needle in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("hlab: ")
        assert needle in err


def test_main_numerical_failure_exit_three(capsys):
    # at d = 2 the dispersion constant's quadrature runs out of panels
    # near the endpoint kappa^2 = 4d
    code = main(["mkappa", "--d", "2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("hlab: numerical failure: panel budget")
    assert err.count("\n") == 1


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
