"""Experiment catalog: configs, reports, and fast smoke runs.

The heavy experiments (kernel-consistency, dispersion, strichartz-window)
are exercised by the acceptance suite; here we only smoke the cheap ones.
"""

import io
import math

import numpy as np
import pytest

from hlab import experiments, solutions
from hlab.experiments import (CATALOG, ConfigError, ExperimentConfig,
                              ExperimentReport, _trapezoid, _window_ratio,
                              admissible_q, run)
from hlab.fourier import SpectralCoefficients
from hlab.kernels import dispersive_onset_time

CHEAP = ("heat-equiv", "mehler", "concentrate", "restricted-sweep", "mkappa")


def _csv_text(cfg):
    buf = io.StringIO()
    run(cfg).to_csv(buf)
    return buf.getvalue()


def test_catalog_names():
    assert set(CATALOG) == {"heat-equiv", "mehler", "kernel-consistency",
                            "dispersion", "strichartz-window", "concentrate",
                            "restricted-sweep", "mkappa"}
    assert all(callable(fn) for fn in CATALOG.values())


def test_config_validation():
    ExperimentConfig(experiment="mkappa").validate()
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig(experiment="heat").validate()
    with pytest.raises(ConfigError, match="concentrate"):
        # the error lists the catalog so a typo is self-correcting
        ExperimentConfig(experiment="concentrat").validate()
    with pytest.raises(ConfigError, match="positive integer"):
        ExperimentConfig(experiment="mkappa", d=0).validate()
    with pytest.raises(ConfigError, match="R0"):
        ExperimentConfig(experiment="mkappa", r0=0.0).validate()


def test_kappa_cap_only_where_dispersion_enters():
    for name in ("dispersion", "strichartz-window", "kernel-consistency"):
        with pytest.raises(ConfigError, match="too large"):
            ExperimentConfig(experiment=name, kappa=2.0).validate()
        if name != "kernel-consistency":    # its time window is tested below
            ExperimentConfig(experiment=name, kappa=1.9).validate()
    # kappa <= 0 is refused whatever its square
    with pytest.raises(ConfigError, match="must be positive"):
        ExperimentConfig(experiment="dispersion", kappa=-1.0).validate()
    # experiments that never form the constant ignore kappa entirely
    ExperimentConfig(experiment="mkappa", kappa=9.0).validate()


def test_fitted_times_must_be_three_ascending():
    for name in ("dispersion", "strichartz-window"):
        for times in ((5.0,), (4.0, 8.0), (32.0, 16.0, 8.0, 4.0),
                      (4.0, 4.0, 8.0)):
            with pytest.raises(ConfigError, match="at least 3 strictly"):
                ExperimentConfig(experiment=name, t_values=times).validate()
        ExperimentConfig(experiment=name, t_values=(4.0, 8.0, 16.0)).validate()
    # the default lists, spelled out, are accepted
    ExperimentConfig(experiment="dispersion",
                     t_values=(4.0, 8.0, 16.0, 32.0)).validate()
    onset = dispersive_onset_time(1.0, 1.0)
    ExperimentConfig(experiment="strichartz-window",
                     t_values=tuple(2.0 * onset * 2.0 ** j
                                    for j in range(6))).validate()
    # one time is enough where nothing is fitted (kernel-consistency
    # takes t / R0^2 up to 4)
    for name in ("heat-equiv", "kernel-consistency", "concentrate"):
        ExperimentConfig(experiment=name, t_values=(3.0,)).validate()


def test_fitted_times_must_follow_the_onset_time():
    # onset time (1 / (2 - 1.5))^2 = 4 at kappa = 1.5, R0 = 1
    for name in ("dispersion", "strichartz-window"):
        with pytest.raises(ConfigError, match="after the onset time 4 "):
            ExperimentConfig(experiment=name, kappa=1.5,
                             t_values=(4.0, 8.0, 16.0)).validate()
        ExperimentConfig(experiment=name, kappa=1.5,
                         t_values=(4.5, 8.0, 16.0)).validate()
        # the shape of the list is checked first
        with pytest.raises(ConfigError, match="at least 3 strictly"):
            ExperimentConfig(experiment=name, kappa=1.5,
                             t_values=(1.0, 2.0)).validate()


def test_times_override():
    cfg = ExperimentConfig(experiment="mkappa")
    assert cfg.times((1.0, 2.0)) == (1.0, 2.0)
    cfg = ExperimentConfig(experiment="mkappa", t_values=[0.3, 0.7])
    assert cfg.times((1.0, 2.0)) == (0.3, 0.7)


def test_run_validates_before_dispatch():
    with pytest.raises(ConfigError):
        run(ExperimentConfig(experiment="dispersion", kappa=2.0))


def test_report_requires_pass_column():
    with pytest.raises(ValueError, match="pass column"):
        ExperimentReport("demo", ["check", "value"], [])


def test_report_summary_and_csv_formatting():
    rep = ExperimentReport(
        "demo", ["check", "n", "frac", "tiny", "pass"],
        [("decay-hat", np.int64(7), 1.0 / 3.0, 2.5e-13, np.bool_(True)),
         ("x", 0, float("nan"), -1.5, False)],
        params={"seed": 7, "alpha": 0.25})
    assert rep.summary == "demo: 1/2 rows pass -> FAIL"
    assert not rep.all_pass
    buf = io.StringIO()
    rep.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "# experiment=demo"
    # params come out sorted by key
    assert lines[2] == "# alpha=0.25"
    assert lines[3] == "# seed=7"
    assert lines[4] == "check,n,frac,tiny,pass"
    assert lines[5] == "decay-hat,7,0.333333333333,2.5e-13,1"
    assert lines[6] == "x,0,nan,-1.5,0"

    ok = ExperimentReport("demo", ["pass"], [(True,)])
    assert ok.summary == "demo: 1/1 rows pass -> PASS"
    assert ok.all_pass


def test_admissible_q():
    assert admissible_q(float("inf")) == 1.0
    assert admissible_q(4.0) == 2.0
    for p in (2.5, 3.0, 6.0, 10.0):
        q = admissible_q(p)
        assert 2.0 / q + 4.0 / p == pytest.approx(2.0, rel=1e-13)
    q = admissible_q(float("inf"), d=2)
    assert q == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert 2.0 / admissible_q(8.0, d=2) + 6.0 / 8.0 == pytest.approx(3.0)
    with pytest.raises(ValueError):
        admissible_q(2.0)
    with pytest.raises(ValueError):
        admissible_q(1.5)


def test_window_ratio_splits_at_the_geometric_middle():
    t = np.array([1.0, 2.0, 4.0, 8.0])
    # t^-2 is integrable at infinity: the tail weighs well under the head
    assert _window_ratio(t, t ** -2) < 0.7
    # t^-1 is the borderline: every doubling adds the same amount
    assert _window_ratio(t, t ** -1) > 0.7
    # the split point does not move the whole-window integral
    y = t ** -2
    mid = 8.0 ** 0.5
    ym = np.interp(mid, t, y)
    head = _trapezoid([1.0, 2.0, mid], [y[0], y[1], ym])
    tail = _trapezoid([mid, 4.0, 8.0], [ym, y[2], y[3]])
    assert head + tail == pytest.approx(_trapezoid(t, y), rel=1e-14)
    assert _window_ratio(t, y) == pytest.approx(tail / head, rel=1e-14)


@pytest.mark.parametrize("name", CHEAP)
def test_fast_smoke(name):
    rep = run(ExperimentConfig(experiment=name, fast=True))
    assert rep.experiment == name
    assert rep.rows
    assert rep.columns[-1] == "pass"
    assert all(len(r) == len(rep.columns) for r in rep.rows)
    assert rep.all_pass
    assert rep.summary.endswith("-> PASS")


def test_time_override_reaches_rows():
    rep = run(ExperimentConfig(experiment="heat-equiv", fast=True,
                               t_values=(0.7,)))
    assert {r[1] for r in rep.rows} == {0.7}
    assert len(rep.rows) == 9
    assert rep.all_pass


def test_concentrate_row_structure():
    rep = run(ExperimentConfig(experiment="concentrate", fast=True))
    eq = [r for r in rep.rows if r[0] == "equality"]
    assert len(eq) == 18
    # s_star carries the full drift: ell=0, sign=+1 at t=1.7 sits at -6.8
    first = [r for r in eq if r[1] == 0 and r[2] == 1][0]
    assert first[4] == pytest.approx(-6.8, rel=1e-13)
    decay = {r[0]: r for r in rep.rows if r[0].startswith("decay-")}
    assert set(decay) == {"decay-hat", "decay-bump"}
    assert 2.0 <= decay["decay-hat"][5] < 2.2
    assert decay["decay-bump"][5] > 4.0


def test_mkappa_rows():
    rep = run(ExperimentConfig(experiment="mkappa"))
    vals = [r[2] for r in rep.rows if r[0] == "value"]
    assert len(vals) == 7
    assert vals == sorted(vals)
    assert vals[0] == pytest.approx(1.0 / 64.0, rel=1e-9)
    growth = [r for r in rep.rows if r[0] == "endpoint-growth"]
    assert len(growth) == 1
    assert growth[0][3] > 3.0


def test_reports_reproducible_and_seeded():
    text1 = _csv_text(ExperimentConfig(experiment="concentrate", fast=True))
    text2 = _csv_text(ExperimentConfig(experiment="concentrate", fast=True))
    assert text1 == text2
    text3 = _csv_text(ExperimentConfig(experiment="concentrate", fast=True,
                                       seed=1))
    assert text3 != text1

    lines = text1.splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "# experiment=concentrate"
    assert lines[2] == "# d=1"
    assert lines[3] == "# seed=20260816"
    assert lines[4] == "# t=1.7"
    assert lines[5] == "check,ell,sign,rho,s_or_sstar,value,tol,pass"
    assert len(lines) == 6 + 40


def test_kernel_consistency_bytes_do_not_depend_on_the_panel_rule(monkeypatch):
    # the report's coefficients stay on analyze's panel rule, and
    # synthesize interpolates them chunk by chunk; the same coefficients
    # read whole into tables must give the same CSV bytes
    cfg = ExperimentConfig(experiment="kernel-consistency", fast=True)
    on_rule = _csv_text(cfg)
    analyze = experiments.analyze
    tables = []

    def as_tables(*args, **kw):
        c = analyze(*args, **kw)
        assert c._rule is not None
        tables.append(SpectralCoefficients(d=c.d, lambda_grid=c.lambda_grid,
                                           weights=c.weights, even=c.even,
                                           odd=c.odd))
        return tables[-1]

    monkeypatch.setattr(experiments, "analyze", as_tables)
    assert _csv_text(cfg) == on_rule
    assert len(tables) == 1 and tables[0]._rule is None


@pytest.mark.parametrize("name, calls, sums", [("dispersion", 3, 1),
                                               ("strichartz-window", 4, 1),
                                               ("kernel-consistency", 1, 3)])
def test_convolution_probes_run_only_where_err_is_read(monkeypatch, name,
                                                       calls, sums):
    # dispersion and strichartz-window read only the convolution's values,
    # one radial sum per time; kernel-consistency reports conv_err, which
    # adds the halved-panel and the source sub-rule probes to its one call
    evolve, radial_sum = experiments.evolve_by_convolution, solutions._radial_sum
    seen = {"calls": 0, "sums": 0}

    def count(key, fn):
        def counted(*args, **kw):
            seen[key] += 1
            return fn(*args, **kw)
        return counted

    monkeypatch.setattr(experiments, "evolve_by_convolution",
                        count("calls", evolve))
    monkeypatch.setattr(solutions, "_radial_sum", count("sums", radial_sum))
    run(ExperimentConfig(experiment=name, fast=True))
    assert seen == {"calls": calls, "sums": calls * sums}


def test_kernel_consistency_grid_follows_t_over_r0_squared(monkeypatch):
    # lambda on [5e-4, 40] / R0^2, with at most 1.6 rad of the top line's
    # phase per step and at least 32501 nodes per sign, odd
    grids = []

    class Stop(Exception):
        pass

    def record(f, ell_max, lambda_grid, lambda_weights, **kw):
        grids.append((ell_max, lambda_grid))
        raise Stop

    monkeypatch.setattr(experiments, "analyze", record)
    for fast, r0, t, n, top in ((False, 1.0, 2.5, 32501, 40.0),
                                (True, 1.0, 4.0, 38801, 40.0),
                                (False, 1.0, 4.0, 51601, 40.0),
                                (False, 0.5, 1.0, 51601, 160.0),
                                (False, 2.0, 16.0, 51601, 10.0)):
        cfg = ExperimentConfig(experiment="kernel-consistency", fast=fast,
                               r0=r0, t_values=(t,))
        cfg.validate()
        with pytest.raises(Stop):
            run(cfg)
        ell_max, grid = grids.pop()
        assert grid.size == 2 * n
        assert grid[-1] == -grid[0] == top
        assert grid[n] == pytest.approx(5e-4 / r0 ** 2, rel=1e-15)
        step = grid[-1] - grid[-2]
        assert 4.0 * t * (2 * ell_max + 1) * step <= 1.6
    # the cap is t / R0^2 = 4, whatever t and R0
    for r0, t in ((1.0, 4.5), (0.5, 2.5), (2.0, 17.0)):
        with pytest.raises(ConfigError, match="t in \\(onset, 4 R0\\^2\\]"):
            ExperimentConfig(experiment="kernel-consistency", r0=r0,
                             t_values=(t,)).validate()


def test_kernel_consistency_window_is_checked_before_the_run():
    # kappa = 1.5 and 1.9 put the onset time (R0 / (2 - kappa))^2 at 4 and
    # 100 R0^2, at or past the window's end 4 R0^2, and the default time,
    # the window's middle there, at 4 and 52 R0^2: validate refuses what
    # the run could not do
    for kappa, r0, window, t in ((1.5, 1.0, "(4, 4]", 4),
                                 (1.5, 3.0, "(36, 36]", 36),
                                 (1.9, 1.0, "(100, 4]", 52)):
        cfg = ExperimentConfig(experiment="kernel-consistency", kappa=kappa,
                               r0=r0)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert str(exc.value).endswith("= %s for kappa=%g, R0=%g, got t = %g"
                                       % (window, kappa, r0, t))
    # below kappa = 1.5 the default time lies in the window: 2.5 R0^2 up
    # to kappa = 1, the window's middle above (onset 2.04 R0^2 and 3.31
    # R0^2 at kappa 1.3 and 1.45)
    for kappa, r0, t in ((0.5, 1.0, 2.5), (1.0, 2.0, 10.0),
                         (1.3, 3.0, 9.0 * (0.7 ** -2 + 4.0) / 2.0),
                         (1.45, 1.0, (0.55 ** -2 + 4.0) / 2.0)):
        cfg = ExperimentConfig(experiment="kernel-consistency", kappa=kappa,
                               r0=r0)
        cfg.validate()
        assert experiments._kc_time(cfg) == pytest.approx(t, rel=1e-12)


_DRAW_SEEDS = (0, 1, 4242, 20260816, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1,
               10 ** 30)


def _mehler_draws(rng):
    draws = []
    for _ in range(20):
        draws += [rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                  rng.uniform(-0.6, 0.6)]
    for _ in range(20):
        draws += [rng.uniform(0.5, 3.0), rng.uniform(0.1, 0.6),
                  rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
    return draws


def _kernel_consistency_draws(rng, d=1):
    gauge = 1.0 * math.sqrt(2.5)
    draws = []
    for _ in range(40):
        draws += [rng.uniform(-gauge, gauge, size=d),
                  rng.uniform(-gauge, gauge, size=d),
                  rng.uniform(-gauge * gauge, gauge * gauge)]
    return draws


def _concentrate_draws(rng):
    return [rng.uniform(0.0, 3.0, 20), rng.uniform(-8.0, 8.0, 20)]


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
@pytest.mark.parametrize("draws", [
    _mehler_draws, _kernel_consistency_draws, _concentrate_draws,
    lambda rng: _kernel_consistency_draws(rng, d=2)])
def test_seeded_draws_are_numpys_pcg64_stream(draws, seed):
    # each seeded report's draws, with its bounds and in its order, from
    # the pure-Python generator and from numpy's default_rng: the same
    # types, shapes and bits
    got = draws(experiments._Pcg64(seed))
    want = draws(np.random.default_rng(seed))
    assert [(type(a), np.shape(a)) for a in got] == [
        (type(b), np.shape(b)) for b in want]
    assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in zip(got, want))


def test_negative_seeds_are_refused():
    # numpy's SeedSequence, which the draws follow, takes no negative seed
    for name in ("mehler", "kernel-consistency", "concentrate"):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            ExperimentConfig(experiment=name, seed=-1).validate()


@pytest.mark.parametrize("d", [1, 2])
def test_spectral_mass_follows_the_dilation_law(d):
    # the bump of radius R0 is the unit bump dilated by delta_R0, and
    # analyze's default grid is dilated with it, so the spectral mass,
    # the squared L2 norm, is R0^Q times the unit bump's, Q = 2d + 2
    def mass(r0):
        rows = run(ExperimentConfig(experiment="dispersion", d=d, r0=r0,
                                    fast=True)).rows
        return next(row[3] for row in rows if row[0] == "mass-spectral")
    unit = mass(1.0)
    for r0 in (2.0, 3.0):
        assert mass(r0) == pytest.approx(r0 ** (2 * d + 2) * unit, rel=1e-10)
