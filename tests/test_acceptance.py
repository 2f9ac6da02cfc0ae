"""Acceptance gate: one test and one printed verdict line per criterion.

Each test runs a full criterion at its stated tolerance and prints
[PASS]/[FAIL] on the live terminal, bypassing capture, so a bare
``pytest tests/test_acceptance.py`` shows the scoreboard.  Nothing here
loosens a bound to stay green; a criterion the implementation genuinely
misses stays red.  All ten criteria are expected to pass.

Expected wall time is well under a minute, most of it the radial
transform of kernel-consistency.  The unit modules stay fast; this file
is the slow gate.
"""

import math
import time

import numpy as np

from hlab.experiments import ExperimentConfig, run
from hlab.fourier import (RadialFunction, SpectralCoefficients, analyze,
                          evolve_schrodinger, single_sign_lambda_grid,
                          spatial_norm_sq, spectral_norm_sq, synthesize)
from hlab.group import (dilate, distance, homogeneous_dimension, identity,
                        inverse, koranyi_norm, product)
from hlab.quadrature import radial_ball_norms, radial_ball_rule
from test_group import random_point

_CACHE = {}


def _run_cached(name, **kw):
    key = (name,) + tuple(sorted(kw.items()))
    if key not in _CACHE:
        t0 = time.perf_counter()
        rep = run(ExperimentConfig(experiment=name, **kw))
        _CACHE[key] = (rep, time.perf_counter() - t0)
    return _CACHE[key]


def _failing(rep, rows=None):
    rows = rep.rows if rows is None else rows
    idx = rep.columns.index("pass")
    return "\n".join(str(r) for r in rows if not r[idx])


def _verdict(capsys, name, ok, detail=""):
    line = "[%s] %s" % ("PASS" if ok else "FAIL", name)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line + ("\n" + detail if detail else "")


def test_heat_kernel_two_forms_agree(capsys):
    rep, dt = _run_cached("heat-equiv")
    ok = rep.all_pass and dt < 60.0
    _verdict(capsys, "heat-kernel-equivalence", ok,
             "wall %.1fs\n%s" % (dt, _failing(rep)))


def test_mehler_identities(capsys):
    rep, dt = _run_cached("mehler")
    ok = rep.all_pass and dt < 10.0
    _verdict(capsys, "mehler-suite", ok,
             "wall %.1fs\n%s" % (dt, _failing(rep)))


def test_spectral_and_convolution_routes_agree(capsys):
    rep, dt = _run_cached("kernel-consistency")
    ok = rep.all_pass and dt < 600.0
    _verdict(capsys, "kernel-consistency", ok,
             "wall %.1fs\n%s" % (dt, _failing(rep)))


def test_dispersive_sup_bound(capsys):
    rep, _ = _run_cached("dispersion")
    idx = rep.columns.index("pass")
    rows = [r for r in rep.rows if r[0] in ("sup", "sup-slope")]
    assert len(rows) == 5
    ok = all(r[idx] for r in rows)
    _verdict(capsys, "dispersive-bound", ok, _failing(rep, rows))


def test_concentration_on_quantized_hyperplanes(capsys):
    rep, _ = _run_cached("concentrate")
    idx = rep.columns.index("pass")
    rows = [r for r in rep.rows
            if r[0] == "equality" or r[0].startswith("decay-")]
    assert len(rows) == 20
    ok = all(r[idx] for r in rows)
    _verdict(capsys, "strip-sharpness", ok, _failing(rep, rows))


def test_vertical_transport_identity(capsys):
    rep, _ = _run_cached("concentrate")
    idx = rep.columns.index("pass")
    rows = [r for r in rep.rows if r[0] == "transport"]
    assert len(rows) == 20
    ok = all(r[idx] for r in rows)
    _verdict(capsys, "transport-identity", ok, _failing(rep, rows))


def test_restricted_kernels_scaled_size(capsys):
    rep, _ = _run_cached("restricted-sweep")
    _verdict(capsys, "restricted-kernels", rep.all_pass, _failing(rep))


def test_expanding_ball_norm_slopes(capsys):
    # Law: by the homogeneity of the kernel the L^p norm over the ball of
    # radius kappa sqrt(t) decays like t^(-Q/2 + Q/(2p)): -1.5 at p = 4,
    # -2 at p = inf.  Bound: the interpolated global estimate gives
    # t^(-Q/2 + Q/p), -1 at p = 4, which the slope may only undercut.
    rep, _ = _run_cached("strichartz-window")
    slopes = {r[1]: r for r in rep.rows if r[0] == "slope"}
    bounds = {r[1]: r for r in rep.rows if r[0] == "slope-bound"}
    assert set(slopes) == set(bounds) == {4.0, float("inf")}
    assert slopes[4.0][3] == -1.5 and slopes[float("inf")][3] == -2.0
    assert bounds[4.0][3] == -1.0 and bounds[float("inf")][3] == -2.0
    ok = (all(abs(r[2] - r[3]) <= r[4] for r in slopes.values())
          and all(r[2] <= r[3] + r[4] for r in bounds.values()))
    detail = "\n".join(
        "p=%g: slope %.4f vs law %.4f, bound %.4f (tol %.2f)"
        % (p, r[2], r[3], bounds[p][3], r[4])
        for p, r in sorted(slopes.items()))
    _verdict(capsys, "strichartz-window", ok, detail)


def test_transform_round_trip_and_plancherel(capsys):
    grid, w = single_sign_lambda_grid(0.5, 3.5, 201)
    u = grid - 2.0
    inside = np.abs(u) < 1.0
    win = np.zeros(grid.size)
    win[inside] = np.exp(-u[inside] ** 2 / (1.0 - u[inside] ** 2))
    c = SpectralCoefficients(d=1, lambda_grid=grid, weights=w,
                             even=np.array([win, 0.5 * win, -0.25 * win]))
    f = RadialFunction(profile=lambda rho, s: synthesize(c, rho, s),
                       support_rho=40.0, support_s=60.0)

    c2 = analyze(f, ell_max=4, lambda_grid=grid, lambda_weights=w,
                 n_rho=160, n_s=400)
    scale = float(np.max(np.abs(c.values)))
    trip = float(np.max(np.abs(c2.values[:3] - c.values))) / scale

    spec = spectral_norm_sq(c)
    spat = spatial_norm_sq(f, n_rho=160, n_s=400)
    plancherel = abs(spec / spat / math.pi ** 2 - 1.0)

    drift = abs(spectral_norm_sq(evolve_schrodinger(c, 0.37)) / spec - 1.0)

    ok = trip < 1e-3 and plancherel < 5e-3 and drift <= 1e-14
    _verdict(capsys, "fourier-infrastructure", ok,
             "round trip %.2e, plancherel off by %.2e, mass drift %.2e"
             % (trip, plancherel, drift))


def test_group_geometry_laws(capsys):
    rng = np.random.default_rng(20260816)
    n = 1000
    ws = [random_point(rng, d=1) for _ in range(n)]
    us = [random_point(rng, d=1) for _ in range(n)]
    vs = [random_point(rng, d=1) for _ in range(n)]
    rads = rng.uniform(0.1, 5.0, n)
    e = identity(1)

    def close(a, b, tol=1e-12):
        sc = 1.0 + koranyi_norm(a) ** 2 + koranyi_norm(b) ** 2
        return (np.allclose(a.y, b.y, atol=tol * sc)
                and np.allclose(a.eta, b.eta, atol=tol * sc)
                and abs(a.s - b.s) <= tol * sc)

    laws = {
        "associativity": all(
            close(product(product(w, u), v), product(w, product(u, v)))
            for w, u, v in zip(ws, us, vs)),
        "inverse": all(close(product(w, inverse(w)), e) for w in ws),
        "homogeneity": all(
            abs(koranyi_norm(dilate(float(a), w)) - a * koranyi_norm(w))
            <= 1e-12 * (1.0 + a * koranyi_norm(w))
            for a, w in zip(rads, ws)),
        "left-invariance": all(
            abs(distance(product(g, w), product(g, u))
                - distance(w, u)) <= 1e-11 * (1.0 + distance(w, u))
            for g, w, u in zip(vs, ws, us)),
        "triangle": all(
            distance(w, v) <= (distance(w, u) + distance(u, v))
            * (1.0 + 1e-12)
            for w, u, v in zip(ws, us, vs)),
    }
    q = homogeneous_dimension(1)
    vols = {}
    for r in (0.5, 1.0, 2.0):
        _, _, w = radial_ball_rule(r, 1, 257, 257)
        vols[r] = radial_ball_norms(np.ones_like(w), w, 1, (1.0,))[0]
    laws["ball-volume"] = (
        abs(vols[2.0] / vols[1.0] - 2.0 ** q) <= 2e-3 * 2.0 ** q
        and abs(vols[0.5] / vols[1.0] - 0.5 ** q) <= 2e-3 * 0.5 ** q)

    ok = all(laws.values())
    detail = "failed laws: " + ", ".join(k for k, v in laws.items() if not v)
    _verdict(capsys, "group-geometry", ok, detail)
