"""Explicit unitary-flow solutions and their evaluation routes."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hlab.experiments import _ball_grid, _evolved_ball_norms
from hlab.fourier import bump_profile, synthesize
from hlab.group import GroupPoint
from hlab.kernels import (KernelQuery, StripViolation, ZeroTime,
                          schrodinger_batch, schrodinger_kernel)
from hlab import kernels, solutions
from hlab.quadrature import (QuadratureError, gauss_panels,
                             integrate_adaptive, radial_ball_norms,
                             radial_ball_rule, simpson_rule)
from hlab.solutions import (ConcentrationProbe, LineData,
                            concentration_probe, evolve_by_convolution,
                            hyperplane_decay_exponent)
from hlab.special import laguerre_table


def test_line_data_validation():
    with pytest.raises(ValueError):
        LineData(ell=-1)
    with pytest.raises(ValueError):
        LineData(lambda_sign=0)
    with pytest.raises(ValueError):
        LineData(band=(2.0, 1.0))
    with pytest.raises(ValueError):
        LineData(band=(0.0, 1.0))
    with pytest.raises(ValueError):
        LineData(profile="tent")
    with pytest.raises(ValueError):
        LineData().value(0.0, -0.5, 0.0)


def test_density_is_normalized():
    for profile in ("bump", "hat"):
        data = LineData(band=(0.7, 2.3), profile=profile)
        val, _ = integrate_adaptive(data.density, 0.7, 2.3, 1e-12,
                                    breakpoints=(1.5,))
        assert val.real == pytest.approx(1.0, rel=1e-10)


def test_drift_and_concentration_point():
    data = LineData(ell=3, lambda_sign=-1)
    assert data.drift(2.0) == 4.0 * 2.0 * 7
    assert data.concentration_point(2.0) == 56.0
    assert LineData(ell=0).concentration_point(1.5) == -6.0


def test_value_routes_agree():
    points = ((0.0, 0.0, 0.0), (3.0, 0.7, -2.0), (1.0, 2.5, 30.0),
              (5.0, 0.1, -59.5))
    data = LineData(ell=2, profile="bump")
    for t, rho, s in points:
        a = data.value(t, rho, s)
        b = data.value_adaptive(t, rho, s, tol=1e-13)
        assert a == pytest.approx(b, abs=1e-12)
    # the tent density has a kink inside the fixed Gauss panels, which
    # limits that route; the adaptive one stays sharp
    hat = LineData(ell=2, profile="hat")
    for t, rho, s in points:
        a = hat.value(t, rho, s)
        b = hat.value_adaptive(t, rho, s, tol=1e-13)
        assert a == pytest.approx(b, abs=1e-3)


def test_adaptive_values_batch_with_lone_bits():
    # one lockstep batch over the points, each with its lone run's bits
    for profile in ("bump", "hat"):
        data = LineData(ell=2, lambda_sign=-1, profile=profile)
        rho = np.array([0.0, 0.7, 2.5, 0.1])
        s = np.array([0.0, -2.0, 30.0, -59.5])
        batch = data.value_adaptive(3.0, rho, s)
        assert batch.shape == (4,)
        lone = [data.value_adaptive(3.0, r, x) for r, x in zip(rho, s)]
        assert isinstance(lone[0], complex)
        assert batch.tobytes() == np.array(lone).tobytes()


def _value_direct(data, t, rho, s):
    """value_with_floor's sum on the same mu rule, with the phase
    exp(i omega mu) taken directly at every (point, node); and the rule's
    panel count."""
    rho, s = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                 np.asarray(s, dtype=float))
    a, b = data.band
    omega = data.lambda_sign * s + data.drift(t)
    n_panels = max(11, math.ceil(np.max(np.abs(omega)) * (b - a)
                                 / (6.0 * math.pi)))
    mu, wm = gauss_panels(a, b, n_panels, 24)
    lag = laguerre_table(data.ell, data.d - 1.0,
                         2.0 * np.outer(rho, mu))[data.ell]
    terms = (np.exp(1j * np.outer(omega, mu) - np.outer(rho, mu)) * lag
             * data.density(mu) * mu ** data.d * wm)
    return terms.sum(axis=1), n_panels


@pytest.mark.parametrize("profile", ["bump", "hat"])
def test_factored_phase_matches_the_direct_one(profile):
    # unsorted and repeated rho in one call; |omega| (b - a) reaches
    # about 1600, so the rule takes 84 panels rather than the minimum 11
    data = LineData(ell=2, lambda_sign=-1, d=2, band=(0.6, 3.1),
                    profile=profile)
    rho = np.array([1.1, 0.0, 0.4, 1.1, 2.5, 0.0, 0.4, 0.05])
    s = np.array([0.0, 30.0, -5.0, 700.0, 47.0, -12.0, 350.0, 55.0])
    got, floor = data.value_with_floor(3.0, rho, s)
    want, n_panels = _value_direct(data, 3.0, rho, s)
    assert n_panels == 84
    assert np.all(np.abs(got - want) <= floor)
    # and the floor is no blanket: near the hyperplane it stays below
    # 1e-7 of the values
    near = np.abs(s - data.concentration_point(3.0)) < 50.0
    assert np.all(floor[near] < 1e-7 * np.abs(want[near]))


def test_value_broadcast_and_scalar_forms():
    data = LineData()
    v = data.value(1.0, 0.3, 0.2)
    assert isinstance(v, complex)
    arr = data.value(1.0, np.array([0.3, 0.3]), np.array([0.2, 1.0]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(v, rel=1e-14)


def test_concentration_identity():
    for ell, sign in ((0, 1), (2, -1)):
        data = LineData(ell=ell, lambda_sign=sign, profile="bump")
        p = concentration_probe(data, 3.0)
        assert isinstance(p, ConcentrationProbe)
        assert p.s_star == -sign * data.drift(3.0)
        np.testing.assert_array_equal(p.rho, [0.0, 0.4, 1.1])
        assert np.max(np.abs(p.moving - p.stationary)) < 1e-10


def test_hyperplane_decay_exponents():
    # tent density: inverse-square envelope from the transform's kink.
    # All seven samples lie far above their round-off floors, so none is
    # dropped and the round-off reaching the exponent is under the pin's
    # relative tolerance.
    hat = hyperplane_decay_exponent(LineData(profile="hat"), 1.0)
    assert (hat.n_used, hat.n_points) == (7, 7)
    assert not hat.lower_bound
    assert hat.roundoff < 1e-6 * 2.0054273916412018
    assert hat.exponent == pytest.approx(2.0054273916412018, rel=1e-6)
    assert hat.exponent >= 2.0
    # smooth density: superpolynomial, so the envelope reaches the
    # quadrature's round-off floor by offset 512 and the fit keeps only
    # the three nearest samples; the rate is then a lower bound.  The
    # pin holds to the round-off the estimator itself propagates.
    bump = hyperplane_decay_exponent(LineData(profile="bump"), 1.0)
    assert (bump.n_used, bump.n_points) == (3, 7)
    assert bump.lower_bound
    assert bump.exponent == pytest.approx(8.16588956877041,
                                          rel=0, abs=bump.roundoff)
    assert bump.exponent > 4.0
    with pytest.raises(ValueError, match="round-off floor"):
        hyperplane_decay_exponent(LineData(profile="bump"), 1.0, n_points=1)


def test_wide_band_mass_converges():
    # The mass of a wide band has a round-off floor above 1e-14; its
    # tolerance follows that floor, so the quadrature converges.
    for band in ((1.0, 4.0), (0.5, 6.0)):
        hat = LineData(profile="hat", band=band)
        assert hat._mass() == pytest.approx(0.5 * (band[1] - band[0]),
                                            rel=1e-13)
        bump = LineData(profile="bump", band=band)
        total, _ = integrate_adaptive(bump.density, *band, 1e-12)
        assert total.real == pytest.approx(1.0, rel=1e-12)
    fit = hyperplane_decay_exponent(LineData(profile="bump",
                                             band=(1.0, 4.0)), 1.0)
    assert fit.n_used >= 2 and fit.exponent > 2.0


def test_spectral_route_reproduces_time_zero():
    for sign in (1, -1):
        data = LineData(ell=1, lambda_sign=sign, profile="bump")
        c = data.spectral_coefficients()
        assert c.ell_max == 1
        assert np.all(c.values[0] == 0.0)
        rho = np.array([0.0, 0.7, 2.2])
        s = np.array([-8.3, 0.5, 12.0])
        np.testing.assert_allclose(synthesize(c, rho, s),
                                   data.value(0.0, rho, s), atol=1e-12)


def _ball_mass(u0):
    """Integral of the bump of radius 0.5 over the gauge ball of radius
    0.51^(1/2), which holds its support."""
    rho, s, w = radial_ball_rule(0.51 ** 0.5, 1, 257, 257)
    return radial_ball_norms(u0.profile(rho, s), w, 1, (1.0,))[0]


def test_bump_data_shape_and_mass():
    u0 = bump_profile(0.5)
    assert u0.support_rho == 0.25 and u0.support_s == 0.25
    assert u0.profile(0.0, 0.0) == pytest.approx(1.0)
    assert u0.profile(0.3, 0.0) == 0.0
    big = bump_profile(0.5, amplitude=3.0)
    assert big.profile(0.01, 0.02) == pytest.approx(
        3.0 * u0.profile(0.01, 0.02), rel=1e-14)
    assert _ball_mass(u0) == pytest.approx(0.12449661977171328, rel=1e-6)


def test_convolution_far_field_is_mass_times_kernel():
    # once the kernel varies slowly across the support of u0, the
    # convolution collapses to total mass times the kernel value
    u0 = bump_profile(0.5)
    mass = _ball_mass(u0)
    t = 20.0
    pts = [GroupPoint(np.array([0.4]), np.array([-0.3]), 2.0),
           GroupPoint(np.array([0.0]), np.array([0.0]), 0.0),
           GroupPoint(np.array([1.0]), np.array([0.8]), -5.0)]
    vals = evolve_by_convolution(u0, t, pts, tol=1e-8).values
    for p, v in zip(pts, vals):
        k = schrodinger_kernel(KernelQuery(
            t_or_z=t, rho=p.horizontal_sq(), s=p.s, tol=1e-11)).value
        assert v == pytest.approx(mass * k, rel=0.02)


def _radial_points(d, rho, s):
    """The points (sqrt(rho) e_1, 0, s) of H^d."""
    e1 = np.eye(d)[0]
    return [GroupPoint(math.sqrt(r) * e1, np.zeros(d), float(v))
            for r, v in zip(rho, s)]


def test_convolution_grid_refinement_and_linearity(monkeypatch):
    # The returned error bound covers the distance to the same sum on a
    # source rule of twice the resolution and a tighter tau rule, at a
    # small-support case, the kernel-consistency time and tolerance, and
    # the first dispersion time with the report's ball points.
    u0 = bump_profile(0.5)
    rho, s, _ = radial_ball_rule(2.0, 1, 7, 9)
    cases = ((u0, 0.7, [GroupPoint(np.array([0.2]), np.array([0.1]), 0.3),
                        GroupPoint(np.array([0.0]), np.array([0.0]), 0.0)],
              1e-6),
             (bump_profile(1.0), 2.5, _radial_points(1, [0.5, 1.4, 0.1],
                                                     [1.2, -0.4, -2.3]),
              1e-6),
             (bump_profile(1.0), 4.0, _radial_points(1, rho, s), 1e-8))
    results = [evolve_by_convolution(u0_, t, pts, tol=tol)
               for u0_, t, pts, tol in cases]
    doubled = evolve_by_convolution(bump_profile(0.5, amplitude=2.0), 0.7,
                                    cases[0][2]).values
    np.testing.assert_allclose(doubled, 2.0 * results[0].values, rtol=1e-13)
    monkeypatch.setattr(solutions, "_N_SOURCE", 257)
    for (u0_, t, pts, tol), res in zip(cases, results):
        finer = evolve_by_convolution(u0_, t, pts, tol=1e-3 * tol).values
        vals, err = res.values, res.err
        gap = float(np.max(np.abs(finer - vals)))
        assert 0.0 < gap <= err < 1e-3 * float(np.max(np.abs(vals)))


def _counted_radial_sums(monkeypatch):
    """The tau node count of each solutions._radial_sum call from now on."""
    sizes = []
    radial_sum = solutions._radial_sum

    def counted(d, t, tau, *args):
        sizes.append(tau.size)
        return radial_sum(d, t, tau, *args)

    monkeypatch.setattr(solutions, "_radial_sum", counted)
    return sizes


def test_convolution_err_is_summed_once_on_first_read(monkeypatch):
    # the values take one radial sum; the halved-panel probe (more tau
    # nodes) and the source sub-rule probe run when err is first read, and
    # a second read returns the kept bound
    sizes = _counted_radial_sums(monkeypatch)
    pts = [GroupPoint(np.array([0.2]), np.array([0.1]), 0.3),
           GroupPoint(np.array([0.0]), np.array([0.0]), 0.0)]
    conv = evolve_by_convolution(bump_profile(0.5), 0.7, pts, tol=1e-6)
    assert len(sizes) == 1 and conv.values.shape == (2,)
    err = conv.err
    assert len(sizes) == 3 and sizes[1] > sizes[0] == sizes[2]
    assert conv.err is err and len(sizes) == 3 and conv.probes is None


def test_convolution_refuses_a_halved_probe_over_the_panel_budget(
        monkeypatch):
    # the halved probe's tau rule is built with the values: a panel budget
    # that holds the values' rule but not the probe's refuses the call,
    # before any radial sum and though err is never read
    u0 = bump_profile(0.5)
    origin = [GroupPoint(np.array([0.0]), np.array([0.0]), 0.0)]
    rules = []
    fixed_tau_rule = solutions._fixed_tau_rule

    def recorded(t_cut, width):
        rules.append((t_cut, width))
        return fixed_tau_rule(t_cut, width)

    monkeypatch.setattr(solutions, "_fixed_tau_rule", recorded)
    evolve_by_convolution(u0, 0.7, origin)
    (t_cut, width), (_, half) = rules
    budget = math.ceil(t_cut / width)
    assert half == 0.5 * width and math.ceil(t_cut / half) > budget
    sizes = _counted_radial_sums(monkeypatch)
    monkeypatch.setattr(kernels, "MAX_PANELS", budget)
    with pytest.raises(QuadratureError, match="over %d panels a side .* "
                       "width %.3g" % (budget, half)):
        evolve_by_convolution(u0, 0.7, origin)
    assert sizes == []
    monkeypatch.setattr(kernels, "MAX_PANELS", math.ceil(t_cut / half))
    evolve_by_convolution(u0, 0.7, origin)
    assert len(sizes) == 1


def _tensor_box(u0, n):
    """Nodes (N, 2d+1) and weights (N,) of the (2d+1)-D Simpson box over
    the support of u0, n nodes per axis."""
    rh = math.sqrt(u0.support_rho)
    rules = ([simpson_rule(-rh, rh, n)] * (2 * u0.d)
             + [simpson_rule(-u0.support_s, u0.support_s, n)])
    nodes = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    weights = np.meshgrid(*[w for _, w in rules], indexing="ij")
    return (np.stack([m.reshape(-1) for m in nodes], axis=-1),
            np.prod([m.reshape(-1) for m in weights], axis=0))


def _pair_sum(u0, t, points, n, tol):
    """The convolution as the explicit sum over (query, kept node) pairs
    of the tensor box: the unitary batch kernel at every pair times the
    node amplitudes.  Shares only the batch kernel with the radial
    route."""
    d = u0.d
    pts, w = _tensor_box(u0, n)
    vy, veta, vs = pts[:, :d], pts[:, d:2 * d], pts[:, 2 * d]
    u0v = u0.profile(np.sum(vy * vy, axis=1) + np.sum(veta * veta, axis=1),
                     vs)
    keep = np.abs(u0v) > 1e-16 * np.max(np.abs(u0v))
    amp = (w * u0v)[keep]
    vy, veta, vs = vy[keep], veta[keep], vs[keep]
    rho = np.array([np.sum((p.y - vy) ** 2, axis=1)
                    + np.sum((p.eta - veta) ** 2, axis=1) for p in points])
    s = np.array([p.s - vs - 2.0 * (veta @ p.y) + 2.0 * (vy @ p.eta)
                  for p in points])
    kv, _ = schrodinger_batch(d, t, rho.reshape(-1), s.reshape(-1), tol)
    return kv.reshape(rho.shape) @ amp


def _pair_sum_gaps(u0, t, points, sizes):
    """Relative distance of the tensor pair sum to the radial route."""
    want = evolve_by_convolution(u0, t, points, tol=1e-8).values
    scale = float(np.max(np.abs(want)))
    return [float(np.max(np.abs(_pair_sum(u0, t, points, n, 1e-8) - want)))
            / scale for n in sizes]


def test_tensor_pair_sum_converges_to_the_radial_route_d1():
    # at the first dispersion --fast time, the tensor box with the --fast
    # and default sizes of the old route: 3.3e-3 and 1.5e-5 apart
    u0 = bump_profile(1.0)
    rho, s, _ = radial_ball_rule(2.0, 1, 7, 9)
    points = _radial_points(1, rho[::6], s[::6])
    gaps = _pair_sum_gaps(u0, 4.0, points, (17, 33))
    assert gaps[0] < 5e-3 and gaps[1] < 3e-5, gaps


def test_tensor_pair_sum_converges_to_the_radial_route_d2():
    # the 5-D box barely resolves the bump, so it converges slowly:
    # 4.9e-2, 2.6e-2 and 1.4e-2 apart at n = 7, 9 and 11
    u0 = bump_profile(0.8, d=2)
    points = [GroupPoint(np.array([0.0, 0.0]), np.array([0.0, 0.0]), 0.0),
              GroupPoint(np.array([0.5, -0.2]), np.array([0.1, 0.3]), 0.7),
              GroupPoint(np.array([-0.3, 0.4]), np.array([0.6, -0.5]), -1.1)]
    gaps = _pair_sum_gaps(u0, 1.5, points, (7, 9, 11))
    assert gaps[0] < 0.07 and gaps[2] < 0.02, gaps
    assert gaps[1] < 0.7 * gaps[0] and gaps[2] < 0.7 * gaps[1], gaps


def test_convolution_depends_on_y_only_through_its_length():
    # u0 and S_t are radial, so u(t) = u0 * S_t is U(d)-invariant, and the
    # radial route reads a query only through |Y|^2 and s: turned points
    # give the values of the points (sqrt(rho) e_1, 0, s) to round-off.
    rng = np.random.default_rng(7)
    cases = ((bump_profile(1.0), 4.0, [0.3, 1.0, 2.5, 3.7],
              [0.4, -1.3, 2.2, 0.0]),
             (bump_profile(0.8, d=2), 1.5, [0.2, 0.6, 1.1], [0.7, -1.1, 0.3]))
    for u0, t, rho, s in cases:
        d = u0.d
        turned = []
        for r, v in zip(rho, s):
            x = rng.normal(size=2 * d)
            x *= math.sqrt(r) / np.linalg.norm(x)
            turned.append(GroupPoint(x[:d], x[d:], v))
        a = evolve_by_convolution(u0, t, _radial_points(d, rho, s),
                                  tol=1e-8).values
        b = evolve_by_convolution(u0, t, turned, tol=1e-8).values
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)


def _polar_ball_norms(u0, t, kappa, n):
    """L2 and L4 of u(t) over the gauge ball of radius kappa sqrt(t) by
    an n x n Gauss rule in polar coordinates (rho, s) = r (cos phi,
    sin phi) of the ball's half-disk, weight r^d cos^(d-1) phi."""
    d = u0.d
    x, wx = np.polynomial.legendre.leggauss(n)
    top = kappa * kappa * t
    r, wr = 0.5 * top * (x + 1.0), 0.5 * top * wx
    phi, wphi = 0.5 * math.pi * x, 0.5 * math.pi * wx
    R, P = np.meshgrid(r, phi, indexing="ij")
    w = np.outer(wr * r ** d, wphi * np.cos(phi) ** (d - 1)).reshape(-1)
    vals = evolve_by_convolution(
        u0, t, _radial_points(d, (R * np.cos(P)).reshape(-1),
                              (R * np.sin(P)).reshape(-1)), tol=1e-8).values
    const = math.pi ** d / math.factorial(d - 1)
    return np.array([(const * np.sum(w * np.abs(vals) ** p)) ** (1.0 / p)
                     for p in (2.0, 4.0)])


def test_radial_ball_norms_match_a_polar_gauss_rule():
    # The dispersion report's ball norms of u(t), taken by the clipped
    # Simpson rule of the ball's (rho, s) section, against a polar Gauss
    # rule of the same half-disk, at the first time of dispersion with
    # both ball grids.  The polar rule follows the curved edge, and its
    # L2 and L4 agree to 1e-9 between 12 x 12 and 16 x 16 nodes.  The
    # clipped rule cuts that edge, an error the README states as 2-3% of
    # L2 per grid refinement, so each grid must come within 3%.
    u0 = bump_profile(1.0)
    t, kappa = 4.0, 1.0
    polar = _polar_ball_norms(u0, t, kappa, 12)
    np.testing.assert_allclose(_polar_ball_norms(u0, t, kappa, 16), polar,
                               rtol=1e-9)
    for fast in (True, False):
        _, l2, l4 = _evolved_ball_norms(u0, t, kappa, *_ball_grid(fast))
        np.testing.assert_allclose([l2, l4], polar, rtol=0.03)


def test_convolution_strip_guard():
    # the box of pairs, |s| <= 0 + 1 + 0 and rho <= (0 + 1)^2, meets the
    # strip 4 d t = 0.8: _strip_rate refuses it with its own message
    u0 = bump_profile(1.0)
    origin = [GroupPoint(np.array([0.0]), np.array([0.0]), 0.0)]
    with pytest.raises(StripViolation) as exc:
        evolve_by_convolution(u0, 0.2, origin)
    with pytest.raises(StripViolation) as want:
        kernels._strip_rate(1, complex(0.0, -0.2), 1.0, 1.0)
    assert str(exc.value) == str(want.value)
    with pytest.raises(ZeroTime):
        evolve_by_convolution(u0, 0.0, origin)
    with pytest.raises(ValueError, match="dimension mismatch"):
        evolve_by_convolution(u0, 1.0,
                              [GroupPoint(np.zeros(2), np.zeros(2), 0.0)])
    with pytest.raises(TypeError):
        # the tolerance is keyword-only
        evolve_by_convolution(u0, 1.0, origin, 1e-8)


_THREADS_SCRIPT = """
import hashlib, math, numpy as np
from hlab.experiments import _ball_grid
from hlab.fourier import bump_profile
from hlab.group import GroupPoint
from hlab.quadrature import radial_ball_rule
from hlab.solutions import evolve_by_convolution
t = 4.0                                     # dispersion --fast, first time
rho, s, _ = radial_ball_rule(1.0 * math.sqrt(t), 1, *_ball_grid(True))
points = [GroupPoint(np.array([math.sqrt(r)]), np.zeros(1), float(v))
          for r, v in zip(rho, s)]
conv = evolve_by_convolution(bump_profile(1.0), t, points, tol=1e-8)
vals, err = conv.values, conv.err
print(hashlib.sha256(vals.tobytes() + np.float64(err).tobytes()).hexdigest())
"""


_LINE_THREADS_SCRIPT = """
import hashlib, numpy as np
from hlab.solutions import LineData
out = b""
for profile in ("hat", "bump"):
    data = LineData(profile=profile)
    # hyperplane_decay_exponent's farthest window at t = 1.7
    local = 4096.0 * np.linspace(0.82, 1.22, 161)
    vals, floor = data.value_with_floor(
        1.7, np.zeros_like(local), data.concentration_point(1.7) + local)
    out += vals.tobytes() + floor.tobytes()
    # a batch of distinct rho, as the transport rows pass it
    rng = np.random.default_rng(5)
    vals, floor = data.value_with_floor(0.0, rng.uniform(0.0, 3.0, 20),
                                        rng.uniform(-8.0, 8.0, 20) + 6.8)
    out += vals.tobytes() + floor.tobytes()
print(hashlib.sha256(out).hexdigest())
"""


def _digests_under_blas_threads(script):
    """stdout of script run under the default BLAS threads and under one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(solutions.__file__))]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    digests = []
    for threads in (None, "1"):
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            if threads is None:
                env.pop(key, None)
            else:
                env[key] = threads
        proc = subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True,
                              check=True)
        digests.append(proc.stdout)
    return digests


def test_convolution_bits_do_not_depend_on_blas_threads():
    # the source sum is a real BLAS product; on the bump's table, whose
    # edge column is zero, it rounds the same with one thread or many
    digests = _digests_under_blas_threads(_THREADS_SCRIPT)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


def test_line_data_bits_do_not_depend_on_blas_threads():
    # value_with_floor sums by einsum only, no BLAS product
    digests = _digests_under_blas_threads(_LINE_THREADS_SCRIPT)
    assert len(digests[0]) == 65 and digests[0] == digests[1]
