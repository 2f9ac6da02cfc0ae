"""Quadrature layer: adaptive 1-D rules, fixed rules, tensor grids,
gauge-ball norms."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from hlab import kernels
from hlab.fourier import bump_profile
from hlab.quadrature import (_EPS, _W7_ON_15, _W15, _X15, EnvelopeError,
                             GridSpec, Integrand1D, QuadratureError,
                             QuadratureNonConvergence, _gk_panels, _leggauss,
                             gauss_panels, grid_nodes_weights,
                             integrate_adaptive, integrate_exponential_tail,
                             radial_ball_norms, radial_ball_rule)


def test_panel_rule_is_exact_on_constants():
    val, err = integrate_adaptive(lambda x: np.ones_like(x), -3.0, 5.0, 1e-12)
    assert val == pytest.approx(8.0, rel=1e-14)
    assert err < 1e-12


def test_polynomial_and_oscillatory_integrals():
    val, _ = integrate_adaptive(lambda x: x ** 2, 0.0, 1.0, 1e-13)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-13)
    val, _ = integrate_adaptive(np.sin, 0.0, 2.0 * np.pi, 1e-13)
    assert val == pytest.approx(0.0, abs=1e-12)
    # moderately oscillatory against a scipy reference
    ref, _ = sci_integrate.quad(lambda x: math.cos(37.0 * x) * math.exp(-x),
                                0.0, 4.0, limit=400)
    val, err = integrate_adaptive(
        lambda x: np.cos(37.0 * x) * np.exp(-x), 0.0, 4.0, 1e-11)
    assert val == pytest.approx(ref, abs=5e-11)
    assert abs(val - ref) <= max(err, 5e-12)


def test_error_estimate_is_honest_on_a_steep_bump():
    f = lambda x: np.exp(-400.0 * (x - 0.3) ** 2)
    ref = math.sqrt(math.pi / 400.0)
    val, err = integrate_adaptive(f, -1.0, 1.0, 1e-12)
    assert abs(val - ref) <= 10.0 * max(err, 1e-15)


def test_complex_integrand_supported():
    val, _ = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, np.pi, 1e-12)
    assert val == pytest.approx(2j, abs=1e-12)


def test_breakpoints_put_panel_edges_on_kinks():
    val, err = integrate_adaptive(lambda x: np.abs(x), -1.0, 2.0, 1e-13,
                                  breakpoints=(0.0,))
    assert val == pytest.approx(2.5, rel=1e-14)
    assert err < 1e-13


def test_panel_budget_exhaustion_raises_with_payload():
    with pytest.raises(QuadratureNonConvergence) as exc:
        integrate_adaptive(lambda x: np.abs(x - np.sqrt(2) / 2) ** 0.1,
                           0.0, 1.0, 1e-12, max_panels=8)
    assert str(exc.value).startswith("panel budget 8 exhausted")
    assert exc.value.value is not None
    assert exc.value.err > 0.0


def test_exponential_tail_integral():
    for a in (0.0, 1.0, 7.5):
        integrand = Integrand1D(
            lambda tau, a=a: np.exp(-np.abs(tau)) * np.cos(a * tau),
            envelope_rate=1.0)
        val, err, t_cut = integrate_exponential_tail(integrand, 1e-11)
        assert val == pytest.approx(2.0 / (1.0 + a * a), abs=5e-11)
        assert t_cut > 10.0
        assert abs(val - 2.0 / (1.0 + a * a)) <= 10.0 * err


def test_exponential_tail_needs_a_rate():
    with pytest.raises(EnvelopeError):
        integrate_exponential_tail(Integrand1D(np.exp), 1e-8)
    with pytest.raises(ValueError):
        integrate_exponential_tail(
            Integrand1D(np.exp, envelope_rate=1.0), -1.0)


def test_exponential_tail_probe_where_the_integrand_underflows():
    # at tau = 16 the probe pairs f = 0 (underflowed) with exp(960) = inf
    integrand = Integrand1D(lambda tau: np.exp(-60.0 * np.abs(tau)), 60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err, _ = integrate_exponential_tail(integrand, 1e-12)
    assert abs(val - 1.0 / 30.0) <= err <= 1e-12
    nowhere = Integrand1D(lambda tau: np.full(np.shape(tau), np.nan), 1.0)
    with pytest.raises(QuadratureError):
        integrate_exponential_tail(nowhere, 1e-8)


def _members():
    """Integrals for the lockstep engine: (f, a, b, tol, max_panel_width),
    with f taking one panel per row of a (rows, 15) array.  All share the
    breakpoint 0 and a budget of 100 panels."""
    z = complex(0.0, -1.0)
    edge = np.sqrt(2) / 2

    def unitary(x):
        # the unitary kernel's integrand at (t, rho, s) = (1, 0.25, 2)
        return kernels._integrand_values(
            1, z, np.full(x.shape, 0.25), np.full(x.shape, 2.0), x)

    return {
        "first panel": (lambda x: x * x, 0.0, 1.0, 1e-13, None),
        "capped": (lambda x: np.abs(x) * np.cos(15.0 * x), -1.0, 2.0, 1e-12,
                   0.4),
        "complex": (lambda x: np.exp(7j * x) / (1.0 + x * x), 0.0, 3.0,
                    1e-12, None),
        "unitary": (unitary, -4.8, 4.8, 1e-10, 1.5),
        # out of panels after 99 splits
        "budget": (lambda x: np.cos(400.0 * x), 0.0, 1.0, 1e-12, None),
        # panel width underflow at the pole after 50 splits
        "pole": (lambda x: 1.0 / np.abs(x - 0.123456789), 0.0, 1.0, 1e-8,
                 None),
        # its round-off floor 50 eps resabs, 1.9e-14, is over its tol
        "floor": (np.exp, 0.0, 1.0, 1e-15, None),
        # exact on any panel, but width 0.005 cuts it into 200 panels
        "first cut": (lambda x: x * x, 0.0, 1.0, 1e-13, 0.005),
    }


def _lone(spec):
    """integrate_adaptive on one integral: its result (or the exception it
    raised) and the number of panels it evaluated."""
    f, a, b, tol, width = spec
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x[None, :])[0]

    try:
        out = integrate_adaptive(g, a, b, tol, max_panels=100,
                                 max_panel_width=width, breakpoints=(0.0,))
    except QuadratureNonConvergence as exc:
        out = exc
    return out, calls[0]


def _batch(specs):
    """The same integrals as one lockstep batch, and the panels each
    member evaluated."""
    rows = [0] * len(specs)

    def f(x, member):
        out = np.empty(x.shape, dtype=complex)
        for m in np.unique(member):
            sel = member == m
            out[sel] = specs[m][0](x[sel])
            rows[m] += int(np.count_nonzero(sel))
        return out

    _, a, b, tol, width = (list(col) for col in zip(*specs))
    try:
        out = integrate_adaptive(f, a, b, tol, max_panels=100,
                                 max_panel_width=width, breakpoints=(0.0,),
                                 members=len(specs))
    except QuadratureNonConvergence as exc:
        out = exc
    return out, rows


def _bits(*values):
    return np.array(values, dtype=complex).tobytes()


def test_lockstep_batch_members_keep_their_lone_bits():
    names = ["first panel", "capped", "complex", "unitary"]
    specs = [_members()[n] for n in names]
    (values, errs), rows = _batch(specs)
    for m, spec in enumerate(specs):
        (value, err), panels = _lone(spec)
        assert _bits(values[m], errs[m]) == _bits(value, err), names[m]
        assert rows[m] == panels, names[m]
    assert rows[0] == 1             # x^2 is exact on its one first panel
    assert rows[1] > 8              # 8 capped panels, then splits
    assert abs(values[2]) > 0.1 and abs(values[2].imag) > 0.01


def test_lockstep_batch_raises_its_lowest_failing_member():
    # two members fail; the later one (the pole) fails in an earlier
    # round, but the batch raises the lower-indexed one's error, as a loop
    # over the members would, with its lone payload
    members = _members()
    specs = [members[n] for n in ("capped", "complex", "budget",
                                  "first panel", "pole")]
    exc, rows = _batch(specs)
    assert isinstance(exc, QuadratureNonConvergence)
    assert exc.member == 2
    lone, panels = _lone(specs[2])
    assert isinstance(lone, QuadratureNonConvergence)
    assert lone.member == 0
    assert str(exc) == str(lone)
    assert _bits(exc.value, exc.err) == _bits(lone.value, lone.err)
    assert rows[2] == panels
    pole, _ = _lone(specs[4])
    assert "underflow" in str(pole) and "budget" in str(exc)
    assert rows[4] < panels


def test_a_first_cut_over_the_budget_fails_before_any_panel():
    # 200 first panels against the budget of 100: the member fails before
    # any panel is evaluated, alone or in a batch, and the batch still
    # raises its lowest failing member
    members = _members()
    lone, panels = _lone(members["first cut"])
    assert isinstance(lone, QuadratureNonConvergence)
    assert panels == 0 and lone.member == 0
    assert str(lone).startswith("panel budget 100 exhausted by the first cut")
    specs = [members[n] for n in ("capped", "first cut", "budget")]
    exc, rows = _batch(specs)
    assert exc.member == 1 and str(exc) == str(lone)
    assert rows == [_lone(specs[0])[1], 0, 0]   # past member 1: moot
    exc, _ = _batch([members["budget"], members["first cut"]])
    assert exc.member == 0
    assert str(exc) == str(_lone(members["budget"])[0])


def test_a_member_over_its_round_off_floor_stops_at_once():
    # 50 eps resabs of exp on [0, 1] is 1.9e-14, over the target
    # max(1e-15, 1e-15 |value|) = 1.7e-15, and no split lowers it: the
    # member stops after its first panel, not after its 100
    members = _members()
    lone, panels = _lone(members["floor"])
    assert isinstance(lone, QuadratureNonConvergence)
    assert panels == 1
    floor, tol = (float(v) for v in re.fullmatch(
        r"round-off floor (\S+) above tolerance (\S+)", str(lone)).groups())
    assert floor > tol >= 1e-15 and lone.err > tol
    # in a batch it stops as early; the member before it runs on, the
    # one past it is moot after its first panels
    specs = [members[n] for n in ("complex", "floor", "capped")]
    exc, rows = _batch(specs)
    assert exc.member == 1 and str(exc) == str(lone)
    assert _bits(exc.value, exc.err) == _bits(lone.value, lone.err)
    assert rows[:2] == [_lone(specs[0])[1], 1]
    assert rows[2] < _lone(specs[2])[1]
    # a node on a pole makes the floor infinite, which is no round-off:
    # that member runs on to its width underflow
    with np.errstate(divide="ignore"):
        pole, _ = _lone((lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0, 1e-8,
                         None))
    assert str(pole).startswith("panel width underflow")


def _gk_panel_reference(y, h):
    """(K15 value, error estimate) of one panel of half-width h from its
    15 node values y: the scalar formula the engine used per panel
    before _gk_panels summed every panel of a round at once."""
    resk = _W15 @ y
    resg = _W7_ON_15 @ y
    value = resk * h
    resabs = float(_W15 @ np.abs(y)) * abs(h)
    mean = resk * 0.5
    resasc = float(_W15 @ np.abs(y - mean)) * abs(h)
    err = abs(resk - resg) * abs(h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return value, err, resabs


def test_vectorized_panel_estimate_matches_the_scalar_formula():
    # The sums run in another order than the scalar formula's BLAS dot
    # products, so each may move by a few eps: values agree within
    # 2 eps resabs and floors within 8 eps relative (1.2 and 2.8 seen);
    # errors within 4 eps relative on noisy rows (2.2 seen), and within 4
    # floors on smooth rows (1.7 seen), where K15 - G7 cancels and the
    # 1.5 power of the error formula carries that change.
    rng = np.random.default_rng(11)
    n = 400
    scale = np.exp(rng.uniform(-30.0, 30.0, (n, 1)))
    noisy = (rng.standard_normal((n, 15))
             + 1j * rng.standard_normal((n, 15))) * scale
    rates = rng.uniform(-3.0, 3.0, (n, 1)) + 1j * rng.uniform(-12.0, 12.0,
                                                              (n, 1))
    smooth = np.exp(rates * _X15) * scale
    # a zero row (resasc = 0) and one where K15 and G7 agree exactly
    # (err = 0): two mirror K15-only nodes with opposite values
    special = np.zeros((2, 15), dtype=complex)
    special[1, 0], special[1, 14] = 1.0, -1.0
    y = np.concatenate([noisy, smooth, special])
    lo = rng.uniform(-3.0, 3.0, y.shape[0])
    hi = lo + 10.0 ** rng.uniform(-6.0, 1.0, y.shape[0])
    values, errs, floors = _gk_panels(lambda x, member: y,
                                      np.zeros(y.shape[0], dtype=int), lo, hi)
    for i, row in enumerate(y):
        value, err, resabs = _gk_panel_reference(row, 0.5 * (hi[i] - lo[i]))
        assert floors[i] == pytest.approx(50.0 * _EPS * resabs,
                                          rel=8.0 * _EPS, abs=0.0)
        assert abs(values[i] - value) <= 2.0 * _EPS * resabs
        if i < n:
            assert abs(errs[i] - err) <= 4.0 * _EPS * err
        else:
            assert abs(errs[i] - err) <= 4.0 * floors[i]
    assert values[-2] == 0.0 and errs[-2] == 0.0 and floors[-2] == 0.0
    assert values[-1] == 0.0 and errs[-1] == floors[-1] > 0.0
    assert errs[-1] == _gk_panel_reference(y[-1], 0.5 * (hi[-1] - lo[-1]))[1]
    # a row alone has the bits it has among the others
    for i in (0, 1, 7, n, y.shape[0] - 1):
        alone = _gk_panels(lambda x, member: y[i:i + 1], [0], lo[i:i + 1],
                           hi[i:i + 1])
        assert _bits(values[i], errs[i], floors[i]) == _bits(
            *(col[0] for col in alone))


def test_lockstep_batch_of_tail_integrals_keeps_lone_bits():
    rates = [1.0, 3.0, 0.5]
    ks = np.array([0.0, 4.0, 1.5])
    widths = [None, 2.0, 3.0]
    lone = [integrate_exponential_tail(Integrand1D(
        lambda tau, r=r, k=k: np.exp(-r * np.abs(tau)) * np.cos(k * tau), r),
        1e-11, max_panel_width=w) for r, k, w in zip(rates, ks, widths)]

    def f(tau, member):
        r = np.array(rates)[member][:, None]
        return np.exp(-r * np.abs(tau)) * np.cos(ks[member][:, None] * tau)

    values, errs, t_cut = integrate_exponential_tail(
        Integrand1D(f, rates, members=3), 1e-11, max_panel_width=widths)
    for m, (v, e, t) in enumerate(lone):
        assert _bits(values[m], errs[m], t_cut[m]) == _bits(v, e, t)
    with pytest.raises(EnvelopeError):
        integrate_exponential_tail(Integrand1D(f, [1.0, 0.0], members=2),
                                   1e-8)
    with pytest.raises(ValueError):
        integrate_adaptive(f, [0.0, 1.0], 2.0, 1e-8, members=3)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(((0.0, 0.0, 8),))
    with pytest.raises(ValueError):
        GridSpec(((0.0, 1.0, 1),))
    spec = GridSpec(((-1.0, 1.0, 5), (-1.0, 1.0, 5), (-2.0, 2.0, 9)))
    nodes, weights = grid_nodes_weights(spec)
    assert len(nodes) == 3 and len(weights) == 3
    assert weights[0].sum() == pytest.approx(2.0, rel=1e-13)
    assert weights[2].sum() == pytest.approx(4.0, rel=1e-13)


def test_gauss_panels_exact_to_degree_2n_minus_1():
    rng = np.random.default_rng(3)
    a, b = -1.3, 2.1
    for per_panel in (3, 8, 16):
        for n_panels in (1, 4, 7):
            x, w = gauss_panels(a, b, n_panels, per_panel)
            assert x.shape == w.shape == (n_panels * per_panel,)
            assert np.all(np.diff(x) > 0.0) and a < x[0] and x[-1] < b
            poly = np.polynomial.Polynomial(
                rng.uniform(-1.0, 1.0, 2 * per_panel))
            exact = poly.integ()(b) - poly.integ()(a)
            assert w @ poly(x) == pytest.approx(exact, rel=1e-12)
    # one degree higher is no longer exact on a single panel
    x, w = gauss_panels(-1.0, 1.0, 1, 3)
    assert abs(w @ x ** 6 - 2.0 / 7.0) > 1e-2


@pytest.mark.parametrize("n", [16, 24, 17])
def test_leggauss_is_numpys_rule_bit_for_bit(n):
    # 16 and 24 nodes come from literal tables, other sizes from numpy
    for got, want in zip(_leggauss(n), np.polynomial.legendre.leggauss(n)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _gauss(a, b, panels, n):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def test_ball_norms_radial_vs_general():
    # The bump in q = (rho^2 + s^2) / r0^4 on a ball that holds its
    # support: in polar coordinates (rho, s) = r (cos phi, sin phi) of
    # the half-disk, rho^(d-1) d(rho) ds = r^d cos^(d-1)(phi) dr d(phi),
    # so the exact norm is a 1-D integral,
    # (pi^d / (d-1)!) B(d/2, 1/2) int_0^{r0^2} r^d |f(r)|^p dr.
    for d in (1, 2):
        u0 = bump_profile(1.0, d)
        radius = 2.0 ** 0.25 * 1.0001
        rho, s, w = radial_ball_rule(radius, d, 257, 513)
        got = radial_ball_norms(u0.profile(rho, s), w, d,
                                (1.0, 2.0, 4.0, np.inf))
        r, wr = _gauss(0.0, 1.0, 8, 40)
        f = np.abs(u0.profile(r, np.zeros_like(r)))
        beta = math.gamma(d / 2.0) * math.gamma(0.5) / math.gamma(
            d / 2.0 + 0.5)
        const = math.pi ** d / math.factorial(d - 1) * beta
        for p, norm in zip((1.0, 2.0, 4.0), got):
            exact = (const * np.sum(wr * r ** d * f ** p)) ** (1.0 / p)
            assert norm == pytest.approx(exact, rel=1e-8), (d, p)
        # the peak sits at the origin, a node of the rule
        assert got[3] == 1.0


def test_ball_norm_rejects_bad_p_and_empty_balls():
    rho, s, w = radial_ball_rule(1.0, 1)
    with pytest.raises(ValueError):
        radial_ball_norms(rho, w, 1, (2.0, 0.5))
    with pytest.raises(QuadratureError):
        radial_ball_rule(0.0, 1)
