"""Flow kernels: strip quadrature, series route, constants, batching."""

import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from hlab import kernels
from hlab.kernels import (BudgetExhausted, KernelQuery, SingularPoint,
                          StripViolation, ZeroTime, _fixed_tau_rule,
                          dispersion_constant, dispersive_onset_time,
                          heat_kernel_gaveau, heat_kernel_series,
                          kernel_complex_time, restricted_kernel,
                          schrodinger_batch, schrodinger_kernel,
                          series_term_closed, series_term_quadrature)
from hlab.quadrature import (Integrand1D, QuadratureError,
                             QuadratureNonConvergence, along_rows,
                             gauss_panels, integrate_exponential_tail,
                             tail_cutoff)
from hlab.special import TruncationBudget, sinh_ratio_log

# Two-route values frozen from the series evaluation at tail tolerance 1e-11
# (the quadrature route reproduces them to ~1e-9 relative).
_HEAT_POINTS = [
    (1.0, 0.0, 0.0, 1.5625e-02),
    (0.5, 0.8, -0.6, 2.7363597521611e-02),
    (2.0, 3.0, 1.5, 1.9055712652688e-03),
]


def test_query_validation():
    with pytest.raises(ValueError):
        KernelQuery(d=0)
    with pytest.raises(ValueError):
        KernelQuery(rho=-0.1)
    with pytest.raises(ValueError):
        KernelQuery(tol=0.0)
    q = KernelQuery(t_or_z=1 - 2j)
    with pytest.raises(ValueError):
        q.t
    assert q.z == 1 - 2j
    assert KernelQuery(t_or_z=0.25).t == 0.25


def test_heat_kernel_two_routes_on_frozen_points():
    budget = TruncationBudget(max_terms=50000, tail_tolerance=1e-11)
    for t, rho, s, want in _HEAT_POINTS:
        q = KernelQuery(t_or_z=t, rho=rho, s=s, tol=1e-11)
        g = heat_kernel_gaveau(q)
        sr = heat_kernel_series(q, budget)
        assert abs(g.value.imag) < 1e-15
        assert g.value.real > 0.0
        assert g.value.real == pytest.approx(want, abs=5e-11)
        assert sr.value.real == pytest.approx(want, abs=5e-11)
        assert abs(g.value - sr.value) / abs(g.value) < 1e-8


def test_series_stops_within_1024_terms_on_frozen_points():
    budget = TruncationBudget(max_terms=50000, tail_tolerance=1e-11)
    for t, rho, s, _ in _HEAT_POINTS:
        sr = heat_kernel_series(KernelQuery(t_or_z=t, rho=rho, s=s), budget)
        assert sr.truncation_point <= 1024
        assert sr.quad_error <= 1e-11


def test_series_error_covers_its_round_off_floor():
    # the terms cancel here: sum |terms| is about 5e5 times |sum terms|
    t, rho, s = 0.5, 30.0, -10.0
    sr = heat_kernel_series(KernelQuery(t_or_z=t, rho=rho, s=s),
                            TruncationBudget(100000, 1e-12))
    terms = 2.0 * np.real(series_term_closed(
        1, t, rho, s, np.arange(int(sr.truncation_point))))
    assert np.sum(np.abs(terms)) > 1e5 * abs(np.sum(terms))
    assert sr.quad_error >= 1e-16 * np.sum(np.abs(terms)) / math.pi ** 2
    # at tol 1e-16 Gaveau's own error is as large as the series err; at
    # 1e-19 it is a reference well below it
    g = heat_kernel_gaveau(KernelQuery(t_or_z=t, rho=rho, s=s, tol=1e-19))
    assert g.quad_error < 0.5 * sr.quad_error
    assert abs(sr.value - g.value) <= sr.quad_error


def test_series_past_the_tail_start_guard():
    # rho / (4 t) = 300 > 256, so the tail starts at 512 terms.  The
    # kernel here (about 2.5e-132) lies far below the terms' round-off;
    # this checks the tail against a long direct sum of the same terms.
    t, rho, s = 0.1, 120.0, 3.0
    sr = heat_kernel_series(KernelQuery(t_or_z=t, rho=rho, s=s),
                            TruncationBudget(100000, 1e-12))
    assert sr.truncation_point == 512
    assert math.isfinite(sr.value.real) and sr.value.imag == 0.0
    terms = 2.0 * np.real(series_term_closed(1, t, rho, s, np.arange(1 << 18)))
    direct = math.fsum(terms) / math.pi ** 2
    assert abs(sr.value.real - direct) <= sr.quad_error
    # the value is all round-off, and the floor weighted by each term's
    # exponent says so; 1e-16 sum |terms| read 9.6e-20 against 3.6e-19
    assert sr.quad_error >= abs(sr.value)


def test_heat_kernel_where_the_integrand_underflows():
    # rate = 2 + rho / (2 t) puts exp(rate * 16) past the float range at
    # the tau = 16 envelope probe, where the integrand is already 0.
    # References: a 40-digit quadrature of the same integral.
    refs = {20.0: 1.1394441386487203728e-23,
            100.0: 1.3669837874666741925e-110}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in (20.0, 40.0, 60.0, 80.0, 100.0):
            g = heat_kernel_gaveau(KernelQuery(t_or_z=0.1, rho=rho, s=3.0))
            assert 0.0 < g.value.real < 1e-20
            if rho in refs:
                assert abs(g.value - refs[rho]) <= g.quad_error
        tight = heat_kernel_gaveau(
            KernelQuery(t_or_z=0.1, rho=20.0, s=3.0, tol=1e-30))
    assert tight.value.real == pytest.approx(refs[20.0], rel=1e-12)


def test_heat_kernel_origin_value():
    # integral of the sinh ratio is pi^2 / 4, so the origin value at t = 1
    # is (4 pi)^(-2) pi^2 / 4 = 1/64
    q = KernelQuery(t_or_z=1.0, tol=1e-12)
    assert heat_kernel_gaveau(q).value.real == pytest.approx(1 / 64, rel=1e-9)


def test_heat_kernel_parabolic_scaling():
    for t, rho, s in ((0.3, 0.7, 0.4), (2.5, 1.3, -2.0)):
        a = heat_kernel_gaveau(
            KernelQuery(t_or_z=t, rho=rho, s=s, tol=1e-12)).value
        b = heat_kernel_gaveau(
            KernelQuery(t_or_z=1.0, rho=rho / t, s=s / t, tol=1e-12)).value
        assert a == pytest.approx(b / t ** 2, rel=1e-8)


def test_heat_kernel_rejects_bad_time():
    with pytest.raises(ValueError):
        heat_kernel_gaveau(KernelQuery(t_or_z=0.0))
    with pytest.raises(ValueError):
        heat_kernel_gaveau(KernelQuery(t_or_z=-1.0))


def test_unitary_kernel_origin_and_symmetries():
    v = schrodinger_kernel(KernelQuery(t_or_z=1.0, tol=1e-12)).value
    # prefactor (4 pi (-i))^(-2) turns the positive tau integral negative
    assert v == pytest.approx(-1 / 64, rel=1e-9)
    q = KernelQuery(t_or_z=0.9, rho=0.8, s=1.1, tol=1e-11)
    qm = KernelQuery(t_or_z=-0.9, rho=0.8, s=1.1, tol=1e-11)
    a = schrodinger_kernel(q).value
    b = schrodinger_kernel(qm).value
    assert b == pytest.approx(np.conj(a), rel=1e-9)
    # parabolic scaling inside the strip
    t = 2.5
    big = schrodinger_kernel(
        KernelQuery(t_or_z=t, rho=1.3, s=6.0, tol=1e-12)).value
    one = schrodinger_kernel(
        KernelQuery(t_or_z=1.0, rho=1.3 / t, s=6.0 / t, tol=1e-12)).value
    assert big == pytest.approx(one / t ** 2, rel=1e-7)


def test_unitary_kernel_strip_boundary():
    with pytest.raises(ZeroTime):
        schrodinger_kernel(KernelQuery(t_or_z=0.0))
    with pytest.raises(StripViolation):
        schrodinger_kernel(KernelQuery(t_or_z=1.0, s=4.0))
    with pytest.raises(StripViolation):
        schrodinger_kernel(KernelQuery(t_or_z=0.5, s=-2.1))
    # just inside is fine
    schrodinger_kernel(KernelQuery(t_or_z=0.5, s=1.9, tol=1e-6))


def test_dispersion_constants_frozen():
    assert dispersion_constant(0.0) == pytest.approx(1 / 64, rel=1e-10)
    frozen = {
        0.6: 0.0183768573445,
        1.0: 0.0258425303238,
        1.4: 0.0524635565552,
        1.8: 0.355403009056,
    }
    prev = 0.0
    for kappa, want in frozen.items():
        got = dispersion_constant(kappa)
        assert got == pytest.approx(want, rel=1e-9)
        assert got > prev
        prev = got
    assert dispersion_constant(1.0, signed=True) == pytest.approx(
        0.0183058261754, rel=1e-9)


def test_signed_constant_never_exceeds_unsigned():
    for kappa in (0.0, 0.7, 1.3, 1.7):
        assert (dispersion_constant(kappa, signed=True)
                <= dispersion_constant(kappa) * (1 + 1e-12))
    with pytest.raises(ValueError):
        dispersion_constant(2.0)
    with pytest.raises(ValueError):
        dispersion_constant(-0.5)


def test_sup_bound_on_the_strip():
    kappa = 1.2
    m = dispersion_constant(kappa)
    rng = np.random.default_rng(17)
    for t in (0.5, 1.0, 3.0):
        for _ in range(5):
            rho = rng.uniform(0.0, 5.0)
            s = rng.uniform(-1.0, 1.0) * kappa ** 2 * t
            v = schrodinger_kernel(
                KernelQuery(t_or_z=t, rho=rho, s=s, tol=1e-10)).value
            assert t ** 2 * abs(v) <= m * (1 + 1e-6)


def test_onset_time_closed_form():
    assert dispersive_onset_time(0.0, 1.0) == pytest.approx(0.25)
    assert dispersive_onset_time(1.2, 2.0) == pytest.approx((2.0 / 0.8) ** 2)
    with pytest.raises(ValueError):
        dispersive_onset_time(2.0, 1.0)
    with pytest.raises(ValueError):
        dispersive_onset_time(-0.1, 1.0)


def test_complex_time_interpolates_the_flows():
    # real z reproduces the heat kernel
    q = KernelQuery(t_or_z=0.7 + 0j, rho=0.4, s=0.2, tol=1e-11)
    a = kernel_complex_time(q).value
    b = heat_kernel_gaveau(KernelQuery(t_or_z=0.7, rho=0.4, s=0.2,
                                       tol=1e-11)).value
    assert a == pytest.approx(b, rel=1e-9)
    # approach to the imaginary axis converges at first order in Re z
    ref = schrodinger_kernel(
        KernelQuery(t_or_z=1.0, rho=0.5, s=0.8, tol=1e-11)).value
    errs = []
    for eps in (0.1, 0.01, 0.001):
        qc = KernelQuery(t_or_z=complex(eps, -1.0), rho=0.5, s=0.8, tol=1e-11)
        errs.append(abs(kernel_complex_time(qc).value - ref))
    assert errs[1] / errs[0] < 0.2
    assert errs[2] / errs[1] < 0.2


def test_complex_time_domain_checks():
    with pytest.raises(ZeroTime):
        kernel_complex_time(KernelQuery(t_or_z=0j))
    with pytest.raises(ValueError):
        kernel_complex_time(KernelQuery(t_or_z=-0.1 + 1j))
    # the strip is _strip_rate's alone: no margin parameter, its message
    with pytest.raises(TypeError):
        kernel_complex_time(KernelQuery(t_or_z=1j), eps=0.05)
    with pytest.raises(StripViolation) as got:
        kernel_complex_time(KernelQuery(t_or_z=1j, s=4.0))
    with pytest.raises(StripViolation) as want:
        kernels._strip_rate(1, 1j, 0.0, 4.0)
    assert str(got.value) == str(want.value)
    # just inside the edge the cut-off grows like 1 / rate until the
    # panel budget runs out
    with pytest.raises(QuadratureNonConvergence):
        kernel_complex_time(KernelQuery(t_or_z=1j, s=3.999999))


def test_restricted_kernel_reduces_to_unitary_at_zero():
    q = KernelQuery(t_or_z=0.9, rho=0.7, s=1.1, tol=1e-9)
    a = restricted_kernel(0, q)
    b = schrodinger_kernel(q)
    assert a.value == b.value
    assert a.truncation_point == b.truncation_point


def test_restricted_kernel_widens_the_strip():
    # the series has no strip: off the ell = 0 strip |s| < 4 d |t| the
    # restricted kernels are finite wherever rho > 0, past 4 (2 ell + d)|t|
    # too
    for d, ell in ((1, 1), (1, 2), (2, 1)):
        for s in (9.0, -13.0, 37.0):
            q = KernelQuery(d=d, t_or_z=1.0, rho=0.5, s=s, tol=1e-8)
            if abs(s) >= 4.0 * d:
                with pytest.raises(StripViolation):
                    schrodinger_kernel(q)
            v = restricted_kernel(ell, q)
            assert np.isfinite(v.value) and 0.0 < abs(v.value) < 1.0
            assert v.quad_error <= 1e-8
    # rho = 0, s = 12 = 4 t (2 ell + d) at ell = 1: a quantized height
    with pytest.raises(SingularPoint) as got:
        restricted_kernel(1, KernelQuery(t_or_z=1.0, s=12.0))
    assert str(got.value) == (
        "rho = 0, |s| = 12 is the quantized height 4|t|(2 ell + d) at "
        "ell = 1, where the kernel is infinite")
    with pytest.raises(SingularPoint):
        restricted_kernel(1, KernelQuery(t_or_z=-0.5, s=-10.0))   # ell' = 2
    with pytest.raises(SingularPoint):          # p = 0 at -s, ell = 1
        series_term_closed(1, complex(0.0, -1.0), 0.0, -12.0, [0, 1, 2])
    # below the tail's first level the height is no singularity
    assert np.isfinite(restricted_kernel(
        2, KernelQuery(t_or_z=1.0, s=12.0)).value)
    with pytest.raises(ValueError):
        restricted_kernel(-1, KernelQuery(t_or_z=1.0))
    with pytest.raises(ZeroTime):
        restricted_kernel(1, KernelQuery(t_or_z=0.0))


def test_restricted_kernel_near_a_height_exhausts_its_budget():
    # Next to the height s = 12 one term of size 1 / (s - 12)^2 dominates;
    # its round-off, not the tail, then decides whether tol can be met.
    # 1e-3 away it can, and err covers a 30-digit sum of the series;
    # 1e-5 away the floor alone is above tol 1e-8.
    q = KernelQuery(t_or_z=1.0, rho=0.0, s=12.001)
    v = restricted_kernel(1, q)
    assert abs(v.value + 101321.18687229939) <= v.quad_error <= 1e-8
    with pytest.raises(BudgetExhausted) as exc:
        restricted_kernel(1, KernelQuery(t_or_z=1.0, rho=0.0, s=12.00001))
    got = exc.value
    assert str(got).startswith("round-off floor")
    assert got.err > 1e-8 and got.terms == 256
    assert abs(got.value) > 1e9


# The tau route's restricted kernel at tol 1e-13 (its stated errors
# 5.1e-14 to 7.2e-14), before the series replaced it.  A 30-digit sum
# of the series meets the series within 2e-16 at all four points; the
# tau route misses the third by 3.6e-13, near its strip edge 16.
_TAU_ROUTE_RESTRICTED = [
    (1, 1, 1.0, 0.5, 8.0, -0.007085119916629478 + 0.005089120287314697j),
    (1, 2, 2.0, 0.25, -30.0, -0.001421414607102452 + 0.0002930042994004979j),
    (2, 1, 1.0, 0.7, -14.0, -0.0292599036033924 + 0.011216430133084414j),
    (2, 2, 0.5, 1.5, 9.0, 0.00674256849836253 + 0.014700356770092042j),
]


def test_restricted_kernel_matches_the_tau_route_off_the_strip():
    for d, ell, t, rho, s, want in _TAU_ROUTE_RESTRICTED:
        got = restricted_kernel(ell, KernelQuery(d=d, t_or_z=t, rho=rho,
                                                 s=s, tol=1e-13))
        assert abs(got.value - want) <= 1e-12, (d, ell, t, rho, s)
        assert got.quad_error <= 1e-13


@pytest.mark.parametrize("d", [1, 2])
def test_restricted_kernel_is_the_series_tail_inside_the_strip(d):
    # S_t = the first ell terms J(p+) + J(p-), each by quadrature at
    # z = -it, plus the restricted kernel from ell
    const = 2.0 ** (d - 1) / math.pi ** (d + 1)
    for t, rho, s in ((2.0, 1.3, -5.0), (0.7, 2.0, 2.0), (1.5, 3.0, -4.5)):
        z = complex(0.0, -t)
        plain = schrodinger_kernel(
            KernelQuery(d=d, t_or_z=t, rho=rho, s=s, tol=1e-13)).value
        for ell in (1, 2):
            head = sum(series_term_quadrature(d, z, rho, sign * s, k,
                                              tol=1e-12)
                       for k in range(ell) for sign in (1.0, -1.0))
            tail = restricted_kernel(ell, KernelQuery(d=d, t_or_z=t, rho=rho,
                                                      s=s, tol=1e-13)).value
            assert abs(const * head + tail - plain) <= 1e-13, (t, rho, s, ell)


def _triples(values):
    return np.array([(v.value, v.quad_error, v.truncation_point)
                     for v in values]).tobytes()


def test_kernel_batches_keep_lone_bits():
    # a batch of queries at one time is one lockstep quadrature; each
    # member must carry its lone call's value, error and cut-off bits
    heat = [KernelQuery(t_or_z=0.5, rho=r, s=s, tol=1e-13)
            for r in (0.0, 1.0, 4.0) for s in (-4.0, 0.0, 2.5)]
    got = heat_kernel_gaveau(heat)
    assert isinstance(got, list) and len(got) == len(heat)
    assert _triples(got) == _triples([heat_kernel_gaveau(q) for q in heat])
    unit = [KernelQuery(t_or_z=1.0, rho=r, s=s, tol=1e-11)
            for r, s in ((0.3, -2.9), (1.7, 0.4), (0.9, 2.2))]
    assert _triples(schrodinger_kernel(unit)) == _triples(
        [schrodinger_kernel(q) for q in unit])
    near = [KernelQuery(t_or_z=complex(1e-3, -1.0), rho=q.rho, s=q.s,
                        tol=1e-11) for q in unit]
    assert _triples(kernel_complex_time(near)) == _triples(
        [kernel_complex_time(q) for q in near])
    # the restricted kernel, inside and outside the ell = 0 strip
    for ell in (1, 2):
        restr = [KernelQuery(t_or_z=2.0, rho=0.25, s=s, tol=1e-10)
                 for s in (0.0, 4.0, 4.0 * (ell + 1) + 4.0)]
        assert _triples(restricted_kernel(ell, restr)) == _triples(
            [restricted_kernel(ell, q) for q in restr])


def test_series_batches_keep_lone_bits():
    # the series of a batch runs in lockstep on (query, level) grids; each
    # member must carry its lone call's value, error and term count
    heat = [KernelQuery(t_or_z=0.25, rho=r, s=s)
            for r, s in ((0.0, 0.0), (300.0, 1.0), (1.0, -2.0), (3.0, 4.0))]
    budgets = [TruncationBudget(100000, tol)
               for tol in (1e-12, 1e-12, 1e-14, 1e-13)]
    got = heat_kernel_series(heat, budgets)
    assert isinstance(got, list) and len(got) == len(heat)
    # rho / (4 t) = 300 > 256 puts that query's head at 512 terms or more
    assert got[1].truncation_point >= 512 > got[0].truncation_point
    assert _triples(got) == _triples(
        [heat_kernel_series(q, b) for q, b in zip(heat, budgets)])
    assert _triples([heat_kernel_series(heat[2])]) == _triples(
        heat_kernel_series([heat[2]]))
    assert _triples(heat_kernel_series(heat[1:], TruncationBudget())) == (
        _triples([heat_kernel_series(q) for q in heat[1:]]))
    # at z = -it both signs of s count, and |s| / (8 t) sets the head
    for d in (1, 2):
        restr = [KernelQuery(d=d, t_or_z=0.5, rho=r, s=s, tol=tol)
                 for r, s, tol in ((2.0, 1100.0, 1e-9), (0.0, 3.0, 1e-10),
                                   (1.5, -7.5, 1e-12), (2.0, 0.0, 1e-11))]
        vals = restricted_kernel(1, restr)
        assert vals[0].truncation_point >= 1024
        assert _triples(vals) == _triples(
            [restricted_kernel(1, q) for q in restr])


def test_series_batch_raises_its_lowest_failing_query():
    # the middle query runs out of terms, the last one hits its round-off
    # floor; the batch raises the middle one's error, as a loop would
    qs = [KernelQuery(t_or_z=0.5, rho=r, s=s)
          for r, s in ((0.8, -0.6), (0.8, -0.6), (30.0, -10.0))]
    budgets = [TruncationBudget(100000, 1e-12), TruncationBudget(32, 1e-15),
               TruncationBudget(100000, 1e-18)]
    lone = []
    for q, b in zip(qs, budgets):
        try:
            lone.append(heat_kernel_series(q, b))
        except BudgetExhausted as exc:
            lone.append(exc)
    assert isinstance(lone[0], kernels.KernelValue)
    assert str(lone[1]).startswith("tail error")
    assert str(lone[2]).startswith("round-off floor")
    with pytest.raises(BudgetExhausted) as got:
        heat_kernel_series(qs, budgets)
    assert str(got.value) == str(lone[1])
    assert (got.value.value, got.value.err, got.value.terms) == (
        lone[1].value, lone[1].err, lone[1].terms)
    with pytest.raises(ValueError):
        heat_kernel_series(qs, budgets[:2])


def test_kernel_batches_share_one_time():
    with pytest.raises(ValueError):
        heat_kernel_gaveau([KernelQuery(t_or_z=1.0),
                            KernelQuery(t_or_z=2.0)])
    with pytest.raises(ValueError):
        schrodinger_kernel([KernelQuery(d=1), KernelQuery(d=2)])
    with pytest.raises(ValueError):
        restricted_kernel(1, [])
    # one query outside the strip refuses the whole batch
    with pytest.raises(StripViolation):
        schrodinger_kernel([KernelQuery(t_or_z=1.0, s=1.0),
                            KernelQuery(t_or_z=1.0, s=4.5)])


def test_dispersion_constants_batch_over_kappa():
    kappas = [0.0, 0.9, 1.5, math.sqrt(3.99)]
    for signed in (False, True):
        got = dispersion_constant(kappas, signed=signed)
        assert got == [dispersion_constant(k, signed=signed)
                       for k in kappas]
    with pytest.raises(ValueError):
        dispersion_constant([1.0, 2.0])


def _m_kappa_by_quadrature(kappas, d, signed):
    """The constants by the tau integral itself, in logs, to an absolute
    tol 1e-10 widened by 2 / rate near the endpoint: the cross-check
    route of the level sum."""
    k2 = np.array([0.5 * k * k for k in kappas])
    rates = [2.0 * d - k for k in k2]

    def f(tau, member):
        a = np.abs(tau)
        lr = sinh_ratio_log(a, d)
        ka = along_rows(k2, member, a) * a
        if signed:
            return 0.5 * (np.exp(lr + ka) + np.exp(lr - ka))
        return np.exp(lr + ka)

    val, _, _ = integrate_exponential_tail(
        Integrand1D(f, rates, members=len(kappas)),
        [1e-10 * max(1.0, 2.0 / r) for r in rates])
    return [float(np.real(v)) / (4.0 * math.pi) ** (d + 1) for v in val]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dispersion_constant_level_sum_matches_the_tau_integral(d):
    # mkappa's kappas; at d = 2 and 3 the quadrature runs out of panels
    # past kappa^2 / 4d = 0.81
    top = math.sqrt(4.0 * d)
    kappas = [0.0, 0.3 * top, 0.5 * top, 0.7 * top, 0.9 * top,
              math.sqrt(4.0 * d - 0.1), math.sqrt(4.0 * d - 0.01)]
    if d > 1:
        kappas = kappas[:5]
    for signed in (False, True):
        got = dispersion_constant(kappas, d, signed=signed)
        assert all(type(v) is float for v in got)
        want = _m_kappa_by_quadrature(kappas, d, signed)
        for k, g, w in zip(kappas, got, want):
            assert abs(g - w) <= 5e-11 * w, (d, k, signed, g, w)


def test_dispersion_constant_head_length_is_converged():
    # 256 levels plus the tail against 4096 plus the tail, up to d = 12
    # and at mkappa's endpoint kappa^2 = 4d - 0.01
    def level_sum(d, b, n):
        def terms(ell):
            mult = np.prod([(ell + j) / j for j in range(1, d)], axis=0)
            return mult * (ell + b) ** (-(d + 1.0))
        return kernels._series_estimate(terms(np.arange(n * 1.0)), n,
                                        terms(kernels._tail_levels(n)))

    for d in range(1, 13):
        const = math.factorial(d) / (2.0 * (4.0 * math.pi) ** (d + 1))
        for frac in (0.0, 0.5, 0.9, 1.0 - 0.0025 / d):
            kappa = math.sqrt(frac * 4.0 * d)
            plus = (4.0 * d + kappa * kappa) / 8.0
            minus = (4.0 * d - kappa * kappa) / 8.0
            ref = const * level_sum(d, minus, 4096)
            ref_signed = 0.5 * (ref + const * level_sum(d, plus, 4096))
            assert abs(dispersion_constant(kappa, d) - ref) <= 1e-12 * ref
            assert abs(dispersion_constant(kappa, d, signed=True)
                       - ref_signed) <= 1e-12 * ref_signed


_THREADS_SCRIPT = """
import hashlib, numpy as np
from hlab.kernels import KernelQuery, heat_kernel_gaveau, restricted_kernel
out = []
for t in (0.5, 1.0):                        # the heat-equiv --fast grid
    out += heat_kernel_gaveau([
        KernelQuery(t_or_z=t, rho=float(r), s=float(s), tol=1e-13)
        for r in np.linspace(0.0, 4.0, 3) for s in np.linspace(-4.0, 4.0, 3)])
for ell in (1, 2):                          # restricted-sweep's strips
    out += restricted_kernel(ell, [
        KernelQuery(t_or_z=4.0, rho=0.25, s=4.0 * r, tol=1e-10)
        for r in (0.0, 2.0, 4.0 * (ell + 1) + 2.0)])
data = np.array([(v.value, v.quad_error, v.truncation_point) for v in out])
print(hashlib.sha256(data.tobytes()).hexdigest())
"""


def test_kernel_batch_bits_do_not_depend_on_blas_threads():
    # the panel sums are fixed-order einsums over the 15 nodes, and the
    # series sums elementwise products; neither may depend on the threads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(kernels.__file__))]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    digests = []
    for threads in (None, "1"):
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            if threads is None:
                env.pop(key, None)
            else:
                env[key] = threads
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        digests.append(proc.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


def test_series_terms_closed_vs_quadrature():
    t, rho, s = 0.3, 1.1, 0.7
    for ell in (0, 1, 2, 7, 20):
        closed = series_term_closed(1, t, rho, s, ell)
        quad = series_term_quadrature(1, t, rho, s, ell, tol=1e-13)
        assert closed == pytest.approx(quad, rel=1e-9, abs=1e-14)
    # vectorized layout matches scalar calls
    ells = np.arange(5)
    vec = series_term_closed(1, t, rho, s, ells)
    for ell in ells:
        assert vec[ell] == series_term_closed(1, t, rho, s, int(ell))
    # with rho = 0 the Laguerre factor is 1 and the term is Gamma(2)/p^2
    p = 4.0 * 0.3 * (2 * 3 + 1) + 0.0 - 1j * 0.7
    assert series_term_closed(1, 0.3, 0.0, 0.7, 3) == pytest.approx(p ** -2)


def test_series_budget_exhaustion_carries_partial_sum():
    q = KernelQuery(t_or_z=0.5, rho=0.8, s=-0.6, tol=1e-11)
    tight = TruncationBudget(max_terms=32, tail_tolerance=1e-15)
    with pytest.raises(BudgetExhausted) as exc:
        heat_kernel_series(q, tight)
    got = exc.value
    assert got.terms == 32
    want = 2.7363597521611e-02
    assert abs(got.value.real - want) <= 5.0 * got.err
    with pytest.raises(ValueError):
        heat_kernel_series(KernelQuery(t_or_z=-1.0))


def test_batch_matches_scalar_unitary():
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.0, 3.0, 24)
    s = rng.uniform(-2.0, 2.0, 24)
    vals, _ = schrodinger_batch(1, 0.8, rho, s, tol=1e-8)
    for i in range(0, rho.size, 3):
        sv = schrodinger_kernel(
            KernelQuery(t_or_z=0.8, rho=rho[i], s=s[i], tol=1e-10)).value
        assert abs(sv - vals[i]) < 2e-9
    with pytest.raises(StripViolation):
        schrodinger_batch(1, 0.8, [0.0], [3.3])
    with pytest.raises(ZeroTime):
        schrodinger_batch(1, 0.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        schrodinger_batch(1, 0.8, [0.0, 1.0], [0.0])


def test_batch_refuses_a_tau_rule_over_the_panel_budget():
    # Toward the strip's edge the cut-off grows like 1 / rate: at
    # s = 3.9996 the rule would take 11531 panels of width 16 a side.
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError, match="over 4000 panels a side"):
        schrodinger_batch(1, 1.0, [0.5], [3.9996])
    assert time.perf_counter() - t0 < 1.0


def test_batch_error_probe_on_a_single_panel():
    # The phase is slow at this pair, so no phase speed sets the panel
    # width; the halved-width probe must split the panels, not rebuild
    # them.
    t, rho, s = 8.0, 0.1358, 4.8758
    vals, err = schrodinger_batch(1, t, [rho], [s], tol=1e-10)
    ref = schrodinger_kernel(
        KernelQuery(t_or_z=t, rho=rho, s=s, tol=1e-13)).value
    assert err >= 0.5 * abs(vals[0] - ref)


def test_batch_meets_tol_where_the_phase_is_slow():
    # Where the phase is slow the Gauss panels are capped at width 16, as
    # where it is fast; one panel per side over the whole cut-off missed
    # tol 1e-10 by 1.8e-9 at the first batch and 2.2e-9 at the second
    # (the three t = 16 pairs that seed 410 of the benchmark's batch
    # check draws, where the miss was 1e-5 relative at tol 1e-8).
    batches = ((8.0, [0.1358], [4.8758]),
               (16.0, [0.1178649985518262, 0.3707308834088181,
                       0.3439788243649886],
                [6.132820008365812, -23.819258889621338,
                 -13.292356835720263]))
    for t, rho, s in batches:
        vals, _ = schrodinger_batch(1, t, rho, s, tol=1e-10)
        for r, sv, v in zip(rho, s, vals):
            ref = schrodinger_kernel(
                KernelQuery(t_or_z=t, rho=r, s=sv, tol=1e-13)).value
            assert abs(v - ref) <= 1e-10, (t, r, sv, abs(v - ref))


def test_fixed_tau_rule_is_mirrored_with_an_edge_at_zero():
    t_cut = 5.3
    for width in (t_cut, 1.0, 0.37):
        tau, w = _fixed_tau_rule(t_cut, width)
        np.testing.assert_array_equal(tau, -tau[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert np.all(np.diff(tau) > 0.0) and np.all(tau != 0.0)
        assert w.sum() == pytest.approx(2.0 * t_cut, rel=1e-14)
        # |tau| is a polynomial on every panel only if 0 is a panel edge
        assert w @ np.abs(tau) == pytest.approx(t_cut * t_cut, rel=1e-14)
        # the positive half is the composite 16-node rule on [0, T]
        pos, wpos = gauss_panels(0.0, t_cut, math.ceil(t_cut / width), 16)
        np.testing.assert_array_equal(tau[tau.size // 2:], pos)
        np.testing.assert_array_equal(w[w.size // 2:], wpos)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unitary_tau_rule_meets_the_tail_contract(d, monkeypatch):
    # The convolution's cut-off is quadrature.tail_cutoff's: for the
    # envelope C it read, T holds integrate_exponential_tail's contract,
    # both tails 2 C exp(-r T) / r and the envelope C exp(-r T) at T
    # below tol / 2.
    read = []

    def spy(amplitude, rates, tols):
        c_amp, t_cut = tail_cutoff(amplitude, rates, tols)
        read.append(c_amp[0])
        return c_amp, t_cut

    monkeypatch.setattr(kernels, "tail_cutoff", spy)
    ladder = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    for t, smax in ((1.0, 2.0), (1.5, 3.2), (4.0, 12.0), (0.5, 0.3)):
        for tol in (1e-6, 1e-8):
            _, t_cut, _ = kernels._unitary_tau_rule(d, t, smax, 1.0, tol)
            c_amp = read.pop()
            r = 2.0 * d - smax / (2.0 * t)
            assert 2.0 * c_amp * math.exp(-r * t_cut) / r <= 0.5 * tol * (
                1.0 + 1e-12)
            assert c_amp * math.exp(-r * t_cut) <= 0.5 * tol * (1.0 + 1e-12)
            # C is read on |integrand| exp(r |tau|) <= (2 tau e^(2 tau)
            # / sinh 2 tau)^d, which grows with |tau|
            env = (2.0 * ladder / np.sinh(2.0 * ladder)
                   * np.exp(2.0 * ladder)) ** d
            assert c_amp >= np.max(env) * (1.0 - 1e-12)


def test_strip_violations_carry_the_one_message():
    z = complex(0.0, -1.0)
    for raise_it, args in (
            (lambda: schrodinger_kernel(KernelQuery(t_or_z=1.0, rho=0.3,
                                                    s=4.5)), (z, 0.3, 4.5)),
            (lambda: schrodinger_batch(1, 1.0, [0.3, 0.1], [4.5, -1.0]),
             (z, 0.3, 4.5))):
        with pytest.raises(StripViolation) as got:
            raise_it()
        with pytest.raises(StripViolation) as want:
            kernels._strip_rate(1, *args)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("no envelope: need |s| < ")
