"""Special-function oracles: scipy cross-checks and closed-form identities."""

import math

import numpy as np
import pytest
from scipy import integrate, special as sps

from hlab.special import (TruncationBudget, hermite_fn, hermite_fn_scaled,
                          hermite_table, laguerre, laguerre_generating_closed,
                          laguerre_table, mehler_closed, mehler_heat_closed,
                          sinh_ratio_log, tau_over_tanh2)


def _hermite_ref(m, x):
    # orthonormal Hermite function via scipy's physicists' polynomial
    norm = 1.0 / math.sqrt(2.0 ** m * math.factorial(m) * math.sqrt(math.pi))
    return norm * sps.eval_hermite(m, x) * np.exp(-x * x / 2.0)


def test_hermite_against_scipy():
    x = np.linspace(-6.0, 6.0, 41)
    for m in (0, 1, 2, 5, 17, 40):
        assert np.allclose(hermite_fn(m, x), _hermite_ref(m, x),
                           rtol=1e-12, atol=1e-13)


def test_hermite_table_consistent_with_single():
    x = np.linspace(-3.0, 3.0, 11)
    table = hermite_table(25, x)
    assert table.shape == (26, 11)
    for m in (0, 7, 25):
        assert np.allclose(table[m], hermite_fn(m, x))


def test_hermite_orthonormality():
    for m, n in ((0, 0), (3, 3), (2, 5), (10, 10), (10, 11)):
        val, _ = integrate.quad(
            lambda x: hermite_fn(m, x) * hermite_fn(n, x), -12.0, 12.0,
            limit=200)
        assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


def test_hermite_scaled_is_l2_normalized():
    lam = 3.7
    val, _ = integrate.quad(
        lambda x: hermite_fn_scaled(4, lam, x) ** 2, -10.0, 10.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        hermite_fn_scaled(0, 0.0, 1.0)


def test_laguerre_against_scipy():
    x = np.linspace(0.0, 40.0, 17)
    for ell in (0, 1, 2, 9, 60, 150):
        for alpha in (0.0, 1.0, 3.0):
            ref = sps.eval_genlaguerre(ell, alpha, x)
            got = laguerre(ell, alpha, x)
            assert np.allclose(got, ref, rtol=5e-13, atol=1e-12)


def test_laguerre_rescale_path_matches_scipy():
    # degrees beyond the rescale threshold, values up to ~1e290
    x = np.array([0.5, 10.0, 120.0])
    for ell in (400, 800):
        ref = sps.eval_genlaguerre(ell, 0.0, x)
        got = laguerre(ell, 0.0, x)
        assert np.allclose(got, ref, rtol=5e-12)


def test_laguerre_table_matches_rows():
    # up to degree 150 `laguerre` runs the same operations in the same
    # order as the in-place sweep, so the rows agree bit for bit
    real = np.linspace(0.0, 8.0, 9)
    for x in (real, real * (0.7 - 0.4j)):
        for alpha in (0.0, 1.0):
            table = laguerre_table(30, alpha, x)
            assert table.shape == (31, 9)
            assert table.dtype == x.dtype
            for ell in (0, 1, 2, 3, 11, 30):
                assert np.array_equal(table[ell], laguerre(ell, alpha, x))


def test_laguerre_generating_function():
    # The direct sum cancels O(1) terms down to exp(-rx/(1-r)), so its
    # noise floor is machine epsilon relative to the TERM scale, not the
    # result scale; the absolute tolerance reflects that.
    rng = np.random.default_rng(42)
    for _ in range(20):
        r = float(rng.uniform(-0.7, 0.7))
        x = float(rng.uniform(0.0, 10.0))
        direct = sum(r ** k * laguerre(k, 0.0, x) for k in range(200))
        closed = laguerre_generating_closed(r, x, 0.0)
        assert closed == pytest.approx(direct, rel=1e-9, abs=5e-14)
    with pytest.raises(ValueError):
        laguerre_generating_closed(1.0, 1.0, 0.0)


def test_mehler_closed_matches_truncated_sum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = float(rng.uniform(-2.0, 2.0))
        xt = float(rng.uniform(-2.0, 2.0))
        r = float(rng.uniform(-0.6, 0.6))
        hx = hermite_table(200, np.array([x]))[:, 0]
        hxt = hermite_table(200, np.array([xt]))[:, 0]
        direct = float(np.sum(hx * hxt * r ** np.arange(201)))
        assert mehler_closed(x, xt, r) == pytest.approx(
            direct, rel=1e-12, abs=1e-14)


def test_mehler_heat_closed_matches_series():
    lam, t = 1.3, 0.25
    y, z = 0.4, -0.9
    # the scaled sum: H_{m,lam}(x) = lam^(1/4) h_m(sqrt(lam) x)
    total = 0.0
    for m in range(400):
        total += (math.exp(-2.0 * m * t * lam)
                  * hermite_fn_scaled(m, lam, z - y)
                  * hermite_fn_scaled(m, lam, z + y))
    assert mehler_heat_closed(lam, t, y, z) == pytest.approx(
        total, rel=1e-10)


def test_hyperbolic_ratios_taylor_switch():
    # values straddling the 1e-3 switch must join smoothly
    taus = np.array([1e-5, 5e-4, 9.99e-4, 1.001e-3, 2e-3, 0.1, 3.0])
    a = tau_over_tanh2(taus)
    ref = taus / np.tanh(2.0 * taus)
    assert np.allclose(a, ref, rtol=1e-13)
    b = np.exp(sinh_ratio_log(taus, 2))
    ref_b = (2.0 * taus / np.sinh(2.0 * taus)) ** 2
    assert np.allclose(b, ref_b, rtol=1e-13)
    assert tau_over_tanh2(0.0) == pytest.approx(0.5)
    assert sinh_ratio_log(0.0, 3) == 0


def test_sinh_ratio_log_matches_direct():
    taus = np.array([1e-4, 0.5, 4.0, 40.0])
    got = sinh_ratio_log(np.concatenate([[0.0], taus]), 1.0)
    direct = np.log(2.0 * taus / np.sinh(2.0 * taus))
    assert got[0] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(got[1:-1], direct[:-1], rtol=1e-12, atol=1e-13)
    assert got[-1] == pytest.approx(
        math.log(80.0) - 80.0 + math.log(2.0), rel=1e-12)


def test_truncation_budget_validation():
    b = TruncationBudget(100, 1e-10)
    assert b.max_terms == 100
    with pytest.raises(ValueError):
        TruncationBudget(0, 1e-10)
    with pytest.raises(ValueError):
        TruncationBudget(10, -1.0)
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        hermite_fn(-1, 0.0)
