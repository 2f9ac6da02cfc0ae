"""The two vectorized hot loops against direct formulas."""

import math

import numpy as np

from hlab.backend import hermite_table, kernel_tau_sum


def _tau_sum_args(rng):
    tau = np.linspace(-8.0, 8.0, 401)
    w = rng.uniform(0.01, 0.05, tau.size)
    logratio = -np.log(np.cosh(tau))
    t2t = tau * np.tanh(tau)
    rho = rng.uniform(0.0, 5.0, 37)
    s = rng.uniform(-6.0, 6.0, 37)
    return rho, s, tau, w, logratio, t2t


def test_tau_sum_matches_direct_formula():
    rng = np.random.default_rng(7)
    rho, s, tau, w, logratio, t2t = _tau_sum_args(rng)
    inv2z = 0.4 - 0.9j
    got = kernel_tau_sum(rho, s, inv2z, tau, w, logratio, t2t)
    want = np.array([
        np.sum(w * np.exp(logratio + (1j * tau * s[i] - rho[i] * t2t) * inv2z))
        for i in range(rho.size)])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_hermite_table_against_recurrence_free_values():
    x = np.array([-1.5, 0.0, 0.25, 2.0])
    tab = hermite_table(3, x)
    h0 = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    np.testing.assert_allclose(tab[0], h0, rtol=1e-15)
    np.testing.assert_allclose(tab[1], math.sqrt(2) * x * h0, rtol=1e-15)
    np.testing.assert_allclose(
        tab[2], (2 * x * x - 1) / math.sqrt(2) * h0, rtol=1e-13, atol=1e-18)
