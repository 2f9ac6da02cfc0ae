"""Two vectorized loops: the Hermite recurrence table and the tau sum of
kernels.schrodinger_batch, the tests' pair-sum route."""

from __future__ import annotations

import math

import numpy as np


def hermite_table(m_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0 .. h_{m_max} at the flat array x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty((m_max + 1, x.size), dtype=np.float64)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if m_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for m in range(1, m_max):
        out[m + 1] = (x * math.sqrt(2.0 / (m + 1)) * out[m]
                      - math.sqrt(m / (m + 1.0)) * out[m - 1])
    return out


def kernel_tau_sum(rho, s, inv2z, tau, w, logratio, t2t) -> np.ndarray:
    """For each query point (rho_i, s_i) the sum over a fixed tau grid

        sum_j w_j exp(logratio_j + (i tau_j s_i - rho_i t2t_j) * inv2z)

    where logratio and t2t are the precomputed even factors of the kernel
    integrand at the nodes tau_j."""
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    s = np.ascontiguousarray(s, dtype=np.float64)
    tau = np.ascontiguousarray(tau, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    logratio = np.ascontiguousarray(logratio, dtype=np.float64)
    t2t = np.ascontiguousarray(t2t, dtype=np.float64)
    inv2z = complex(inv2z)
    n = rho.size
    out = np.empty(n, dtype=np.complex128)
    chunk = 512
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        expo = (logratio[None, :]
                + (1j * np.outer(s[lo:hi], tau) - np.outer(rho[lo:hi], t2t)) * inv2z)
        out[lo:hi] = np.exp(expo) @ w
    return out
