"""Numeric backend selection.

The two hot loops (the Hermite recurrence table and the tau-quadrature sum
behind batched kernel evaluation) exist twice: a numba njit version and a
pure numpy version.  Selection order:

  1. set_backend("numba" | "numpy") at runtime,
  2. HLAB_BACKEND environment variable,
  3. numba if importable, numpy otherwise.

Both paths are exercised by the test suite.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit
    NUMBA_AVAILABLE = True
except ImportError:          # pragma: no cover - depends on environment
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        if args and callable(args[0]):
            return args[0]
        return wrap


_FORCED: str | None = None


def set_backend(name: str | None) -> None:
    """Force "numba" or "numpy", or None to fall back to the environment."""
    global _FORCED
    if name is not None and name not in ("numba", "numpy"):
        raise ValueError("backend must be 'numba' or 'numpy'")
    if name == "numba" and not NUMBA_AVAILABLE:
        raise RuntimeError("numba backend requested but numba is not importable")
    _FORCED = name


def active_backend() -> str:
    if _FORCED is not None:
        return _FORCED
    env = os.environ.get("HLAB_BACKEND", "").strip().lower()
    if env in ("numba", "numpy"):
        if env == "numba" and not NUMBA_AVAILABLE:
            raise RuntimeError("HLAB_BACKEND=numba but numba is not importable")
        return env
    return "numba" if NUMBA_AVAILABLE else "numpy"


# ---------------------------------------------------------------------------
# Hermite recurrence table

def _hermite_table_numpy(m_max: int, x: np.ndarray) -> np.ndarray:
    out = np.empty((m_max + 1, x.size), dtype=np.float64)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if m_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for m in range(1, m_max):
        out[m + 1] = (x * math.sqrt(2.0 / (m + 1)) * out[m]
                      - math.sqrt(m / (m + 1.0)) * out[m - 1])
    return out


@njit(cache=False)
def _hermite_table_numba(m_max: int, x: np.ndarray) -> np.ndarray:  # pragma: no cover
    n = x.size
    out = np.empty((m_max + 1, n), dtype=np.float64)
    c0 = math.pi ** -0.25
    for i in range(n):
        out[0, i] = c0 * math.exp(-0.5 * x[i] * x[i])
    if m_max >= 1:
        r2 = math.sqrt(2.0)
        for i in range(n):
            out[1, i] = r2 * x[i] * out[0, i]
    for m in range(1, m_max):
        a = math.sqrt(2.0 / (m + 1))
        b = math.sqrt(m / (m + 1.0))
        for i in range(n):
            out[m + 1, i] = a * x[i] * out[m, i] - b * out[m - 1, i]
    return out


def hermite_table(m_max: int, x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if active_backend() == "numba":
        return _hermite_table_numba(m_max, x)
    return _hermite_table_numpy(m_max, x)


# ---------------------------------------------------------------------------
# Batched tau sum: for each query point (rho_i, s_i) accumulate
# sum_j w_j exp(logratio_j + (i tau_j s_i - rho_i t2t_j) * inv2z)
# where logratio and t2t are the precomputed even factors of the kernel
# integrand on a fixed tau grid.

def _tau_sum_numpy(rho, s, inv2z, tau, w, logratio, t2t):
    n = rho.size
    out = np.empty(n, dtype=np.complex128)
    chunk = 512
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        expo = (logratio[None, :]
                + (1j * np.outer(s[lo:hi], tau) - np.outer(rho[lo:hi], t2t)) * inv2z)
        out[lo:hi] = np.exp(expo) @ w
    return out


@njit(cache=False)
def _tau_sum_numba(rho, s, inv2z, tau, w, logratio, t2t):  # pragma: no cover
    n = rho.size
    m = tau.size
    out = np.empty(n, dtype=np.complex128)
    for i in range(n):
        acc = 0.0 + 0.0j
        for j in range(m):
            e = logratio[j] + (1j * tau[j] * s[i] - rho[i] * t2t[j]) * inv2z
            acc += w[j] * np.exp(e)
        out[i] = acc
    return out


def kernel_tau_sum(rho, s, inv2z, tau, w, logratio, t2t) -> np.ndarray:
    """Vectorized integrand accumulation over a fixed tau grid."""
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    s = np.ascontiguousarray(s, dtype=np.float64)
    tau = np.ascontiguousarray(tau, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    logratio = np.ascontiguousarray(logratio, dtype=np.float64)
    t2t = np.ascontiguousarray(t2t, dtype=np.float64)
    inv2z = complex(inv2z)
    if active_backend() == "numba":
        return _tau_sum_numba(rho, s, inv2z, tau, w, logratio, t2t)
    return _tau_sum_numpy(rho, s, inv2z, tau, w, logratio, t2t)
