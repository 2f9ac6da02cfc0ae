"""Special functions: orthonormal Hermite, Laguerre, Mehler sums, and the
singular hyperbolic ratios that drive every kernel integrand.

All recurrences are done iteratively in the value domain.  `laguerre_sweep`
is the one Laguerre recurrence: `laguerre_table` and both radial
transforms run through it, and it keeps whatever dtype the argument
carries.  `laguerre` is the independent reference the tests compare
against; it adds a power-of-two rescaling beyond degree 150.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend


@dataclass
class TruncationBudget:
    """Caps for series summation.

    max_terms      : hard ceiling on the number of summed terms (>= 1)
    tail_tolerance : absolute bound the estimated tail must reach (> 0)
    """

    max_terms: int = 512
    tail_tolerance: float = 1e-12

    def __post_init__(self):
        self.max_terms = int(self.max_terms)
        self.tail_tolerance = float(self.tail_tolerance)
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if not self.tail_tolerance > 0.0:
            raise ValueError("tail_tolerance must be positive")


# ---------------------------------------------------------------------------
# Hermite functions (orthonormal in L^2(R))

def hermite_fn(m: int, x):
    """m-th orthonormal Hermite function.

    h_0(x) = pi^(-1/4) exp(-x^2/2) and the standard three-term recurrence
    upward; returns an array shaped like x (scalar in, scalar out).
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    table = hermite_table(m, x)
    out = table[m]
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out.reshape(-1)[0])
    return out.reshape(np.shape(x))


def hermite_table(m_max: int, x) -> np.ndarray:
    """All orthonormal Hermite functions h_0 .. h_{m_max} at x.

    Returns shape (m_max + 1, n) with n = x.size.
    """
    if m_max < 0:
        raise ValueError("order must be nonnegative")
    xf = np.asarray(x, dtype=float).reshape(-1)
    return backend.hermite_table(m_max, xf)


def hermite_fn_scaled(m: int, lam: float, x):
    """Scaled Hermite function |lam|^(1/4) h_m(|lam|^(1/2) x), lam != 0."""
    lam = float(lam)
    if lam == 0.0:
        raise ValueError("frequency must be nonzero")
    a = abs(lam)
    return a ** 0.25 * hermite_fn(m, np.sqrt(a) * np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Laguerre polynomials L_ell^(alpha)

_RESCALE_THRESHOLD = 2.0 ** 512
_RESCALE = 2.0 ** -512


def laguerre(ell: int, alpha: float, x):
    """Laguerre polynomial by upward recurrence, dtype preserving.

    For ell > 150 the recurrence runs with a shared power-of-two exponent
    offset so intermediates cannot overflow even when the end value does not.
    """
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    xa = np.asarray(x)
    dtype = complex if np.iscomplexobj(xa) else float
    xa = xa.astype(dtype)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)

    prev = np.ones_like(xa)
    if ell == 0:
        out = prev
    else:
        cur = 1.0 + alpha - xa
        if ell <= 150:
            for k in range(1, ell):
                nxt = ((2 * k + 1 + alpha - xa) * cur - (k + alpha) * prev) / (k + 1)
                prev, cur = cur, nxt
            out = cur
        else:
            exp_off = 0
            for k in range(1, ell):
                nxt = ((2 * k + 1 + alpha - xa) * cur - (k + alpha) * prev) / (k + 1)
                prev, cur = cur, nxt
                peak = max(np.max(np.abs(prev)), np.max(np.abs(cur)))
                if peak > _RESCALE_THRESHOLD:
                    prev = prev * _RESCALE
                    cur = cur * _RESCALE
                    exp_off += 512
            out = cur * (2.0 ** exp_off) if exp_off else cur
    return out[0] if scalar else out


def laguerre_sweep(ell_max: int, alpha: float, x):
    """Yield L_0 .. L_{ell_max} of order alpha at x, one degree at a time.

    Runs ((2k+1+alpha-x) L_k - (k+alpha) L_{k-1}) / (k+1) in place in three
    rotating buffers shaped like x (complex if x is, float otherwise), with
    the same IEEE operations in the same order as the plain expression.  A
    yielded array is overwritten by a later step: use or copy it before
    advancing.  L_0 comes as the scalar 1 of that dtype, which broadcasts
    against x, so short sweeps over large x allocate no more than they
    need.  There is no rescaling, so intermediates must stay finite (see
    `laguerre` for high degrees).
    """
    if ell_max < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    yield x.dtype.type(1)
    if ell_max == 0:
        return
    cur = 1.0 + alpha - x
    yield cur
    if ell_max == 1:
        return
    prev, nxt = np.ones_like(x), np.empty_like(x)
    for k in range(1, ell_max):
        np.subtract(2 * k + 1 + alpha, x, out=nxt)
        nxt *= cur
        prev *= k + alpha
        nxt -= prev
        nxt /= k + 1
        prev, cur, nxt = cur, nxt, prev
        yield cur


def laguerre_table(ell_max: int, alpha: float, x) -> np.ndarray:
    """L_0 .. L_{ell_max} at x, shape (ell_max + 1,) + x.shape."""
    if ell_max < 0:
        raise ValueError("degree must be nonnegative")
    xa = np.atleast_1d(np.asarray(x, dtype=complex if np.iscomplexobj(x) else float))
    out = np.empty((ell_max + 1,) + xa.shape, dtype=xa.dtype)
    for k, lk in enumerate(laguerre_sweep(ell_max, alpha, xa)):
        out[k] = lk
    return out


def laguerre_generating_closed(r, x, alpha: float):
    """Closed form of sum_k r^k L_k^(alpha)(x), valid for |r| < 1."""
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(r) >= 1.0):
        raise ValueError("generating variable must satisfy |r| < 1")
    x = np.asarray(x, dtype=float)
    return (1.0 - r) ** (-(alpha + 1.0)) * np.exp(-r * x / (1.0 - r))


# ---------------------------------------------------------------------------
# Mehler sums

def mehler_closed(x, xt, r):
    """Closed form of sum_m h_m(x) h_m(xt) r^m for |r| < 1.

    Equal to pi^(-1/2) (1-r^2)^(-1/2)
    exp( (2 x xt r - (x^2 + xt^2) r^2) / (1 - r^2) - (x^2 + xt^2)/2 ).
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.abs(r) >= 1.0):
        raise ValueError("generating variable must satisfy |r| < 1")
    x = np.asarray(x, dtype=float)
    xt = np.asarray(xt, dtype=float)
    q = x * x + xt * xt
    expo = (2.0 * x * xt * r - q * r * r) / (1.0 - r * r) - 0.5 * q
    return np.exp(expo) / np.sqrt(np.pi * (1.0 - r * r))


def mehler_heat_closed(lam: float, t: float, y, z):
    """One dimensional heat propagator of the scaled oscillator.

    Equals sum_m exp(-2 m t lam) H_{m,lam}(z - y) H_{m,lam}(z + y) for
    lam > 0, t > 0, in the closed Gaussian form
    pi^(-1/2) sqrt(lam / (1 - exp(-4 t lam)))
    exp(-lam z^2 tanh(t lam) - lam y^2 / tanh(t lam)).
    """
    lam = float(lam)
    t = float(t)
    if lam <= 0.0 or t <= 0.0:
        raise ValueError("lam and t must be positive")
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    th = np.tanh(t * lam)
    amp = np.sqrt(lam / (-np.expm1(-4.0 * t * lam)) / np.pi)
    return amp * np.exp(-lam * (z * z * th + y * y / th))


# ---------------------------------------------------------------------------
# Hyperbolic ratios.  Both are even in tau, smooth at 0, and switch to a
# Taylor branch below |tau| = 1e-3 so the removable singularity never costs
# accuracy.

_TAYLOR_CUT = 1e-3


def tau_over_tanh2(tau):
    """tau / tanh(2 tau), continued by 1/2 at tau = 0.

    Satisfies f(tau) >= max(|tau|, 1/2) for all real tau.
    """
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    tau = np.atleast_1d(tau)
    out = np.empty_like(tau)
    small = np.abs(tau) < _TAYLOR_CUT
    ts = tau[small]
    t2 = ts * ts
    out[small] = 0.5 + t2 * (2.0 / 3.0 + t2 * (-8.0 / 45.0 + t2 * (64.0 / 945.0)))
    tb = tau[~small]
    out[~small] = tb / np.tanh(2.0 * tb)
    return float(out[0]) if scalar else out


def sinh_ratio_log(tau, d: float):
    """log of (2 tau / sinh(2 tau))^d, computed without overflow.

    For |tau| >= 1e-3 uses
    d * (log(2|tau|) + log 2 - 2|tau| - log1p(-exp(-4|tau|))),
    which stays finite out to arbitrarily large |tau|.
    """
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    tau = np.atleast_1d(tau)
    out = np.empty_like(tau)
    small = np.abs(tau) < _TAYLOR_CUT
    u2 = 4.0 * tau[small] * tau[small]
    out[small] = u2 * (-1.0 / 6.0 + u2 * (1.0 / 180.0 - u2 / 2835.0))
    ab = np.abs(tau[~small])
    out[~small] = (np.log(2.0 * ab) + math.log(2.0) - 2.0 * ab
                   - np.log1p(-np.exp(-4.0 * ab)))
    out *= float(d)
    return float(out[0]) if scalar else out
