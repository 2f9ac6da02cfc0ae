"""Quadrature engines.

One dimensional integrals use adaptive Gauss-Kronrod (G7, K15) with
largest-error-first bisection.  Integrals over the whole line with a known
exponential envelope are truncated symmetrically at a point T chosen from
the envelope, never through variable transforms.  The fixed rules are
composite Gauss-Legendre panels (gauss_panels) and Simpson on a uniform
axis (simpson_rule); box integrals use tensor products of the latter.
Gauge-ball norms of functions of (|Y|^2, s) use the Simpson rule of the
ball's radial section (radial_ball_rule), of others the clipped box.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .group import GroupPoint, koranyi_norm_arrays, product_arrays


class QuadratureError(Exception):
    pass


class QuadratureNonConvergence(QuadratureError):
    """Panel budget ran out; carries the best value and error so far."""

    def __init__(self, message, value=None, err=None):
        super().__init__(message)
        self.value = value
        self.err = err


class EnvelopeError(ValueError):
    pass


@dataclass
class Integrand1D:
    """A scalar (possibly complex) integrand on R.

    evaluate      : callable, numpy-vectorized
    envelope_rate : r > 0 such that |f(tau)| <~ C exp(-r |tau|) at infinity
    """

    evaluate: Callable
    envelope_rate: float | None = None


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7-15 on [-1, 1]; positive abscissae, symmetric rule.

_K15_NODES = np.array([
    0.0,
    0.207784955007898468,
    0.405845151377397167,
    0.586087235467691130,
    0.741531185599394440,
    0.864864423359769073,
    0.949107912342758525,
    0.991455371120812639,
])

_K15_WEIGHTS = np.array([
    0.209482141084727828,
    0.204432940075298892,
    0.190350578064785410,
    0.169004726639267903,
    0.140653259715525919,
    0.104790010322250184,
    0.063092092629978553,
    0.022935322010529225,
])

# G7 lives on the K15 nodes with odd index (0-based indices 0, 2, 4, 6).
_G7_WEIGHTS = np.array([
    0.417959183673469388,
    0.381830050505118945,
    0.279705391489276668,
    0.129484966168869693,
])

# full 15-point layout, ascending
_X15 = np.concatenate([-_K15_NODES[:0:-1], _K15_NODES])
_W15 = np.concatenate([_K15_WEIGHTS[:0:-1], _K15_WEIGHTS])
_W7_ON_15 = np.zeros(15)
_W7_ON_15[7] = _G7_WEIGHTS[0]
for _i in range(1, 4):
    _W7_ON_15[7 + 2 * _i] = _G7_WEIGHTS[_i]
    _W7_ON_15[7 - 2 * _i] = _G7_WEIGHTS[_i]

_EPS = np.finfo(float).eps


def _complex_valued(f: Callable) -> Callable:
    """The numpy-vectorized f, returning complex arrays."""
    return lambda x: np.asarray(f(x), dtype=complex)


def _gk_panel(fv: Callable, a: float, b: float):
    """Return (K15 value, error estimate) on [a, b]."""
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = fv(mid + h * _X15)
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
    return value, err


def integrate_adaptive(f: Callable, a: float, b: float, tol: float,
                       max_panels: int = 4000,
                       max_panel_width: float | None = None,
                       breakpoints: Sequence[float] = ()):
    """Adaptive G7/K15 over [a, b].

    Returns (value, err).  Raises QuadratureNonConvergence (carrying the
    partial value and error) when the panel budget runs out first.
    """
    a = float(a)
    b = float(b)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not b > a:
        raise ValueError("need b > a")
    fv = _complex_valued(f)

    edges = sorted({a, b, *(float(p) for p in breakpoints if a < float(p) < b)})
    if max_panel_width is not None and max_panel_width > 0.0:
        refined = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = max(1, math.ceil((hi - lo) / max_panel_width))
            refined.extend(np.linspace(lo, hi, n + 1)[:-1])
        refined.append(b)
        edges = refined

    heap = []
    counter = itertools.count()
    total = 0.0 + 0.0j
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _gk_panel(fv, lo, hi)
        total += v
        total_err += e
        heapq.heappush(heap, (-e, next(counter), lo, hi, v, e))

    span = b - a
    while total_err > max(tol, 1e-15 * abs(total)):
        if len(heap) >= max_panels:
            raise QuadratureNonConvergence(
                "panel budget %d exhausted (err %.3e, tol %.3e)"
                % (max_panels, total_err, tol), value=total, err=total_err)
        _, _, lo, hi, v, e = heapq.heappop(heap)
        if (hi - lo) < 1e-15 * span:
            raise QuadratureNonConvergence(
                "panel width underflow near %.17g" % lo,
                value=total, err=total_err)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk_panel(fv, lo, mid)
        v2, e2 = _gk_panel(fv, mid, hi)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, next(counter), lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, next(counter), mid, hi, v2, e2))
    return total, total_err


_PROBE_BASE = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])


def integrate_exponential_tail(integrand: Integrand1D, tol: float,
                               max_panel_width: float | None = None,
                               max_panels: int = 4000):
    """Integrate over all of R an integrand with exponential decay.

    The truncation point T is chosen so the envelope bound on the discarded
    tails is below tol/2 and the envelope itself is below tol/2 at T.
    Returns (value, err, T) where err adds the tail bound to the quadrature
    error.  Raises EnvelopeError when no positive decay rate is declared.
    """
    rate = integrand.envelope_rate
    if rate is None or not rate > 0.0:
        raise EnvelopeError("integrand has no positive envelope rate")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fv = _complex_valued(integrand.evaluate)

    def amplitude(points: np.ndarray) -> float:
        at = np.abs(points)
        absf = np.abs(fv(points))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mags = absf * np.exp(rate * at)
            # where exp overflows the product is read in logs: 0 once f
            # has underflowed (0 * inf would be NaN), finite before that
            mags = np.where(np.isfinite(mags), mags,
                            np.exp(np.log(absf) + rate * at))
        mags = mags[~np.isnan(mags)]
        if not mags.size:
            raise QuadratureError("integrand is NaN at every probe")
        return float(np.max(mags))

    probes = np.concatenate([_PROBE_BASE, -_PROBE_BASE[1:]])
    c_amp = max(amplitude(probes), 1e-300)

    def cutoff(c: float) -> float:
        t1 = math.log(max(4.0 * c / (rate * tol), 2.0)) / rate
        t2 = math.log(max(2.0 * c / tol, 2.0)) / rate
        return max(t1, t2, 0.5)

    t_cut = cutoff(c_amp)
    near = t_cut * np.array([0.55, 0.75, 0.95])
    c_amp = max(c_amp, amplitude(np.concatenate([near, -near])))
    t_cut = cutoff(c_amp)

    tail_bound = 2.0 * c_amp * math.exp(-rate * t_cut) / rate
    value, qerr = integrate_adaptive(
        integrand.evaluate, -t_cut, t_cut, 0.5 * tol,
        max_panels=max_panels, max_panel_width=max_panel_width,
        breakpoints=(0.0,))
    return value, qerr + tail_bound, t_cut


# ---------------------------------------------------------------------------
# Fixed rules

@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_panels(a: float, b: float, n_panels: int, per_panel: int):
    """Composite Gauss-Legendre rule: n_panels equal panels on [a, b],
    per_panel nodes each.  Returns (nodes, weights), ascending."""
    x, w = _leggauss(per_panel)
    edges = np.linspace(a, b, n_panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mids[:, None] + half * x[None, :]).reshape(-1)
    weights = np.broadcast_to(half * w[None, :],
                              (n_panels, per_panel)).reshape(-1)
    return nodes, weights.copy()


# ---------------------------------------------------------------------------
# Tensor grids

@dataclass
class GridSpec:
    """Tensor product grid: one (lower, upper, points) triple per axis."""

    axes: tuple

    def __post_init__(self):
        axes = tuple((float(lo), float(hi), int(n)) for lo, hi, n in self.axes)
        for lo, hi, n in axes:
            if not hi > lo:
                raise ValueError("axis upper bound must exceed lower bound")
            if n < 2:
                raise ValueError("each axis needs at least 2 points")
        self.axes = axes


def simpson_rule(lo: float, hi: float, n: int):
    """Nodes and weights on one axis: Simpson when n is odd, trapezoid else."""
    x = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    if n % 2 == 1 and n >= 3:
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= h / 3.0
    else:
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
    return x, w


def grid_nodes_weights(spec: GridSpec):
    """Per-axis (nodes, weights) lists for a GridSpec."""
    nodes, weights = [], []
    for lo, hi, n in spec.axes:
        x, w = simpson_rule(lo, hi, n)
        nodes.append(x)
        weights.append(w)
    return nodes, weights


def _flatten_grid(spec: GridSpec):
    """Stacked coordinates (N, k) and combined weights (N,)."""
    nodes, weights = grid_nodes_weights(spec)
    mesh = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    wmesh = np.meshgrid(*weights, indexing="ij")
    w = np.ones(pts.shape[0])
    for wm in wmesh:
        w = w * wm.reshape(-1)
    return pts, w


# ---------------------------------------------------------------------------
# Gauge-ball norms

def ball_box(radius: float, d: int = 1, n_horizontal: int = 64,
             n_vertical: int | None = None) -> GridSpec:
    """Bounding box of the gauge ball of given radius, centered at 0."""
    r = float(radius)
    if n_vertical is None:
        n_vertical = n_horizontal
    axes = [(-r, r, n_horizontal)] * (2 * d) + [(-r * r, r * r, n_vertical)]
    return GridSpec(tuple(axes))


def lp_norm_on_ball(f: Callable, p: float, center: GroupPoint, radius: float,
                    spec: GridSpec, vectorized: bool = False) -> float:
    """L^p norm of f over the gauge ball around center.

    spec describes the box in ball-centered coordinates v; the actual
    evaluation points are center . v for the nodes v inside the ball only.
    Membership is strict.  p may be any value >= 1 or inf (grid max of |f|).
    """
    k = len(spec.axes)
    if k % 2 != 1 or k < 3:
        raise ValueError("expected axes (y_1..y_d, eta_1..eta_d, s)")
    d = (k - 1) // 2
    if d != center.d:
        raise ValueError("grid dimension does not match the center point")
    pts, w = _flatten_grid(spec)
    vy, veta, vs = pts[:, :d], pts[:, d:2 * d], pts[:, 2 * d]
    gauge = koranyi_norm_arrays(vy, veta, vs)
    mask = gauge < float(radius)
    if not np.any(mask):
        raise QuadratureError("no grid nodes fall inside the ball")
    ay, aeta, as_ = product_arrays(center.y, center.eta, center.s,
                                   vy[mask], veta[mask], vs[mask])
    if vectorized:
        vals = np.asarray(f(ay, aeta, as_))
    else:
        vals = np.array([f(GroupPoint(ay[i], aeta[i], as_[i]))
                         for i in range(as_.shape[0])])
    mags = np.abs(vals)
    if np.isinf(p):
        return float(np.max(mags))
    if p < 1.0:
        raise ValueError("p must be >= 1 or inf")
    return float((np.sum(w[mask] * mags ** p)) ** (1.0 / p))


def radial_ball_rule(radius: float, d: int = 1, n_rho: int = 129,
                     n_s: int = 257):
    """Simpson nodes (rho, s) = (|Y|^2, s) of the half-disk rho >= 0,
    rho^2 + s^2 < radius^4 (strict), and weights w = Simpson * rho^(d-1):
    a radial f integrates over the origin-centered gauge ball to
    (pi^d / (d-1)!) sum w f(rho, s), the constant left to the caller."""
    r2 = float(radius) ** 2
    rho, wr = simpson_rule(0.0, r2, n_rho)
    s, ws = simpson_rule(-r2, r2, n_s)
    R, S = np.meshgrid(rho, s, indexing="ij")
    mask = R * R + S * S < r2 * r2
    if not np.any(mask):
        raise QuadratureError("no grid nodes fall inside the ball")
    wgt = np.outer(wr, ws) * (R ** (d - 1) if d > 1 else 1.0)
    return R[mask], S[mask], wgt[mask]


def lp_norm_on_ball_radial(profile: Callable, p: float, radius: float,
                           d: int = 1, n_rho: int = 129,
                           n_s: int = 257) -> float:
    """L^p norm over the origin-centered gauge ball of a radial function.

    profile(rho, s) takes |Y|^2 and s (numpy arrays); the nodes and
    weights are those of radial_ball_rule.
    """
    rho, s, w = radial_ball_rule(radius, d, n_rho, n_s)
    vals = np.abs(np.asarray(profile(rho, s)))
    if np.isinf(p):
        return float(np.max(vals))
    if p < 1.0:
        raise ValueError("p must be >= 1 or inf")
    const = math.pi ** d / math.factorial(d - 1)
    return float((const * np.sum(w * vals ** p)) ** (1.0 / p))
