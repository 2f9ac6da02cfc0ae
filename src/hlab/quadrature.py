"""Quadrature engines.

One dimensional integrals use adaptive Gauss-Kronrod (G7, K15) with
largest-error-first bisection.  Integrals over the whole line with a known
exponential envelope are truncated symmetrically at a point T chosen from
the envelope, never through variable transforms.  tail_cutoff is the one
rule for T: the adaptive tail integrals read their envelope on the
integrand itself, the fixed tau grids of the convolution on its analytic
bound.  Both engines take a batch of independent integrals in lockstep:
each member keeps its own panels, running total and error, and splits
exactly the panels its lone run splits, while one integrand call per
round evaluates the new panels of every member still short of its
tolerance.  A lone integral is the batch of one, and every member gets
its lone run's bits.  The fixed rules are composite Gauss-Legendre panels
(gauss_panels) and Simpson on a uniform axis (simpson_rule); box
integrals use tensor products of the latter.  Gauge-ball norms of
functions of (|Y|^2, s) use the Simpson rule of the ball's radial section
(radial_ball_rule) and one norm formula on it (radial_ball_norms).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


class QuadratureError(Exception):
    pass


class QuadratureNonConvergence(QuadratureError):
    """Panel budget ran out; carries the best value and error so far and
    the index of the integral in its batch (0 for a lone integral)."""

    def __init__(self, message, value=None, err=None, member=0):
        super().__init__(message)
        self.value = value
        self.err = err
        self.member = member


class EnvelopeError(ValueError):
    pass


@dataclass
class Integrand1D:
    """A scalar (possibly complex) integrand on R, or a batch of them.

    evaluate      : callable, numpy-vectorized and elementwise; for a
                    batch, evaluate(x, member) as integrate_adaptive's
                    batches take it
    envelope_rate : r > 0 such that |f(tau)| <~ C exp(-r |tau|) at
                    infinity; for a batch, one per member
    members       : None for one integrand, else the batch size
    """

    evaluate: Callable
    envelope_rate: float | Sequence[float] | None = None
    members: int | None = None


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

# The panel budget of one adaptive integral, and of one side of a fixed
# tau rule (kernels._fixed_tau_rule)
MAX_PANELS = 4000


def _rowwise(f: Callable) -> Callable:
    """A lone integrand f(x) as the batch-of-one integrand f(x, member):
    one call per row of x, that is per panel or probe set."""
    return lambda x, member: np.array(
        [np.asarray(f(row), dtype=complex) for row in x])


def _per_member(value, n: int) -> list:
    """A per-member setting as a list of n entries; a scalar (or None) is
    shared by every member."""
    if isinstance(value, (list, tuple, np.ndarray)):
        if len(value) != n:
            raise ValueError("need one setting per member (%d), got %d"
                             % (n, len(value)))
        return list(value)
    return [value] * n


def along_rows(values: np.ndarray, member: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """values[member] spelled out along the rows of x, contiguous and of
    x's shape: a batch integrand's per-member constants, laid out as a
    lone integrand's own constants would be."""
    return np.repeat(values[member], x.shape[-1]).reshape(x.shape)


def _gk_panels(fv: Callable, member, lo, hi):
    """(values, errs, floors) of the panels [lo[i], hi[i]] of member[i],
    from one call fv(x, member) on their K15 nodes, one row per panel:
    QUADPACK's K15 value and error estimate, and the round-off floor
    50 eps resabs under that estimate.  Each sum over the 15 nodes is a
    fixed-order einsum (no BLAS), so a row's bits do not depend on the
    other rows or on the BLAS thread count."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _X15
    y = np.ascontiguousarray(fv(x, np.asarray(member)), dtype=complex)
    resk = np.einsum("ij,j->i", y, _W15)
    resg = np.einsum("ij,j->i", y, _W7_ON_15)
    scale = np.abs(h)
    resabs = np.einsum("ij,j->i", np.abs(y), _W15) * scale
    resasc = np.einsum("ij,j->i", np.abs(y - (resk * 0.5)[:, None]),
                       _W15) * scale
    err = np.abs(resk - resg) * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = 50.0 * _EPS * resabs
    return resk * h, np.maximum(err, floor), floor


def _initial_edges(a: float, b: float, width, breakpoints,
                   max_panels: int) -> list | None:
    """Panel edges on [a, b]: the breakpoints inside it, then each piece
    cut into equal panels no wider than width (None or <= 0: uncut).
    None, before any edge is built, if that takes over max_panels panels."""
    edges = sorted({a, b, *(float(p) for p in breakpoints if a < float(p) < b)})
    if width is None or not width > 0.0:
        return edges
    # clipped, so that a cut-off near an envelope's edge, where it grows
    # like 1 / rate, cannot overflow the count
    counts = [max(1, math.ceil(min((hi - lo) / width, max_panels + 1)))
              for lo, hi in zip(edges[:-1], edges[1:])]
    if sum(counts) > max_panels:
        return None
    refined = []
    for lo, hi, n in zip(edges[:-1], edges[1:], counts):
        refined.extend(np.linspace(lo, hi, n + 1)[:-1])
    refined.append(b)
    return refined


def integrate_adaptive(f: Callable, a, b, tol,
                       max_panels: int = MAX_PANELS,
                       max_panel_width=None,
                       breakpoints: Sequence[float] = (),
                       members: int | None = None):
    """Adaptive G7/K15 over [a, b], for one integral or a lockstep batch.

    A lone integral (members None) takes f(x), numpy-vectorized, called
    on one panel's 15 nodes at a time, and returns (value, err).  A batch
    of `members` independent integrals takes f(x, member): x of shape
    (rows, nodes) holds one panel's nodes per row, member (rows,) the
    integral each row belongs to, and f returns values of x's shape,
    computing each row as it would alone.  a, b, tol and max_panel_width
    are scalars or one per member, max_panels and breakpoints are shared,
    and (values, errs) come back as arrays.

    Each integral keeps its own panels, running total and error, and
    splits its largest-error panel until its error meets
    max(tol, 1e-15 |value|).  A round splits one panel of every integral
    still short of that, with one call of f on the 15 nodes of each half
    and one vectorized estimate of every new panel (_gk_panels); the
    panel sums stay per panel, so every member of a batch gets the bits
    of its lone run.  Raises QuadratureNonConvergence, carrying the
    partial value and error and, as .member, the integral's index, when
    its panel budget runs out first, or at once when the sum of its
    panels' round-off floors, finite, alone exceeds that tolerance, which
    no split can then meet.  The other members of a batch run on; the
    error raised is the lowest-indexed member's, the one a loop over the
    members would raise.
    """
    lone = members is None
    n = 1 if lone else int(members)
    fv = _rowwise(f) if lone else f
    a = [float(v) for v in _per_member(a, n)]
    b = [float(v) for v in _per_member(b, n)]
    tol = [float(v) for v in _per_member(tol, n)]
    width = _per_member(max_panel_width, n)
    for m in range(n):
        if not tol[m] > 0.0:
            raise ValueError("tol must be positive")
        if not b[m] > a[m]:
            raise ValueError("need b > a")

    # every member's first panels in one call; one counter orders the heap
    # ties of all members as each member's own counter would.  A member
    # whose first cut is over budget fails before any panel is built.
    heaps = [[] for _ in range(n)]
    counter = itertools.count()
    totals = [0.0 + 0.0j] * n
    errs = [0.0] * n
    floors = [0.0] * n
    failed = {}
    first = []
    for m in range(n):
        edges = _initial_edges(a[m], b[m], width[m], breakpoints, max_panels)
        if edges is None:
            failed[m] = ("panel budget %d exhausted by the first cut of "
                         "[%.6g, %.6g] at width %.3g"
                         % (max_panels, a[m], b[m], width[m]))
            errs[m] = math.inf
            break               # members past the first failure are moot
        first.extend((m, lo, hi) for lo, hi in itertools.pairwise(edges))
    if first:
        panels = zip(*(col.tolist() for col in _gk_panels(fv, *zip(*first))))
        for (m, lo, hi), (v, e, r) in zip(first, panels):
            totals[m] += v
            errs[m] += e
            floors[m] += r
            heapq.heappush(heaps[m], (-e, next(counter), lo, hi, v, e, r))

    active = range(min(failed, default=n))
    while True:
        split = []
        for m in active:
            target = max(tol[m], 1e-15 * abs(totals[m]))
            if errs[m] <= target:
                continue
            if target < floors[m] < math.inf:
                failed[m] = ("round-off floor %.3e above tolerance %.3e"
                             % (floors[m], target))
                continue
            if len(heaps[m]) >= max_panels:
                failed[m] = ("panel budget %d exhausted (err %.3e, tol %.3e)"
                             % (max_panels, errs[m], tol[m]))
                continue
            _, _, lo, hi, v, e, r = heapq.heappop(heaps[m])
            if (hi - lo) < 1e-15 * (b[m] - a[m]):
                failed[m] = "panel width underflow near %.17g" % lo
                continue
            split.append((m, lo, 0.5 * (lo + hi), hi, v, e, r))
        if failed:              # members past the first failure are moot
            split = [p for p in split if p[0] < min(failed)]
        if not split:
            break
        # the halves [lo, mid] and [mid, hi] of each split panel, in order
        vs, es, rs = (col.tolist() for col in _gk_panels(
            fv, [p[0] for p in split for _ in (0, 1)],
            [x for p in split for x in p[1:3]],
            [x for p in split for x in p[2:4]]))
        for k, (m, lo, mid, hi, v, e, r) in enumerate(split):
            v1, v2 = vs[2 * k], vs[2 * k + 1]
            e1, e2 = es[2 * k], es[2 * k + 1]
            totals[m] += v1 + v2 - v
            errs[m] += e1 + e2 - e
            floors[m] += rs[2 * k] + rs[2 * k + 1] - r
            heapq.heappush(heaps[m], (-e1, next(counter), lo, mid, v1, e1,
                                      rs[2 * k]))
            heapq.heappush(heaps[m], (-e2, next(counter), mid, hi, v2, e2,
                                      rs[2 * k + 1]))
        active = [p[0] for p in split]
    if failed:
        m = min(failed)
        raise QuadratureNonConvergence(failed[m], value=totals[m],
                                       err=errs[m], member=m)
    if lone:
        return totals[0], errs[0]
    return np.array(totals), np.array(errs)


_PROBE_BASE = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])


def tail_cutoff(amplitude: Callable, rates: Sequence[float],
                tols: Sequence[float]):
    """The truncation rule of every integral over R with an exponential
    envelope: lists (C, T), one entry per member of a batch.

    amplitude(points) returns, for points of shape (members, k), each
    member's max of |f(tau)| exp(rate |tau|) over its row.  C is read on
    the ladder 0, +-0.25, ..., +-16 and T placed where the envelope
    C exp(-rate T) and the bound 2 C exp(-rate T) / rate on its two
    tails both fall below tol / 2 (and T >= 0.5); then C is read again
    at +-0.55, 0.75 and 0.95 T and T placed anew from the larger C."""

    def cut(c, rate, tol):
        t1 = math.log(max(4.0 * c / (rate * tol), 2.0)) / rate
        t2 = math.log(max(2.0 * c / tol, 2.0)) / rate
        return max(t1, t2, 0.5)

    n = len(rates)
    probes = np.concatenate([_PROBE_BASE, -_PROBE_BASE[1:]])
    c_amp = [max(c, 1e-300) for c in amplitude(np.tile(probes, (n, 1)))]
    t_cut = [cut(c, r, t) for c, r, t in zip(c_amp, rates, tols)]
    near = np.array([t * np.array([0.55, 0.75, 0.95]) for t in t_cut])
    c_amp = [max(c, c_near) for c, c_near
             in zip(c_amp, amplitude(np.concatenate([near, -near], axis=1)))]
    t_cut = [cut(c, r, t) for c, r, t in zip(c_amp, rates, tols)]
    return c_amp, t_cut


def integrate_exponential_tail(integrand: Integrand1D, tol,
                               max_panel_width=None):
    """Integrate over all of R an integrand with exponential decay.

    The truncation point T is tail_cutoff's, read on the integrand's own
    values, so the envelope bound on the discarded tails is below tol/2
    and the envelope itself is below tol/2 at T.  Returns (value, err, T)
    where err adds the tail bound to the quadrature error.  A batch
    integrand (integrand.members set) takes tol and max_panel_width per
    member too, probes every member in one call of its evaluate and
    integrates them in one integrate_adaptive batch; values, errs and T
    come back as arrays.  Raises EnvelopeError when a member declares no
    positive decay rate, QuadratureError when every probe of a member is
    NaN (the lowest-indexed such member's, before any panel is split).
    """
    lone = integrand.members is None
    n = 1 if lone else int(integrand.members)
    rates = _per_member(integrand.envelope_rate, n)
    if any(r is None or not r > 0.0 for r in rates):
        raise EnvelopeError("integrand has no positive envelope rate")
    tols = _per_member(tol, n)
    if any(not t > 0.0 for t in tols):
        raise ValueError("tol must be positive")
    f = _rowwise(integrand.evaluate) if lone else integrand.evaluate
    rate_col = np.array(rates, dtype=float)[:, None]

    def amplitude(points: np.ndarray) -> list:
        """max of |f| exp(rate |tau|) over each member's row of points"""
        at = np.abs(points)
        absf = np.abs(np.asarray(f(points, np.arange(n)), dtype=complex))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mags = absf * np.exp(rate_col * at)
            # where exp overflows the product is read in logs: 0 once f
            # has underflowed (0 * inf would be NaN), finite before that
            mags = np.where(np.isfinite(mags), mags,
                            np.exp(np.log(absf) + rate_col * at))
        out = []
        for row in mags:
            row = row[~np.isnan(row)]
            if not row.size:
                raise QuadratureError("integrand is NaN at every probe")
            out.append(float(np.max(row)))
        return out

    c_amp, t_cut = tail_cutoff(amplitude, rates, tols)
    values, qerr = integrate_adaptive(
        f, [-t for t in t_cut], t_cut, [0.5 * t for t in tols],
        max_panel_width=max_panel_width, breakpoints=(0.0,), members=n)
    errs = [q + 2.0 * c * math.exp(-r * t) / r
            for q, c, r, t in zip(qerr, c_amp, rates, t_cut)]
    if lone:
        return values[0], errs[0], t_cut[0]
    return values, np.array(errs), np.array(t_cut)


# ---------------------------------------------------------------------------
# Fixed rules

# The nonnegative halves of numpy.polynomial.legendre.leggauss(16) and
# (24), nodes then weights: repr(float(v)) for v in leggauss(n)[k][n // 2:]
# under numpy 2.4.  That output is exactly symmetric, so the mirrored
# halves are numpy's arrays bit for bit (the tests compare them), without
# importing numpy.polynomial.
_GL_HALVES = {
    16: ((0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
          0.6178762444026438, 0.755404408355003, 0.8656312023878318,
          0.9445750230732326, 0.9894009349916499),
         (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
          0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
          0.062253523938647456, 0.027152459411754176)),
    24: ((0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
          0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
          0.7401241915785544, 0.820001985973903, 0.8864155270044011,
          0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
         (0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
          0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
          0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
          0.04427743881741941, 0.02853138862893356, 0.01234122979998869)),
}


@lru_cache(maxsize=32)
def _leggauss(n: int):
    if n in _GL_HALVES:
        x, w = map(np.array, _GL_HALVES[n])
        return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    return np.polynomial.legendre.leggauss(n)


def _panel_mids(a: float, b: float, n_panels: int):
    """Midpoints and common half-width of n_panels equal panels on [a, b]:
    gauss_panels puts node k of panel p at mids[p] + half * x_k."""
    edges = np.linspace(a, b, n_panels + 1)
    return 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1] - edges[0])


def gauss_panels(a: float, b: float, n_panels: int, per_panel: int):
    """Composite Gauss-Legendre rule: n_panels equal panels on [a, b],
    per_panel nodes each.  Returns (nodes, weights), ascending."""
    x, w = _leggauss(per_panel)
    mids, half = _panel_mids(a, b, n_panels)
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


# ---------------------------------------------------------------------------
# Gauge-ball norms

def radial_ball_rule(radius: float, d: int = 1, n_rho: int = 129,
                     n_s: int = 257):
    """Simpson nodes (rho, s) = (|Y|^2, s) of the half-disk rho >= 0,
    rho^2 + s^2 < radius^4 (strict), and weights w = Simpson * rho^(d-1):
    a radial f integrates over the origin-centered gauge ball to
    (pi^d / (d-1)!) sum w f(rho, s), the constant radial_ball_norms
    applies."""
    r2 = float(radius) ** 2
    rho, wr = simpson_rule(0.0, r2, n_rho)
    s, ws = simpson_rule(-r2, r2, n_s)
    R, S = np.meshgrid(rho, s, indexing="ij")
    mask = R * R + S * S < r2 * r2
    if not np.any(mask):
        raise QuadratureError("no grid nodes fall inside the ball")
    wgt = np.outer(wr, ws) * (R ** (d - 1) if d > 1 else 1.0)
    return R[mask], S[mask], wgt[mask]


def radial_ball_norms(values, w, d: int, ps) -> list:
    """L^p norms over the gauge ball, one per p in ps, of a radial
    function whose values sit at the nodes of radial_ball_rule with its
    weights w; p = inf gives max |values|, else p >= 1."""
    mags = np.abs(np.asarray(values))
    const = math.pi ** d / math.factorial(d - 1)
    norms = []
    for p in ps:
        if np.isinf(p):
            norms.append(float(np.max(mags)))
        elif p < 1.0:
            raise ValueError("p must be >= 1 or inf")
        else:
            norms.append(float((const * np.sum(w * mags ** p)) ** (1.0 / p)))
    return norms
