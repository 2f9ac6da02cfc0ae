"""Radial Fourier analysis on H^d.

Frequencies are pairs (ell, lam) with ell a Laguerre index and lam a nonzero
real.  The building block in the radial variable rho = |Y|^2 is
wigner_radial(ell, lam, rho) = exp(-|lam| rho) L_ell^(d-1)(2 |lam| rho).
The forward transform pairs a radial profile f(rho, s) against that block
and a vertical character; the inverse sums the same blocks against the
Plancherel weight |lam|^d.  The sublaplacian acts diagonally with symbol
4 |lam| (2 ell + d).

Only the vertical character exp(i s lam) tells lam from -lam, so the
coefficients live on the distinct |lam|: SpectralCoefficients holds
c(ell, lam) = even(ell, |lam|) + sign(lam) odd(ell, |lam|), and the table
over the signed grid is built only on request (its `values`).  analyze
takes the even and odd parts as real cosine and sine transforms at the
distinct |lam|; on a grid of many |lam| it keeps them on a Gauss-Legendre
panel rule in |lam|, and each read of c's rows interpolates them onto
the |lam| it asks for.  synthesize runs one loop over fixed chunks of
the distinct |lam|: it reads c's rows on a chunk once, forms
c+- = even +- odd there, folds them with the weights into an even and
an odd row, applies the unitary flow's phase
exp(4 i t |lam| (2 ell + d)) to them, one complex product per ell by
angle addition, sums both against one Laguerre sweep for each block of
points, and closes each point's sum over the chunk at once.  Its memory
is one (points, chunk) accumulator per block and real component, and no
table over (ell, |lam|) and no row over the whole grid is built.  Every
real part that is identically zero is skipped on either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .group import GroupPoint, product
from .quadrature import _leggauss, gauss_panels, simpson_rule
from .special import laguerre_sweep, laguerre_table


@dataclass
class RadialFunction:
    """Radial (polyradial) function on H^d: depends on rho = |Y|^2 and s.

    profile     : (rho, s) -> values; must broadcast over numpy arrays
    support_rho : |profile| < 1e-12 whenever rho > support_rho
    support_s   : |profile| < 1e-12 whenever |s| > support_s
    """

    profile: Callable
    support_rho: float
    support_s: float
    d: int = 1

    def __post_init__(self):
        self.support_rho = float(self.support_rho)
        self.support_s = float(self.support_s)
        if self.support_rho <= 0.0 or self.support_s <= 0.0:
            raise ValueError("supports must be positive")
        if self.d < 1:
            raise ValueError("d must be a positive integer")

    def table(self, rho: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Values on a meshgrid of rho (axis 0) and s (axis 1)."""
        R, S = np.meshgrid(rho, s, indexing="ij")
        return np.asarray(self.profile(R, S))


@dataclass
class FrequencyPoint:
    ell: int
    lam: float

    def __post_init__(self):
        self.ell = int(self.ell)
        self.lam = float(self.lam)
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")
        if self.lam == 0.0:
            raise ValueError("lam must be nonzero")


class SpectralCoefficients:
    """Transform values on a product grid of Laguerre indices and lam nodes.

    lambda_grid is sorted and never contains 0, and weights are the
    positive quadrature weights for integrals d(lam) over it.  The values
    live on the distinct |lam| of the grid, `nodes` (ascending), as

        c(ell, lam) = even(ell, |lam|) + sign(lam) odd(ell, |lam|),

    the parts of the vertical character's cosine and sine; even and odd
    have shape (ell_max + 1, nodes.size).  A part whose imaginary
    component is zero is a real array, any other a complex one.  None
    stands for a part that is identically zero: analyze gives it for the
    bump's odd part, say, and gives zero data a real zero even part,
    which carries ell_max.  Where the grid holds only one sign of some
    |lam|, the split there is not unique, and any split with the right
    sum serves.

    `rows(a, b)` reads both parts on nodes[a:b], and the transforms read
    c through it alone.  Built from tables, c holds them in C order and
    its rows are their slices.  analyze on its panel rule keeps instead
    the parts' values on the rule's nodes, and each read interpolates
    them onto just the nodes it asks for, so no (ell_max + 1) x
    nodes.size table is held.  `even` and `odd` read a whole part (on the
    panel rule, a new table on each read), and `values` unfolds c onto
    the signed grid, a new complex table on each read; both serve tests
    and small callers.
    """

    def __init__(self, d: int, lambda_grid, weights, even, odd=None):
        grid = _signed_grid(lambda_grid, weights)
        self._set(d, grid, _tables(even, odd, grid[2].size), None)

    def _set(self, d, grid, tables, rule):
        self.d = d
        self.lambda_grid, self.weights, self.nodes, self._inv = grid
        self._tables = tables               # (even, odd), or None on a rule
        self._rule = rule                   # a _PanelRule, or None

    @classmethod
    def _on(cls, d, grid, tables=None, rule=None):
        """Coefficients on a grid that _signed_grid has checked, from
        tables that _tables has checked or from a panel rule."""
        c = cls.__new__(cls)
        c._set(d, grid, tables, rule)
        return c

    @property
    def ell_max(self) -> int:
        if self._rule is not None:
            return self._rule.values.shape[1] - 1
        return next(p for p in self._tables if p is not None).shape[0] - 1

    def rows(self, a: int, b: int):
        """c's even and odd parts on nodes[a:b], each of shape
        (ell_max + 1, b - a), or None where the part is identically zero:
        slices of c's tables, or new arrays interpolated onto those nodes
        alone, bit for bit the columns of the whole interpolated part."""
        if self._rule is None:
            return tuple(None if p is None else p[:, a:b]
                         for p in self._tables)
        return self._rule.at(self.nodes[a:b])

    @property
    def even(self):
        return self.rows(0, self.nodes.size)[0]

    @property
    def odd(self):
        return self.rows(0, self.nodes.size)[1]

    def _signed_rows(self):
        """The rows of c on the signed grid, one ell at a time."""
        even, odd = self.rows(0, self.nodes.size)
        sign = np.sign(self.lambda_grid)
        for ell in range(self.ell_max + 1):
            row = np.zeros(self.lambda_grid.size, dtype=complex)
            if even is not None:
                row += even[ell, self._inv]
            if odd is not None:
                row += odd[ell, self._inv] * sign
            yield row

    @property
    def values(self) -> np.ndarray:
        """c(ell, lam) on the signed grid: a new complex table of shape
        (ell_max + 1, lambda_grid.size)."""
        return np.array(list(self._signed_rows()))


def _signed_grid(lambda_grid, weights):
    """(lambda_grid, weights, nodes, inverse) as float arrays, checked:
    the distinct |lam| ascending, and each lam's index among them."""
    lam = np.asarray(lambda_grid, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if lam.ndim != 1:
        raise ValueError("lambda_grid must be one dimensional")
    if np.any(lam == 0.0):
        raise ValueError("lambda_grid must not contain 0")
    if np.any(np.diff(lam) <= 0.0):
        raise ValueError("lambda_grid must be strictly increasing")
    if weights.shape != lam.shape:
        raise ValueError("weights must match lambda_grid")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    nodes, inv = np.unique(np.abs(lam), return_inverse=True)
    return lam, weights, nodes, inv


def _tables(even, odd, n_nodes):
    """The parts as checked tables in C order, whatever the caller passed,
    so that the sums over |lam| in synthesize see one memory layout; real
    where the imaginary component is zero, and None where given as None."""
    tables = []
    for name, part in (("even", even), ("odd", odd)):
        if part is not None:
            part = np.asarray(part)
            if np.iscomplexobj(part) and not np.any(part.imag):
                part = part.real
            part = np.ascontiguousarray(
                part, dtype=complex if np.iscomplexobj(part) else float)
            if part.ndim != 2 or part.shape[1] != n_nodes:
                raise ValueError("%s must have shape (ell_max + 1, number "
                                 "of distinct |lam|)" % name)
        tables.append(part)
    shapes = {p.shape for p in tables if p is not None}
    if not shapes:
        raise ValueError("even or odd must be given")
    if len(shapes) > 1:
        raise ValueError("even and odd must have one shape")
    return tuple(tables)


def multiplicity(ell: int, d: int) -> int:
    """Number of length-d multi-indices with given total degree."""
    return math.comb(ell + d - 1, d - 1)


def symbol(ell: int, lam: float, d: int = 1) -> float:
    """Sublaplacian eigenvalue 4 |lam| (2 ell + d) on the (ell, lam) block."""
    return 4.0 * abs(lam) * (2 * ell + d)


def wigner_radial(ell: int, lam: float, rho, alpha: float = 0.0):
    """exp(-|lam| rho) L_ell^(alpha)(2 |lam| rho); alpha = d - 1 on H^d."""
    rho = np.asarray(rho, dtype=float)
    a = abs(float(lam))
    return np.exp(-a * rho) * laguerre_table(ell, alpha, 2.0 * a * rho)[ell]


# ---------------------------------------------------------------------------
# Grids

def default_lambda_grid(lam_min: float = 1e-3, lam_max: float = 50.0,
                        n_per_sign: int = 400):
    """Signed geometric grid with trapezoid weights in log space.

    Returns (grid, weights); the grid is symmetric, sorted, and omits 0.
    """
    if not (0.0 < lam_min < lam_max):
        raise ValueError("need 0 < lam_min < lam_max")
    if n_per_sign < 2:
        raise ValueError("need at least 2 nodes per sign")
    u = np.linspace(math.log(lam_min), math.log(lam_max), n_per_sign)
    pos = np.exp(u)
    du = (u[-1] - u[0]) / (n_per_sign - 1)
    wu = np.full(n_per_sign, du)
    wu[0] = wu[-1] = 0.5 * du
    wpos = wu * pos          # d(lam) = lam d(log lam)
    grid = np.concatenate([-pos[::-1], pos])
    weights = np.concatenate([wpos[::-1], wpos])
    return grid, weights


def single_sign_lambda_grid(lo: float, hi: float, n: int, sign: int = 1):
    """Simpson grid on one side of the frequency axis, linear spacing."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    x, w = simpson_rule(lo, hi, n)
    if sign < 0:
        return -x[::-1], w[::-1]
    return x, w


def _default_n_s(support_s: float, lam_max: float) -> int:
    return int(0.75 * support_s * lam_max) + 64


# ---------------------------------------------------------------------------
# Forward and inverse transforms

def analyze(f: RadialFunction, ell_max: int = 16, lambda_grid=None,
            lambda_weights=None, n_rho: int = 128,
            n_s: int | None = None) -> SpectralCoefficients:
    """Forward radial transform sampled on a lam grid.

    c(ell, lam) = C(ell + d - 1, ell)^(-1) (pi^d / (d-1)!)
                  integral of exp(-i s lam) wigner_radial * f
                  against rho^(d-1) drho ds over the declared support.

    The s rule is symmetric about 0, so the table splits into its even
    and odd parts in s, each further into real and imaginary parts.  Every
    part that is not identically zero is a real cosine (even) or sine (odd)
    transform on the s >= 0 half of the rule, taken at the distinct |lam|,
    and is stored there as a component of c's even or odd part; the bump,
    real and even in s, has one part and a real even part.

    The profile is integrated over its declared supports only, so by
    Paley-Wiener each part is entire in |lam|, of exponential type about
    S = max(support_rho, support_s), however fast the flows later make c
    oscillate.  A grid of many distinct |lam| therefore takes the parts on
    a Gauss-Legendre panel rule in |lam| (24 nodes per panel, panels 1 / S
    wide, covering [0, max |lam|]), and c keeps them there: each read of
    its rows interpolates them by barycentric Lagrange per panel onto the
    |lam| it asks for.  Each panel's interpolant is probed against a
    direct evaluation at its top edge; while some ell's probe exceeds
    1e-13 of that ell's largest part value plus the part's round-off
    floor, (ell + 1) eps C(ell + d - 1, ell) times the sum of |weights *
    part table|, the width is halved.  The rule is used only while it,
    with its probes, takes fewer evaluations than the grid has distinct
    |lam|; otherwise every |lam| is evaluated directly and c holds the
    tables.  The default grid is the unit one dilated to f's size,
    default_lambda_grid(1e-3 / S, 50 / S): the bump of any radius gets 400
    |lam| per sign and a default s rule of 101 nodes.
    """
    d = f.d
    S = max(f.support_rho, f.support_s)
    if lambda_grid is None:
        lambda_grid, lambda_weights = default_lambda_grid(1e-3 / S, 50.0 / S)
    if lambda_weights is None:
        raise ValueError("custom lambda_grid needs explicit weights")
    grid = _signed_grid(lambda_grid, lambda_weights)
    nodes = grid[2]
    if n_s is None:
        n_s = _default_n_s(f.support_s, float(nodes[-1]))
    rho, wr = gauss_panels(0.0, f.support_rho, 1, n_rho)
    s, ws = gauss_panels(-f.support_s, f.support_s, 1, n_s)
    table = f.table(rho, s)

    # s[half:] are the nodes s >= 0, s[(n_s - 1) // 2::-1] their mirrors;
    # a node at s = 0 (odd n_s) is its own mirror and counts once
    half = n_s // 2
    sh, wh = s[half:], 2.0 * ws[half:]
    wh[0] /= 1 + n_s % 2
    # (trig, half table (n_half, n_rho)) of each part, and its place in c,
    # (odd part?, imaginary component?): exp(-i s lam) = cos - i sign(lam)
    # sin, so a sine transform lands in the other component, negated from
    # the real table
    parts, places = [], []
    for imag, x in ((False, table.real), (True, np.imag(table))):
        xh, xm = x[:, half:].T, x[:, (n_s - 1) // 2::-1].T
        for trig, odd, mirror in ((np.cos, False, xm), (np.sin, True, -xm)):
            if not np.array_equal(xh, -mirror):     # else the part is 0
                parts.append((trig, np.ascontiguousarray(0.5 * (xh + mirror))))
                places.append((odd, imag != odd))
    alpha = d - 1.0
    rad_w = wr * rho ** (d - 1)
    chunk = max(1, _FWD_CHUNK // max(1, n_rho))

    def transforms(at):
        """The parts' transforms at the |lam| nodes `at`, shape
        (len(parts), ell_max + 1, at.size)."""
        out = np.empty((len(parts), ell_max + 1, at.size))
        # Streamed over |lam| blocks and the Laguerre sweep: the full
        # (ell, lam, rho) table would not fit once ell_max or the grid
        # grows.  A lam-major block holds _FWD_CHUNK elements per part, so
        # that it and the sweep's buffers stay in cache across every ell
        # step; the rho sum is one row dot per lam.
        for lo in range(0, at.size, chunk):
            hi = min(lo + chunk, at.size)
            lc = at[lo:hi]
            trig = {fn: fn(np.outer(lc, sh)) * wh
                    for fn in {p[0] for p in parts}}
            wa = np.empty((len(parts), hi - lo, n_rho))
            for p, (fn, tab) in enumerate(parts):
                # einsum sums over s in one fixed order; a BLAS matrix
                # product can round an edge column differently with the
                # BLAS thread count
                np.einsum("ls,sr->lr", trig[fn], tab, out=wa[p])
            wa *= np.exp(-np.outer(lc, rho)) * rad_w
            x = 2.0 * np.outer(lc, rho)
            for k, lk in enumerate(laguerre_sweep(ell_max, alpha, x)):
                if k:
                    np.vecdot(wa, lk, out=out[:, k, lo:hi])
                else:                                       # L_0 = 1
                    wa.sum(axis=-1, out=out[:, 0, lo:hi])
        return out

    # each part's round-off floor at degree ell: (ell + 1) eps times the
    # sum of its terms' bounds, exp(-x / 2) |L_ell^(d-1)(x)| being at most
    # C(ell + d - 1, ell)
    bounds = np.array([np.einsum("s,sr,r->", wh, np.abs(tab), rad_w)
                       for _, tab in parts])
    floor = np.outer(bounds, [(ell + 1) * multiplicity(ell, d)
                              for ell in range(ell_max + 1)])
    floor *= np.finfo(float).eps
    base = math.pi ** d / math.factorial(d - 1)
    scale = np.array([base / multiplicity(ell, d)
                      for ell in range(ell_max + 1)])[:, None]
    # zero data has no part to put on a rule
    rule = _on_panels(transforms, nodes, _PANEL_WIDTH / S,
                      floor) if parts else None
    if rule is not None:
        return SpectralCoefficients._on(
            d, grid, rule=_PanelRule(*rule, scale, tuple(places)))
    even, odd = _assemble(transforms(nodes), scale, places)
    if even is None and odd is None:
        even = np.zeros((ell_max + 1, nodes.size))
    return SpectralCoefficients._on(d, grid, tables=_tables(even, odd,
                                                            nodes.size))


def _assemble(out, scale, places):
    """c's even and odd parts from the parts' transforms `out` (part, ell,
    node): each scaled by its ell's `scale` in place, the imaginary sine
    part negated, and joined by their `places` (odd?, imaginary?)."""
    out *= scale
    comps = {}
    for (odd, imag), part in zip(places, out):
        if odd and imag:            # -i sign(lam) times the real table's sine
            np.negative(part, out=part)
        comps[odd, imag] = part
    return (_join(comps.get((False, False)), comps.get((False, True))),
            _join(comps.get((True, False)), comps.get((True, True))))


def _join(re, im):
    """re + i im of two real tables either of which may be None."""
    if im is None:
        return re
    out = np.zeros(im.shape, dtype=complex)
    if re is not None:
        out.real = re
    out.imag = im
    return out


_FWD_CHUNK = 16_384
_INV_WIDTH = 2048       # distinct |lam| per synthesis chunk
# points per synthesis block within a chunk: a block shares each ell's rows
# and phase, so their cost per point falls with the block, while its
# accumulators grow
_INV_POINTS = 16
_PANEL_NODES = 24
_PANEL_WIDTH = 1.0      # panel width in |lam| times max(support_rho, support_s)
_PANEL_PROBE = 1e-13


def _on_panels(fn, nodes, width, floor):
    """fn on a Gauss-Legendre panel rule in |lam| that serves `nodes`, or
    None.

    fn maps ascending |lam| nodes to an array (part, ell, node), and
    floor (part, ell) bounds its round-off.  The rule covers
    [0, nodes[-1]] with panels at most `width` wide.  The width is halved
    until the interpolant at every panel's top edge is within _PANEL_PROBE
    of each ell's max |fn|, plus the floor, of a direct evaluation there.
    Returns (values (part, ell, panel, node), edges, x, bary): fn on the
    rule, the panels' edges, and the rule's nodes on [-1, 1] with their
    barycentric weights, which _interpolate takes.  None once the rule
    and its probes would take no fewer evaluations than nodes.size.
    """
    x, w = _leggauss(_PANEL_NODES)
    bary = (-1.0) ** np.arange(_PANEL_NODES) * np.sqrt((1.0 - x * x) * w)
    top_w = bary / (1.0 - x)                # barycentric terms at x = 1
    top_w /= top_w.sum()
    n_pan = max(1, math.ceil(nodes[-1] / width))
    while (_PANEL_NODES + 1) * n_pan < nodes.size:
        rule, _ = gauss_panels(0.0, nodes[-1], n_pan, _PANEL_NODES)
        edges = np.linspace(0.0, nodes[-1], n_pan + 1)
        vals = fn(np.concatenate([rule, edges[1:]]))
        panel = vals[:, :, :rule.size].reshape(
            vals.shape[:2] + (n_pan, _PANEL_NODES))
        miss = np.abs(np.einsum("plkj,j->plk", panel, top_w)
                      - vals[:, :, rule.size:]).max(axis=2)
        if np.all(miss <= _PANEL_PROBE * np.abs(vals).max(axis=(0, 2))
                  + floor):
            return panel, edges, x, bary
        n_pan *= 2
    return None


@dataclass(frozen=True)
class _PanelRule:
    """analyze's parts kept on its panel rule: what _on_panels returns,
    unscaled, with each ell's scale and each part's place in c, which
    _assemble applies after every interpolation."""

    values: np.ndarray
    edges: np.ndarray
    x: np.ndarray
    bary: np.ndarray
    scale: np.ndarray
    places: tuple

    def at(self, nodes):
        """c's even and odd parts at ascending |lam| nodes."""
        return _assemble(_interpolate(self.values, self.edges, self.x,
                                      self.bary, nodes),
                         self.scale, self.places)


def _interpolate(panel, edges, x, bary, nodes):
    """Barycentric Lagrange interpolation of panel values (part, ell,
    panel, node) on the panels between `edges`, at ascending `nodes` in
    [0, edges[-1]].  Each node's value is a fixed-order sum over its
    panel's nodes, so it has the same bits whichever other nodes are
    asked for with it."""
    out = np.empty(panel.shape[:2] + (nodes.size,))
    bounds = np.searchsorted(nodes, edges)
    bounds[-1] = nodes.size
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    for k in np.flatnonzero(bounds[1:] > bounds[:-1]):
        lo, hi = bounds[k], bounds[k + 1]
        diff = (nodes[lo:hi, None] - mids[k]) / half - x
        with np.errstate(divide="ignore"):
            q = bary / diff
        hit = diff == 0.0                       # a node of the rule itself
        rows = hit.any(axis=1)
        q[rows] = hit[rows]
        q /= q.sum(axis=1, keepdims=True)
        # a fixed-order sum over the panel's nodes, as in synthesize
        np.einsum("plj,rj->plr", panel[:, :, k], q, out=out[:, :, lo:hi])
    return out


def synthesize(c: SpectralCoefficients, rho, s, t: float = 0.0) -> np.ndarray:
    """Inverse transform of the flow's u(t) at points (rho, s), broadcast
    together: synthesize(evolve_schrodinger(c, t), rho, s) in one pass.

    u(t, rho, s) = (2^(d-1) / pi^(d+1)) sum over ell of
                   integral exp(i s lam) wigner_radial(ell, lam, rho)
                   exp(4 i t |lam| (2 ell + d)) c(ell, lam) |lam|^d d(lam).

    Everything but exp(i s lam) = cos(s |lam|) + i sign(lam) sin(s |lam|)
    depends on |lam| only, so each ell row stays on the distinct |lam|:
    with c+- = even +- odd there, it folds into an even row
    E = w+ c+ + w- c- and an odd row O = w+ c+ - w- c-, w+- the weight
    times |lam|^d at that sign's node, or 0 where the grid lacks it.
    Both rows take the flow's phase by angle addition: with
    beta = 4 t |lam|, exp(i beta d) at ell = 0, then one product by
    exp(2 i beta) per row, and the products add a rounding that grows
    like ell eps.  Each real component of E and O is summed over ell
    against one Laguerre sweep.

    One loop runs over fixed chunks of _INV_WIDTH distinct |lam|, and
    each chunk is closed where it is swept.  It reads c's rows there once
    through `c.rows` (on analyze's panel rule, one interpolation however
    many points there are).  Blocks of up to _INV_POINTS points then form
    every ell's rows and phase on the chunk and add them, against the
    sweep, into one (points, chunk) accumulator per real component that
    is not identically zero there (at t = 0 the imaginary ones are, and
    so is O for the bump on a mirrored grid).  No (ell, |lam|) table and no
    row over the whole grid is built.  Each point's sum over the chunk
    against exp(-|lam| rho) cos(s |lam|) (E) or sin(s |lam|) (O) is one
    fixed-order sum of its own, added to its value.  Every sum is
    elementwise or one point's and the chunk edges are fixed, so a
    point's bits do not depend on which points share its call.
    """
    d = c.d
    rho_b, s_b = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                     np.asarray(s, dtype=float))
    shape = rho_b.shape
    rho_f = rho_b.reshape(-1)
    s_f = s_b.reshape(-1)
    t = float(t)
    if not (np.isfinite(rho_f).all() and np.isfinite(s_f).all()
            and math.isfinite(t)):
        raise ValueError("rho, s and t must be finite")
    if np.any(rho_f < 0.0):
        raise ValueError("rho must be nonnegative")
    lam = c.lambda_grid
    nodes = c.nodes
    wl = c.weights * np.abs(lam) ** d
    n_neg = int(np.count_nonzero(lam < 0.0))      # lam is sorted
    # w+ and w- on the nodes: 0 where the grid lacks that sign
    w_plus = np.zeros(nodes.size)
    w_minus = np.zeros(nodes.size)
    w_minus[c._inv[:n_neg]] = wl[:n_neg]
    w_plus[c._inv[n_neg:]] = wl[n_neg:]
    beta = 4.0 * t * nodes
    const = 2.0 ** (d - 1) / math.pi ** (d + 1)
    out = np.zeros(rho_f.size, dtype=complex)
    for a in range(0, nodes.size, _INV_WIDTH):
        b = min(a + _INV_WIDTH, nodes.size)
        at = nodes[a:b]
        rows = c.rows(a, b)
        phase, step = np.exp(1j * d * beta[a:b]), np.exp(2j * beta[a:b])
        for lo in range(0, rho_f.size, _INV_POINTS):
            hi = min(lo + _INV_POINTS, rho_f.size)
            x = 2.0 * np.outer(rho_f[lo:hi], at)            # (points, |lam|)
            term = np.empty(x.shape)
            # acc[(odd?, imaginary?)]: one real component's sum over ell
            acc = {}
            for ell, (lk, comps) in enumerate(zip(
                    laguerre_sweep(c.ell_max, d - 1.0, x),
                    _flowed_rows(rows, w_plus[a:b], w_minus[a:b], phase,
                                 step))):
                for key, comp in comps:
                    if key not in acc:
                        acc[key] = np.zeros(x.shape)
                    if ell:
                        np.multiply(lk, comp, out=term)
                        acc[key] += term
                    else:                                   # L_0 = 1
                        acc[key][...] = comp
            damp = np.exp(-np.outer(rho_f[lo:hi], at))
            arg = np.outer(s_f[lo:hi], at)
            for odd, imag in sorted(acc):
                trig = damp * (np.sin(arg) if odd else np.cos(arg))
                # each point's sum on its own, in one fixed order: a BLAS
                # product would round differently with the BLAS thread
                # count, and the points of the block must not enter it
                part = np.array([np.einsum("j,j->", tr, row)
                                 for tr, row in zip(trig, acc[odd, imag])])
                # i sin(s |lam|) times the odd row: O.re into the
                # imaginary component, O.im into the real one, negated
                if odd and imag:
                    np.negative(part, out=part)
                (out.imag if odd != imag else out.real)[lo:hi] += part
        del rows        # before the next chunk's rows are read
    out *= const
    return out.reshape(shape)


def _flowed_rows(rows, wp, wm, phase, step):
    """Per ell, the nonzero real components of a chunk's even and odd rows
    E = w+ c+ + w- c- and O = w+ c+ - w- c- times the flow's phase, as a
    list of ((odd?, imaginary?), contiguous row).  `rows` are c's even
    and odd parts on the chunk, `phase` the phase at ell = 0 and `step`
    its factor from one ell to the next."""
    e_rows, o_rows = rows
    for ell in range((o_rows if e_rows is None else e_rows).shape[0]):
        e_row = None if e_rows is None else e_rows[ell]
        o_row = None if o_rows is None else o_rows[ell]
        if o_row is None:
            plus = minus = e_row
        elif e_row is None:
            plus, minus = o_row, -o_row
        else:
            plus, minus = e_row + o_row, e_row - o_row
        plus = plus * wp
        minus = minus * wm
        if ell:
            # not in place: numpy multiplies a one-element complex array
            # in place by another loop, with other bits
            phase = phase * step
        comps = []
        for odd, folded in ((False, plus + minus), (True, plus - minus)):
            if folded.any():
                folded = folded * phase
                comps += [((odd, imag), comp.copy()) for imag, comp
                          in ((False, folded.real), (True, folded.imag))
                          if comp.any()]
        yield comps


def forward_coefficient(f: RadialFunction, ell: int, lam: float,
                        n_rho: int = 256) -> complex:
    """Single transform value at one frequency, by direct quadrature: a
    Gauss rule of n_rho nodes in rho, and in s 24-node Gauss panels with
    about 2 n_s nodes, n_s being 64 more than analyze's s rule."""
    point = FrequencyPoint(ell, lam)
    d = f.d
    n_s = _default_n_s(f.support_s, abs(point.lam)) + 64
    rho, wr = gauss_panels(0.0, f.support_rho, 1, n_rho)
    # panels take O(n_s) to build, one n_s-node Gauss rule O(n_s^2); with
    # twice its nodes they meet its value to round-off
    s, ws = gauss_panels(-f.support_s, f.support_s, math.ceil(n_s / 12), 24)
    table = f.table(rho, s)
    vert = table @ (ws * np.exp(-1j * s * point.lam))
    blk = wigner_radial(point.ell, point.lam, rho, d - 1.0)
    base = math.pi ** d / math.factorial(d - 1) / multiplicity(point.ell, d)
    return complex(base * np.sum(wr * rho ** (d - 1) * blk * vert))


# ---------------------------------------------------------------------------
# Quadratic quantities

def spectral_norm_sq(c: SpectralCoefficients) -> float:
    """Squared norm in the transform domain: sum over ell of
    multiplicity(ell, d) * integral |c|^2 |lam|^d d(lam), no outside
    constant."""
    wl = c.weights * np.abs(c.lambda_grid) ** c.d
    mults = np.array([multiplicity(ell, c.d) for ell in range(c.ell_max + 1)],
                     dtype=float)
    # each signed row on its own, a fixed-order sum over lam as in
    # synthesize
    per_ell = np.array([np.einsum("j,j->", row * np.conj(row), wl)
                        for row in c._signed_rows()])
    return float(complex(mults @ per_ell).real)


def spatial_norm_sq(f: RadialFunction, n_rho: int = 256,
                    n_s: int = 512) -> float:
    """Squared L^2(H^d) norm of a radial function via its profile."""
    rho, wr = gauss_panels(0.0, f.support_rho, 1, n_rho)
    s, ws = gauss_panels(-f.support_s, f.support_s, 1, n_s)
    tf = f.table(rho, s)
    base = math.pi ** f.d / math.factorial(f.d - 1)
    inner = np.einsum("i,j,ij->", wr * rho ** (f.d - 1), ws, tf * np.conj(tf))
    return float(complex(base * inner).real)


# ---------------------------------------------------------------------------
# Diagonal evolutions

def evolve_schrodinger(c: SpectralCoefficients, t: float) -> SpectralCoefficients:
    """Unitary flow: multiply block (ell, lam) by exp(4 i t |lam| (2 ell + d)).

    The phase depends on |lam| only, so it multiplies the even and the
    odd part apart; where c has both, c(t) is even ph + sign(lam) odd ph,
    which can differ from (even + sign(lam) odd) ph in the last bit."""
    t = float(t)
    ells = np.arange(c.ell_max + 1)[:, None]
    phase = 4j * t * c.nodes[None, :] * (2 * ells + c.d)
    np.exp(phase, out=phase)
    even, odd = c.rows(0, c.nodes.size)
    # each part first: complex multiplication does not commute bitwise;
    # the odd part reads the phase before the even part overwrites it
    odd = None if odd is None else odd * phase
    even = None if even is None else np.multiply(even, phase, out=phase)
    return SpectralCoefficients(d=c.d, lambda_grid=c.lambda_grid.copy(),
                                weights=c.weights.copy(), even=even, odd=odd)


# ---------------------------------------------------------------------------
# Finite difference sublaplacian (a test oracle for the symbol)

def sublaplacian_fd(f: Callable, w: GroupPoint):
    """Second order finite difference, step h = 1e-3, for the sum of
    squared horizontal fields.  The field flows are right translations, so
    the stencil points are w . (h e_j, 0, 0) and w . (0, h e_j, 0)."""
    d = w.d
    h = 1e-3
    base = 2.0 * d * 2.0 * f(w)
    acc = -base
    for j in range(d):
        step_y = np.zeros(d)
        step_y[j] = h
        zero = np.zeros(d)
        for step, kind in ((step_y, "y"), (step_y, "eta")):
            if kind == "y":
                wp = GroupPoint(step, zero, 0.0)
            else:
                wp = GroupPoint(zero, step, 0.0)
            wm = GroupPoint(-wp.y, -wp.eta, 0.0)
            acc += f(product(w, wp)) + f(product(w, wm))
    return acc / (h * h)


# ---------------------------------------------------------------------------
# Stock profiles

def bump_profile(r0: float, d: int = 1,
                 amplitude: float = 1.0) -> RadialFunction:
    """Smooth compactly supported radial bump on H^d, peak value
    `amplitude`.

    profile = amplitude * exp(-q / (1 - q)) with q = (rho^2 + s^2) / r0^4,
    identically zero for q >= 1.  Supports are exactly r0^2 on both axes;
    the profile does not depend on d.
    """
    r0 = float(r0)
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    r4 = r0 ** 4

    def profile(rho, s):
        rho = np.asarray(rho, dtype=float)
        s = np.asarray(s, dtype=float)
        q = (rho * rho + s * s) / r4
        scalar = q.ndim == 0
        q = np.atleast_1d(q)
        out = np.zeros_like(q)
        inside = q < 1.0
        qi = q[inside]
        out[inside] = amplitude * np.exp(-qi / (1.0 - qi))
        return float(out[0]) if scalar else out

    return RadialFunction(profile=profile, support_rho=r0 ** 2,
                          support_s=r0 ** 2, d=d)
