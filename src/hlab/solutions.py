"""Explicit solutions of the unitary flow and routes to evaluate them.

Two families of initial data:

  * LineData: transform supported on a single Laguerre index ell and one
    frequency sign, with a smooth density g on a positive band [a, b].
    The solution is one explicit oscillatory integral in the frequency,
    transported along s at speed 4 (2 ell + d) per unit time, with exact
    concentration on the hyperplane s = -sign * 4 (2 ell + d) t.

  * fourier.bump_profile: a smooth compactly supported radial bump
    (dispersive decay experiments).

LineData is computed two ways: the exact integral (value, and
value_adaptive as the independent route) and the grid transform route
(spectral_coefficients, then synthesize at time t).  The bump is evolved
by group convolution against the flow kernel (evolve_by_convolution) and
by the transform route.

The convolution sums over tau nodes and a Simpson rule in (|Y_v|^2, s_v)
of the source: at each tau node the kernel's average over a horizontal
sphere is a short 0F1 series (see evolve_by_convolution).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fourier import (RadialFunction, SpectralCoefficients,
                      single_sign_lambda_grid)
from .kernels import _fixed_tau_rule, _unitary_tau_rule
from .quadrature import (GridSpec, _leggauss, _panel_mids, along_rows,
                         gauss_panels, grid_nodes_weights,
                         integrate_adaptive)
from .special import laguerre_table, sinh_ratio_log, tau_over_tanh2


@dataclass
class LineData:
    """Initial data living on one Laguerre line of the transform.

    ell         : Laguerre index of the line
    lambda_sign : +1 or -1, the frequency half-line carrying the density
    band        : (a, b), 0 < a < b, support of the density g
    profile     : "bump" (C-infinity, superpolynomial transport decay) or
                  "hat" (tent; solution decays like the inverse square of
                  the distance to the moving hyperplane)
    """

    ell: int = 0
    lambda_sign: int = 1
    d: int = 1
    band: tuple = (1.0, 2.0)
    profile: str = "bump"
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.ell = int(self.ell)
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")
        self.lambda_sign = int(self.lambda_sign)
        if self.lambda_sign not in (1, -1):
            raise ValueError("lambda_sign must be +1 or -1")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        a, b = float(self.band[0]), float(self.band[1])
        if not (0.0 < a < b):
            raise ValueError("band must satisfy 0 < a < b")
        self.band = (a, b)
        if self.profile not in ("bump", "hat"):
            raise ValueError("profile must be 'bump' or 'hat'")

    # -- density -----------------------------------------------------------

    def raw_density(self, mu):
        mu = np.asarray(mu, dtype=float)
        a, b = self.band
        if self.profile == "bump":
            out = np.zeros_like(mu)
            inside = (mu > a) & (mu < b)
            mi = mu[inside]
            out[inside] = np.exp(-1.0 / ((mi - a) * (b - mi)))
            return out
        mid = 0.5 * (a + b)
        halfw = 0.5 * (b - a)
        return np.maximum(0.0, 1.0 - np.abs(mu - mid) / halfw)

    def _mass(self) -> float:
        if "mass" not in self._cache:
            a, b = self.band
            # The tolerance tracks the round-off floor of the mass itself,
            # which a wide band lifts above any fixed absolute target.
            mu, wm = gauss_panels(a, b, 16, 24)
            rough = abs(float(np.sum(self.raw_density(mu) * wm)))
            tol = max(1e-14, 64.0 * np.finfo(float).eps * rough)
            val, _ = integrate_adaptive(self.raw_density, a, b, tol)
            self._cache["mass"] = float(val.real)
        return self._cache["mass"]

    def density(self, mu):
        """g(mu), normalized to unit integral over the band."""
        return self.raw_density(mu) / self._mass()

    # -- the solution ------------------------------------------------------

    def drift(self, t: float) -> float:
        return 4.0 * float(t) * (2 * self.ell + self.d)

    def concentration_point(self, t: float) -> float:
        """s coordinate of the concentration hyperplane at time t."""
        return -self.lambda_sign * self.drift(t)

    def value(self, t: float, rho, s):
        """u(t) at (rho, s), broadcast over the two arguments.

        u(t, rho, s) = integral over [a, b] of
            exp(i mu (sign s + 4 t (2 ell + d)))
            exp(-mu rho) L_ell^(d-1)(2 mu rho) g(mu) mu^d d(mu).
        """
        return self.value_with_floor(t, rho, s)[0]

    def value_with_floor(self, t: float, rho, s):
        """value(t, rho, s) and the round-off floor of each value.

        The mu rule is gauss_panels: node k of panel p sits at
        mu = m_p + H x_k, so the phase factors as
        exp(i omega mu) = exp(i omega m_p) exp(i omega H x_k), with
        omega = sign s + 4 t (2 ell + d).  Each point takes the sum over
        k within each panel against its row h = exp(-mu rho)
        L_ell^(d-1)(2 mu rho) g(mu) mu^d w, then the sum over panels:
        P + 24 complex exponentials per point instead of one per node.
        Both sums are einsums in a fixed order, so the bits do not depend
        on the BLAS thread count.

        The floor bounds the rounding of the n-term Gauss sum and of the
        phase argument, which is off by up to eps |omega| b at mu = b:
        eps (n + |omega| b) sum |term_k|.  Where |u| comes within a few
        multiples of it, the computed value is rounding noise."""
        rho_b, s_b = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                         np.asarray(s, dtype=float))
        shape = rho_b.shape
        rho_f = rho_b.reshape(-1)
        s_f = s_b.reshape(-1)
        if np.any(rho_f < 0.0):
            raise ValueError("rho must be nonnegative")
        a, b = self.band
        omega = self.lambda_sign * s_f + self.drift(t)
        osc = float(np.max(np.abs(omega))) * (b - a) if omega.size else 0.0
        n_panels = max(11, int(math.ceil(osc / (6.0 * math.pi))))
        mu, wm = gauss_panels(a, b, n_panels, 24)
        mids, half = _panel_mids(a, b, n_panels)
        x, _ = _leggauss(24)
        gv = self.density(mu) * mu ** self.d * wm
        # the damping and the Laguerre row depend on rho only: once per
        # distinct rho (hyperplane_decay_exponent passes one for all)
        rho_u, inv = np.unique(rho_f, return_inverse=True)
        lag = laguerre_table(self.ell, self.d - 1.0,
                             2.0 * np.outer(rho_u, mu))[self.ell]
        damp = np.exp(-np.outer(rho_u, mu))
        h = (damp * lag * gv).reshape(rho_u.size, n_panels, 24)
        across = np.exp(1j * np.outer(omega, mids))         # (points, P)
        within = np.exp(1j * np.outer(omega * half, x))     # (points, 24)
        out = np.empty(rho_f.size, dtype=complex)
        for u in range(rho_u.size):
            j = np.flatnonzero(inv == u)
            inner = np.einsum("jk,pk->jp", within[j], h[u])
            out[j] = np.einsum("jp,jp->j", across[j], inner)
        # gv >= 0, damp > 0 and |phase| = 1
        abs_sum = np.einsum("uk,k->u", damp * np.abs(lag), gv)[inv]
        floor = (np.finfo(float).eps * (mu.size + np.abs(omega) * b)
                 * abs_sum)
        out = out.reshape(shape)
        floor = floor.reshape(shape)
        if shape == ():
            return complex(out), float(floor)
        return out, floor

    def value_adaptive(self, t: float, rho, s, tol: float = 1e-12):
        """Same integral by adaptive panels; the independent route.

        Broadcast over rho and s like value(); the points are integrated
        as one lockstep batch, each with the bits of its lone run."""
        rho_b, s_b = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                         np.asarray(s, dtype=float))
        rho_f = rho_b.reshape(-1)
        omega = np.array([self.lambda_sign * float(v) + self.drift(t)
                          for v in s_b.reshape(-1)])
        a, b = self.band

        def f(mu, member):
            r = along_rows(rho_f, member, mu)
            lag = laguerre_table(self.ell, self.d - 1.0, 2.0 * r * mu)
            return (np.exp(1j * along_rows(omega, member, mu) * mu - r * mu)
                    * lag[self.ell] * self.density(mu) * mu ** self.d)

        width = [6.0 * math.pi / max(1.0, abs(w)) for w in omega]
        val, _ = integrate_adaptive(f, a, b, tol, max_panels=20000,
                                    max_panel_width=width,
                                    members=rho_f.size)
        if rho_b.ndim == 0:
            return complex(val[0])
        return val.reshape(rho_b.shape)

    # -- transform route ---------------------------------------------------

    def spectral_coefficients(self, n: int = 1025) -> SpectralCoefficients:
        """Exact coefficient rows on a Simpson grid over the band.

        The density is placed on row ell with the inversion constant
        pi^(d+1) / 2^(d-1), so that synthesize() reproduces value(0, .)."""
        a, b = self.band
        grid, weights = single_sign_lambda_grid(a, b, n, self.lambda_sign)
        even = np.zeros((self.ell + 1, grid.size))
        const = math.pi ** (self.d + 1) / 2.0 ** (self.d - 1)
        # the even part's columns run over ascending |lam|: on the negative
        # half-line, against the grid
        even[self.ell, :] = const * self.density(
            np.abs(grid)[::self.lambda_sign])
        return SpectralCoefficients(d=self.d, lambda_grid=grid,
                                    weights=weights, even=even)


@dataclass
class ConcentrationProbe:
    s_star: float
    rho: np.ndarray
    moving: np.ndarray
    stationary: np.ndarray


def concentration_probe(data: LineData, t: float) -> ConcentrationProbe:
    """Exact concentration identity u(t, Y, s*) = u(0, Y, 0) at
    rho = |Y|^2 = 0, 0.4 and 1.1.

    The moving side uses the fixed-grid route, the stationary side the
    adaptive route, so agreement is a real two-route check."""
    rho = np.array([0.0, 0.4, 1.1])
    s_star = data.concentration_point(t)
    moving = data.value(t, rho, np.full_like(rho, s_star))
    stationary = data.value_adaptive(0.0, rho, 0.0)
    return ConcentrationProbe(s_star=s_star, rho=rho,
                              moving=np.atleast_1d(moving),
                              stationary=stationary)


@dataclass
class DecayFit:
    """Result of hyperplane_decay_exponent.

    exponent : fitted rate e in |u| ~ offset^(-e)
    n_used   : envelope samples that cleared the round-off floor
    n_points : envelope samples taken
    roundoff : bound on the change in exponent that the samples'
               round-off floors can cause
    """

    exponent: float
    n_used: int
    n_points: int
    roundoff: float

    @property
    def lower_bound(self) -> bool:
        """True when far samples were dropped, so the fit covers only the
        near offsets and the exponent bounds the far-field rate from
        below (a superpolynomial envelope steepens with the offset)."""
        return self.n_used < self.n_points


# A sample is kept only if it lies this many round-off floors above zero,
# so at most a 1e-3 relative error reaches its logarithm.
_FLOOR_MARGIN = 1e3


def hyperplane_decay_exponent(data: LineData, t: float,
                              n_points: int = 7) -> DecayFit:
    """Fitted decay rate of |u(t)| in the distance to the moving hyperplane.

    Samples the envelope of |u| on the axis rho = 0 at geometrically
    spaced offsets from the hyperplane and least-squares fits
    log |u| = c - e * log(offset).
    Each envelope sample is the maximum over a window wide enough to
    contain a full period of the kink-phase realignment, and the fit uses
    the offset where the maximum was attained, so piecewise smooth
    densities measure their true algebraic rate.

    Each sample carries the round-off floor of its quadrature sum (see
    LineData.value_with_floor).  Samples within _FLOOR_MARGIN floors of
    zero are rounding noise whose size grows with the panel count, not
    with the solution, so they are dropped; the fit uses the rest and
    the result records how many.  The reported roundoff is the first
    order bound sum_i |c_i| floor_i / env_i, with c_i the least-squares
    slope weights, on what those floors can move the exponent.
    ValueError if fewer than two samples clear the floor."""
    offsets = 64.0 * 2.0 ** np.arange(n_points)
    s_star = data.concentration_point(t)
    xs = np.empty(n_points)
    env = np.empty(n_points)
    floor = np.empty(n_points)
    for i, delta in enumerate(offsets):
        local = delta * np.linspace(0.82, 1.22, 161)
        vals, floors = data.value_with_floor(
            t, np.zeros_like(local), s_star + data.lambda_sign * local)
        vals = np.abs(vals)
        j = int(np.argmax(vals))
        xs[i] = local[j]
        env[i] = float(vals[j])
        floor[i] = float(floors[j])
    keep = env >= _FLOOR_MARGIN * floor
    n_used = int(np.count_nonzero(keep))
    if n_used < 2:
        raise ValueError("only %d of %d envelope samples clear the round-off "
                         "floor; no decay rate can be fitted"
                         % (n_used, n_points))
    logx = np.log(xs[keep])
    slope = np.polyfit(logx, np.log(env[keep]), 1)[0]
    centered = logx - np.mean(logx)
    weights = np.abs(centered) / np.sum(centered ** 2)
    roundoff = float(np.sum(weights * floor[keep] / env[keep]))
    return DecayFit(exponent=float(-slope), n_used=n_used,
                    n_points=n_points, roundoff=roundoff)


# ---------------------------------------------------------------------------
# Convolution route

# Simpson nodes on each axis of the (rho_v, s_v) source rule
_N_SOURCE = 129

# tau nodes per block of the radial sum; its arrays are (block, source
# nodes per axis) and (block, queries), so the block size bounds memory
_TAU_BLOCK = 128


def convolution_grid(u0: RadialFunction) -> GridSpec:
    """The source rule of evolve_by_convolution: _N_SOURCE Simpson nodes
    on rho_v = |Y_v|^2 in [0, support_rho] and on s_v in +-support_s."""
    return GridSpec(((0.0, u0.support_rho, _N_SOURCE),
                     (-u0.support_s, u0.support_s, _N_SOURCE)))


def _source_table(u0: RadialFunction, spec: GridSpec):
    """Nodes rho_v, s_v of spec and the table (pi^d / (d-1)!) W
    rho_v^(d-1) u0(rho_v, s_v) over them, rho_v along axis 0: the
    integral of a radial f against u0 over H^d is sum table * f."""
    d = u0.d
    (rho, s), (wr, ws) = grid_nodes_weights(spec)
    const = math.pi ** d / math.factorial(d - 1)
    horizontal = const * wr * rho ** (d - 1)
    return rho, s, horizontal[:, None] * ws[None, :] * u0.table(rho, s)


def _radial_sum(d, t, tau, wt, source, support_s, qrho, qs, series):
    """sum over tau nodes of wt exp(L + c (i tau s_w - g rho_w)) times
    sum_k series_k x^k rho_w^k M_k at the queries (qrho, qs), with the
    moments M_k of the source table; see evolve_by_convolution."""
    rho_v, s_v, table = source
    a = 0.5 / t                             # c = 1 / (2z) = i a
    ks = np.arange(series.size)
    rho_v_pow = rho_v[:, None] ** ks
    qrho_pow = qrho[None, :] ** ks[:, None]
    half_log = sinh_ratio_log(tau, 1.0)     # log(2 tau / sinh 2 tau)
    g = tau_over_tanh2(tau)
    x = -(a * a) * np.exp(2.0 * half_log) / 4.0
    shift = support_s * abs(a) * np.abs(tau)
    out = np.zeros(qrho.size, dtype=complex)
    for lo in range(0, tau.size, _TAU_BLOCK):
        blk = slice(lo, lo + _TAU_BLOCK)
        tb, gb = tau[blk], g[blk]
        # exp(-c i tau s_v) = exp(a tau s_v) is real; exp(-shift), moved
        # here from the query factor, keeps it at most 1
        grow = np.exp(a * np.outer(tb, s_v) - shift[blk, None])
        rows = (grow @ table.T) * np.exp(-1j * a * np.outer(gb, rho_v))
        # complex times real as two real products: a complex BLAS product
        # rounds differently with the BLAS thread count
        moments = (rows.real @ rho_v_pow + 1j * (rows.imag @ rho_v_pow)
                   ) * series * x[blk, None] ** ks
        query = wt[blk, None] * np.exp(
            d * half_log[blk, None] + shift[blk, None]
            - a * np.outer(tb, qs) - 1j * a * np.outer(gb, qrho))
        out += np.sum(query * (moments.real @ qrho_pow
                               + 1j * (moments.imag @ qrho_pow)), axis=0)
    return out


@dataclass
class Convolution:
    """Result of evolve_by_convolution.

    values : u(t) at the query points, summed when the call returns
    err    : bound on the error of values, summed from the two probes the
             first time it is read and kept for later reads; the probes,
             and the source tables they hold, are dropped then
    """

    values: np.ndarray
    probes: Callable[[], float] | None = field(repr=False)

    @functools.cached_property
    def err(self) -> float:
        err, self.probes = self.probes(), None
        return err


def evolve_by_convolution(u0: RadialFunction, t: float, points, *,
                          tol: float = 1e-6) -> Convolution:
    """u(t) at GroupPoints by convolving u0 with the unitary flow kernel.

    u(t, w) = integral of u0(v) S_t(v^{-1} . w) dv, where S_t(rho, s) is
    pref times the integral over tau of exp(L + c (i tau s - g rho)),
    with z = -it, c = 1/(2z), g = tau/tanh 2tau, L = log (2tau/sinh 2tau)^d
    and pref = (4 pi z)^(-(d+1)).  A pair has rho = rho_w + rho_v -
    2 Y_w.Y_v and s = s_w - s_v + 2 Y_v.J Y_w, so at each tau the sphere
    |Y_v|^2 = rho_v averages exp(B.Y_v), B = 2c (g Y_w + i tau J Y_w), to
    0F1(; d; x rho_w rho_v) with x = c^2 (g^2 - tau^2), as Y_w.J Y_w = 0;
    here x = -tau^2 / (4 t^2 sinh^2 2tau), real and >= -1/(16 t^2).  So

        u(t, w) = pref sum_tau w_tau exp(L + c (i tau s_w - g rho_w))
                  sum_k x^k rho_w^k M_k(tau) / ((d)_k k!),
        M_k(tau) = (pi^d/(d-1)!) sum W rho_v^(d-1+k) u0(rho_v, s_v)
                   exp(-c (i tau s_v + g rho_v))

    on the Simpson rule (weights W) of convolution_grid: a matmul over
    s_v, the moments, then the series at each query, which enters only
    through (rho_w, s_w) = (|Y_w|^2, s_w).  The series stops at the first
    term whose bound X^k / ((d)_k k!), X = max |x rho_w rho_v|, is below
    1e-17; inside the strip X < d^2/4.

    Every pair has |s| <= max |s_w| + S + 2 sqrt(max rho_w R) and
    rho <= (sqrt(max rho_w) + sqrt(R))^2, S and R the supports of u0.
    The tau rule is _unitary_tau_rule's for these bounds: ZeroTime at
    t = 0, StripViolation (kernels._strip_rate's) if the first reaches
    the strip 4 d |t|, and QuadratureError if the rule, or its halved
    probe, would take over MAX_PANELS panels a side.  Both rules are
    built before the call returns, so that refusal does not wait for err.

    Returns a Convolution.  Its values are the one radial sum above.  Its
    err adds the change when the tau panels are halved and the change on
    the every-other-node source sub-rule, plus 1e-16 max |values|; those
    two probe sums, about 1.8 and 0.7 times the cost of the values, run
    only when err is first read."""
    d = u0.d
    t = float(t)
    points = list(points)
    if any(wp.d != d for wp in points):
        raise ValueError("query point dimension mismatch")
    qrho = np.array([wp.horizontal_sq() for wp in points])
    qs = np.array([wp.s for wp in points])
    rho_w = float(np.max(qrho))
    big_r, big_s = u0.support_rho, u0.support_s
    smax = float(np.max(np.abs(qs))) + big_s + 2.0 * math.sqrt(rho_w * big_r)
    rho_max = (math.sqrt(rho_w) + math.sqrt(big_r)) ** 2
    z, t_cut, width = _unitary_tau_rule(d, t, smax, rho_max, tol)
    pref = (4.0 * math.pi * z) ** (-(d + 1))
    rule = _fixed_tau_rule(t_cut, width)
    halved = _fixed_tau_rule(t_cut, 0.5 * width)

    big_x = rho_w * big_r / (16.0 * t * t)
    series = [1.0]                          # 1 / ((d)_k k!)
    while series[-1] * big_x ** (len(series) - 1) > 1e-17:
        k = len(series)
        series.append(series[-1] / ((d + k - 1) * k))
    series = np.array(series)

    spec = convolution_grid(u0)
    full = _source_table(u0, spec)

    def radial_sum(tau_rule, source):
        return pref * _radial_sum(d, t, *tau_rule, source, big_s, qrho, qs,
                                  series)

    values = radial_sum(rule, full)

    def probes():
        sub = _source_table(u0, GridSpec(tuple((lo, hi, n // 2 + 1)
                                               for lo, hi, n in spec.axes)))
        return (float(np.max(np.abs(radial_sum(halved, full) - values)))
                + float(np.max(np.abs(radial_sum(rule, sub) - values)))
                + 1e-16 * float(np.max(np.abs(values))))

    return Convolution(values, probes)
