"""Explicit solutions of the unitary flow and routes to evaluate them.

Two families of initial data:

  * LineData: transform supported on a single Laguerre index ell and one
    frequency sign, with a smooth density g on a positive band [a, b].
    The solution is one explicit oscillatory integral in the frequency,
    transported along s at speed 4 (2 ell + d) per unit time, with exact
    concentration on the hyperplane s = -sign * 4 (2 ell + d) t.

  * fourier.bump_profile: a smooth compactly supported radial bump
    (dispersive decay experiments).

Each solution can be computed three ways: the exact integral (value), the
grid transform route (spectral_coefficients + evolve + synthesize), and
group convolution of the initial data against the flow kernel.

The convolution is one quadrature sum over tau nodes, source grid nodes
and query points.  The kernel's dependence on a (query, node) pair is
bilinear in their coordinates, so for each tau node the source grid is
summed axis by axis (the s axis, then each horizontal axis) and the sum
over tau comes last; no kernel value at a single pair is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import (RadialFunction, SpectralCoefficients,
                      single_sign_lambda_grid)
from .kernels import (StripViolation, _fixed_grid_sum, _fixed_tau_rule,
                      _unitary_tau_rule)
from .quadrature import (GridSpec, _flatten_grid, gauss_panels,
                         grid_nodes_weights, integrate_adaptive)
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

        The floor is the standard bound on the rounding error of an
        n-term floating-point sum, n * eps * sum |term_k|, taken over the
        Gauss terms of the quadrature in value().  Where |u| comes within
        a few multiples of it, the computed value is rounding noise."""
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
        gv = self.density(mu) * mu ** self.d * wm
        out = np.empty(rho_f.size, dtype=complex)
        abs_sum = np.empty(rho_f.size)
        chunk = 2048
        for lo in range(0, rho_f.size, chunk):
            hi = min(lo + chunk, rho_f.size)
            x = 2.0 * np.outer(rho_f[lo:hi], mu)
            lag = laguerre_table(self.ell, self.d - 1.0, x)[self.ell]
            damp = np.exp(-np.outer(rho_f[lo:hi], mu))
            phase = np.exp(1j * np.outer(omega[lo:hi], mu))
            out[lo:hi] = (phase * damp * lag) @ gv
            # gv >= 0, damp > 0 and |phase| = 1
            abs_sum[lo:hi] = (damp * np.abs(lag)) @ gv
        floor = np.finfo(float).eps * mu.size * abs_sum
        out = out.reshape(shape)
        floor = floor.reshape(shape)
        if shape == ():
            return complex(out), float(floor)
        return out, floor

    def value_adaptive(self, t: float, rho: float, s: float,
                       tol: float = 1e-12) -> complex:
        """Same integral by adaptive panels; the independent route."""
        rho = float(rho)
        s = float(s)
        omega = self.lambda_sign * s + self.drift(t)
        a, b = self.band

        def f(mu):
            mu = np.atleast_1d(np.asarray(mu, dtype=float))
            lag = laguerre_table(self.ell, self.d - 1.0, 2.0 * rho * mu)
            return (np.exp(1j * omega * mu - rho * mu) * lag[self.ell]
                    * self.density(mu) * mu ** self.d)

        width = 6.0 * math.pi / max(1.0, abs(omega))
        val, _ = integrate_adaptive(f, a, b, tol, max_panels=20000,
                                    max_panel_width=width)
        return complex(val)

    # -- transform route ---------------------------------------------------

    def spectral_coefficients(self, n: int = 1025) -> SpectralCoefficients:
        """Exact coefficient rows on a Simpson grid over the band.

        The density is placed on row ell with the inversion constant
        pi^(d+1) / 2^(d-1), so that synthesize() reproduces value(0, .)."""
        a, b = self.band
        grid, weights = single_sign_lambda_grid(a, b, n, self.lambda_sign)
        values = np.zeros((self.ell + 1, grid.size), dtype=complex)
        const = math.pi ** (self.d + 1) / 2.0 ** (self.d - 1)
        values[self.ell, :] = const * self.density(np.abs(grid))
        return SpectralCoefficients(d=self.d, lambda_grid=grid,
                                    weights=weights, values=values)

    def time_zero_trace(self) -> RadialFunction:
        """The initial data as a RadialFunction with scanned honest supports."""
        if "trace" not in self._cache:
            peak = abs(self.value(0.0, 0.0, 0.0))
            floor = 0.5e-12 * max(1.0, peak)
            a, b = self.band
            mu, wm = gauss_panels(a, b, 16, 24)
            gv = self.density(mu) * mu ** self.d * wm

            def radial_bound(rho):
                lag = laguerre_table(self.ell, self.d - 1.0,
                                     2.0 * rho * mu)[self.ell]
                return float(np.sum(gv * np.exp(-rho * mu) * np.abs(lag)))

            rho_sup = 1.0
            while radial_bound(rho_sup) > floor:
                rho_sup *= 1.3
                if rho_sup > 1e5:
                    raise RuntimeError("radial support scan ran away")

            rho_scan = np.linspace(0.0, rho_sup, 48)
            s_sup = 1.0
            below = 0
            while below < 3:
                vals = self.value(0.0, rho_scan, np.full_like(rho_scan, s_sup))
                vneg = self.value(0.0, rho_scan, np.full_like(rho_scan, -s_sup))
                m = max(float(np.max(np.abs(vals))),
                        float(np.max(np.abs(vneg))))
                below = below + 1 if m < floor else 0
                s_sup *= 1.18
                if s_sup > 1e6:
                    raise RuntimeError(
                        "vertical support scan ran away; density too rough")
            self._cache["trace"] = RadialFunction(
                profile=lambda r, s: self.value(0.0, r, s),
                support_rho=rho_sup, support_s=s_sup, d=self.d)
        return self._cache["trace"]


@dataclass
class ConcentrationProbe:
    s_star: float
    moving: np.ndarray
    stationary: np.ndarray


def concentration_probe(data: LineData, t: float,
                        rho_values=(0.0, 0.4, 1.1)) -> ConcentrationProbe:
    """Exact concentration identity u(t, Y, s*) = u(0, Y, 0).

    The moving side uses the fixed-grid route, the stationary side the
    adaptive route, so agreement is a real two-route check."""
    rho_values = np.asarray(rho_values, dtype=float)
    s_star = data.concentration_point(t)
    moving = data.value(t, rho_values, np.full_like(rho_values, s_star))
    stationary = np.array([data.value_adaptive(0.0, r, 0.0)
                           for r in rho_values])
    return ConcentrationProbe(s_star=s_star, moving=np.atleast_1d(moving),
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


def hyperplane_decay_exponent(data: LineData, t: float, rho: float = 0.0,
                              n_points: int = 7) -> DecayFit:
    """Fitted decay rate of |u(t)| in the distance to the moving hyperplane.

    Samples the envelope of |u| at geometrically spaced offsets from the
    hyperplane and least-squares fits log |u| = c - e * log(offset).
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
            t, np.full_like(local, rho), s_star + data.lambda_sign * local)
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

def convolution_grid(u0: RadialFunction, n: int = 48) -> GridSpec:
    """Default box covering the support of u0, n nodes per axis."""
    rh = math.sqrt(u0.support_rho)
    axes = [(-rh, rh, n)] * (2 * u0.d) + [(-u0.support_s, u0.support_s, n)]
    return GridSpec(tuple(axes))


# tau nodes per block of the factorized sum; its axis factors are arrays
# of (block, queries, nodes per axis), so the block size bounds peak memory.
_TAU_BLOCK = 32


def _pair_extent(points, vy, veta, vs, take):
    """max |s| and max rho over all (query, node) pairs, a query at a
    time, and the rho, s of the pairs at the query-major indices take."""
    d = vy.shape[1]
    n = vs.size
    probe_q, probe_k = np.divmod(take, n)
    rho_p = np.empty(take.size)
    s_p = np.empty(take.size)
    smax = rho_max = 0.0
    for j, wp in enumerate(points):
        if wp.d != d:
            raise ValueError("query point dimension mismatch")
        dy = wp.y[None, :] - vy
        de = wp.eta[None, :] - veta
        rho = np.sum(dy * dy, axis=1) + np.sum(de * de, axis=1)
        s = (wp.s - vs - 2.0 * (veta @ wp.y) + 2.0 * (vy @ wp.eta))
        smax = max(smax, float(np.max(np.abs(s))))
        rho_max = max(rho_max, float(np.max(rho)))
        hit = probe_q == j
        rho_p[hit] = rho[probe_k[hit]]
        s_p[hit] = s[probe_k[hit]]
    return smax, rho_max, rho_p, s_p


def _factorized_sum(d, z, tau, wt, nodes, amp, points):
    """sum over tau, grid nodes v of wt exp(L + c (i tau s - g rho)) amp_v
    at every query w, with (rho, s) those of the pair (w, v), summed in
    the order given in evolve_by_convolution.  amp is the amplitude
    tensor on the grid with axes nodes (y_1..y_d, eta_1..eta_d, s)."""
    c = 1.0 / (2.0 * z)
    h_nodes, s_nodes = nodes[:-1], nodes[-1]
    h_shape = amp.shape[:-1]
    amp_h = amp.reshape(-1, s_nodes.size)
    mesh = np.meshgrid(*h_nodes, indexing="ij")
    rho_h = sum(x * x for x in mesh).reshape(-1)
    qy = np.array([wp.y for wp in points])
    qeta = np.array([wp.eta for wp in points])
    qs = np.array([wp.s for wp in points])
    qrho = np.sum(qy * qy, axis=1) + np.sum(qeta * qeta, axis=1)
    # the node coordinate on axis y_k meets (g y_k + i tau eta_k) of the
    # query, on axis eta_k it meets (g eta_k - i tau y_k)
    pairing = ([(qy[:, k], 1j * qeta[:, k]) for k in range(d)]
               + [(qeta[:, k], -1j * qy[:, k]) for k in range(d)])
    big_l = sinh_ratio_log(tau, d)
    g = tau_over_tanh2(tau)
    out = np.zeros(len(points), dtype=complex)
    for lo in range(0, tau.size, _TAU_BLOCK):
        blk = slice(lo, lo + _TAU_BLOCK)
        tb, gb = tau[blk], g[blk]
        m = tb.size
        # the s axis, for all queries at once, then exp(-c g rho_v)
        part = np.exp(-1j * c * np.outer(tb, s_nodes)) @ amp_h.T
        part *= np.exp(-c * np.outer(gb, rho_h))
        part = part.reshape((m,) + h_shape)
        # the horizontal axes, each against its (m, P, n_k) factors
        for k, x in enumerate(h_nodes):
            same, cross = pairing[k]
            coef = np.outer(gb, same) + np.outer(tb, cross)
            fac = np.exp(2.0 * c * coef[:, :, None] * x)
            if k == 0:      # one batched matmul over the block
                part = np.matmul(fac, part.reshape(m, x.size, -1)).reshape(
                    (m, len(points)) + h_shape[1:])
            else:
                part = np.einsum("jpx,jpx...->jp...", fac, part)
        query = wt[blk, None] * np.exp(
            big_l[blk, None] + c * (1j * np.outer(tb, qs)
                                    - np.outer(gb, qrho)))
        out += np.sum(query * part, axis=0)
    return out


def evolve_by_convolution(u0: RadialFunction, t: float, points,
                          spec: GridSpec | None = None, tol: float = 1e-6):
    """u(t) at GroupPoints by convolving u0 with the unitary flow kernel.

    u(t, w) = integral of u0(v) S_t(v^{-1} . w) over the support box of
    u0, by the tensor rule of spec and the tau rule schrodinger_batch
    picks for the (query, node) pairs.  Nodes where u0 is below 1e-16 of
    its peak are dropped.  Every kept pair must satisfy the kernel strip
    condition, checked up front; StripViolation otherwise.

    Order of summation: with c = 1/(2z), z = -it, g = tau/tanh 2tau and
    L = log (2tau/sinh 2tau)^d, the pair quantities split as
    rho = rho_w + rho_v - 2 (y_w.y_v + eta_w.eta_v) and
    s = s_w - s_v + 2 (y_v.eta_w - eta_v.y_w).  So for each tau node the
    source grid is summed one axis at a time: the s axis first against
    exp(-c i tau s_v) (one matmul for all queries), then the factor
    exp(-c g rho_v), then the 2d horizontal axes for each query against
    exp(2c y_v (g y_w + i tau eta_w)) and exp(2c eta_v (g eta_w - i tau
    y_w)).  The query factor w_tau exp(L + c (i tau s_w - g rho_w)) and
    the sum over tau come last.  This is the quadrature sum of the
    pair-by-pair kernel, reordered; it costs about
    m (N + P n^(2d)) for m tau nodes, N grid nodes, P queries and n
    nodes per axis, against P N m exponentials pair by pair.

    The error bound is the kernel error, estimated on 8 pairs by halving
    the panel width, times the l1 norm of the node amplitudes.  Returns
    (values, err_bound)."""
    if spec is None:
        spec = convolution_grid(u0)
    d = u0.d
    if len(spec.axes) != 2 * d + 1:
        raise ValueError("the grid needs 2 d + 1 axes")
    pts, w = _flatten_grid(spec)
    vy, veta, vs = pts[:, :d], pts[:, d:2 * d], pts[:, 2 * d]
    rho_v = np.sum(vy * vy, axis=1) + np.sum(veta * veta, axis=1)
    u0v = np.asarray(u0.profile(rho_v, vs))
    amp = w * u0v
    keep = np.abs(u0v) > 1e-16 * float(np.max(np.abs(u0v)))

    points = list(points)
    n_pairs = len(points) * int(np.count_nonzero(keep))
    take = np.linspace(0, n_pairs - 1, min(8, n_pairs)).astype(int)
    smax, rho_max, rho_p, s_p = _pair_extent(points, vy[keep], veta[keep],
                                             vs[keep], take)
    band = 4.0 * d * abs(float(t))
    if smax >= band:
        raise StripViolation(
            "translated grid node reaches |s| = %g >= strip %g; "
            "grow t or shrink the box" % (smax, band))
    z, t_cut, width = _unitary_tau_rule(d, float(t), smax, rho_max, tol)
    pref = (4.0 * math.pi * z) ** (-(d + 1))
    coarse = pref * _fixed_grid_sum(d, z, rho_p, s_p, t_cut, width)
    finer = pref * _fixed_grid_sum(d, z, rho_p, s_p, t_cut, 0.5 * width)
    kerr = max(float(np.max(np.abs(finer - coarse))),
               1e-16 * float(np.max(np.abs(coarse))))

    nodes, _ = grid_nodes_weights(spec)
    tau, wt = _fixed_tau_rule(t_cut, width)
    amp_grid = np.where(keep, amp, 0.0).reshape([x.size for x in nodes])
    values = pref * _factorized_sum(d, z, tau, wt, nodes, amp_grid, points)
    err = kerr * float(np.sum(np.abs(amp[keep])))
    return values, err
