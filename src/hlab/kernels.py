"""Flow kernels on H^d in closed oscillatory-integral form.

Every kernel here is a function of rho = |Y|^2 and s evaluated by one
integral over a real line variable tau:

    (4 pi z)^(-(d+1)) * integral of
        (2 tau / sinh 2 tau)^d  exp( i tau s / (2z) - rho tau_over_tanh2 / (2z) )

with z = t for heat, z = -i t for the unitary flow, and general z in the
closed right half plane in between.  The integrand magnitude is controlled
by exp((2d) |tau|) times the exponential factors, which yields the strip
condition of _strip_rate, the one strip test; outside the strip the
integral has no exponential envelope and every evaluator refuses to run.

The Laguerre series of _series_kernel (Thangavelu 1998) gives heat and,
from level ell on, restricted kernels.  It has no strip: at z = -it it is
finite unless rho = 0 and |s| is a quantized height 4 |t| (2 ell + d).
Its tail rule also sums the dispersion constants over the levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import backend
from .quadrature import (MAX_PANELS, Integrand1D, QuadratureError, _leggauss,
                         _per_member, along_rows, gauss_panels,
                         integrate_exponential_tail, tail_cutoff)
from .special import (TruncationBudget, laguerre_table, sinh_ratio_log,
                      tau_over_tanh2)


class StripViolation(Exception):
    """Query point outside the strip where the kernel integral converges."""


class ZeroTime(ValueError):
    """Flow kernels are undefined at t = 0."""


class SingularPoint(ValueError):
    """Unitary kernel queried where it is infinite: rho = 0 on a height."""


class BudgetExhausted(Exception):
    """Series budget ran out; carries partial value, error and term count."""

    def __init__(self, message, value=None, err=None, terms=None):
        super().__init__(message)
        self.value = value
        self.err = err
        self.terms = terms


@dataclass
class KernelQuery:
    """One kernel evaluation request.

    t_or_z : real time (heat and unitary flows) or complex time z
    rho    : |Y|^2 >= 0
    s      : vertical coordinate
    tol    : absolute tolerance on the returned value (None: 1e-8)
    """

    d: int = 1
    t_or_z: complex = 1.0
    rho: float = 0.0
    s: float = 0.0
    tol: float | None = None

    def __post_init__(self):
        self.d = int(self.d)
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        self.rho = float(self.rho)
        if self.rho < 0.0:
            raise ValueError("rho = |Y|^2 must be nonnegative")
        self.s = float(self.s)
        if self.tol is not None and not self.tol > 0.0:
            raise ValueError("tol must be positive")

    @property
    def t(self) -> float:
        z = complex(self.t_or_z)
        if z.imag != 0.0:
            raise ValueError("this operation needs a real time")
        return z.real

    @property
    def z(self) -> complex:
        return complex(self.t_or_z)


@dataclass
class KernelValue:
    """value plus an error bound and the tau truncation point (for series
    evaluations, the number of terms actually summed)."""

    value: complex
    quad_error: float
    truncation_point: float


_DEFAULT_TOL = 1e-8


def _strip_rate(d: int, z: complex, rho: float, s: float) -> float:
    """Rate r > 0 of the integrand's envelope exp(-r |tau|) at (rho, s, z).

    Raises StripViolation where r <= 0: there the integral has no
    exponential envelope (for z = -it, outside |s| < 4 d |t|)."""
    mod2 = 2.0 * (z.real * z.real + z.imag * z.imag)
    rate = 2.0 * d + (rho * z.real - abs(s * z.imag)) / mod2
    if not rate > 0.0:
        raise StripViolation(
            "no envelope: need |s| < %g |z|, got |s| = %g at rho = %g "
            "(rate %.3g)" % (4.0 * d, abs(s), rho, rate))
    return rate


def _osc_panel_width(z: complex, rho: float, s: float) -> float | None:
    """Cap on quadrature panel width, from the integrand phase speed.

    The s term oscillates at |s Re(1/2z)| per unit tau; the rho term at
    rho |Im(1/2z)| times the slope of tau/tanh(2 tau), which tends to 2."""
    inv2z = 1.0 / (2.0 * z)
    freq = abs(s * inv2z.real) + 2.2 * rho * abs(inv2z.imag)
    if freq < 0.05:
        return None
    return min(3.0 * math.pi / freq, 16.0)


def _integrand_values(d: int, z: complex, rho: np.ndarray, s: np.ndarray,
                      tau: np.ndarray) -> np.ndarray:
    """Strip-kernel integrand, elementwise over equal-shape arrays of
    rows (one quadrature panel or probe set each)."""
    inv2z = 1.0 / (2.0 * z)
    return np.exp(sinh_ratio_log(tau, d)
                  + (1j * tau * s - rho * tau_over_tanh2(tau)) * inv2z)


def _strip_eval(qs: list, z: complex) -> list:
    """KernelValues of the queries qs, which share d, at one time z: one
    lockstep batch of tau integrals."""
    d = qs[0].d
    rates = [_strip_rate(d, z, q.rho, q.s) for q in qs]
    pref = (4.0 * math.pi * z) ** (-(d + 1))
    rho = np.array([q.rho for q in qs])
    s = np.array([q.s for q in qs])

    def f(tau, member):
        return _integrand_values(d, z, along_rows(rho, member, tau),
                                 along_rows(s, member, tau), tau)

    tol = [(q.tol or _DEFAULT_TOL) / abs(pref) for q in qs]
    width = [_osc_panel_width(z, q.rho, q.s) for q in qs]
    val, err, t_cut = integrate_exponential_tail(
        Integrand1D(f, rates, members=len(qs)), tol, max_panel_width=width)
    return [KernelValue(pref * v, abs(pref) * e, c)
            for v, e, c in zip(val, err, t_cut)]


def _queries(q) -> list:
    """The queries of one KernelQuery or of a sequence of them, which must
    share d and t_or_z."""
    qs = [q] if isinstance(q, KernelQuery) else list(q)
    if not qs:
        raise ValueError("no kernel queries given")
    if any(x.d != qs[0].d or x.z != qs[0].z for x in qs):
        raise ValueError("a batch of kernel queries shares d and t_or_z")
    return qs


# ---------------------------------------------------------------------------
# Public kernels
#
# Each takes one KernelQuery and returns a KernelValue, or a sequence of
# queries sharing d and t_or_z and returns a list of them, integrated as
# one lockstep batch (quadrature.integrate_adaptive) with the bits of
# separate calls.  A lone query is the batch of one.

def heat_kernel_gaveau(q: KernelQuery | Sequence[KernelQuery]
                      ) -> KernelValue | list:
    """Heat kernel by direct quadrature of the closed form.

    Real, positive, and self-similar: the value at time t equals
    t^(-Q/2) times the value at time 1 of (rho / t, s / t)."""
    qs = _queries(q)
    t = qs[0].t
    if t <= 0.0:
        raise ValueError("heat kernel needs t > 0")
    vals = _strip_eval(qs, complex(t))
    return vals[0] if isinstance(q, KernelQuery) else vals


def schrodinger_kernel(q: KernelQuery | Sequence[KernelQuery]
                      ) -> KernelValue | list:
    """Unitary flow kernel at real t != 0, defined for |s| < 4 d |t|."""
    qs = _queries(q)
    t = qs[0].t
    if t == 0.0:
        raise ZeroTime("unitary kernel undefined at t = 0")
    vals = _strip_eval(qs, complex(0.0, -t))
    return vals[0] if isinstance(q, KernelQuery) else vals


def kernel_complex_time(q: KernelQuery | Sequence[KernelQuery]
                        ) -> KernelValue | list:
    """Kernel at complex time z, Re z >= 0, z != 0.

    StripViolation where _strip_rate finds no exponential envelope (for
    z = -it, outside |s| < 4 d |t|)."""
    qs = _queries(q)
    z = qs[0].z
    if z == 0:
        raise ZeroTime("kernel undefined at z = 0")
    if z.real < 0.0:
        raise ValueError("need Re z >= 0")
    vals = _strip_eval(qs, z)
    return vals[0] if isinstance(q, KernelQuery) else vals


# ---------------------------------------------------------------------------
# The kernel as a Laguerre-index series (the transform route)

def series_term_closed(d: int, z: complex, rho, s, ell) -> np.ndarray:
    """Closed form of the lam > 0 half of one series term:

    J_ell = integral over lam > 0 of
            lam^(d) exp(-p lam) L_ell^(d-1)(b lam),
    p = 4 z (2 ell + d) + rho - i s,  b = 2 rho,  Re p >= 0,  p != 0.

    Vectorized over ell, and over (query, level) when rho and s are
    columns (queries, 1) and ell a (queries, levels) grid; each element
    gets the bits of its lone evaluation.  The kernel series' term is
    J_ell + J_ell at -s.  ell may also be real: the formula is then a
    smooth interpolation of the terms, which _series_estimate integrates
    for its tail.  SingularPoint where p = 0.
    """
    ells = np.atleast_1d(np.asarray(ell, dtype=float))
    alpha = d - 1
    p = 4.0 * z * (2.0 * ells + d) + rho - 1j * s
    ells = np.broadcast_to(ells, p.shape)
    if not p.all():
        k = np.argmax(p == 0.0)
        raise SingularPoint(
            "rho = 0, |s| = %g is the quantized height 4|t|(2 ell + d) at "
            "ell = %d, where the kernel is infinite"
            % (abs(np.broadcast_to(s, p.shape).flat[k]), ells.flat[k]))
    pb = p - 2.0 * rho
    coef = np.ones(p.shape)
    for j in range(1, alpha + 1):
        coef *= ells + j
    head = (alpha + 1.0) * p - (ells + alpha + 1.0) * (2.0 * rho)
    with np.errstate(all="ignore"):     # ell = 0 too, replaced below
        logpb = np.where(pb == 0.0, 0.0, np.log(pb))
        expo = (ells - 1.0) * logpb - (ells + alpha + 2.0) * np.log(p)
        out = coef * np.exp(expo) * head
    if not pb.all():
        out[(pb == 0.0) & (ells >= 2.0)] = 0.0
    zero = ells == 0
    if zero.any():
        out[zero] = math.gamma(alpha + 2) * p[zero] ** (-(alpha + 2))
    if np.isscalar(ell) or np.asarray(ell).ndim == 0:
        return complex(out[0])
    return out


def series_term_quadrature(d: int, z: complex, rho: float, s: float,
                           ell: int, tol: float = 1e-12) -> complex:
    """Same J_ell by adaptive quadrature (Re p > 0); the cross-check route."""
    alpha = d - 1.0
    p = 4.0 * z * (2.0 * ell + d) + rho - 1j * s
    b = 2.0 * rho

    def f(lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        out = np.zeros(lam.shape, dtype=complex)
        posm = lam > 0.0
        lp = lam[posm]
        tab = laguerre_table(ell, alpha, b * lp)
        out[posm] = lp ** (alpha + 1.0) * np.exp(-p * lp) * tab[ell]
        return out

    integrand = Integrand1D(f, envelope_rate=0.5 * p.real)
    val, _, _ = integrate_exponential_tail(integrand, tol)
    return complex(val)


def _exponent_sizes(d, z, rho, s, ells) -> np.ndarray:
    """1 + |(ell - 1) log(p - b)| + |(ell + d + 1) log p|: eps times this
    bounds the relative round-off that series_term_closed's exponent puts
    on its terms."""
    p = 4.0 * z * (2.0 * ells + d) + rho - 1j * s
    pb = p - 2.0 * rho
    logpb = np.log(np.where(pb == 0.0, 1.0, pb))
    return (1.0 + np.abs((ells - 1.0) * logpb)
            + np.abs((ells + d + 1.0) * np.log(p)))


def _tail_levels(end: int) -> np.ndarray:
    """The 25 real levels at which _series_estimate takes the terms: 24
    Gauss-Legendre nodes ell = (end - 1/2) / u, u in (0, 1), then end."""
    x, _ = _leggauss(24)
    return np.append((end - 0.5) / (0.5 * (x + 1.0)), end)


def _series_estimate(head: np.ndarray, end: int, at: np.ndarray):
    """Sum of the series terms head, those of the levels below end, plus
    the midpoint Euler-Maclaurin tail

        sum over ell >= end of f(ell)
            ~ integral from end - 1/2 to inf of f + f'(end - 1/2) / 24,

    from at, f taken at real ell on _tail_levels(end).  Under
    ell = (end - 1/2) / u the integral becomes that of ell^2 f / (end - 1/2)
    over u in (0, 1], smooth because ell^2 f is analytic in 1/ell; 24
    Gauss-Legendre nodes take it.  f' is the central difference
    f(end) - f(end - 1)."""
    _, w = _leggauss(24)
    half = end - 0.5
    ell = _tail_levels(end)[:-1]
    integral = 0.5 * (w @ (at[:-1] * ell * ell)).item() / half
    total = (complex(math.fsum(head.real), math.fsum(head.imag))
             if np.iscomplexobj(head) else math.fsum(head))
    return total + integral + (at[-1] - head[-1]) / 24.0


def _series_kernel(d: int, z: complex, rho, s, ell0: int,
                   budgets: Sequence[TruncationBudget]) -> list:
    """KernelValues of the queries (rho[i], s[i]) at one time z, Re z >= 0:
    2^(d-1) / pi^(d+1) times the sum over ell >= ell0 of J_ell + J_ell
    at -s (2 Re J_ell at real z), one budget per query.

    n terms are summed and the rest taken by _series_estimate's tail.  n
    doubles from 256 until ell0 + n passes rho / (4 |z|), so |b / p| < 2/3
    on the tail at real z, and |s| / (8 |Im z|), so the tail's log(p - b)
    keeps off its branch cut; then until err, the change from n/2 to n
    terms plus the round-off floor 1.1e-16 sum |J| _exponent_sizes, meets
    tol = budget.tail_tolerance.  BudgetExhausted once n would pass
    budget.max_terms or the floor tol.

    The doubling runs in lockstep: the open queries that share n share
    each call of series_term_closed, on a (queries, levels) grid, and
    each query keeps the bits of its lone run.  The BudgetExhausted
    raised is the lowest-indexed failing query's, the one a loop over the
    queries would raise; a query on a quantized height raises
    SingularPoint for the whole batch."""
    rho = np.asarray(rho, dtype=float)
    s = np.asarray(s, dtype=float)
    const = 2.0 ** (d - 1) / math.pi ** (d + 1)

    def terms(rows, ell, bounds=False):
        """Kernel terms of the queries rows at the levels ell, one row of
        terms per query; with bounds also each query's sum of round-off
        bounds, |J| _exponent_sizes over the J of each term."""
        r, col = rho[rows, None], s[rows, None]
        grid = np.broadcast_to(ell, (len(rows), len(ell)))
        signs = (col, -col) if z.imag else (col,)
        js = [series_term_closed(d, z, r, x, grid) for x in signs]
        value = js[0] + js[1] if z.imag else 2.0 * np.real(js[0])
        if not bounds:
            return value
        return value, (1.0 if z.imag else 2.0) * sum(
            np.sum(np.abs(j) * _exponent_sizes(d, z, r, x, grid), axis=1)
            for j, x in zip(js, signs))

    # one group of queries per head length n: (n, rows, head, bound, the
    # terms at n's tail levels, the estimates at n/2)
    by_n = {}
    for q in range(len(rho)):
        reach = max(rho[q] / (4.0 * abs(z)),
                    abs(s[q]) / (8.0 * abs(z.imag)) if z.imag else 0.0)
        n = 256
        while ell0 + n <= reach:
            n *= 2
        by_n.setdefault(min(n, budgets[q].max_terms), []).append(q)
    groups = []
    for n, rows in sorted(by_n.items()):
        head, bound = terms(rows, ell0 + np.arange(n), bounds=True)
        # the tail levels at n/2 and at n in one call of terms
        ends = [ell0 + n // 2, ell0 + n] if n >= 2 else [ell0 + n]
        at = terms(rows, np.concatenate([_tail_levels(end) for end in ends]))
        prev = [_series_estimate(head[i, :n // 2], ends[0], at[i, :25])
                if n >= 2 else math.inf for i in range(len(rows))]
        groups.append((n, rows, head, bound, at[:, -25:], prev))

    out = [None] * len(rho)
    failed = {}
    while groups:
        going = []
        for n, rows, head, bound, at, prev in groups:
            pending = []
            for i, q in enumerate(rows):
                tol = budgets[q].tail_tolerance
                est = _series_estimate(head[i], ell0 + n, at[i])
                floor = const * 1.1e-16 * float(bound[i])
                err = const * abs(est - prev[i]) + floor
                if err <= tol:
                    out[q] = KernelValue(complex(const * est), err, float(n))
                elif floor > tol or 2 * n > budgets[q].max_terms:
                    what = ("round-off floor", floor) if floor > tol else (
                        "tail error", err)
                    failed[q] = BudgetExhausted(
                        "%s %.3e above tolerance %.3e after %d terms" % (
                            what + (tol, n)), value=const * est, err=err,
                        terms=n)
                else:
                    pending.append((i, est))
            # queries past the first failure are moot
            pending = [(i, est) for i, est in pending
                       if rows[i] < min(failed, default=len(rho))]
            if pending:
                keep, ests = (list(col) for col in zip(*pending))
                rows = [rows[i] for i in keep]
                more, more_bound = terms(rows, ell0 + np.arange(n, 2 * n),
                                         bounds=True)
                going.append((2 * n, rows,
                              np.concatenate([head[keep], more], axis=1),
                              bound[keep] + more_bound,
                              terms(rows, _tail_levels(ell0 + 2 * n)), ests))
        groups = going
    if failed:
        raise failed[min(failed)]
    return out


def heat_kernel_series(q: KernelQuery | Sequence[KernelQuery],
                       budget: TruncationBudget | Sequence | None = None
                       ) -> KernelValue | list:
    """Heat kernel summed over Laguerre indices: _series_kernel at z = t.

    Takes one query or a sequence sharing d and t, as heat_kernel_gaveau
    does; budget is one TruncationBudget (None: the default) for every
    query, or one per query."""
    qs = _queries(q)
    t = qs[0].t
    if t <= 0.0:
        raise ValueError("heat kernel needs t > 0")
    budgets = [b or TruncationBudget() for b in _per_member(budget, len(qs))]
    vals = _series_kernel(qs[0].d, t, [x.rho for x in qs], [x.s for x in qs],
                          0, budgets)
    return vals[0] if isinstance(q, KernelQuery) else vals


def restricted_kernel(ell: int, q: KernelQuery | Sequence[KernelQuery]
                      ) -> KernelValue | list:
    """Unitary kernel restricted to Laguerre indices >= ell: at ell = 0
    schrodinger_kernel, else _series_kernel at z = -it to each query's tol
    in 2^20 terms.  Finite where rho > 0; SingularPoint on a height."""
    ell = int(ell)
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    qs = _queries(q)
    t = qs[0].t
    if ell == 0 or t == 0.0:            # at t = 0 it raises ZeroTime
        return schrodinger_kernel(q)
    vals = _series_kernel(
        qs[0].d, complex(0.0, -t), [x.rho for x in qs], [x.s for x in qs],
        ell, [TruncationBudget(1 << 20, x.tol or _DEFAULT_TOL) for x in qs])
    return vals[0] if isinstance(q, KernelQuery) else vals


# ---------------------------------------------------------------------------
# Dispersion constants

def dispersion_constant(kappa, d: int = 1, signed: bool = False):
    """Sup-norm constant of the unitary kernel on the region |s| <= kappa^2 |t|:

    M_kappa = (4 pi)^(-(d+1)) integral of
              (2 tau / sinh 2 tau)^d exp(kappa^2 |tau| / 2)
            = d! / (2 (4 pi)^(d+1)) sum over ell of
              C(ell + d - 1, d - 1) (ell + b)^(-(d+1)),

    b = (4d - kappa^2) / 8, term by term in (2 tau / sinh 2 tau)^d =
    (4 |tau|)^d sum over ell of C(ell + d - 1, d - 1) exp(-(2d + 4 ell)
    |tau|); 256 levels are summed and the rest taken by _series_estimate's
    tail.  Finite exactly when kappa^2 < 4 d; raises ValueError at or
    beyond.  The signed variant replaces |tau| by tau, which integrates
    cosh(kappa^2 tau / 2): the mean of the sums at b and at
    (4d + kappa^2) / 8, and smaller.  A sequence of kappas gives a list
    of constants."""
    kappas = [float(k) for k in np.atleast_1d(kappa)]
    for k in kappas:
        if k < 0.0:
            raise ValueError("kappa must be nonnegative")
        if not k * k < 4.0 * d:
            raise ValueError(
                "dispersion integral diverges for kappa^2 >= 4d (kappa = %g)"
                % k)

    def level_sum(b):
        def terms(ell):
            mult = np.ones_like(ell)
            for j in range(1, d):
                mult *= (ell + j) / j
            return mult * (ell + b) ** (-(d + 1.0))
        return _series_estimate(terms(np.arange(256.0)), 256,
                                terms(_tail_levels(256)))

    const = math.factorial(d) / (2.0 * (4.0 * math.pi) ** (d + 1))
    out = []
    for k in kappas:
        sums = [level_sum((4.0 * d - k * k) / 8.0)]
        if signed:
            sums.append(level_sum((4.0 * d + k * k) / 8.0))
        out.append(const * math.fsum(sums) / len(sums))
    return out[0] if np.ndim(kappa) == 0 else out


def dispersive_onset_time(kappa: float, r0: float, d: int = 1) -> float:
    """Time after which the ball |w| < r0 sits inside the kernel strip
    {|s| <= kappa^2 t}: T = (r0 / (sqrt(4d) - kappa))^2."""
    kappa = float(kappa)
    root = math.sqrt(4.0 * d)
    if not 0.0 <= kappa < root:
        raise ValueError("need 0 <= kappa < sqrt(4d)")
    return (float(r0) / (root - kappa)) ** 2


# ---------------------------------------------------------------------------
# Batched evaluation on a fixed tau grid
#
# _unitary_tau_rule and _fixed_tau_rule give the tau grid of
# solutions.evolve_by_convolution.  schrodinger_batch sums the unitary
# kernel on that grid pair by pair: it is the tests' independent pair-sum
# route and the benchmark's kernel check, and no report reaches it.

def _unitary_tau_rule(d: int, t: float, smax: float, rho_max: float,
                      tol: float):
    """Strip check and tau rule (z, t_cut, width) of the unitary kernel
    for a batch of pairs with |s| <= smax and rho <= rho_max.

    At z = -it the integrand's modulus is at most
    exp(L(tau) + |tau| smax / 2|t|), L = log (2 tau / sinh 2 tau)^d, so
    with the strip rate r = 2d - smax / 2|t| the envelope tail_cutoff
    reads is exp(L(tau) + 2d |tau|), whatever the batch.  width caps the
    Gauss panels by the phase speed at the corner (rho_max, smax); where
    the phase is slow it is min(t_cut, 16), the cap _osc_panel_width puts
    on fast phases too."""
    if t == 0.0:
        raise ZeroTime("unitary kernel undefined at t = 0")
    z = complex(0.0, -t)
    rate = _strip_rate(d, z, rho_max, smax)

    def envelope(tau):
        return [float(np.max(np.exp(sinh_ratio_log(tau, d)
                                    + 2.0 * d * np.abs(tau))))]

    _, (t_cut,) = tail_cutoff(envelope, [rate], [tol])
    width = _osc_panel_width(z, rho_max, smax) or min(t_cut, 16.0)
    return z, t_cut, width


def schrodinger_batch(d: int, t: float, rho, s, tol: float = 1e-6):
    """Unitary kernel at many (rho, s) pairs on one shared tau grid.

    All points must satisfy the strip condition; StripViolation names the
    worst offender otherwise.  Returns (values, err_estimate)."""
    t = float(t)
    rho = np.ascontiguousarray(rho, dtype=float).reshape(-1)
    s = np.ascontiguousarray(s, dtype=float).reshape(-1)
    if rho.size != s.size:
        raise ValueError("rho and s must have equal length")
    if np.any(rho < 0.0):
        raise ValueError("rho must be nonnegative")
    smax = float(np.max(np.abs(s))) if s.size else 0.0
    rho_max = float(np.max(rho)) if rho.size else 0.0
    z, t_cut, width = _unitary_tau_rule(d, t, smax, rho_max, tol)

    pref = (4.0 * math.pi * z) ** (-(d + 1))
    values = pref * _fixed_grid_sum(d, z, rho, s, t_cut, width)
    # error probe: re-evaluate a subsample with doubled resolution
    take = np.linspace(0, rho.size - 1, min(8, rho.size)).astype(int)
    finer = pref * _fixed_grid_sum(d, z, rho[take], s[take], t_cut, 0.5 * width)
    err = float(np.max(np.abs(finer - values[take])))
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    return values, max(err, 1e-16 * scale)


def _fixed_tau_rule(t_cut: float, width: float):
    """16-node Gauss panels of width at most width on [0, T], mirrored
    onto [-T, 0]: a rule symmetric in tau with a panel edge at 0.
    QuadratureError past MAX_PANELS panels a side, as T grows like
    1 / rate toward the strip's edge."""
    n_half = max(1, math.ceil(min(t_cut / width, MAX_PANELS + 1)))
    if n_half > MAX_PANELS:
        raise QuadratureError(
            "tau rule needs over %d panels a side (T = %.6g, width %.3g)"
            % (MAX_PANELS, t_cut, width))
    pos, wpos = gauss_panels(0.0, t_cut, n_half, 16)
    tau = np.concatenate([-pos[::-1], pos])
    w = np.concatenate([wpos[::-1], wpos])
    return tau, w


def _fixed_grid_sum(d, z, rho, s, t_cut, width):
    tau, w = _fixed_tau_rule(t_cut, width)
    logratio = sinh_ratio_log(tau, d)
    t2t = tau_over_tanh2(tau)
    inv2z = 1.0 / (2.0 * z)
    return backend.kernel_tau_sum(rho, s, inv2z, tau, w, logratio, t2t)
