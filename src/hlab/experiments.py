"""Named verification experiments reported as CSV tables.

Each experiment samples its inputs from a seeded generator, measures a
quantity against a stated bound or reference, and returns an
ExperimentReport whose rows carry a 0/1 pass flag.  Reports are
deterministic for a fixed configuration.  The generator is numpy's
default_rng(seed) stream, PCG64, reproduced bit for bit in pure Python
(_Pcg64): a seed keeps its inputs, and no report imports numpy's random
package for its few dozen draws.

Approximate runtimes at defaults, two cores, one process each with the
interpreter's start: kernel-consistency takes 0.4 to 0.5 s (the radial
transform), every other experiment under half a second.  The fast flag
shrinks the ball and transform grids by about half, not the
convolution's source rule.  Ball norms, of the initial bump and of the
evolved solution alike, are taken on the radial (rho, s) section of the
gauge ball (quadrature.radial_ball_rule, quadrature.radial_ball_norms).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import (analyze, bump_profile, evolve_schrodinger,
                      single_sign_lambda_grid, spectral_norm_sq, synthesize)
from .group import GroupPoint
from .kernels import (KernelQuery, TruncationBudget, dispersion_constant,
                      dispersive_onset_time, heat_kernel_gaveau,
                      heat_kernel_series, kernel_complex_time,
                      restricted_kernel, schrodinger_kernel)
from .quadrature import radial_ball_norms, radial_ball_rule
from .solutions import (LineData, concentration_probe, evolve_by_convolution,
                        hyperplane_decay_exponent)


class ConfigError(ValueError):
    """Invalid experiment name or parameter combination."""


@dataclass
class ExperimentConfig:
    experiment: str
    d: int = 1
    kappa: float = 1.0
    r0: float = 1.0
    t_values: tuple = ()
    out: str | None = None
    fast: bool = False
    seed: int = 20260816

    def validate(self):
        if self.experiment not in CATALOG:
            raise ConfigError("unknown experiment %r; choose one of %s"
                              % (self.experiment, ", ".join(sorted(CATALOG))))
        if self.d < 1:
            raise ConfigError("d must be a positive integer")
        for name, value in (("kappa", self.kappa), ("R0", self.r0),
                            ("t", self.t_values)):
            if not np.all(np.isfinite(value)):
                # NaN slips past every comparison below, and an infinite
                # time or onset never ends a report's loop
                raise ConfigError("%s must be finite, got %s" % (
                    name, ",".join("%g" % v for v in np.atleast_1d(value))))
        if self.r0 <= 0:
            raise ConfigError("R0 must be positive")
        if self.experiment == "kernel-consistency" and self.d != 1:
            # its transform route misses the tolerance at d = 2
            raise ConfigError("%s is computed only at d = 1, not d = %d"
                              % (self.experiment, self.d))
        reads = READS[self.experiment]
        if "seed" in reads and self.seed < 0:
            # numpy's SeedSequence, which _Pcg64 follows, takes none
            raise ConfigError("seed must be nonnegative, got %d" % self.seed)
        if "kappa" in reads:
            if self.kappa <= 0:
                # the gauge balls of radius kappa sqrt(t) would be empty
                raise ConfigError("kappa = %g must be positive" % self.kappa)
            if self.kappa ** 2 >= 4 * self.d:
                raise ConfigError(
                    "kappa = %g too large: the dispersion constant needs "
                    "kappa^2 < 4 d = %d" % (self.kappa, 4 * self.d))
        if "r0" in reads:
            # R0 enters these reports through Python floats, which raise
            # OverflowError past 1.8e308: the onset time, at mkappa's
            # largest kappa, the bump's R0^4 and the convolution's moments,
            # below (R0^2)^(2d + 8) as its 0F1 series has <= d + 8 terms
            # (one power more is a margin).
            try:
                if self.experiment == "mkappa":
                    dispersive_onset_time(_mkappa_kappas(self.d)[-1],
                                          self.r0, self.d)
                else:
                    dispersive_onset_time(self.kappa, self.r0, self.d)
                    bump_profile(self.r0, self.d)
                    (self.r0 * self.r0) ** (2 * self.d + 9)
            except OverflowError:
                raise ConfigError("R0 = %g is too large: the onset time, the "
                                  "bump's R0^4 or the convolution's moments "
                                  "overflow" % self.r0) from None
        t = self.t_values
        cap = self._time_cap()
        if cap is not None and len(t) > cap:
            # the report would drop the rest of the list without a word
            raise ConfigError("%s%s uses %d time(s), got %s" % (
                self.experiment, " --fast" if self.fast else "", cap,
                ",".join("%g" % v for v in t)))
        if self.experiment == "kernel-consistency":
            # the source grid leaves the kernel strip before the onset time
            t_kc, top = _kc_time(self), _KC_CAP * self.r0 * self.r0
            onset = dispersive_onset_time(self.kappa, self.r0, self.d)
            if not onset < t_kc <= top:
                raise ConfigError(
                    "kernel-consistency needs t in (onset, %g R0^2] = (%g, %g]"
                    " for kappa=%g, R0=%g, got t = %g" % (
                        _KC_CAP, onset, top, self.kappa, self.r0, t_kc))
        if self.experiment not in ("dispersion", "strichartz-window") or not t:
            return
        if len(t) < 3 or any(b <= a for a, b in zip(t, t[1:])):
            # a slope fitted to one or two points always passes, and the
            # window integrals turn negative over descending times
            raise ConfigError(
                "%s needs at least 3 strictly ascending times, got %s"
                % (self.experiment, ",".join("%g" % v for v in t)))
        onset = dispersive_onset_time(self.kappa, self.r0, self.d)
        if t[0] <= onset:
            # before it the translated source grid leaves the kernel strip
            raise ConfigError(
                "%s needs times after the onset time %g for kappa=%g, R0=%g, "
                "got %g" % (self.experiment, onset, self.kappa, self.r0, t[0]))

    def _time_cap(self) -> int | None:
        return USES_TIMES.get(self.experiment, (None, None))[bool(self.fast)]

    def times(self, default: tuple) -> tuple:
        """The given times, else the default cut to what the report uses."""
        return tuple(self.t_values or default[:self._time_cap()])


@dataclass
class ExperimentReport:
    experiment: str
    columns: list
    rows: list
    summary: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if "pass" not in self.columns:
            raise ValueError("report needs a pass column")
        self._pass_idx = self.columns.index("pass")
        n_pass = sum(1 for r in self.rows if r[self._pass_idx])
        verdict = "PASS" if n_pass == len(self.rows) else "FAIL"
        self.summary = "%s: %d/%d rows pass -> %s" % (
            self.experiment, n_pass, len(self.rows), verdict)

    @property
    def all_pass(self) -> bool:
        return all(r[self._pass_idx] for r in self.rows)

    def to_csv(self, fh):
        fh.write("# schema=1\n")
        fh.write("# experiment=%s\n" % self.experiment)
        for key in sorted(self.params):
            fh.write("# %s=%s\n" % (key, _fmt(self.params[key])))
        fh.write(",".join(self.columns) + "\n")
        for row in self.rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    if isinstance(x, (float, np.floating)):
        return "%.12g" % x
    return str(x)


def admissible_q(p: float, d: int = 1) -> float:
    """The q paired with p on the admissible line 2/q + Q/p = Q/2."""
    q_dim = 2 * d + 2
    if p <= 2:
        raise ValueError("admissible pairs need p > 2")
    inv = q_dim / 4.0 - (0.0 if math.isinf(p) else q_dim / (2.0 * p))
    return 1.0 / inv


# ---------------------------------------------------------------------------
# Shared sampling helpers

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Pcg64:
    """numpy's default_rng(seed).uniform, bit for bit, in pure Python.

    numpy's SeedSequence hashes the seed's 32-bit words into a pool of
    four, and draws PCG64's 128-bit state and increment from the pool;
    each step of the LCG gives one 64-bit XSL-RR output (M. E. O'Neill,
    "PCG", HMC-CS-2014-0905), whose top 53 bits make one double.  A
    report draws at most about a hundred numbers, which cost less here
    than importing numpy's generator package would.
    """

    def __init__(self, seed: int):
        words = [seed >> k & _M32
                 for k in range(0, max(seed.bit_length(), 1), 32)]
        h = 0x43B0D7E5

        def hashmix(v):
            nonlocal h
            v ^= h
            h = h * 0x931E8875 & _M32
            v = v * h & _M32
            return v ^ v >> 16

        def mix(x, y):
            r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for i, j in itertools.permutations(range(4), 2):
            pool[j] = mix(pool[j], hashmix(pool[i]))
        for v in words[4:]:
            for j in range(4):
                pool[j] = mix(pool[j], hashmix(v))
        out, h = [], 0x8B51F9DD
        for k in range(8):
            v = pool[k % 4] ^ h
            h = h * 0x58F38DED & _M32
            v = v * h & _M32
            out.append(v ^ v >> 16)
        s0, s1, i0, i1 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = (i0 << 65 | i1 << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _M128

    def _next_double(self) -> float:
        x = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        v, r = (x >> 64 ^ x) & _M64, x >> 122
        v = (v >> r | v << (64 - r)) & _M64
        return (v >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float, size: int | None = None):
        lo, span = float(lo), float(hi) - float(lo)
        if size is None:
            return lo + span * self._next_double()
        return np.array([lo + span * self._next_double()
                         for _ in range(size)])


def _bump_norms(u0):
    """L1 and L2 of u0 over a gauge ball that holds its support."""
    radius = (u0.support_rho ** 2 + u0.support_s ** 2) ** 0.25 * 1.0001
    rho, s, w = radial_ball_rule(radius, u0.d, 257, 513)
    l1, l2 = radial_ball_norms(u0.profile(rho, s), w, u0.d, (1, 2))
    return l1, l2


# ---------------------------------------------------------------------------
# heat-equiv

def run_heat_equiv(cfg: ExperimentConfig) -> ExperimentReport:
    """Series form of the heat kernel against the integral form on a grid."""
    tol = 1e-7
    n = 3 if cfg.fast else 5
    t_list = cfg.times((0.5, 1.0, 2.0))
    rows = []
    for t in t_list:
        # the grid at one t: one lockstep batch of tau integrals
        grid = [KernelQuery(d=cfg.d, t_or_z=float(t), rho=float(rho),
                            s=float(s), tol=1e-13)
                for rho in np.linspace(0.0, 4.0, n)
                for s in np.linspace(-4.0, 4.0, n)]
        gavs = [g.value for g in heat_kernel_gaveau(grid)]
        # The tail target sits two decades under the relative tolerance
        # (the kernel falls to 4.65e-4 on the default grid, far lower at
        # small t); the series raises BudgetExhausted where its round-off
        # floor cannot meet it.  The grid's series is one batch too.
        budgets = [TruncationBudget(max_terms=100000,
                                    tail_tolerance=min(5e-12, 1e-9 * abs(g)))
                   for g in gavs]
        sers = heat_kernel_series(grid, budget=budgets)
        for q, gav, ser in zip(grid, gavs, (v.value for v in sers)):
            rel = abs(ser - gav) / max(abs(gav), 1e-300)
            rows.append((cfg.d, float(t), q.rho, q.s,
                         ser.real, ser.imag, gav.real, gav.imag,
                         rel, tol, rel <= tol))
    cols = ["d", "t", "rho", "s", "series_re", "series_im",
            "integral_re", "integral_im", "rel_err", "tol", "pass"]
    return ExperimentReport("heat-equiv", cols, rows,
                            params={"d": cfg.d, "grid": n})


# ---------------------------------------------------------------------------
# mehler

def run_mehler(cfg: ExperimentConfig) -> ExperimentReport:
    """Hermite generating identities against their closed forms."""
    from .special import hermite_table, mehler_closed, mehler_heat_closed

    tol = 1e-8
    rng = _Pcg64(cfg.seed)
    n_cases = 10 if cfg.fast else 20
    # the draws in the order of the rows, then one Hermite table per
    # identity over every case's two points
    mehler = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
               rng.uniform(-0.6, 0.6)) for _ in range(n_cases)]
    heat = []
    for _ in range(n_cases):
        lam = rng.uniform(0.5, 3.0)
        heat.append((lam, rng.uniform(0.1, 0.6) / lam,
                     rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
    rows = []
    m_top = 200
    hx = hermite_table(m_top, np.array([(x, xt) for x, xt, _ in mehler]))
    for k, (x, xt, r) in enumerate(mehler):
        powers = r ** np.arange(m_top + 1)
        total = float(np.sum(hx[:, 2 * k] * hx[:, 2 * k + 1] * powers))
        closed = mehler_closed(x, xt, r)
        err = abs(total - closed)
        rows.append(("mehler", x, xt, r, total, closed, err, tol, err <= tol))
    m_top = 160
    h = hermite_table(m_top, np.array(
        [math.sqrt(lam) * np.array([z - y, z + y]) for lam, _, y, z in heat]))
    for k, (lam, t, y, z) in enumerate(heat):
        pair = lam ** 0.25 * h[:, 2 * k:2 * k + 2]
        decay = np.array([math.exp(-2.0 * m * t * lam)
                          for m in range(m_top + 1)])
        total = float(np.sum(pair[:, 0] * pair[:, 1] * decay))
        closed = mehler_heat_closed(lam, t, y, z)
        err = abs(total - closed)
        rows.append(("heat-line", lam, t, y, total, closed, err, tol,
                     err <= tol))
    cols = ["identity", "p1", "p2", "p3", "sum", "closed", "abs_err",
            "tol", "pass"]
    return ExperimentReport("mehler", cols, rows,
                            params={"seed": cfg.seed, "cases": n_cases})


# ---------------------------------------------------------------------------
# kernel-consistency

# the largest t / R0^2 at which the evolve rows keep their margin: there
# the worst rel_err over seeds 1-20, both sizes and kappa 0.5 and 1 is
# 8.5e-3, and on the axis rho = 0 8.4e-3 (8.1e-3 at t / R0^2 = 2.5); at
# 5 they reach 9.8e-3, and at 6 2.0e-2 near rho = 0, where the |lambda|
# cutoff bounds the accuracy
_KC_CAP = 4.0


def _kc_time(cfg: ExperimentConfig) -> float:
    # t = 2.5 at R0 = 1, or the middle of the window (onset, _KC_CAP] once
    # that lies later (kappa > 1 at d = 1); dilated
    mid = 0.5 * (dispersive_onset_time(cfg.kappa, 1.0, cfg.d) + _KC_CAP)
    return cfg.times((max(2.5, mid) * cfg.r0 * cfg.r0,))[0]


def run_kernel_consistency(cfg: ExperimentConfig) -> ExperimentReport:
    """Two routes to u(t) plus the complex-time limit of the kernel."""
    d = cfg.d
    tol = 1e-2
    t = _kc_time(cfg)
    rng = _Pcg64(cfg.seed)
    u0 = bump_profile(cfg.r0, d)

    ell_max = 48 if cfg.fast else 64
    # |lambda| on [5e-4, 40] / R0^2, as the bump of radius R0 is the unit
    # bump dilated; 40 kept the worst sampled point at R0 = 1, t = 2.5
    # under half the tolerance (the cutoff matters most near rho = 0,
    # where exp(-|lambda| rho) stops damping the tail).  The flow's phase
    # 4 t lambda (2 ell + d) turns at most 1.6 rad per step at the top
    # line, on at least 32501 nodes (odd, for Simpson).
    lam_min, lam_max = 5e-4 / cfg.r0 ** 2, 40.0 / cfg.r0 ** 2
    n_lam = max(32501,
                math.ceil(4.0 * t * lam_max * (2 * ell_max + d) / 1.6) + 1)
    n_lam += 1 - n_lam % 2

    gauge = cfg.kappa * math.sqrt(t)
    cand = []
    while len(cand) < 24:
        y = rng.uniform(-gauge, gauge, size=d)
        eta = rng.uniform(-gauge, gauge, size=d)
        s = rng.uniform(-gauge * gauge, gauge * gauge)
        if (np.sum(y ** 2) + np.sum(eta ** 2)) ** 2 + s ** 2 < gauge ** 4:
            cand.append(GroupPoint(y=y, eta=eta, s=float(s)))
    conv = evolve_by_convolution(u0, t, cand, tol=1e-6)
    conv_vals, conv_err = conv.values, conv.err

    scale = float(np.max(np.abs(conv_vals)))
    order = np.argsort(-np.abs(conv_vals))
    picked = [i for i in order if abs(conv_vals[i]) >= 0.05 * scale][:10]

    # Only the synthesis, which applies that phase, needs that many nodes:
    # analyze keeps the smooth coefficients on its panel rule in |lambda|
    # (960 nodes at R0 = 1), and synthesize interpolates them one chunk at
    # a time.  One synthesis call evolves and sums all picked points.
    gp, wp = single_sign_lambda_grid(lam_min, lam_max, n_lam, 1)
    gn, wn = single_sign_lambda_grid(lam_min, lam_max, n_lam, -1)
    lam_grid = np.concatenate([gn, gp])
    lam_w = np.concatenate([wn, wp])
    del gp, wp, gn, wn      # n_lam nodes and weights per sign, not needed
    coef = analyze(u0, ell_max=ell_max, lambda_grid=lam_grid,
                   lambda_weights=lam_w, n_rho=225, n_s=193)
    spec = synthesize(coef, [float(cand[i].horizontal_sq()) for i in picked],
                      [cand[i].s for i in picked], t)

    rows = []
    for i, spec_v in zip(picked, spec):
        w = cand[i]
        spec_v = complex(spec_v)
        cv = complex(conv_vals[i])
        rel = abs(spec_v - cv) / max(abs(cv), 1e-300)
        rows.append(("evolve", float(w.y[0]), float(w.eta[0]), w.s,
                     spec_v.real, spec_v.imag, cv.real, cv.imag,
                     rel, tol, rel <= tol))

    # complex-time limit at 5 strip points, eps sweep
    pts = [(rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0)) for _ in range(5)]
    t_c = 1.0
    base = [v.value for v in schrodinger_kernel(
        [KernelQuery(d=d, t_or_z=t_c, rho=r, s=s, tol=1e-11)
         for (r, s) in pts])]
    prev = None
    for eps in (1e-2, 1e-3, 1e-4):
        vals = [v.value for v in kernel_complex_time(
            [KernelQuery(d=d, t_or_z=complex(eps, -t_c), rho=r, s=s,
                         tol=1e-11) for (r, s) in pts])]
        diff = max(abs(a - b) for a, b in zip(vals, base))
        ratio = float("nan") if prev is None else diff / prev
        ok = prev is None or diff < prev
        rows.append(("limit", eps, t_c, float("nan"), float("nan"),
                     float("nan"), diff, ratio, float("nan"), float("nan"),
                     ok))
        prev = diff
    cols = ["check", "c1", "c2", "c3", "spec_re", "spec_im", "conv_re",
            "conv_im", "rel_err", "tol", "pass"]
    return ExperimentReport(
        "kernel-consistency", cols, rows,
        params={"d": d, "t": t, "kappa": cfg.kappa, "conv_err": conv_err,
                "seed": cfg.seed})


# ---------------------------------------------------------------------------
# dispersion

def _ball_grid(fast: bool) -> tuple:
    """(n_h, n_v): nodes in rho and in s of the radial ball rule."""
    return (7, 9) if fast else (9, 13)


def _evolved_ball_norms(u0, t, kappa, n_h, n_v):
    """Sup, L2 and L4 of the evolved solution over the gauge ball.

    u(t) = u0 * S_t is radial as u0 and S_t are, so it is evaluated only
    at the points (sqrt(rho) e_1, 0, s) of radial_ball_rule(n_h, n_v)."""
    d = u0.d
    rho, s, w = radial_ball_rule(kappa * math.sqrt(t), d, n_h, n_v)
    e1 = np.eye(d)[0]
    points = [GroupPoint(y=math.sqrt(r) * e1, eta=np.zeros(d), s=float(si))
              for r, si in zip(rho, s)]
    vals = evolve_by_convolution(u0, t, points, tol=1e-8).values
    return radial_ball_norms(vals, w, d, (np.inf, 2, 4))


def run_dispersion(cfg: ExperimentConfig) -> ExperimentReport:
    """Sup-norm decay of bump data against the dispersive bound.

    The p=2 rows check mass: on coefficients the flow is exactly unitary,
    and the measured ball mass stays below the initial total mass.  The
    p=4 rows check the interpolated bound with exponent 1 - 2/p.  The
    default times 4, 8, 16, 32 are doubled until the first one exceeds
    the onset time (see validate)."""
    d = cfg.d
    kappa = cfg.kappa
    t_default = (4.0, 8.0, 16.0, 32.0)
    while t_default[0] <= dispersive_onset_time(kappa, cfg.r0, d):
        t_default = tuple(2.0 * t for t in t_default)
    t_list = cfg.times(t_default)
    n_h, n_v = _ball_grid(cfg.fast)

    u0 = bump_profile(cfg.r0, d)
    m_kappa = dispersion_constant(kappa, d)
    l1, l2_0 = _bump_norms(u0)
    half_q = d + 1

    rows = []
    sups = []
    for t in t_list:
        sup, l2, l4 = _evolved_ball_norms(u0, t, kappa, n_h, n_v)
        sups.append(sup)
        bound_inf = m_kappa * t ** (-half_q) * l1
        rows.append(("sup", t, sup, bound_inf, bound_inf / sup,
                     sup <= bound_inf))
        rows.append(("mass", t, l2, l2_0, l2_0 / max(l2, 1e-300),
                     l2 <= l2_0 * (1.0 + 1e-6)))
        bound_4 = (m_kappa * t ** (-half_q) * l1) ** 0.5 * l2_0 ** 0.5
        rows.append(("l4", t, l4, bound_4, bound_4 / max(l4, 1e-300),
                     l4 <= bound_4))
    slope = float(np.polyfit(np.log(t_list), np.log(sups), 1)[0])
    slope_tol = 0.15
    rows.append(("sup-slope", float("nan"), slope, -float(half_q), slope_tol,
                 abs(slope + half_q) <= slope_tol))

    # unitarity at the coefficient level, same data
    coef = analyze(u0, ell_max=8)
    before = spectral_norm_sq(coef)
    after = spectral_norm_sq(evolve_schrodinger(coef, t_list[-1]))
    drift = abs(after / before - 1.0)
    rows.append(("mass-spectral", t_list[-1], after, before, drift,
                 drift <= 1e-14))
    cols = ["check", "t", "measured", "bound", "margin", "pass"]
    return ExperimentReport(
        "dispersion", cols, rows,
        params={"d": d, "kappa": kappa, "R0": cfg.r0, "M_kappa": m_kappa,
                "u0_l1": l1, "grid": n_h})


# ---------------------------------------------------------------------------
# strichartz-window

def run_strichartz(cfg: ExperimentConfig) -> ExperimentReport:
    """Decay slopes over the onset window and the window integrals.

    Fits log-norm against log-t for p = 4 and p = infinity over
    [T, 64 T] with T the onset time, then integrates the admissible
    q-th power of each norm over the window; the tail-to-head ratio of
    that integral, split at the geometric middle of the window, is
    reported as the finiteness margin (see _window_ratio).

    Two exponents enter, and only one of them is a law.  The kernel is
    homogeneous, S_t(w) = t^(-Q/2) S_1(delta_{t^-1/2} w), so once t is
    large against R0^2 the solution is (integral of u0) S_t, and its
    L^p norm over the gauge ball of radius kappa sqrt(t), a fixed ball
    after rescaling, follows t^(-Q/2 + Q/(2p)).  The "slope" rows test
    that law to within the slope tolerance.  The interpolated global
    bound ||u||_inf^(1-2/p) ||u||_2^(2/p) decays like t^(-Q/2 + Q/p);
    it is an upper bound, not the rate, and the "slope-bound" rows only
    require the fitted slope not to exceed it by more than the
    tolerance.  At p = infinity the two exponents coincide at -Q/2."""
    d = cfg.d
    kappa = cfg.kappa
    q_dim = 2 * d + 2
    t_onset = dispersive_onset_time(kappa, cfg.r0, d)
    n_t = 4 if cfg.fast else 6
    t_list = cfg.times(tuple(2.0 * t_onset * 2.0 ** j for j in range(n_t)))
    n_h, n_v = _ball_grid(cfg.fast)

    u0 = bump_profile(cfg.r0, d)
    sups, l4s = [], []
    for t in t_list:
        sup, _, l4 = _evolved_ball_norms(u0, t, kappa, n_h, n_v)
        sups.append(sup)
        l4s.append(l4)

    rows = []
    slope_tol = 0.1
    for p, norms in ((float("inf"), sups), (4.0, l4s)):
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        law = -q_dim / 2.0 + q_dim * inv_p / 2.0
        bound = -q_dim / 2.0 + q_dim * inv_p
        slope = float(np.polyfit(np.log(t_list), np.log(norms), 1)[0])
        rows.append(("slope", p, slope, law, slope_tol,
                     abs(slope - law) <= slope_tol))
        rows.append(("slope-bound", p, slope, bound, slope_tol,
                     slope <= bound + slope_tol))
        q = admissible_q(p, d)
        powed = np.asarray(norms) ** q
        ratio = _window_ratio(t_list, powed)
        rows.append(("window-integral", p, _trapezoid(t_list, powed), q,
                     ratio, ratio < 0.7))
    for t, sup, l4 in zip(t_list, sups, l4s):
        rows.append(("norms", t, sup, l4, float("nan"), True))
    cols = ["check", "p_or_t", "measured", "reference", "margin", "pass"]
    return ExperimentReport(
        "strichartz-window", cols, rows,
        params={"d": d, "kappa": kappa, "R0": cfg.r0, "T_onset": t_onset,
                "grid": n_h})


def _trapezoid(t, y) -> float:
    """Integral over t of the piecewise-linear interpolant of y."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(t)))


def _window_ratio(t, y) -> float:
    """Tail-to-head ratio of the piecewise-linear integral of y over the
    ascending nodes t, split at the geometric middle sqrt(t_first t_last)
    rather than at a node, so the split does not depend on the node count.

    For y = t^(-a) the exact ratio is 1 at the borderline a = 1, whose
    integral grows by the same amount over every doubling, and smaller
    for faster decay: about 0.35 at a = 2 over three doublings."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    mid = math.sqrt(t[0] * t[-1])
    y_mid = float(np.interp(mid, t, y))
    head, tail = t < mid, t > mid
    head_area = _trapezoid(np.append(t[head], mid), np.append(y[head], y_mid))
    tail_area = _trapezoid(np.insert(t[tail], 0, mid),
                           np.insert(y[tail], 0, y_mid))
    return tail_area / max(head_area, 1e-300)


# ---------------------------------------------------------------------------
# concentrate

def run_concentrate(cfg: ExperimentConfig) -> ExperimentReport:
    """Concentration equalities, transport identity, hyperplane decay."""
    d = cfg.d
    tol = 1e-8
    t = cfg.times((1.7,))[0]
    rng = _Pcg64(cfg.seed)
    rows = []
    for ell in (0, 1, 2):
        for sign in (1, -1):
            data = LineData(ell=ell, lambda_sign=sign, d=d)
            probe = concentration_probe(data, t)
            for rho, mv, st in zip(probe.rho, probe.moving,
                                   probe.stationary):
                err = abs(mv - st) / max(abs(st), 1e-300)
                rows.append(("equality", ell, sign, rho, probe.s_star,
                             err, tol, err <= tol))

    # transport of the ell=0 line: the evolved solution equals the initial
    # data read at a vertically shifted point.  One side evolves the exact
    # coefficients and synthesizes them, the other is direct quadrature of
    # the profile, so the routes share nothing past the band density.
    data0 = LineData(ell=0, lambda_sign=1, d=d)
    coef = data0.spectral_coefficients(n=1025 if cfg.fast else 2049)
    drift = data0.drift(t)
    n_pts = 20
    rho_pts = rng.uniform(0.0, 3.0, n_pts)
    s_pts = rng.uniform(-8.0, 8.0, n_pts)
    a = synthesize(coef, rho_pts, s_pts, t)
    b = data0.value(0.0, rho_pts, s_pts + drift)
    scale = float(np.max(np.abs(b)))
    for i in range(n_pts):
        err = abs(a[i] - b[i]) / scale
        rows.append(("transport", 0, 1, float(rho_pts[i]), float(s_pts[i]),
                     err, 1e-6, err <= 1e-6))

    for profile, floor in (("hat", 2.0), ("bump", 2.0)):
        data = LineData(ell=0, lambda_sign=1, d=d, profile=profile)
        fit = hyperplane_decay_exponent(data, t)
        # the rate must clear the floor by more than its own round-off
        ok = fit.exponent - fit.roundoff >= floor
        rows.append(("decay-" + profile, 0, 1, float("nan"), float("nan"),
                     fit.exponent, floor, ok))
    cols = ["check", "ell", "sign", "rho", "s_or_sstar", "value", "tol",
            "pass"]
    return ExperimentReport("concentrate", cols, rows,
                            params={"d": d, "t": t, "seed": cfg.seed})


# ---------------------------------------------------------------------------
# restricted-sweep

def run_restricted_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Scaled size of the restricted kernels across times and strips."""
    d = cfg.d
    half_q = d + 1
    t_list = cfg.times((1.0, 2.0, 4.0, 8.0))
    rho = 0.25
    rows = []

    q0 = KernelQuery(d=d, t_or_z=1.3, rho=0.7, s=1.9, tol=1e-9)
    plain = schrodinger_kernel(q0).value
    same = restricted_kernel(0, q0).value
    rows.append((0, 1.9 / 1.3, 1.3, abs(same - plain), 0.0, same == plain))

    for ell in (1, 2):
        # the last ratio is halfway from the ell = 0 strip to the first height
        band_hi = 4.0 * (2 * ell + d)
        ratios = (0.0, 2.0, 0.5 * (4.0 * d + band_hi))
        at_t = [restricted_kernel(ell, [
            KernelQuery(d=d, t_or_z=float(t), rho=rho, s=float(r * t),
                        tol=1e-10) for r in ratios]) for t in t_list]
        for j, s_over_t in enumerate(ratios):
            # as printed, so that the spread is the one of the CSV's values
            scaled = [float(_fmt(t ** half_q * abs(vals[j].value)))
                      for t, vals in zip(t_list, at_t)]
            spread = (max(scaled) - min(scaled)) / np.mean(scaled)
            ok = spread < 0.05 and all(np.isfinite(scaled))
            for t, sv in zip(t_list, scaled):
                rows.append((ell, s_over_t, t, sv, spread, ok))
    cols = ["ell", "s_over_t", "t", "scaled_abs", "spread", "pass"]
    return ExperimentReport(
        "restricted-sweep", cols, rows,
        params={"d": d, "rho": rho})


# ---------------------------------------------------------------------------
# mkappa

def _mkappa_kappas(d: int) -> list:
    """The kappas of the mkappa rows, ascending toward sqrt(4d)."""
    top = math.sqrt(4.0 * d)
    return [0.0, 0.3 * top, 0.5 * top, 0.7 * top, 0.9 * top,
            math.sqrt(4.0 * d - 0.1), math.sqrt(4.0 * d - 0.01)]


def run_mkappa(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispersion constants over kappa and the endpoint blow-up."""
    d = cfg.d
    top = math.sqrt(4.0 * d)
    kappas = _mkappa_kappas(d)
    vals = dispersion_constant(kappas, d)
    signed = dispersion_constant(kappas, d, signed=True)
    rows = []
    for i, (k, v, sv) in enumerate(zip(kappas, vals, signed)):
        ok = v > 0 and sv <= v * (1.0 + 1e-12)
        if i:
            ok = ok and v > vals[i - 1]
        if k == 0.0 and d == 1:
            ok = ok and abs(v - 1.0 / 64.0) < 1e-9
        onset = dispersive_onset_time(k, cfg.r0, d) if k < top else float(
            "nan")
        rows.append(("value", k, v, sv, onset, ok))
    growth = vals[-1] / vals[-2]
    rows.append(("endpoint-growth", kappas[-2], kappas[-1], growth, 3.0,
                 growth > 3.0))
    cols = ["check", "kappa", "mkappa", "mkappa_signed_or_ratio",
            "onset_or_floor", "pass"]
    return ExperimentReport("mkappa", cols, rows,
                            params={"d": d, "R0": cfg.r0})


CATALOG = {
    "heat-equiv": run_heat_equiv,
    "mehler": run_mehler,
    "kernel-consistency": run_kernel_consistency,
    "dispersion": run_dispersion,
    "strichartz-window": run_strichartz,
    "concentrate": run_concentrate,
    "restricted-sweep": run_restricted_sweep,
    "mkappa": run_mkappa,
}

# How many times a report uses (at default size, under --fast), None for
# all; validate() refuses a longer list, times() cuts the default to it.
USES_TIMES = {"heat-equiv": (None, 2), "kernel-consistency": (1, 1),
              "dispersion": (None, 3), "concentrate": (1, 1),
              "restricted-sweep": (None, 3)}

# The settings each report reads (ExperimentConfig fields); the command
# line refuses a flag for any other, which the report would ignore.
READS = {
    "heat-equiv": ("d", "t_values", "fast"),
    "mehler": ("fast", "seed"),
    "kernel-consistency": ("d", "kappa", "r0", "t_values", "fast", "seed"),
    "dispersion": ("d", "kappa", "r0", "t_values", "fast"),
    "strichartz-window": ("d", "kappa", "r0", "t_values", "fast"),
    "concentrate": ("d", "t_values", "fast", "seed"),
    "restricted-sweep": ("d", "t_values", "fast"),
    "mkappa": ("d", "r0"),
}


def run(config: ExperimentConfig) -> ExperimentReport:
    config.validate()
    return CATALOG[config.experiment](config)
