"""The benchmark's own checks of hlab report CSVs.

Every check recomputes a value apart from hlab (closed forms, series or
quadrature written here with numpy alone) or tests a property the method
must have.  None compares against a stored copy of an earlier report.
Each check_<report> function takes the CSV text (and the seed the report
ran with) and returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

# Reports print floats with 12 significant digits.
_PRINT_REL = 1e-11


class Report:
    """A parsed report CSV: its '# key=value' parameters and its rows."""

    def __init__(self, text: str):
        self.params = {}
        lines = [ln for ln in text.splitlines() if ln.strip()]
        body = []
        for line in lines:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                self.params[key] = value
            else:
                body.append(line.split(","))
        if not body:
            raise ValueError("report has no header row")
        self.columns = body[0]
        self.rows = [dict(zip(self.columns, cells)) for cells in body[1:]]

    def param(self, key: str) -> float:
        return float(self.params[key])

    def where(self, column: str, value: str) -> list:
        return [r for r in self.rows if r[column] == value]


def _f(row: dict, key: str) -> float:
    return float(row[key])


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def _slope(ts, vals) -> float:
    return float(np.polyfit(np.log(ts), np.log(vals), 1)[0])


# ---------------------------------------------------------------------------
# Reference values computed here

def _gauss_panels(lo: float, hi: float, n_panels: int, per_panel: int = 20):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
    weights = (half[:, None] * w[None, :]).reshape(-1)
    return nodes, weights


def _log_sinh_ratio(tau):
    """log(2 tau / sinh 2 tau) for tau != 0, overflow free."""
    a = np.abs(tau)
    return np.log(4.0 * a) - 2.0 * a - np.log1p(-np.exp(-4.0 * a))


def trigamma(x: float) -> float:
    """psi'(x) = sum over n >= 0 of 1/(x + n)^2, x > 0.

    Direct sum to n = 40, then the Euler-Maclaurin tail."""
    n = 40
    head = sum(1.0 / (x + k) ** 2 for k in range(n))
    y = x + n
    tail = (1.0 / y + 0.5 / y ** 2 + 1.0 / (6.0 * y ** 3)
            - 1.0 / (30.0 * y ** 5) + 1.0 / (42.0 * y ** 7))
    return head + tail


def dispersion_constant(kappa: float, d: int = 1) -> float:
    """M_kappa = (4 pi)^-(d+1) int (2 tau / sinh 2 tau)^d e^(kappa^2 |tau|/2).

    For d = 1, the only dimension the workloads run, the integral is the
    series 8 sum_n (2 - k + 4 n)^-2 with k = kappa^2 / 2, that is
    psi'((2 - k) / 4) / 2."""
    if d != 1:
        raise ValueError("the reference M_kappa is for d = 1 only")
    rate = 2.0 - 0.5 * kappa * kappa
    if rate <= 0.0:
        raise ValueError("kappa^2 must stay below 4 d")
    return 0.5 * trigamma(0.25 * rate) / (4.0 * math.pi) ** 2


def bump_norms(r0: float) -> tuple:
    """L^1 and L^2 norms on H^1 of the bump exp(-q / (1 - q)),
    q = (rho^2 + s^2) / r0^4.

    In polar coordinates of the (rho, s) half plane, with u = q and the
    horizontal measure pi d(rho) ds, the norms reduce to
    (pi^2 / 2) r0^4 int_0^1 exp(-p u / (1 - u)) du for p = 1 and 2."""
    u, w = _gauss_panels(0.0, 1.0, 8, 40)
    scale = 0.5 * math.pi ** 2 * r0 ** 4

    def moment(p):
        return scale * float(np.sum(w * np.exp(-p * u / (1.0 - u))))

    return moment(1), math.sqrt(moment(2))


def flow_kernel(z: complex, rho: float, s: float, d: int = 1) -> complex:
    """(4 pi z)^-(d+1) int (2 tau / sinh 2 tau)^d
    exp((i tau s - rho tau / tanh 2 tau) / (2 z)) d tau.

    z = t gives the heat kernel (Gaveau's formula), z = -i t the
    Schrodinger kernel.  Composite Gauss rule on [-T, T], far past the
    point where the envelope exp(-rate |tau|) reaches round-off; the
    panel edge at 0 keeps the nodes off the removable singularity."""
    z = complex(z)
    inv2z = 1.0 / (2.0 * z)
    rate = 2.0 * d + (rho * inv2z.real - abs(s * inv2z.imag))
    if rate <= 0.0:
        raise ValueError("point outside the strip of the kernel integral")
    top = 45.0 / rate
    freq = abs(s * inv2z.real) + 2.2 * rho * abs(inv2z.imag) + 1.0
    n_half = int(math.ceil(top * freq / 2.0)) + 8
    pos, w = _gauss_panels(0.0, top, n_half)
    tau = np.concatenate([-pos, pos])
    w = np.concatenate([w, w])
    expo = (d * _log_sinh_ratio(tau)
            + (1j * tau * s - rho * tau / np.tanh(2.0 * tau)) * inv2z)
    pref = (4.0 * math.pi * z) ** (-(d + 1))
    return complex(pref * np.sum(w * np.exp(expo)))


def mehler(x, y, r):
    """sum_m h_m(x) h_m(y) r^m for orthonormal Hermite functions, |r| < 1."""
    q = 1.0 - r * r
    return (np.exp(-((1.0 + r * r) * (x * x + y * y) - 4.0 * r * x * y)
                   / (2.0 * q)) / np.sqrt(math.pi * q))


def mehler_inputs(seed: int, n_cases: int):
    """The (x, y, r) and (lam, t, y, z) samples the mehler report draws
    from numpy's default_rng(seed), in its drawing order."""
    rng = np.random.default_rng(seed)
    first = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
              rng.uniform(-0.6, 0.6)) for _ in range(n_cases)]
    second = []
    for _ in range(n_cases):
        lam = rng.uniform(0.5, 3.0)
        t = rng.uniform(0.1, 0.6) / lam
        second.append((lam, t, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
    return first, second


# ---------------------------------------------------------------------------
# convolution workload

def check_dispersion(text: str, seed: int | None = None) -> list:
    rep = Report(text)
    bad = []
    d = int(rep.param("d"))
    half_q = d + 1
    m_kappa = dispersion_constant(rep.param("kappa"), d)
    l1, l2 = bump_norms(rep.param("R0"))
    if not _close(rep.param("M_kappa"), m_kappa, 1e-9):
        bad.append("M_kappa %r, own value %r"
                   % (rep.param("M_kappa"), m_kappa))
    sups = rep.where("check", "sup")
    for row in sups:
        t = _f(row, "t")
        if not _f(row, "measured") <= m_kappa * t ** -half_q * l1:
            bad.append("sup at t=%g above M_kappa t^-Q/2 ||u0||_1" % t)
    for row in rep.where("check", "mass"):
        if not _f(row, "measured") <= l2 * (1.0 + 1e-9):
            bad.append("ball mass at t=%s above the initial mass %r"
                       % (row["t"], l2))
    for row in rep.where("check", "l4"):
        t = _f(row, "t")
        if not _f(row, "measured") <= math.sqrt(m_kappa * t ** -half_q
                                                * l1 * l2):
            bad.append("l4 at t=%g above the interpolated bound" % t)
    if len(sups) < 2:
        bad.append("fewer than two sup rows")
    else:
        slope = _slope([_f(r, "t") for r in sups],
                       [_f(r, "measured") for r in sups])
        if abs(slope + half_q) > 0.15:
            bad.append("sup slope %.4f, law %d" % (slope, -half_q))
        rows = rep.where("check", "sup-slope")
        if len(rows) != 1 or not _close(_f(rows[0], "measured"), slope, 1e-9):
            bad.append("sup-slope row does not match the refit %.6f" % slope)
    return bad


def check_strichartz_window(text: str, seed: int | None = None) -> list:
    """Slopes refitted from the norms rows against -Q/2 + Q/(2p), and the
    window integrals recomputed.  The report's own tail-to-head ratio
    gate is not repeated here."""
    rep = Report(text)
    bad = []
    d = int(rep.param("d"))
    q_dim = 2 * d + 2
    onset = (rep.param("R0") / (math.sqrt(4.0 * d) - rep.param("kappa"))) ** 2
    if not _close(rep.param("T_onset"), onset, 1e-9):
        bad.append("T_onset %r, own value %r" % (rep.param("T_onset"), onset))
    norms = rep.where("check", "norms")
    if len(norms) < 2:
        return bad + ["fewer than two norms rows"]
    ts = np.array([_f(r, "p_or_t") for r in norms])
    by_p = {"inf": np.array([_f(r, "measured") for r in norms]),
            "4": np.array([_f(r, "reference") for r in norms])}
    for p, vals in by_p.items():
        inv_p = 0.0 if p == "inf" else 1.0 / float(p)
        law = -q_dim / 2.0 + q_dim * inv_p / 2.0
        slope = _slope(ts, vals)
        if abs(slope - law) > 0.1:
            bad.append("p=%s slope %.4f, law %.2f" % (p, slope, law))
        rows = [r for r in rep.where("check", "slope") if r["p_or_t"] == p]
        if len(rows) != 1 or not _close(_f(rows[0], "measured"), slope, 1e-9):
            bad.append("p=%s slope row does not match the refit" % p)
        q = 1.0 / (q_dim / 4.0 - q_dim * inv_p / 2.0)
        powed = vals ** q
        total = float(np.sum(0.5 * (powed[1:] + powed[:-1]) * np.diff(ts)))
        rows = [r for r in rep.where("check", "window-integral")
                if r["p_or_t"] == p]
        if (len(rows) != 1 or not _close(_f(rows[0], "measured"), total, 1e-9)
                or not _close(_f(rows[0], "reference"), q, 1e-12)):
            bad.append("p=%s window integral does not match q=%g, %r"
                       % (p, q, total))
    return bad


def check_kernel_batch(batch, seed: int) -> list:
    """A few values of hlab.kernels.schrodinger_batch against this
    module's quadrature of the tau integral.  `batch` has the signature
    of schrodinger_batch(d, t, rho, s, tol) -> (values, err).

    The batch runs at the dispersion report's kernel tolerance, 1e-8.
    Its values are good to a few parts in 1e7 (its fixed Gauss panels
    are wide where the phase is slow), so 1e-5 relative catches a wrong
    kernel without failing an accurate one."""
    rng = np.random.default_rng(seed)
    bad = []
    for t in (4.0, 8.0, 16.0):
        rho = rng.uniform(0.0, 3.0, 3)
        s = rng.uniform(-2.0 * t, 2.0 * t, 3)
        values, _ = batch(1, t, rho, s, 1e-8)
        for r, sv, v in zip(rho, s, values):
            own = flow_kernel(complex(0.0, -t), float(r), float(sv))
            if abs(v - own) > 1e-5 * abs(own):
                bad.append("schrodinger_batch(t=%g, rho=%.4f, s=%.4f) = %r, "
                           "own quadrature %r" % (t, r, sv, v, own))
    return bad


# ---------------------------------------------------------------------------
# transform workload

def check_kernel_consistency(text: str, seed: int | None = None) -> list:
    rep = Report(text)
    bad = []
    evolve = rep.where("check", "evolve")
    if not evolve:
        bad.append("no evolve rows")
    for row in evolve:
        spec = complex(_f(row, "spec_re"), _f(row, "spec_im"))
        conv = complex(_f(row, "conv_re"), _f(row, "conv_im"))
        rel = abs(spec - conv) / abs(conv)
        if not _close(_f(row, "rel_err"), rel, 1e-6, 1e-12):
            bad.append("rel_err %s, recomputed %r" % (row["rel_err"], rel))
        if not rel <= 1e-2:
            bad.append("spectral and convolution routes differ by %.3g" % rel)
    limit = rep.where("check", "limit")
    diffs = [_f(r, "conv_re") for r in limit]
    if len(diffs) < 2:
        bad.append("fewer than two complex-time limit rows")
    for prev, cur, row in zip(diffs, diffs[1:], limit[1:]):
        if not cur < prev:
            bad.append("complex-time difference %r does not decrease" % cur)
        if not _close(_f(row, "conv_im"), cur / prev, 1e-9):
            bad.append("complex-time ratio %s, recomputed %r"
                       % (row["conv_im"], cur / prev))
    return bad


def check_concentrate(text: str, seed: int | None = None) -> list:
    rep = Report(text)
    bad = []
    limits = {"equality": 1e-8, "transport": 1e-6}
    for check, tol in limits.items():
        rows = rep.where("check", check)
        if not rows:
            bad.append("no %s rows" % check)
        worst = max((_f(r, "value") for r in rows), default=0.0)
        if not worst <= tol:
            bad.append("%s error %.3g above %g" % (check, worst, tol))
    for profile in ("hat", "bump"):
        rows = rep.where("check", "decay-" + profile)
        if len(rows) != 1 or not _f(rows[0], "value") >= 2.0:
            bad.append("decay exponent of the %s profile below 2" % profile)
    return bad


# ---------------------------------------------------------------------------
# closed-forms workload

def check_heat_equiv(text: str, seed: int | None = None) -> list:
    """Both of the report's heat kernel columns against this module's
    quadrature of Gaveau's formula, on every row."""
    rep = Report(text)
    bad = []
    if not rep.rows:
        bad.append("no rows")
    for row in rep.rows:
        own = flow_kernel(_f(row, "t"), _f(row, "rho"), _f(row, "s"),
                          int(row["d"])).real
        for col in ("series_re", "integral_re"):
            if not _close(_f(row, col), own, 1e-7):
                bad.append("%s at t=%s rho=%s s=%s: %s, own %r"
                           % (col, row["t"], row["rho"], row["s"], row[col],
                              own))
    return bad


def check_mehler(text: str, seed: int) -> list:
    """Every sum against Mehler's formula.  The heat-line rows do not
    print z, so the inputs are drawn again from the seed; the printed
    columns must match the redrawn ones."""
    rep = Report(text)
    bad = []
    n_cases = int(rep.param("cases"))
    first, second = mehler_inputs(seed, n_cases)
    rows_m = rep.where("identity", "mehler")
    rows_h = rep.where("identity", "heat-line")
    if len(rows_m) != n_cases or len(rows_h) != n_cases:
        return ["expected %d rows of each identity" % n_cases]
    for row, (x, y, r) in zip(rows_m, first):
        got = [_f(row, k) for k in ("p1", "p2", "p3")]
        if not all(_close(g, v, _PRINT_REL, 1e-12) for g, v in
                   zip(got, (x, y, r))):
            bad.append("mehler inputs %r are not the seed's %r"
                       % (got, (x, y, r)))
        elif abs(_f(row, "sum") - mehler(x, y, r)) > 1e-9:
            bad.append("mehler sum %s, closed form %r"
                       % (row["sum"], mehler(x, y, r)))
    for row, (lam, t, y, z) in zip(rows_h, second):
        got = [_f(row, k) for k in ("p1", "p2", "p3")]
        if not all(_close(g, v, _PRINT_REL, 1e-12) for g, v in
                   zip(got, (lam, t, y))):
            bad.append("heat-line inputs %r are not the seed's %r"
                       % (got, (lam, t, y)))
            continue
        # sum_m e^(-2 m t lam) H_m,lam(z - y) H_m,lam(z + y) is Mehler's
        # formula at sqrt(lam) (z -+ y) with r = e^(-2 t lam).
        root = math.sqrt(lam)
        own = root * mehler(root * (z - y), root * (z + y),
                            math.exp(-2.0 * t * lam))
        if abs(_f(row, "sum") - own) > 1e-9:
            bad.append("heat-line sum %s, Gaussian %r" % (row["sum"], own))
    return bad


def check_restricted_sweep(text: str, seed: int | None = None) -> list:
    rep = Report(text)
    bad = []
    groups = {}
    for row in rep.rows:
        if row["ell"] == "0":
            if _f(row, "scaled_abs") != 0.0:
                bad.append("restricted kernel at ell=0 differs from the "
                           "plain kernel")
            continue
        groups.setdefault((row["ell"], row["s_over_t"]), []).append(row)
    if not groups:
        bad.append("no restricted rows")
    for key, rows in groups.items():
        vals = np.array([_f(r, "scaled_abs") for r in rows])
        spread = float((vals.max() - vals.min()) / vals.mean())
        if not all(_close(_f(r, "spread"), spread, 1e-9) for r in rows):
            bad.append("ell=%s s/t=%s: stated spread does not match %r"
                       % (key + (spread,)))
        if not spread < 0.05:
            bad.append("ell=%s s/t=%s: scaled values spread by %.3g"
                       % (key + (spread,)))
    return bad


def check_mkappa(text: str, seed: int | None = None) -> list:
    rep = Report(text)
    bad = []
    d = int(rep.param("d"))
    rows = rep.where("check", "value")
    kappas = [_f(r, "kappa") for r in rows]
    vals = [_f(r, "mkappa") for r in rows]
    for k, v, row in zip(kappas, vals, rows):
        own = dispersion_constant(k, d)
        if not _close(v, own, 1e-8):
            bad.append("M_kappa(%g) = %r, own value %r" % (k, v, own))
        if not _f(row, "mkappa_signed_or_ratio") <= v * (1.0 + 1e-12):
            bad.append("signed M_kappa(%g) above M_kappa" % k)
        if k == 0.0 and d == 1 and abs(v - 1.0 / 64.0) > 1e-9:
            bad.append("M_0 = %r, not 1/64" % v)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        bad.append("M_kappa does not increase with kappa")
    if 0.0 not in kappas:
        bad.append("no kappa = 0 row")
    return bad


CHECKS = {
    "dispersion": check_dispersion,
    "strichartz-window": check_strichartz_window,
    "kernel-consistency": check_kernel_consistency,
    "concentrate": check_concentrate,
    "heat-equiv": check_heat_equiv,
    "mehler": check_mehler,
    "restricted-sweep": check_restricted_sweep,
    "mkappa": check_mkappa,
}


def check_report(name: str, text: str, seed: int) -> list:
    """Failure messages of the named report's check; a report that
    cannot be parsed fails with the parse error."""
    try:
        return CHECKS[name](text, seed)
    except (KeyError, ValueError, IndexError, ArithmeticError) as exc:
        return ["cannot read the report: %r" % exc]
