"""Tests of the benchmark's own report checks and span accounting.

Each test builds a small report CSV from the reference values in
checks.py, shows that the check passes it, then disturbs one value and
shows that the check fails.  No hlab experiment runs.

    python3 -m pytest bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from spans import TRACED, TRACED_METHODS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _csv(params: dict, columns: list, rows: list) -> str:
    lines = ["# %s=%s" % kv for kv in sorted(params.items())]
    lines.append(",".join(columns))
    lines += [",".join("%.12g" % x if isinstance(x, float) else str(x)
                       for x in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reference values

def test_dispersion_constant_at_zero_is_one_over_64():
    assert checks.dispersion_constant(0.0, 1) == pytest.approx(1 / 64,
                                                               rel=1e-13)


def test_series_agrees_with_quadrature():
    k = 0.5 * 1.3 ** 2
    tau, w = checks._gauss_panels(0.0, 60.0 / (2.0 - k), 400)
    quad = 2.0 * np.sum(w * np.exp(checks._log_sinh_ratio(tau) + k * tau))
    assert checks.dispersion_constant(1.3, 1) == pytest.approx(
        quad / (4 * math.pi) ** 2, rel=1e-11)


def test_heat_kernel_at_origin():
    # p_t(0, 0) = (4 pi t)^-2 int 2 tau / sinh 2 tau = 1 / (64 t^2) on H^1
    assert checks.flow_kernel(0.5, 0.0, 0.0).real == pytest.approx(
        1 / 16, rel=1e-12)


# ---------------------------------------------------------------------------
# mehler

def _mehler_report(seed, n_cases=3):
    first, second = checks.mehler_inputs(seed, n_cases)
    rows = []
    for x, y, r in first:
        v = checks.mehler(x, y, r)
        rows.append(["mehler", x, y, r, v, v, 0.0, 1e-8, 1])
    for lam, t, y, z in second:
        root = math.sqrt(lam)
        v = root * checks.mehler(root * (z - y), root * (z + y),
                                 math.exp(-2 * t * lam))
        rows.append(["heat-line", lam, t, y, v, v, 0.0, 1e-8, 1])
    cols = ["identity", "p1", "p2", "p3", "sum", "closed", "abs_err", "tol",
            "pass"]
    return {"cases": n_cases, "seed": seed}, cols, rows


@pytest.mark.parametrize("row", [1, 4])
def test_mehler_sum_off_by_1e_6_fails(row):
    params, cols, rows = _mehler_report(seed=7)
    assert checks.check_mehler(_csv(params, cols, rows), 7) == []
    rows[row][4] += 1e-6
    assert checks.check_mehler(_csv(params, cols, rows), 7)


def test_mehler_inputs_must_come_from_the_seed():
    params, cols, rows = _mehler_report(seed=7)
    assert checks.check_mehler(_csv(params, cols, rows), 8)


# ---------------------------------------------------------------------------
# dispersion and strichartz-window

def _dispersion_report():
    m = checks.dispersion_constant(1.0)
    l1, l2 = checks.bump_norms(1.0)
    rows = []
    ts = [4.0, 8.0, 16.0]
    for t in ts:
        bound = m * t ** -2 * l1
        rows.append(["sup", t, 0.66 * bound, bound, 1 / 0.66, 1])
        rows.append(["mass", t, 0.01 * l2 * 4 / t, l2, 0.0, 1])
        rows.append(["l4", t, 0.1 * math.sqrt(bound * l2), 1.0, 0.0, 1])
    rows.append(["sup-slope", float("nan"), -2.0, -2.0, 0.15, 1])
    params = {"M_kappa": "%.12g" % m, "R0": 1, "d": 1, "kappa": 1,
              "u0_l1": "%.12g" % l1}
    return params, ["check", "t", "measured", "bound", "margin", "pass"], rows


def test_dispersion_mass_above_initial_mass_fails():
    params, cols, rows = _dispersion_report()
    assert checks.check_dispersion(_csv(params, cols, rows)) == []
    rows[4][2] = 1.0001 * checks.bump_norms(1.0)[1]
    assert checks.check_dispersion(_csv(params, cols, rows))


def test_dispersion_wrong_constant_fails():
    params, cols, rows = _dispersion_report()
    params["M_kappa"] = "%.12g" % (1.000001 * float(params["M_kappa"]))
    assert checks.check_dispersion(_csv(params, cols, rows))


def _strichartz_report():
    ts = np.array([2.0, 4.0, 8.0, 16.0])
    sups, l4s = 0.03 * ts ** -2.0, 0.03 * ts ** -1.5
    rows = []
    for p, vals, q in (("inf", sups, 1.0), ("4", l4s, 2.0)):
        law = -2.0 if p == "inf" else -1.5
        powed = vals ** q
        total = float(np.sum(0.5 * (powed[1:] + powed[:-1]) * np.diff(ts)))
        rows.append(["slope", p, law, law, 0.1, 1])
        rows.append(["window-integral", p, total, q, 0.5, 1])
    for t, s, l4 in zip(ts, sups, l4s):
        rows.append(["norms", t, s, l4, "nan", 1])
    params = {"R0": 1, "T_onset": 1, "d": 1, "kappa": 1}
    return params, ["check", "p_or_t", "measured", "reference", "margin",
                    "pass"], rows


def test_norms_row_bending_the_sup_slope_by_0_2_fails():
    params, cols, rows = _strichartz_report()
    assert checks.check_strichartz_window(_csv(params, cols, rows)) == []
    # with log t equally spaced over four points, scaling the last norm
    # by exp(delta) moves the fitted slope by delta * 1.5 / (5 log 2)
    delta = 0.2 * 5 * math.log(2) / 1.5
    rows[-1][2] *= math.exp(delta)
    ts = [r[1] for r in rows[-4:]]
    moved = checks._slope(ts, [r[2] for r in rows[-4:]])
    assert moved == pytest.approx(-1.8, abs=1e-9)
    assert checks.check_strichartz_window(_csv(params, cols, rows))


def test_kernel_batch_spot_check():
    def exact(d, t, rho, s, tol):
        vals = [checks.flow_kernel(complex(0, -t), r, sv, d)
                for r, sv in zip(rho, s)]
        return np.array(vals), 0.0

    def off(d, t, rho, s, tol):
        vals, err = exact(d, t, rho, s, tol)
        return vals * (1 + 1e-4), err

    assert checks.check_kernel_batch(exact, 3) == []
    assert checks.check_kernel_batch(off, 3)


# ---------------------------------------------------------------------------
# transform workload

def _consistency_rows():
    cols = ["check", "c1", "c2", "c3", "spec_re", "spec_im", "conv_re",
            "conv_im", "rel_err", "tol", "pass"]
    spec, conv = complex(-0.0050, 0.0012), complex(-0.00501, 0.0012)
    rel = abs(spec - conv) / abs(conv)
    rows = [["evolve", 0.1, 0.2, 0.3, spec.real, spec.imag, conv.real,
             conv.imag, rel, 0.01, 1],
            ["limit", 0.01, 1, "nan", "nan", "nan", 2e-3, "nan", "nan",
             "nan", 1],
            ["limit", 0.001, 1, "nan", "nan", "nan", 2e-4, 0.1, "nan",
             "nan", 1]]
    return cols, rows


def test_kernel_consistency_disturbed_values_fail():
    cols, rows = _consistency_rows()
    assert checks.check_kernel_consistency(_csv({}, cols, rows)) == []
    rows[0][8] *= 1.01
    assert checks.check_kernel_consistency(_csv({}, cols, rows))
    cols, rows = _consistency_rows()
    rows[2][6], rows[2][7] = 3e-3, 1.5
    assert checks.check_kernel_consistency(_csv({}, cols, rows))


def test_concentrate_errors_above_tolerance_fail():
    cols = ["check", "ell", "sign", "rho", "s_or_sstar", "value", "tol",
            "pass"]
    rows = [["equality", 0, 1, 0.0, -6.8, 1e-15, 1e-8, 1],
            ["transport", 0, 1, 0.4, -3.0, 1e-16, 1e-6, 1],
            ["decay-hat", 0, 1, "nan", "nan", 2.005, 2, 1],
            ["decay-bump", 0, 1, "nan", "nan", 8.2, 2, 1]]
    assert checks.check_concentrate(_csv({}, cols, rows)) == []
    for i, value in ((0, 2e-8), (1, 2e-6), (2, 1.99)):
        bent = [list(r) for r in rows]
        bent[i][5] = value
        assert checks.check_concentrate(_csv({}, cols, bent))


# ---------------------------------------------------------------------------
# closed-forms workload

def test_heat_equiv_disturbed_value_fails():
    cols = ["d", "t", "rho", "s", "series_re", "series_im", "integral_re",
            "integral_im", "rel_err", "tol", "pass"]
    v = checks.flow_kernel(1.0, 2.0, -2.0).real
    rows = [[1, 1.0, 2.0, -2.0, v, 0, v, 0, 0.0, 1e-7, 1]]
    assert checks.check_heat_equiv(_csv({}, cols, rows)) == []
    rows[0][4] = v * (1 + 1e-6)
    assert checks.check_heat_equiv(_csv({}, cols, rows))


def test_mkappa_disturbed_values_fail():
    cols = ["check", "kappa", "mkappa", "mkappa_signed_or_ratio",
            "onset_or_floor", "pass"]
    kappas = [0.0, 1.0, 1.8]
    vals = [checks.dispersion_constant(k) for k in kappas]
    rows = [["value", k, v, 0.9 * v, 1.0, 1] for k, v in zip(kappas, vals)]
    assert checks.check_mkappa(_csv({"d": 1}, cols, rows)) == []
    for i, value in ((0, 1 / 64 + 1e-8), (2, 0.5 * vals[1])):
        bent = [list(r) for r in rows]
        bent[i][2] = value
        assert checks.check_mkappa(_csv({"d": 1}, cols, bent))


def test_restricted_spread_must_match_and_stay_small():
    cols = ["ell", "s_over_t", "t", "scaled_abs", "spread", "pass"]
    vals = [0.00300, 0.00301, 0.00302]
    spread = (max(vals) - min(vals)) / np.mean(vals)
    rows = [[0, 1.4, 1.3, 0.0, 0.0, 1]]
    rows += [[1, 2, t, v, spread, 1] for t, v in zip((1.0, 2.0, 4.0), vals)]
    assert checks.check_restricted_sweep(_csv({}, cols, rows)) == []
    rows[2][3] = 0.0032
    assert checks.check_restricted_sweep(_csv({}, cols, rows))


# ---------------------------------------------------------------------------
# spans

def test_self_time_excludes_nested_spans_and_recursion_counts_once():
    tracer = Tracer()

    def inner(n):
        return sum(range(n))

    traced_inner = tracer.wrap("inner", inner)

    def outer(depth):
        if depth:
            return traced_outer(depth - 1)
        return traced_inner(100000)

    traced_outer = tracer.wrap("outer", outer)
    traced_outer(2)
    assert tracer.calls == {"outer": 3, "inner": 1}
    assert tracer.self_time["outer"] + tracer.inclusive["inner"] == (
        pytest.approx(tracer.inclusive["outer"], rel=1e-9))
    assert tracer.inclusive["outer"] >= tracer.inclusive["inner"] > 0


def test_every_declared_layer_metric_names_a_span():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    spans = {t[0] for t in TRACED} | {t[0] for t in TRACED_METHODS}
    spans |= {"experiments.run_" + r.name
              for reports in WORKLOADS.values() for r in reports}
    derived = {"experiments.self_s", "cli.self_s", "trace.overhead_s",
               "backend.kernel_tau_sum.evals_per_s"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert name in derived or name.rpartition(".")[0] in spans, name
