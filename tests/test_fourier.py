"""Radial transform layer: blocks, grids, Plancherel, diagonal flows."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hlab import fourier
from hlab.fourier import (FrequencyPoint, RadialFunction,
                          SpectralCoefficients, analyze, bump_profile,
                          default_lambda_grid, evolve_schrodinger,
                          forward_coefficient, multiplicity, single_sign_lambda_grid,
                          spatial_norm_sq, spectral_norm_sq, symbol,
                          synthesize, wigner_radial, sublaplacian_fd)
from hlab.group import GroupPoint
from hlab.quadrature import gauss_panels
from hlab.solutions import LineData
from hlab.special import laguerre


def test_block_profile_closed_forms():
    rho = np.linspace(0.0, 4.0, 23)
    for lam in (0.8, -1.3):
        a = abs(lam)
        np.testing.assert_allclose(wigner_radial(0, lam, rho),
                                   np.exp(-a * rho), rtol=1e-14)
        x = 2.0 * a * rho
        np.testing.assert_allclose(
            wigner_radial(2, lam, rho),
            np.exp(-a * rho) * (1.0 - 2.0 * x + 0.5 * x * x), rtol=1e-12,
            atol=1e-15)


def test_symbol_and_multiplicity():
    assert symbol(0, 2.0) == 8.0
    assert symbol(3, -0.5, d=1) == 4.0 * 0.5 * 7
    assert [multiplicity(ell, 1) for ell in range(5)] == [1, 1, 1, 1, 1]
    assert [multiplicity(ell, 2) for ell in range(4)] == [1, 2, 3, 4]
    assert multiplicity(2, 3) == 6


def test_frequency_point_validation():
    with pytest.raises(ValueError):
        FrequencyPoint(-1, 1.0)
    with pytest.raises(ValueError):
        FrequencyPoint(0, 0.0)


def test_default_lambda_grid_integrates_plancherel_weight():
    grid, w = default_lambda_grid(1e-3, 50.0, 400)
    assert grid.size == 800 and np.all(np.diff(grid) > 0)
    assert np.all(grid != 0.0)
    got = float(np.sum(w * np.exp(-np.abs(grid)) * np.abs(grid)))
    a = 1e-3
    want = 2.0 * ((1 + a) * math.exp(-a) - 51.0 * math.exp(-50.0))
    assert got == pytest.approx(want, rel=3e-4)
    with pytest.raises(ValueError):
        default_lambda_grid(2.0, 1.0)
    with pytest.raises(ValueError):
        default_lambda_grid(1e-3, 50.0, 1)


def test_coefficient_container_validation():
    grid = np.array([0.5, 1.0, 2.0])
    w = np.ones(3)
    even = np.zeros((2, 3))
    SpectralCoefficients(d=1, lambda_grid=grid, weights=w, even=even)
    for bad in (dict(even=np.zeros((2, 4))), dict(odd=np.zeros((2, 2))),
                dict(even=even, odd=np.zeros((3, 3))), dict(even=None),
                dict(lambda_grid=grid[::-1].copy()),
                dict(lambda_grid=np.array([-1.0, 0.0, 1.0])),
                dict(weights=-w)):
        kw = dict(d=1, lambda_grid=grid, weights=w, even=even) | bad
        with pytest.raises(ValueError):
            SpectralCoefficients(**kw)
    with pytest.raises(ValueError):
        analyze(bump_profile(1.0), lambda_grid=grid)
    # nodes 0.5, 1 and 2, of which only 1 carries both signs: the signed
    # table is even + sign(lam) odd at each lam's node
    grid = np.array([-1.0, -0.5, 1.0, 2.0])
    c = SpectralCoefficients(d=1, lambda_grid=grid, weights=np.ones(4),
                             even=np.array([[1.0, 2.0, 3.0]]),
                             odd=np.array([[1j, 0.5, -1.0]]))
    assert np.array_equal(c.nodes, [0.5, 1.0, 2.0])
    assert np.array_equal(c.values, [[1.5, 1.0 - 1j, 2.5, 2.0]])
    assert c.ell_max == 0 and c.even.dtype == float
    assert c.odd.dtype == complex
    with pytest.raises(AttributeError):
        c.values = np.zeros((1, 4))


def test_analyze_matches_single_point_quadrature():
    f = bump_profile(1.2)
    grid = np.array([-2.2, 0.9])
    c = analyze(f, ell_max=3, lambda_grid=grid,
                lambda_weights=np.ones(2), n_rho=200, n_s=160)
    for ell in (0, 1, 3):
        for j, lam in enumerate(grid):
            want = forward_coefficient(f, ell, float(lam), n_rho=256)
            assert c.values[ell, j] == pytest.approx(want, rel=1e-9, abs=1e-13)


def _analyze_reference(f, ell_max, grid, n_rho, n_s):
    """Forward coefficients by a plain loop over lam and ell, one call of
    `laguerre` per degree instead of the sweep, and the round-off floor of
    each: (ell + 1) eps times the sum of the terms' bounds, from
    |L_ell^(d-1)(x)| <= C(ell + d - 1, ell) exp(x / 2)."""
    d = f.d
    xr, wr = np.polynomial.legendre.leggauss(n_rho)
    rho, wr = 0.5 * f.support_rho * (xr + 1.0), 0.5 * f.support_rho * wr
    xs, ws = np.polynomial.legendre.leggauss(n_s)
    s, ws = f.support_s * xs, f.support_s * ws
    table = f.profile(rho[:, None], s[None, :])
    base = math.pi ** d / math.factorial(d - 1)
    out = np.empty((ell_max + 1, grid.size), dtype=complex)
    floor = np.empty(out.shape)
    for j, lam in enumerate(grid):
        a = abs(lam)
        vert = table @ (ws * np.exp(-1j * s * lam))
        weight = wr * rho ** (d - 1) * np.exp(-a * rho) * vert
        mass = base * np.sum(np.abs(wr * rho ** (d - 1) * vert))
        for ell in range(ell_max + 1):
            lag = laguerre(ell, d - 1.0, 2.0 * a * rho)
            out[ell, j] = base / multiplicity(ell, d) * np.sum(weight * lag)
            floor[ell, j] = (ell + 1) * np.finfo(float).eps * mass
    return out, floor


def _profile_case(case, n_per_sign):
    """(profile, lam grid, weights) of one plain-loop case.

    1 and 2: the bump at that d, even in s: the cosine part alone.
    "shifted": real but neither even nor odd in s, a cosine and a sine
    part.  "odd": s times the bump, the sine part alone.  "complex":
    (1 + i/2) times the bump, cosine parts of the real and imaginary
    components; its c(ell, -lam) is not conj c(ell, lam).
    """
    bump = bump_profile(1.1)
    grid, w = default_lambda_grid(0.05, 9.0, n_per_sign=n_per_sign)
    if case == 1:
        f = bump
    elif case == 2:
        f = RadialFunction(profile=bump.profile, support_rho=bump.support_rho,
                           support_s=bump.support_s, d=2)
        grid, w = single_sign_lambda_grid(0.2, 6.0, 2 * n_per_sign - 1)
    elif case == "shifted":
        f = RadialFunction(profile=lambda rho, s: bump.profile(rho, s - 0.4),
                           support_rho=bump.support_rho,
                           support_s=bump.support_s + 0.4)
    elif case == "odd":
        f = RadialFunction(profile=lambda rho, s: s * bump.profile(rho, s),
                           support_rho=bump.support_rho,
                           support_s=bump.support_s)
    else:
        f = RadialFunction(
            profile=lambda rho, s: (1.0 + 0.5j) * bump.profile(rho, s),
            support_rho=bump.support_rho, support_s=bump.support_s)
    return f, grid, w


_CASES = [1, 2, "shifted", "odd", "complex"]


@pytest.mark.parametrize("one_column", [False, True])
@pytest.mark.parametrize("case", _CASES)
def test_analyze_matches_plain_loop(case, one_column, monkeypatch):
    f, grid, w = _profile_case(case, 7)
    if one_column:
        monkeypatch.setattr(fourier, "_FWD_CHUNK", 1)
    c = analyze(f, ell_max=6, lambda_grid=grid, lambda_weights=w,
                n_rho=16, n_s=24)
    want, _ = _analyze_reference(f, 6, grid, 16, 24)
    # the odd case has an entry 2e3 times below the largest, where both
    # routes sit about 1e-13 of it from an extended-precision sum
    atol = 1e-15 * np.max(np.abs(want)) if case == "odd" else 0.0
    np.testing.assert_allclose(c.values, want, rtol=1e-13, atol=atol)


def _spy(monkeypatch, name):
    """Record the arguments of every call of fourier.<name>."""
    calls = []
    real = getattr(fourier, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fourier, name, spy)
    return calls


def _panel_count(c):
    """Panels of the rule c keeps its parts on, or None when c holds its
    tables."""
    return None if c._rule is None else c._rule.edges.size - 1


def _within_per_ell(got, want, bound):
    """Every |got - want| within `bound` of its ell's max |want|."""
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    return bool(np.all(np.abs(got - want) <= bound * scale))


@pytest.mark.parametrize("ell_max", [6, 64])
@pytest.mark.parametrize("case", _CASES)
def test_analyze_on_panels_matches_plain_loop(case, ell_max, monkeypatch):
    # about 1200 lam: the panel rule in |lam| has 8 to 15 panels, so the
    # coefficients are interpolated; the plain loop checks every 13th
    # column and the last.  At ell_max = 64 the round-off floor of both
    # routes reaches 1e-13 to 3.5e-13 of max |c| at the top ell (against an
    # extended-precision sum); the probe allows for that floor, so every
    # case keeps the rule.
    f, grid, w = _profile_case(case, 601)
    c = analyze(f, ell_max=ell_max, lambda_grid=grid, lambda_weights=w,
                n_rho=16, n_s=24)
    assert 8 <= _panel_count(c) <= 15
    cols = np.r_[np.arange(0, grid.size, 13), grid.size - 1]
    want, floor = _analyze_reference(f, ell_max, grid[cols], 16, 24)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(c.values[:, cols] - want) <= 1e-13 * scale + floor)


def test_panel_probe_halves_a_rule_too_wide(monkeypatch):
    # twice the width: 20 panels on |lam| <= 40 miss the probe bound at
    # ell_max = 48, and the rule is refined to 40 panels
    f = bump_profile(1.0)
    grid, w = single_sign_lambda_grid(5e-4, 40.0, 4001)
    kw = dict(ell_max=48, lambda_grid=grid, lambda_weights=w, n_rho=64,
              n_s=65)
    monkeypatch.setattr(fourier, "_PANEL_WIDTH", 2.0 * fourier._PANEL_WIDTH)
    c = analyze(f, **kw)
    assert _panel_count(c) == 40
    monkeypatch.setattr(fourier, "_PANEL_PROBE", math.inf)
    unprobed = analyze(f, **kw)
    assert _panel_count(unprobed) == 20
    monkeypatch.setattr(fourier, "_on_panels", lambda *args: None)
    direct = analyze(f, **kw)
    assert _panel_count(direct) is None
    assert _within_per_ell(c.values, direct.values, 1e-13)
    assert not _within_per_ell(unprobed.values, direct.values, 1e-13)


def test_panel_rule_at_its_own_nodes(monkeypatch):
    # a grid that holds the rule's own nodes: where a node's offset in its
    # panel rounds to the rule's own x (100 of the 960 here), the
    # barycentric terms divide by zero, and the interpolant must return
    # the rule's value there, scaled, whichever nodes a read asks for
    # with it
    f = bump_profile(1.0)
    rule, _ = gauss_panels(0.0, 40.0, 40, 24)
    grid = np.unique(np.r_[rule, np.linspace(0.01, 40.0, 3000)])
    kw = dict(ell_max=8, lambda_grid=grid, lambda_weights=np.ones(grid.size),
              n_rho=32, n_s=33)
    c = analyze(f, **kw)
    assert _panel_count(c) == 40
    at = np.searchsorted(c.nodes, rule)
    assert np.array_equal(c.nodes[at], rule)
    on_rule = c._rule.values[0].reshape(9, -1) * c._rule.scale
    whole = c.even
    assert np.count_nonzero(np.all(whole[:, at] == on_rule, axis=0)) >= 100
    assert _within_per_ell(whole[:, at], on_rule, 1e-15)
    for width in (1, 97, 3276):
        assert np.array_equal(_read_in_chunks(c, width)[0], whole)
    monkeypatch.setattr(fourier, "_on_panels", lambda *args: None)
    assert _within_per_ell(c.values, analyze(f, **kw).values, 1e-13)


def test_small_grids_take_the_direct_route(monkeypatch):
    # bump supports 1, |lam| <= 50: 50 panels and their probes take 1250
    # evaluations, so 1251 distinct |lam| take the rule and 1249 do not;
    # nor do the 400 of the default grid, which come out bit for bit as on
    # the direct route
    f = bump_profile(1.0)
    taken = []
    for n in (1251, 1249):
        grid, w = single_sign_lambda_grid(1e-3, 50.0, n)
        taken.append(_panel_count(analyze(
            f, ell_max=8, lambda_grid=grid, lambda_weights=w, n_rho=32,
            n_s=33)))
    grid, w = default_lambda_grid()
    c = analyze(f, ell_max=8, lambda_grid=grid, lambda_weights=w)
    assert taken == [50, None] and _panel_count(c) is None
    monkeypatch.setattr(fourier, "_on_panels", lambda *args: None)
    direct = analyze(f, ell_max=8, lambda_grid=grid, lambda_weights=w)
    assert c.values.tobytes() == direct.values.tobytes()


def _read_in_chunks(c, width):
    """c's even and odd parts read through `rows`, `width` nodes at a
    time, as synthesize reads them."""
    chunks = [c.rows(a, min(a + width, c.nodes.size))
              for a in range(0, c.nodes.size, width)]
    return tuple(None if chunks[0][i] is None
                 else np.concatenate([rows[i] for rows in chunks], axis=1)
                 for i in (0, 1))


def _panel_case(case):
    """Coefficients on the panel rule at ell_max 12 over 5001 |lam| per
    sign up to 40: the bump (a real even part alone), or a complex profile
    shifted in s (complex even and odd parts)."""
    bump = bump_profile(1.0)
    f = bump if case == "bump" else RadialFunction(
        profile=lambda rho, s: (1.0 + 0.5j) * bump.profile(rho, s - 0.4),
        support_rho=1.0, support_s=1.4)
    gp, wp = single_sign_lambda_grid(5e-4, 40.0, 5001, 1)
    c = analyze(f, ell_max=12, lambda_grid=np.concatenate([-gp[::-1], gp]),
                lambda_weights=np.concatenate([wp[::-1], wp]), n_rho=32,
                n_s=48)
    assert _panel_count(c) is not None
    return c


@pytest.mark.parametrize("case", ["bump", "complex"])
def test_rows_read_in_chunks_match_the_whole_part(case):
    # chunks of 1, 97 and 3276 nodes; the 97-node chunks end inside the
    # rule's panels as well as at their edges
    c = _panel_case(case)
    whole = c.rows(0, c.nodes.size)
    if case == "bump":
        assert whole[0].dtype == float and whole[1] is None
    else:
        assert whole[0].dtype == whole[1].dtype == complex
    panel = np.searchsorted(c._rule.edges, c.nodes)
    ends = np.arange(97, c.nodes.size, 97)
    assert np.any(panel[ends - 1] == panel[ends])
    for width in (1, 97, 3276):
        for got, want in zip(_read_in_chunks(c, width), whole):
            assert got is None if want is None else np.array_equal(got, want)


def _as_tables(c):
    """c with its parts read whole into tables."""
    return SpectralCoefficients(d=c.d, lambda_grid=c.lambda_grid,
                                weights=c.weights, even=c.even, odd=c.odd)


@pytest.mark.parametrize("case", ["bump", "complex"])
def test_panel_rule_reads_as_its_tables(case, monkeypatch):
    # every reader gives the bits of the coefficients' tables: synthesize
    # at 1, 10 and 37 points (one, one and three blocks in each of three
    # |lam| chunks), evolve_schrodinger, spectral_norm_sq and values
    c = _panel_case(case)
    tables = _as_tables(c)
    assert _panel_count(tables) is None
    rng = np.random.default_rng(24)
    for n in (1, 10, 37):
        rho, s = rng.uniform(0.0, 3.0, n), rng.uniform(-4.0, 4.0, n)
        for t in (0.0, 2.5):
            assert (synthesize(c, rho, s, t).tobytes()
                    == synthesize(tables, rho, s, t).tobytes())
    # one interpolation per chunk, however many points there are
    reads = _spy(monkeypatch, "_interpolate")
    for n in (1, 10, 37):
        synthesize(c, rho[:n], s[:n], 2.5)
        assert len(reads) == -(-c.nodes.size // fourier._INV_WIDTH) == 3
        assert sum(r[-1].size for r in reads) == c.nodes.size
        reads.clear()
    assert c.values.tobytes() == tables.values.tobytes()
    assert spectral_norm_sq(c) == spectral_norm_sq(tables)
    for got, want in zip((c.even, c.odd, evolve_schrodinger(c, 2.5)),
                         (tables.even, tables.odd,
                          evolve_schrodinger(tables, 2.5))):
        if isinstance(got, SpectralCoefficients):
            got, want = got.values, want.values
        assert got is None if want is None else got.tobytes() == want.tobytes()


def test_real_data_has_hermitian_coefficients():
    f = bump_profile(1.0)
    grid = np.array([-1.7, -0.6, 0.6, 1.7])
    c = analyze(f, ell_max=2, lambda_grid=grid,
                lambda_weights=np.ones(4), n_rho=96, n_s=96)
    assert np.array_equal(c.values[:, :2], np.conj(c.values[:, :1:-1]))
    # the bump is even in s: its coefficients are real, not merely close
    assert not np.any(c.values.imag)
    shifted = RadialFunction(profile=lambda rho, s: f.profile(rho, s - 0.3),
                             support_rho=1.0, support_s=1.3)
    c = analyze(shifted, ell_max=2, lambda_grid=grid,
                lambda_weights=np.ones(4), n_rho=96, n_s=97)
    assert np.all(c.values.imag[:, 2:] != 0.0)
    assert np.array_equal(c.values[:, :2], np.conj(c.values[:, :1:-1]))


def test_analyze_of_zero_data_is_zero():
    f = RadialFunction(profile=lambda rho, s: 0.0 * rho * s, support_rho=1.0,
                       support_s=1.0)
    c = analyze(f, ell_max=3, lambda_grid=np.array([-1.0, 2.0]),
                lambda_weights=np.ones(2), n_rho=8, n_s=9)
    assert np.array_equal(c.values, np.zeros((4, 2)))
    # a grid wide enough for the panel rule, which zero data, having no
    # part to put on it, does not take
    grid, w = single_sign_lambda_grid(1e-3, 50.0, 2001)
    c = analyze(f, ell_max=3, lambda_grid=grid, lambda_weights=w, n_rho=8,
                n_s=9)
    assert _panel_count(c) is None
    assert np.array_equal(c.values, np.zeros((4, 2001)))


_THREADS_SCRIPT = """
import hashlib, numpy as np
from hlab.fourier import (RadialFunction, analyze, bump_profile,
                          evolve_schrodinger, single_sign_lambda_grid,
                          spectral_norm_sq, synthesize)


def stored(c):
    return b"".join(p.tobytes() for p in (c.even, c.odd) if p is not None)


gp, wp = single_sign_lambda_grid(5e-4, 40.0, 20001, 1)
grid = np.concatenate([-gp[::-1], gp])
w = np.concatenate([wp[::-1], wp])
c = analyze(bump_profile(1.0), ell_max=4, lambda_grid=grid, lambda_weights=w,
            n_rho=64, n_s=65)
# the fused call kernel-consistency makes: ten points evolved and summed at
# once; then the evolve-then-synthesize chain, one point at a time
rho = np.linspace(0.0, 2.7, 10)
s = np.linspace(-3.0, 2.0, 10)
data = synthesize(c, rho, s, 2.5).tobytes()
c = evolve_schrodinger(c, 2.5)
vals = [synthesize(c, r, s) for r, s in ((0.0, 0.0), (0.3, -0.7), (1.1, 2.0))]
vals.append(spectral_norm_sq(c))
data += stored(c) + c.values.tobytes() + np.array(vals).tobytes()
# nonzero at the last rho node, where the bump vanishes, on the panel rule
# and (801 lam) on the direct route, at kernel-consistency's rule shape
edge = RadialFunction(
    profile=lambda rho, s: np.exp(-rho - s * s) + np.cos(7.0 * rho + 3.0 * s),
    support_rho=1.0, support_s=1.0)
for g, wg in ((grid, w), (grid[::50], w[::50])):
    e = analyze(edge, ell_max=4, lambda_grid=g, lambda_weights=wg,
                n_rho=225, n_s=193)
    data += stored(e) + e.values.tobytes()
print(hashlib.sha256(data).hexdigest())
"""


def test_transform_bits_do_not_depend_on_blas_threads():
    # syntheses over a wide lam grid: the fused multi-point call that
    # kernel-consistency makes, and the evolve-then-synthesize chain
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(fourier.__file__))]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    digests = []
    for threads in (None, "1"):
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            if threads is None:
                env.pop(key, None)
            else:
                env[key] = threads
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def _band_limited():
    """Coefficients supported on lam in (1, 3), ell <= 2, and their field."""
    grid, w = single_sign_lambda_grid(0.5, 3.5, 201)
    u = grid - 2.0
    inside = np.abs(u) < 1.0
    win = np.zeros(grid.size)
    win[inside] = np.exp(-u[inside] ** 2 / (1.0 - u[inside] ** 2))
    c = SpectralCoefficients(d=1, lambda_grid=grid, weights=w,
                             even=np.array([win, 0.5 * win, -0.25 * win]))
    f = RadialFunction(profile=lambda rho, s: synthesize(c, rho, s),
                       support_rho=40.0, support_s=60.0)
    return c, f


def test_round_trip_on_band_limited_data():
    c, f = _band_limited()
    c2 = analyze(f, ell_max=4, lambda_grid=c.lambda_grid,
                 lambda_weights=c.weights, n_rho=160, n_s=400)
    scale = float(np.max(np.abs(c.values)))
    err = np.max(np.abs(c2.values[:3] - c.values)) / scale
    assert err < 2e-3
    # rows above the band must come back empty
    assert np.max(np.abs(c2.values[3:])) < 2e-3 * scale


def test_plancherel_identity_on_band_limited_data():
    c, f = _band_limited()
    spec = spectral_norm_sq(c)
    spat = spatial_norm_sq(f, n_rho=160, n_s=400)
    assert spec / spat == pytest.approx(math.pi ** 2, rel=5e-3)


def test_spectral_norm_does_not_depend_on_memory_order():
    c = analyze(bump_profile(1.0), ell_max=8)
    fortran = SpectralCoefficients(d=1, lambda_grid=c.lambda_grid,
                                   weights=c.weights,
                                   even=np.asfortranarray(c.even))
    assert fortran.even.flags.c_contiguous
    assert spectral_norm_sq(fortran) == spectral_norm_sq(c)
    rho, s = np.array([0.0, 0.7]), np.array([0.4, -1.3])
    assert (synthesize(fortran, rho, s, 1.5).tobytes()
            == synthesize(c, rho, s, 1.5).tobytes())


def _synthesize_reference(c, rho, s, t):
    """u(t) at each point by a plain loop over the signed lam of
    evolve_schrodinger(c, t), one point and one `laguerre` call per degree
    at a time, and the sum of the moduli of its terms."""
    ev = evolve_schrodinger(c, t)
    lam = ev.lambda_grid
    a = np.abs(lam)
    wl = ev.weights * a ** c.d * 2.0 ** (c.d - 1) / math.pi ** (c.d + 1)
    out = np.empty(len(rho), dtype=complex)
    mass = np.zeros(len(rho))
    for i, (r, x) in enumerate(zip(rho, s)):
        acc = 0.0
        for ell in range(c.ell_max + 1):
            terms = (ev.values[ell] * wl * np.exp(-a * r)
                     * laguerre(ell, c.d - 1.0, 2.0 * a * r)
                     * np.exp(1j * x * lam))
            acc += np.sum(terms)
            mass[i] += np.sum(np.abs(terms))
        out[i] = acc
    return out, mass


def _synthesis_case(case):
    """Coefficients of one synthesis case: the plain-loop profiles on
    their grids (1: the bump, odd row exactly 0; "shifted" and "complex":
    every component; 2: d = 2 on one sign), a grid on which some |lam|
    has one sign only, a LineData line (one sign, real rows), and the
    bump at ell_max = 48 on 4002 lam up to |lam| = 40, where the flow's
    phase turns up to 4 t 40 (2 ell_max + 1) = 38800 rad at t = 2.5."""
    if case == "high-ell":
        grid, w = default_lambda_grid(5e-4, 40.0, n_per_sign=2001)
        return analyze(bump_profile(1.0), ell_max=48, lambda_grid=grid,
                       lambda_weights=w, n_rho=64, n_s=65)
    if case == "line":
        return LineData(ell=2, lambda_sign=-1, band=(0.6, 3.1)
                        ).spectral_coefficients(n=129)
    f, grid, w = _profile_case("shifted" if case == "one-sided" else case, 60)
    if case == "one-sided":
        keep = (grid > 0.0) | (np.arange(grid.size) % 3 != 0)
        grid, w = grid[keep], w[keep]
    return analyze(f, ell_max=6, lambda_grid=grid, lambda_weights=w,
                   n_rho=16, n_s=24)


@pytest.mark.parametrize("t", [0.0, 0.7, 2.5])
@pytest.mark.parametrize("case", [1, 2, "shifted", "complex", "one-sided",
                                  "line", "high-ell"])
def test_synthesize_matches_plain_loop(case, t, monkeypatch):
    # the reference takes each row's phase by a direct exponential, so
    # at high ell and long t this checks the angle addition for drift
    c = _synthesis_case(case)
    rho = np.array([0.0, 0.3, 1.1, 2.5, 0.05, 4.0, 0.7])
    s = np.array([0.0, -0.7, 2.0, -3.1, 5.5, 0.4, -1.9])
    want, mass = _synthesize_reference(c, rho, s, t)
    got = [synthesize(c, rho, s, t)]
    # |lam| chunks of a third of the grid, each swept by the seven points
    # in four blocks of up to two; then the whole grid in one chunk
    monkeypatch.setattr(fourier, "_INV_POINTS", 2)
    for width in (c.nodes.size // 3 + 1, c.nodes.size):
        monkeypatch.setattr(fourier, "_INV_WIDTH", width)
        got.append(synthesize(c, rho, s, t))
    for g in got:
        assert np.all(np.abs(g - want) <= 1e-13 * mass)


def test_synthesize_bits_do_not_depend_on_the_block(monkeypatch):
    # over 9001 distinct |lam| (five chunks) a point's value must not
    # depend on which points share its call or its block: 37 points in
    # blocks of 1, 2, 5, 16 and 64, in their order, reversed, and mixed
    # with other points, against each point alone
    gp, wp = single_sign_lambda_grid(5e-4, 40.0, 9001, 1)
    c = analyze(bump_profile(1.0), ell_max=3,
                lambda_grid=np.concatenate([-gp[::-1], gp]),
                lambda_weights=np.concatenate([wp[::-1], wp]),
                n_rho=32, n_s=33)
    rng = np.random.default_rng(26)
    rho = rng.uniform(0.0, 3.0, 37)
    rho[0] = 0.0
    s = rng.uniform(-4.0, 4.0, 37)
    alone = np.array([synthesize(c, r, x, 2.5) for r, x in zip(rho, s)])
    more = rng.uniform(0.0, 3.0, 11), rng.uniform(-4.0, 4.0, 11)
    for points in (1, 2, 5, 16, 64):
        monkeypatch.setattr(fourier, "_INV_POINTS", points)
        assert synthesize(c, rho, s, 2.5).tobytes() == alone.tobytes()
        assert (synthesize(c, rho[::-1], s[::-1], 2.5).tobytes()
                == alone[::-1].tobytes())
        mixed = synthesize(c, np.concatenate([more[0], rho[::3]]),
                           np.concatenate([more[1], s[::3]]), 2.5)
        assert mixed[11:].tobytes() == alone[::3].tobytes()


@pytest.mark.parametrize("t", [0.0, 2.5])
@pytest.mark.parametrize("case", [1, 2, "complex", "one-sided", "line"])
def test_synthesize_bits_do_not_depend_on_the_chunks(case, t, monkeypatch):
    # 37 points on grids of 60 to 129 |lam|.  A point's bits follow the
    # chunk edges alone, not the points that share its chunks: under
    # _INV_WIDTH = 1, 11, 13 (which divide no grid's node count here) and
    # the default (one chunk), 37 points in blocks of 16 (16, 16 and 5)
    # or of 5 read as each point alone does.  Every width meets the
    # plain loop.  At t = 0 every imaginary component is zero and
    # skipped, and so is the odd one of the bump on its mirrored grid
    # (case 1)
    c = _synthesis_case(case)
    assert all(c.nodes.size % w for w in (11, 13))
    rng = np.random.default_rng(23)
    rho = rng.uniform(0.0, 3.0, 37)
    rho[0] = 0.0
    s = rng.uniform(-4.0, 4.0, 37)
    want, mass = _synthesize_reference(c, rho, s, t)
    for width in (1, 11, 13, fourier._INV_WIDTH):
        monkeypatch.setattr(fourier, "_INV_WIDTH", width)
        alone = np.array([synthesize(c, r, x, t) for r, x in zip(rho, s)])
        assert np.all(np.abs(alone - want) <= 1e-13 * mass)
        for points in (16, 5):
            monkeypatch.setattr(fourier, "_INV_POINTS", points)
            assert synthesize(c, rho, s, t).tobytes() == alone.tobytes()


def test_synthesize_rejects_negative_rho():
    # negative rho, and any rho, s or t that is not finite, which would
    # otherwise come back as nan
    c, _ = _band_limited()
    for rho, s, t in ((-0.1, 0.0, 0.0), (math.nan, 0.0, 0.0),
                      (math.inf, 0.0, 0.0), (0.5, math.inf, 0.0),
                      (0.5, -math.nan, 1.0), (0.5, 1.0, math.nan),
                      (0.5, 1.0, -math.inf)):
        with pytest.raises(ValueError):
            synthesize(c, np.array([0.2, rho]), np.array([0.0, s]), t)


_FLOW_CASES = [1, 2, "shifted", "complex", "one-sided", "line"]


@pytest.mark.parametrize("case", _FLOW_CASES)
def test_unitary_flow_conserves_spectral_mass(case):
    c = _synthesis_case(case)
    n0 = spectral_norm_sq(c)
    for t in (1e-3, 0.37, 12.0):
        assert spectral_norm_sq(evolve_schrodinger(c, t)) == pytest.approx(
            n0, rel=1e-14)


@pytest.mark.parametrize("case", _FLOW_CASES)
def test_flow_multipliers_act_blockwise(case):
    # the flow multiplies the even and the odd part apart, so where they
    # nearly cancel in c the product differs from c times the phase by
    # a few eps of |even| + |odd|, not of |c|
    c = _synthesis_case(case)
    t = 0.173
    ev = evolve_schrodinger(c, t)
    ell = np.arange(c.ell_max + 1)[:, None]
    lam = np.abs(c.lambda_grid)
    want = c.values * np.exp(4j * t * lam * (2 * ell + c.d))
    node = np.searchsorted(c.nodes, lam)
    scale = sum(np.abs(p[:, node]) for p in (c.even, c.odd) if p is not None)
    assert np.all(np.abs(ev.values - want) <= 4e-16 * scale
                  + 1e-13 * np.abs(want))


def _peak_bytes(fn):
    """Traced peak of fn() above what was allocated when it started."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_synthesize_streams_the_evolved_rows():
    # kernel-consistency --fast's synthesis: ell_max 48, 32501 distinct
    # |lam| and ten points.  Rows formed over the whole grid before the
    # sweep would take 2 T for the bump's two components, T one real
    # (ell_max + 1) x 32501 table, and a (points, |lam|) accumulator over
    # the whole grid 0.2 T per component; one chunk of 2048 |lam| holds
    # its interpolated rows (0.06 T), the block's accumulators and the
    # sweep's buffers, 0.32 T in all
    gp, wp = single_sign_lambda_grid(5e-4, 40.0, 32501, 1)
    c = analyze(bump_profile(1.0), ell_max=48,
                lambda_grid=np.concatenate([-gp[::-1], gp]),
                lambda_weights=np.concatenate([wp[::-1], wp]),
                n_rho=225, n_s=193)
    rho, s = np.linspace(0.0, 2.0, 10), np.linspace(-2.0, 2.0, 10)
    # numpy imports and caches what its first calls need
    synthesize(analyze(bump_profile(1.0), ell_max=2, n_rho=8, n_s=9),
               rho, s, 2.5)
    peak = _peak_bytes(lambda: synthesize(c, rho, s, 2.5))
    assert peak < 0.5 * 49 * gp.size * 8


def _arrays(obj):
    """Every numpy array that obj holds, through attributes and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _arrays(item)


def test_transform_keeps_no_signed_table(monkeypatch):
    # kernel-consistency's route at its --fast ell_max on 8001 lam per
    # sign, in sixteen |lam| chunks of 500 as at its 32501 nodes.  With T
    # one real (ell_max + 1) x 8001 table: the coefficients keep the
    # bump's part on the panel rule (0.19 T), not as a table over the
    # nodes (T); analyze peaks at 0.79 T and the synthesis, with one
    # chunk's rows, accumulators and sweep, at 0.6 T.  With the part as a
    # table the route takes 1.64 T, a complex table on the signed grid
    # would be 4 T alone, and evolved rows over the whole grid 2 T more
    f = bump_profile(1.0)
    gp, wp = single_sign_lambda_grid(5e-4, 40.0, 8001, 1)
    grid = np.concatenate([-gp[::-1], gp])
    w = np.concatenate([wp[::-1], wp])
    rho, s = np.linspace(0.0, 2.0, 10), np.linspace(-2.0, 2.0, 10)
    # numpy imports and caches what its first calls need
    synthesize(analyze(f, ell_max=2, n_rho=8, n_s=9), rho, s, 2.5)
    monkeypatch.setattr(fourier, "_INV_WIDTH", 500)
    kept = []

    def transform():
        c = analyze(f, ell_max=48, lambda_grid=grid, lambda_weights=w,
                    n_rho=225, n_s=193)
        synthesize(c, rho, s, 2.5)
        kept.append(c)

    assert _peak_bytes(transform) <= 1.1 * 49 * gp.size * 8
    assert not [a.shape for a in _arrays(kept[0])
                if a.ndim > 1 and a.shape[-1] == gp.size]


def test_finite_difference_matches_symbol():
    w = GroupPoint(np.array([0.3]), np.array([-0.2]), 0.4)
    for ell, lam in ((0, 0.7), (1, -0.9)):
        def mode(pt, ell=ell, lam=lam):
            blk = np.asarray(wigner_radial(ell, lam, pt.horizontal_sq()))
            return np.exp(1j * lam * pt.s) * complex(blk.reshape(-1)[0])
        got = sublaplacian_fd(mode, w)
        want = -symbol(ell, lam) * mode(w)
        assert got == pytest.approx(want, rel=5e-4)


def test_spectral_tail_of_bump_decays_like_one_over_ell():
    f = bump_profile(1.0)
    grid, w = default_lambda_grid(1e-3, 50.0, 400)
    c = analyze(f, ell_max=96, lambda_grid=grid, lambda_weights=w,
                n_rho=128)
    total = math.pi ** 2 * spatial_norm_sq(f)
    wl = c.weights * np.abs(c.lambda_grid)
    per_ell = (np.abs(c.values) ** 2) @ wl
    cum = np.cumsum(per_ell)
    tails = {L: (total - cum[L]) / total for L in (16, 32, 64)}
    for L, r in tails.items():
        assert 0.15 < r * L < 0.8, (L, r)
    assert tails[16] > tails[32] > tails[64]


def test_radial_function_table():
    f = bump_profile(1.1, amplitude=2.0)
    rho = np.linspace(0.0, 1.2, 7)
    s = np.linspace(-1.2, 1.2, 9)
    tab = f.table(rho, s)
    assert tab.shape == (7, 9)
    assert tab.max() == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        RadialFunction(profile=lambda r, t: r, support_rho=0.0, support_s=1.0)
    with pytest.raises(ValueError):
        bump_profile(-2.0)
