"""Group arithmetic property suite: 10^3 randomized cases per law."""

import numpy as np
import pytest

from hlab.group import (GroupPoint, dilate, distance, homogeneous_dimension,
                        identity, inverse, koranyi_norm, product)
from hlab.quadrature import radial_ball_norms, radial_ball_rule

N_CASES = 1000


def random_point(rng: np.random.Generator, d: int = 1,
                 scale: float = 1.0) -> GroupPoint:
    """Gaussian horizontal parts, uniform vertical part in [-4, 4] * scale^2."""
    y = scale * rng.standard_normal(d)
    eta = scale * rng.standard_normal(d)
    s = scale * scale * rng.uniform(-4.0, 4.0)
    return GroupPoint(y, eta, s)


def _points(seed, d=1, scale=1.0, n=N_CASES):
    rng = np.random.default_rng(seed)
    return [random_point(rng, d=d, scale=scale) for _ in range(n)]


def _close(a: GroupPoint, b: GroupPoint, tol=1e-12):
    sc = 1.0 + koranyi_norm(a) ** 2 + koranyi_norm(b) ** 2
    return (np.allclose(a.y, b.y, atol=tol * sc)
            and np.allclose(a.eta, b.eta, atol=tol * sc)
            and abs(a.s - b.s) <= tol * sc)


def test_associativity():
    ws = _points(1)
    us = _points(2)
    vs = _points(3)
    for w, u, v in zip(ws, us, vs):
        assert _close(product(product(w, u), v), product(w, product(u, v)))


def test_identity_and_inverse():
    e = identity(1)
    for w in _points(4):
        assert _close(product(w, e), w)
        assert _close(product(e, w), w)
        assert _close(product(w, inverse(w)), e)
        assert _close(product(inverse(w), w), e)


def test_noncommutativity_is_the_rule():
    # the twist term makes generic pairs non-commuting
    ws = _points(5)
    us = _points(6)
    flips = sum(abs(product(w, u).s - product(u, w).s) > 1e-9
                for w, u in zip(ws, us))
    assert flips > 0.9 * N_CASES


def test_gauge_homogeneity_under_dilations():
    rng = np.random.default_rng(7)
    for w in _points(8):
        a = float(rng.uniform(0.1, 5.0))
        assert koranyi_norm(dilate(a, w)) == pytest.approx(
            a * koranyi_norm(w), rel=1e-13)


def test_dilations_are_automorphisms():
    ws = _points(9)
    us = _points(10)
    rng = np.random.default_rng(11)
    for w, u in zip(ws, us):
        a = float(rng.uniform(0.1, 5.0))
        assert _close(dilate(a, product(w, u)),
                      product(dilate(a, w), dilate(a, u)))


def test_distance_left_invariance():
    ws = _points(12)
    us = _points(13)
    gs = _points(14)
    for w, u, g in zip(ws, us, gs):
        d0 = distance(w, u)
        d1 = distance(product(g, w), product(g, u))
        assert d1 == pytest.approx(d0, rel=1e-12, abs=1e-12)


def test_triangle_inequality():
    ws = _points(15)
    us = _points(16)
    vs = _points(17)
    for w, u, v in zip(ws, us, vs):
        lhs = distance(w, v)
        rhs = distance(w, u) + distance(u, v)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_gauge_symmetry_under_inversion():
    for w in _points(18):
        assert koranyi_norm(inverse(w)) == pytest.approx(
            koranyi_norm(w), rel=1e-13)


def test_ball_volume_scales_like_radius_to_Q():
    # exact value at d=1: vol(B_R) = pi * (half disk of radius R^2 in
    # (rho, s)) = pi^2 R^4 / 2
    q = homogeneous_dimension(1)
    assert q == 4
    vols = {}
    for radius in (0.5, 1.0, 2.0):
        _, _, w = radial_ball_rule(radius, 1, 257, 257)
        vols[radius] = radial_ball_norms(np.ones_like(w), w, 1, (1.0,))[0]
    assert vols[1.0] == pytest.approx(np.pi ** 2 / 2.0, rel=2e-3)
    assert vols[2.0] / vols[1.0] == pytest.approx(2.0 ** q, rel=2e-3)
    assert vols[0.5] / vols[1.0] == pytest.approx(0.5 ** q, rel=2e-3)


def test_d2_points_work_too():
    rng = np.random.default_rng(23)
    for _ in range(50):
        w = random_point(rng, d=2)
        u = random_point(rng, d=2)
        v = random_point(rng, d=2)
        assert _close(product(product(w, u), v), product(w, product(u, v)))
        assert distance(w, u) <= distance(w, v) + distance(v, u) + 1e-12


def test_bad_inputs_are_rejected():
    with pytest.raises(ValueError):
        GroupPoint(np.zeros(2), np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        GroupPoint(np.array([np.nan]), np.zeros(1), 0.0)
    with pytest.raises(ValueError):
        dilate(0.0, identity(1))
    with pytest.raises(ValueError):
        product(identity(1), identity(2))
    with pytest.raises(ValueError):
        homogeneous_dimension(0)
