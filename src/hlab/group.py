"""Heisenberg group arithmetic.

Points are w = (y, eta, s) with y, eta in R^d and s in R.  The group law
twists the vertical coordinate by the symplectic form of the horizontal
parts, the anisotropic dilations scale s twice as fast as (y, eta), and the
Koranyi gauge is the homogeneous norm adapted to those dilations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def homogeneous_dimension(d: int) -> int:
    """Scaling dimension Q = 2d + 2 of the Haar (Lebesgue) measure."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return 2 * d + 2


@dataclass
class GroupPoint:
    """A point of H^d.

    y, eta : length-d float arrays (horizontal coordinates)
    s      : float (vertical coordinate)
    """

    y: np.ndarray
    eta: np.ndarray
    s: float

    def __post_init__(self):
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        self.eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        self.s = float(self.s)
        if self.y.ndim != 1 or self.eta.ndim != 1:
            raise ValueError("horizontal coordinates must be one dimensional")
        if self.y.shape != self.eta.shape:
            raise ValueError("y and eta must have the same length")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.eta))
                and np.isfinite(self.s)):
            raise ValueError("coordinates must be finite")

    @property
    def d(self) -> int:
        return self.y.size

    def horizontal_sq(self) -> float:
        """|Y|^2 = |y|^2 + |eta|^2."""
        return float(self.y @ self.y + self.eta @ self.eta)


def identity(d: int = 1) -> GroupPoint:
    return GroupPoint(np.zeros(d), np.zeros(d), 0.0)


def product(w: GroupPoint, wp: GroupPoint) -> GroupPoint:
    """Group product w . wp.

    The vertical coordinate picks up 2(<eta, y'> - <eta', y>) on top of the
    plain sum.
    """
    if w.d != wp.d:
        raise ValueError("points live in different H^d")
    twist = 2.0 * (float(w.eta @ wp.y) - float(wp.eta @ w.y))
    return GroupPoint(w.y + wp.y, w.eta + wp.eta, w.s + wp.s + twist)


def inverse(w: GroupPoint) -> GroupPoint:
    return GroupPoint(-w.y, -w.eta, -w.s)


def koranyi_norm(w: GroupPoint) -> float:
    """Homogeneous gauge (|Y|^4 + s^2)^(1/4)."""
    r2 = w.horizontal_sq()
    return float((r2 * r2 + w.s * w.s) ** 0.25)


def distance(w: GroupPoint, wp: GroupPoint) -> float:
    """Gauge quasi-distance: norm of w^{-1} . wp.

    Left invariant by construction.  No symmetry claim is made.
    """
    return koranyi_norm(product(inverse(w), wp))


def dilate(a: float, w: GroupPoint) -> GroupPoint:
    """Anisotropic dilation (y, eta, s) -> (a y, a eta, a^2 s), a > 0."""
    a = float(a)
    if a <= 0.0:
        raise ValueError("dilation parameter must be positive")
    return GroupPoint(a * w.y, a * w.eta, a * a * w.s)
