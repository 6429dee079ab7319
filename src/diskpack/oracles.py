"""Closed-form density constants and functions used by the analysis and tests.

All functions are pure and stateless; identical inputs give bit-identical
outputs.
"""

from __future__ import annotations

import math

from .geometry import GeometryDomainError

__all__ = [
    "rho",
    "cone_density",
    "zipper_one_density",
    "gap_excess",
]


def rho() -> float:
    """Container density target pi / (2*pi - 2*asin(1/3)), just below 0.56065."""
    return math.pi / (2.0 * math.pi - 2.0 * math.asin(1.0 / 3.0))


def cone_density(r: float) -> float:
    """Density of the cone induced by a boundary disk of radius r in a unit container.

    The cone spans an angle of 2*asin(r/(1-r)), hence has area asin(r/(1-r));
    the disk's area is pi*r^2. Defined for r in (0, 1/2]; equals 1/2 at r = 1/2.
    """
    if not (0.0 < r <= 0.5):
        raise GeometryDomainError(f"cone_density requires r in (0, 1/2], got {r}")
    return math.pi * r * r / math.asin(r / (1.0 - r))


def zipper_one_density() -> float:
    """Density of the sector of a single-disk zipper: pi / (12*asin(1/3))."""
    return math.pi / (12.0 * math.asin(1.0 / 3.0))


def gap_excess(lambda_: float) -> float:
    """Gap-volume excess V(lambda) of the minimal-ring bound, for lambda in [1/8, 1/4].

    asin(lambda/(1/2+lambda)) * (7/4 - (1/2+2*lambda)^2) - (3/4)*asin(1/3).
    """
    if not (0.125 <= lambda_ <= 0.25):
        raise GeometryDomainError(
            f"gap_excess requires lambda in [1/8, 1/4], got {lambda_}"
        )
    return math.asin(lambda_ / (0.5 + lambda_)) * (
        1.75 - (0.5 + 2.0 * lambda_) ** 2
    ) - 0.75 * math.asin(1.0 / 3.0)
