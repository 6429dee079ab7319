"""Instance generators: worst case, random area-constrained, threshold
adversarial families, and the three-disk pocket construction.

All generators are pure functions of their parameters.
"""

from __future__ import annotations

import math
import random
from enum import Enum

from .engine import InstanceSpec

__all__ = [
    "GeneratorKind",
    "ThresholdEdge",
    "gen_worst_case",
    "gen_random_area",
    "gen_pocket3",
    "gen_near_threshold",
    "POCKET3_RADIUS",
]

# Three identical disks of this radius fit in the unit disk only mutually tangent.
POCKET3_RADIUS = math.sqrt(3.0) / (2.0 + math.sqrt(3.0))


class GeneratorKind(Enum):
    WORST_CASE = "worst-case"
    RANDOM_AREA = "random-area"
    NEAR_THRESHOLD = "near-threshold"
    POCKET3 = "pocket3"


class ThresholdEdge(Enum):
    RECURSION_EDGE = "recursion"
    QUARTER_EDGE = "quarter"
    PASS_EDGE = "pass"


def gen_worst_case(inflate: float = 0.0) -> InstanceSpec:
    """Two disks of radius 1/2 (total area pi/2); optionally inflated so the
    instance exceeds the critical density and becomes unpackable."""
    r = 0.5 * (1.0 + inflate)
    return InstanceSpec.of([r, r])


def gen_random_area(
    n: int, total_area: float, seed: int, min_radius_ratio: float = 1e-3
) -> InstanceSpec:
    """n radii, log-uniform in [min_radius_ratio, 1] before a common rescale
    that makes the total area exactly total_area."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (total_area > 0.0):
        raise ValueError(f"total area must be positive, got {total_area}")
    if not (0.0 < min_radius_ratio <= 1.0):
        raise ValueError(
            f"min_radius_ratio must be in (0, 1], got {min_radius_ratio}"
        )
    rng = random.Random(seed)
    lo = math.log(min_radius_ratio)
    raw = [math.exp(rng.uniform(lo, 0.0)) for _ in range(n)]
    scale = math.sqrt(total_area / (math.pi * sum(r * r for r in raw)))
    return InstanceSpec.of([r * scale for r in raw])


def gen_pocket3() -> InstanceSpec:
    """Three disks of radius sqrt(3)/(2+sqrt(3)); they fit the unit disk only
    by touching each other, leaving a central triangular pocket."""
    return InstanceSpec.of([POCKET3_RADIUS] * 3)


def _fill_to_area(radii: list, filler: float, cap: float) -> list:
    area = math.pi * sum(r * r for r in radii)
    unit = math.pi * filler * filler
    while area + unit <= cap:
        radii.append(filler)
        area += unit
    return radii


def gen_near_threshold(edge: ThresholdEdge) -> InstanceSpec:
    """Hand-constructed families stressing a branch condition, area <= pi/2."""
    cap = math.pi / 2.0
    if edge is ThresholdEdge.RECURSION_EDGE:
        radii = _fill_to_area([0.4951, 0.4950], 0.01, cap)
    elif edge is ThresholdEdge.QUARTER_EDGE:
        radii = _fill_to_area([0.2501, 0.2499, 0.2499], 0.02, cap)
    else:  # PASS_EDGE: after {0.3, 0.2} the ring width is 0.4; the next pair
        # hits 2r + 2r' = width exactly (up to 1e-9).
        radii = _fill_to_area([0.3, 0.2, 0.1 + 5e-10, 0.1 - 5e-10], 0.015, cap)
    return InstanceSpec.of(radii)
