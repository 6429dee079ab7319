"""Independent validity checker for packings.

Shares no placement code with the engine: containment and pairwise overlap are
re-derived from raw coordinates with a brute-force O(n^2) pass (vectorized).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np


class ViolationKind(Enum):
    CONTAINMENT = "containment"
    OVERLAP = "overlap"
    RADIUS_MISMATCH = "radius_mismatch"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    indices: Tuple[int, ...]
    magnitude: float


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: Tuple[Violation, ...]
    density: float
    epsilon: float


def verify(
    placements: Sequence[Tuple[float, Tuple[float, float]]],
    instance_radii: Optional[Sequence[float]] = None,
    epsilon: float = 1e-7,
) -> VerificationReport:
    """Check containment in the unit disk, pairwise disjointness, and (when
    instance_radii is given) that placed radii form a sub-multiset of the
    instance. All violations are reported, sorted by indices.

    A disk with a non-finite radius or coordinate is a NON_FINITE violation
    (magnitude 0) and takes no part in the other checks or the density."""
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    violations = []
    r = np.array([p[0] for p in placements], dtype=float)
    x = np.array([p[1][0] for p in placements], dtype=float)
    y = np.array([p[1][1] for p in placements], dtype=float)
    finite = np.isfinite(r) & np.isfinite(x) & np.isfinite(y)
    for i in np.nonzero(~finite)[0].tolist():
        violations.append(Violation(ViolationKind.NON_FINITE, (i,), 0.0))
    # Positions in the finite disks -> indices in placements (increasing).
    keep = np.nonzero(finite)[0]
    r, x, y = r[keep], x[keep], y[keep]
    n = len(keep)

    if n:
        reach = np.hypot(x, y) + r
        for i in np.nonzero(reach > 1.0 + epsilon)[0]:
            violations.append(
                Violation(
                    ViolationKind.CONTAINMENT, (int(keep[i]),), float(reach[i] - 1.0)
                )
            )

    if n > 1:
        dist = x[:, None] - x[None, :]
        dy = y[:, None] - y[None, :]
        np.hypot(dist, dy, out=dist)
        del dy
        need = r[:, None] + r[None, :]
        ii, jj = np.nonzero(dist < need - epsilon)  # row-major: sorted by (i, j)
        upper = ii < jj
        ii, jj = ii[upper], jj[upper]
        mags = need[ii, jj] - dist[ii, jj]
        for i, j, m in zip(keep[ii].tolist(), keep[jj].tolist(), mags.tolist()):
            violations.append(Violation(ViolationKind.OVERLAP, (i, j), m))

    if instance_radii is not None:
        available = sorted(float(v) for v in instance_radii)
        for i in range(n):
            ri = float(r[i])
            # Exact match expected: placements copy instance radii bit-for-bit.
            pos = _bisect_remove(available, ri)
            if not pos:
                violations.append(
                    Violation(ViolationKind.RADIUS_MISMATCH, (int(keep[i]),), ri)
                )

    violations.sort(key=lambda v: (v.kind.value, v.indices))
    density = float(np.sum(r * r)) if n else 0.0
    return VerificationReport(
        valid=not violations,
        violations=tuple(violations),
        density=density,
        epsilon=epsilon,
    )


def _bisect_remove(sorted_values: list, value: float) -> bool:
    import bisect

    k = bisect.bisect_left(sorted_values, value)
    if k < len(sorted_values) and sorted_values[k] == value:
        sorted_values.pop(k)
        return True
    return False
