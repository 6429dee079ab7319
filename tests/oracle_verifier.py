"""Brute-force oracle for `diskpack.verifier.verify`, for packings of up to a
few hundred disks.

It is the verifier's former dense pass: the distance and sum-of-radii
matrices of every pair, n x n float64 each, and the radius multiset matched
by removing values from a list. `verify` must give the same report, with the
same bits in every magnitude and in the density.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from diskpack.verifier import VerificationReport, Violation, ViolationKind


def verify(
    placements: Sequence[Tuple[float, Tuple[float, float]]],
    instance_radii: Optional[Sequence[float]] = None,
    epsilon: float = 1e-7,
) -> VerificationReport:
    if len(placements) > 500:
        raise ValueError("the dense oracle is meant for n <= 500")
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    violations = []
    r = np.array([p[0] for p in placements], dtype=float)
    x = np.array([p[1][0] for p in placements], dtype=float)
    y = np.array([p[1][1] for p in placements], dtype=float)
    finite = np.isfinite(r) & np.isfinite(x) & np.isfinite(y)
    for i in np.nonzero(~finite)[0].tolist():
        violations.append(Violation(ViolationKind.NON_FINITE, (i,), 0.0))
    keep = np.nonzero(finite)[0]
    r, x, y = r[keep], x[keep], y[keep]
    n = len(keep)

    if n:
        reach = np.hypot(x, y) + r
        for i in np.nonzero(reach > 1.0 + epsilon)[0]:
            violations.append(
                Violation(ViolationKind.CONTAINMENT, (int(keep[i]),), float(reach[i] - 1.0))
            )

    if n > 1:
        dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
        need = r[:, None] + r[None, :]
        ii, jj = np.nonzero(dist < need - epsilon)  # row-major: sorted by (i, j)
        upper = ii < jj
        ii, jj = ii[upper], jj[upper]
        mags = need[ii, jj] - dist[ii, jj]
        for i, j, m in zip(keep[ii].tolist(), keep[jj].tolist(), mags.tolist()):
            violations.append(Violation(ViolationKind.OVERLAP, (i, j), m))

    if instance_radii is not None:
        available = [float(v) for v in instance_radii]
        for i in range(n):
            ri = float(r[i])
            if ri in available:
                available.remove(ri)
            else:
                violations.append(Violation(ViolationKind.RADIUS_MISMATCH, (int(keep[i]),), ri))

    violations.sort(key=lambda v: (v.kind.value, v.indices))
    density = float(np.sum(r * r)) if n else 0.0
    return VerificationReport(
        valid=not violations,
        violations=tuple(violations),
        density=density,
        epsilon=epsilon,
    )
