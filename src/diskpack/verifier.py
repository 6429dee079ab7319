"""Independent validity checker for packings.

Shares no placement code with the engine: containment, pairwise overlap and
the radius multiset are re-derived from raw coordinates.

The pair pass is a sort-and-sweep on x-extents, the broad phase of
sweep-and-prune. The disks are sorted by their left edge x - r, and each
disk's candidates are the disks after it whose left edge lies in its
[x - r, x + r]. Two disks overlap only if |x_i - x_j| < r_i + r_j, so every
pair that the exact test hypot(x_i - x_j, y_i - y_j) < (r_i + r_j) - epsilon
accepts is a candidate, once the right edge is widened to cover rounding
(`_overlaps`). The candidates go through that exact test in numpy batches of
at most PAIR_CHUNK pairs (or one disk's row), so memory is linear in n plus
one batch, and the report is the one that testing every pair gives: the
brute-force O(n^2) pass, kept as the test oracle `tests/oracle_verifier.py`.

The radius multiset is matched by rank in group, in numpy: the placed radii
are stably sorted, a placement's rank is its position among the placements
of its value in index order, and it matches iff the sorted instance holds
its value more than rank times. That is the oracle's greedy, which gives
each instance value to its earliest placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np

# Candidate pairs per batch of the exact test; a batch holds whole rows, so a
# row longer than this is a batch of its own.
PAIR_CHUNK = 1 << 16


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
        ii, jj, mags = _overlaps(r, x, y, epsilon)
        for i, j, m in zip(keep[ii].tolist(), keep[jj].tolist(), mags.tolist()):
            violations.append(Violation(ViolationKind.OVERLAP, (i, j), m))

    if instance_radii is not None:
        # Exact match expected: placements copy instance radii bit-for-bit.
        # Each radius value matches its earliest placements: the k-th
        # placement of a value (k = 0, 1, ...) matches iff the instance holds
        # the value more than k times. Only numpy routines the pair pass
        # already runs are used (a stable argsort, not np.sort; nonzero of a
        # maximum, not an integer comparison): each new one maps another
        # 0.2-0.3 MB of numpy's code into every process that verifies.
        held = np.asarray(instance_radii, dtype=float)
        held = held[np.argsort(held, kind="stable")]
        by_value = np.argsort(r, kind="stable")
        placed = r[by_value]
        rank = np.arange(n) - np.searchsorted(placed, placed, side="left")
        count = np.searchsorted(held, placed, side="right") - np.searchsorted(
            held, placed, side="left"
        )
        # A placement is a mismatch when its rank reaches its value's count.
        beyond = np.maximum(rank + 1 - count, 0)
        for i in by_value[np.nonzero(beyond)[0]].tolist():
            violations.append(
                Violation(ViolationKind.RADIUS_MISMATCH, (int(keep[i]),), float(r[i]))
            )

    violations.sort(key=lambda v: (v.kind.value, v.indices))
    density = float(np.sum(r * r)) if n else 0.0
    return VerificationReport(
        valid=not violations,
        violations=tuple(violations),
        density=density,
        epsilon=epsilon,
    )


def _overlaps(r: np.ndarray, x: np.ndarray, y: np.ndarray, epsilon: float):
    """(i, j, need - dist) for every pair i < j with
    dist = hypot(x_i - x_j, y_i - y_j) < need - epsilon, need = r_i + r_j,
    sorted by (i, j).

    Rounding margin: with M = max(|x| + |r|) and u = 2^-53, a pair the exact
    test accepts has |x_i - x_j| < r_i + r_j + 10 u M (the subtraction, the
    sum, and hypot being at least its first argument up to 2 u), so its
    float edges satisfy x_j - r_j <= x_i + r_i + 12 u M. The right edges are
    widened by 128 u M, and by 2^-1022 for the absolute error of subnormal
    results, so a candidate is never lost to rounding."""
    n = len(r)
    order = np.argsort(x - r, kind="stable")
    r, x, y = r[order], x[order], y[order]
    margin = 2.0**-46 * float(np.max(np.abs(x) + np.abs(r))) + 2.0**-1022
    # Sorted position p pairs with the positions p + 1 .. stop[p] - 1.
    stop = np.searchsorted(x - r, x + r + margin, side="right")
    counts = np.maximum(stop - np.arange(1, n + 1), 0)
    ends = np.cumsum(counts)  # pairs in the rows up to and including p
    found = []
    a = 0
    while a < n:
        start = ends[a] - counts[a]  # pairs in the rows before a
        b = max(int(np.searchsorted(ends, start + PAIR_CHUNK, side="right")), a + 1)
        rows = np.arange(a, b)
        c = counts[a:b]
        p = np.repeat(rows, c)
        # Each row's q counts up from p + 1: a pair's rank in the batch, less
        # the rank of its row's first pair, plus p + 1.
        q = np.arange(ends[b - 1] - start) + np.repeat(rows + 1 - (ends[a:b] - c - start), c)
        # |x_p - x_q| and |y_p - y_q| have the same bits in either order.
        dist = np.hypot(x[p] - x[q], y[p] - y[q])
        need = r[p] + r[q]
        hit = np.nonzero(dist < need - epsilon)[0]
        found.append((p[hit], q[hit], need[hit] - dist[hit]))
        a = b
    p, q, m = (np.concatenate(parts) for parts in zip(*found))
    i = np.minimum(order[p], order[q])
    j = np.maximum(order[p], order[q])
    by_pair = np.lexsort((j, i))
    return i[by_pair], j[by_pair], m[by_pair]
