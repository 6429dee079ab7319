"""Seeded workload inputs, built by the benchmark rather than the program.

`pack_mixed_specs` draws the criterion-2 distribution for a batch;
`planted_lattice` builds a packing with known violations and
`expected_violations` computes those violations independently of the
verifier's pair pass.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

N_MAX = 500
LOG10_RATIO = (-3.0, -0.3)
VERIFY_EPSILON = 1e-7

# Planted violations are at least this far from the verifier's threshold, so
# the oracle and the verifier cannot disagree through rounding.
MARGIN = 1e-6


def pack_mixed_specs(seed: int, count: int, n_max: int = N_MAX) -> List[tuple]:
    """(n, min_radius_ratio, instance_seed) for a batch of `count` instances.

    n is uniform in [1, n_max] and the ratio is 10^U(-3, -0.3), except that
    every fifth instance uses 1e-3. Both are stratified across the batch: one
    draw per equal-width stratum of n, and of the exponent. The pairs are not
    drawn at random but laid on a rank-1 lattice with a seeded shift, so that
    every batch mixes large and small n with low and high ratios alike: the
    cost of an instance grows with n and falls with the ratio, and random
    pairing left most of the batch-to-batch spread of the total work. The
    1e-3 instances take evenly spaced strata of n for the same reason."""
    rng = random.Random(f"pack-mixed:{seed}")
    fixed_count = len(range(0, count, 5))
    offset = rng.random()
    fixed = sorted({int((j + offset) * count / fixed_count) for j in range(fixed_count)})
    taken = set(fixed)
    free = [k for k in range(count) if k not in taken]
    gen = round(len(free) * 0.6180339887)  # golden-ratio generator
    while math.gcd(gen, len(free)) != 1:
        gen += 1
    shift = rng.randrange(len(free))
    lo, hi = LOG10_RATIO
    pairs = []
    for j, k in enumerate(free):
        e = (gen * j + shift) % len(free)
        pairs.append((k, 10.0 ** (lo + (hi - lo) * (e + rng.random()) / len(free))))
    fixed_pairs = [(k, 1e-3) for k in fixed]
    rng.shuffle(pairs)
    rng.shuffle(fixed_pairs)
    specs = []
    for pos in range(count):
        k, ratio = (fixed_pairs if pos % 5 == 0 else pairs).pop()
        n = 1 + int((k + rng.random()) * n_max / count)
        specs.append((n, ratio, rng.randrange(2**31)))
    return specs


@dataclass(frozen=True)
class PlantedPacking:
    placements: Tuple[Tuple[float, Tuple[float, float]], ...]
    instance_radii: Tuple[float, ...]
    planted: Tuple[int, ...]  # indices of every moved or relabelled disk
    expected: Tuple[tuple, ...]  # sorted (kind, indices) the verifier must report


def planted_lattice(
    seed: int,
    target_n: int = 4000,
    overlaps: int = 24,
    outside: int = 8,
    mismatches: int = 8,
) -> PlantedPacking:
    """A jittered hexagonal lattice of mixed radii inside the unit disk, with
    planted overlap, containment and radius-mismatch violations.

    Lattice spacing s, radii in [0.25 s, 0.4 s] and jitter of at most 0.05 s
    per coordinate leave every unplanted pair at least 0.05 s apart, so only
    pairs with a planted disk can overlap."""
    rng = random.Random(f"verify-large:{seed}")
    s = math.sqrt(math.pi / (target_n * math.sqrt(3.0) / 2.0))
    jit = 0.05 * s
    reach = 1.0 - 0.4 * s - 2.0 * jit
    rot = rng.uniform(0.0, math.pi / 3.0)
    cr, sr = math.cos(rot), math.sin(rot)
    m = int(1.0 / s) + 2
    xs: List[float] = []
    ys: List[float] = []
    rs: List[float] = []
    for j in range(-m, m + 1):
        for i in range(-m, m + 1):
            u = (i + 0.5 * j) * s
            v = j * (math.sqrt(3.0) / 2.0) * s
            x, y = u * cr - v * sr, u * sr + v * cr
            if math.hypot(x, y) > reach:
                continue
            xs.append(x + rng.uniform(-jit, jit))
            ys.append(y + rng.uniform(-jit, jit))
            rs.append(s * rng.uniform(0.25, 0.40))
    n = len(xs)
    if len(set(rs)) != n:
        raise ValueError("lattice radii must be distinct")

    order = list(range(n))
    rng.shuffle(order)
    moved: List[int] = []

    def try_move(i: int, x: float, y: float) -> bool:
        old = xs[i], ys[i]
        xs[i], ys[i] = x, y
        if _near_threshold(xs, ys, rs, i):
            xs[i], ys[i] = old
            return False
        moved.append(i)
        return True

    # Overlaps: pull a disk into its nearest neighbour.
    taken = set()
    pulled = 0
    for i in order:
        if pulled >= overlaps:
            break
        if i in taken:
            continue
        j = min(
            (k for k in range(n) if k != i),
            key=lambda k: (xs[k] - xs[i]) ** 2 + (ys[k] - ys[i]) ** 2,
        )
        if j in taken:
            continue
        dx, dy = xs[i] - xs[j], ys[i] - ys[j]
        d = math.hypot(dx, dy)
        depth = rng.uniform(0.1, 0.3) * min(rs[i], rs[j])
        target = rs[i] + rs[j] - depth
        if try_move(i, xs[j] + dx * target / d, ys[j] + dy * target / d):
            taken.update((i, j))
            pulled += 1

    # Containment: push the outermost disks across the boundary.
    by_reach = sorted(
        (k for k in range(n) if k not in taken),
        key=lambda k: -(math.hypot(xs[k], ys[k]) + rs[k]),
    )
    pushed = 0
    for k in by_reach:
        if pushed >= outside:
            break
        d = math.hypot(xs[k], ys[k])
        scale = (1.0 + rng.uniform(1e-4, 1e-2) - rs[k]) / d
        if try_move(k, xs[k] * scale, ys[k] * scale):
            taken.add(k)
            pushed += 1

    # Radius mismatches: the instance lists a slightly larger radius.
    relabelled = [k for k in order if k not in taken][:mismatches]
    inst = list(rs)
    for k in relabelled:
        inst[k] = rs[k] * (1.0 + 1e-6)
    if len(set(inst) | set(rs)) != n + len(relabelled):
        raise ValueError("relabelled radii must not collide with placed radii")

    placements = tuple((rs[k], (xs[k], ys[k])) for k in range(n))
    planted = tuple(sorted(set(moved) | set(relabelled)))
    expected = expected_violations(placements, inst, planted)
    return PlantedPacking(placements, tuple(inst), planted, expected)


def _near_threshold(xs, ys, rs, i: int) -> bool:
    """True when disk i sits within MARGIN of an overlap or containment
    threshold, where rounding could decide the verdict."""
    if abs(math.hypot(xs[i], ys[i]) + rs[i] - 1.0 - VERIFY_EPSILON) < MARGIN:
        return True
    for k in range(len(xs)):
        if k != i:
            d = math.hypot(xs[k] - xs[i], ys[k] - ys[i])
            if abs(d - (rs[k] + rs[i] - VERIFY_EPSILON)) < MARGIN:
                return True
    return False


def expected_violations(
    placements: Sequence[Tuple[float, Tuple[float, float]]],
    instance_radii: Sequence[float],
    planted: Sequence[int],
    epsilon: float = VERIFY_EPSILON,
) -> Tuple[tuple, ...]:
    """The violations the verifier must report, as sorted (kind, indices).

    Overlaps are searched only among pairs with a planted disk, in O(k*n);
    containment and the radius multiset take one O(n) pass each."""
    found = set()
    for i, (r, (x, y)) in enumerate(placements):
        if math.hypot(x, y) + r > 1.0 + epsilon:
            found.add(("containment", (i,)))
    for p in planted:
        rp, (xp, yp) = placements[p]
        for q, (rq, (xq, yq)) in enumerate(placements):
            if q != p and math.hypot(xq - xp, yq - yp) < rp + rq - epsilon:
                found.add(("overlap", (min(p, q), max(p, q))))
    available = collections.Counter(instance_radii)
    for i, (r, _xy) in enumerate(placements):
        if available[r] > 0:
            available[r] -= 1
        else:
            found.add(("radius_mismatch", (i,)))
    return tuple(sorted(found))
