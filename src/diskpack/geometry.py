"""Exact-formula circle geometry for boundary and ring placements.

All functions are pure and operate on immutable values in hardware doubles;
they are safe to call concurrently. Angles are polar angles measured
counterclockwise from the positive x-axis and normalized to [0, 2*pi) unless
stated otherwise.

Placement kernel: where a placed disk q sits about a center is its entry
(theta_q, dq, r_q) from `polar_entry`: dq = hypot(dx, dy) and theta_q =
atan2(dy, dx), plus 2*pi when negative. The packer computes each entry once,
when it places the disk, about the container's center (and again when Phase 1
moves that center), and every placement about that center reads it. The disks
such placements must avoid sit in a `NearDisks` index of their entries. For a
center circling at `anchor`, a disk's keep-out arc (theta_q, sep_q) costs only
the gap, the cosine c and sep_q = acos(c): the float that recomputing dq and
theta_q from the disk on every query would give, since the same expressions
see the same inputs. `NearDisks.free_angle` answers a query in one loop that
picks the smallest free angle in [floor, floor + 2*pi) by one sweep over the
candidates (the floor and each arc's upper edge) and the arcs in increasing
order. It only skips a candidate lying deeper than SWEEP_MARGIN inside an arc,
and returns one only once the exact test (circular distance to every theta_q
>= sep_q - ANGLE_EPS) passes, so the angle is bit-identical to checking every
candidate against every arc, whatever the arcs' order.

The index also caches an upper bound on each disk's keep-out half-width that
holds for every anchor and every radius up to its r_max: asin((r_max + r_q) /
dq) + BOUND_MARGIN, since a center at any distance from the fixed center sees
the disk's gap circle under at most that angle. A disk that may block every
angle (dq <= r_max + r_q) is wide and checked by every query; the others are
narrow and kept sorted by theta_q with their bound. One `_blocking_constraints`
call gives a query its first arcs: those of the wide disks and of the narrow
ones whose bounded arc covers the floor from below. Only these can block every
angle. The loop then walks the other narrow disks in order of their angle
above the floor (2*pi less the distance below it, for the ones below) and
computes each one's arc inline when the sweep needs it:
before the sweep examines a candidate, every disk within the index's largest
bound of it has added its arc.

Why the angle is unchanged: a disk not yet added has its keep-out arc, as
the kernel computes it, starting more than BOUND_MARGIN above the candidate.
So it adds no candidate below the current one, and the candidate passes its
exact test with room far above rounding. Each candidate the sweep examines
therefore sees the same smaller candidates, arcs and exact tests as with
every disk in, and the sweep returns the same float, or None in both cases.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Iterable, List, NamedTuple, Optional, Tuple

TWO_PI = 2.0 * math.pi

# Slack for arccos/arcsin arguments that drift past [-1, 1] through roundoff.
# Larger excursions are treated as logic errors, not clamped.
CLAMP_SLACK = 1e-12

# Largest residual at which inscribed_disk_after_two takes two disks and the
# container as mutually tangent, and two Descartes candidates as tied.
TANGENCY_TOL = 1e-9

# Angular slack so that an exactly-tangent candidate passes its own constraint.
ANGLE_EPS = 1e-12

# Depth inside a keep-out arc beyond which the sweep skips a candidate without
# the exact test; it dwarfs ANGLE_EPS plus the rounding of an arc's edges.
SWEEP_MARGIN = 1e-9

# Slack added to a narrow disk's keep-out bound; it dwarfs the rounding of
# the bound, of the half-width acos(c) and of the angles compared with it.
BOUND_MARGIN = 1e-9


class GeometryDomainError(ValueError):
    """A precondition on radii or distances was violated."""


class RingWidthError(ValueError):
    """Disk diameter exceeds ring width (distinct from crowding NO_FIT)."""


class Side(Enum):
    OUTER = "outer"
    INNER = "inner"


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class PlacedDisk:
    center: Point
    radius: float


@dataclass(frozen=True, slots=True)
class ContainerDisk:
    center: Point
    radius: float


@dataclass(frozen=True, slots=True)
class RingShape:
    """Closed annulus between concentric radii r_in < r_out."""

    center: Point
    r_out: float
    r_in: float

    @property
    def width(self) -> float:
        return self.r_out - self.r_in


def unit_container() -> ContainerDisk:
    return ContainerDisk(Point(0.0, 0.0), 1.0)


def normalize_angle(a: float) -> float:
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return a


def polar_entry(center: Point, q: PlacedDisk) -> Tuple[float, float, float]:
    """Where q sits about center: its entry (theta_q, dq, r_q), with theta_q
    its polar angle and dq its distance."""
    dx = q.center.x - center.x
    dy = q.center.y - center.y
    theta = math.atan2(dy, dx)  # in [-pi, pi], so one wrap normalizes it
    if theta < 0.0:
        theta += TWO_PI
    return theta, math.hypot(dx, dy), q.radius


def _blocking_constraints(center: Point, anchor: float, r: float, prev):
    """Per-disk angular keep-out half-widths for a center circling at `anchor`
    about `center`, from the disks' `NearDisks` entries prev.

    Returns (constraints, blocked): constraints is a list of (theta_q, sep_q)
    meaning the candidate angle must stay at circular distance >= sep_q from
    theta_q; blocked is True when some disk overlaps the placement circle at
    every angle.
    """
    a2, two_a = anchor * anchor, 2.0 * anchor
    cons = []
    for theta, dq, rq in prev:
        gap = r + rq
        if two_a * dq == 0.0:  # concentric, or dq so small the divisor underflows
            if anchor >= gap:
                continue
            return [], True
        c = (a2 + dq * dq - gap * gap) / (two_a * dq)
        if c >= 1.0:
            continue  # |anchor - dq| >= gap: no angle can overlap q
        if c < -1.0:
            if c < -1.0 - CLAMP_SLACK:
                return [], True  # anchor + dq < gap: q overlaps at every angle
            c = -1.0
        cons.append((theta, math.acos(c)))
    return cons, False


class NearDisks:
    """Polar index of the disks that placements about a fixed center must
    avoid, for placed radii up to r_max (see the module docstring). It holds
    their entries (theta_q, dq, r_q) about that center, as `polar_entry`
    computed them when the disks were placed; `entries` lists them, wide
    disks first."""

    __slots__ = ("center", "r_max", "_wide", "_thetas", "_bounds", "_narrow", "_reach")

    def __init__(
        self, center: Point, r_max: float, entries: Iterable[Tuple[float, float, float]] = ()
    ):
        self.center = center
        self.r_max = r_max
        self._wide: List[Tuple[float, float, float]] = []  # checked by every query
        # The narrow disks sorted by theta_q, in three parallel lists.
        self._thetas: List[float] = []
        self._bounds: List[float] = []
        self._narrow: List[Tuple[float, float, float]] = []
        self._reach = 0.0  # largest bound_q of the narrow disks
        for entry in entries:
            self.add(entry)

    def __len__(self) -> int:
        return len(self._wide) + len(self._narrow)

    def entries(self) -> List[Tuple[float, float, float]]:
        return self._wide + self._narrow

    def add(self, entry: Tuple[float, float, float]) -> None:
        """Index a disk by its entry about `center`."""
        theta, dq, rq = entry
        g = self.r_max + rq
        if dq <= g:  # it may block every angle
            self._wide.append(entry)
            return
        bound = math.asin(g / dq) + BOUND_MARGIN
        i = bisect_left(self._thetas, theta)
        self._thetas.insert(i, theta)
        self._bounds.insert(i, bound)
        self._narrow.insert(i, entry)
        if bound > self._reach:
            self._reach = bound

    def free_angle(self, anchor: float, r: float, angle_floor: float) -> Optional[float]:
        """The kernel's angle for a center at distance anchor > 0, or None when
        no angle is free: one loop that sweeps up from the floor and computes
        the arcs of the narrow disks in angular order as it climbs."""
        thetas, bounds, narrow = self._thetas, self._bounds, self._narrow
        reach, n = self._reach, len(narrow)
        f = normalize_angle(angle_floor)
        start = bisect_left(thetas, f)
        # Narrow disks below the floor, nearest first: one whose bounded arc
        # covers the floor joins the wide disks in the first batch.
        first = list(self._wide)
        below = 0
        while below < n:
            i = start - 1 - below
            d = f - thetas[i]
            if d < 0.0:
                d += TWO_PI
            if d > reach:
                break
            below += 1
            if d <= bounds[i]:
                first.append(narrow[i])
        cons, blocked = _blocking_constraints(self.center, anchor, r, first)
        if blocked:
            return None
        # The sweep pops candidates (the floor, and each arc's upper edge
        # shifted into [floor, floor + 2*pi)) in increasing order, and arcs by
        # their start; `span` is the furthest end of the arcs started so far
        # (an arc starting below the floor has a copy 2*pi up).
        top = angle_floor + TWO_PI
        cands, arcs, tests = [angle_floor], [], []
        a2, two_a = anchor * anchor, 2.0 * anchor
        # The other narrow disks wait in increasing order of u, their angle
        # above the floor: positions start to stop (mod n), then the ones
        # below the floor not in the first batch. Before the sweep examines
        # a candidate w above the floor, every disk with u - reach <= w has
        # added its arc; `limit` is u - reach of the next one.
        k, stop, end = start, start + n - below, start + n
        limit = span = -math.inf
        while True:
            if cons:
                theta, sep = cons.pop()
            else:
                beta = cands[0] if cands else top
                if beta - angle_floor <= limit:
                    if beta >= top:
                        return None
                    heappop(cands)
                    lo = beta - SWEEP_MARGIN
                    while arcs and arcs[0][0] < lo:
                        edge = heappop(arcs)[1]
                        if edge > span:
                            span = edge
                    if span > beta + SWEEP_MARGIN:
                        # beta, and every candidate below span - SWEEP_MARGIN,
                        # lies that deep inside the arc ending at span.
                        lo = span - SWEEP_MARGIN
                        while cands and cands[0] < lo:
                            heappop(cands)
                        continue
                    for theta, s in tests:
                        d = abs(math.fmod(beta - theta, TWO_PI))
                        if d < s or TWO_PI - d < s:
                            break
                    else:
                        return beta
                    continue
                if k == end:
                    limit = math.inf
                    continue
                i = k - n if k >= n else k
                if k < stop:
                    u = thetas[i] - f
                    if u < 0.0:
                        u += TWO_PI
                else:
                    d = f - thetas[i]
                    if d < 0.0:
                        d += TWO_PI
                    if d <= bounds[i]:  # in the first batch
                        k += 1
                        continue
                    u = TWO_PI - d
                if u - reach > beta - angle_floor:
                    limit = u - reach
                    continue
                k += 1
                # dq > r_max + r_q >= gap: the disk never blocks, c >= 0.
                _, dq, rq = narrow[i]
                gap = r + rq
                c = (a2 + dq * dq - gap * gap) / (two_a * dq)
                if c >= 1.0:
                    continue
                theta, sep = thetas[i], math.acos(c)
            base = theta + sep
            cand = base + TWO_PI * math.ceil((angle_floor - base) / TWO_PI)
            if cand < angle_floor:
                cand += TWO_PI
            heappush(cands, cand)
            lo = cand - 2.0 * sep
            heappush(arcs, (lo, cand))
            if lo < angle_floor:
                heappush(arcs, (lo + TWO_PI, cand + TWO_PI))
            tests.append((theta, sep - ANGLE_EPS))


def _place_at_anchor(
    center: Point, anchor: float, angle_floor: float, near: NearDisks, r: float
) -> Optional[PlacedDisk]:
    if near.center != center or r > near.r_max:
        raise GeometryDomainError(
            f"index about {near.center} for radii up to {near.r_max} cannot "
            f"place radius {r} about {center}"
        )
    if anchor == 0.0:
        # Degenerate: the disk is concentric with the anchor circle.
        if any(dq < r + rq - ANGLE_EPS for _, dq, rq in near.entries()):
            return None
        return PlacedDisk(center, r)
    beta = near.free_angle(anchor, r, angle_floor)
    if beta is None:
        return None
    return PlacedDisk(
        Point(center.x + anchor * math.cos(beta), center.y + anchor * math.sin(beta)),
        r,
    )


def place_tangent(
    boundary: ContainerDisk,
    r: float,
    angle_floor: float = 0.0,
    *,
    prev: NearDisks,
) -> Optional[PlacedDisk]:
    """Place a disk of radius r adjacent to the container boundary from inside.

    The center goes at distance boundary.radius - r from the container center,
    at the smallest polar angle >= angle_floor at which the disk overlaps no
    disk of prev (wrap-around past 2*pi is checked against every disk).
    Returns None (NO_FIT) when no such angle exists. prev is an index about
    the container's center for radii up to at least r.
    """
    if r > boundary.radius:
        raise GeometryDomainError(
            f"disk radius {r} exceeds container radius {boundary.radius}"
        )
    return _place_at_anchor(boundary.center, boundary.radius - r, angle_floor, prev, r)


def place_in_ring(
    ring: RingShape,
    side: Side,
    r: float,
    angle_floor: float = 0.0,
    *,
    prev: NearDisks,
) -> Optional[PlacedDisk]:
    """Place a disk of radius r inside a ring, adjacent to the chosen boundary.

    Raises RingWidthError when the disk cannot fit widthwise (2r > width);
    returns None (NO_FIT) when it fits widthwise but every angle is crowded.
    prev is an index about the ring's center for radii up to at least r.
    """
    if 2.0 * r > ring.width + CLAMP_SLACK:
        raise RingWidthError(
            f"disk diameter {2.0 * r} exceeds ring width {ring.width}"
        )
    if side is Side.OUTER:
        anchor = ring.r_out - r
    else:
        anchor = ring.r_in + r
    return _place_at_anchor(ring.center, anchor, angle_floor, prev, r)


def center_penetration(entries: Iterable[Tuple[float, float, float]]) -> float:
    """Depth by which the disks of these entries cover the center they are
    about: the shallowest such depth, 0 if none covers it."""
    best = 0.0
    found = False
    for _, d, rq in entries:
        if d < rq:
            pen = rq - d
            if not found or pen < best:
                best = pen
                found = True
    return best if found else 0.0


def _circle_circle_intersections(c0: Point, r0: float, c1: Point, r1: float):
    dx = c1.x - c0.x
    dy = c1.y - c0.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        return []
    a = (d * d + r0 * r0 - r1 * r1) / (2.0 * d)
    h2 = r0 * r0 - a * a
    if h2 < 0.0:
        if h2 < -CLAMP_SLACK:
            return []
        h2 = 0.0
    h = math.sqrt(h2)
    ux, uy = dx / d, dy / d
    mx, my = c0.x + a * ux, c0.y + a * uy
    return [Point(mx - h * uy, my + h * ux), Point(mx + h * uy, my - h * ux)]


def _recursion_fallback(c: ContainerDisk, d1: PlacedDisk, d2: PlacedDisk) -> ContainerDisk:
    """Guaranteed container update: radius c/5 tangent to c on the diameter
    perpendicular to the d1-d2 axis, on the side away from both disks."""
    ux = d2.center.x - d1.center.x
    uy = d2.center.y - d1.center.y
    n = math.hypot(ux, uy)
    if n == 0.0:
        vx, vy = 0.0, 1.0
    else:
        vx, vy = -uy / n, ux / n
    midx = 0.5 * (d1.center.x + d2.center.x)
    midy = 0.5 * (d1.center.y + d2.center.y)
    if vx * (c.center.x - midx) + vy * (c.center.y - midy) < 0.0:
        vx, vy = -vx, -vy
    rad = c.radius / 5.0
    off = c.radius - rad
    return ContainerDisk(
        Point(c.center.x + off * vx, c.center.y + off * vy), rad
    )


def inscribed_disk_after_two(
    c: ContainerDisk, d1: PlacedDisk, d2: PlacedDisk
) -> ContainerDisk:
    """Largest disk tangent internally to c and externally to two mutually
    tangent disks that touch c's boundary (Descartes curvature relation).

    When the three-tangency precondition fails beyond TANGENCY_TOL, falls back
    to the guaranteed radius-c/5 construction on the perpendicular diameter.
    """

    def dist(p: Point, q: Point) -> float:
        return math.hypot(p.x - q.x, p.y - q.y)

    tangent_ok = (
        abs(dist(d1.center, d2.center) - (d1.radius + d2.radius)) <= TANGENCY_TOL
        and abs(dist(c.center, d1.center) - (c.radius - d1.radius)) <= TANGENCY_TOL
        and abs(dist(c.center, d2.center) - (c.radius - d2.radius)) <= TANGENCY_TOL
    )
    if not tangent_ok:
        return _recursion_fallback(c, d1, d2)

    k0 = -1.0 / c.radius
    k1 = 1.0 / d1.radius
    k2 = 1.0 / d2.radius
    disc = k0 * k1 + k1 * k2 + k2 * k0
    if disc < 0.0:
        if disc < -CLAMP_SLACK:
            return _recursion_fallback(c, d1, d2)
        disc = 0.0
    k3 = k0 + k1 + k2 + 2.0 * math.sqrt(disc)
    if k3 <= 0.0:
        return _recursion_fallback(c, d1, d2)
    r3 = 1.0 / k3

    candidates = _circle_circle_intersections(
        c.center, c.radius - r3, d1.center, d1.radius + r3
    )
    best = None
    best_res = math.inf
    for p in candidates:
        res = abs(dist(p, d2.center) - (d2.radius + r3))
        if res < best_res - TANGENCY_TOL:
            best, best_res = p, res
        elif abs(res - best_res) <= TANGENCY_TOL and best is not None:
            # Symmetric tie: prefer greater y, then greater x (deterministic).
            if (p.y, p.x) > (best.y, best.x):
                best = p
    if best is None or best_res > TANGENCY_TOL:
        return _recursion_fallback(c, d1, d2)
    return ContainerDisk(best, r3)
