"""Exact-formula circle geometry for boundary and ring placements.

All functions are pure and operate on immutable values in hardware doubles;
they are safe to call concurrently. Angles are polar angles measured
counterclockwise from the positive x-axis and normalized to [0, 2*pi) unless
stated otherwise.

Placement kernel: each disk near the circle of candidate centers yields a
keep-out arc (theta_q, sep_q) (`_blocking_constraints`), and
`_smallest_feasible_angle` picks the smallest free angle in [floor, top) from
k arcs in O(k log k), by one sweep over the sorted candidates and arcs. The
sweep only skips a candidate lying deeper than SWEEP_MARGIN inside an arc; a
candidate is returned only once the exact test (circular distance to every
theta_q >= sep_q - ANGLE_EPS) passes, so the angle is bit-identical to
checking every candidate against every arc, whatever the arcs' order.

The disks to avoid sit in a `NearDisks` index about the fixed center. For
each disk it caches theta_q and an upper bound on its keep-out half-width
that holds for every anchor and every radius up to the index's r_max:
asin((r_max + r_q) / dq) + BOUND_MARGIN, since a center at any distance from
the fixed center sees the disk's gap circle under at most that angle. A disk whose bound exceeds WIDE_ARC, or that may block every angle
(dq <= r_max + r_q), is wide and checked by every query; the others are
narrow and kept sorted by theta_q. A query looks at the window
[floor, floor + START_SPAN]: it builds arcs only for the wide disks and the
narrow ones whose bounded arc reaches the window, and sweeps with
top = floor + span. If no candidate below top is free, the span doubles, and
only the disks newly in reach add arcs; at 2*pi every disk is in and top is
floor + 2*pi, which is the full scan.

Why the angle is unchanged: a disk left out of a window has its whole
keep-out arc at least BOUND_MARGIN away from the window. So its upper edge is
no candidate below top, and every point of the window passes its exact test
with room far above rounding. The candidates below top and their exact tests
are therefore the same as with every disk in, and the sweep returns the same
float, or finds none below top in either case.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

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

# Keep-out bound above which a disk is wide: every query checks it.
WIDE_ARC = 0.5

# Width of a query's first window above the floor; each miss doubles it.
START_SPAN = 1.0


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


def polar_angle(center: Point, p: Point) -> float:
    return normalize_angle(math.atan2(p.y - center.y, p.x - center.x))


def _blocking_constraints(
    center: Point, anchor: float, r: float, prev: Sequence[PlacedDisk]
):
    """Per-disk angular keep-out half-widths for a center circling at `anchor`.

    Returns (constraints, blocked): constraints is a list of (theta_q, sep_q)
    meaning the candidate angle must stay at circular distance >= sep_q from
    theta_q; blocked is True when some disk overlaps the placement circle at
    every angle.
    """
    cx, cy = center
    a2 = anchor * anchor
    two_a = 2.0 * anchor
    hypot, atan2, acos = math.hypot, math.atan2, math.acos
    cons = []
    for q in prev:
        qx, qy = q.center
        dx = qx - cx
        dy = qy - cy
        dq = hypot(dx, dy)
        gap = r + q.radius
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
        theta = atan2(dy, dx)  # in [-pi, pi], so one wrap normalizes it
        if theta < 0.0:
            theta += TWO_PI
        cons.append((theta, acos(c)))
    return cons, False


def _smallest_feasible_angle(angle_floor: float, cons, top: float) -> Optional[float]:
    """Smallest beta in [angle_floor, top) whose circular distance from every
    theta_q is at least sep_q - ANGLE_EPS, for top <= angle_floor + 2*pi.
    Candidates are the floor itself and each constraint's upper edge shifted
    into [floor, floor + 2*pi). The sweep keeps `reach`, the furthest end of
    the arcs started so far (an arc that starts below the floor also has a
    copy 2*pi up)."""
    cands = [angle_floor]
    arcs = []
    for theta, sep in cons:
        base = theta + sep
        k = math.ceil((angle_floor - base) / TWO_PI)
        cand = base + TWO_PI * k
        if cand < angle_floor:
            cand += TWO_PI
        cands.append(cand)
        start = cand - 2.0 * sep
        arcs.append((start, cand))
        if start < angle_floor:
            arcs.append((start + TWO_PI, cand + TWO_PI))
    cands.sort()
    arcs.sort()
    i, n_arcs, reach = 0, len(arcs), -math.inf
    for beta in cands:
        if beta >= top:
            break
        lo = beta - SWEEP_MARGIN
        while i < n_arcs and arcs[i][0] < lo:
            end = arcs[i][1]
            if end > reach:
                reach = end
            i += 1
        if reach > beta + SWEEP_MARGIN:
            continue
        for theta, sep in cons:
            d = abs(math.fmod(beta - theta, TWO_PI))
            if min(d, TWO_PI - d) < sep - ANGLE_EPS:
                break
        else:
            return beta
    return None


class NearDisks:
    """Polar index of the disks that placements about a fixed center must
    avoid, for placed radii up to r_max (see the module docstring). `len`
    counts every disk and iteration yields every disk."""

    __slots__ = ("center", "r_max", "_wide", "_thetas", "_narrow", "_reach")

    def __init__(
        self, center: Point, r_max: float, disks: Iterable[PlacedDisk] = ()
    ):
        self.center = center
        self.r_max = r_max
        self._wide: List[PlacedDisk] = []  # checked by every query
        self._thetas: List[float] = []  # theta_q of the narrow disks, sorted
        self._narrow: List[Tuple[float, float, PlacedDisk]] = []  # (theta_q, bound_q, q)
        self._reach = 0.0  # largest bound_q of the narrow disks
        for q in disks:
            self.append(q)

    def __len__(self) -> int:
        return len(self._wide) + len(self._narrow)

    def __iter__(self):
        yield from self._wide
        for _, _, q in self._narrow:
            yield q

    def append(self, q: PlacedDisk) -> None:
        dx = q.center.x - self.center.x
        dy = q.center.y - self.center.y
        dq = math.hypot(dx, dy)
        g = self.r_max + q.radius
        bound = math.asin(g / dq) + BOUND_MARGIN if dq > g else math.inf
        if bound > WIDE_ARC:
            self._wide.append(q)
            return
        theta = math.atan2(dy, dx)
        if theta < 0.0:
            theta += TWO_PI
        i = bisect_left(self._thetas, theta)
        self._thetas.insert(i, theta)
        self._narrow.insert(i, (theta, bound, q))
        if bound > self._reach:
            self._reach = bound

    def free_angle(self, anchor: float, r: float, angle_floor: float) -> Optional[float]:
        """The kernel's angle for a center at distance anchor > 0: window by
        window, the arcs of the disks newly in reach and one sweep below the
        window's top. None when no angle is free."""
        cons = []
        for top, disks in self._windows(angle_floor):
            if disks:
                more, blocked = _blocking_constraints(self.center, anchor, r, disks)
                if blocked:
                    return None
                cons += more
            beta = _smallest_feasible_angle(angle_floor, cons, top)
            if beta is not None:
                return beta
        return None

    def _windows(self, angle_floor: float):
        """Yield (top, disks) for growing windows [angle_floor, top]: `disks`
        are the disks whose bounded keep-out arc newly reaches the window, the
        wide ones in the first batch. The span starts at START_SPAN and
        doubles while it stays below 2*pi - 2*WIDE_ARC, so that no disk
        reaches a window from both of its ends. The last top is
        angle_floor + 2*pi, and by then every disk has been yielded once."""
        narrow, reach, n = self._narrow, self._reach, len(self._narrow)
        f = normalize_angle(angle_floor)
        start = bisect_left(self._thetas, f)
        batch = list(self._wide)
        # Narrow disks below the floor, nearest first: one in reach of the
        # floor is in every window; the others only in the full circle.
        rest = []
        below = 0
        while below < n:
            theta, bound, q = narrow[start - 1 - below]
            d = f - theta
            if d < 0.0:
                d += TWO_PI
            if d > reach:
                break
            below += 1
            if d <= bound:
                batch.append(q)
            else:
                rest.append(q)
        # Narrow disks at or above the floor, nearest first, walked up to the
        # window's top plus the largest bound; `later` holds the walked ones
        # not yet in reach, with the span that brings them in.
        above, i, later = n - below, 0, []
        span = START_SPAN
        while span < TWO_PI - 2.0 * WIDE_ARC:
            if later:
                waiting = []
                for entry in later:
                    if entry[0] <= span:
                        batch.append(entry[1])
                    else:
                        waiting.append(entry)
                later = waiting
            while i < above:
                k = start + i
                theta, bound, q = narrow[k - n if k >= n else k]
                u = theta - f
                if u < 0.0:
                    u += TWO_PI
                if u > span + reach:
                    break
                i += 1
                if u - bound <= span:
                    batch.append(q)
                else:
                    later.append((u - bound, q))
            yield angle_floor + span, batch
            batch = []
            span *= 2.0
        batch += rest
        batch += [q for _, q in later]
        batch += [narrow[(start + k) % n][2] for k in range(i, above)]
        yield angle_floor + TWO_PI, batch


def _near_index(center: Point, r: float, prev) -> NearDisks:
    """`prev` itself when it is an index about center fit for radius r; else
    a new index of the disks in the sequence prev."""
    if not isinstance(prev, NearDisks):
        return NearDisks(center, r, prev)
    if prev.center != center or r > prev.r_max:
        raise GeometryDomainError(
            f"index about {prev.center} for radii up to {prev.r_max} cannot "
            f"place radius {r} about {center}"
        )
    return prev


def _place_at_anchor(
    center: Point,
    anchor: float,
    angle_floor: float,
    prev: Union[NearDisks, Sequence[PlacedDisk]],
    r: float,
) -> Optional[PlacedDisk]:
    near = _near_index(center, r, prev)
    if anchor == 0.0:
        # Degenerate: the disk is concentric with the anchor circle.
        for q in near:
            dq = math.hypot(q.center.x - center.x, q.center.y - center.y)
            if dq < r + q.radius - ANGLE_EPS:
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
    prev: Union[NearDisks, Sequence[PlacedDisk]] = (),
) -> Optional[PlacedDisk]:
    """Place a disk of radius r adjacent to the container boundary from inside.

    The center goes at distance boundary.radius - r from the container center,
    at the smallest polar angle >= angle_floor at which the disk overlaps no
    disk of prev (wrap-around past 2*pi is checked against every disk).
    Returns None (NO_FIT) when no such angle exists. prev is an index about
    the container's center, or a sequence indexed on the spot.
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
    prev: Union[NearDisks, Sequence[PlacedDisk]] = (),
) -> Optional[PlacedDisk]:
    """Place a disk of radius r inside a ring, adjacent to the chosen boundary.

    Raises RingWidthError when the disk cannot fit widthwise (2r > width);
    returns None (NO_FIT) when it fits widthwise but every angle is crowded.
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


def center_penetration(c: ContainerDisk, placed: Sequence[PlacedDisk]) -> float:
    """Depth by which placed disks cover the container center (0 if uncovered)."""
    best = 0.0
    found = False
    for q in placed:
        d = math.hypot(q.center.x - c.center.x, q.center.y - c.center.y)
        if d < q.radius:
            pen = q.radius - d
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
