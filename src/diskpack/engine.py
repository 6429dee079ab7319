"""Five-phase packing engine with Boundary Packing and Ring Packing subroutines.

Packs any instance of total area <= pi/2 completely into the unit disk; larger
instances are packed best-effort and reported incomplete. The engine is a
single-threaded deterministic state machine; results are immutable after
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .geometry import (
    ContainerDisk,
    NearDisks,
    PlacedDisk,
    Point,
    RingShape,
    Side,
    center_penetration,
    inscribed_disk_after_two,
    place_in_ring,
    place_tangent,
    polar_angle,
    unit_container,
)

MIN_RADIUS = 1e-9

# Threshold below which Phase 1 stops recursing, relative to the container.
RECURSION_RATIO = 0.495

# Widening of a ring's band when collecting the disks its placements must
# avoid. A disk this far outside it has |anchor - d| >= gap + 1e-6, so the
# kernel's cosine numerator (anchor - d)^2 - gap^2 is >= 1e-12, far above its
# rounding: the kernel skips the disk, and dropping it changes no constraint.
RING_BAND_SLACK = 1e-6


class InstanceError(ValueError):
    """Invalid instance data (nonpositive or sub-resolution radii)."""


@dataclass(frozen=True)
class InstanceSpec:
    """A multiset of disk radii in container units (container radius 1)."""

    radii: Tuple[float, ...]

    def __post_init__(self):
        for r in self.radii:
            if not (r > 0.0) or not math.isfinite(r):
                raise InstanceError(f"radii must be positive finite, got {r}")
            if r < MIN_RADIUS:
                raise InstanceError(f"radius {r} below resolution {MIN_RADIUS}")

    @staticmethod
    def of(radii: Sequence[float]) -> "InstanceSpec":
        return InstanceSpec(tuple(float(r) for r in radii))


@dataclass
class PackingState:
    container: ContainerDisk
    r_min: float
    placed: List[PlacedDisk] = field(default_factory=list)
    pending: List[float] = field(default_factory=list)
    unplaced: List[float] = field(default_factory=list)
    trace: List[dict] = field(default_factory=list)

    def log(self, event: str, **data) -> None:
        rec = {"event": event}
        rec.update(data)
        self.trace.append(rec)


@dataclass(frozen=True)
class PackingResult:
    placements: Tuple[Tuple[float, Tuple[float, float]], ...]
    unplaced: Tuple[float, ...]
    phase_trace: Tuple[dict, ...]
    complete: bool


def _overlaps_disk_region(q: PlacedDisk, c: ContainerDisk) -> bool:
    d = math.hypot(q.center.x - c.center.x, q.center.y - c.center.y)
    return d < c.radius + q.radius - 1e-12


def _overlaps_ring_region(q: PlacedDisk, ring: RingShape, slack: float = -1e-12) -> bool:
    d = math.hypot(q.center.x - ring.center.x, q.center.y - ring.center.y)
    return d - q.radius < ring.r_out + slack and d + q.radius > ring.r_in - slack


def _max_overlapping_angle(center: Point, region_filter, placed) -> float:
    """Maximal polar angle realized by the midpoint of a placed disk that
    overlaps the region; 0 when none does."""
    best = 0.0
    for q in placed:
        if region_filter(q):
            a = polar_angle(center, q.center)
            if a > best:
                best = a
    return best


def boundary_packing(state: PackingState, c: ContainerDisk, threshold: float) -> int:
    """Pack pending disks adjacent to c's boundary at increasing polar angles
    until one does not fit or the next radius drops below the threshold.
    Returns the number of disks placed; the stopping disk stays pending."""
    floor = _max_overlapping_angle(
        c.center, lambda q: _overlaps_disk_region(q, c), state.placed
    )
    count = 0
    near = None  # built at the first placement, for the largest radius
    while state.pending and state.pending[0] >= threshold:
        r = state.pending[0]
        if r > c.radius:
            break
        if near is None:
            near = NearDisks(c.center, r, state.placed)
        disk = place_tangent(c, r, angle_floor=floor, prev=near)
        if disk is None:
            break
        state.placed.append(disk)
        floor = max(floor, near.append(disk))
        state.pending.pop(0)
        count += 1
    return count


def ring_packing(state: PackingState, ring: RingShape) -> bool:
    """Pack pending disks into the ring, alternating outer/inner anchoring,
    until a disk does not fit (the ring is full) or two consecutive disks
    could pass each other (the ring is closed). Logs the end state and returns
    whether the ring closed; it is neither when no disk is left pending.

    Placements check only the disks near the ring's band, and the ring's own
    disks: nothing else is placed while the ring is packed."""
    band = [q for q in state.placed if _overlaps_ring_region(q, ring, RING_BAND_SLACK)]
    floor = _max_overlapping_angle(
        ring.center, lambda q: _overlaps_ring_region(q, ring), band
    )
    near = NearDisks(ring.center, state.pending[0] if state.pending else 0.0, band)
    side = Side.INNER  # flipped before each placement; the first is OUTER
    r_prev = None
    width = ring.width
    while state.pending:
        r = state.pending[0]
        if r_prev is not None and 2.0 * r_prev + 2.0 * r < width:
            state.log("ring_state", state="closed", r_out=ring.r_out, r_in=ring.r_in)
            return True
        side = Side.OUTER if side is Side.INNER else Side.INNER
        disk = place_in_ring(ring, side, r, angle_floor=floor, prev=near)
        if disk is None:
            state.log("ring_state", state="full", r_out=ring.r_out, r_in=ring.r_in)
            return False
        state.placed.append(disk)
        floor = max(floor, near.append(disk))
        state.pending.pop(0)
        r_prev = disk.radius
    return False


def _open_ring(
    state: PackingState, center: Point, r_out: float, r_in: float, **extra
) -> Optional[RingShape]:
    """Open the ring R[r_out, r_in] around center: lower r_min to its inner
    radius and log its creation (`extra` marks a split). Returns None, and
    opens nothing, when r_in <= 0 (no ring fits; the caller goes on with
    Phase 2 on the central disk)."""
    if r_in <= 0.0:
        return None
    state.r_min = min(state.r_min, r_in)
    state.log(
        "ring_created", r_out=r_out, r_in=r_in, cx=center.x, cy=center.y, **extra
    )
    return RingShape(center, r_out, r_in)


def _phase1_recursion(state: PackingState) -> None:
    """Phase 1: while the two largest pending disks are >= 0.495*C, pack both
    adjacent to C's boundary and recurse on the largest disk that still fits."""
    while (
        len(state.pending) >= 2
        and state.pending[0] >= RECURSION_RATIO * state.container.radius
        and state.pending[1] >= RECURSION_RATIO * state.container.radius
    ):
        c = state.container
        if state.pending[0] > c.radius:
            return
        near = NearDisks(c.center, state.pending[0], state.placed)
        first = place_tangent(c, state.pending[0], angle_floor=0.0, prev=near)
        if first is None:
            return
        state.placed.append(first)
        floor = near.append(first)
        state.pending.pop(0)
        second = place_tangent(c, state.pending[0], angle_floor=floor, prev=near)
        if second is None:
            state.log("phase1_partial", placed_radius=first.radius)
            return
        state.placed.append(second)
        state.pending.pop(0)
        new_c = inscribed_disk_after_two(c, first, second)
        state.container = new_c
        state.r_min = new_c.radius
        state.log(
            "recursion",
            radius=new_c.radius,
            cx=new_c.center.x,
            cy=new_c.center.y,
            pair=(first.radius, second.radius),
        )


def pack(instance: InstanceSpec) -> PackingResult:
    """Run the five-phase algorithm on a radius multiset (unit container)."""
    state = PackingState(
        container=unit_container(),
        r_min=1.0,
        pending=sorted(instance.radii, reverse=True),
    )

    _phase1_recursion(state)

    while state.pending:
        # Progress is a placement or a new ring: a new ring strictly lowers
        # r_min, and a split only follows a placement.
        progress_marker = (len(state.placed), state.r_min)

        # Phase 2: boundary packing with threshold (r - d)/4.
        d = center_penetration(state.container, state.placed)
        threshold = (state.container.radius - d) / 4.0
        state.log(
            "phase2",
            radius=state.container.radius,
            cx=state.container.center.x,
            cy=state.container.center.y,
            penetration=d,
            threshold=threshold,
        )
        boundary_packing(state, state.container, threshold)
        if not state.pending:
            break

        # Phase 3: pack a new ring R[r_min, r_min - 2*r_i] concentric with
        # the container. Phase 4 splits a closed ring when the two largest
        # pending disks could pass one another inside it; the halves go on a
        # stack, the outer on top.
        r_in = state.r_min - 2.0 * state.pending[0]
        ring = _open_ring(state, state.container.center, state.r_min, r_in)
        rings = [] if ring is None else [ring]
        while rings and state.pending:
            ring = rings.pop()
            closed = ring_packing(state, ring)
            if closed and len(state.pending) >= 2:
                r_i, r_next = state.pending[0], state.pending[1]
                if 2.0 * r_i + 2.0 * r_next <= ring.width:
                    mid = ring.r_out - 2.0 * r_i
                    outer = _open_ring(state, ring.center, ring.r_out, mid, split=True)
                    inner = _open_ring(state, ring.center, mid, ring.r_in, split=True)
                    rings += [inner, outer]
        if not state.pending:
            break

        # Phase 5: go on with Phase 2 on the central disk inside the rings,
        # also when the head disk left no room for a new ring.
        state.container = ContainerDisk(state.container.center, state.r_min)
        state.log("central_container", radius=state.r_min)
        if (len(state.placed), state.r_min) == progress_marker:
            # The head disk fits nowhere; give it up and go on with the rest.
            state.log("no_progress", pending=len(state.pending))
            state.unplaced.append(state.pending.pop(0))

    placements = tuple(
        (p.radius, (p.center.x, p.center.y)) for p in state.placed
    )
    return PackingResult(
        placements=placements,
        unplaced=tuple(state.unplaced),
        phase_trace=tuple(state.trace),
        complete=not state.unplaced,
    )
