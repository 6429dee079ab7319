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
    RingShape,
    Side,
    center_penetration,
    inscribed_disk_after_two,
    place_in_ring,
    place_tangent,
    polar_entry,
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
    # polar_entry(container.center, q) for each q in placed, in its order.
    polar: List[Tuple[float, float, float]] = field(default_factory=list)
    pending: List[float] = field(default_factory=list)
    unplaced: List[float] = field(default_factory=list)
    trace: List[dict] = field(default_factory=list)

    def place(self, disk: PlacedDisk, near: NearDisks) -> float:
        """Record the placement of the head pending disk and add it to the
        index near; returns its polar angle about the container's center."""
        entry = polar_entry(self.container.center, disk)
        self.placed.append(disk)
        self.polar.append(entry)
        near.add(entry)
        self.pending.pop(0)
        return entry[0]

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


def boundary_packing(state: PackingState, threshold: float) -> int:
    """Pack pending disks adjacent to the container's boundary at increasing
    polar angles, from the largest angle of a placed disk overlapping the
    container, until one does not fit or the next radius drops below the
    threshold. Returns the number of disks placed; the stopping disk stays
    pending."""
    c = state.container
    floor = 0.0
    for theta, dq, rq in state.polar:
        if dq < c.radius + rq - 1e-12 and theta > floor:
            floor = theta
    count = 0
    near = None  # built at the first placement, for the largest radius
    while state.pending and state.pending[0] >= threshold:
        r = state.pending[0]
        if r > c.radius:
            break
        if near is None:
            near = NearDisks(c.center, r, state.polar)
        disk = place_tangent(c, r, angle_floor=floor, prev=near)
        if disk is None:
            break
        floor = max(floor, state.place(disk, near))
        count += 1
    return count


def ring_packing(state: PackingState, ring: RingShape) -> bool:
    """Pack pending disks into the ring, alternating outer/inner anchoring,
    until a disk does not fit (the ring is full) or two consecutive disks
    could pass each other (the ring is closed). Logs the end state and returns
    whether the ring closed; it is neither when no disk is left pending.

    The ring is about the container's center. Placements start from the
    largest angle of a placed disk overlapping the ring, and check only the
    disks near its band and its own disks: nothing else is placed while the
    ring is packed."""
    r_out, r_in = ring.r_out, ring.r_in
    hi, lo = r_out + RING_BAND_SLACK, r_in - RING_BAND_SLACK
    band = [e for e in state.polar if e[1] - e[2] < hi and e[1] + e[2] > lo]
    floor = 0.0
    for theta, dq, rq in band:
        if dq - rq < r_out - 1e-12 and dq + rq > r_in + 1e-12 and theta > floor:
            floor = theta
    near = NearDisks(state.container.center, state.pending[0] if state.pending else 0.0, band)
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
        floor = max(floor, state.place(disk, near))
        r_prev = disk.radius
    return False


def _open_ring(state: PackingState, r_out: float, r_in: float, **extra) -> Optional[RingShape]:
    """Open the ring R[r_out, r_in] around the container's center: lower
    r_min to its inner radius and log its creation (`extra` marks a split).
    Returns None, and opens nothing, when r_in <= 0 (no ring fits; the caller
    goes on with Phase 2 on the central disk)."""
    if r_in <= 0.0:
        return None
    center = state.container.center
    state.r_min = min(state.r_min, r_in)
    state.log(
        "ring_created", r_out=r_out, r_in=r_in, cx=center.x, cy=center.y, **extra
    )
    return RingShape(center, r_out, r_in)


def _phase1_recursion(state: PackingState) -> None:
    """Phase 1: while the two largest pending disks are >= 0.495*C, pack both
    adjacent to C's boundary by Boundary Packing and recurse on the largest
    disk that still fits. Boundary Packing places at most two disks this
    large: adjacent ones lie 2*asin(0.495/0.505) > 2*pi/3 apart about C's
    center, so a third finds no room."""
    while (
        len(state.pending) >= 2
        and state.pending[1] >= RECURSION_RATIO * state.container.radius
    ):
        c = state.container
        placed = boundary_packing(state, RECURSION_RATIO * c.radius)
        if placed < 2:
            if placed:
                state.log("phase1_partial", placed_radius=state.placed[-1].radius)
            return
        first, second = state.placed[-2:]
        new_c = inscribed_disk_after_two(c, first, second)
        state.container = new_c
        # The one move of the container's center: key every entry afresh.
        state.polar = [polar_entry(new_c.center, q) for q in state.placed]
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
        d = center_penetration(state.polar)
        threshold = (state.container.radius - d) / 4.0
        state.log(
            "phase2",
            radius=state.container.radius,
            cx=state.container.center.x,
            cy=state.container.center.y,
            penetration=d,
            threshold=threshold,
        )
        boundary_packing(state, threshold)
        if not state.pending:
            break

        # Phase 3: pack a new ring R[r_min, r_min - 2*r_i] concentric with
        # the container. Phase 4 splits a closed ring when the two largest
        # pending disks could pass one another inside it; the halves go on a
        # stack, the outer on top.
        r_in = state.r_min - 2.0 * state.pending[0]
        ring = _open_ring(state, state.r_min, r_in)
        rings = [] if ring is None else [ring]
        while rings and state.pending:
            ring = rings.pop()
            closed = ring_packing(state, ring)
            if closed and len(state.pending) >= 2:
                r_i, r_next = state.pending[0], state.pending[1]
                if 2.0 * r_i + 2.0 * r_next <= ring.width:
                    mid = ring.r_out - 2.0 * r_i
                    outer = _open_ring(state, ring.r_out, mid, split=True)
                    inner = _open_ring(state, mid, ring.r_in, split=True)
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
