import heapq
import itertools
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpack import engine, geometry
from diskpack.engine import InstanceSpec, pack
from diskpack.geometry import (
    TWO_PI,
    GeometryDomainError,
    PlacedDisk,
    Point,
    RingShape,
    NearDisks,
    RingWidthError,
    Side,
    _blocking_constraints,
    center_penetration,
    inscribed_disk_after_two,
    normalize_angle,
    place_in_ring,
    place_tangent,
    polar_entry,
    unit_container,
)
from diskpack.instances import gen_random_area

from oracle_kernel import blocking_constraints as reference_constraints
from oracle_kernel import smallest_feasible_angle as quadratic_feasible_angle

UNIT = unit_container()


def disk(r, x, y):
    return PlacedDisk(Point(x, y), r)


def dist(p, q):
    return math.hypot(p.x - q.x, p.y - q.y)


# ---------------------------------------------------------------------------
# angular separation: the keep-out half-width from _blocking_constraints


def entries_of(center, disks):
    """The entries (theta_q, dq, r_q) of disks about center, in their order."""
    return [polar_entry(center, q) for q in disks]


def index(center, r_max, disks):
    """An index about center holding the entries of disks."""
    return NearDisks(center, r_max, entries_of(center, disks))


def separation(anchor, dq, gap):
    """Half-width of the arc that a disk at distance dq blocks for a center
    circling at `anchor`, the two disks' radii summing to gap: 0.0 when the
    disk is out of reach, None when it overlaps the circle at every angle."""
    origin = Point(0.0, 0.0)
    entries = entries_of(origin, [disk(gap / 2.0, dq, 0.0)])
    cons, blocked = _blocking_constraints(origin, anchor, gap / 2.0, entries)
    if blocked:
        return None
    if not cons:
        return 0.0
    ((theta, sep),) = cons
    assert theta == 0.0
    return sep


def test_disk_at_subnormal_distance_counts_as_concentric():
    # 2 * anchor * dq underflows to 0 for dq = 5e-324, though dq itself is
    # not 0: the disk takes the concentric branch, not a division by zero.
    q = disk(0.1, 5e-324, 0.0)
    center = Point(0.0, 0.0)
    entries = entries_of(center, [q])
    assert _blocking_constraints(center, 0.15, 0.1, entries) == ([], True)
    assert _blocking_constraints(center, 0.25, 0.1, entries) == ([], False)
    near = index(center, 0.1, [q])
    assert near.free_angle(0.15, 0.1, 1.0) is None
    assert near.free_angle(0.25, 0.1, 1.0) == 1.0


def bisect_separation(d1, d2, gap):
    """Independent oracle: bisection on the chord length as a function of the
    included angle (monotone on [0, pi])."""

    def chord(a):
        return math.sqrt(d1 * d1 + d2 * d2 - 2 * d1 * d2 * math.cos(a))

    lo, hi = 0.0, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chord(mid) < gap:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_angular_separation_two_quarters():
    # Two r=1/4 disks tangent to the unit boundary and each other.
    got = separation(0.75, 0.75, 0.5)
    assert got == pytest.approx(0.6796738189082441, abs=1e-12)  # 2*asin(1/3)
    assert got == pytest.approx(bisect_separation(0.75, 0.75, 0.5), abs=1e-9)


def test_angular_separation_degenerate():
    # Tangent from outside (|anchor - dq| == gap): no angle overlaps.
    assert separation(1.0, 0.5, 0.5) == 0.0
    # anchor + dq == gap: every angle but the antipode overlaps.
    assert separation(0.5, 0.5, 1.0) == math.pi


def test_angular_separation_infeasible():
    # anchor + dq < gap: the disk overlaps the circle at every angle.
    assert separation(0.5, 0.5, 1.1) is None
    # |anchor - dq| > gap: the disk is out of reach.
    assert separation(1.0, 0.2, 0.1) == 0.0


@given(
    d1=st.floats(0.05, 1.0),
    d2=st.floats(0.05, 1.0),
    f=st.floats(0.0, 1.0),
)
@settings(max_examples=300, derandomize=True)
def test_angular_separation_symmetric_and_monotone(d1, d2, f):
    lo, hi = abs(d1 - d2), d1 + d2
    gap = lo + f * (hi - lo)
    a = separation(d1, d2, gap)
    assert a == separation(d2, d1, gap)
    gap2 = lo + min(1.0, f + 0.1) * (hi - lo)
    assert separation(d1, d2, gap2) >= a - 1e-12


# ---------------------------------------------------------------------------
# place_tangent


def test_place_tangent_first_disk_at_zero():
    p = place_tangent(UNIT, 0.5, prev=NearDisks(UNIT.center, 0.5))
    assert p is not None
    assert p.center == pytest.approx((0.5, 0.0), abs=1e-15)


def test_place_tangent_antipodal_pair():
    first = place_tangent(UNIT, 0.5, prev=NearDisks(UNIT.center, 0.5))
    second = place_tangent(UNIT, 0.5, prev=index(UNIT.center, 0.5, [first]))
    assert second is not None
    assert second.center.x == pytest.approx(-0.5, abs=1e-12)
    assert second.center.y == pytest.approx(0.0, abs=1e-12)
    # Brute-force scan: every angle before pi overlaps the first disk.
    for k in range(1, 3141):
        a = k * 1e-3
        c = Point(0.5 * math.cos(a), 0.5 * math.sin(a))
        assert dist(c, first.center) < 1.0 - 1e-9


def test_place_tangent_fills_then_no_fit():
    """Repeatedly place r=1/4 disks until wrap-around collision; the angular
    budget 2*pi / (2*asin(1/3)) allows exactly nine."""
    placed = []
    while True:
        p = place_tangent(UNIT, 0.25, prev=index(UNIT.center, 0.25, placed))
        if p is None:
            break
        placed.append(p)
    assert len(placed) == 9
    sep = 2 * math.asin(1 / 3)
    last_angle = polar_entry(UNIT.center, placed[-1])[0]
    assert 2 * math.pi - last_angle < 2 * sep  # residual cannot host another


def test_place_tangent_oversized():
    with pytest.raises(GeometryDomainError):
        place_tangent(UNIT, 1.5, prev=NearDisks(UNIT.center, 1.5))


def test_place_tangent_minimality_grid():
    """The returned angle is minimal: every grid angle below it overlaps."""
    prev = [disk(0.3, 0.7, 0.0), disk(0.2, 0.8 * math.cos(1.2), 0.8 * math.sin(1.2))]
    r = 0.25
    p = place_tangent(UNIT, r, angle_floor=0.0, prev=index(UNIT.center, r, prev))
    assert p is not None
    beta = polar_entry(UNIT.center, p)[0]
    anchor = 1.0 - r
    a = 0.0
    while a < beta - 1e-4:
        c = Point(anchor * math.cos(a), anchor * math.sin(a))
        assert any(dist(c, q.center) < r + q.radius - 1e-9 for q in prev)
        a += 1e-4
    for q in prev:
        assert dist(p.center, q.center) >= r + q.radius - 1e-9


def test_place_tangent_respects_floor():
    p = place_tangent(UNIT, 0.1, angle_floor=2.0, prev=NearDisks(UNIT.center, 0.1))
    assert polar_entry(UNIT.center, p)[0] == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# place_in_ring


def test_place_in_ring_spanning_disk_touches_both():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.5)
    p = place_in_ring(ring, Side.OUTER, 0.25, prev=NearDisks(ring.center, 0.25))
    assert p.center == pytest.approx((0.75, 0.0), abs=1e-15)
    assert dist(p.center, ring.center) + p.radius == pytest.approx(1.0, abs=1e-12)
    assert dist(p.center, ring.center) - p.radius == pytest.approx(0.5, abs=1e-12)


def test_place_in_ring_inner_anchor():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.5)
    p = place_in_ring(ring, Side.INNER, 0.1, prev=NearDisks(ring.center, 0.1))
    assert dist(p.center, ring.center) == pytest.approx(0.6, abs=1e-15)
    assert polar_entry(ring.center, p)[0] == pytest.approx(0.0, abs=1e-12)


def test_place_in_ring_next_angle_law_of_cosines():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.8)
    prev = [disk(0.1, 0.9, 0.0)]
    p = place_in_ring(ring, Side.OUTER, 0.1, prev=index(ring.center, 0.1, prev))
    beta = polar_entry(ring.center, p)[0]
    expected = math.acos((0.81 + 0.81 - 0.04) / 1.62)
    assert beta == pytest.approx(expected, abs=1e-12)
    assert beta == pytest.approx(0.22268202868192777, abs=1e-9)
    # Root-find oracle: tangency as a function of angle.
    lo, hi = 0.0, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = Point(0.9 * math.cos(mid), 0.9 * math.sin(mid))
        if dist(c, prev[0].center) < 0.2:
            lo = mid
        else:
            hi = mid
    assert beta == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_place_in_ring_too_wide():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.9)
    with pytest.raises(RingWidthError):
        place_in_ring(ring, Side.OUTER, 0.2, prev=NearDisks(ring.center, 0.2))


def test_place_in_ring_crowded_is_no_fit_not_error():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.5)
    placed = []
    while True:
        p = place_in_ring(ring, Side.OUTER, 0.25, prev=index(ring.center, 0.25, placed))
        if p is None:
            break
        placed.append(p)
    assert len(placed) >= 3


# ---------------------------------------------------------------------------
# inscribed_disk_after_two


def test_inscribed_after_two_halves():
    d1, d2 = disk(0.5, 0.5, 0.0), disk(0.5, -0.5, 0.0)
    c = inscribed_disk_after_two(UNIT, d1, d2)
    # Curvature oracle: k3 = k0+k1+k2 + 2*sqrt(k0k1+k1k2+k2k0) with k0=-1, k1=k2=2.
    k3 = -1 + 2 + 2 + 2 * math.sqrt(-2 + 4 - 2)
    assert c.radius == pytest.approx(1 / k3, abs=1e-12)
    assert c.center == pytest.approx((0.0, 2 / 3), abs=1e-12)
    # Tangency residuals: internal to the unit disk, external to both halves.
    assert dist(c.center, UNIT.center) + c.radius == pytest.approx(1.0, abs=1e-9)
    for d in (d1, d2):
        assert dist(c.center, d.center) == pytest.approx(
            c.radius + d.radius, abs=1e-9
        )


def test_inscribed_after_two_lemma_configuration():
    # Two 0.505 disks on the horizontal diameter overlap each other, so the
    # construction falls back to the guaranteed radius-1/5 disk.
    d1, d2 = disk(0.505, 0.495, 0.0), disk(0.505, -0.495, 0.0)
    c = inscribed_disk_after_two(UNIT, d1, d2)
    assert c.radius >= 0.2 - 1e-9
    assert dist(c.center, d1.center) >= c.radius + d1.radius - 1e-9
    assert dist(c.center, d2.center) >= c.radius + d2.radius - 1e-9


def test_inscribed_after_two_fallback_radius():
    d1, d2 = disk(0.3, 0.7, 0.0), disk(0.3, -0.7, 0.0)  # not mutually tangent
    c = inscribed_disk_after_two(UNIT, d1, d2)
    assert c.radius == pytest.approx(0.2, abs=1e-15)


def test_inscribed_after_two_asymmetric_tangency():
    first = place_tangent(UNIT, 0.5, prev=NearDisks(UNIT.center, 0.5))
    second = place_tangent(UNIT, 0.4, prev=index(UNIT.center, 0.4, [first]))
    c = inscribed_disk_after_two(UNIT, first, second)
    assert dist(c.center, UNIT.center) + c.radius == pytest.approx(1.0, abs=1e-9)
    for d in (first, second):
        assert dist(c.center, d.center) == pytest.approx(
            c.radius + d.radius, abs=1e-9
        )


# ---------------------------------------------------------------------------
# center_penetration


def test_center_penetration_examples():
    def penetration(disks):
        return center_penetration(entries_of(UNIT.center, disks))

    assert penetration([disk(0.6, 0.4, 0.0)]) == pytest.approx(0.2, abs=1e-15)
    assert penetration([disk(0.4, 0.6, 0.0)]) == 0.0
    got = penetration([disk(0.55, 0.45, 0.0), disk(0.52, -0.48, 0.0)])
    assert got == pytest.approx(0.04, abs=1e-12)


# ---------------------------------------------------------------------------
# placement invariants on random instances


@given(st.lists(st.floats(0.05, 0.3), min_size=1, max_size=8), st.floats(0.0, 1.0))
@settings(max_examples=100, derandomize=True)
def test_placement_invariants(radii, floor):
    placed = []
    for r in sorted(radii, reverse=True):
        p = place_tangent(UNIT, r, angle_floor=floor, prev=index(UNIT.center, r, placed))
        if p is None:
            continue
        anchor = 1.0 - r
        assert abs(dist(p.center, UNIT.center) - anchor) <= 1e-12
        for q in placed:
            assert dist(p.center, q.center) >= p.radius + q.radius - 1e-9
        placed.append(p)


# ---------------------------------------------------------------------------
# the kernel's queries against the quadratic oracle


def same_angle(a, b):
    """Bit-identical results: equal floats of equal sign, or both None."""
    return repr(a) == repr(b)


THETAS = st.one_of(
    st.floats(0.0, TWO_PI),
    st.sampled_from([0.0, -0.0, math.pi, TWO_PI]),
    st.floats(0.0, 1e-9),
    st.floats(TWO_PI - 1e-9, TWO_PI),
)
FLOORS = st.one_of(
    st.floats(0.0, TWO_PI),
    st.floats(0.0, 1e-9),
    st.floats(TWO_PI - 1e-9, TWO_PI),
    st.sampled_from([0.0, -0.0, math.pi, TWO_PI]),
)


def polar_disk(center, theta, dq, radius):
    return disk(radius, center.x + dq * math.cos(theta), center.y + dq * math.sin(theta))


def nudge(x, steps):
    """x moved by `steps` units in the last place."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


def full_list_angle(center, anchor, r, disks, floor):
    """The quadratic oracle over the reference arcs of every disk: the
    kernel's angle without an index."""
    cons, blocked = reference_constraints(center, anchor, r, list(disks))
    return None if blocked else quadratic_feasible_angle(floor, cons)


@st.composite
def index_queries(draw):
    """(center, anchor, r, r_max, disks, floor) for one kernel query.

    Kinds: random disks; disks whose keep-out arc is at its widest (the
    anchor circle's tangent sight line), with the floor a few ulps off the
    arc's bounded edge, below or above it; wide disks, and disks that
    block every angle; chains of disks placed along the anchor circle by the
    oracle, each touching the last, or with its keep-out arc starting at the
    last one's upper edge or less than SWEEP_MARGIN below it, which can fill
    the circle (NO_FIT) or leave the only gap just below the floor (the full
    circle); copies of a few disks, and disks of other radii at the same
    centers (equal arcs, and arcs about the same theta_q)."""
    center = Point(draw(st.sampled_from([0.0, 0.25])), draw(st.sampled_from([0.0, -0.125])))
    anchor = draw(st.floats(0.05, 1.0))
    r = draw(st.floats(1e-3, 0.1))
    r_max = r * draw(st.sampled_from([1.0, 1.0, 1.5, 3.0]))
    thetas = st.one_of(THETAS, st.floats(-1e-9, 0.0))
    distances = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(1e-6, 1.5))
    disks = [
        polar_disk(center, draw(thetas), draw(distances), draw(st.floats(1e-4, 0.05)))
        for _ in range(draw(st.integers(0, 16)))
    ]
    floor = draw(FLOORS)
    kind = draw(st.sampled_from(["random", "tangent", "wide", "chain", "duplicates"]))
    if kind == "tangent":
        # dq^2 = anchor^2 + g^2: this anchor sees the disk's gap circle under
        # the largest angle, asin(g/dq), the bound less its margin.
        for _ in range(draw(st.integers(1, 6))):
            rq = draw(st.floats(1e-4, 0.25))
            g = r_max + rq
            dq = math.hypot(anchor, g)
            theta = draw(THETAS)
            disks.append(polar_disk(center, theta, dq, rq))
            edge = math.asin(g / dq)
            if draw(st.booleans()):
                floor = theta + edge  # the disk just below the floor
            else:
                floor = theta - edge - geometry.BOUND_MARGIN  # just above the floor
            floor = normalize_angle(nudge(floor, draw(st.integers(-4, 4))))
    elif kind == "wide":
        for _ in range(draw(st.integers(1, 4))):
            rq = draw(st.floats(0.05, 0.6))
            dq = draw(st.one_of(st.just(0.0), st.floats(1e-6, 2.0 * (r_max + rq))))
            disks.append(polar_disk(center, draw(THETAS), dq, rq))
    elif kind == "chain":
        rq = draw(st.floats(0.02, 0.5)) * anchor
        r = min(r, rq)
        r_max = max(r_max, r)
        # Placed at the free angle for rq, a disk touches the last one. Placed
        # sep past the free angle for r, its arc for r (half-width sep, up to
        # rounding) starts at the last arc's upper edge, or a hair below.
        c = 1.0 - (r + rq) ** 2 / (2.0 * anchor * anchor)
        rho, offset = draw(st.sampled_from([
            (rq, 0.0),
            (r, math.acos(max(c, -1.0))),
            (r, math.acos(max(c, -1.0)) - draw(st.sampled_from([1e-11, 3e-10]))),
        ]))
        start = theta = draw(FLOORS)
        for _ in range(draw(st.integers(1, 40))):
            beta = full_list_angle(center, anchor, rho, disks, theta)
            if beta is None:
                break
            theta = normalize_angle(beta + offset)
            disks.append(polar_disk(center, theta, anchor, rq))
        floor = draw(st.sampled_from([floor, start, theta]))
    elif kind == "duplicates":
        spots = [
            polar_disk(center, draw(THETAS), draw(st.floats(1e-6, 1.5)), 0.0).center
            for _ in range(draw(st.integers(1, 3)))
        ]
        radii = draw(st.lists(st.floats(1e-4, 0.25), min_size=1, max_size=3))
        for _ in range(draw(st.integers(1, 12))):
            disks.append(disk(draw(st.sampled_from(radii)), *draw(st.sampled_from(spots))))
    return center, anchor, r, r_max, disks, floor


def sweep_arc(floor, theta, sep):
    """The sweep's arc of (theta, sep), (start, upper edge): the edge shifted
    into [floor, floor + 2*pi) as the sweep shifts it, the start 2 * sep
    below."""
    base = theta + sep
    edge = base + TWO_PI * math.ceil((floor - base) / TWO_PI)
    if edge < floor:
        edge += TWO_PI
    return edge - 2.0 * sep, edge


def swept(center, anchor, r, disks, floor):
    """The sweep over the arcs of every disk at once: an index for radii up
    to infinity holds every disk as wide, so its query has nothing to walk."""
    return index(center, math.inf, disks).free_angle(anchor, r, floor)


def checked_query(near, disks, anchor, r, floor, reached=None):
    """near.free_angle(anchor, r, floor) for the index of disks, checking the
    walk. The query calls `_blocking_constraints` once, and the disks it does
    not pass there never block. Whenever the sweep drops a candidate, either
    the candidate lies deeper than SWEEP_MARGIN / 2 inside an arc the sweep
    holds, or every disk whose arc it does not hold yet has that arc, as the
    kernel computes it, starting more than 0.9 * BOUND_MARGIN above the
    candidate: no exact test and no smaller candidate can depend on such a
    disk. `reached`, when given, maps each candidate the sweep pushes to the
    smallest candidate it held just before."""
    center = near.center
    entries = entries_of(center, disks)
    passed, held = [], Counter()
    arcs = []  # each disk's sweep_arc, None when it has no arc
    for q in disks:
        cons, _ = reference_constraints(center, anchor, r, [q])
        arcs.append(sweep_arc(floor, *cons[0]) if cons else None)

    def recorded(*args):
        passed.append(Counter(args[3]))
        return _blocking_constraints(*args)

    def push(heap, item):
        if isinstance(item, tuple):
            held[item] += 1
        elif reached is not None:
            reached[item] = heap[0] if heap else None
        heapq.heappush(heap, item)

    def pop(heap):
        beta = heapq.heappop(heap)
        if isinstance(beta, tuple):
            return beta
        margin = geometry.SWEEP_MARGIN / 2.0
        if any(s < beta - margin and e > beta + margin for s, e in held):
            return beta
        left = held.copy()
        for arc in filter(None, arcs):
            if left[arc] > 0:
                left[arc] -= 1
            else:
                assert arc[0] - beta > 0.9 * geometry.BOUND_MARGIN
        return beta

    with mock.patch.object(geometry, "_blocking_constraints", recorded), \
            mock.patch.object(geometry, "heappush", push), \
            mock.patch.object(geometry, "heappop", pop):
        got = near.free_angle(anchor, r, floor)
    (first,) = passed
    rest = []
    for q, entry in zip(disks, entries):
        if first[entry] > 0:
            first[entry] -= 1
        else:
            rest.append(q)
    assert not reference_constraints(center, anchor, r, rest)[1]
    return got


@given(query=index_queries())
@settings(max_examples=800, derandomize=True, deadline=None)
def test_kernel_sweep_matches_quadratic_oracle(query):
    center, anchor, r, r_max, disks, floor = query
    got = swept(center, anchor, r, disks, floor)
    assert same_angle(got, full_list_angle(center, anchor, r, disks, floor))
    # The answer does not depend on the order of the disks.
    assert same_angle(got, swept(center, anchor, r, disks[::-1], floor))
    # Nor on holding disks back until the sweep comes near their arcs.
    assert same_angle(got, checked_query(index(center, r_max, disks), disks, anchor, r, floor))


def both_ways(center, anchor, r, disks, floor):
    """The oracle's angle, checked against the sweep over every arc at once
    and against the walked index."""
    want = full_list_angle(center, anchor, r, disks, floor)
    assert same_angle(swept(center, anchor, r, disks, floor), want)
    assert same_angle(checked_query(index(center, r, disks), disks, anchor, r, floor), want)
    return want


def arc_disk(center, anchor, r, theta, sep):
    """A disk on the anchor circle at theta whose keep-out arc for radius r
    has half-width sep, up to rounding: gap = 2 * anchor * sin(sep / 2)."""
    return polar_disk(center, theta, anchor, 2.0 * anchor * math.sin(sep / 2.0) - r)


def test_kernel_tangent_edges_and_blocked_circle():
    center, anchor, r = Point(0.0, 0.0), 0.5, 0.02
    # Edges touching exactly: each arc starts where the last one ends, up to
    # rounding, so the first arc's upper edge is blocked only by the slack.
    touching = [arc_disk(center, anchor, r, 0.5 + 0.2 * k + 0.1, 0.1) for k in range(5)]
    assert abs(both_ways(center, anchor, r, touching, 0.6) - 0.7) < 1e-12
    # Eight overlapping arcs of narrow disks cover the circle: no angle is
    # free, which the walk learns only at its last disk.
    full = [arc_disk(center, anchor, r, k * math.pi / 4, 0.45) for k in range(8)]
    assert len(index(center, r, full)._narrow) == 8
    assert both_ways(center, anchor, r, full, 0.3) is None
    # A half-width of pi leaves only the antipode: anchor + dq = gap.
    assert both_ways(center, anchor, 0.25, [disk(0.75, 0.5, 0.0)], 0.0) == math.pi


def test_kernel_arcs_pulled_next_to_the_candidate():
    # The floor lies deep inside arc A = [0, 1], so the next candidate is its
    # upper edge 1.0, and arc B is walked only then. Either B ends a hair
    # below 1.0, within A's slack, and the sweep goes back to B's edge; or B
    # starts a hair below 1.0, too close for the skip, and 1.0 fails B's
    # exact test. Either way the angle is B's upper edge. Turned by 2*pi -
    # 0.95, A's edge lies past 2*pi and B's polar angle just above 0.
    center, anchor, r = Point(0.0, 0.0), 0.5, 0.01
    cases = [(0.9, 0.1 - 1e-13), (1.05, 0.05 + 1e-10)]
    for turn, (theta, sep) in itertools.product([0.0, TWO_PI - 0.95], cases):
        floor = 0.1 + turn
        a = arc_disk(center, anchor, r, 0.5 + turn, 0.5)
        b = arc_disk(center, anchor, r, theta + turn, sep)
        (arc_a, arc_b), _ = reference_constraints(center, anchor, r, [a, b])
        edge_a, edge_b = sweep_arc(floor, *arc_a)[1], sweep_arc(floor, *arc_b)[1]
        assert abs(edge_a - (1.0 + turn)) < 1e-14
        assert abs(edge_b - (theta + sep + turn)) < 1e-14
        reached = {}
        near = index(center, r, [a, b])
        assert checked_query(near, [a, b], anchor, r, floor, reached) == edge_b
        assert reached[edge_b] == edge_a
        assert same_angle(edge_b, full_list_angle(center, anchor, r, [a, b], floor))
        assert same_angle(edge_b, swept(center, anchor, r, [a, b], floor))


def test_kernel_walks_a_disk_as_soon_as_it_is_due():
    # Q is the only narrow disk, its arc for r = r_max as wide as its bound
    # allows less BOUND_MARGIN (the tangent sight line). The floor lies deep
    # inside the arc of P, which is wide: on the anchor circle, a half-width
    # of 1.2 > pi/3 takes a gap r + r_p above dq. P's upper edge lies
    # 0.8 * BOUND_MARGIN below the start of Q's arc: within Q's bound of Q's
    # angle, so Q adds its arc once the sweep reaches P's edge, and not before.
    center, anchor, r, rq = Point(0.0, 0.0), 0.5, 0.01, 0.02
    g = r + rq
    dq = math.hypot(anchor, g)
    q = polar_disk(center, 2.0, dq, rq)
    top_p = 2.0 - math.asin(g / dq) - 0.8 * geometry.BOUND_MARGIN
    p = arc_disk(center, anchor, r, top_p - 1.2, 1.2)
    floor = top_p - 1.2
    near = index(center, r, [p, q])
    entry_p, entry_q = entries_of(center, [p, q])
    assert entry_p[1] <= r + p.radius and entry_q[1] > r + rq
    assert near._wide == [entry_p] and near._narrow == [entry_q]
    assert [entry[2] for entry in near.entries()] == [p.radius, rq]  # P wide, Q narrow
    (arc_p, arc_q), _ = reference_constraints(center, anchor, r, [p, q])
    edge_p, edge_q = sweep_arc(floor, *arc_p)[1], sweep_arc(floor, *arc_q)[1]
    assert abs(edge_p - top_p) < 1e-15
    reached = {}
    assert checked_query(near, [p, q], anchor, r, floor, reached) == edge_p
    assert reached[edge_q] == edge_p
    assert same_angle(edge_p, full_list_angle(center, anchor, r, [p, q], floor))


def test_kernel_matches_oracle_on_packing_traffic(monkeypatch):
    """Every angle choice that real packings make agrees with the oracle over
    the arcs of the full near list. The disks come from the entries the
    packer computed for them. The traffic includes queries that land more
    than pi above their floor, after their ring has wrapped past 2*pi, and
    queries with no free angle (NO_FIT)."""
    free_angle = NearDisks.free_angle
    disk_of = {}
    sizes = []
    paths = Counter()

    def recorded(center, q):
        entry = polar_entry(center, q)
        disk_of[entry] = q
        return entry

    def checked(near, anchor, r, floor):
        got = free_angle(near, anchor, r, floor)
        disks = [disk_of[entry] for entry in near.entries()]
        want = full_list_angle(near.center, anchor, r, disks, floor)
        assert same_angle(got, want)
        sizes.append(len(near))
        paths["no_fit" if got is None else "far" if got - floor > math.pi else "near"] += 1
        return got

    monkeypatch.setattr(engine, "polar_entry", recorded)
    monkeypatch.setattr(NearDisks, "free_angle", checked)
    for seed in range(4):
        ratio = 10.0 ** -(1 + seed % 3)
        pack(gen_random_area(300, math.pi / 2, seed, min_radius_ratio=ratio))
    assert len(sizes) > 1000 and max(sizes) > 50
    assert paths["far"] > 0 and paths["no_fit"] > 0


# ---------------------------------------------------------------------------
# the polar index against the full-list oracle


@given(query=index_queries())
@settings(max_examples=600, derandomize=True, deadline=None)
def test_index_query_matches_full_list_oracle(query):
    center, anchor, r, r_max, disks, floor = query
    near = index(center, r_max, disks)
    assert len(near) == len(disks)
    got = checked_query(near, disks, anchor, r, floor)
    assert same_angle(got, full_list_angle(center, anchor, r, disks, floor))
    # The index does not depend on the order its disks came in.
    assert same_angle(got, index(center, r_max, disks[::-1]).free_angle(anchor, r, floor))


@st.composite
def entry_queries(draw):
    """An index query (see index_queries) with one more disk at an edge of the
    arc formula: at the center (dq = 0); at a subnormal distance, about the
    origin; or with its cosine c just below -1, inside CLAMP_SLACK (its arc
    is the whole circle but the antipode) or outside it (it blocks every
    angle). Also returns the edge."""
    center, anchor, r, r_max, disks, floor = draw(index_queries())
    edge = draw(st.sampled_from(["none", "concentric", "subnormal", "clamped", "blocking"]))
    rq = draw(st.floats(1e-4, 0.5))
    if edge == "concentric":
        disks.append(disk(rq, center.x, center.y))
    elif edge == "subnormal":
        center = Point(0.0, 0.0)
        s = draw(st.floats(5e-324, 1e-308))
        disks.append(disk(rq, *draw(st.sampled_from([(s, 0.0), (0.0, -s), (-s, s)]))))
    elif edge in ("clamped", "blocking"):
        # c = -1 - t when gap^2 = (anchor + dq)^2 + 2 * anchor * dq * t.
        t = draw(st.floats(1e-13, 0.9e-12) if edge == "clamped" else st.floats(1.1e-12, 1e-9))
        q = polar_disk(center, draw(THETAS), draw(st.floats(0.1, 1.0)), 1.0)
        dq = math.hypot(q.center.x - center.x, q.center.y - center.y)
        gap = math.sqrt((anchor + dq) ** 2 + 2.0 * anchor * dq * t)
        disks.append(disk(gap - r, *q.center))
    return center, anchor, r, r_max, disks, floor, edge


@given(query=entry_queries())
@settings(max_examples=600, derandomize=True, deadline=None)
def test_index_entries_give_the_reference_arcs(query):
    """The arcs from an index's cached entries are bit-identical to the
    reference arcs from the disks, disk by disk and for the whole list."""
    center, anchor, r, r_max, disks, floor, edge = query
    near = index(center, r_max, disks)
    disk_of = dict(zip(entries_of(center, disks), disks))
    pairs = [(disk_of[entry], entry) for entry in near.entries()]
    assert len(pairs) == len(disks)
    for q, entry in pairs:
        got = _blocking_constraints(center, anchor, r, [entry])
        assert repr(got) == repr(reference_constraints(center, anchor, r, [q]))
    got = _blocking_constraints(center, anchor, r, near.entries())
    in_order = [q for q, _ in pairs]
    assert repr(got) == repr(reference_constraints(center, anchor, r, in_order))
    # The edge disk takes the branch it was built for.
    entry = entries_of(center, disks[-1:])[0] if edge != "none" else None
    if edge == "concentric":
        assert entry[1] == 0.0
    elif edge == "subnormal":
        assert 0.0 < entry[1] < 2.2250738585072014e-308
    elif edge == "clamped":
        assert _blocking_constraints(center, anchor, r, [entry]) == ([(entry[0], math.pi)], False)
    elif edge == "blocking":
        assert _blocking_constraints(center, anchor, r, [entry]) == ([], True)


def test_index_needs_the_full_circle():
    # Ten disks around the unit container from angle 0 leave free only the
    # stretch below the first one, so the answer lies past every partial
    # window above a floor just past 0.
    placed = []
    for _ in range(10):
        near = index(UNIT.center, 0.2, placed)
        placed.append(place_tangent(UNIT, 0.2, angle_floor=0.0, prev=near))
    floor = polar_entry(UNIT.center, placed[0])[0] + 1e-3
    near = index(UNIT.center, 0.1, placed)
    got = near.free_angle(0.9, 0.1, floor)
    assert got is not None and got - floor > 4.0
    assert same_angle(got, full_list_angle(UNIT.center, 0.9, 0.1, placed, floor))


def test_index_rejects_another_center_or_a_larger_radius():
    near = index(Point(0.0, 0.0), 0.1, [disk(0.1, 0.5, 0.0)])
    with pytest.raises(GeometryDomainError):
        place_tangent(UNIT, 0.2, prev=near)
    ring = RingShape(Point(0.5, 0.0), 0.5, 0.1)
    with pytest.raises(GeometryDomainError):
        place_in_ring(ring, Side.OUTER, 0.1, prev=near)
