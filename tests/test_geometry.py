import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpack import geometry
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
    _smallest_feasible_angle,
    center_penetration,
    inscribed_disk_after_two,
    normalize_angle,
    place_in_ring,
    place_tangent,
    polar_angle,
    unit_container,
)
from diskpack.instances import gen_random_area

from oracle_kernel import smallest_feasible_angle as quadratic_feasible_angle

UNIT = unit_container()


def disk(r, x, y):
    return PlacedDisk(Point(x, y), r)


def dist(p, q):
    return math.hypot(p.x - q.x, p.y - q.y)


# ---------------------------------------------------------------------------
# angular separation: the keep-out half-width from _blocking_constraints


def separation(anchor, dq, gap):
    """Half-width of the arc that a disk at distance dq blocks for a center
    circling at `anchor`, the two disks' radii summing to gap: 0.0 when the
    disk is out of reach, None when it overlaps the circle at every angle."""
    q = disk(gap / 2.0, dq, 0.0)
    cons, blocked = _blocking_constraints(Point(0.0, 0.0), anchor, gap / 2.0, [q])
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
    assert _blocking_constraints(center, 0.15, 0.1, [q]) == ([], True)
    assert _blocking_constraints(center, 0.25, 0.1, [q]) == ([], False)
    near = NearDisks(center, 0.1, [q])
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
    p = place_tangent(UNIT, 0.5)
    assert p is not None
    assert p.center == pytest.approx((0.5, 0.0), abs=1e-15)


def test_place_tangent_antipodal_pair():
    first = place_tangent(UNIT, 0.5)
    second = place_tangent(UNIT, 0.5, prev=[first])
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
        p = place_tangent(UNIT, 0.25, prev=placed)
        if p is None:
            break
        placed.append(p)
    assert len(placed) == 9
    sep = 2 * math.asin(1 / 3)
    last_angle = polar_angle(UNIT.center, placed[-1].center)
    assert 2 * math.pi - last_angle < 2 * sep  # residual cannot host another


def test_place_tangent_oversized():
    with pytest.raises(GeometryDomainError):
        place_tangent(UNIT, 1.5)


def test_place_tangent_minimality_grid():
    """The returned angle is minimal: every grid angle below it overlaps."""
    prev = [disk(0.3, 0.7, 0.0), disk(0.2, 0.8 * math.cos(1.2), 0.8 * math.sin(1.2))]
    r = 0.25
    p = place_tangent(UNIT, r, angle_floor=0.0, prev=prev)
    assert p is not None
    beta = polar_angle(UNIT.center, p.center)
    anchor = 1.0 - r
    a = 0.0
    while a < beta - 1e-4:
        c = Point(anchor * math.cos(a), anchor * math.sin(a))
        assert any(dist(c, q.center) < r + q.radius - 1e-9 for q in prev)
        a += 1e-4
    for q in prev:
        assert dist(p.center, q.center) >= r + q.radius - 1e-9


def test_place_tangent_respects_floor():
    p = place_tangent(UNIT, 0.1, angle_floor=2.0)
    assert polar_angle(UNIT.center, p.center) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# place_in_ring


def test_place_in_ring_spanning_disk_touches_both():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.5)
    p = place_in_ring(ring, Side.OUTER, 0.25)
    assert p.center == pytest.approx((0.75, 0.0), abs=1e-15)
    assert dist(p.center, ring.center) + p.radius == pytest.approx(1.0, abs=1e-12)
    assert dist(p.center, ring.center) - p.radius == pytest.approx(0.5, abs=1e-12)


def test_place_in_ring_inner_anchor():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.5)
    p = place_in_ring(ring, Side.INNER, 0.1)
    assert dist(p.center, ring.center) == pytest.approx(0.6, abs=1e-15)
    assert polar_angle(ring.center, p.center) == pytest.approx(0.0, abs=1e-12)


def test_place_in_ring_next_angle_law_of_cosines():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.8)
    prev = [disk(0.1, 0.9, 0.0)]
    p = place_in_ring(ring, Side.OUTER, 0.1, prev=prev)
    beta = polar_angle(ring.center, p.center)
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
        place_in_ring(ring, Side.OUTER, 0.2)


def test_place_in_ring_crowded_is_no_fit_not_error():
    ring = RingShape(Point(0.0, 0.0), 1.0, 0.5)
    placed = []
    while True:
        p = place_in_ring(ring, Side.OUTER, 0.25, prev=placed)
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
    first = place_tangent(UNIT, 0.5)
    second = place_tangent(UNIT, 0.4, prev=[first])
    c = inscribed_disk_after_two(UNIT, first, second)
    assert dist(c.center, UNIT.center) + c.radius == pytest.approx(1.0, abs=1e-9)
    for d in (first, second):
        assert dist(c.center, d.center) == pytest.approx(
            c.radius + d.radius, abs=1e-9
        )


# ---------------------------------------------------------------------------
# center_penetration


def test_center_penetration_examples():
    assert center_penetration(UNIT, [disk(0.6, 0.4, 0.0)]) == pytest.approx(0.2, abs=1e-15)
    assert center_penetration(UNIT, [disk(0.4, 0.6, 0.0)]) == 0.0
    got = center_penetration(
        UNIT, [disk(0.55, 0.45, 0.0), disk(0.52, -0.48, 0.0)]
    )
    assert got == pytest.approx(0.04, abs=1e-12)


# ---------------------------------------------------------------------------
# placement invariants on random instances


@given(st.lists(st.floats(0.05, 0.3), min_size=1, max_size=8), st.floats(0.0, 1.0))
@settings(max_examples=100, derandomize=True)
def test_placement_invariants(radii, floor):
    placed = []
    for r in sorted(radii, reverse=True):
        p = place_tangent(UNIT, r, angle_floor=floor, prev=placed)
        if p is None:
            continue
        anchor = 1.0 - r
        assert abs(dist(p.center, UNIT.center) - anchor) <= 1e-12
        for q in placed:
            assert dist(p.center, q.center) >= p.radius + q.radius - 1e-9
        placed.append(p)


# ---------------------------------------------------------------------------
# the sorted-sweep kernel against the quadratic oracle


def same_angle(a, b):
    """Bit-identical results: equal floats of equal sign, or both None."""
    return repr(a) == repr(b)


THETAS = st.one_of(
    st.floats(0.0, TWO_PI),
    st.sampled_from([0.0, -0.0, math.pi, TWO_PI]),
    st.floats(0.0, 1e-9),
    st.floats(TWO_PI - 1e-9, TWO_PI),
)
SEPS = st.one_of(
    st.floats(0.0, math.pi),
    st.floats(0.0, 1e-9),
    st.floats(math.pi - 1e-9, math.pi),
    st.sampled_from([0.0, 1e-12, math.pi / 2, math.pi]),
)
FLOORS = st.one_of(
    st.floats(0.0, TWO_PI),
    st.floats(0.0, 1e-9),
    st.floats(TWO_PI - 1e-9, TWO_PI),
    st.sampled_from([0.0, -0.0, math.pi, TWO_PI]),
)


@st.composite
def constraint_sets(draw):
    """Random arcs; duplicated arcs and duplicate thetas; and chains of arcs
    whose edges touch exactly, which may cover the whole circle."""
    kind = draw(st.sampled_from(["random", "duplicates", "chain"]))
    n = draw(st.integers(0, 24))
    if kind == "random":
        return [(draw(THETAS), draw(SEPS)) for _ in range(n)]
    if kind == "duplicates":
        thetas = draw(st.lists(THETAS, min_size=1, max_size=3))
        seps = draw(st.lists(SEPS, min_size=1, max_size=3))
        return [
            (draw(st.sampled_from(thetas)), draw(st.sampled_from(seps)))
            for _ in range(n)
        ]
    theta = draw(THETAS)
    sep = draw(st.floats(1e-3, 1.0))
    cons = [(theta, sep)]
    for _ in range(n):
        nxt = draw(st.floats(1e-3, 1.0))
        theta = math.fmod(theta + sep + nxt, TWO_PI)
        sep = nxt
        cons.append((theta, sep))
    return cons


@given(floor=FLOORS, cons=constraint_sets(), part=st.floats(0.0, 1.0))
@settings(max_examples=800, derandomize=True)
def test_kernel_sweep_matches_quadratic_oracle(floor, cons, part):
    got = _smallest_feasible_angle(floor, cons, floor + TWO_PI)
    assert same_angle(got, quadratic_feasible_angle(floor, cons))
    # The answer does not depend on the order of the constraints.
    assert same_angle(got, _smallest_feasible_angle(floor, cons[::-1], floor + TWO_PI))
    # A lower top keeps the answer when it lies below top, and finds none else.
    top = floor + part * TWO_PI
    want = got if got is not None and got < top else None
    assert same_angle(_smallest_feasible_angle(floor, cons, top), want)


def test_kernel_tangent_edges_and_blocked_circle():
    # Edges touching exactly: the upper edge of one arc is the lower edge of
    # the next, so the first arc's edge is blocked only by the slack.
    cons = [(1.0, 0.5), (2.0, 0.5)]
    got = _smallest_feasible_angle(0.5, cons, 0.5 + TWO_PI)
    assert same_angle(got, quadratic_feasible_angle(0.5, cons))
    # Four overlapping arcs cover the circle: no angle is feasible.
    full = [(k * math.pi / 2, 0.8) for k in range(4)]
    assert _smallest_feasible_angle(0.3, full, 0.3 + TWO_PI) is None
    assert quadratic_feasible_angle(0.3, full) is None
    # A half-width of pi leaves only the antipode.
    assert _smallest_feasible_angle(0.0, [(1.0, math.pi)], TWO_PI) == 1.0 + math.pi


def full_list_angle(center, anchor, r, disks, floor):
    """The quadratic oracle over the arcs of every disk: the kernel's angle
    without an index or a window."""
    cons, blocked = _blocking_constraints(center, anchor, r, list(disks))
    return None if blocked else quadratic_feasible_angle(floor, cons)


def test_kernel_matches_oracle_on_packing_traffic(monkeypatch):
    """Every angle choice that real packings make agrees with the oracle over
    the arcs of the full near list."""
    free_angle = NearDisks.free_angle
    sizes = []

    def checked(near, anchor, r, floor):
        got = free_angle(near, anchor, r, floor)
        want = full_list_angle(near.center, anchor, r, near, floor)
        assert same_angle(got, want)
        sizes.append(len(near))
        return got

    monkeypatch.setattr(NearDisks, "free_angle", checked)
    for seed in range(4):
        ratio = 10.0 ** -(1 + seed % 3)
        pack(gen_random_area(300, math.pi / 2, seed, min_radius_ratio=ratio))
    assert len(sizes) > 1000 and max(sizes) > 50


# ---------------------------------------------------------------------------
# the polar index against the full-list oracle


def polar_disk(center, theta, dq, radius):
    return disk(radius, center.x + dq * math.cos(theta), center.y + dq * math.sin(theta))


def nudge(x, steps):
    """x moved by `steps` units in the last place."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


@st.composite
def index_queries(draw):
    """(center, anchor, r, r_max, disks, floor) for one kernel query.

    Kinds: random disks; disks whose keep-out arc is at its widest (the
    anchor circle's tangent sight line), with the floor or the first window's
    top a few ulps off the arc's bounded edge; wide disks, and disks that
    block every angle; chains of exactly touching disks placed along the
    anchor circle by the oracle, which can fill the circle (NO_FIT) or leave
    the only gap just below the floor (the full window)."""
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
    kind = draw(st.sampled_from(["random", "tangent", "wide", "chain"]))
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
                floor = theta - edge - geometry.START_SPAN  # just above the top
            floor = normalize_angle(nudge(floor, draw(st.integers(-4, 4))))
    elif kind == "wide":
        for _ in range(draw(st.integers(1, 4))):
            rq = draw(st.floats(0.05, 0.6))
            dq = draw(st.one_of(st.just(0.0), st.floats(1e-6, 2.0 * (r_max + rq))))
            disks.append(polar_disk(center, draw(THETAS), dq, rq))
    elif kind == "chain":
        rq = draw(st.floats(0.02, 0.5)) * anchor
        start = theta = draw(FLOORS)
        for _ in range(draw(st.integers(1, 40))):
            beta = full_list_angle(center, anchor, rq, disks, theta)
            if beta is None:
                break
            disks.append(polar_disk(center, beta, anchor, rq))
            theta = normalize_angle(beta)
        r = min(r, rq)
        r_max = max(r_max, r)
        floor = draw(st.sampled_from([floor, start, theta]))
    return center, anchor, r, r_max, disks, floor


@given(query=index_queries())
@settings(max_examples=600, derandomize=True, deadline=None)
def test_index_query_matches_full_list_oracle(query):
    center, anchor, r, r_max, disks, floor = query
    near = NearDisks(center, r_max, disks)
    assert len(near) == len(disks)
    got = near.free_angle(anchor, r, floor)
    assert same_angle(got, full_list_angle(center, anchor, r, disks, floor))
    # The index does not depend on the order its disks came in.
    assert same_angle(got, NearDisks(center, r_max, disks[::-1]).free_angle(anchor, r, floor))

    # Each window leaves out only disks whose keep-out arc, as the kernel
    # computes it, lies wholly above the window's top: no candidate below top
    # and no exact test of a point in the window can depend on them.
    left = list(disks)
    tops = []
    for top, batch in near._windows(floor):
        tops.append(top)
        for q in batch:
            left.remove(q)
        cons, blocked = _blocking_constraints(center, anchor, r, left)
        assert not blocked
        for theta, sep in cons:
            edge = theta + sep + TWO_PI * math.ceil((floor - theta - sep) / TWO_PI)
            if edge < floor:
                edge += TWO_PI
            assert edge - 2.0 * sep >= top
    assert not left and tops[-1] == floor + TWO_PI


def test_index_needs_the_full_circle():
    # Ten disks around the unit container from angle 0 leave free only the
    # stretch below the first one, so the answer lies past every partial
    # window above a floor just past 0.
    placed = []
    for _ in range(10):
        placed.append(place_tangent(UNIT, 0.2, angle_floor=0.0, prev=placed))
    floor = polar_angle(UNIT.center, placed[0].center) + 1e-3
    near = NearDisks(UNIT.center, 0.1, placed)
    got = near.free_angle(0.9, 0.1, floor)
    assert got is not None and got - floor > 4.0
    assert same_angle(got, full_list_angle(UNIT.center, 0.9, 0.1, placed, floor))


def test_index_rejects_another_center_or_a_larger_radius():
    near = NearDisks(Point(0.0, 0.0), 0.1, [disk(0.1, 0.5, 0.0)])
    with pytest.raises(GeometryDomainError):
        place_tangent(UNIT, 0.2, prev=near)
    ring = RingShape(Point(0.5, 0.0), 0.5, 0.1)
    with pytest.raises(GeometryDomainError):
        place_in_ring(ring, Side.OUTER, 0.1, prev=near)
