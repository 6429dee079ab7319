import math
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
    _smallest_feasible_angle,
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


def swept(floor, cons):
    """The sweep over cons with nothing left to pull."""
    return _smallest_feasible_angle(floor, cons, lambda w: ([], math.inf))


def arc_start(floor, theta, sep):
    """Where the sweep's arc of (theta, sep) starts: its upper edge, shifted
    into [floor, floor + 2*pi) as the sweep shifts it, less 2 * sep."""
    base = theta + sep
    edge = base + TWO_PI * math.ceil((floor - base) / TWO_PI)
    if edge < floor:
        edge += TWO_PI
    return edge - 2.0 * sep


def fed_by_pull(floor, cons):
    """The sweep over cons fed the way the index feeds it: first the
    constraints whose arc, as the sweep computes it, starts less than
    2 * BOUND_MARGIN above the floor, then the others in order of their
    start, each one pulled once a candidate comes within 2 * BOUND_MARGIN of
    it. Checks that pull is called only when the next candidate lies past the
    limit it returned last."""
    first, later = [], []
    for theta, sep in cons:
        gap = arc_start(floor, theta, sep) - floor - 2.0 * geometry.BOUND_MARGIN
        (first if gap <= 0.0 else later).append((gap, (theta, sep)))
    later.sort(reverse=True)
    limits = [-math.inf]

    def pull(w):
        assert w > limits[-1]
        more = []
        while later and later[-1][0] <= w:
            more.append(later.pop()[1])
        limits.append(later[-1][0] if later else math.inf)
        return more, limits[-1]

    return _smallest_feasible_angle(floor, [c for _, c in first], pull)


@given(floor=FLOORS, cons=constraint_sets())
@settings(max_examples=800, derandomize=True)
def test_kernel_sweep_matches_quadratic_oracle(floor, cons):
    got = swept(floor, cons)
    assert same_angle(got, quadratic_feasible_angle(floor, cons))
    # The answer does not depend on the order of the constraints.
    assert same_angle(got, swept(floor, cons[::-1]))
    # Nor on holding constraints back until the sweep comes near their arcs.
    assert same_angle(got, fed_by_pull(floor, cons))


def test_kernel_tangent_edges_and_blocked_circle():
    # Edges touching exactly: the upper edge of one arc is the lower edge of
    # the next, so the first arc's edge is blocked only by the slack.
    cons = [(1.0, 0.5), (2.0, 0.5)]
    got = swept(0.5, cons)
    assert same_angle(got, quadratic_feasible_angle(0.5, cons))
    assert same_angle(got, fed_by_pull(0.5, cons))
    # Four overlapping arcs cover the circle: no angle is feasible.
    full = [(k * math.pi / 2, 0.8) for k in range(4)]
    assert swept(0.3, full) is None
    assert fed_by_pull(0.3, full) is None
    assert quadratic_feasible_angle(0.3, full) is None
    # A half-width of pi leaves only the antipode.
    assert swept(0.0, [(1.0, math.pi)]) == 1.0 + math.pi


def test_kernel_arcs_pulled_next_to_the_candidate():
    # The floor lies deep inside arc A = [0, 1], so the next candidate is its
    # upper edge 1.0, and arc B is pulled only then. Either B ends a hair
    # below 1.0, within A's slack, and the sweep goes back to B's edge; or B
    # starts a hair below 1.0, too close for the skip, and 1.0 fails B's
    # exact test.
    a = (0.5, 0.5)
    cases = [((0.9, 0.1 - 1e-13), 0.9 + (0.1 - 1e-13)), ((1.05, 0.05 + 1e-10), 1.1000000001)]
    for b, want in cases:
        assert quadratic_feasible_angle(0.1, [a, b]) == want
        assert fed_by_pull(0.1, [a, b]) == want
        assert swept(0.1, [a, b]) == want


def full_list_angle(center, anchor, r, disks, floor):
    """The quadratic oracle over the reference arcs of every disk: the
    kernel's angle without an index."""
    cons, blocked = reference_constraints(center, anchor, r, list(disks))
    return None if blocked else quadratic_feasible_angle(floor, cons)


def test_kernel_matches_oracle_on_packing_traffic(monkeypatch):
    """Every angle choice that real packings make agrees with the oracle over
    the arcs of the full near list. The disks come from the entries the
    packer computed for them."""
    free_angle = NearDisks.free_angle
    disk_of = {}
    sizes = []

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
        return got

    monkeypatch.setattr(engine, "polar_entry", recorded)
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
    anchor circle's tangent sight line), with the floor a few ulps off the
    arc's bounded edge, below or above it; wide disks, and disks that
    block every angle; chains of exactly touching disks placed along the
    anchor circle by the oracle, which can fill the circle (NO_FIT) or leave
    the only gap just below the floor (the full circle)."""
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
                floor = theta - edge - geometry.BOUND_MARGIN  # just above the floor
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


def checked_query(near, disks, anchor, r, floor):
    """near.free_angle(anchor, r, floor) for the index of disks, checking the
    pull rule: after each pull, every disk not yet given to
    `_blocking_constraints` has its keep-out arc, as the kernel computes it,
    starting above floor + limit, so no candidate the sweep examines before
    the next pull and no exact test can depend on it."""
    left = list(disks)
    disk_of = dict(zip(entries_of(near.center, disks), disks))
    sweep = geometry._smallest_feasible_angle

    def recorded(*args):
        for entry in args[3]:
            left.remove(disk_of[entry])
        return _blocking_constraints(*args)

    def checked_sweep(angle_floor, cons, pull):
        def checked_pull(w):
            more, limit = pull(w)
            assert limit > w
            rest, blocked = reference_constraints(near.center, anchor, r, left)
            assert not blocked
            for theta, sep in rest:
                assert arc_start(floor, theta, sep) - floor > limit
            return more, limit

        return sweep(angle_floor, cons, checked_pull)

    with mock.patch.object(geometry, "_blocking_constraints", recorded), \
            mock.patch.object(geometry, "_smallest_feasible_angle", checked_sweep):
        return near.free_angle(anchor, r, floor)


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
