import math

import pytest

from diskpack import engine
from diskpack.engine import (
    InstanceError,
    InstanceSpec,
    PackingState,
    _open_ring,
    boundary_packing,
    pack,
    ring_packing,
)
from diskpack.geometry import Point, RingShape, polar_entry, unit_container
from diskpack.instances import gen_near_threshold, gen_random_area, ThresholdEdge
from diskpack.verifier import verify


def fresh_state(pending):
    return PackingState(
        container=unit_container(),
        r_min=1.0,
        pending=list(pending),
    )


# ---------------------------------------------------------------------------
# InstanceSpec


def test_instance_rejects_bad_radii():
    with pytest.raises(InstanceError):
        InstanceSpec.of([0.5, -0.1])
    with pytest.raises(InstanceError):
        InstanceSpec.of([0.5, 0.0])
    with pytest.raises(InstanceError):
        InstanceSpec.of([1e-10])  # below resolution


# ---------------------------------------------------------------------------
# boundary packing subroutine


def test_boundary_packing_two_halves():
    st = fresh_state([0.5, 0.5])
    n = boundary_packing(st, 0.25)
    assert n == 2
    (a, b) = st.placed
    assert (a.center.x, a.center.y) == pytest.approx((0.5, 0.0), abs=1e-12)
    assert (b.center.x, b.center.y) == pytest.approx((-0.5, 0.0), abs=1e-12)


def test_boundary_packing_threshold_stop():
    st = fresh_state([0.3, 0.2])
    n = boundary_packing(st, 0.25)
    assert n == 1
    assert st.pending == [0.2]


def test_boundary_packing_seven_quarters():
    # Angular accounting oracle: consecutive r=1/4 disks need 2*asin(1/3) of
    # polar angle; floor(2*pi / 0.67967) = 9, so all seven fit easily.
    st = fresh_state([0.25] * 7)
    assert boundary_packing(st, 0.25) == 7
    st = fresh_state([0.25] * 12)
    assert boundary_packing(st, 0.25) == 9
    assert st.pending == [0.25] * 3


# ---------------------------------------------------------------------------
# ring packing subroutine


def test_ring_packing_single_file_until_full():
    st = fresh_state([0.25] * 12)
    closed = ring_packing(st, RingShape(Point(0, 0), 1.0, 0.5))
    assert not closed and st.trace[-1]["state"] == "full"
    n = 12 - len(st.pending)
    assert n == 9  # same angular budget as boundary packing at anchor 0.75
    for disk in st.placed[-n:]:
        d = math.hypot(disk.center.x, disk.center.y)
        assert d == pytest.approx(0.75, abs=1e-12)


def test_ring_packing_pass_condition_closes():
    st = fresh_state([0.2, 0.1, 0.1])
    closed = ring_packing(st, RingShape(Point(0, 0), 1.0, 0.5))
    # after 0.2 and 0.1: 2*0.1 + 2*0.1 = 0.4 < 0.5 -> CLOSED with 0.1 pending
    assert closed and st.trace[-1]["state"] == "closed"
    assert st.pending == [0.1]


def test_ring_packing_alternates_sides():
    st = fresh_state([0.2, 0.18, 0.18, 0.18])
    ring_packing(st, RingShape(Point(0, 0), 1.0, 0.6))
    n = 4 - len(st.pending)
    dists = [math.hypot(q.center.x, q.center.y) for q in st.placed[-n:]]
    assert dists[0] == pytest.approx(0.8, abs=1e-12)  # outer anchor for 0.2
    assert dists[1] == pytest.approx(0.78, abs=1e-12)  # inner anchor for 0.18
    assert dists[2] == pytest.approx(0.82, abs=1e-12)  # outer again


def test_open_ring_formula_and_guard():
    st = fresh_state([])

    def new_ring(r_i):
        # As Phase 3 opens a ring: R[r_min, r_min - 2*r_i] about the container.
        return _open_ring(st, st.r_min, st.r_min - 2.0 * r_i)

    ring = new_ring(0.2)
    assert (ring.r_out, ring.r_in) == (1.0, 0.6)
    assert st.r_min == 0.6
    ring2 = new_ring(0.05)
    assert (ring2.r_out, ring2.r_in) == (0.6, 0.5)
    st.r_min = 0.1
    n_events = len(st.trace)
    assert new_ring(0.06) is None  # 0.1 - 0.12 < 0 -> guard
    assert st.r_min == 0.1 and len(st.trace) == n_events


# ---------------------------------------------------------------------------
# pack end to end


def test_pack_worst_case():
    res = pack(InstanceSpec.of([0.5, 0.5]))
    assert res.complete
    assert len(res.placements) == 2
    (r1, c1), (r2, c2) = res.placements
    assert math.dist(c1, c2) == pytest.approx(1.0, abs=1e-12)


def test_pack_single_small_disk():
    res = pack(InstanceSpec.of([0.1]))
    assert res.complete
    assert res.placements[0][1] == pytest.approx((0.9, 0.0), abs=1e-12)


def test_pack_overfull_is_best_effort():
    res = pack(InstanceSpec.of([0.5005, 0.5005]))
    assert not res.complete
    assert len(res.placements) == 1
    assert res.unplaced == (0.5005,)
    report = verify(res.placements, [0.5005, 0.5005], epsilon=1e-7)
    assert report.valid  # even incomplete packings must verify


@pytest.mark.parametrize(
    "radii,placed,unplaced",
    [([1.5, 0.1], 1, (1.5,)), ([0.6, 0.6, 0.1, 0.05], 3, (0.6,))],
)
def test_pack_skips_a_disk_that_fits_nowhere(radii, placed, unplaced):
    # A disk that fits nowhere is given up alone; the smaller ones still go in.
    res = pack(InstanceSpec.of(radii))
    assert not res.complete
    assert len(res.placements) == placed
    assert res.unplaced == unplaced
    assert verify(res.placements, radii, epsilon=1e-7).valid


def test_ring_placement_sees_only_its_neighbours(monkeypatch):
    """Placing against the per-ring neighbour list gives the same packing as
    placing against every disk placed so far."""
    insts = [
        gen_random_area(250, math.pi / 2, seed, min_radius_ratio=10.0 ** -(1 + seed % 3))
        for seed in range(4, 10)
    ]
    prev_sizes = []
    place = engine.place_in_ring

    def counted(*args, prev, **kwargs):
        prev_sizes.append(len(prev))
        return place(*args, prev=prev, **kwargs)

    monkeypatch.setattr(engine, "place_in_ring", counted)
    near = [pack(inst) for inst in insts]
    near_sizes, prev_sizes = prev_sizes, []

    monkeypatch.setattr(engine, "RING_BAND_SLACK", math.inf)  # every disk is near
    full = [pack(inst) for inst in insts]
    assert near == full
    assert len(near_sizes) == len(prev_sizes)
    assert sum(near_sizes) < 0.8 * sum(prev_sizes)


def test_polar_entries_follow_the_container(monkeypatch):
    """Every Phase-2 and ring call sees one entry per placed disk, about the
    container's current center, and every ring is about that center."""
    calls = []

    def check(state):
        center = state.container.center
        assert state.polar == [polar_entry(center, q) for q in state.placed]

    def checked(name):
        run = getattr(engine, name)

        def wrapped(state, *args):
            check(state)
            if name == "ring_packing":
                assert args[0].center == state.container.center
            out = run(state, *args)
            check(state)
            calls.append(name)
            return out

        monkeypatch.setattr(engine, name, wrapped)

    checked("boundary_packing")
    checked("ring_packing")
    insts = [
        InstanceSpec.of([0.495, 0.495, 0.06, 0.05, 0.04, 0.03]),
        gen_near_threshold(ThresholdEdge.RECURSION_EDGE),
        gen_random_area(200, math.pi / 2, 7, min_radius_ratio=1e-2),
    ]
    results = [pack(inst) for inst in insts]
    assert all(res.complete for res in results)
    for res in results[:2]:  # both re-key the entries at a Phase-1 recursion
        assert "recursion" in [e["event"] for e in res.phase_trace]
    assert {"boundary_packing", "ring_packing"} <= set(calls)


def test_pack_recursion_then_rest():
    # Two near-half disks trigger the recursion; the rest must fit in the
    # inscribed container (area budget: pi/2 - 2*pi*0.495^2 = 0.00995*pi).
    radii = [0.495, 0.495, 0.06, 0.05, 0.04, 0.03]
    assert math.pi * sum(r * r for r in radii) <= math.pi / 2
    res = pack(InstanceSpec.of(radii))
    assert res.complete
    assert verify(res.placements, radii, epsilon=1e-7).valid
    events = [e["event"] for e in res.phase_trace]
    assert "recursion" in events


def test_pack_deterministic():
    inst = gen_random_area(60, math.pi / 2, seed=5, min_radius_ratio=0.01)
    a = pack(inst)
    b = pack(inst)
    assert a == b


def test_pack_guarantee_random_sample():
    for seed in range(25):
        n = 1 + (seed * 37) % 220
        inst = gen_random_area(n, math.pi / 2, seed, min_radius_ratio=10 ** (-1 - seed % 3))
        res = pack(inst)
        assert res.complete, f"seed {seed} left {len(res.unplaced)} unplaced"
        assert verify(res.placements, inst.radii, epsilon=1e-7).valid


@pytest.mark.parametrize("edge", list(ThresholdEdge))
def test_pack_near_threshold_families(edge):
    inst = gen_near_threshold(edge)
    assert math.pi * sum(r * r for r in inst.radii) <= math.pi / 2 + 1e-12
    res = pack(inst)
    assert res.complete
    assert verify(res.placements, inst.radii, epsilon=1e-7).valid


def test_pack_monotone_consumption():
    inst = gen_random_area(80, math.pi / 2, seed=11, min_radius_ratio=1e-3)
    res = pack(inst)
    radii = [r for r, _ in res.placements]
    assert radii == sorted(radii, reverse=True)


def test_pack_ring_nesting_invariant():
    inst = gen_random_area(150, math.pi / 2, seed=3, min_radius_ratio=1e-3)
    res = pack(inst)
    rings = [
        (e["r_out"], e["r_in"])
        for e in res.phase_trace
        if e["event"] == "ring_created"
    ]
    eps = 1e-12
    for i, (o1, i1) in enumerate(rings):
        for o2, i2 in rings[i + 1 :]:
            disjoint = o2 <= i1 + eps or o1 <= i2 + eps
            nested = (i2 >= i1 - eps and o2 <= o1 + eps) or (
                i1 >= i2 - eps and o1 <= o2 + eps
            )
            assert disjoint or nested, ((o1, i1), (o2, i2))


def test_pack_trace_central_container_shrinks():
    inst = gen_random_area(120, math.pi / 2, seed=8, min_radius_ratio=1e-3)
    res = pack(inst)
    radii = [
        e["radius"] for e in res.phase_trace if e["event"] == "central_container"
    ]
    assert radii == sorted(radii, reverse=True)
