import math

import pytest

from diskpack.instances import (
    POCKET3_RADIUS,
    ThresholdEdge,
    gen_near_threshold,
    gen_pocket3,
    gen_random_area,
    gen_worst_case,
)


def _area(inst):
    return math.pi * sum(r * r for r in inst.radii)


def test_worst_case():
    inst = gen_worst_case()
    assert inst.radii == (0.5, 0.5)
    assert _area(inst) == pytest.approx(math.pi / 2, abs=1e-15)


def test_worst_case_inflated():
    inst = gen_worst_case(1e-3)
    assert inst.radii == (0.5005, 0.5005)
    assert _area(inst) > math.pi / 2


def test_random_area_rescale_exact():
    inst = gen_random_area(100, math.pi / 2, seed=7)
    assert _area(inst) == pytest.approx(math.pi / 2, abs=1e-12)
    assert all(r > 0 for r in inst.radii)


def test_random_area_single():
    inst = gen_random_area(1, math.pi / 2, seed=0)
    assert inst.radii[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_random_area_deterministic():
    a = gen_random_area(50, 1.0, seed=123, min_radius_ratio=1e-2)
    b = gen_random_area(50, 1.0, seed=123, min_radius_ratio=1e-2)
    assert a.radii == b.radii
    c = gen_random_area(50, 1.0, seed=124, min_radius_ratio=1e-2)
    assert a.radii != c.radii


def test_random_area_bad_params():
    with pytest.raises(ValueError):
        gen_random_area(0, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_random_area(5, -1.0, seed=0)
    with pytest.raises(ValueError):
        gen_random_area(5, 1.0, seed=0, min_radius_ratio=0.0)
    with pytest.raises(ValueError):
        gen_random_area(5, 1.0, seed=0, min_radius_ratio=2.0)


def test_pocket3_radius_value():
    inst = gen_pocket3()
    assert len(inst.radii) == 3
    expected = math.sqrt(3) / (2 + math.sqrt(3))
    for r in inst.radii:
        assert r == pytest.approx(expected, abs=1e-12)
        assert r == pytest.approx(0.4641016151377546, abs=1e-12)


def test_pocket3_mutual_tangency_identity():
    """Placed at mutual angular separation 2*pi/3 with center distance 1-r,
    the three disks are pairwise tangent: (1-r)*sqrt(3) = 2r."""
    r = POCKET3_RADIUS
    centers = [
        ((1 - r) * math.cos(2 * math.pi * k / 3), (1 - r) * math.sin(2 * math.pi * k / 3))
        for k in range(3)
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            d = math.dist(centers[i], centers[j])
            assert abs(d - 2 * r) <= 1e-12


def test_pocket3_exceeds_guarantee_budget():
    inst = gen_pocket3()
    assert _area(inst) > math.pi / 2  # completeness not promised here


@pytest.mark.parametrize("edge", list(ThresholdEdge))
def test_near_threshold_area_capped(edge):
    inst = gen_near_threshold(edge)
    assert _area(inst) <= math.pi / 2 + 1e-12


def test_near_threshold_families_shape():
    rec = gen_near_threshold(ThresholdEdge.RECURSION_EDGE)
    assert rec.radii[0] == 0.4951 and rec.radii[1] == 0.4950
    q = gen_near_threshold(ThresholdEdge.QUARTER_EDGE)
    assert q.radii[:3] == (0.2501, 0.2499, 0.2499)
    p = gen_near_threshold(ThresholdEdge.PASS_EDGE)
    # pair straddling the pass condition of the width-0.4 ring: 2r+2r' = 0.4 +- 1e-9
    assert 2 * p.radii[2] + 2 * p.radii[3] == pytest.approx(0.4, abs=2e-9)
