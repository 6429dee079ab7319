import math

import pytest

from diskpack.files import dumps_report
from diskpack.verifier import ViolationKind, verify


def test_worst_case_packing_valid():
    placements = [(0.5, (0.5, 0.0)), (0.5, (-0.5, 0.0))]
    report = verify(placements, [0.5, 0.5], epsilon=1e-9)
    assert report.valid
    assert report.density == pytest.approx(0.5, abs=1e-15)
    assert report.violations == ()


def test_containment_violation_magnitude():
    report = verify([(0.6, (0.5, 0.0))], [0.6])
    assert not report.valid
    (v,) = report.violations
    assert v.kind is ViolationKind.CONTAINMENT
    assert v.indices == (0,)
    assert v.magnitude == pytest.approx(0.1, abs=1e-12)


def test_overlap_violation_magnitude():
    report = verify([(0.3, (-0.25, 0.0)), (0.3, (0.25, 0.0))], [0.3, 0.3])
    assert not report.valid
    (v,) = report.violations
    assert v.kind is ViolationKind.OVERLAP
    assert v.indices == (0, 1)
    assert v.magnitude == pytest.approx(0.1, abs=1e-12)


def test_all_violations_reported_sorted():
    placements = [
        (0.6, (0.5, 0.0)),   # containment
        (0.6, (-0.5, 0.0)),  # containment + overlap with 0
        (0.2, (0.0, 0.75)),  # containment (reach 0.95 fine) -> actually valid
    ]
    report = verify(placements, [0.6, 0.6, 0.2])
    kinds = [v.kind for v in report.violations]
    assert kinds == sorted(kinds, key=lambda k: k.value)
    idx = [v.indices for v in report.violations if v.kind is ViolationKind.OVERLAP]
    assert idx == sorted(idx)
    assert len(report.violations) >= 3


def test_radius_mismatch_detected():
    report = verify([(0.25, (0.5, 0.0))], [0.3])
    assert not report.valid
    (v,) = report.violations
    assert v.kind is ViolationKind.RADIUS_MISMATCH


def test_multiset_matching_allows_duplicates():
    placements = [(0.2, (0.8, 0.0)), (0.2, (-0.8, 0.0))]
    assert verify(placements, [0.2, 0.2, 0.2]).valid  # subset of the instance
    assert not verify(placements + [(0.2, (0.0, 0.8))], [0.2, 0.2]).valid


def test_epsilon_tolerance():
    # 1e-8 past tangency: invalid at 1e-9, valid at default 1e-7
    placements = [(0.3, (0.0, 0.0)), (0.3, (0.6 - 1e-8, 0.0))]
    assert not verify(placements, [0.3, 0.3], epsilon=1e-9).valid
    assert verify(placements, [0.3, 0.3], epsilon=1e-7).valid


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        verify([], [], epsilon=0.0)


def test_empty_packing():
    report = verify([], [])
    assert report.valid
    assert report.density == 0.0


def test_density_sums_squares():
    placements = [(0.1, (0.0, 0.0)), (0.2, (0.5, 0.0))]
    report = verify(placements, [0.1, 0.2])
    assert report.density == pytest.approx(0.01 + 0.04, abs=1e-15)


def test_brute_force_grid_agreement():
    # Pairwise checks are a plain O(n^2) pass; spot-check against scalar math.
    import random

    rng = random.Random(4)
    placements = []
    for _ in range(60):
        r = rng.uniform(0.01, 0.05)
        a = rng.uniform(0, 2 * math.pi)
        d = rng.uniform(0, 1 - r)
        placements.append((r, (d * math.cos(a), d * math.sin(a))))
    report = verify(placements, [p[0] for p in placements])
    scalar_overlaps = set()
    for i in range(len(placements)):
        for j in range(i + 1, len(placements)):
            ri, (xi, yi) = placements[i]
            rj, (xj, yj) = placements[j]
            if math.hypot(xi - xj, yi - yj) < ri + rj - report.epsilon:
                scalar_overlaps.add((i, j))
    got = {
        v.indices
        for v in report.violations
        if v.kind is ViolationKind.OVERLAP
    }
    assert got == scalar_overlaps


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [0, 1, 2])
def test_non_finite_values_are_violations(bad, field):
    # NaN compares false everywhere, and inf would give an infinite magnitude:
    # such a disk is reported on its own and left out of the other checks.
    disk = [0.3, 0.0, 0.0]
    disk[field] = bad
    placements = [(0.5, (0.5, 0.0)), (disk[0], (disk[1], disk[2])), (0.2, (-0.5, 0.0))]
    report = verify(placements, [0.5, 0.3, 0.2])
    assert not report.valid
    assert [(v.kind, v.indices, v.magnitude) for v in report.violations] == [
        (ViolationKind.NON_FINITE, (1,), 0.0)
    ]
    assert report.density == 0.5 * 0.5 + 0.2 * 0.2
    assert '"kind": "non_finite", "indices": [1], "magnitude": 0}' in dumps_report(report)


def test_finite_disks_keep_their_indices_around_a_non_finite_one():
    placements = [
        (0.6, (0.5, 0.0)),  # containment
        (0.1, (math.nan, math.nan)),
        (0.6, (-0.5, 0.0)),  # containment + overlap with 0
        (0.3, (0.0, 0.5)),  # radius mismatch
    ]
    report = verify(placements, [0.6, 0.6, 0.1, 0.2])
    assert [(v.kind.value, v.indices) for v in report.violations] == [
        ("containment", (0,)),
        ("containment", (2,)),
        ("non_finite", (1,)),
        ("overlap", (0, 2)),
        ("overlap", (0, 3)),
        ("overlap", (2, 3)),
        ("radius_mismatch", (3,)),
    ]


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_epsilon_must_be_finite(eps):
    with pytest.raises(ValueError):
        verify([(0.5, (0.0, 0.0))], epsilon=eps)
