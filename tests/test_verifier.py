import collections
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpack import verifier
from diskpack.files import dumps_report
from diskpack.verifier import ViolationKind, verify

import oracle_verifier


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
    # 0.2 placed 3 times, held twice: the earliest two placements match, and
    # the third by index is the mismatch, wherever it sorts.
    three = [(0.2, (0.0, 0.8)), (0.1, (0.0, 0.0)), *placements]
    report = verify(three, [0.2, 0.1, 0.2])
    assert [(v.kind, v.indices, v.magnitude) for v in report.violations] == [
        (ViolationKind.RADIUS_MISMATCH, (3,), 0.2)
    ]
    assert report_tuple(report) == report_tuple(oracle_verifier.verify(three, [0.2, 0.1, 0.2]))


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
    # Spot-check the pair pass against every pair in scalar math.
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


# ---------------------------------------------------------------------------
# the sweep against oracles


def report_tuple(report):
    """Every field of a report, magnitudes and density as exact floats."""
    return (
        report.valid,
        [(v.kind, v.indices, v.magnitude.hex()) for v in report.violations],
        report.density.hex(),
        report.epsilon,
    )


def nudge(x, steps):
    """x moved by `steps` units in the last place."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


RADII = st.one_of(st.floats(1e-3, 0.5), st.sampled_from([1e-3, 0.125, 0.5]))
COORDS = st.floats(-1.2, 1.2)


@st.composite
def verifier_inputs(draw):
    """(placements, instance radii or None, epsilon) for one verify call.

    Each disk is drawn free or against an earlier one: on the same centre, on
    the same x, or at distance (r + r_q) - epsilon give or take a few ulps,
    along an axis or a diagonal, where only the last rounding decides the
    overlap test. Some disks have a non-finite radius or coordinate."""
    epsilon = draw(st.sampled_from([5e-324, 1e-15, 1e-7, 0.1]))
    placements = []
    for _ in range(draw(st.integers(0, 40))):
        r = draw(RADII)
        kind = draw(st.sampled_from(["free", "centre", "x", "touch", "non_finite"]))
        if kind == "free" or not placements:
            placements.append((r, (draw(COORDS), draw(COORDS))))
            continue
        rq, (xq, yq) = placements[draw(st.integers(0, len(placements) - 1))]
        if kind == "centre":
            placements.append((r, (xq, yq)))
        elif kind == "x":
            placements.append((r, (xq, draw(COORDS))))
        elif kind == "touch":
            d = nudge((r + rq) - epsilon, draw(st.integers(-3, 3)))
            side = draw(st.sampled_from([1.0, -1.0, "diagonal"]))
            if side == "diagonal":
                xy = (xq + d * math.sqrt(0.5), yq + d * math.sqrt(0.5))
            else:
                xy = (nudge(xq + side * d, draw(st.integers(-2, 2))), yq)
            placements.append((r, xy))
        else:
            disk = [r, draw(COORDS), draw(COORDS)]
            disk[draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            placements.append((disk[0], (disk[1], disk[2])))
    # The instance may hold a placed value fewer times than it is placed, a
    # NaN, and an int.
    radii = [p[0] for p in placements if math.isfinite(p[0])]
    instance = draw(
        st.one_of(st.none(), st.lists(st.sampled_from(radii + [0.25, 1e-3, math.nan, 1])))
    )
    return placements, instance, epsilon


@given(case=verifier_inputs(), chunk=st.sampled_from([1, 3, verifier.PAIR_CHUNK]))
@settings(max_examples=300, derandomize=True, deadline=None)
# A disk drawn to touch a non-finite one can land near the largest float.
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sweep_matches_dense_oracle(case, chunk):
    placements, instance, epsilon = case
    with mock.patch.object(verifier, "PAIR_CHUNK", chunk):
        got = verify(placements, instance, epsilon)
    want = oracle_verifier.verify(placements, instance, epsilon)
    assert report_tuple(got) == report_tuple(want)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("chunk", [7, verifier.PAIR_CHUNK])
def test_sweep_matches_dense_oracle_on_planted_lattice(seed, chunk):
    placements, inst, _ = planted_lattice(450, seed, moved=10, outside=5, relabelled=5, nonfinite=2)
    with mock.patch.object(verifier, "PAIR_CHUNK", chunk):
        got = verify(placements, inst)
    assert report_tuple(got) == report_tuple(oracle_verifier.verify(placements, inst))
    assert not got.valid


@pytest.mark.parametrize("epsilon", [5e-324, 1e-15])
def test_sweep_keeps_pairs_touching_at_the_threshold(epsilon):
    # Pairs on the x axis at (r + r_q) - epsilon, give or take a few ulps,
    # where the overlap test and the x-extents differ by a rounding; one pair
    # per row, the rows 2 apart.
    rng = random.Random(6)
    for _ in range(10):
        placements = []
        for row in range(200):
            rq, r, xq = rng.uniform(1e-3, 0.5), rng.uniform(1e-3, 0.5), rng.uniform(-1.2, 1.2)
            d = nudge((r + rq) - epsilon, rng.randint(-3, 3))
            x = nudge(xq + rng.choice([d, -d]), rng.randint(-2, 2))
            placements += [(rq, (xq, 2.0 * row)), (r, (x, 2.0 * row))]
        got = verify(placements, None, epsilon)
        assert report_tuple(got) == report_tuple(oracle_verifier.verify(placements, None, epsilon))


def planted_lattice(target_n, seed, moved=40, outside=20, relabelled=20, nonfinite=5):
    """A jittered hexagonal lattice of about target_n disks in the unit disk,
    with planted violations.

    Spacing s, radii in [0.25 s, 0.4 s] and jitter of at most 0.05 s per
    coordinate keep every pair of lattice disks at least 0.05 s apart and
    inside the container, so only planted disks can be in a violation.
    Returns (placements, instance radii, indices of the moved disks)."""
    rng = np.random.default_rng(seed)
    s = math.sqrt(math.pi / (target_n * math.sqrt(3.0) / 2.0))
    m = int(2.0 / s) + 1
    j, i = np.mgrid[-m : m + 1, -m : m + 1]
    u = ((i + 0.5 * j) * s).ravel()
    v = (j * (math.sqrt(3.0) / 2.0) * s).ravel()
    inside = np.hypot(u, v) <= 1.0 - 0.5 * s
    x = u[inside] + rng.uniform(-0.05 * s, 0.05 * s, inside.sum())
    y = v[inside] + rng.uniform(-0.05 * s, 0.05 * s, inside.sum())
    n = len(x)
    r = s * rng.uniform(0.25, 0.40, n)
    picked = rng.choice(n, moved + outside + relabelled + nonfinite, replace=False)
    into, out, rel, bad = np.split(picked, np.cumsum([moved, outside, relabelled]))
    # Moved disks land anywhere in the container, mostly over some neighbour.
    a, d = rng.uniform(0, 2 * math.pi, moved), 0.9 * np.sqrt(rng.uniform(0, 1, moved))
    x[into], y[into] = d * np.cos(a), d * np.sin(a)
    # Outside disks straddle the boundary.
    a, d = rng.uniform(0, 2 * math.pi, outside), 1.0 - r[out] + rng.uniform(1e-3, 1e-2, outside)
    x[out], y[out] = d * np.cos(a), d * np.sin(a)
    x[bad] = np.nan
    inst = r.copy()
    inst[rel] *= 1.0 + 1e-6
    placements = list(zip(r.tolist(), zip(x.tolist(), y.tolist())))
    return placements, inst.tolist(), np.concatenate([into, out])


def planted_oracle(placements, instance_radii, moved, epsilon):
    """The report of the O(k*n) oracle: overlaps are searched only among the
    pairs with a moved disk, with the verifier's exact test."""
    r = np.array([p[0] for p in placements])
    x = np.array([p[1][0] for p in placements])
    y = np.array([p[1][1] for p in placements])
    finite = np.isfinite(x)
    violations = [(ViolationKind.NON_FINITE, (int(i),), 0.0) for i in np.nonzero(~finite)[0]]
    reach = np.hypot(x, y) + r
    for i in np.nonzero(finite & (reach > 1.0 + epsilon))[0]:
        violations.append((ViolationKind.CONTAINMENT, (int(i),), float(reach[i] - 1.0)))
    pairs = {}
    for p in moved.tolist():
        dist = np.hypot(x - x[p], y - y[p])
        need = r + r[p]
        for q in np.nonzero(finite & (dist < need - epsilon))[0].tolist():
            if q != p:
                pairs[min(p, q), max(p, q)] = float(need[q] - dist[q])
    violations += [(ViolationKind.OVERLAP, ij, m) for ij, m in pairs.items()]
    available = collections.Counter(instance_radii)
    for i in np.nonzero(finite)[0].tolist():
        if available[r[i]]:
            available[r[i]] -= 1
        else:
            violations.append((ViolationKind.RADIUS_MISMATCH, (i,), float(r[i])))
    violations.sort(key=lambda v: (v[0].value, v[1]))
    return [(k, ij, m.hex()) for k, ij, m in violations], float(np.sum(r[finite] ** 2)).hex()


def test_sweep_at_scale_matches_planted_oracle():
    # About 20,000 disks: the dense pass would need some 9.6 GB here.
    placements, inst, moved = planted_lattice(20_000, seed=8)
    assert 19_000 < len(placements) < 21_000
    report = verify(placements, inst, epsilon=1e-7)
    valid, violations, density, _ = report_tuple(report)
    want_violations, want_density = planted_oracle(placements, inst, moved, 1e-7)
    kinds = collections.Counter(k for k, _, _ in want_violations)
    assert kinds[ViolationKind.OVERLAP] >= 20 and kinds[ViolationKind.CONTAINMENT] == 20
    assert kinds[ViolationKind.RADIUS_MISMATCH] == 20 and kinds[ViolationKind.NON_FINITE] == 5
    assert violations == want_violations
    assert density == want_density
