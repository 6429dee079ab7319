"""The prover's batched kernel and its level search against the scalar oracle
in `oracle_sector_terms.py`: the same bits box by box, and the same cell
records and certificate lines."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_sector_terms as oracle
from diskpack.intervals import av_add, av_asinc, av_div, av_mul, av_sqrt, av_sub
from diskpack.prover import (
    DENSITY_BOUND,
    ConfigTag,
    ConfigType,
    Orientation,
    _partition_cells,
    _run_cell,
    _sector_terms,
    _split_box,
    _tangency,
    admissible,
    certified_configs,
    make_root_box,
)
from oracle_intervals import Interval, iv_add, iv_asinc, iv_div, iv_mul, iv_sqrt, iv_sub

CONFIGS = [c for tag in ConfigTag for c in certified_configs(tag)]
WIDTHS = [0.0, 0.0, 1e-12, 1e-7, 1e-4, 3e-3, 0.03]


def same_bits(x, y) -> bool:
    return float(x).hex() == float(y).hex()


def make_box(cfg, params):
    """A box in the root domain for lambda in [0.5, 1]. `params` is (kind,
    mu, u1, u2, u3, widths): kind 0 places rho1, rho2 (, rho3) between their
    admissibility limits (fractions u of the way), kind 1 anywhere in
    [0, 0.5], which gives many infeasible boxes and empty clamps."""
    kind, mu, u1, u2, u3, widths = params
    if kind == 0:
        rho1 = u1 * 0.5
        lo2 = max(0.0, 0.5 - rho1)
        rho2 = lo2 + u2 * (rho1 - lo2)
        lo3 = max(0.0, 0.5 - rho2)
        rho3 = lo3 + u3 * (rho2 - lo3)
    else:
        rho1, rho2, rho3 = 0.5 * u1, 0.5 * u2, 0.5 * u3
    centres = [mu, rho1, rho2, rho3][: 1 + cfg.arity]
    ivs = [
        Interval(max(0.0, v - w), min(0.5, v + w)) for v, w in zip(centres, widths)
    ]
    return oracle.CaseBox(ivs[0], tuple(ivs[1:]), cfg)


unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
box_params = st.tuples(
    st.sampled_from([0, 0, 1]),
    st.one_of(st.sampled_from([0.0, 0.01, 0.5]), st.floats(0.0, 0.5)),
    unit,
    unit,
    unit,
    st.lists(st.sampled_from(WIDTHS), min_size=4, max_size=4),
)


def assert_kernel_matches_oracle(cfg, boxes):
    lo, hi = oracle.box_rows(boxes)
    ok, area, pot = _sector_terms(cfg, lo, hi)
    # No lane leaks NaN or infinity, whatever the other lanes hold.
    for arr in (*area, *pot):
        assert np.all(np.isfinite(arr))
    for i, box in enumerate(boxes):
        ref = oracle.sector_terms(box)
        assert bool(ok[i]) == (ref is not None), box
        if ref is None:
            continue
        ref_area, ref_pot = ref
        assert same_bits(area[0][i], ref_area.lo), box
        assert same_bits(area[1][i], ref_area.hi), box
        assert same_bits(pot[0][i], ref_pot.lo), box
        assert same_bits(pot[1][i], ref_pot.hi), box


@given(cfg=st.sampled_from(CONFIGS), batch=st.lists(box_params, min_size=1, max_size=24))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_kernel_matches_scalar_oracle_bit_for_bit(cfg, batch):
    assert_kernel_matches_oracle(cfg, [make_box(cfg, p) for p in batch])


def test_kernel_covers_clamps_empty_clamps_and_point_boxes(monkeypatch):
    """1,500 seeded boxes per configuration, bit for bit against the oracle,
    with counts showing that the batches hold tangency enclosures whose q^2
    is clamped at 0, empty clamps, boxes infeasible for admissibility,
    zero-width boxes and boxes at mu = 0 (lambda = 1)."""
    clamps = []
    original = oracle.tangency

    def recording(mu, f, d1, d2):
        q2 = iv_div(f, iv_mul(Interval(4.0, 4.0), iv_mul(d1, d2)))
        clamps.append(q2.lo < 0.0 <= q2.hi)
        return original(mu, f, d1, d2)

    monkeypatch.setattr(oracle, "tangency", recording)
    rng = random.Random(20261018)
    empty = infeasible = points = at_zero = 0
    for cfg in CONFIGS:
        boxes = []
        for _ in range(1500):
            params = (
                rng.choice([0, 0, 1]),
                rng.choice([0.0, rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)]),
                rng.random(),
                rng.random(),
                rng.random(),
                [rng.choice(WIDTHS) for _ in range(4)],
            )
            boxes.append(make_box(cfg, params))
        assert_kernel_matches_oracle(cfg, boxes)
        empty += sum(oracle.sector_terms(b) is None for b in boxes)
        infeasible += sum(
            oracle.admissible(b) is oracle.Feasibility.INFEASIBLE for b in boxes
        )
        points += sum(all(iv.width == 0.0 for iv in (b.mu, *b.rho)) for b in boxes)
        at_zero += sum(b.mu.lo == 0.0 for b in boxes)
    assert sum(clamps) > 100
    assert empty > 100 and infeasible > 100 and points > 10 and at_zero > 100


def test_tangency_clamp_above_one_is_empty():
    """A pair whose (mu*q)^2 exceeds 1 over the whole box, a cosine below -1,
    has no tangency angle there, in the kernel as in the oracle; the row
    beside it is evaluated as usual."""
    mu = (np.array([3.0, 0.25]), np.array([3.0, 0.25]))
    f = (np.array([1.0, 0.5]), np.array([1.0, 0.5]))
    d = (np.array([0.1, 0.9]), np.array([0.1, 0.9]))
    theta, ok = _tangency(mu, f, d, d)
    assert ok.tolist() == [False, True]
    ivs = [Interval(x[1], y[1]) for x, y in zip((mu[0], f[0], d[0]), (mu[1], f[1], d[1]))]
    ref = oracle.tangency(ivs[0], ivs[1], ivs[2], ivs[2])
    assert same_bits(theta[0][1], ref.lo) and same_bits(theta[1][1], ref.hi)
    one = Interval(3.0, 3.0), Interval(1.0, 1.0), Interval(0.1, 0.1)
    assert oracle.tangency(one[0], one[1], one[2], one[2]) is None


def test_admissible_and_split_match_the_oracle():
    rng = random.Random(5)
    for cfg in CONFIGS:
        boxes = [
            make_box(cfg, (rng.choice([0, 1]), rng.uniform(0.0, 0.5), rng.random(),
                           rng.random(), rng.random(), [rng.choice(WIDTHS) for _ in range(4)]))
            for _ in range(300)
        ]
        lo, hi = oracle.box_rows(boxes)
        mask = admissible(lo, hi)
        assert mask.any() and not mask.all()
        halves = _split_box(lo, hi)
        for i, box in enumerate(boxes):
            assert bool(mask[i]) == (oracle.admissible(box) is not oracle.Feasibility.INFEASIBLE)
            for half, ref in zip((2 * i, 2 * i + 1), oracle.split_box(box)):
                ref_lo, ref_hi = oracle.box_rows([ref])
                assert halves[0][half].tolist() == ref_lo[0].tolist()
                assert halves[1][half].tolist() == ref_hi[0].tolist()


def interval_pairs(bound):
    end = st.one_of(
        st.sampled_from([-bound, bound, 0.0, 0.9, -0.9]),
        st.floats(-bound, bound),
        st.floats(0.9, 1.0).map(lambda x: x * bound),
        st.floats(-1.0, -0.9).map(lambda x: x * bound),
    )
    return st.tuples(end, end).map(sorted)


def assert_same_as_scalar(av_op, iv_op, args):
    """Bitwise equality of an array operation and its scalar operation."""
    arrays = [(np.array([a[0] for a in arg]), np.array([a[1] for a in arg])) for arg in args]
    lo, hi = av_op(*arrays)
    for i, operands in enumerate(zip(*args)):
        ref = iv_op(*(Interval(*p) for p in operands))
        assert same_bits(lo[i], ref.lo) and same_bits(hi[i], ref.hi), operands


@given(st.lists(interval_pairs(1.0), min_size=1, max_size=30))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_asinc_sqrt_match_scalar_including_the_clamps(ivs):
    """asinc clamps each interval to [0, 1], so any interval of [-1, 1] that
    reaches 0 is in its domain; sqrt takes the intervals' absolute values."""
    reaching = [(lo, hi) for lo, hi in ivs if hi >= 0.0]
    if reaching:
        assert_same_as_scalar(av_asinc, iv_asinc, [reaching])
    magnitudes = [tuple(sorted((abs(lo), abs(hi)))) for lo, hi in ivs]
    assert_same_as_scalar(av_sqrt, iv_sqrt, [magnitudes])


def test_asinc_ends_at_zero_one_and_subnormals():
    """Ends at 0 (both signs), at 1, past 1, subnormal, at and around 2^-30,
    below which the ends are 1 and its upper neighbour, and near both ends
    of [0, 1], where the division and the clamps to [1, pi/2] act."""
    rng = random.Random(9)
    tiny = 5e-324
    ends = [-0.0, 0.0, tiny, 3 * tiny, 1e-310, 1e-200, 2.0 ** -40, 2.0 ** -27, 0.5,
            1.0 - 2.0 ** -53, 1.0]
    ends += [math.nextafter(2.0 ** -30, 0.0), 2.0 ** -30, math.nextafter(2.0 ** -30, 1.0)]
    ivs = [(a, b) for a in ends for b in ends if a <= b]
    ivs += [(-0.5, 0.0), (-tiny, tiny), (0.9, 1.5), (1.0, 2.0)]
    for _ in range(2000):
        a, b = sorted(rng.uniform(0.0, 1.0) ** 8 for _ in range(2))
        ivs += [(a, b), (a, a), (0.0, b), (a, 1.0)]
    assert_same_as_scalar(av_asinc, iv_asinc, [ivs])


@given(st.lists(st.tuples(interval_pairs(4.0), interval_pairs(4.0)), min_size=1, max_size=30))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_arithmetic_matches_scalar(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    assert_same_as_scalar(av_add, iv_add, [a, b])
    assert_same_as_scalar(av_sub, iv_sub, [a, b])
    assert_same_as_scalar(av_mul, iv_mul, [a, b])
    b_pos = [(lo + 5.0, hi + 5.0) for lo, hi in b]
    assert_same_as_scalar(av_div, iv_div, [a, b_pos])


# ---------------------------------------------------------------------------
# level search


@pytest.mark.parametrize("max_depth", [0, 3, 60])
@pytest.mark.parametrize("max_boxes", [1, 2, 3, 50, 2000])
def test_run_cell_equals_the_level_oracle(tmp_path, max_boxes, max_depth):
    """The four cells of T1/outer and of T7/inner at lambda in [0.98, 0.99],
    where the budget cuts the search and leaves open boxes to merge, and of
    T1/outer at lambda in [0.5, 0.51], where boxes are proven, certificate
    lines carry a density and some cells finish while the budget cuts the
    others, each searched in one call: every record and every cell's
    certificate text equals the oracle's search of that cell alone, with
    max_boxes and max_depth at the edges of the rule that stops a cell
    between levels."""
    t1 = ConfigType(ConfigTag.T1, Orientation.OUTER_FIRST)
    for case, (cfg, lambda_range) in enumerate(
        (
            (t1, (0.98, 0.99)),
            (ConfigType(ConfigTag.T7, Orientation.INNER_FIRST), (0.98, 0.99)),
            (t1, (0.5, 0.51)),
        )
    ):
        cells = _partition_cells(make_root_box(cfg, lambda_range), 4)
        got = _run_cell(cfg, cells, DENSITY_BOUND, max_depth, max_boxes, True)
        assert [rec["cell"] for rec, _ in got] == list(range(len(cells)))
        for i, cell in enumerate(cells):
            ref_path = tmp_path / f"ref{case}-{i}"
            ref = oracle.run_cell(
                (i, cfg, cell, DENSITY_BOUND, max_depth, max_boxes, str(ref_path))
            )
            rec, text = got[i]
            assert json.dumps(rec) == json.dumps(ref)
            assert text == ref_path.read_text(encoding="utf-8")
