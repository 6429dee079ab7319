import hashlib
import io
import json
import math
import os
import random
import re
import tempfile

import numpy as np
import pytest

from diskpack import prover
from diskpack.prover import (
    DENSITY_BOUND,
    EVALUATOR_VERSION,
    ConfigTag,
    ConfigType,
    Orientation,
    ProverBudget,
    admissible,
    certified_configs,
    eval_density,
    make_root_box,
    prove_case,
    _partition_cells,
    _split_box,
    _run_cell,
    _sector_terms,
)

from conftest import spy_run_cell
from oracle_certificate import box_line
from oracle_intervals import Interval, iv_mul, iv_point, iv_sub
from oracle_pointeval import point_density

T1_OUT = ConfigType(ConfigTag.T1, Orientation.OUTER_FIRST)
T2_OUT = ConfigType(ConfigTag.T2, Orientation.OUTER_FIRST)
T7_IN = ConfigType(ConfigTag.T7, Orientation.INNER_FIRST)


def box(*bounds):
    """A one-row (lo, hi) box from (lo, hi) pairs: mu, rho1, rho2 (, rho3)."""
    return np.array([[b[0] for b in bounds]]), np.array([[b[1] for b in bounds]])


def point_box(mu, *rhos):
    return box(*((v, v) for v in (mu, *rhos)))


def density(cfg, lo, hi):
    """(ok, lo, hi) of the density enclosure of a one-row box."""
    ok, area, pot = _sector_terms(cfg, lo, hi)
    d_lo, d_hi = eval_density(area, pot)
    return bool(ok[0]), d_lo[0], d_hi[0]


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_width_violation():
    assert not admissible(*point_box(0.5, 0.6, 0.2))[0]  # 2*rho1 > 1


def test_admissible_exact_fit():
    assert admissible(*point_box(0.5, 0.5, 0.5))[0]


def test_admissible_straddling_box():
    # Admissible only at its corner rho1 = 1/2, rho2 = 0, on the pass bound.
    assert admissible(*box((0.4, 0.5), (0.25, 0.5), (0.0, 0.02)))[0]
    assert not admissible(*box((0.4, 0.5), (0.25, 0.49), (0.0, 0.005)))[0]


def test_admissible_ordering_constraint():
    assert not admissible(*point_box(0.4, 0.25, 0.375))[0]  # rho2 > rho1


def test_admissible_arity3_pass_bound():
    # rho3 below its pass bound 1/2 - rho2 = 0.2
    assert not admissible(*point_box(0.5, 0.4, 0.3, 0.1))[0]
    assert admissible(*point_box(0.5, 0.4, 0.3, 0.24))[0]


def test_admissible_does_not_involve_mu():
    for mu in (0.0, 1e-12, 0.01, 0.5):
        assert admissible(*point_box(mu, 0.3, 0.2))[0]
        assert not admissible(*point_box(mu, 0.3, 0.19))[0]


# ---------------------------------------------------------------------------
# eval_density


def test_eval_density_t1_point_matches_oracle():
    # lambda = 0.5, r1 = r2 = 0.25
    ok, d_lo, d_hi = density(T1_OUT, *point_box(0.5, 0.5, 0.5))
    p = float(point_density("T1", "outer", 0.5, 0.25, 0.25))
    assert ok
    assert d_lo <= p <= d_hi
    assert d_lo >= 0.5642
    assert p == pytest.approx(0.7703677279188862, abs=1e-12)


def test_eval_density_t2_point_matches_oracle():
    ok, d_lo, d_hi = density(T2_OUT, *point_box(0.5, 0.5, 0.5))
    p = float(point_density("T2", "outer", 0.5, 0.25, 0.25))
    assert ok
    assert d_lo <= p <= d_hi
    assert d_hi - d_lo < 1e-10


def test_eval_density_contains_midpoint():
    ok, d_lo, d_hi = density(T2_OUT, *box((0.475, 0.48), (0.338, 0.343), (0.254, 0.259)))
    mu = 0.4775
    p = float(point_density("T2", "outer", 1.0 - mu, mu * 0.3405, mu * 0.2565))
    assert ok
    assert d_lo <= p <= d_hi


def test_eval_density_undefined_on_infeasible_box_and_zero_area():
    # Tiny radii in a wide ring: tangency impossible anywhere in the box.
    ok, _, _ = density(T2_OUT, *box((0.5, 0.5), (0.002, 0.004), (0.002, 0.004)))
    assert not ok
    # An area enclosure that contains zero gives no density (NaN), row by row.
    d_lo, d_hi = eval_density(
        (np.array([0.0, -1.0, 1.0]), np.array([1.0, 0.0, 2.0])),
        (np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0])),
    )
    assert np.isnan(d_lo[:2]).all() and np.isnan(d_hi[:2]).all()
    assert d_lo[2] <= 0.5 and d_hi[2] >= 2.0


def _random_feasible_box(rng, cfg, max_width):
    """A box around an admissible point with lambda in [0.5, 0.99], as mu and
    rho bounds."""
    for _ in range(200):
        mu = rng.uniform(0.01, 0.5)
        rho1 = rng.uniform(0.01, 0.5)
        lo2 = max(0.0, 0.5 - rho1)
        if lo2 > rho1:
            continue
        rho2 = rng.uniform(lo2, rho1)
        rhos = [rho1, rho2]
        if cfg.arity == 3:
            lo3 = max(0.0, 0.5 - rho2)
            if lo3 > rho2:
                continue
            rhos.append(rng.uniform(lo3, rho2))
        w = rng.uniform(1e-6, max_width)
        dims = [mu] + rhos
        bounds = [(max(0.0, v - w / 2), v + w / 2) for v in dims]
        bounds[0] = (max(0.01, bounds[0][0]), min(0.5, bounds[0][1]))
        lo, hi = box(*bounds)
        if _sector_terms(cfg, lo, hi)[0][0]:
            return lo, hi
    raise AssertionError("could not sample a feasible box")


def test_eval_density_enclosure_fuzz_small():
    """Point densities at interior points always land inside the interval
    (the 10^4 x 10^2 version runs in the acceptance suite)."""
    rng = random.Random(12345)
    configs = [c for tag in ConfigTag for c in certified_configs(tag)]
    checked = 0
    for i in range(300):
        cfg = configs[i % len(configs)]
        lo, hi = _random_feasible_box(rng, cfg, max_width=5e-3)
        _, d_lo, d_hi = density(cfg, lo, hi)
        if np.isnan(d_lo):
            continue
        mu = np.random.default_rng(i).uniform(lo[0, 0], hi[0, 0], 40)
        rs = [
            mu * np.random.default_rng(1000 + i + k).uniform(lo[0, 1 + k], hi[0, 1 + k], 40)
            for k in range(cfg.arity)
        ]
        vals = point_density(
            cfg.tag.value,
            cfg.orientation.value,
            1.0 - mu,
            rs[0],
            rs[1],
            rs[2] if cfg.arity == 3 else None,
        )
        finite = vals[np.isfinite(vals)]
        checked += finite.size
        assert np.all(finite >= d_lo) and np.all(finite <= d_hi)
    assert checked > 3000


# ---------------------------------------------------------------------------
# branch and bound


def test_make_root_box_respects_limits():
    """lambda is clipped to [0.5, 1]; the box holds mu = 1 - lambda, with both
    ends exact, and every rho over [0, 1/2]."""
    lo, hi = make_root_box(T1_OUT, (0.4, 1.5))
    assert lo.shape == hi.shape == (1, 3)
    assert lo[0].tolist() == [0.0, 0.0, 0.0]
    assert hi[0].tolist() == [0.5, 0.5, 0.5]
    lo, hi = make_root_box(T7_IN)
    assert lo.shape == hi.shape == (1, 4)
    assert (1.0 - lo[0, 0], 1.0 - hi[0, 0]) == (0.99, 0.5)
    assert lo[0, 1:].tolist() == [0.0] * 3 and hi[0, 1:].tolist() == [0.5] * 3
    with pytest.raises(ValueError):
        make_root_box(T1_OUT, (0.7, 0.6))
    lo, hi = make_root_box(T1_OUT, (-math.inf, math.inf))
    assert (lo[0, 0], hi[0, 0]) == (0.0, 0.5)
    for lambda_range in ((0.5, math.nan), (math.nan, 0.99), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            make_root_box(T1_OUT, lambda_range)


@pytest.mark.parametrize("b_d", [math.nan, math.inf, -math.inf])
def test_prove_case_refuses_a_non_finite_bound_before_opening_a_file(tmp_path, b_d):
    ck = tmp_path / "ck.jsonl"
    with pytest.raises(ValueError, match="bound must be finite"):
        prove_case(T1_OUT, lambda_range=(0.5, 0.51), b_d=b_d, checkpoint=os.fspath(ck))
    assert not ck.exists()


@pytest.mark.parametrize(
    "field, value",
    [("max_depth", -1), ("max_boxes", 0), ("max_boxes", -5), ("cells", 0), ("cells", -3)],
)
def test_prover_budget_refuses_values_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least"):
        ProverBudget(**{field: value})
    # The least value of each field is a budget.
    ProverBudget(max_depth=0, max_boxes=1, cells=1)


def test_split_box_halves_widest():
    root_lo, root_hi = make_root_box(T1_OUT, (0.5, 0.6))
    lo, hi = _split_box(root_lo, root_hi)
    # Exactly one dimension is bisected; the halves tile the parent.
    changed = [
        i for i in range(root_lo.shape[1])
        if (lo[0, i], hi[0, i]) != (root_lo[0, i], root_hi[0, i])
    ]
    assert len(changed) == 1
    k = changed[0]
    assert lo[0, k] == root_lo[0, k]
    assert hi[0, k] == lo[1, k]
    assert hi[1, k] == root_hi[0, k]
    # Raw widths compare: mu has width 0.1, rho1 and rho2 width 0.5 each, and
    # the tie between them goes to the first, rho1.
    assert k == 1
    assert (lo[0].tolist(), hi[0].tolist()) == ([0.4, 0.0, 0.0], [0.5, 0.25, 0.5])
    # Then rho2 is the widest.
    a_lo, a_hi = _split_box(lo[:1], hi[:1])
    assert (a_lo[0].tolist(), a_hi[0].tolist()) == ([0.4, 0.0, 0.0], [0.5, 0.25, 0.25])
    # A tie of all three goes to mu, and mu is split once it is the widest.
    tie_lo, tie_hi = np.array([[0.25, 0.0, 0.25]]), np.array([[0.5, 0.25, 0.5]])
    t_lo, t_hi = _split_box(tie_lo, tie_hi)
    assert (t_lo[0].tolist(), t_hi[0].tolist()) == ([0.25, 0.0, 0.25], [0.375, 0.25, 0.5])
    w_lo, w_hi = _split_box(np.array([[0.0, 0.0, 0.1]]), np.array([[0.3, 0.2, 0.3]]))
    assert (w_lo[1].tolist(), w_hi[1].tolist()) == ([0.15, 0.0, 0.1], [0.3, 0.2, 0.3])


def test_partition_of_a_narrow_lambda_range_keeps_mu_whole():
    """On lambda in [0.98, 0.99] mu has width 0.01, so the 16 cells split
    only the rho_i and each spans the whole mu range."""
    root_lo, root_hi = make_root_box(T1_OUT, (0.98, 0.99))
    cells = _partition_cells((root_lo, root_hi), 16)
    assert len(cells) == 16
    for cell in cells:
        assert cell[:2] == [root_lo[0, 0], root_hi[0, 0]]
    assert len({tuple(cell[2:]) for cell in cells}) == 16


def test_prove_case_small_domain_certifies():
    rep = prove_case(
        T1_OUT, lambda_range=(0.5, 0.52), budget=ProverBudget(cells=16)
    )
    assert rep.certified
    assert rep.boxes_proven > 0
    assert rep.boxes_pruned_infeasible > 0
    assert not rep.failures


def test_prove_case_canary_never_proves_a_falsehood():
    rep = prove_case(
        T1_OUT,
        lambda_range=(0.5, 0.52),
        b_d=0.99,
        budget=ProverBudget(cells=4, max_boxes=4000, max_depth=24),
    )
    assert rep.failures
    assert not rep.certified


def test_the_lambda_one_face_certifies_every_configuration():
    """At lambda = 1, mu = [0, 0], and every product with mu rounds out to
    the smallest subnormal, so each asinc argument ends at a subnormal z: its
    enclosure there must stay next to 1, not reach pi/2, or no box of the
    face is ever proven."""
    for cfg in (c for tag in ConfigTag for c in certified_configs(tag)):
        rep = prove_case(cfg, lambda_range=(1.0, 1.0))
        assert rep.certified, rep.summary_line()
        assert rep.boxes_proven > 0


def test_prove_case_empty_domain_all_pruned():
    cell = [0.5, 0.5, 0.6, 0.62, 0.0, 0.2]  # 2*rho1 > 1 throughout
    ((rec, text),) = _run_cell(T2_OUT, [cell], 0.5642, 60, 1000, False)
    assert text == ""
    assert rec["proven"] == 0
    assert not rec["failures"]
    assert rec["pruned"] > 0
    assert rec["processed"] == rec["pruned"]


def test_one_frontier_searches_each_cell_as_alone():
    """One _run_cell call over all the cells of a budget-cut range, its 64
    cells (40 rounded up by the pre-split), returns for each cell the record
    and the certificate text of a call on that cell alone: cells are searched
    independently, so a run's report, checkpoint and certificate do not
    depend on which cells share a frontier."""
    cells = _partition_cells(make_root_box(T1_OUT, (0.98, 0.99)), 40)
    assert len(cells) == 64
    run = (DENSITY_BOUND, 60, math.ceil(4000 / len(cells)), True)
    together = _run_cell(T1_OUT, cells, *run)
    alone = [_run_cell(T1_OUT, [cell], *run)[0] for cell in cells]
    assert together == [({**rec, "cell": i}, text) for i, (rec, text) in enumerate(alone)]
    # Some cells are cut by the budget and some finish, at different depths.
    assert {bool(rec["failures"]) for rec, _ in together} == {True, False}
    assert len({rec["max_depth"] for rec, _ in together}) > 1


def test_cells_round_up_to_a_power_of_two(monkeypatch):
    """`cells=40` runs 64 cells, and each gets ceil(max_boxes / 64) boxes."""
    calls = spy_run_cell(monkeypatch)
    prove_case(
        T1_OUT, lambda_range=(0.98, 0.99), budget=ProverBudget(cells=40, max_boxes=1000)
    )
    assert [(len(call["cells"]), call["max_boxes"]) for call in calls] == [(64, 16)]


def test_kernel_functions_are_called_through_their_module_names(monkeypatch):
    """A profiler counts the prover's kernel by replacing these module
    attributes (perfbench's traced pass does), so a certified run with a
    certificate must call each of them through its name."""
    names = ("_sector_terms", "admissible", "_split_box", "eval_density", "_run_cell")
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name, _orig=getattr(prover, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(prover, name, counted)
    rep = prove_case(
        T1_OUT, lambda_range=(0.5, 0.51), budget=ProverBudget(cells=4),
        certificate=io.StringIO(),
    )
    assert rep.certified
    assert all(calls[name] >= 1 for name in names), calls


def _proves(cfg, lo, hi, b_d):
    """The prover's margin test on a one-row box; None when the box is
    infeasible everywhere."""
    ok, area, pot = _sector_terms(cfg, lo, hi)
    if not ok[0]:
        return None
    area, pot = Interval(area[0][0], area[1][0]), Interval(pot[0][0], pot[1][0])
    return iv_sub(pot, iv_mul(iv_point(b_d), area)).lo >= 0.0


def test_prove_monotone_children_of_proven_box():
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        lo, hi = _random_feasible_box(rng, T2_OUT, max_width=2e-3)
        if _proves(T2_OUT, lo, hi, 0.5642):
            halves_lo, halves_hi = _split_box(lo, hi)
            for half in (0, 1):
                half_lo, half_hi = halves_lo[half : half + 1], halves_hi[half : half + 1]
                assert _proves(T2_OUT, half_lo, half_hi, 0.5642) in (True, None)
            checked += 1
    assert checked > 50


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# A bound far below the true one certifies in a few hundred boxes, which is
# all the checkpoint tests below need.
WEAK = {"lambda_range": (0.5, 0.6), "b_d": 0.3}


def _record(line, **changes):
    return json.dumps({**json.loads(line), **changes}) + "\n"


def _header_with(line, **changes):
    """The header line `line` with `changes` to its fields; a change to None
    deletes the field."""
    header = json.loads(line)["header"]
    header.update(changes)
    header = {key: value for key, value in header.items() if value is not None}
    return json.dumps({"header": header}).encode() + b"\n"


def _of_evaluator(evaluator):
    """A planted file: a finished checkpoint whose header names `evaluator`
    (none for None), with a record this evaluator could not have written."""
    return lambda lines: [
        _header_with(lines[0], evaluator=evaluator),
        _record(lines[1], proven=10**9).encode(),
        *lines[2:],
    ]


# Files planted at the checkpoint path, each made from the lines (bytes) of
# the checkpoint of a run over no file, and whether the run writes a
# certificate. The files whose first line is no header end in a `[1, 2]` record.
_PLANTED = [
    pytest.param(lambda lines: lines, False, id="finished"),
    pytest.param(
        lambda lines: [_header_with(lines[0], **{"lambda": [0.5, 0.505]})] + lines[1:],
        False,
        id="another-lambda-range",
    ),
    *(
        pytest.param(_of_evaluator(evaluator), False, id=f"evaluator-{evaluator}")
        for evaluator in (None, "scalar-0", "levels-1", "levels-2", "mu-rho-1", "mu-rho-2")
    ),
    pytest.param(lambda lines: lines[1:] + [b"[1, 2]\n"], False, id="no-header"),
    pytest.param(
        lambda lines: [lines[0][:-1]] + lines[1:] + [b"[1, 2]\n"],
        False,
        id="header-without-newline",
    ),
    pytest.param(
        lambda lines: [b"not json\n"] + lines[1:] + [b"[1, 2]\n"], False, id="first-line-not-json"
    ),
    pytest.param(
        lambda lines: [b"\xff\xfe\n"] + lines[1:] + [b"[1, 2]\n"],
        False,
        id="first-line-not-utf-8",
    ),
    # A run killed while writing its fourth cell record.
    pytest.param(
        lambda lines: lines[:4] + [lines[4][: len(lines[4]) // 2]], False, id="torn-last-line"
    ),
    pytest.param(
        lambda lines: lines[:2] + [lines[2][:10] + b"\n"] + lines[3:], False, id="malformed-record"
    ),
    pytest.param(
        lambda lines: lines[:2] + [b"not json\n"] + lines[3:], False, id="record-not-json"
    ),
    pytest.param(lambda lines: lines[:4] + [b"[1, 2]\n"], True, id="certified-over-three-records"),
]


@pytest.mark.parametrize("plant, certified", _PLANTED)
def test_checkpoint_path_is_always_written_afresh(tmp_path, monkeypatch, plant, certified):
    """Whatever file is at the checkpoint path, a run reads none of it: every
    cell runs, and the report, the file it leaves and the certificate are
    those of a run over no file."""
    run = {**WEAK, "budget": ProverBudget(cells=8)}
    fresh, ck = os.fspath(tmp_path / "fresh.jsonl"), os.fspath(tmp_path / "t1.jsonl")
    fresh_buf, buf = (io.StringIO(), io.StringIO()) if certified else (None, None)
    expected = prove_case(T1_OUT, **run, checkpoint=fresh, certificate=fresh_buf)
    with open(ck, "wb") as fh:
        fh.writelines(plant(_read_bytes(fresh).splitlines(keepends=True)))
    calls = spy_run_cell(monkeypatch)
    assert prove_case(T1_OUT, **run, checkpoint=ck, certificate=buf) == expected
    assert [len(call["cells"]) for call in calls] == [8]
    assert _read_bytes(ck) == _read_bytes(fresh)
    if certified:
        assert buf.getvalue() == fresh_buf.getvalue()


def test_checkpoint_header_records_the_lambda_range_searched(tmp_path):
    """The header holds the clipped lambda range, so an infinite end still
    makes strict JSON, and runs over the same domain write the same header;
    each end within [0.5, 1] is written as given."""

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    budget = ProverBudget(cells=4)
    headers = []
    for lambda_range in ((0.5, math.inf), (0.5, 1.0)):
        ck = os.fspath(tmp_path / "t1.jsonl")
        prove_case(T1_OUT, lambda_range=lambda_range, b_d=0.3, budget=budget, checkpoint=ck)
        headers.append(_read_bytes(ck).splitlines()[0])
    header = json.loads(headers[0], parse_constant=refuse)["header"]
    assert (header["lambda"], header["evaluator"]) == ([0.5, 1.0], EVALUATOR_VERSION)
    assert headers[0] == headers[1]
    for lambda_range in ((0.5, 0.99), (0.98, 0.99), (0.5, 0.51), (0.5, 0.6), (0.75, 0.75)):
        root = make_root_box(T1_OUT, lambda_range)
        header = prover._checkpoint_header(T1_OUT, 0.3, root, budget)
        assert json.loads(header)["header"]["lambda"] == list(lambda_range)


def test_interrupted_certified_run_creates_no_file_but_its_checkpoint(
    tmp_path, monkeypatch
):
    """A certified run stopped in the middle of its search has created no
    file but its checkpoint, not even a temporary one, and leaves it with the
    header only and the certificate untouched; a plain rerun runs every cell
    and leaves the file and the report of an uninterrupted run."""
    monkeypatch.setattr(tempfile, "tempdir", os.fspath(tmp_path))
    ck = os.fspath(tmp_path / "t1.jsonl")
    run = {"lambda_range": (0.5, 0.505), "budget": ProverBudget(cells=4)}
    calls = spy_run_cell(monkeypatch)
    splits = []
    split_box = prover._split_box

    def interrupted(lo, hi):
        if calls:  # in the search, not in the pre-split into cells
            splits.append(len(lo))
            if len(splits) == 2:
                raise KeyboardInterrupt
        return split_box(lo, hi)

    opened = []

    def spy_open(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(prover, "_split_box", interrupted)
    monkeypatch.setattr(prover, "open", spy_open, raising=False)
    cert = io.StringIO()
    with pytest.raises(KeyboardInterrupt):
        prove_case(T1_OUT, **run, checkpoint=ck, certificate=cert)
    assert len(calls) == 1 and len(splits) == 2
    assert opened == [ck]
    assert os.listdir(tmp_path) == ["t1.jsonl"]
    assert cert.getvalue() == ""
    with open(ck, encoding="utf-8") as fh:
        assert fh.read() == prover._checkpoint_header(
            T1_OUT, DENSITY_BOUND, make_root_box(T1_OUT, run["lambda_range"]), run["budget"]
        )

    monkeypatch.setattr(prover, "_split_box", split_box)
    calls.clear()
    rerun = prove_case(T1_OUT, **run, checkpoint=ck)
    assert [len(call["cells"]) for call in calls] == [4]
    fresh = os.fspath(tmp_path / "fresh.jsonl")
    assert rerun == prove_case(T1_OUT, **run, checkpoint=fresh)
    assert _read_bytes(ck) == _read_bytes(fresh)


def test_certificate_log_format():
    buf = io.StringIO()
    rep = prove_case(
        T1_OUT,
        lambda_range=(0.5, 0.501),
        budget=ProverBudget(cells=2, max_boxes=60, max_depth=10),
        certificate=buf,
    )
    lines = buf.getvalue().splitlines()
    assert lines[-1].startswith("SUMMARY ")
    assert "wall=" not in lines[-1]
    body = lines[:-1]
    assert body
    for line in body:
        assert line.startswith("CASE T1 ORIENT outer BOX mu=[")
        assert " VERDICT " in line
        verdict = line.split(" VERDICT ")[1].split()[0]
        assert verdict in {"proven", "pruned", "failed"}
    # One record per leaf verdict (split boxes are interior nodes).
    leaves = rep.boxes_proven + rep.boxes_pruned_infeasible + len(rep.failures)
    assert len(body) == leaves


# SHA-256 of the certificate that T1/outer on lambda in [0.98, 0.99] with
# ProverBudget(cells=4, max_boxes=2000) writes under the rule that stops a
# cell between levels and merges its open boxes (evaluator "mu-rho-2"; 217
# lines: 145 proven, 42 pruned, 29 failed, and the SUMMARY line).
CERT_T1_098_SHA256 = "337692378e5a6353d8e6e6cd50913645232d42e897a719501c02deffc798195c"


def test_certificate_pinned_across_commits():
    buf = io.StringIO()
    rep = prove_case(
        T1_OUT,
        lambda_range=(0.98, 0.99),
        budget=ProverBudget(cells=4, max_boxes=2000),
        certificate=buf,
    )
    text = buf.getvalue()
    assert (rep.boxes_proven, rep.boxes_pruned_infeasible, len(rep.failures)) == (
        145,
        42,
        29,
    )
    assert text.count("\n") == 217
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CERT_T1_098_SHA256


# SHA-256 of certificates with proven lines, and so with DENSITY suffixes, in
# both arities: (config, lambda range, budget, proven, pruned, failed, lines,
# hash), for evaluator "mu-rho-2".
CERTS_WITH_DENSITY = [
    (
        T1_OUT,
        (0.5, 0.501),
        ProverBudget(cells=4, max_boxes=4000),
        (265, 45, 0),
        311,
        "d1e67c314e28705ba7d5dd4bef46926748904df06a389cb850fa40589a7253a0",
    ),
    (
        T7_IN,
        (0.5, 0.501),
        ProverBudget(cells=4, max_boxes=20000),
        (239, 235, 0),
        475,
        "9fb1939aad733211553b8182e5dbb44c0a47af9f21922f84b9c80acf3c14b39c",
    ),
]


@pytest.mark.parametrize("case", range(len(CERTS_WITH_DENSITY)))
def test_certificate_with_density_pinned_across_commits(case):
    cfg, lambda_range, budget, counts, n_lines, digest = CERTS_WITH_DENSITY[case]
    buf = io.StringIO()
    rep = prove_case(cfg, lambda_range=lambda_range, budget=budget, certificate=buf)
    text = buf.getvalue()
    assert (rep.boxes_proven, rep.boxes_pruned_infeasible, len(rep.failures)) == counts
    assert text.count("\n") == n_lines
    assert text.count(" DENSITY [") == rep.boxes_proven
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _hand_built_rows(arity):
    """Bound rows whose values stress repr and the de-duplication: signed
    zeros side by side, the smallest subnormal, neighbours one ulp apart,
    17-digit values, values repeated across columns, and np.float64 scalars."""
    tiny = 5e-324
    third = 1.0 / 3.0
    up = float(np.nextafter(third, 1.0))
    specials = [
        [-0.0, 0.0], [0.0, -0.0], [tiny, tiny], [third, up], [up, third],
        [0.1 + 0.2, 0.30000000000000004], [0.1, np.float64(0.1)],
        [np.float64(0.98), float(np.nextafter(0.98, 0.0))], [0.5, 0.99],
        [1e-300, 1.7976931348623157e308], [2.0 ** -1074 * 3, 0.1234567890123456789],
    ]
    width = 2 + 2 * arity
    return [
        [x for k in range(width // 2) for x in specials[(i + 3 * k) % len(specials)]]
        for i in range(3 * len(specials))
    ]


def _lines(cfg, rows, status, density):
    """The lines _write_lines appends for rows that all belong to one cell."""
    texts = [[]]
    prover._write_lines(cfg, texts, np.zeros(len(rows), dtype=int), rows, status, density)
    return "".join(texts[0]).splitlines(keepends=True)


@pytest.mark.parametrize("cfg", [T1_OUT, T7_IN], ids=["arity2", "arity3"])
def test_certificate_lines_equal_the_per_line_oracle(cfg):
    rows = _hand_built_rows(cfg.arity)
    n = len(rows)
    status = np.array([(prover._PRUNED, prover._PROVEN)[i % 2] for i in range(n)])
    d_lo = np.array([np.nan if i % 3 == 0 else rows[i][(i % 4)] for i in range(n)])
    d_hi = np.array([np.nan if i % 3 == 0 else rows[i][-1 - (i % 4)] for i in range(n)])
    got = _lines(cfg, np.array(rows), status, (d_lo, d_hi))
    want = [
        box_line(cfg, row, ("pruned", "proven")[s], lo, hi)
        for row, s, lo, hi in zip(rows, status.tolist(), d_lo.tolist(), d_hi.tolist())
    ]
    assert got == want
    text = "".join(got)
    assert "np.float64" not in text and "'" not in text
    assert "mu=[-0.0,0.0]" in text and "mu=[0.0,-0.0]" in text
    # Failed rows: NaN densities, as _run_cell passes them.
    nan = np.full(n, np.nan)
    failed = _lines(cfg, np.array(rows), np.full(n, prover._UNDECIDED), (nan, nan))
    assert failed == [box_line(cfg, row, "failed") for row in rows]


def test_certificate_lines_go_to_their_cells_one_write_per_slice(monkeypatch):
    """Rows of three cells, cut into slices of 7 rows: each cell's text gets
    its own rows' lines in order, with one append per slice that holds its
    rows, and the text does not depend on the slicing. No rows append
    nothing."""
    rows = np.array(_hand_built_rows(2)[:20])
    owner = np.repeat([0, 1, 2], [5, 12, 3])
    status = np.full(len(rows), prover._PROVEN)
    density = (rows[:, 2].copy(), rows[:, 5].copy())
    want = [
        [box_line(T1_OUT, row, "proven", lo, hi)
         for row, lo, hi, o in zip(rows, *density, owner) if o == c]
        for c in range(3)
    ]
    for batch_rows, appends in ((2048, [1, 1, 1]), (7, [1, 3, 1])):
        monkeypatch.setattr(prover, "_BATCH_ROWS", batch_rows)
        texts = [[] for _ in range(3)]
        prover._write_lines(T1_OUT, texts, owner, rows, status, density)
        assert ["".join(t).splitlines(keepends=True) for t in texts] == want
        assert [len(t) for t in texts] == appends
    texts = [[]]
    empty = np.zeros(0)
    prover._write_lines(
        T1_OUT, texts, np.zeros(0, dtype=int), np.zeros((0, 6)), np.zeros(0, dtype=int),
        (empty, empty),
    )
    assert texts == [[]]


_CERT_BOUNDS = re.compile(r"(?:mu|rho\d)=\[([^,\]]+),([^\]]+)\]")


def test_budget_cut_cells_stay_in_budget_and_tile_the_domain(tmp_path):
    """A run whose budget cuts every cell: no cell processes more than its
    share of max_boxes, and the proven, pruned and failed boxes of the
    certificate tile the root box, so merging open halves into their parents
    neither loses nor doubles a part of the domain."""
    ck = os.fspath(tmp_path / "t1.jsonl")
    buf = io.StringIO()
    budget = ProverBudget(cells=4, max_boxes=2000)
    rep = prove_case(
        T1_OUT,
        lambda_range=(0.98, 0.99),
        budget=budget,
        checkpoint=ck,
        certificate=buf,
    )
    with open(ck, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh][1:]
    assert len(records) == budget.cells
    assert all(rec["processed"] <= budget.max_boxes // budget.cells for rec in records)
    assert rep.failures

    lines = buf.getvalue().splitlines()[:-1]
    boxes = np.array([[[float(x) for x in pair] for pair in _CERT_BOUNDS.findall(line)]
                      for line in lines])
    assert boxes.shape == (len(lines), 3, 2)
    root_lo, root_hi = make_root_box(T1_OUT, (0.98, 0.99))
    points = np.random.default_rng(20261018).uniform(root_lo[0], root_hi[0], size=(2000, 3))
    inside = (
        (boxes[None, :, :, 0] < points[:, None, :])
        & (points[:, None, :] < boxes[None, :, :, 1])
    ).all(axis=2)
    assert (inside.sum(axis=1) == 1).all()


def test_failures_are_the_certificates_failed_rows(tmp_path):
    """ProofReport.failures of a budget-cut run holds the bound rows of the
    certificate's `failed` lines, in their order, and so does the same run
    without a certificate."""
    ck = os.fspath(tmp_path / "t1.jsonl")
    buf = io.StringIO()
    run = {"lambda_range": (0.98, 0.99), "budget": ProverBudget(cells=4, max_boxes=2000)}
    rep = prove_case(T1_OUT, **run, checkpoint=ck, certificate=buf)
    rows = [
        [float(x) for pair in _CERT_BOUNDS.findall(line) for x in pair]
        for line in buf.getvalue().splitlines()
        if line.endswith(" VERDICT failed")
    ]
    assert len(rows) == 29
    assert rep.failures == rows
    assert prove_case(T1_OUT, **run, checkpoint=ck).failures == rows


def test_budget_exhaustion_reports_failures():
    rep = prove_case(
        T1_OUT,
        lambda_range=(0.5, 0.6),
        budget=ProverBudget(cells=4, max_boxes=40, max_depth=6),
    )
    assert rep.failures
    for row in rep.failures:
        assert len(row) == 2 + 2 * T1_OUT.arity
        assert 0.4 <= row[0] <= row[1] <= 0.5  # mu = 1 - lambda
        assert all(0.0 <= x <= 0.5 for x in row[2:])


def test_certified_configs_orientations():
    assert len(certified_configs(ConfigTag.T1)) == 1
    assert certified_configs(ConfigTag.T1)[0].orientation is Orientation.OUTER_FIRST
    assert len(certified_configs(ConfigTag.T5)) == 1
    for tag in (ConfigTag.T2, ConfigTag.T3, ConfigTag.T4, ConfigTag.T6,
                ConfigTag.T7, ConfigTag.T8):
        assert len(certified_configs(tag)) == 2
