import hashlib
import io
import json
import os
import random
import re
import tempfile

import numpy as np
import pytest

from diskpack import prover
from diskpack.intervals import Interval, UndefinedIntervalError, iv_mul, iv_sub
from diskpack.prover import (
    EVALUATOR_VERSION,
    CaseBox,
    ConfigTag,
    ConfigType,
    Feasibility,
    Orientation,
    ProverBudget,
    admissible,
    certified_configs,
    eval_density,
    make_root_box,
    prove_case,
    _split_box,
    _normalizers,
    _run_cell,
    _sector_terms,
)

from oracle_pointeval import point_density
from oracle_sector_terms import iv_point

T1_OUT = ConfigType(ConfigTag.T1, Orientation.OUTER_FIRST)
T2_OUT = ConfigType(ConfigTag.T2, Orientation.OUTER_FIRST)


def point_box(cfg, lam, *rs):
    return CaseBox(Interval(lam, lam), tuple(Interval(r, r) for r in rs), cfg)


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_width_violation():
    box = point_box(T2_OUT, 0.5, 0.3, 0.1)
    assert admissible(box) is Feasibility.INFEASIBLE


def test_admissible_exact_fit():
    box = point_box(T2_OUT, 0.5, 0.25, 0.25)
    assert admissible(box) is Feasibility.FEASIBLE


def test_admissible_straddling_box():
    box = CaseBox(
        Interval(0.5, 0.6),
        (Interval(0.1, 0.2), Interval(0.0, 0.01)),
        T2_OUT,
    )
    assert admissible(box) is Feasibility.UNDECIDED


def test_admissible_ordering_constraint():
    box = point_box(T2_OUT, 0.6, 0.1, 0.15)  # r2 > r1
    assert admissible(box) is Feasibility.INFEASIBLE


def test_admissible_arity3_pass_bound():
    cfg = ConfigType(ConfigTag.T6, Orientation.OUTER_FIRST)
    # r3 below its pass bound (1-lambda-2*r2)/2 = 0.1
    box = point_box(cfg, 0.5, 0.2, 0.15, 0.05)
    assert admissible(box) is Feasibility.INFEASIBLE
    box = point_box(cfg, 0.5, 0.2, 0.15, 0.12)
    assert admissible(box) is Feasibility.FEASIBLE


# ---------------------------------------------------------------------------
# eval_density


def test_eval_density_t1_point_matches_oracle():
    box = point_box(T1_OUT, 0.5, 0.25, 0.25)
    d = eval_density(box)
    p = float(point_density("T1", "outer", 0.5, 0.25, 0.25))
    assert d.lo <= p <= d.hi
    assert d.lo >= 0.5642
    assert p == pytest.approx(0.7703677279188862, abs=1e-12)


def test_eval_density_t2_point_matches_oracle():
    box = point_box(T2_OUT, 0.5, 0.25, 0.25)
    d = eval_density(box)
    p = float(point_density("T2", "outer", 0.5, 0.25, 0.25))
    assert d.lo <= p <= d.hi
    assert d.width < 1e-10


def test_eval_density_contains_midpoint():
    box = CaseBox(
        Interval(0.52, 0.525),
        (Interval(0.16, 0.165), Interval(0.12, 0.125)),
        T2_OUT,
    )
    d = eval_density(box)
    p = float(point_density("T2", "outer", 0.5225, 0.1625, 0.1225))
    assert d.lo <= p <= d.hi


def test_eval_density_infeasible_box_raises():
    # Tiny radii in a wide ring: tangency impossible anywhere in the box.
    box = CaseBox(
        Interval(0.5, 0.5),
        (Interval(0.001, 0.002), Interval(0.001, 0.002)),
        T2_OUT,
    )
    with pytest.raises(UndefinedIntervalError):
        eval_density(box)


def _random_feasible_box(rng, cfg, max_width):
    for _ in range(200):
        lam = rng.uniform(0.5, 0.99)
        r1max = (1 - lam) / 2
        r1 = rng.uniform(0.02 * r1max, r1max)
        lo2 = max(0.0, (1 - lam - 2 * r1) / 2)
        if lo2 > r1:
            continue
        r2 = rng.uniform(lo2, r1)
        rs = [r1, r2]
        if cfg.arity == 3:
            lo3 = max(0.0, (1 - lam - 2 * r2) / 2)
            if lo3 > r2:
                continue
            rs.append(rng.uniform(lo3, r2))
        w = rng.uniform(1e-6, max_width)
        dims = [lam] + rs
        ivs = [Interval(max(0.0, v - w / 2), v + w / 2) for v in dims]
        ivs[0] = Interval(max(0.5, ivs[0].lo), min(0.99, ivs[0].hi))
        box = CaseBox(ivs[0], tuple(ivs[1:]), cfg)
        if _sector_terms(box) is not None:
            return box
    raise AssertionError("could not sample a feasible box")


def test_eval_density_enclosure_fuzz_small():
    """Point densities at interior points always land inside the interval
    (the 10^4 x 10^2 version runs in the acceptance suite)."""
    rng = random.Random(12345)
    configs = [c for tag in ConfigTag for c in certified_configs(tag)]
    checked = 0
    for i in range(300):
        cfg = configs[i % len(configs)]
        box = _random_feasible_box(rng, cfg, max_width=5e-3)
        try:
            d = eval_density(box)
        except UndefinedIntervalError:
            continue
        lam = np.random.default_rng(i).uniform(box.lambda_.lo, box.lambda_.hi, 40)
        rs = [
            np.random.default_rng(1000 + i + k).uniform(iv.lo, iv.hi, 40)
            for k, iv in enumerate(box.r)
        ]
        vals = point_density(
            cfg.tag.value,
            cfg.orientation.value,
            lam,
            rs[0],
            rs[1],
            rs[2] if cfg.arity == 3 else None,
        )
        finite = vals[np.isfinite(vals)]
        checked += finite.size
        assert np.all(finite >= d.lo) and np.all(finite <= d.hi)
    assert checked > 3000


# ---------------------------------------------------------------------------
# branch and bound


def test_make_root_box_respects_limits():
    root = make_root_box(T1_OUT, (0.4, 1.5))
    assert root.lambda_ == Interval(0.5, 0.99)
    assert root.r[0].hi == pytest.approx(0.25)


def test_split_box_halves_widest():
    root = make_root_box(T1_OUT, (0.5, 0.6))
    norms = _normalizers(root)
    a, b = _split_box(root, norms)
    # Exactly one dimension is bisected; the halves tile the parent.
    dims_root = [root.lambda_] + list(root.r)
    dims_a = [a.lambda_] + list(a.r)
    dims_b = [b.lambda_] + list(b.r)
    changed = [
        i for i in range(len(dims_root)) if dims_a[i] != dims_root[i]
    ]
    assert len(changed) == 1
    k = changed[0]
    assert dims_a[k].lo == dims_root[k].lo
    assert dims_a[k].hi == dims_b[k].lo
    assert dims_b[k].hi == dims_root[k].hi
    # Widest normalized dimension wins: on the fresh root all are width 1.0
    # relative, so the tie goes to the first dimension (lambda).
    assert k == 0
    # After splitting lambda, a much wider r1 must be chosen next.
    aa, _ = _split_box(a, norms)
    assert aa.r[0] != a.r[0] or aa.lambda_ != a.lambda_


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


def test_prove_case_empty_domain_all_pruned():
    cell = [0.5, 0.5, 0.3, 0.31, 0.0, 0.1]
    (rec,) = _run_cell(([0], T2_OUT, [cell], 0.5642, 60, 1000, (1.0, 1.0, 1.0), None))
    assert rec["proven"] == 0
    assert not rec["failures"]
    assert rec["pruned"] > 0
    assert rec["processed"] == rec["pruned"]


def test_prove_case_worker_count_invariance():
    results = []
    for workers in (1, 2, 5):
        rep = prove_case(
            T1_OUT,
            lambda_range=(0.5, 0.53),
            budget=ProverBudget(cells=32),
            workers=workers,
        )
        results.append(
            (
                rep.boxes_proven,
                rep.boxes_pruned_infeasible,
                rep.boxes_processed,
                len(rep.failures),
            )
        )
    assert results[0] == results[1] == results[2]
    # A budget-cut range: its 64 cells (40 rounded up by the pre-split) run
    # in groups of 16, 16, 11 and 7 cells, the last two with a short tail
    # group, and give the same failures and certificate text.
    runs = []
    for workers in (1, 2, 3, 5):
        buf = io.StringIO()
        rep = prove_case(
            T1_OUT,
            lambda_range=(0.98, 0.99),
            budget=ProverBudget(cells=40, max_boxes=4000),
            workers=workers,
            certificate=buf,
        )
        runs.append((rep.failures, buf.getvalue()))
    assert runs[0][0]
    assert all(run == runs[0] for run in runs[1:])


def _proves(box, b_d):
    """The prover's margin test; None when the box is infeasible everywhere."""
    terms = _sector_terms(box)
    if terms is None:
        return None
    area, pot = terms
    return iv_sub(pot, iv_mul(iv_point(b_d), area)).lo >= 0.0


def test_prove_monotone_children_of_proven_box():
    rng = random.Random(7)
    root = make_root_box(T2_OUT, (0.5, 0.6))
    norms = _normalizers(root)

    checked = 0
    for _ in range(200):
        box = _random_feasible_box(rng, T2_OUT, max_width=2e-3)
        if _proves(box, 0.5642):
            a, b = _split_box(box, norms)
            assert _proves(a, 0.5642) in (True, None)
            assert _proves(b, 0.5642) in (True, None)
            checked += 1
    assert checked > 50


def test_checkpoint_resume(tmp_path):
    ck = os.fspath(tmp_path / "t1.jsonl")
    full = prove_case(
        T1_OUT, lambda_range=(0.5, 0.51), budget=ProverBudget(cells=8)
    )
    first = prove_case(
        T1_OUT,
        lambda_range=(0.5, 0.51),
        budget=ProverBudget(cells=8),
        checkpoint=ck,
    )
    assert os.path.exists(ck)
    resumed = prove_case(
        T1_OUT,
        lambda_range=(0.5, 0.51),
        budget=ProverBudget(cells=8),
        checkpoint=ck,
        resume=True,
    )
    for rep in (first, resumed):
        assert (rep.boxes_proven, rep.boxes_pruned_infeasible) == (
            full.boxes_proven,
            full.boxes_pruned_infeasible,
        )


def test_checkpoint_header_mismatch(tmp_path):
    ck = os.fspath(tmp_path / "t1.jsonl")
    prove_case(T1_OUT, lambda_range=(0.5, 0.505), budget=ProverBudget(cells=4), checkpoint=ck)
    with pytest.raises(ValueError):
        prove_case(
            T1_OUT,
            lambda_range=(0.5, 0.51),
            budget=ProverBudget(cells=4),
            checkpoint=ck,
            resume=True,
        )


# A bound far below the true one certifies in a few hundred boxes, which is
# all the checkpoint tests below need.
WEAK = {"lambda_range": (0.5, 0.6), "b_d": 0.3}


@pytest.mark.parametrize("evaluator", [None, "scalar-0", "levels-1"])
def test_checkpoint_refuses_another_evaluator(tmp_path, evaluator):
    ck = os.fspath(tmp_path / "t1.jsonl")
    budget = ProverBudget(cells=4)
    prove_case(T1_OUT, **WEAK, budget=budget, checkpoint=ck)
    with open(ck, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    header = json.loads(lines[0])
    assert header["header"]["evaluator"] == EVALUATOR_VERSION
    if evaluator is None:
        del header["header"]["evaluator"]
    else:
        header["header"]["evaluator"] = evaluator
    with open(ck, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n" + "".join(lines[1:3]))
    with pytest.raises(ValueError, match="header"):
        prove_case(T1_OUT, **WEAK, budget=budget, checkpoint=ck, resume=True)


def test_checkpoint_resume_after_torn_last_line(tmp_path):
    ck = os.fspath(tmp_path / "t1.jsonl")
    budget = ProverBudget(cells=8)
    full = prove_case(T1_OUT, **WEAK, budget=budget, checkpoint=ck)
    with open(ck, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    # A run killed while writing its fourth cell record.
    with open(ck, "w", encoding="utf-8") as fh:
        fh.write("".join(lines[:4]) + lines[4][: len(lines[4]) // 2])
    resumed = prove_case(
        T1_OUT, **WEAK, budget=budget, checkpoint=ck, resume=True
    )
    assert (
        resumed.boxes_proven,
        resumed.boxes_pruned_infeasible,
        resumed.boxes_processed,
        len(resumed.failures),
    ) == (
        full.boxes_proven,
        full.boxes_pruned_infeasible,
        full.boxes_processed,
        len(full.failures),
    )
    with open(ck, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 1 + budget.cells
    assert sorted(r["cell"] for r in records[1:]) == list(range(budget.cells))


def test_checkpoint_malformed_inner_line_raises(tmp_path):
    ck = os.fspath(tmp_path / "t1.jsonl")
    budget = ProverBudget(cells=4)
    prove_case(T1_OUT, **WEAK, budget=budget, checkpoint=ck)
    with open(ck, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[2] = lines[2][:10] + "\n"
    with open(ck, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    with pytest.raises(json.JSONDecodeError):
        prove_case(
            T1_OUT, **WEAK, budget=budget, checkpoint=ck, resume=True
        )


def test_certificate_refuses_a_resumed_run(tmp_path):
    ck = os.fspath(tmp_path / "t1.jsonl")
    budget = ProverBudget(cells=8)
    prove_case(T1_OUT, **WEAK, budget=budget, checkpoint=ck)
    with open(ck, encoding="utf-8") as fh:
        head = fh.readlines()[:4]
    with open(ck, "w", encoding="utf-8") as fh:
        fh.writelines(head)
    buf = io.StringIO()
    with pytest.raises(ValueError, match="fresh run"):
        prove_case(
            T1_OUT,
            **WEAK,
            budget=budget,
            checkpoint=ck,
            resume=True,
            certificate=buf,
        )
    assert buf.getvalue() == ""
    # A resume over a checkpoint with no finished cell is a fresh run.
    with open(ck, "w", encoding="utf-8") as fh:
        fh.writelines(head[:1])
    rep = prove_case(
        T1_OUT,
        **WEAK,
        budget=budget,
        checkpoint=ck,
        resume=True,
        certificate=buf,
    )
    leaves = rep.boxes_proven + rep.boxes_pruned_infeasible + len(rep.failures)
    assert buf.getvalue().count("\n") == leaves + 1


def test_interrupted_certified_run_leaves_no_cell_logs(tmp_path, monkeypatch):
    """A run stopped in its second group of cells removes its cell logs and
    leaves a checkpoint with the header and the first group's records, which
    a resume finishes by running the other cells only."""
    monkeypatch.setattr(tempfile, "tempdir", os.fspath(tmp_path))
    ck = os.fspath(tmp_path / "t1.jsonl")
    run = {"lambda_range": (0.5, 0.505), "budget": ProverBudget(cells=4)}
    ran, stop = [], [1]

    def run_cell(task):
        if len(ran) in stop:
            raise KeyboardInterrupt
        ran.append(task[0])
        return _run_cell(task)

    monkeypatch.setattr(prover, "_run_cell", run_cell)
    with pytest.raises(KeyboardInterrupt):
        prove_case(T1_OUT, **run, checkpoint=ck, certificate=io.StringIO())
    assert ran == [[0, 1]]
    assert os.listdir(tmp_path) == ["t1.jsonl"]
    with open(ck, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    assert "header" in lines[0] and [rec["cell"] for rec in lines[1:]] == [0, 1]

    ran.clear()
    stop.clear()
    resumed = prove_case(T1_OUT, **run, checkpoint=ck, resume=True)
    assert ran == [[2], [3]]
    full = prove_case(T1_OUT, **run)
    assert (resumed.boxes_processed, resumed.failures) == (full.boxes_processed, full.failures)


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
        assert line.startswith("CASE T1 ORIENT outer BOX λ=[")
        assert " VERDICT " in line
        verdict = line.split(" VERDICT ")[1].split()[0]
        assert verdict in {"proven", "pruned", "failed"}
    # One record per leaf verdict (split boxes are interior nodes).
    leaves = rep.boxes_proven + rep.boxes_pruned_infeasible + len(rep.failures)
    assert len(body) == leaves


# SHA-256 of the certificate that T1/outer on lambda in [0.98, 0.99] with
# ProverBudget(cells=4, max_boxes=2000) writes under the rule that stops a
# cell between levels and merges its open boxes (evaluator "levels-2"; 461
# lines: 0 proven, 283 pruned, 177 failed, and the SUMMARY line).
CERT_T1_098_SHA256 = "116f622af7075db6b737b3a2d2f5b243d97fe31ef0a2fae85ecd3449e269897f"


@pytest.mark.parametrize("workers", [1, 2])
def test_certificate_pinned_across_commits(workers):
    buf = io.StringIO()
    rep = prove_case(
        T1_OUT,
        lambda_range=(0.98, 0.99),
        budget=ProverBudget(cells=4, max_boxes=2000),
        workers=workers,
        certificate=buf,
    )
    text = buf.getvalue()
    assert (rep.boxes_proven, rep.boxes_pruned_infeasible, len(rep.failures)) == (
        0,
        283,
        177,
    )
    assert text.count("\n") == 461
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CERT_T1_098_SHA256


_CERT_BOUNDS = re.compile(r"(?:λ|r\d)=\[([^,\]]+),([^\]]+)\]")


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
    root = make_root_box(T1_OUT, (0.98, 0.99))
    root_lo = np.array([root.lambda_.lo] + [iv.lo for iv in root.r])
    root_hi = np.array([root.lambda_.hi] + [iv.hi for iv in root.r])
    points = np.random.default_rng(20261018).uniform(root_lo, root_hi, size=(2000, 3))
    inside = (
        (boxes[None, :, :, 0] < points[:, None, :])
        & (points[:, None, :] < boxes[None, :, :, 1])
    ).all(axis=2)
    assert (inside.sum(axis=1) == 1).all()


def test_failures_are_the_certificates_failed_rows(tmp_path):
    """ProofReport.failures of a budget-cut run holds the bound rows of the
    certificate's `failed` lines, in their order, and a run resumed from the
    checkpoint (two cells read back, two run again) reports the same rows."""
    ck = os.fspath(tmp_path / "t1.jsonl")
    buf = io.StringIO()
    run = {"lambda_range": (0.98, 0.99), "budget": ProverBudget(cells=4, max_boxes=2000)}
    rep = prove_case(T1_OUT, **run, checkpoint=ck, certificate=buf)
    rows = [
        [float(x) for pair in _CERT_BOUNDS.findall(line) for x in pair]
        for line in buf.getvalue().splitlines()
        if line.endswith(" VERDICT failed")
    ]
    assert len(rows) == 177
    assert rep.failures == rows
    with open(ck, encoding="utf-8") as fh:
        head = fh.readlines()[:3]
    with open(ck, "w", encoding="utf-8") as fh:
        fh.writelines(head)
    resumed = prove_case(T1_OUT, **run, checkpoint=ck, resume=True)
    assert resumed.failures == rows


def test_budget_exhaustion_reports_failures():
    rep = prove_case(
        T1_OUT,
        lambda_range=(0.5, 0.6),
        budget=ProverBudget(cells=4, max_boxes=40, max_depth=6),
    )
    assert rep.failures
    for row in rep.failures:
        assert len(row) == 2 + 2 * T1_OUT.arity
        assert 0.5 <= row[0] <= row[1] <= 0.6


def test_certified_configs_orientations():
    assert len(certified_configs(ConfigTag.T1)) == 1
    assert certified_configs(ConfigTag.T1)[0].orientation is Orientation.OUTER_FIRST
    assert len(certified_configs(ConfigTag.T5)) == 1
    for tag in (ConfigTag.T2, ConfigTag.T3, ConfigTag.T4, ConfigTag.T6,
                ConfigTag.T7, ConfigTag.T8):
        assert len(certified_configs(tag)) == 2
