"""Interval branch-and-bound certification of the ring-sector density bound.

For each edge-configuration type (T1..T8) over its admissible variable domain
(ring proportion lambda in [1/2, 0.99] with outer radius 1, disk radii
r1 >= r2 (>= r3)), the prover certifies that the sector density is at least a
target bound b_d by subdividing the domain into hypercuboids and evaluating
the density in interval arithmetic. A box counts as proven only when the
enclosure guarantees potential - b_d * area >= 0 for every point of the box;
the prover can therefore never certify a false bound, only fail to certify.

Parallel runs pre-split the domain into a fixed number of cells independent of
the worker count; each cell is processed by a deterministic depth-first search,
so verdict counts are identical for any number of workers.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .intervals import (
    Interval,
    UndefinedIntervalError,
    iv_add,
    iv_acos,
    iv_asin,
    iv_div,
    iv_max,
    iv_min,
    iv_mul,
    iv_pi,
    iv_point,
    iv_sub,
)

__all__ = [
    "ConfigTag",
    "Orientation",
    "ConfigType",
    "CaseBox",
    "Feasibility",
    "ProverBudget",
    "ProofReport",
    "admissible",
    "eval_density",
    "make_root_box",
    "certified_configs",
    "prove_case",
    "DENSITY_BOUND",
    "LAMBDA_MAX",
]

DENSITY_BOUND = 0.5642
LAMBDA_MAX = 0.99

_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)
_HALF = Interval(0.5, 0.5)
_TWO = Interval(2.0, 2.0)
_PI = iv_pi()


class ConfigTag(Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"
    T7 = "T7"
    T8 = "T8"


# Start edges: the first disk of a zipper is always placed adjacent to the
# OUTER ring boundary (alternation starts outer), so only that orientation is
# a realizable configuration; the inner-first variant genuinely violates the
# bound and is excluded.
_START_TAGS = frozenset({ConfigTag.T1, ConfigTag.T5})
_VERTICAL_TAGS = frozenset({ConfigTag.T5, ConfigTag.T6, ConfigTag.T7, ConfigTag.T8})


class Orientation(Enum):
    OUTER_FIRST = "outer"
    INNER_FIRST = "inner"


@dataclass(frozen=True)
class ConfigType:
    tag: ConfigTag
    orientation: Orientation = Orientation.OUTER_FIRST

    @property
    def arity(self) -> int:
        return 3 if self.tag in _VERTICAL_TAGS else 2

    @property
    def label(self) -> str:
        return f"{self.tag.value}/{self.orientation.value}"


def certified_configs(tag: ConfigTag) -> Tuple[ConfigType, ...]:
    """Orientations certified for a tag (outer-first only for start edges)."""
    if tag in _START_TAGS:
        return (ConfigType(tag, Orientation.OUTER_FIRST),)
    return (
        ConfigType(tag, Orientation.OUTER_FIRST),
        ConfigType(tag, Orientation.INNER_FIRST),
    )


@dataclass(frozen=True)
class CaseBox:
    lambda_: Interval
    r: Tuple[Interval, ...]
    config: ConfigType
    depth: int = 0

    def as_tuple(self) -> tuple:
        parts = [self.lambda_.lo, self.lambda_.hi]
        for iv in self.r:
            parts.extend((iv.lo, iv.hi))
        return tuple(parts)


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ProverBudget:
    max_depth: int = 60
    max_boxes: int = 20_000_000
    cells: int = 256


@dataclass
class ProofReport:
    config: ConfigType
    bound: float
    boxes_proven: int = 0
    boxes_pruned_infeasible: int = 0
    max_depth: int = 0
    failures: List[CaseBox] = field(default_factory=list)
    wall_time: float = 0.0
    boxes_processed: int = 0

    @property
    def certified(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        return (
            f"SUMMARY case={self.config.tag.value} orient={self.config.orientation.value} "
            f"proven={self.boxes_proven} pruned={self.boxes_pruned_infeasible} "
            f"failed={len(self.failures)} max_depth={self.max_depth} "
            f"bound={self.bound!r}"
        )


# ---------------------------------------------------------------------------
# Admissibility
#
# Constraint system (all must hold for a point to be admissible):
#   2*r1 <= 1 - lambda          (the largest disk fits the ring widthwise)
#   r2 >= (1 - lambda - 2*r1)/2 (else r2 would start a new ring: pass bound)
#   r2 <= r1, and for arity 3:  r3 <= r2, r3 >= (1 - lambda - 2*r2)/2
#
# Every constraint is affine, so box extrema sit at corners.


def _constraint_corners(box: CaseBox):
    lam, r = box.lambda_, box.r
    cons = []
    # g = 2*r1 + lambda - 1 <= 0
    cons.append((2.0 * r[0].lo + lam.lo - 1.0, 2.0 * r[0].hi + lam.hi - 1.0))
    # g = (1 - lambda)/2 - r1 - r2 <= 0
    cons.append(
        (
            (1.0 - lam.hi) / 2.0 - r[0].hi - r[1].hi,
            (1.0 - lam.lo) / 2.0 - r[0].lo - r[1].lo,
        )
    )
    # g = r2 - r1 <= 0
    cons.append((r[1].lo - r[0].hi, r[1].hi - r[0].lo))
    if len(r) == 3:
        cons.append(
            (
                (1.0 - lam.hi) / 2.0 - r[1].hi - r[2].hi,
                (1.0 - lam.lo) / 2.0 - r[1].lo - r[2].lo,
            )
        )
        cons.append((r[2].lo - r[1].hi, r[2].hi - r[1].lo))
    return cons


def admissible(box: CaseBox) -> Feasibility:
    """Interval verdict for the admissibility constraint system on a box."""
    all_satisfied = True
    for g_min, g_max in _constraint_corners(box):
        if g_min > 0.0:
            return Feasibility.INFEASIBLE
        if g_max > 0.0:
            all_satisfied = False
    return Feasibility.FEASIBLE if all_satisfied else Feasibility.UNDECIDED


# ---------------------------------------------------------------------------
# Configuration geometry (interval arithmetic)


def _cos_tangency(d1: Interval, d2: Interval, gap: Interval) -> Optional[Interval]:
    """Enclosure of the law-of-cosines cosine for the tangency angle,
    intersected with [-1, 1]. Points with cosine outside [-1, 1] violate the
    admissibility constraints, so they lie outside the quantified domain; an
    empty intersection means the whole box is infeasible (returns None)."""
    num = iv_sub(iv_add(iv_mul(d1, d1), iv_mul(d2, d2)), iv_mul(gap, gap))
    den = iv_mul(_TWO, iv_mul(d1, d2))
    c = iv_div(num, den)
    lo = max(c.lo, -1.0)
    hi = min(c.hi, 1.0)
    if lo > hi:
        return None
    return Interval(lo, hi)


def _sector_terms(box: CaseBox) -> Optional[Tuple[Interval, Interval]]:
    """(area, potential) enclosures for the box's configuration, or None when
    the tangency system is infeasible over the entire box."""
    cfg = box.config
    lam = box.lambda_
    outer_first = cfg.orientation is Orientation.OUTER_FIRST
    r1 = box.r[0]

    k_ring = iv_mul(iv_sub(_ONE, iv_mul(lam, lam)), _HALF)
    d_j = iv_sub(_ONE, r1) if outer_first else iv_add(lam, r1)
    h_j = iv_asin(iv_div(r1, d_j))
    tag = cfg.tag

    if cfg.arity == 2:
        rm = box.r[1]
        d_m = iv_add(lam, rm) if outer_first else iv_sub(_ONE, rm)
        cos_m = _cos_tangency(d_j, d_m, iv_add(r1, rm))
        if cos_m is None:
            return None
        th_m = iv_acos(cos_m)
        h_m = iv_asin(iv_div(rm, d_m))
        k_m = iv_mul(_TWO, iv_mul(d_m, rm))
        if tag is ConfigTag.T1:
            span = iv_max(iv_add(th_m, h_j), h_m)
            area = iv_mul(span, k_ring)
            pot = iv_mul(_PI, iv_add(iv_mul(r1, r1), iv_mul(iv_mul(rm, rm), _HALF)))
        elif tag is ConfigTag.T2:
            area = iv_mul(th_m, k_ring)
            pot = iv_mul(_PI, iv_mul(iv_add(iv_mul(r1, r1), iv_mul(rm, rm)), _HALF))
        elif tag is ConfigTag.T3:
            # Exposed part of the R_m band: max(th+h_m, 2h_m) - min(h_j, th+h_m),
            # expanded so each angle enters each min/max argument once.
            s = iv_sub(h_m, h_j)
            exposed = iv_max(
                iv_max(iv_add(th_m, s), _ZERO),
                iv_max(iv_add(h_m, s), iv_sub(h_m, th_m)),
            )
            area = iv_add(iv_mul(h_j, k_ring), iv_mul(exposed, k_m))
            pot = iv_mul(_PI, iv_add(iv_mul(iv_mul(r1, r1), _HALF), iv_mul(rm, rm)))
        else:  # T4
            # Exposed part of the R_m band:
            # 2h_m - max(0, min(h_j, th+h_m) - max(-h_j, th-h_m))
            #   = min(2h_m, max(0, 2(h_m-h_j), (h_m-h_j)+th))
            s = iv_sub(h_m, h_j)
            exposed = iv_min(
                iv_mul(_TWO, h_m),
                iv_max(iv_max(_ZERO, iv_mul(_TWO, s)), iv_add(s, th_m)),
            )
            area = iv_add(
                iv_mul(iv_mul(_TWO, h_j), k_ring), iv_mul(exposed, k_m)
            )
            pot = iv_mul(_PI, iv_add(iv_mul(r1, r1), iv_mul(rm, rm)))
        return area, pot

    rp, rm = box.r[1], box.r[2]
    d_p = iv_add(lam, rp) if outer_first else iv_sub(_ONE, rp)
    d_m = iv_sub(_ONE, rm) if outer_first else iv_add(lam, rm)
    cos_p = _cos_tangency(d_j, d_p, iv_add(r1, rp))
    cos_m = _cos_tangency(d_j, d_m, iv_add(r1, rm))
    if cos_p is None or cos_m is None:
        return None
    th_p = iv_acos(cos_p)
    th_m = iv_acos(cos_m)
    h_p = iv_asin(iv_div(rp, d_p))
    h_m = iv_asin(iv_div(rm, d_m))
    k_m = iv_mul(_TWO, iv_mul(d_m, rm))
    sq1, sq2, sq3 = iv_mul(r1, r1), iv_mul(rp, rp), iv_mul(rm, rm)

    if tag is ConfigTag.T5:
        span = iv_max(iv_add(th_m, h_j), iv_add(iv_sub(th_m, th_p), h_p))
        area = iv_mul(span, k_ring)
        pot = iv_mul(_PI, iv_add(iv_add(sq1, sq2), iv_mul(sq3, _HALF)))
    elif tag is ConfigTag.T6:
        area = iv_mul(th_m, k_ring)
        pot = iv_mul(_PI, iv_add(sq2, iv_mul(iv_add(sq1, sq3), _HALF)))
    elif tag is ConfigTag.T7:
        end_p = iv_add(th_p, h_p)
        end_m = iv_add(th_m, h_m)
        area = iv_add(
            iv_mul(end_p, k_ring),
            iv_mul(iv_max(_ZERO, iv_sub(end_m, end_p)), k_m),
        )
        pot = iv_mul(_PI, iv_add(iv_add(iv_mul(sq1, _HALF), sq2), sq3))
    else:  # T8
        end1 = iv_max(h_j, iv_add(th_p, h_p))
        start1 = -iv_max(h_j, iv_sub(h_p, th_p))
        span1 = iv_sub(end1, start1)
        # Exposed part of the R_m band:
        # 2h_m - max(0, min(end1, th+h_m) - max(start1, th-h_m))
        #   = min(2h_m, max(0, 2h_m - span1, (th+h_m) - end1, start1 - (th-h_m)))
        exposed = iv_min(
            iv_mul(_TWO, h_m),
            iv_max(
                iv_max(_ZERO, iv_sub(iv_mul(_TWO, h_m), span1)),
                iv_max(
                    iv_sub(iv_add(th_m, h_m), end1),
                    iv_sub(start1, iv_sub(th_m, h_m)),
                ),
            ),
        )
        area = iv_add(iv_mul(span1, k_ring), iv_mul(exposed, k_m))
        pot = iv_mul(_PI, iv_add(iv_add(sq1, sq2), sq3))
    return area, pot


def eval_density(box: CaseBox) -> Interval:
    """Enclosure of the sector density potential/area over the box.

    Raises UndefinedIntervalError when the box is infeasible everywhere or the
    area enclosure touches zero (degenerate pass-bound boundary)."""
    terms = _sector_terms(box)
    if terms is None:
        raise UndefinedIntervalError("configuration infeasible over the whole box")
    area, pot = terms
    return iv_div(pot, area)


# ---------------------------------------------------------------------------
# Branch and bound


def make_root_box(
    config: ConfigType, lambda_range: Tuple[float, float] = (0.5, LAMBDA_MAX)
) -> CaseBox:
    lam_lo = max(0.5, lambda_range[0])
    lam_hi = min(LAMBDA_MAX, lambda_range[1])
    if lam_lo > lam_hi:
        raise ValueError(f"empty lambda range {lambda_range}")
    lam = Interval(lam_lo, lam_hi)
    r1_hi = (1.0 - lam_lo) / 2.0
    rs = tuple(Interval(0.0, r1_hi) for _ in range(config.arity))
    return CaseBox(lam, rs, config, depth=0)


def _normalizers(root: CaseBox) -> Tuple[float, ...]:
    widths = [root.lambda_.width] + [iv.width for iv in root.r]
    return tuple(w if w > 0.0 else 1.0 for w in widths)


def _split_box(box: CaseBox, norms: Sequence[float]) -> Tuple[CaseBox, CaseBox]:
    dims = [box.lambda_] + list(box.r)
    rel = [iv.width / norms[i] for i, iv in enumerate(dims)]
    k = max(range(len(rel)), key=lambda i: rel[i])
    target = dims[k]
    mid = target.mid
    lo_part = Interval(target.lo, mid)
    hi_part = Interval(mid, target.hi)

    def rebuild(part: Interval) -> CaseBox:
        if k == 0:
            return CaseBox(part, box.r, box.config, box.depth + 1)
        rs = list(box.r)
        rs[k - 1] = part
        return CaseBox(box.lambda_, tuple(rs), box.config, box.depth + 1)

    return rebuild(lo_part), rebuild(hi_part)


def _partition_cells(root: CaseBox, n_cells: int) -> List[CaseBox]:
    """Deterministic pre-split of the root into >= n_cells cells (each split
    round bisects every cell along its widest normalized dimension)."""
    norms = _normalizers(root)
    cells = [root]
    while len(cells) < n_cells:
        nxt: List[CaseBox] = []
        for cell in cells:
            a, b = _split_box(cell, norms)
            nxt.append(CaseBox(a.lambda_, a.r, a.config, 0))
            nxt.append(CaseBox(b.lambda_, b.r, b.config, 0))
        cells = nxt
    return cells


def _density(pot: Interval, area: Interval) -> Optional[Interval]:
    try:
        return iv_div(pot, area)
    except UndefinedIntervalError:
        return None


def _run_cell(task) -> dict:
    """Depth-first branch and bound over one cell; returns the cell's
    checkpoint record. `task` is (index, cell, b_d, max_depth, max_boxes,
    norms, cert_path); each box's terms are evaluated once and give both the
    verdict and the certificate's DENSITY."""
    index, cell, b_d, max_depth, max_boxes, norms, cert_path = task
    config = cell.config
    bound = iv_point(b_d)
    cert = open(cert_path, "w", encoding="utf-8") if cert_path else None

    def emit(box: CaseBox, verdict: str, density: Optional[Interval]) -> None:
        parts = [
            f"CASE {config.tag.value}",
            f"ORIENT {config.orientation.value}",
            "BOX",
            f"λ=[{box.lambda_.lo!r},{box.lambda_.hi!r}]",
        ]
        for i, iv in enumerate(box.r, start=1):
            parts.append(f"r{i}=[{iv.lo!r},{iv.hi!r}]")
        parts.append(f"VERDICT {verdict}")
        if density is not None:
            parts.append(f"DENSITY [{density.lo!r},{density.hi!r}]")
        cert.write(" ".join(parts) + "\n")

    proven = pruned = processed = 0
    max_depth_seen = 0
    failures: List[list] = []
    stack = [cell]
    try:
        while stack:
            box = stack.pop()
            processed += 1
            if box.depth > max_depth_seen:
                max_depth_seen = box.depth
            terms = None
            if admissible(box) is not Feasibility.INFEASIBLE:
                terms = _sector_terms(box)
            if terms is None:
                pruned += 1
                if cert is not None:
                    emit(box, "pruned", None)
                continue
            area, pot = terms
            if iv_sub(pot, iv_mul(bound, area)).lo >= 0.0:
                proven += 1
                if cert is not None:
                    emit(box, "proven", _density(pot, area))
                continue
            if box.depth >= max_depth or processed >= max_boxes:
                failures.append(list(box.as_tuple()))
                if cert is not None:
                    emit(box, "failed", _density(pot, area))
                continue
            a, b = _split_box(box, norms)
            stack.append(b)
            stack.append(a)
    finally:
        if cert is not None:
            cert.close()
    return {
        "cell": index,
        "proven": proven,
        "pruned": pruned,
        "processed": processed,
        "max_depth": max_depth_seen,
        "failures": failures,
    }


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _checkpoint_header(config, b_d, lambda_range, budget) -> dict:
    return {
        "case": config.tag.value,
        "orient": config.orientation.value,
        "bound": b_d,
        "lambda": list(lambda_range),
        "cells": budget.cells,
        "max_depth": budget.max_depth,
        "max_boxes": budget.max_boxes,
    }


def _read_checkpoint(path: str, header: dict) -> dict:
    """Records of the finished cells in a checkpoint, by cell index.

    A last line without its newline is the tail of a write that was cut off:
    it is dropped, and the file is cut back to its last complete line so that
    appended records start on a line of their own. Any other malformed line
    raises."""
    with open(path, "rb") as fh:
        data = fh.read()
    complete = data.rfind(b"\n") + 1
    done: dict = {}
    for line in data[:complete].decode("utf-8").splitlines():
        rec = json.loads(line)
        if "header" in rec:
            if rec["header"] != header:
                raise ValueError("checkpoint header does not match current parameters")
            continue
        done[rec["cell"]] = rec
    if complete < len(data):
        os.truncate(path, complete)
    return done


def prove_case(
    config: ConfigType,
    lambda_range: Tuple[float, float] = (0.5, LAMBDA_MAX),
    b_d: float = DENSITY_BOUND,
    budget: Optional[ProverBudget] = None,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    certificate=None,
) -> ProofReport:
    """Certify density >= b_d for one configuration over its admissible domain.

    The verdict set is deterministic and independent of `workers`. With
    `checkpoint`, completed cells are appended to a JSONL file that `resume`
    reads back to skip finished work. `certificate`, when given a writable
    text stream, receives one line per processed leaf box plus a summary; it
    needs a fresh run, since skipped cells would write no box lines."""
    budget = budget or ProverBudget()
    start = time.monotonic()
    root = make_root_box(config, lambda_range)
    norms = _normalizers(root)
    cells = _partition_cells(root, budget.cells)
    per_cell_budget = max(1, math.ceil(budget.max_boxes / len(cells)))

    header = _checkpoint_header(config, b_d, lambda_range, budget)
    done: dict = {}
    if resume and checkpoint and os.path.exists(checkpoint):
        done = _read_checkpoint(checkpoint, header)
    if done and certificate is not None:
        raise ValueError(
            f"checkpoint {checkpoint} already holds {len(done)} finished cell(s); "
            "a certificate needs a fresh run"
        )
    ck = None
    if checkpoint:
        mode = "a" if done else "w"
        ck = open(checkpoint, mode, encoding="utf-8")
        if mode == "w":
            ck.write(json.dumps({"header": header}) + "\n")
            ck.flush()

    cert_dir = None
    if certificate is not None:
        cert_dir = tempfile.mkdtemp(prefix="diskpack-cert-")

    tasks = [
        (
            i,
            cell,
            b_d,
            budget.max_depth,
            per_cell_budget,
            norms,
            os.path.join(cert_dir, f"cell{i:06d}.log") if cert_dir else None,
        )
        for i, cell in enumerate(cells)
        if i not in done
    ]

    def record(rec: dict) -> None:
        done[rec["cell"]] = rec
        if ck:
            ck.write(json.dumps(rec) + "\n")
            ck.flush()

    if workers <= 1 or len(tasks) <= 1:
        for t in tasks:
            record(_run_cell(t))
    else:
        ctx = _pool_context()
        with ctx.Pool(processes=workers) as pool:
            for rec in pool.imap_unordered(_run_cell, tasks):
                record(rec)
    if ck:
        ck.close()

    report = ProofReport(config=config, bound=b_d)
    for idx in sorted(done):
        rec = done[idx]
        report.boxes_proven += rec["proven"]
        report.boxes_pruned_infeasible += rec["pruned"]
        report.boxes_processed += rec["processed"]
        report.max_depth = max(report.max_depth, rec["max_depth"])
        for tup in rec["failures"]:
            report.failures.append(_box_from_tuple(config, tup))
    report.wall_time = time.monotonic() - start

    if cert_dir is not None:
        for i in range(len(cells)):
            path = os.path.join(cert_dir, f"cell{i:06d}.log")
            with open(path, "r", encoding="utf-8") as fh:
                certificate.write(fh.read())
            os.unlink(path)
        os.rmdir(cert_dir)
        certificate.write(report.summary_line() + "\n")
    return report


def _box_from_tuple(config: ConfigType, tup: Sequence[float]) -> CaseBox:
    lam = Interval(tup[0], tup[1])
    rs = tuple(
        Interval(tup[2 + 2 * i], tup[3 + 2 * i]) for i in range(config.arity)
    )
    return CaseBox(lam, rs, config)
