"""Scalar reference for the prover's batched kernel and its level search.

Independent oracle for `prover._sector_terms`, `prover.admissible`,
`prover.eval_density`, `prover._split_box` and `prover._run_cell`:
one-box-at-a-time interval code in the scale-free coordinates mu = 1 - lambda,
rho_i = r_i / mu with the half-angle tangency angle, and a search that builds
the tree of one cell explicitly, one node per box. A box here is a `CaseBox`
of scalar intervals, where the prover holds boxes only as rows of bound arrays
(`box_rows` converts). It uses only the scalar operations of
`oracle_intervals.py`. The batched kernel must give the same bits box by box,
and `_run_cell`, which searches all the cells it is given as one frontier,
the same record and certificate lines for each of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from diskpack.intervals import UndefinedIntervalError
from diskpack.prover import ConfigTag, ConfigType, Orientation
from oracle_intervals import (
    Interval,
    iv_add,
    iv_asinc,
    iv_div,
    iv_max,
    iv_min,
    iv_mul,
    iv_pi,
    iv_point,
    iv_sqrt,
    iv_sub,
)

_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)
_HALF = Interval(0.5, 0.5)
_TWO = Interval(2.0, 2.0)
_FOUR = Interval(4.0, 4.0)
_PI = iv_pi()


@dataclass(frozen=True)
class CaseBox:
    """A box of a configuration's domain: the ring width mu = 1 - lambda and
    the relative radii rho_i = r_i / mu (rho1, rho2 (, rho3))."""

    mu: Interval
    rho: Tuple[Interval, ...]
    config: ConfigType


class Feasibility(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


def box_rows(boxes: Sequence[CaseBox]) -> Tuple[np.ndarray, np.ndarray]:
    """The boxes as the prover's (lo, hi) bound arrays, one row per box."""
    lo = np.array([[b.mu.lo] + [iv.lo for iv in b.rho] for b in boxes])
    hi = np.array([[b.mu.hi] + [iv.hi for iv in b.rho] for b in boxes])
    return lo, hi


def constraint_corners(box: CaseBox):
    rho = box.rho
    cons = []
    # g = 2*rho1 - 1 <= 0
    cons.append((2.0 * rho[0].lo - 1.0, 2.0 * rho[0].hi - 1.0))
    # g = 1/2 - (rho1 + rho2) <= 0
    cons.append((0.5 - (rho[0].hi + rho[1].hi), 0.5 - (rho[0].lo + rho[1].lo)))
    # g = rho2 - rho1 <= 0
    cons.append((rho[1].lo - rho[0].hi, rho[1].hi - rho[0].lo))
    if len(rho) == 3:
        cons.append((0.5 - (rho[1].hi + rho[2].hi), 0.5 - (rho[1].lo + rho[2].lo)))
        cons.append((rho[2].lo - rho[1].hi, rho[2].hi - rho[1].lo))
    return cons


def admissible(box: CaseBox) -> Feasibility:
    """Interval verdict for the admissibility constraint system on a box."""
    all_satisfied = True
    for g_min, g_max in constraint_corners(box):
        if g_min > 0.0:
            return Feasibility.INFEASIBLE
        if g_max > 0.0:
            all_satisfied = False
    return Feasibility.FEASIBLE if all_satisfied else Feasibility.UNDECIDED


def distance(mu: Interval, rho: Interval, outer: bool) -> Interval:
    """Centre distance of a disk on the outer or the inner ring boundary."""
    return iv_sub(_ONE, iv_mul(mu, rho if outer else iv_sub(_ONE, rho)))


def half_width(mu: Interval, rho: Interval, d: Interval) -> Interval:
    """h/mu = asinc(mu*rho/d) * rho/d."""
    t = iv_div(rho, d)
    return iv_mul(iv_asinc(iv_mul(mu, t)), t)


def tangency(mu: Interval, f: Interval, d1: Interval, d2: Interval) -> Optional[Interval]:
    """theta/mu = 2q * asinc(mu*q) with q = sqrt(F/(4*d1*d2)), over the points
    where (mu*q)^2 lies in [0, 1], the cosine of theta in [-1, 1]. Points
    outside violate the admissibility constraints, so they lie outside the
    quantified domain; when no point of the box is inside, the whole box is
    infeasible (returns None)."""
    q2 = iv_div(f, iv_mul(_FOUR, iv_mul(d1, d2)))
    if q2.hi < 0.0:
        return None
    q = iv_sqrt(Interval(max(q2.lo, 0.0), q2.hi))
    z = iv_mul(mu, q)
    if z.lo > 1.0:
        return None
    return iv_mul(_TWO, iv_mul(q, iv_asinc(z)))


def cross(rho_a: Interval, rho_b: Interval) -> Interval:
    """F = 2*rho_a + 2*rho_b - 1 of a pair with one disk on each boundary."""
    return iv_sub(iv_mul(_TWO, iv_add(rho_a, rho_b)), _ONE)


def sector_terms(box: CaseBox) -> Optional[Tuple[Interval, Interval]]:
    """(area, potential) enclosures for the box's configuration, both divided
    by mu^2, or None when the tangency system is infeasible over the entire
    box."""
    cfg = box.config
    mu = box.mu
    outer_first = cfg.orientation is Orientation.OUTER_FIRST
    rho1 = box.rho[0]

    k_ring = iv_mul(iv_sub(_TWO, mu), _HALF)
    d_j = distance(mu, rho1, outer_first)
    h_j = half_width(mu, rho1, d_j)
    tag = cfg.tag

    if cfg.arity == 2:
        rho_m = box.rho[1]
        d_m = distance(mu, rho_m, not outer_first)
        th_m = tangency(mu, cross(rho1, rho_m), d_j, d_m)
        if th_m is None:
            return None
        h_m = half_width(mu, rho_m, d_m)
        k_m = iv_mul(_TWO, iv_mul(d_m, rho_m))
        sq1, sq2 = iv_mul(rho1, rho1), iv_mul(rho_m, rho_m)
        if tag is ConfigTag.T1:
            span = iv_max(iv_add(th_m, h_j), h_m)
            area = iv_mul(span, k_ring)
            pot = iv_mul(_PI, iv_add(sq1, iv_mul(sq2, _HALF)))
        elif tag is ConfigTag.T2:
            area = iv_mul(th_m, k_ring)
            pot = iv_mul(_PI, iv_mul(iv_add(sq1, sq2), _HALF))
        elif tag is ConfigTag.T3:
            # Exposed part of the R_m band: max(th+h_m, 2h_m) - min(h_j, th+h_m),
            # expanded so each angle enters each min/max argument once.
            s = iv_sub(h_m, h_j)
            exposed = iv_max(
                iv_max(iv_add(th_m, s), _ZERO),
                iv_max(iv_add(h_m, s), iv_sub(h_m, th_m)),
            )
            area = iv_add(iv_mul(h_j, k_ring), iv_mul(exposed, k_m))
            pot = iv_mul(_PI, iv_add(iv_mul(sq1, _HALF), sq2))
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
            pot = iv_mul(_PI, iv_add(sq1, sq2))
        return area, pot

    rho_p, rho_m = box.rho[1], box.rho[2]
    d_p = distance(mu, rho_p, not outer_first)
    d_m = distance(mu, rho_m, outer_first)
    th_p = tangency(mu, cross(rho1, rho_p), d_j, d_p)
    th_m = tangency(mu, iv_mul(_FOUR, iv_mul(rho1, rho_m)), d_j, d_m)
    if th_p is None or th_m is None:
        return None
    h_p = half_width(mu, rho_p, d_p)
    h_m = half_width(mu, rho_m, d_m)
    k_m = iv_mul(_TWO, iv_mul(d_m, rho_m))
    sq1, sq2, sq3 = iv_mul(rho1, rho1), iv_mul(rho_p, rho_p), iv_mul(rho_m, rho_m)

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


def split_box(box: CaseBox) -> Tuple[CaseBox, CaseBox]:
    """Halves of the box along its widest dimension, the first on a tie."""
    dims = [box.mu] + list(box.rho)
    k = max(range(len(dims)), key=lambda i: dims[i].width)
    target = dims[k]
    mid = target.mid
    lo_part = Interval(target.lo, mid)
    hi_part = Interval(mid, target.hi)

    def rebuild(part: Interval) -> CaseBox:
        if k == 0:
            return CaseBox(part, box.rho, box.config)
        rhos = list(box.rho)
        rhos[k - 1] = part
        return CaseBox(box.mu, tuple(rhos), box.config)

    return rebuild(lo_part), rebuild(hi_part)


def _density(pot: Interval, area: Interval) -> Optional[Interval]:
    try:
        return iv_div(pot, area)
    except UndefinedIntervalError:
        return None


class Node:
    """A box of a cell's search tree, with its verdict ("proven", "pruned" or
    "open"), its density enclosure and, once split, its two halves."""

    def __init__(self, box: CaseBox):
        self.box = box
        self.verdict = "open"
        self.density: Optional[Interval] = None
        self.children: List["Node"] = []


def evaluate(node: Node, bound: Interval) -> None:
    terms = None
    if admissible(node.box) is not Feasibility.INFEASIBLE:
        terms = sector_terms(node.box)
    if terms is None:
        node.verdict = "pruned"
        return
    area, pot = terms
    node.density = _density(pot, area)
    if iv_sub(pot, iv_mul(bound, area)).lo >= 0.0:
        node.verdict = "proven"


def all_open(node: Node) -> bool:
    """Whether every leaf under the node (the node itself when it is a leaf)
    is open."""
    if not node.children:
        return node.verdict == "open"
    return all(all_open(child) for child in node.children)


def largest_open(node: Node) -> List[Node]:
    """The largest nodes under `node` whose leaves are all open, depth first."""
    if all_open(node):
        return [node]
    return [found for child in node.children for found in largest_open(child)]


def run_cell(task) -> dict:
    """Branch and bound over one cell, one box at a time. `task` is (index,
    config, cell, b_d, max_depth, max_boxes, cert_path), and the
    result is the cell's record as `prover._run_cell` returns it for the
    cell at position `index` of its cells; the lines written to cert_path
    are the cell's certificate text that comes with that record.

    The search tree is built level by level. Every open box of a level is
    split while the depth is below max_depth and the two halves of each keep
    the boxes processed within max_boxes; otherwise the search stops. The
    unresolved boxes are the largest nodes of the tree whose leaves are all
    open, deepest first and in level order within a depth."""
    index, config, cell, b_d, max_depth, max_boxes, cert_path = task
    bound = iv_point(b_d)
    cert = open(cert_path, "w", encoding="utf-8") if cert_path else None

    def emit(box: CaseBox, verdict: str, density: Optional[Interval]) -> None:
        parts = [
            f"CASE {config.tag.value}",
            f"ORIENT {config.orientation.value}",
            "BOX",
            f"mu=[{box.mu.lo!r},{box.mu.hi!r}]",
        ]
        for i, iv in enumerate(box.rho, start=1):
            parts.append(f"rho{i}=[{iv.lo!r},{iv.hi!r}]")
        parts.append(f"VERDICT {verdict}")
        if density is not None:
            parts.append(f"DENSITY [{density.lo!r},{density.hi!r}]")
        cert.write(" ".join(parts) + "\n")

    ivs = [Interval(cell[k], cell[k + 1]) for k in range(0, len(cell), 2)]
    root = Node(CaseBox(ivs[0], tuple(ivs[1:]), config))
    levels = [[root]]
    processed = 0
    try:
        while True:
            level = levels[-1]
            for node in level:
                evaluate(node, bound)
                processed += 1
                if cert is not None and node.verdict != "open":
                    emit(node.box, node.verdict, node.density)
            open_nodes = [node for node in level if node.verdict == "open"]
            depth = len(levels) - 1
            if (
                not open_nodes
                or depth >= max_depth
                or processed + 2 * len(open_nodes) > max_boxes
            ):
                break
            for node in open_nodes:
                node.children = [Node(half) for half in split_box(node.box)]
            levels.append([child for node in open_nodes for child in node.children])

        position = {
            id(node): (-depth, i)
            for depth, level in enumerate(levels)
            for i, node in enumerate(level)
        }
        unresolved = sorted(largest_open(root), key=lambda node: position[id(node)])
        if cert is not None:
            for node in unresolved:
                emit(node.box, "failed", None)
    finally:
        if cert is not None:
            cert.close()
    nodes = [node for level in levels for node in level]
    return {
        "cell": index,
        "proven": sum(node.verdict == "proven" for node in nodes),
        "pruned": sum(node.verdict == "pruned" for node in nodes),
        "processed": processed,
        "max_depth": len(levels) - 1,
        "failures": [
            [x for iv in (node.box.mu, *node.box.rho) for x in (iv.lo, iv.hi)]
            for node in unresolved
        ],
    }
