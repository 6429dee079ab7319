"""Interval branch-and-bound certification of the ring-sector density bound.

For each edge-configuration type (T1..T8) over its admissible variable domain
(ring proportion lambda in [1/2, 0.99] by default, or up to 1, with outer
radius 1, disk radii r1 >= r2 (>= r3)), the prover certifies that the sector
density is at least a target bound b_d by subdividing the domain into
hypercuboids and evaluating the density in interval arithmetic. A box counts
as proven only when the enclosure guarantees potential - b_d * area >= 0 for
every point of the box; the prover can therefore never certify a false
bound, only fail to certify.

The search runs in scale-free coordinates: the ring width mu = 1 - lambda
and the radii relative to it, rho_i = r_i / mu, each in [0, 1/2]. Back in
the paper's terms, lambda = 1 - mu and r_i = mu * rho_i. The ring and its
disks shrink together as lambda -> 1, so a box of given size in (mu, rho)
holds the same shape of configuration at any mu, where in (lambda, r) the
admissible part of the domain thins like (1 - lambda)^2.

A run pre-splits the domain into a fixed number of cells and searches them
all in this process, one level at a time: the boxes of every open cell make
one frontier, evaluated in numpy batches. Every operation is per box and each
cell stops by its own counts, so a cell's verdicts do not depend on the other
cells. All undecided boxes of a cell's level are split, or, when the next
level would pass the cell's depth or box budget, they are the cell's
unresolved boxes, with each sibling pair that is open as a whole reported as
its parent.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from .intervals import (
    av_add,
    av_asinc,
    av_div,
    av_max,
    av_min,
    av_mul,
    av_neg,
    av_sqrt,
    av_sub,
)

__all__ = [
    "ConfigTag",
    "Orientation",
    "ConfigType",
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
# Version of the box evaluation, written into checkpoint headers as a record
# of which evaluator wrote the file. Change it with any change to the
# evaluation that could move a verdict, or to the split rule, which fixes the
# cells.
EVALUATOR_VERSION = "mu-rho-3"

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
# a realizable configuration and the inner-first variant is excluded. Sampled
# admissible points of T1/inner fall below the bound (2%, down to 0.53); those
# of T5/inner do not (minimum about 0.57 over 100k points).
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
class ProverBudget:
    max_depth: int = 60
    max_boxes: int = 20_000_000
    cells: int = 256

    def __post_init__(self):
        for name, least in (("max_depth", 0), ("max_boxes", 1), ("cells", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")


@dataclass
class ProofReport:
    config: ConfigType
    bound: float
    boxes_proven: int = 0
    boxes_pruned_infeasible: int = 0
    max_depth: int = 0
    # Unresolved boxes as bound rows (mu.lo, mu.hi, rho1.lo, rho1.hi, ...;
    # see _bounds), in certificate order.
    failures: List[list] = field(default_factory=list)
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
# Box rows
#
# The prover evaluates boxes in batches: row i of the (n, 1 + arity) arrays
# `lo` and `hi` holds the bounds of box i in the searched coordinates, mu in
# column 0 and rho1, rho2 (, rho3) after it (_coordinates names them). Outside
# a batch, a box travels as one flat bound row (_bounds): cells, checkpoint
# records, certificate lines and ProofReport.failures.
#
# The kernel functions (admissible, _sector_terms, eval_density, _split_box)
# are module globals called through their names, so that a profiler can wrap
# them in place.


# ---------------------------------------------------------------------------
# Admissibility
#
# Constraint system (all must hold for a point to be admissible):
#   2*rho1 <= 1            (the largest disk fits the ring widthwise)
#   rho1 + rho2 >= 1/2     (else disk 2 would start a new ring: pass bound)
#   rho2 <= rho1, and for arity 3:  rho2 + rho3 >= 1/2, rho3 <= rho2
# These are the constraints on lambda and r divided by mu = 1 - lambda, so
# none involves mu.
#
# Every constraint is affine, so its minimum over a box sits at a corner. A
# corner minimum is a difference of two floats, exact in sign, with at most
# one rounded sum in it, and rounding to nearest never carries a sum past a
# constant it can represent (1/2), so a box is pruned only when its exact
# minimum is positive.


def admissible(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the rows that may hold an admissible point: those on which no
    constraint g <= 0 fails at every point of the box (corner minimum > 0)."""
    rho_lo = [lo[:, k] for k in range(1, lo.shape[1])]
    rho_hi = [hi[:, k] for k in range(1, hi.shape[1])]
    g_min = [
        2.0 * rho_lo[0] - 1.0,  # g = 2*rho1 - 1
        0.5 - (rho_hi[0] + rho_hi[1]),  # g = 1/2 - (rho1 + rho2)
        rho_lo[1] - rho_hi[0],  # g = rho2 - rho1
    ]
    if len(rho_lo) == 3:
        g_min += [0.5 - (rho_hi[1] + rho_hi[2]), rho_lo[2] - rho_hi[1]]
    fails = np.zeros(len(lo), dtype=bool)
    for g in g_min:
        fails |= g > 0.0
    return ~fails


# ---------------------------------------------------------------------------
# Configuration geometry (interval arithmetic on rows)
#
# A disk of radius r = mu*rho on the outer ring boundary has its centre at
# distance d = 1 - mu*rho from the ring's centre, one on the inner boundary at
# d = lambda + r = 1 - mu*(1 - rho). Every angle is carried divided by mu,
# through asinc(z) = asin(z)/z, and every area term divided by mu^2:
#   half-width  h/mu     = asinc(mu*rho/d) * rho/d      (h = asin(r/d))
#   tangency    theta/mu = 2q * asinc(mu*q),  q = sqrt(F/(4*d1*d2))
#                 (sin(theta/2) = mu*q, the half-angle form of the law of
#                 cosines, with F = 2*rho_a + 2*rho_b - 1 for a pair with one
#                 disk on each boundary and F = 4*rho_a*rho_b for a pair on
#                 the same boundary)
#   ring slice  k_ring/mu = (1 - lambda^2)/(2*mu) = (2 - mu)/2
#   band        k_m/mu    = 2*d_m*rho_m
#   potential   pot/mu^2  = the same formula in rho as in r.
# Area and potential are both divided by mu^2, so their ratio is the density
# and the margin potential - b*area keeps its sign; nothing divides by mu, and
# mu = 0 (lambda = 1) is the straight-strip limit.

_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)
_HALF = (0.5, 0.5)
_TWO = (2.0, 2.0)
_FOUR = (4.0, 4.0)
_PI = (math.nextafter(math.pi, -math.inf), math.nextafter(math.pi, math.inf))


def _distance(mu, rho, outer: bool):
    """Centre distance of a disk on the outer (1 - mu*rho) or the inner
    (1 - mu*(1 - rho)) ring boundary."""
    return av_sub(_ONE, av_mul(mu, rho if outer else av_sub(_ONE, rho)))


def _half_width(mu, rho, d):
    """h/mu = asinc(mu*rho/d) * rho/d: half the angle a disk subtends at the
    ring's centre, divided by mu."""
    t = av_div(rho, d)
    return av_mul(av_asinc(av_mul(mu, t)), t)


def _tangency(mu, f, d1, d2):
    """theta/mu = 2q * asinc(mu*q), q = sqrt(F/(4*d1*d2)): the angle between
    the centres of two tangent disks, divided by mu, and the rows where it is
    defined. Points with (mu*q)^2 outside [0, 1], the cosine of theta outside
    [-1, 1], violate the admissibility constraints, so they lie outside the
    quantified domain; q^2 and mu*q are clamped to it, and a row where that
    clamp is empty holds no such point. Such rows get the angle of q = 0, so
    that the rest of the batch evaluates without error."""
    q2 = av_div(f, av_mul(_FOUR, av_mul(d1, d2)))
    ok = q2[1] >= 0.0
    q = av_sqrt((np.maximum(q2[0], 0.0), np.where(ok, q2[1], 0.0)))
    z = av_mul(mu, q)
    ok &= z[0] <= 1.0
    q = (np.where(ok, q[0], 0.0), np.where(ok, q[1], 0.0))
    z = (np.where(ok, z[0], 0.0), np.where(ok, z[1], 0.0))
    return av_mul(_TWO, av_mul(q, av_asinc(z))), ok


def _cross(rho_a, rho_b):
    """F = 2*rho_a + 2*rho_b - 1 of a pair with one disk on each boundary."""
    return av_sub(av_mul(_TWO, av_add(rho_a, rho_b)), _ONE)


def _sector_terms(config: ConfigType, lo: np.ndarray, hi: np.ndarray):
    """(ok, area, potential) for each row: `ok` is False on the rows where the
    tangency system is infeasible over the entire box, and area and potential
    are (lo, hi) array enclosures of the area divided by mu^2 and of the
    potential divided by mu^2, meaningful where `ok` holds."""
    outer_first = config.orientation is Orientation.OUTER_FIRST
    mu = (lo[:, 0], hi[:, 0])
    rho1 = (lo[:, 1], hi[:, 1])

    k_ring = av_mul(av_sub(_TWO, mu), _HALF)
    d_j = _distance(mu, rho1, outer_first)
    h_j = _half_width(mu, rho1, d_j)
    tag = config.tag

    if config.arity == 2:
        rho_m = (lo[:, 2], hi[:, 2])
        d_m = _distance(mu, rho_m, not outer_first)
        th_m, ok = _tangency(mu, _cross(rho1, rho_m), d_j, d_m)
        h_m = _half_width(mu, rho_m, d_m)
        k_m = av_mul(_TWO, av_mul(d_m, rho_m))
        sq1, sq2 = av_mul(rho1, rho1), av_mul(rho_m, rho_m)
        if tag is ConfigTag.T1:
            span = av_max(av_add(th_m, h_j), h_m)
            area = av_mul(span, k_ring)
            pot = av_mul(_PI, av_add(sq1, av_mul(sq2, _HALF)))
        elif tag is ConfigTag.T2:
            area = av_mul(th_m, k_ring)
            pot = av_mul(_PI, av_mul(av_add(sq1, sq2), _HALF))
        elif tag is ConfigTag.T3:
            # Exposed part of the R_m band: max(th+h_m, 2h_m) - min(h_j, th+h_m),
            # expanded so each angle enters each min/max argument once.
            s = av_sub(h_m, h_j)
            exposed = av_max(
                av_max(av_add(th_m, s), _ZERO),
                av_max(av_add(h_m, s), av_sub(h_m, th_m)),
            )
            area = av_add(av_mul(h_j, k_ring), av_mul(exposed, k_m))
            pot = av_mul(_PI, av_add(av_mul(sq1, _HALF), sq2))
        else:  # T4
            # Exposed part of the R_m band:
            # 2h_m - max(0, min(h_j, th+h_m) - max(-h_j, th-h_m))
            #   = min(2h_m, max(0, 2(h_m-h_j), (h_m-h_j)+th))
            s = av_sub(h_m, h_j)
            exposed = av_min(
                av_mul(_TWO, h_m),
                av_max(av_max(_ZERO, av_mul(_TWO, s)), av_add(s, th_m)),
            )
            area = av_add(
                av_mul(av_mul(_TWO, h_j), k_ring), av_mul(exposed, k_m)
            )
            pot = av_mul(_PI, av_add(sq1, sq2))
        return ok, area, pot

    rho_p = (lo[:, 2], hi[:, 2])
    rho_m = (lo[:, 3], hi[:, 3])
    d_p = _distance(mu, rho_p, not outer_first)
    d_m = _distance(mu, rho_m, outer_first)
    th_p, ok_p = _tangency(mu, _cross(rho1, rho_p), d_j, d_p)
    # The m-disk shares disk j's boundary.
    th_m, ok_m = _tangency(mu, av_mul(_FOUR, av_mul(rho1, rho_m)), d_j, d_m)
    ok = ok_p & ok_m
    h_p = _half_width(mu, rho_p, d_p)
    h_m = _half_width(mu, rho_m, d_m)
    k_m = av_mul(_TWO, av_mul(d_m, rho_m))
    sq1, sq2, sq3 = av_mul(rho1, rho1), av_mul(rho_p, rho_p), av_mul(rho_m, rho_m)

    if tag is ConfigTag.T5:
        span = av_max(av_add(th_m, h_j), av_add(av_sub(th_m, th_p), h_p))
        area = av_mul(span, k_ring)
        pot = av_mul(_PI, av_add(av_add(sq1, sq2), av_mul(sq3, _HALF)))
    elif tag is ConfigTag.T6:
        area = av_mul(th_m, k_ring)
        pot = av_mul(_PI, av_add(sq2, av_mul(av_add(sq1, sq3), _HALF)))
    elif tag is ConfigTag.T7:
        end_p = av_add(th_p, h_p)
        end_m = av_add(th_m, h_m)
        area = av_add(
            av_mul(end_p, k_ring),
            av_mul(av_max(_ZERO, av_sub(end_m, end_p)), k_m),
        )
        pot = av_mul(_PI, av_add(av_add(av_mul(sq1, _HALF), sq2), sq3))
    else:  # T8
        end1 = av_max(h_j, av_add(th_p, h_p))
        start1 = av_neg(av_max(h_j, av_sub(h_p, th_p)))
        span1 = av_sub(end1, start1)
        # Exposed part of the R_m band:
        # 2h_m - max(0, min(end1, th+h_m) - max(start1, th-h_m))
        #   = min(2h_m, max(0, 2h_m - span1, (th+h_m) - end1, start1 - (th-h_m)))
        exposed = av_min(
            av_mul(_TWO, h_m),
            av_max(
                av_max(_ZERO, av_sub(av_mul(_TWO, h_m), span1)),
                av_max(
                    av_sub(av_add(th_m, h_m), end1),
                    av_sub(start1, av_sub(th_m, h_m)),
                ),
            ),
        )
        area = av_add(av_mul(span1, k_ring), av_mul(exposed, k_m))
        pot = av_mul(_PI, av_add(av_add(sq1, sq2), sq3))
    return ok, area, pot


def eval_density(area, pot):
    """Enclosure of the sector density potential/area on each row, as (lo, hi)
    arrays, NaN on the rows whose area enclosure contains zero (degenerate
    pass-bound boundary)."""
    zero = (area[0] <= 0.0) & (0.0 <= area[1])
    lo, hi = np.full(len(zero), np.nan), np.full(len(zero), np.nan)
    sel = ~zero
    lo[sel], hi[sel] = av_div((pot[0][sel], pot[1][sel]), (area[0][sel], area[1][sel]))
    return lo, hi


# ---------------------------------------------------------------------------
# Branch and bound


def make_root_box(
    config: ConfigType, lambda_range: Tuple[float, float] = (0.5, LAMBDA_MAX)
) -> Tuple[np.ndarray, np.ndarray]:
    """The configuration's domain for `lambda_range`, clipped to [0.5, 1], as
    a one-row (lo, hi) pair in the searched coordinates: mu = 1 - lambda over
    [1 - lambda.hi, 1 - lambda.lo], both ends exact for lambda in [0.5, 1],
    and every rho_i = r_i / mu over [0, 1/2]. Infinite ends are clipped; a
    NaN end, or a range that is empty after clipping, raises ValueError."""
    if any(math.isnan(x) for x in lambda_range):
        raise ValueError(f"lambda range {lambda_range} has a NaN end")
    lam_lo = max(0.5, lambda_range[0])
    lam_hi = min(1.0, lambda_range[1])
    if lam_lo > lam_hi:
        raise ValueError(f"empty lambda range {lambda_range}")
    return (
        np.array([[1.0 - lam_hi] + [0.0] * config.arity]),
        np.array([[1.0 - lam_lo] + [0.5] * config.arity]),
    )


def _coordinates(config: ConfigType) -> List[str]:
    """Names of the columns of a box row: mu, rho1, rho2 (, rho3)."""
    return ["mu"] + [f"rho{k}" for k in range(1, config.arity + 1)]


def _split_box(lo: np.ndarray, hi: np.ndarray):
    """Bisect every row along its widest dimension (the first one on a tie)
    at its midpoint. mu and every rho_i share the scale [0, 1/2], so raw
    widths compare directly. Returns the rows of the halves, each lower half
    followed by its upper half (lower 0, upper 0, lower 1, upper 1, ...)."""
    rows = np.arange(len(lo))
    k = np.argmax(hi - lo, axis=1)
    t_lo = lo[rows, k]
    t_hi = hi[rows, k]
    # Interval.mid of the scalar oracle (tests/oracle_intervals.py), whose
    # fallback for an overflowing sum cannot trigger on coordinates in [0, 1].
    mid = np.minimum(np.maximum(0.5 * (t_lo + t_hi), t_lo), t_hi)
    out_lo = np.repeat(lo, 2, axis=0)
    out_hi = np.repeat(hi, 2, axis=0)
    out_hi[2 * rows, k] = mid
    out_lo[2 * rows + 1, k] = mid
    return out_lo, out_hi


def _partition_cells(root, n_cells: int) -> List[list]:
    """Deterministic pre-split of the root (lo, hi) into cells, as bound rows:
    each split round bisects every cell along its widest dimension, so the
    count is n_cells rounded up to a power of two."""
    lo, hi = root
    while len(lo) < n_cells:
        lo, hi = _split_box(lo, hi)
    return _bounds(lo, hi).tolist()


_PRUNED, _PROVEN, _UNDECIDED = 0, 1, 2


# Rows per kernel call: a wide level is evaluated in slices of this many rows,
# which bounds the memory its temporaries take.
_BATCH_ROWS = 2048


def _verdicts(config, lo, hi, b_d, with_density):
    """Status of each row (_PRUNED, _PROVEN or _UNDECIDED) and, when asked,
    the rows' density enclosures as (lo, hi) arrays, NaN on the rows that are
    pruned or whose area enclosure contains zero."""
    status = np.full(len(lo), _PRUNED, dtype=np.int8)
    density = (np.full(len(lo), np.nan), np.full(len(lo), np.nan)) if with_density else None
    for start in range(0, len(lo), _BATCH_ROWS):
        part = slice(start, start + _BATCH_ROWS)
        rows = start + np.flatnonzero(admissible(lo[part], hi[part]))
        if not rows.size:
            continue
        ok, area, pot = _sector_terms(config, lo[rows], hi[rows])
        margin_lo, _ = av_sub(pot, av_mul((b_d, b_d), area))
        status[rows] = np.where(ok, np.where(margin_lo >= 0.0, _PROVEN, _UNDECIDED), _PRUNED)
        if with_density:
            density[0][rows[ok]], density[1][rows[ok]] = eval_density(
                (area[0][ok], area[1][ok]), (pot[0][ok], pot[1][ok])
            )
    return status, density


def _bounds(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bound rows (mu.lo, mu.hi, rho1.lo, rho1.hi, ...) as an array."""
    return np.stack((lo, hi), axis=2).reshape(len(lo), 2 * lo.shape[1])


# Certificate verdict of each status. An undecided box reaches the
# certificate only as one that its cell stopped on.
_VERDICTS = ("pruned", "proven", "failed")


def _write_lines(config, texts, owner, rows, status, density) -> None:
    """Append the certificate line of each bound row of the array `rows` to
    the text of its cell, the list texts[owner[i]] for row i, where `owner`
    is ascending. A line holds the verdict of the row's status (_VERDICTS)
    and, where the row's entry in the pair of arrays `density` is not NaN,
    its density enclosure.

    Lines are built in slices of _BATCH_ROWS rows, column by column, and each
    cell's lines of a slice go into its list as one string. A slice formats
    each distinct value once, with repr; values are told apart by their bits,
    so -0.0 and 0.0 stay distinct. A NaN's repr is "nan"."""
    names = _coordinates(config)
    seps = [sep for name in names for sep in (f"] {name}=[", ",")]
    seps[0] = f"CASE {config.tag.value} ORIENT {config.orientation.value} BOX {names[0]}=["
    verdicts = np.array([f"] VERDICT {v}" for v in _VERDICTS], dtype=object)
    values = np.column_stack((rows, *density))
    for start in range(0, len(values), _BATCH_ROWS):
        part = slice(start, start + _BATCH_ROWS)
        chunk = values[part]
        bits, inverse = np.unique(chunk.view(np.int64).ravel(), return_inverse=True)
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        cols = text[inverse.reshape(chunk.shape)].T.tolist()
        ends = [
            "\n" if d_lo == "nan" else f" DENSITY [{d_lo},{d_hi}]\n"
            for d_lo, d_hi in zip(cols[-2], cols[-1])
        ]
        pieces = [x for sep, col in zip(seps, cols) for x in (repeat(sep), col)]
        pieces += [verdicts[status[part]].tolist(), ends]
        lines = list(map("".join, zip(*pieces)))
        cells = owner[part]
        cuts = (np.flatnonzero(np.diff(cells)) + 1).tolist()
        for a, b in zip([0] + cuts, cuts + [len(lines)]):
            texts[cells[a]].append("".join(lines[a:b]))


def _open_boxes(splits, open_rows, lo, hi) -> np.ndarray:
    """The unresolved boxes of a cell whose last level has the undecided rows
    `open_rows` (a mask) and the bounds `lo`, `hi`: those rows, with every
    sibling pair that is open as a whole replaced by its parent, repeated up
    the levels, as one array of bound rows. `splits` holds each earlier
    level's split mask; rows 2k and 2k+1 of a level are the halves of the
    k-th split row of the level above, and a parent's bounds are the
    elementwise min of its halves' lo and max of their hi (bit-exact, since
    the halves share the midpoint). Deepest level first, in row order within
    a level."""
    rows = np.flatnonzero(open_rows)
    lo, hi = lo[rows], hi[rows]
    out = []
    for split in reversed(splits):
        # positions j where rows j and j + 1 hold a whole pair
        j = np.flatnonzero((rows[:-1] % 2 == 0) & (rows[1:] == rows[:-1] + 1))
        keep = np.ones(len(rows), dtype=bool)
        keep[j] = keep[j + 1] = False
        out.append(_bounds(lo[keep], hi[keep]))
        rows = np.flatnonzero(split)[rows[j] // 2]
        lo = np.minimum(lo[j], lo[j + 1])
        hi = np.maximum(hi[j], hi[j + 1])
    out.append(_bounds(lo, hi))
    return np.concatenate(out)


def _run_cell(
    config, cells, b_d, max_depth, max_boxes, with_certificate
) -> List[Tuple[dict, str]]:
    """Branch and bound over the cells, given as bound rows; returns each
    cell's checkpoint record and certificate text, in cell order. A cell's
    index is its position, `max_boxes` is each cell's box budget, and the
    certificate text is empty unless `with_certificate`. It opens no file.

    The cells are searched one level at a time, the boxes of all open cells
    making one frontier. Each row carries the index of its cell, and the rows
    stay in cell order. Each level is evaluated in numpy batches (_verdicts),
    and each cell's proven and pruned boxes are appended to its text in row
    order (_write_lines). A cell stops when it has no undecided box, when the
    depth has reached max_depth, or when splitting its undecided boxes would
    take its boxes processed past max_boxes; the undecided boxes of its last
    level, merged pairwise into their parents where a whole pair is open
    (_open_boxes), are then its failures. They follow its leaves in its text
    as `failed` lines without a density. The undecided boxes of the other
    cells are split, lower half before upper half, so siblings stay adjacent
    and the split masks of the whole frontier map each cell's rows to their
    parents. Only the current level's bounds are held, plus one split mask
    byte per box of the earlier levels, and the certificate text of every
    cell until it returns."""
    n = len(cells)
    lo, hi = np.array([c[0::2] for c in cells]), np.array([c[1::2] for c in cells])
    owner = np.arange(n, dtype=np.int32)
    live = np.ones(n, dtype=bool)
    proven, pruned, processed = (np.zeros(n, dtype=np.int64) for _ in range(3))
    splits: List[np.ndarray] = []
    texts: List[list] = [[] for _ in range(n)]
    results: list = [None] * n
    depth = 0
    while True:
        status, density = _verdicts(config, lo, hi, b_d, with_certificate)
        processed += np.bincount(owner, minlength=n)
        proven += np.bincount(owner[status == _PROVEN], minlength=n)
        pruned += np.bincount(owner[status == _PRUNED], minlength=n)
        undecided = status == _UNDECIDED
        if with_certificate:
            # Pruned rows have no density (NaN), nor do rows whose area
            # enclosure contains zero.
            leaves = ~undecided
            _write_lines(
                config,
                texts,
                owner[leaves],
                _bounds(lo[leaves], hi[leaves]),
                status[leaves],
                (density[0][leaves], density[1][leaves]),
            )
        n_open = np.bincount(owner[undecided], minlength=n)
        stop = live & (
            (n_open == 0) | (depth >= max_depth) | (processed + 2 * n_open > max_boxes)
        )
        for c in np.flatnonzero(stop).tolist():
            failures = _bounds(lo[:0], hi[:0])
            if n_open[c]:
                failures = _open_boxes(splits, undecided & (owner == c), lo, hi)
                if with_certificate:
                    nan = np.full(len(failures), np.nan)
                    cell, failed = np.full(len(failures), c), np.full(len(failures), _UNDECIDED)
                    _write_lines(config, texts, cell, failures, failed, (nan, nan))
            record = {
                "cell": c,
                "proven": int(proven[c]),
                "pruned": int(pruned[c]),
                "processed": int(processed[c]),
                "max_depth": depth,
                "failures": failures.tolist(),
            }
            results[c] = (record, "".join(texts[c]))
            texts[c] = None
        live &= ~stop
        if not live.any():
            return results
        split = undecided & live[owner]
        splits.append(split)
        lo, hi = _split_box(lo[split], hi[split])
        owner = np.repeat(owner[split], 2)
        depth += 1


def _checkpoint_header(config, b_d, root, budget) -> str:
    """The checkpoint's first line: the run's parameters. The lambda range is
    the clipped one that the root (lo, hi) searches, read back as 1 - mu,
    which returns each end in [0.5, 1] exactly."""
    header = {
        "case": config.tag.value,
        "orient": config.orientation.value,
        "bound": b_d,
        "lambda": [1.0 - float(root[1][0, 0]), 1.0 - float(root[0][0, 0])],
        "cells": budget.cells,
        "max_depth": budget.max_depth,
        "max_boxes": budget.max_boxes,
        "evaluator": EVALUATOR_VERSION,
        "box": _coordinates(config),
    }
    return json.dumps({"header": header}) + "\n"


def prove_case(
    config: ConfigType,
    lambda_range: Tuple[float, float] = (0.5, LAMBDA_MAX),
    b_d: float = DENSITY_BOUND,
    budget: Optional[ProverBudget] = None,
    workers: int = 1,
    checkpoint: Optional[str] = None,
    certificate=None,
) -> ProofReport:
    """Certify density >= b_d for one configuration over its admissible domain.

    The verdict set is deterministic. All cells are searched in one call of
    _run_cell, in this process. With `checkpoint`, the file at that path is
    replaced by a header line holding the run's parameters before the search,
    and each cell's record follows in cell order once the search returns, so
    an interrupted run leaves the header only. `certificate`, when given a
    writable text stream, receives one line per processed leaf box, cell
    after cell, plus a summary. This function is the only writer of either
    file. A non-finite `b_d` or a bad `lambda_range` (make_root_box) raises
    ValueError before any file is opened.

    `workers` is accepted and ignored: every run searches in this process."""
    if not math.isfinite(b_d):
        raise ValueError(f"bound must be finite, got {b_d!r}")
    budget = budget or ProverBudget()
    root = make_root_box(config, lambda_range)
    cells = _partition_cells(root, budget.cells)
    per_cell_budget = math.ceil(budget.max_boxes / len(cells))

    report = ProofReport(config=config, bound=b_d)
    with open(checkpoint, "w", encoding="utf-8") if checkpoint else nullcontext() as ck:
        if ck:
            ck.write(_checkpoint_header(config, b_d, root, budget))
            ck.flush()
        results = _run_cell(
            config, cells, b_d, budget.max_depth, per_cell_budget, certificate is not None
        )
        for rec, text in results:
            if ck:
                ck.write(json.dumps(rec) + "\n")
            if certificate is not None:
                certificate.write(text)
            report.boxes_proven += rec["proven"]
            report.boxes_pruned_infeasible += rec["pruned"]
            report.boxes_processed += rec["processed"]
            report.max_depth = max(report.max_depth, rec["max_depth"])
            report.failures += rec["failures"]
    if certificate is not None:
        certificate.write(report.summary_line() + "\n")
    return report
