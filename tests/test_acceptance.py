"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import hashlib
import json
import math
import operator
import os
import random
import re
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from diskpack.cli import main
from diskpack.engine import InstanceSpec, pack
from diskpack.files import InstanceFile, dumps_packing, packing_from_result
from diskpack.geometry import PlacedDisk, Point, unit_container, inscribed_disk_after_two
from diskpack.instances import (
    POCKET3_RADIUS,
    ThresholdEdge,
    gen_near_threshold,
    gen_pocket3,
    gen_random_area,
    gen_worst_case,
)
from diskpack.intervals import av_add, av_asinc, av_div, av_mul, av_sqrt, av_sub
from diskpack.oracles import cone_density, gap_excess, rho, zipper_one_density
from diskpack.prover import (
    ConfigTag,
    ConfigType,
    Orientation,
    ProverBudget,
    certified_configs,
    eval_density,
    prove_case,
    _sector_terms,
)
from diskpack.verifier import verify

from oracle_pointeval import point_density


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


# ---------------------------------------------------------------------------
# shared runs (computed once, reused by the determinism criterion)

_cache = {}


def c2_instance(seed):
    """The criterion-2 instance of a seed: total area exactly pi/2."""
    rng = random.Random(seed * 7919 + 13)
    n = rng.randint(1, 500)
    ratio = 10.0 ** rng.uniform(-3, -0.3) if seed % 5 else 1e-3
    return gen_random_area(n, math.pi / 2, seed, min_radius_ratio=ratio)


def guarantee_suite_run():
    """200 seeded instances with total area exactly pi/2; returns serialized
    packings, validity flags, and the wall time of pack+verify."""
    results = []
    t0 = time.perf_counter()
    for seed in range(200):
        inst = c2_instance(seed)
        res = pack(inst)
        rep = verify(res.placements, inst.radii, epsilon=1e-7)
        doc = packing_from_result(res, InstanceFile(radii=inst.radii))
        results.append((res.complete, rep.valid, dumps_packing(doc)))
    elapsed = time.perf_counter() - t0
    return results, elapsed


def criterion6_run():
    """The desk-scale prover runs: T1/outer, T2/outer and T2/inner on lambda
    in [0.5, 0.6]."""
    return [
        prove_case(cfg, lambda_range=(0.5, 0.6), b_d=0.5642, budget=ProverBudget(cells=64))
        for tag in (ConfigTag.T1, ConfigTag.T2)
        for cfg in certified_configs(tag)
    ]


def criterion6_reports():
    if "c6" not in _cache:
        _cache["c6"] = criterion6_run()
    return _cache["c6"]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_critical_instance():
    with criterion(1, "critical instance {1/2, 1/2}"):
        inst = InstanceSpec.of([0.5, 0.5])
        pack(inst)  # warm-up (imports, caches)
        t0 = time.perf_counter()
        res = pack(inst)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.010, f"pack took {elapsed * 1e3:.2f} ms"
        assert res.complete and len(res.placements) == 2
        rep = verify(res.placements, inst.radii, epsilon=1e-9)
        assert rep.valid
        (r1, c1), (r2, c2) = res.placements
        assert abs(math.dist(c1, c2) - 1.0) <= 1e-9
        assert abs(math.hypot(*c1) - 0.5) <= 1e-9
        assert abs(math.hypot(*c2) - 0.5) <= 1e-9


def test_criterion_2_guarantee_property():
    with criterion(2, "200-instance completeness guarantee"):
        if "c2" not in _cache:
            _cache["c2"] = guarantee_suite_run()
        results, elapsed = _cache["c2"]
        n_complete = sum(1 for c, _, _ in results if c)
        n_valid = sum(1 for _, v, _ in results if v)
        assert n_complete == 200, f"only {n_complete}/200 complete"
        assert n_valid == 200, f"only {n_valid}/200 verifier-valid"
        assert elapsed < 60.0, f"suite took {elapsed:.1f} s"


# SHA-256 over the 200 criterion-2 packing documents (UTF-8, in seed order),
# as the quadratic placement kernel produced them at commit 64b5f6c. A faster
# engine must reproduce them byte for byte.
C2_PACKINGS_SHA256 = "053d1577b25420e055bf7fb91a5a02e0b3edc29bb75136c23947a18e679f1b24"


def test_criterion_2_packings_pinned_across_commits():
    with criterion("2b", "200 packings byte-identical to the pinned digest"):
        if "c2" not in _cache:
            _cache["c2"] = guarantee_suite_run()
        results, _ = _cache["c2"]
        h = hashlib.sha256()
        for _, _, doc in results:
            h.update(doc.encode("utf-8"))
        assert h.hexdigest() == C2_PACKINGS_SHA256


# SHA-256 over json.dumps of the phase traces of the 200 criterion-2
# instances (seed order), as commit e987089 produced them: 2,229 ring_created
# events, 1,608 of them splits. Both ways of opening a ring must log the same
# events with the same key order.
C2_TRACES_SHA256 = "1ddc742e7f490300d2b4c14f29cfbc2b80b1145038c23709233fc6890cf75d79"


def test_criterion_2_traces_pinned_across_commits():
    with criterion("2c", "200 phase traces byte-identical to the pinned digest"):
        h = hashlib.sha256()
        created = split = 0
        for seed in range(200):
            trace = pack(c2_instance(seed)).phase_trace
            h.update(json.dumps(trace).encode("utf-8"))
            for event in trace:
                if event["event"] == "ring_created":
                    created += 1
                    split += bool(event.get("split"))
        assert (created, split) == (2229, 1608)
        assert h.hexdigest() == C2_TRACES_SHA256


def family_instances():
    """The non-random families: the critical pair and its inflation, the
    three-disk pocket, the three near-threshold edges, k disks of radius 0.1,
    and three Phase-1 paths: a chain of three recursions, a pair whose second
    disk does not fit (phase1_partial), and a disk filling the container
    (placed concentric with it). Between them they place next to wide disks,
    fill rings to NO_FIT and give disks up."""
    families = {
        "worst_case_0": gen_worst_case(0.0),
        "worst_case_0.01": gen_worst_case(0.01),
        "pocket3": gen_pocket3(),
    }
    for edge in ThresholdEdge:
        families[f"near_threshold_{edge.value}"] = gen_near_threshold(edge)
    for k in (10, 40, 49, 50, 80):
        families[f"radius_0.1_x{k}"] = InstanceSpec.of([0.1] * k)
    families["recursion_chain_3"] = InstanceSpec.of(
        [0.5, 0.5, 1 / 6, 1 / 6, 1 / 18, 1 / 18, 0.01, 0.01]
    )
    families["phase1_partial_0.6_0.5"] = InstanceSpec.of([0.6, 0.5, 0.1])
    families["whole_container_1.0"] = InstanceSpec.of([1.0, 0.5])
    return families


# SHA-256 of each family's packing document (UTF-8) followed by json.dumps of
# its phase trace, as commit d5e12d2 produced them, before the polar index;
# the three Phase-1 paths as commit 2682a6e produced them, before Phase 1 went
# through boundary_packing.
FAMILY_SHA256 = {
    "worst_case_0": "9f97738aa9aae3d55775f7495775bc3a7fe2eb9d9aac4d63858e767341586788",
    "worst_case_0.01": "d8de9e7e13b16343533469ddb738295717690a130f55ec11dcfb8482b7fdd05a",
    "pocket3": "e15e3374f63d4af3afa092afda7037ef06cc680544ba49aeec8ba85d5cff2877",
    "near_threshold_recursion": "239819c181c3afbbda838b32f1da891847e4661ebaf0ac7e6fe5d86a69315d4d",
    "near_threshold_quarter": "4eb1a0ba2faf5c1fdb2d129e9148fa4a6af0b142497c0a44029a2581f00d152f",
    "near_threshold_pass": "90406b9717b8c509fb1c896d17875e0e56a86d6bf6028c063a6ffd76e6f665f4",
    "radius_0.1_x10": "c6c2868bc6b3d627e771ca410efbb304b3bf11ee990c2402b831d51006d2b7e4",
    "radius_0.1_x40": "fa6635d9f79c347b18d5111894949aa73e2e135e00675cd216b944e6e63d635d",
    "radius_0.1_x49": "c85170db307ba31ca30fbd4ed7f702e9997a7a67d6590bea0c55f3f6b867f838",
    "radius_0.1_x50": "efec32b2a8aab09792371130b416570396f4b0ec0884830b48da3c8e158ad254",
    "radius_0.1_x80": "045546e07b0a22d60e74b1a64af12ec5c19aa2645c09b8bf6d4868853337c62a",
    "recursion_chain_3": "39b86b9239eaabb3e4066de20a3289f99ada09b8a8ab24de046f4918a1638cda",
    "phase1_partial_0.6_0.5": "fd383e2609cc2d8d8b2451dfa74e457577dd23c147ecc5e7e47ee958d822b065",
    "whole_container_1.0": "29a8006039d9fed7cb8705e1598e349bcffd5ebc659c328b3e460a4109499d88",
}


def test_criterion_2_families_pinned_across_commits():
    with criterion("2d", "non-random families byte-identical to the pinned digests"):
        got = {}
        for name, inst in family_instances().items():
            res = pack(inst)
            doc = dumps_packing(packing_from_result(res, InstanceFile(radii=inst.radii)))
            h = hashlib.sha256(doc.encode("utf-8"))
            h.update(json.dumps(res.phase_trace).encode("utf-8"))
            got[name] = h.hexdigest()
        assert got == FAMILY_SHA256


# SHA-256 of the packing document and phase trace (as for FAMILY_SHA256) of
# gen_random_area(4000, pi/2, seed, 1e-3), as commit ce1c356 produced them.
# Seed 3's inner rings keep a floor near 2*pi while tiny disks fill gaps all
# round the circle, so its placements search the most of the circle.
LARGE_RANDOM_SHA256 = {
    1: "93069de9fcb9f8af4ff3719b01a58bd4507ffd76e386e915d3d18a57850014ee",
    3: "e83996217aa3b378d7d67691b62c021f637a3c29c8d96bbc1b67f9f19256c23b",
}


def test_criterion_2_large_random_pinned_across_commits():
    with criterion("2e", "n = 4000 random packings byte-identical to the pinned digests"):
        got = {}
        for seed in LARGE_RANDOM_SHA256:
            inst = gen_random_area(4000, math.pi / 2, seed, 1e-3)
            res = pack(inst)
            doc = dumps_packing(packing_from_result(res, InstanceFile(radii=inst.radii)))
            h = hashlib.sha256(doc.encode("utf-8"))
            h.update(json.dumps(res.phase_trace).encode("utf-8"))
            got[seed] = h.hexdigest()
        assert got == LARGE_RANDOM_SHA256


def test_criterion_3_oracle_constants():
    with criterion(3, "analysis constants"):
        assert 0.5606 < rho() < 0.56065
        table = {0.25: 0.57776, 0.39464: 0.68902, 0.495: 0.56127, 0.5: 0.5}
        for r, expected in table.items():
            assert cone_density(r) == pytest.approx(expected, abs=5e-5)
        assert zipper_one_density() == pytest.approx(0.77036, abs=5e-5)
        for lam, expected in ((0.125, -0.01576), (0.196638, 0.01756), (0.25, 0.0)):
            assert gap_excess(lam) == pytest.approx(expected, abs=5e-5)


def test_criterion_4_recursion_geometry():
    with criterion(4, "inscribed-disk recursion geometry"):
        unit = unit_container()
        d1 = PlacedDisk(Point(0.5, 0.0), 0.5)
        d2 = PlacedDisk(Point(-0.5, 0.0), 0.5)
        c = inscribed_disk_after_two(unit, d1, d2)
        # Independent oracle: curvature relation plus tangency residuals.
        k3 = (-1.0 + 2.0 + 2.0) + 2.0 * math.sqrt(-1.0 * 2.0 + 4.0 + 2.0 * -1.0)
        assert abs(c.radius - 1.0 / k3) <= 1e-12
        assert abs(c.radius - 1.0 / 3.0) <= 1e-12
        assert abs(math.hypot(*c.center) + c.radius - 1.0) <= 1e-12
        for d in (d1, d2):
            gap = math.dist(c.center, d.center) - (c.radius + d.radius)
            assert abs(gap) <= 1e-12
        lemma = inscribed_disk_after_two(
            unit,
            PlacedDisk(Point(0.495, 0.0), 0.505),
            PlacedDisk(Point(-0.495, 0.0), 0.505),
        )
        assert lemma.radius >= 0.2 - 1e-9


def _point_in(rng, lo, hi):
    """A point of each interval [lo, hi]."""
    return np.clip(rng.uniform(lo, hi), lo, hi)


def _operand(rng, n, divisor=False):
    """n intervals of log-uniform scale s in [1e-8, 1e4], starting in
    [-s, s] and at most s wide, and a point of each; a divisor interval that
    holds 0 is moved up by 2s + 1."""
    s = 10.0 ** rng.uniform(-8, 4, n)
    lo = rng.uniform(-s, s)
    hi = lo + np.abs(rng.uniform(0, s))
    if divisor:
        shift = np.where((lo <= 0.0) & (0.0 <= hi), 2 * s + 1.0, 0.0)
        lo, hi = lo + shift, hi + shift
    return (lo, hi), _point_in(rng, lo, hi)


def _exact_misses(enclosure, a, b, exact, rows):
    """How many of `rows` have an enclosure of a op b that misses exact(x, y),
    computed in rationals, for some float endpoints x of a and y of b."""
    misses = 0
    for i in rows.tolist():
        vals = [exact(Fraction(x[i]), Fraction(y[i])) for x in a for y in b]
        lo, hi = Fraction(enclosure[0][i]), Fraction(enclosure[1][i])
        misses += not lo <= min(vals) <= max(vals) <= hi
    return misses


def _asinc_exact(z):
    z = mpmath.mpf(z)
    return mpmath.asin(z) / z if z else mpmath.mpf(1)


def _violations(enclosure, value):
    lo, hi = enclosure
    return int(np.count_nonzero(~((lo <= value) & (value <= hi))))


def test_criterion_5_interval_soundness():
    with criterion(5, "interval enclosure soundness"):
        # The array operations the prover runs, 100k samples each; on 20k
        # of them, the exact values at the float endpoints, in rationals,
        # lie in the enclosure too, which only outward rounding ensures.
        rng = np.random.default_rng(0xD15C0)
        pick = np.random.default_rng(0xF4AC)
        n = 100_000
        for op, f, exact in ((av_add, np.add, operator.add),
                             (av_sub, np.subtract, operator.sub),
                             (av_mul, np.multiply, operator.mul),
                             (av_div, np.divide, operator.truediv)):
            a, x = _operand(rng, n)
            b, y = _operand(rng, n, divisor=op is av_div)
            got = op(a, b)
            assert _violations(got, f(x, y)) == 0, op.__name__
            rows = pick.choice(n, 20_000, replace=False)
            assert _exact_misses(got, a, b, exact, rows) == 0, op.__name__
        u = rng.uniform(0.0, 1e6, n)
        v = rng.uniform(u, 1e6)
        got = av_sqrt((u, v))
        assert _violations(got, np.sqrt(_point_in(rng, u, v))) == 0
        for i in pick.choice(n, 20_000, replace=False).tolist():
            lo, hi = Fraction(got[0][i]), Fraction(got[1][i])
            assert (lo <= 0 or lo * lo <= Fraction(u[i])) and hi * hi >= Fraction(v[i]), i
        # asinc: each of u <= z <= v is 0 (1 in 100), uniform on [0, 1], or
        # log-uniform down to the subnormals; asinc(0) = 1.
        draws = np.where(
            rng.random((3, n)) < 0.5,
            rng.uniform(0.0, 1.0, (3, n)),
            np.exp2(rng.uniform(-1074.0, 0.0, (3, n))),
        )
        draws[rng.random((3, n)) < 0.01] = 0.0
        u, z, v = np.sort(draws, axis=0)
        asin = np.fromiter(map(math.asin, z.tolist()), dtype=np.float64, count=n)
        with np.errstate(invalid="ignore"):
            truth = np.where(z == 0.0, 1.0, asin / z)
        got = av_asinc((u, v))
        assert _violations(got, truth) == 0
        # asinc increases, so each end must hold asinc at its own endpoint,
        # here in mpmath at 40 digits, on all 100k rows.
        with mpmath.workdps(40):
            for i in range(n):
                assert got[0][i] <= _asinc_exact(u[i]) and _asinc_exact(v[i]) <= got[1][i], i

        # eval_density enclosure: 10^4 boxes x 10^2 interior points.
        configs = [c for tag in ConfigTag for c in certified_configs(tag)]
        py_rng = random.Random(42)
        np_rng = np.random.default_rng(42)
        boxes_done = 0
        points_checked = 0
        attempts = 0
        while boxes_done < 10_000:
            attempts += 1
            assert attempts < 200_000, "box sampling stalled"
            cfg = configs[boxes_done % len(configs)]
            box = _sample_box(py_rng, cfg)
            if box is None:
                continue
            lo, hi = box
            _, area, pot = _sector_terms(cfg, lo, hi)
            (d_lo,), (d_hi,) = eval_density(area, pot)
            if math.isnan(d_lo):
                continue
            # Interior points in mu, rho, evaluated at lambda = 1 - mu, r = mu*rho.
            mu = np_rng.uniform(lo[0, 0], hi[0, 0], 100)
            rs = [mu * np_rng.uniform(lo[0, k], hi[0, k], 100) for k in range(1, 1 + cfg.arity)]
            vals = point_density(
                cfg.tag.value,
                cfg.orientation.value,
                1.0 - mu,
                rs[0],
                rs[1],
                rs[2] if cfg.arity == 3 else None,
            )
            finite = vals[np.isfinite(vals)]
            assert np.all((finite >= d_lo) & (finite <= d_hi)), (
                cfg.label,
                lo,
                hi,
            )
            boxes_done += 1
            points_checked += finite.size
        assert points_checked >= 500_000


def _sample_box(rng, cfg):
    """A box of the searched coordinates around an admissible point with
    lambda in [0.5, 0.99]: mu = 1 - lambda in [0.01, 0.5], rho_i = r_i / mu."""
    mu = rng.uniform(0.01, 0.5)
    rho1 = rng.uniform(0.01, 0.5)
    lo2 = max(0.0, 0.5 - rho1)
    if lo2 > rho1:
        return None
    rho2 = rng.uniform(lo2, rho1)
    dims = [mu, rho1, rho2]
    if cfg.arity == 3:
        lo3 = max(0.0, 0.5 - rho2)
        if lo3 > rho2:
            return None
        dims.append(rng.uniform(lo3, rho2))
    w = 10.0 ** rng.uniform(-6, -2.3)
    lo = [max(0.0, v - w / 2) for v in dims]
    hi = [v + w / 2 for v in dims]
    lo[0], hi[0] = max(0.01, lo[0]), min(0.5, hi[0])
    box = np.array([lo]), np.array([hi])
    if not _sector_terms(cfg, *box)[0][0]:
        return None
    return box


def test_criterion_6_prover_desk_scale():
    with criterion(6, "prover desk-scale T1/T2 on lambda [0.5, 0.6]"):
        t0 = time.perf_counter()
        reports = criterion6_reports()
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"prover runs took {elapsed:.0f} s"
        assert len(reports) == 3  # T1 outer; T2 outer and inner
        for rep in reports:
            assert rep.certified, rep.summary_line()
            assert rep.boxes_proven > 0


# Desk-scale counts (proven, pruned, processed) of the criterion-6 runs, as
# the evaluator in mu = 1 - lambda, rho = r / mu with boxes split along their
# widest raw width gives them ("mu-rho-2").
DESK_COUNTS = {
    "T1/outer": (2936, 361, 6530),
    "T2/outer": (3431, 149, 7096),
    "T2/inner": (986, 167, 2242),
}


def test_desk_counts_pinned_across_commits():
    reports = criterion6_reports()
    got = {
        rep.config.label: (
            rep.boxes_proven,
            rep.boxes_pruned_infeasible,
            rep.boxes_processed,
        )
        for rep in reports
    }
    assert got == DESK_COUNTS


def test_criterion_7_prover_canary():
    with criterion(7, "prover canary at impossible bound"):
        cfg = ConfigType(ConfigTag.T1, Orientation.OUTER_FIRST)
        rep = prove_case(
            cfg,
            lambda_range=(0.5, 0.55),
            b_d=0.99,
            budget=ProverBudget(cells=8, max_boxes=8000, max_depth=30),
        )
        assert rep.failures, "prover claimed an impossible bound"


# (proven, pruned) of each configuration in the SUMMARY lines of the full
# reproduction at default flags (evaluator "mu-rho-2"), so that a change to
# the split rule or the evaluation shows up here, not only as a slower run.
FULL_COUNTS = {
    "T1/outer": (37504, 4987),
    "T2/outer": (7740, 581),
    "T2/inner": (3896, 611),
    "T3/outer": (825, 370),
    "T3/inner": (1608, 683),
    "T4/outer": (1375, 444),
    "T4/inner": (6184, 1451),
    "T5/outer": (491, 744),
    "T6/outer": (199, 322),
    "T6/inner": (473, 622),
    "T7/outer": (3741, 2811),
    "T7/inner": (2979, 2360),
    "T8/outer": (4946, 3685),
    "T8/inner": (7582, 4564),
}
# The certificate of that run: one line per leaf box and one SUMMARY line per
# configuration, the same bytes on every run.
FULL_CERTIFICATE_LINES = 103_792
FULL_CERTIFICATE_SHA256 = "7f056c587f937e463f608ca05be4f53e491c49d25d701f965204a5a0f48791a2"


@pytest.mark.parametrize(
    "flags, lambda_max",
    [([], 0.99), (["--lambda-max", "1"], 1.0)],
    ids=["default", "lambda-max-1"],
)
def test_criterion_10_full_reproduction_certifies(tmp_path, capsys, flags, lambda_max):
    """The full reproduction: `diskpack prove --case all` at default flags,
    and with lambda up to 1, certifies the bound on all 14 configurations
    with no unresolved box; at default flags, with the pinned box counts and
    the pinned bytes of its certificate."""
    with criterion(10, f"full reproduction certifies on lambda [0.5, {lambda_max}]"):
        cert = tmp_path / "full.txt"
        certify = [] if flags else ["--certificate", os.fspath(cert)]
        code = main(["prove", "--case", "all", *flags, *certify])
        captured = capsys.readouterr()
        summaries = [line for line in captured.out.splitlines() if line.startswith("SUMMARY ")]
        configs = [c for tag in ConfigTag for c in certified_configs(tag)]
        assert len(summaries) == len(configs) == 14
        for line, cfg in zip(summaries, configs):
            assert line.startswith(
                f"SUMMARY case={cfg.tag.value} orient={cfg.orientation.value} "
            ), line
            assert " failed=0 " in line, line
        if not flags:
            counts = {
                cfg.label: tuple(
                    int(re.search(rf" {key}=(\d+) ", line).group(1))
                    for key in ("proven", "pruned")
                )
                for line, cfg in zip(summaries, configs)
            }
            assert counts == FULL_COUNTS
            data = cert.read_bytes()
            assert data.count(b"\n") == FULL_CERTIFICATE_LINES
            assert hashlib.sha256(data).hexdigest() == FULL_CERTIFICATE_SHA256
        assert "unresolved" not in captured.err
        assert code == 0


def test_criterion_8_pocket_family():
    with criterion(8, "three-disk pocket construction"):
        inst = gen_pocket3()
        expected = math.sqrt(3) / (2 + math.sqrt(3))
        for r in inst.radii:
            assert abs(r - expected) <= 1e-12
        r = POCKET3_RADIUS
        centers = [
            (
                (1 - r) * math.cos(2 * math.pi * k / 3),
                (1 - r) * math.sin(2 * math.pi * k / 3),
            )
            for k in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                residual = math.dist(centers[i], centers[j]) - 2 * r
                assert abs(residual) <= 1e-12


def test_criterion_9_determinism():
    with criterion(9, "bitwise determinism across runs"):
        # Criterion 1 output: byte-identical across runs.
        inst = InstanceSpec.of([0.5, 0.5])
        doc_bytes = [
            dumps_packing(
                packing_from_result(pack(inst), InstanceFile(radii=inst.radii))
            )
            for _ in range(2)
        ]
        assert doc_bytes[0] == doc_bytes[1]

        # Criterion 2 outputs: byte-identical across two full runs.
        if "c2" not in _cache:
            _cache["c2"] = guarantee_suite_run()
        first, _ = _cache["c2"]
        second, _ = guarantee_suite_run()
        assert [s for _, _, s in first] == [s for _, _, s in second]

        # Criterion 6 reports: equal (==) across two runs, failures included.
        assert criterion6_run() == criterion6_reports()
