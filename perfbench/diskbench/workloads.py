"""The four workloads. Each builds its inputs from the seed once and then runs
rounds of identical, deterministic work through the public calls of
`instances`, `files`, `engine`, `verifier` and `prover`.

Calls go through module attributes (`engine.pack`, `verifier.verify`, ...),
so a traced pass sees the wrappers the tracer installs. A round returns its
wall time, the deterministic facts of its outputs (the fingerprint, which
must repeat exactly across rounds and runs) and the correctness failures.
Each round times its work with a `HostClock`, split wherever the work has a
natural seam, so that its wall time can also be read at the reference host
speed.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from diskpack import engine, files, instances, prover, verifier

from .hostclock import HostClock
from .inputs import pack_mixed_specs, planted_lattice
from .tracer import NullTracer

_perf = time.perf_counter
HALF_PI = math.pi / 2.0


@dataclass
class Round:
    wall_s: float
    ref_wall_s: float  # wall_s at the reference host speed (hostclock.py)
    host_s: float  # median probe time of the round
    work: int  # disks (pack, verify) or boxes (prove)
    attempted: int
    failures: List[str]
    fingerprint: Dict[str, object]
    report: Dict[str, float] = field(default_factory=dict)  # printed, not gated
    layer: Dict[str, float] = field(default_factory=dict)  # per-layer counts


def _sha(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
    return h.hexdigest()


def _verify_placements(pfile):
    return [(r, (x, y)) for r, x, y in pfile.placements]


class PackMixed:
    """gen -> instance file -> pack -> packing file -> verify -> report, per
    instance, as the CLI subcommands chain them."""

    name = "pack-mixed"
    unit = "disks"

    def __init__(self, seed: int, smoke: bool = False, workdir: Optional[str] = None):
        count, n_max = (10, 40) if smoke else (200, 500)
        self.specs = pack_mixed_specs(seed, count, n_max)

    def run_round(self, tr, single_process: bool) -> Round:
        latencies, ptexts, rtexts, outcomes = [], [], [], []
        files_bytes = 0
        clock = HostClock()
        clock.start()
        for n, ratio, iseed in self.specs:
            t_inst = _perf()
            with tr.span("instances.generate"):
                inst = instances.gen_random_area(n, HALF_PI, iseed, ratio)
            with tr.span("files.instance_io"):
                itext = files.dumps_instance(files.InstanceFile(radii=inst.radii))
                ifile = files.parse_instance(itext)
            with tr.span("engine.pack"):
                result = engine.pack(engine.InstanceSpec.of(ifile.normalized_radii()))
            with tr.span("files.packing_io"):
                ptext = files.dumps_packing(files.packing_from_result(result, ifile))
                pfile = files.parse_packing(ptext)
                placements = _verify_placements(pfile)
            with tr.span("verifier.verify"):
                report = verifier.verify(placements, ifile.normalized_radii())
            with tr.span("files.report_io"):
                rtext = files.dumps_report(report)
            latencies.append(_perf() - t_inst)
            ptexts.append(ptext)
            rtexts.append(rtext)
            files_bytes += len(itext) + len(ptext) + len(rtext)
            outcomes.append((n, result, pfile, report))
            clock.mark()
        clock.stop()

        failures = []
        phases = dict.fromkeys(
            ("rings_created", "rings_split", "rings_closed", "rings_full",
             "central_steps", "recursions"), 0)
        pairs = violations = disks = 0
        for k, (n, result, pfile, report) in enumerate(outcomes):
            if not (result.complete and pfile.complete and report.valid
                    and len(pfile.placements) == n):
                failures.append(
                    f"instance {k} (n={n}): complete={result.complete} "
                    f"valid={report.valid} placed={len(pfile.placements)}")
            for ev in result.phase_trace:
                kind = ev["event"]
                if kind == "ring_created":
                    phases["rings_split" if ev.get("split") else "rings_created"] += 1
                elif kind == "ring_state":
                    phases["rings_" + ev["state"]] += 1
                elif kind == "central_container":
                    phases["central_steps"] += 1
                elif kind == "recursion":
                    phases["recursions"] += 1
            disks += n
            pairs += n * (n - 1) // 2
            violations += len(report.violations)
        # Each split opens two rings; count operations, and every ring opened.
        phases["rings_split"] //= 2
        phases["rings_created"] += 2 * phases["rings_split"]
        fingerprint = {
            "packings_sha256": _sha(ptexts),
            "reports_sha256": _sha(rtexts),
            "disks": disks,
            **phases,
        }
        layer = {f"engine.{k}": v for k, v in phases.items()}
        layer.update({
            "verifier.pairs": pairs,
            "verifier.violations": violations,
            "files.bytes": files_bytes,
        })
        return Round(
            wall_s=clock.wall_s,
            ref_wall_s=clock.ref_wall_s(),
            host_s=clock.host_s(),
            work=disks,
            attempted=len(outcomes),
            failures=failures,
            fingerprint=fingerprint,
            report={
                "instance_p50_s": statistics.median(latencies),
                "instance_p90_s": statistics.quantiles(latencies, n=10)[8],
                "instance_samples": len(latencies),
            },
            layer=layer,
        )


class VerifyLarge:
    """The CLI verify path on a packing made outside the engine: parse the
    instance and packing files, check the digest, verify, write the report."""

    name = "verify-large"
    unit = "disks"

    def __init__(self, seed: int, smoke: bool = False, workdir: Optional[str] = None):
        self.planted = planted_lattice(
            seed, *((150, 3, 2, 2) if smoke else (4000, 24, 8, 8)))
        ifile = files.InstanceFile(radii=self.planted.instance_radii)
        self.itext = files.dumps_instance(ifile)
        self.ptext = files.dumps_packing(files.PackingFile(
            instance_digest=files.instance_digest(ifile),
            placements=tuple((r, x, y) for r, (x, y) in self.planted.placements),
            complete=True,
            unplaced=(),
        ))

    def run_round(self, tr, single_process: bool) -> Round:
        clock = HostClock()
        clock.start()
        with tr.span("files.packing_io"):
            pfile = files.parse_packing(self.ptext)
            placements = _verify_placements(pfile)
        with tr.span("files.instance_io"):
            ifile = files.parse_instance(self.itext)
            digest_ok = files.instance_digest(ifile) == pfile.instance_digest
        with tr.span("verifier.verify"):
            report = verifier.verify(placements, ifile.normalized_radii())
        with tr.span("files.report_io"):
            rtext = files.dumps_report(report)
        clock.stop()

        got = tuple((v.kind.value, v.indices) for v in report.violations)
        failures = []
        if not digest_ok:
            failures.append("instance digest does not match the packing")
        if got != self.planted.expected:
            missing = sorted(set(self.planted.expected) - set(got))
            extra = sorted(set(got) - set(self.planted.expected))
            failures.append(f"violations differ: missing {missing[:5]}, unexpected {extra[:5]}")
        n = len(placements)
        return Round(
            wall_s=clock.wall_s,
            ref_wall_s=clock.ref_wall_s(),
            host_s=clock.host_s(),
            work=n,
            attempted=1,
            failures=failures,
            fingerprint={"report_sha256": _sha([rtext]), "disks": n,
                         "violations": len(got)},
            layer={
                "verifier.pairs": n * (n - 1) // 2,
                "verifier.violations": len(got),
                "files.bytes": len(self.itext) + len(self.ptext) + len(rtext),
            },
        )


@contextmanager
def _mark_after(module, attr: str, clock: HostClock):
    """Split `clock` after every call of module.attr that the program makes
    through its module global; the attribute is restored on exit."""
    orig = getattr(module, attr)

    def then_mark(*args, **kwargs):
        out = orig(*args, **kwargs)
        clock.mark()
        return out

    setattr(module, attr, then_mark)
    try:
        yield
    finally:
        setattr(module, attr, orig)


def _config(label: str) -> prover.ConfigType:
    tag, orient = label.split("/")
    return prover.ConfigType(prover.ConfigTag(tag), prover.Orientation(orient))


def _prover_layer(reports, walls, lam_width) -> Dict[str, float]:
    processed = sum(r.boxes_processed for r in reports)
    proven = sum(r.boxes_proven for r in reports)
    layer = {
        "prover.boxes_processed": processed,
        "prover.boxes_proven": proven,
        "prover.boxes_pruned": sum(r.boxes_pruned_infeasible for r in reports),
        "prover.max_depth": max(r.max_depth for r in reports),
        "prover.unresolved": sum(len(r.failures) for r in reports),
        "prover.proven_share": proven / processed if processed else 0.0,
        "prover.boxes_per_lambda": processed / lam_width,
    }
    for r, w in zip(reports, walls):
        key = f"prover.{r.config.tag.value}-{r.config.orientation.value}.boxes_per_s"
        layer[key] = r.boxes_processed / w
    return layer


def _counts(report) -> List[int]:
    return [report.boxes_processed, report.boxes_proven,
            report.boxes_pruned_infeasible, len(report.failures), report.max_depth]


class ProveDesk:
    """Desk-scale certification of three configurations on one worker, with
    no certificate or checkpoint. The inputs are fixed; the seed only orders
    the configurations."""

    name = "prove-desk"
    unit = "boxes"
    LAMBDA = (0.5, 0.55)

    def __init__(self, seed: int, smoke: bool = False, workdir: Optional[str] = None):
        labels = ["T1/outer", "T2/inner", "T7/inner"]
        random.Random(f"prove-desk:{seed}").shuffle(labels)
        self.configs = [_config(lb) for lb in labels]
        self.budget = prover.ProverBudget(cells=4 if smoke else 64)
        # Smoke runs certify a weaker bound, which takes a few thousand boxes.
        self.bound = 0.3 if smoke else prover.DENSITY_BOUND

    def run_round(self, tr, single_process: bool) -> Round:
        reports, walls = [], []
        clock = HostClock()
        # One worker runs the cells in this process. A traced round is not
        # split, so that no probe counts in its prove_case spans.
        traced = not isinstance(tr, NullTracer)
        with nullcontext() if traced else _mark_after(prover, "_run_cell", clock):
            clock.start()
            for config in self.configs:
                t_cfg = _perf()
                with tr.span("prover.prove_case"):
                    reports.append(prover.prove_case(
                        config, lambda_range=self.LAMBDA, b_d=self.bound,
                        budget=self.budget, workers=1))
                walls.append(_perf() - t_cfg)
            clock.stop()
        failures = [f"{r.config.label}: {len(r.failures)} unresolved box(es)"
                    for r in reports if not r.certified]
        layer = _prover_layer(reports, walls, self.LAMBDA[1] - self.LAMBDA[0])
        return Round(
            wall_s=clock.wall_s,
            ref_wall_s=clock.ref_wall_s(),
            host_s=clock.host_s(),
            work=layer["prover.boxes_processed"],
            attempted=len(reports),
            failures=failures,
            fingerprint={r.config.label: _counts(r) for r in reports},
            report={"unresolved": layer["prover.unresolved"]},
            layer=layer,
        )


_WALL_FIELD = re.compile(r"wall=[0-9.]+s")


class ProveCert:
    """T1/outer at the admissibility boundary with a box budget, writing a
    certificate and a checkpoint, on two workers (one when traced)."""

    name = "prove-cert"
    unit = "boxes"
    LAMBDA = (0.98, 0.99)

    def __init__(self, seed: int, smoke: bool = False, workdir: Optional[str] = None):
        if workdir is None:
            raise ValueError("prove-cert writes files and needs a work directory")
        self.workdir = workdir
        self.config = _config("T1/outer")
        self.budget = prover.ProverBudget(
            cells=4 if smoke else 16, max_boxes=2000 if smoke else 200_000)

    def run_round(self, tr, single_process: bool) -> Round:
        cert_path = os.path.join(self.workdir, "prove-cert.certificate")
        ck_path = os.path.join(self.workdir, "prove-cert.checkpoint")
        saved_tempdir = tempfile.tempdir
        tempfile.tempdir = self.workdir  # per-cell certificate logs stay here
        clock = HostClock()
        try:
            # Probed only before and after: a probe while the two workers run
            # would share the two vCPUs with them and read the scheduler.
            clock.start()
            with open(cert_path, "w", encoding="utf-8") as cert:
                with tr.span("prover.prove_case"):
                    report = prover.prove_case(
                        self.config, lambda_range=self.LAMBDA, budget=self.budget,
                        workers=1 if single_process else 2,
                        checkpoint=ck_path, certificate=cert)
            clock.stop()
        finally:
            tempfile.tempdir = saved_tempdir

        with open(cert_path, "r", encoding="utf-8") as fh:
            cert_text = fh.read()
        with open(ck_path, "r", encoding="utf-8") as fh:
            ck_lines = fh.read().splitlines()
        cert_lines = cert_text.count("\n")
        failures = []
        leaves = report.boxes_proven + report.boxes_pruned_infeasible + len(report.failures)
        if cert_lines != leaves + 1 or not cert_text.splitlines()[-1].startswith("SUMMARY"):
            failures.append(f"certificate has {cert_lines} lines for {leaves} leaf boxes")
        if len(ck_lines) != 1 + self.budget.cells:
            failures.append(f"checkpoint has {len(ck_lines)} lines for {self.budget.cells} cells")
        layer = _prover_layer([report], [clock.wall_s], self.LAMBDA[1] - self.LAMBDA[0])
        layer.update({
            "prover.certificate_bytes": os.path.getsize(cert_path),
            "prover.certificate_lines": cert_lines,
            "prover.checkpoint_bytes": os.path.getsize(ck_path),
        })
        os.unlink(cert_path)
        os.unlink(ck_path)
        return Round(
            wall_s=clock.wall_s,
            ref_wall_s=clock.ref_wall_s(),
            host_s=clock.host_s(),
            work=report.boxes_processed,
            attempted=1,
            failures=failures,
            fingerprint={
                self.config.label: _counts(report),
                # The SUMMARY line embeds wall time, so it is masked here.
                "certificate_sha256_wall_masked": hashlib.sha256(
                    _WALL_FIELD.sub("wall=*", cert_text).encode("utf-8")).hexdigest(),
            },
            report={"unresolved": len(report.failures)},
            layer=layer,
        )


WORKLOADS = {w.name: w for w in (PackMixed, VerifyLarge, ProveDesk, ProveCert)}
