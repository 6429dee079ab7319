"""Metric names, units and the per-layer figures of a traced pass.

END_TO_END and PER_LAYER are the names BENCHMARK.json declares; a run prints
all of one list or the other, with 0 for a layer the workload does not run.
"""

from __future__ import annotations

import collections
from typing import Dict

from .tracer import self_times

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
)

PROVER_CONFIGS = ("T1-outer", "T2-inner", "T7-inner")

PER_LAYER = (
    ("geometry.place_in_ring_calls", "count"),
    ("geometry.place_in_ring_s", "s"),
    ("geometry.place_tangent_calls", "count"),
    ("geometry.place_tangent_s", "s"),
    ("geometry.prev_per_call", "count"),
    ("geometry.constraints_per_call", "count"),
    ("geometry.constraint_yield", "share"),
    ("geometry.no_fit_share", "share"),
    ("geometry.self_s", "s"),
    ("engine.pack_s", "s"),
    ("engine.self_s", "s"),
    ("engine.phase1_s", "s"),
    ("engine.boundary_packing_s", "s"),
    ("engine.ring_packing_s", "s"),
    ("engine.rings_created", "count"),
    ("engine.rings_split", "count"),
    ("engine.rings_closed", "count"),
    ("engine.rings_full", "count"),
    ("engine.central_steps", "count"),
    ("engine.recursions", "count"),
    ("verifier.verify_s", "s"),
    ("verifier.pairs", "count"),
    ("verifier.pairs_per_s", "1/s"),
    ("verifier.violations", "count"),
    ("files.instance_io_s", "s"),
    ("files.packing_io_s", "s"),
    ("files.report_io_s", "s"),
    ("files.bytes", "B"),
    ("files.self_s", "s"),
    ("instances.generate_s", "s"),
    ("prover.sector_terms_calls", "count"),
    ("prover.sector_terms_s", "s"),
    ("prover.admissible_s", "s"),
    ("prover.split_box_s", "s"),
    *((f"prover.{cfg}.boxes_per_s", "1/s") for cfg in PROVER_CONFIGS),
    ("prover.boxes_processed", "count"),
    ("prover.boxes_proven", "count"),
    ("prover.boxes_pruned", "count"),
    ("prover.max_depth", "count"),
    ("prover.unresolved", "count"),
    ("prover.proven_share", "share"),
    ("prover.boxes_per_lambda", "count"),
    ("prover.evals_per_box", "count"),
    ("prover.eval_density_s", "s"),
    ("prover.cells_s", "s"),
    ("prover.parent_s", "s"),
    ("prover.certificate_bytes", "B"),
    ("prover.certificate_lines", "count"),
    ("prover.checkpoint_bytes", "B"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
    ("host.ref_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(tracer, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures from a traced pass: span totals by name, self time
    by layer, the tracer's counters and the round's deterministic counts."""
    total = collections.defaultdict(float)
    calls = collections.defaultdict(int)
    layer_self = collections.defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end = span[0], span[1], span[2]
        total[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
    c = tracer.counters
    kernel_calls = calls["geometry.place_in_ring"] + calls["geometry.place_tangent"]
    boxes = counts.get("prover.boxes_processed", 0)
    out = dict.fromkeys((name for name, _unit in PER_LAYER), 0.0)
    out.update(counts)
    out.update({
        "geometry.place_in_ring_calls": calls["geometry.place_in_ring"],
        "geometry.place_in_ring_s": total["geometry.place_in_ring"],
        "geometry.place_tangent_calls": calls["geometry.place_tangent"],
        "geometry.place_tangent_s": total["geometry.place_tangent"],
        "geometry.prev_per_call": _ratio(c["geometry.prev_at_call"], kernel_calls),
        "geometry.constraints_per_call": _ratio(c["geometry.constraints"], kernel_calls),
        "geometry.constraint_yield": _ratio(c["geometry.constraints"], c["geometry.prev_scanned"]),
        "geometry.no_fit_share": _ratio(c["geometry.no_fit"], kernel_calls),
        "geometry.self_s": layer_self["geometry"],
        "engine.pack_s": total["engine.pack"],
        "engine.self_s": layer_self["engine"],
        "engine.phase1_s": total["engine.phase1"],
        "engine.boundary_packing_s": total["engine.boundary_packing"],
        "engine.ring_packing_s": total["engine.ring_packing"],
        "verifier.verify_s": total["verifier.verify"],
        "verifier.pairs_per_s": _ratio(counts.get("verifier.pairs", 0), total["verifier.verify"]),
        "files.instance_io_s": total["files.instance_io"],
        "files.packing_io_s": total["files.packing_io"],
        "files.report_io_s": total["files.report_io"],
        "files.self_s": layer_self["files"],
        "instances.generate_s": total["instances.generate"],
        "prover.sector_terms_calls": c["prover.sector_terms_calls"],
        "prover.sector_terms_s": c["prover.sector_terms_s"],
        "prover.admissible_s": c["prover.admissible_s"],
        "prover.split_box_s": c["prover.split_box_s"],
        "prover.evals_per_box": _ratio(c["prover.sector_terms_calls"], boxes),
        "prover.eval_density_s": c["prover.eval_density_s"],
        "prover.cells_s": total["prover.run_cell"],
        "prover.parent_s": total["prover.prove_case"] - total["prover.run_cell"],
        "trace.spans": len(tracer.spans),
    })
    return out


def install_wrappers(tracer) -> None:
    """Wrap the module attributes the engine and prover call through their
    module globals. `Tracer.restore` undoes every one."""
    from diskpack import engine, geometry, prover

    c = tracer.counters

    def kernel(prev_pos: int):
        def observe(args, kwargs, out):
            prev = kwargs["prev"] if "prev" in kwargs else (
                args[prev_pos] if len(args) > prev_pos else ())
            c["geometry.prev_at_call"] += len(prev)
            if out is None:
                c["geometry.no_fit"] += 1
        return observe

    def constraints(args, kwargs, out):
        c["geometry.prev_scanned"] += len(args[3])
        c["geometry.constraints"] += len(out[0])

    tracer.wrap_span(engine, "place_in_ring", "geometry.place_in_ring", kernel(4))
    tracer.wrap_span(engine, "place_tangent", "geometry.place_tangent", kernel(3))
    tracer.wrap_span(engine, "_phase1_recursion", "engine.phase1")
    tracer.wrap_span(engine, "boundary_packing", "engine.boundary_packing")
    tracer.wrap_span(engine, "ring_packing", "engine.ring_packing")
    tracer.wrap_counter(geometry, "_blocking_constraints", "geometry.blocking", constraints)
    tracer.wrap_span(prover, "_run_cell", "prover.run_cell")
    tracer.wrap_counter(prover, "_sector_terms", "prover.sector_terms")
    tracer.wrap_counter(prover, "admissible", "prover.admissible")
    tracer.wrap_counter(prover, "_split_box", "prover.split_box")
    tracer.wrap_counter(prover, "eval_density", "prover.eval_density")
