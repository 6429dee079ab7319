"""Set-up as a user pays it: import every layer and run each once on a tiny
input, so that lazy imports and first-call work finish before timing."""

from __future__ import annotations

import math


def warm_up() -> None:
    from diskpack import engine, files, instances, prover, verifier

    inst = instances.gen_random_area(30, math.pi / 2.0, 0, 1e-2)
    ifile = files.parse_instance(files.dumps_instance(files.InstanceFile(radii=inst.radii)))
    result = engine.pack(engine.InstanceSpec.of(ifile.normalized_radii()))
    pfile = files.parse_packing(files.dumps_packing(files.packing_from_result(result, ifile)))
    placements = [(r, (x, y)) for r, x, y in pfile.placements]
    files.dumps_report(verifier.verify(placements, ifile.normalized_radii()))
    config = prover.ConfigType(prover.ConfigTag.T1, prover.Orientation.OUTER_FIRST)
    prover.prove_case(
        config,
        lambda_range=(0.5, 0.502),
        budget=prover.ProverBudget(cells=4, max_boxes=2000),
        workers=1,
    )
