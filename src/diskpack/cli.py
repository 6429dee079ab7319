"""Command-line interface: gen, pack, verify, render, oracle, prove."""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from . import oracles
from .engine import InstanceError, InstanceSpec, pack
from .files import (
    FileFormatError,
    InstanceFile,
    dumps_instance,
    dumps_packing,
    dumps_report,
    instance_digest,
    packing_from_result,
    parse_instance,
    parse_packing,
)
from .instances import (
    GeneratorKind,
    ThresholdEdge,
    gen_near_threshold,
    gen_pocket3,
    gen_random_area,
    gen_worst_case,
)
from .prover import (
    DENSITY_BOUND,
    LAMBDA_MAX,
    ConfigTag,
    ConfigType,
    ProverBudget,
    certified_configs,
    prove_case,
)
from .render import render_svg
from .verifier import ViolationKind, verify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_UNPROVEN = 3


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_gen(args) -> int:
    kind = GeneratorKind(args.kind)
    if kind is GeneratorKind.WORST_CASE:
        inst = gen_worst_case(args.inflate)
    elif kind is GeneratorKind.RANDOM_AREA:
        inst = gen_random_area(args.n, args.total_area, args.seed, args.min_radius_ratio)
    elif kind is GeneratorKind.POCKET3:
        inst = gen_pocket3()
    else:
        inst = gen_near_threshold(ThresholdEdge(args.edge))
    _write_text(args.output, dumps_instance(InstanceFile(radii=inst.radii)))
    return EXIT_OK


def _cmd_pack(args) -> int:
    inst_file = parse_instance(_read_text(args.instance))
    spec = InstanceSpec.of(inst_file.normalized_radii())
    result = pack(spec)
    if not result.complete:
        print(
            f"warning: packing incomplete, {len(result.unplaced)} disk(s) unplaced "
            "(instance exceeds the guaranteed area budget?)",
            file=sys.stderr,
        )
    doc = packing_from_result(result, inst_file, include_trace=args.trace)
    _write_text(args.output, dumps_packing(doc))
    return EXIT_OK


def _cmd_verify(args) -> int:
    packing = parse_packing(_read_text(args.packing))
    instance_radii = None
    if args.instance is not None:
        inst_file = parse_instance(_read_text(args.instance))
        if instance_digest(inst_file) != packing.instance_digest:
            print("error: packing digest does not match the instance", file=sys.stderr)
            return EXIT_ERROR
        instance_radii = inst_file.normalized_radii()
    placements = [(r, (x, y)) for r, x, y in packing.placements]
    report = verify(placements, instance_radii, epsilon=args.epsilon)
    if instance_radii is not None and not any(
        v.kind is ViolationKind.RADIUS_MISMATCH for v in report.violations
    ):
        # Every placed radius is an instance radius, so the report names none;
        # the unplaced radii must be the rest of the instance, and nothing else.
        accounted = [r for r, _, _ in packing.placements] + list(packing.unplaced)
        if sorted(accounted) != sorted(instance_radii):
            print(
                f"error: the packing's {len(accounted)} placed and unplaced radii "
                f"are not the instance's {len(instance_radii)} radii",
                file=sys.stderr,
            )
            return EXIT_ERROR
    sys.stdout.write(dumps_report(report))
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_render(args) -> int:
    packing = parse_packing(_read_text(args.packing))
    if args.show_rings and packing.trace is None:
        print(
            "warning: packing has no trace (pack with --trace); rings omitted",
            file=sys.stderr,
        )
    svg = render_svg(packing, show_rings=args.show_rings, labels=args.labels)
    _write_text(args.output, svg)
    return EXIT_OK


_ORACLE_CONSTANTS = {
    "rho": oracles.rho,
    "zipper_one_density": oracles.zipper_one_density,
}
_ORACLE_FUNCTIONS = {
    "cone_density": oracles.cone_density,
    "gap_excess": oracles.gap_excess,
}


def _cmd_oracle(args) -> int:
    if args.fn in _ORACLE_FUNCTIONS:
        if not args.at:
            print(f"error: --fn {args.fn} requires --at", file=sys.stderr)
            return EXIT_ERROR
        fn = _ORACLE_FUNCTIONS[args.fn]
        for x in args.at:
            print(f"{args.fn}({format(x, '.17g')})={format(fn(x), '.17g')}")
        return EXIT_OK
    if args.at:
        print(
            f"error: --at needs --fn {' or '.join(sorted(_ORACLE_FUNCTIONS))}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    for name in [args.fn] if args.fn else _ORACLE_CONSTANTS:
        print(f"{name}={format(_ORACLE_CONSTANTS[name](), '.17g')}")
    return EXIT_OK


def _cmd_prove(args) -> int:
    tags = list(ConfigTag) if args.case == "all" else [ConfigTag(args.case)]
    budget = ProverBudget(max_depth=args.max_depth, max_boxes=args.max_boxes)
    configs: List[ConfigType] = []
    for tag in tags:
        for cfg in certified_configs(tag):
            if args.orient != "both" and cfg.orientation.value != args.orient:
                continue
            configs.append(cfg)
    if not configs:
        print("error: no certified configuration matches the filter", file=sys.stderr)
        return EXIT_ERROR
    if args.certificate in ("-", ""):
        # stdout carries the SUMMARY lines and an empty path names no file,
        # so the certificate needs a file path.
        print(f"error: --certificate needs a file path, not {args.certificate!r}", file=sys.stderr)
        return EXIT_ERROR
    cert = None
    if args.certificate:
        part = args.certificate + ".part"
        # The certificate is written to PATH.part and moved onto PATH only by
        # a finished run, so PATH is always a whole certificate or untouched.
        cert = open(part, "w", encoding="utf-8")
    any_failures = False
    try:
        for cfg in configs:
            start = time.monotonic()
            report = prove_case(
                cfg,
                lambda_range=(args.lambda_min, args.lambda_max),
                b_d=args.bound,
                budget=budget,
                certificate=cert,
            )
            print(f"{report.summary_line()} wall={time.monotonic() - start:.3f}s")
            if report.failures:
                any_failures = True
                print(
                    f"  unresolved: {len(report.failures)} box(es); the bound is "
                    "UNPROVEN on them (never disproven)",
                    file=sys.stderr,
                )
        if cert is not None:
            cert.close()
            os.replace(part, args.certificate)
    except BaseException:
        if cert is not None:
            cert.close()
            os.unlink(part)
        raise
    return EXIT_UNPROVEN if any_failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskpack",
        description=(
            "Pack disks of total area <= pi/2 into the unit disk, verify "
            "packings, and certify the ring density bound."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument(
        "--kind",
        default="worst-case",
        choices=[k.value for k in GeneratorKind],
    )
    g.add_argument("--n", type=int, default=10, help="disk count (random-area)")
    g.add_argument(
        "--total-area",
        type=float,
        default=1.5707963267948966,
        help="total disk area (random-area), default pi/2",
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--min-radius-ratio", type=float, default=1e-3)
    g.add_argument(
        "--inflate",
        type=float,
        default=0.0,
        help="relative inflation of the worst-case radii (makes it unpackable)",
    )
    g.add_argument(
        "--edge",
        default="recursion",
        choices=[e.value for e in ThresholdEdge],
        help="near-threshold family to generate",
    )
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pack", help="pack an instance")
    p.add_argument("instance", nargs="?", default=None, help="instance file or stdin")
    p.add_argument("--trace", action="store_true", help="embed the phase trace")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_pack)

    v = sub.add_parser("verify", help="verify a packing")
    v.add_argument("packing", nargs="?", default=None, help="packing file or stdin")
    v.add_argument("--instance", default=None, help="instance file to check against")
    v.add_argument("--epsilon", type=float, default=1e-7)
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("render", help="render a packing to SVG")
    r.add_argument("packing", nargs="?", default=None)
    r.add_argument("--show-rings", action="store_true")
    r.add_argument("--labels", action="store_true")
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=_cmd_render)

    o = sub.add_parser("oracle", help="print density constants/functions")
    o.add_argument(
        "--fn",
        default=None,
        choices=sorted(_ORACLE_CONSTANTS) + sorted(_ORACLE_FUNCTIONS),
    )
    o.add_argument("--at", type=float, action="append", default=[])
    o.set_defaults(func=_cmd_oracle)

    pr = sub.add_parser("prove", help="run the interval branch-and-bound prover")
    pr.add_argument(
        "--case",
        default="all",
        choices=["all"] + [t.value for t in ConfigTag],
    )
    pr.add_argument("--orient", default="both", choices=["both", "outer", "inner"])
    pr.add_argument("--bound", type=float, default=DENSITY_BOUND)
    pr.add_argument("--lambda-min", type=float, default=0.5)
    pr.add_argument("--lambda-max", type=float, default=LAMBDA_MAX)
    defaults = ProverBudget()
    pr.add_argument(
        "--max-depth", type=int, default=defaults.max_depth,
        help="deepest bisection level of a cell's search, counted from the cell, "
        "not from the root the cells are pre-split from",
    )
    pr.add_argument(
        "--max-boxes", type=int, default=defaults.max_boxes,
        help=f"box budget per configuration, split evenly over the {defaults.cells} cells",
    )
    pr.add_argument(
        "--certificate", default=None,
        help="write one line per leaf box and a summary per configuration; "
        "PATH is replaced only when the run finishes",
    )
    pr.set_defaults(func=_cmd_prove)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, InstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
