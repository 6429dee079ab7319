"""One benchmark run: set-up timing, timed rounds or a traced pass,
correctness gates, fingerprints and the result line."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import diskpack

from .hostclock import REF_PROBE_S, probe
from .metrics import END_TO_END, PER_LAYER, install_wrappers, layer_figures
from .tracer import NullTracer, Tracer
from .warmup import warm_up
from .workloads import WORKLOADS

_perf = time.perf_counter

SETUP_REPEATS = 10

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
from diskbench.warmup import warm_up
warm_up()
setup = time.perf_counter() - t0
from diskbench.hostclock import probe
print(repr(setup), repr(probe()))
"""


def host_ref() -> float:
    """Median of 25 host probes. It tells the host's speed states apart
    from a change in the program."""
    return statistics.median(probe() for _ in range(25))


def measure_setup(src: str, bench: str, repeats: int) -> List[Tuple[float, float]]:
    """Import plus warm-up, each time in a fresh interpreter, with the host
    probe that the interpreter ran right after it."""
    code = _SETUP_CODE.format(paths=[src, bench])
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup, probe_s = out.stdout.strip().splitlines()[-1].split()
        times.append((float(setup), float(probe_s)))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def program_hash(src: str, package: str = "diskpack") -> str:
    """SHA-256 of a package's sources, so that the fingerprints of one
    version of the program, or of the benchmark's inputs, are never compared
    with those of another."""
    h = hashlib.sha256()
    pkg = os.path.join(src, package)
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode() + b"\0")
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def check_fingerprint(store: Optional[str], key: str, fingerprint: Dict) -> Optional[str]:
    """Compare with the fingerprint an earlier run of the same key left in
    this checkout; record it when there is none. Returns a failure or None."""
    if store is None:
        return None
    known = {}
    if os.path.exists(store):
        with open(store, "r", encoding="utf-8") as fh:
            known = json.load(fh)
    canon = json.loads(json.dumps(fingerprint, sort_keys=True))
    if key in known:
        return None if known[key] == canon else (
            f"outputs differ from an earlier run of {key}: {known[key]} != {canon}")
    known[key] = canon
    tmp = store + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, sort_keys=True, indent=1)
    os.replace(tmp, store)
    return None


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    bench_dir: str,
    smoke: bool = False,
    workdir: Optional[str] = None,
    store: Optional[str] = None,
):
    """Run one workload; returns (result dict, human-readable lines)."""
    ref_start = host_ref()
    src = os.path.dirname(os.path.dirname(os.path.abspath(diskpack.__file__)))
    setup_repeats = 1 if smoke else SETUP_REPEATS
    workload = WORKLOADS[name](seed, smoke=smoke, workdir=workdir)
    warm_up()

    lines = [f"# {name} seed={seed} trace={int(trace)} seconds={seconds}"]
    null = NullTracer()
    if trace:
        # All passes in one process, so the wrappers see every prover cell.
        # Untraced passes before and after the traced one cancel a linear
        # drift in host speed out of the overhead.
        before = workload.run_round(null, single_process=True)
        tracer = Tracer()
        install_wrappers(tracer)
        try:
            traced = workload.run_round(tracer, single_process=True)
        finally:
            tracer.restore()
        after = workload.run_round(null, single_process=True)
        rounds = [before, traced, after]
        untraced_wall = (before.wall_s + after.wall_s) / 2.0
    else:
        setups = measure_setup(src, bench_dir, setup_repeats)
        # Start no round that would end past `seconds`, judged by the
        # slowest round so far, so that a run lasts max(seconds, one round).
        rounds = []
        start = _perf()
        slowest = 0.0
        while not rounds or _perf() - start + slowest <= seconds:
            t0 = _perf()
            rounds.append(workload.run_round(null, single_process=False))
            slowest = max(slowest, _perf() - t0)
    ref_end = host_ref()

    failures = [f for r in rounds for f in r.failures]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(min(len(r.failures), r.attempted) for r in rounds)
    first = rounds[0].fingerprint
    repeats = [
        f"round {k} outputs differ from round 0: {r.fingerprint} != {first}"
        for k, r in enumerate(rounds[1:], start=1) if r.fingerprint != first
    ]
    # Prove workloads ignore the seed, and a traced run (1 worker) shares
    # its key with an untraced one (2 workers on prove-cert).
    key = ":".join((program_hash(src), program_hash(bench_dir, "diskbench"),
                    name if name.startswith("prove") else f"{name}:{seed}"))
    mismatch = check_fingerprint(store, key, first)
    if mismatch:
        repeats.append(mismatch)
    if repeats:
        # Outputs that do not repeat make every operation of the run suspect.
        failures += repeats
        failed = attempted

    lines.append(f"host.ref_s start={ref_start!r} end={ref_end!r}")
    for k, v in sorted(first.items()):
        lines.append(f"fingerprint {k} {json.dumps(v)}")

    if trace:
        figures = layer_figures(tracer, traced.layer)
        figures.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - untraced_wall,
            "trace.overhead_share": (traced.wall_s - untraced_wall) / untraced_wall,
            "host.ref_s": (ref_start + ref_end) / 2.0,
        })
        metrics = {n: {"value": figures[n], "unit": u} for n, u in PER_LAYER}
        if workdir is not None:
            with open(os.path.join(workdir, f"trace-{name}-{seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    else:
        wall = statistics.median(r.wall_s for r in rounds)
        raw_setup = statistics.median(t for t, _probe in setups)
        values = {
            "setup_s": statistics.median(t * REF_PROBE_S / p for t, p in setups),
            "wall_ref_s": statistics.median(r.ref_wall_s for r in rounds),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        lines.append("host.probe_s " + " ".join(f"{r.host_s!r}" for r in rounds))
        lines.append(f"metric setup_s {values['setup_s']!r} s at the reference host speed "
                     f"(median of {len(setups)}; as measured {raw_setup!r} s)")
        lines.append(f"metric wall_ref_s {values['wall_ref_s']!r} s at the reference host "
                     f"speed (median of {len(rounds)} round(s))")
        lines.append(f"metric wall_s {wall!r} s as measured (median of {len(rounds)} round(s))")
        lines.append(f"metric {workload.unit}_per_s {rounds[0].work / wall!r} 1/s")
        for k, v in rounds[0].report.items():
            unit = "s" if k.endswith("_s") else "count"
            lines.append(f"metric {k} {v!r} {unit}")
        lines.append(f"metric peak_rss_mb {values['peak_rss_mb']!r} MB")
    lines.append(f"metric failed_share {failed / attempted!r} ({failed}/{attempted})")
    for f in failures:
        lines.append(f"FAILED {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv: List[str], root: str) -> int:
    ap = argparse.ArgumentParser(description="Run one diskpack benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_dir = os.path.join(root, "perfbench")
    workdir = os.path.join(bench_dir, ".work")
    os.makedirs(workdir, exist_ok=True)
    result, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), bench_dir,
        workdir=workdir, store=os.path.join(workdir, "fingerprints.json"),
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
