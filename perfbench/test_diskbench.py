"""Tests of the benchmark itself, on tiny inputs (smoke mode).

    python3 -m pytest -q perfbench
"""

import collections
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from diskbench import hostclock, inputs, metrics, runner, tracer  # noqa: E402
from diskbench.workloads import WORKLOADS  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == [n for n, _u in metrics.END_TO_END]
    assert _declared("per_layer") == [n for n, _u in metrics.PER_LAYER]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert sorted(w["name"] for w in json.load(fh)["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs(name, trace, tmp_path):
    result, lines = runner.run_workload(
        name, seed=3, seconds=0.2, trace=trace, bench_dir=HERE, smoke=True,
        workdir=str(tmp_path), store=str(tmp_path / "fingerprints.json"),
    )
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_run_restores_module_attributes(tmp_path):
    probe = tracer.Tracer()
    metrics.install_wrappers(probe)
    patched = list(probe._patches)
    assert patched and all(getattr(m, a) is not orig for m, a, orig in patched)
    probe.restore()
    assert all(getattr(m, a) is orig for m, a, orig in patched)

    result, lines = runner.run_workload(
        "pack-mixed", seed=1, seconds=0.1, trace=True, bench_dir=HERE,
        smoke=True, workdir=str(tmp_path),
    )
    assert result["correct"], lines
    assert result["metrics"]["geometry.place_in_ring_calls"]["value"] > 0
    assert all(getattr(m, a) is orig for m, a, orig in patched)


def test_wrappers_are_restored_when_the_traced_call_raises():
    from diskpack import engine

    orig = engine.pack
    probe = tracer.Tracer()
    probe.wrap_span(engine, "pack", "engine.pack")
    try:
        with pytest.raises(AttributeError):
            engine.pack(None)
    finally:
        probe.restore()
    assert engine.pack is orig
    assert probe.spans[0][0] == "engine.pack" and probe.spans[0][2] > 0.0


def test_self_time_subtracts_only_the_covered_part():
    spans = [
        ["parent", 0.0, 10.0, -1],
        ["a", 2.0, 5.0, 0],
        ["b", 4.0, 6.0, 0],   # overlaps a: the union [2, 6] counts once
        ["c", 9.0, 12.0, 0],  # reaches past the parent: clipped to [9, 10]
        ["grandchild", 2.5, 3.0, 1],
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def _brute_force_violations(placements, instance_radii, eps=inputs.VERIFY_EPSILON):
    found = set()
    n = len(placements)
    for i, (r, (x, y)) in enumerate(placements):
        if math.hypot(x, y) + r > 1.0 + eps:
            found.add(("containment", (i,)))
        for j in range(i + 1, n):
            rj, (xj, yj) = placements[j]
            if math.hypot(xj - x, yj - y) < r + rj - eps:
                found.add(("overlap", (i, j)))
    left = collections.Counter(instance_radii)
    for i, (r, _xy) in enumerate(placements):
        if left[r]:
            left[r] -= 1
        else:
            found.add(("radius_mismatch", (i,)))
    return tuple(sorted(found))


@pytest.mark.parametrize("seed", range(4))
def test_planted_oracle_agrees_with_brute_force(seed):
    from diskpack import verifier

    p = inputs.planted_lattice(seed, target_n=250, overlaps=6, outside=3, mismatches=3)
    assert p.expected == _brute_force_violations(p.placements, p.instance_radii)
    kinds = collections.Counter(kind for kind, _idx in p.expected)
    assert kinds["overlap"] >= 6 and kinds["containment"] >= 3
    assert kinds["radius_mismatch"] == 3
    report = verifier.verify(p.placements, p.instance_radii)
    assert tuple((v.kind.value, v.indices) for v in report.violations) == p.expected


def test_pack_mixed_specs_follow_the_distribution():
    specs = inputs.pack_mixed_specs(7, 50)
    assert specs == inputs.pack_mixed_specs(7, 50)
    assert specs != inputs.pack_mixed_specs(8, 50)
    assert sorted(n for n, _r, _s in specs)[0] >= 1
    assert max(n for n, _r, _s in specs) <= inputs.N_MAX
    assert all(r == 1e-3 for k, (_n, r, _s) in enumerate(specs) if k % 5 == 0)
    assert all(1e-3 <= r <= 10 ** -0.3 for _n, r, _s in specs)


def test_pack_mixed_specs_use_every_stratum_once():
    count = 100
    specs = inputs.pack_mixed_specs(5, count, n_max=count)
    assert sorted(n for n, _r, _s in specs) == list(range(1, count + 1))
    lo, hi = inputs.LOG10_RATIO
    free = [math.log10(r) for k, (_n, r, _s) in enumerate(specs) if k % 5]
    strata = sorted(int((e - lo) / (hi - lo) * len(free)) for e in free)
    assert strata == list(range(len(free)))


def test_host_clock_splits_only_at_spaced_marks():
    clock = hostclock.HostClock()
    clock.start()
    clock.mark()  # too soon after start: the segment goes on
    time.sleep(hostclock.MIN_SEGMENT_S)
    clock.mark()
    clock.stop()
    assert len(clock.segments) == 2 and len(clock.probe_s) == 3
    assert clock.wall_s == pytest.approx(sum(e - s for s, e in clock.segments))
    assert clock.ref_wall_s() > 0.0


def test_host_clock_scales_each_segment_by_the_probes_around_it():
    clock = hostclock.HostClock()
    clock.segments = [(0.0, 1.0), (1.0, 3.0), (10.0, 11.0)]
    clock.probe_at = [0.0, 1.0, 3.0, 10.0, 11.0]
    clock.probe_s = [1.0, 3.0, 5.0, 2.0, 2.0]
    # Medians of the probes within WINDOW_S of each segment: 2, 4 and 2.
    assert clock.wall_s == 4.0
    assert clock.ref_wall_s() == pytest.approx(
        hostclock.REF_PROBE_S * (1.0 / 2.0 + 2.0 / 4.0 + 1.0 / 2.0))


def test_fingerprint_store_flags_changed_outputs(tmp_path):
    store = str(tmp_path / "fingerprints.json")
    assert runner.check_fingerprint(store, "w:1", {"sha": "a", "n": 3}) is None
    assert runner.check_fingerprint(store, "w:1", {"n": 3, "sha": "a"}) is None
    assert runner.check_fingerprint(store, "w:2", {"sha": "b"}) is None
    assert runner.check_fingerprint(store, "w:1", {"sha": "c", "n": 3}) is not None


def test_program_hash_follows_the_sources(tmp_path):
    pkg = tmp_path / "diskpack"
    pkg.mkdir()
    (pkg / "engine.py").write_text("A = 1\n")
    before = runner.program_hash(str(tmp_path))
    assert runner.program_hash(str(tmp_path)) == before
    (pkg / "engine.py").write_text("A = 2\n")
    assert runner.program_hash(str(tmp_path)) != before


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pack-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
