import io
import json
import math
import os
import random
import struct
import subprocess
import sys

import pytest

from diskpack import prover
from diskpack.cli import main
from diskpack.engine import InstanceSpec, pack
from diskpack.files import (
    FileFormatError,
    InstanceFile,
    PackingFile,
    dumps_instance,
    dumps_packing,
    instance_digest,
    packing_from_result,
    parse_instance,
    parse_packing,
)
from diskpack.instances import (
    ThresholdEdge,
    gen_near_threshold,
    gen_pocket3,
    gen_random_area,
    gen_worst_case,
)
from diskpack.render import render_svg

from conftest import spy_run_cell

GNARLY = [0.1 + 0.2, 1 / 3, 0.5, 1e-9, 0.4999999999999999, math.pi / 7]


# ---------------------------------------------------------------------------
# round trips


def test_instance_roundtrip_bit_exact():
    inst = InstanceFile(radii=tuple(GNARLY))
    text = dumps_instance(inst)
    back = parse_instance(text)
    assert back == inst
    for a, b in zip(back.radii, inst.radii):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    assert dumps_instance(back) == text


def test_packing_roundtrip_bit_exact():
    res = pack(InstanceSpec.of([0.5, 0.3, 0.2]))
    inst = InstanceFile(radii=(0.5, 0.3, 0.2))
    doc = packing_from_result(res, inst, include_trace=True)
    text = dumps_packing(doc)
    back = parse_packing(text)
    assert back.instance_digest == doc.instance_digest
    assert back.placements == doc.placements
    assert back.unplaced == doc.unplaced
    assert back.complete == doc.complete
    assert dumps_packing(back) == text


def test_parse_rejects_malformed():
    with pytest.raises(FileFormatError):
        parse_instance("not json")
    with pytest.raises(FileFormatError):
        parse_instance('{"format_version": 99, "radii": [0.5]}')
    with pytest.raises(FileFormatError):
        parse_instance('{"format_version": 1, "radii": []}')
    with pytest.raises(FileFormatError):
        parse_instance('{"format_version": 1, "radii": [-0.5]}')
    with pytest.raises(FileFormatError):
        parse_packing('{"format_version": 1}')


BIG_INT = "1" + "0" * 400  # a JSON integer past the largest float


INSTANCE_NUMBER_ERRORS = [
    ('{"format_version": 1, "radii": [true]}', "radius must be a number, got True"),
    ('{"format_version": 1, "radii": ["0.5"]}', "radius must be a number, got '0.5'"),
    ('{"format_version": 1, "radii": [Infinity]}', "radius must be positive finite, got inf"),
    ('{"format_version": 1, "radii": [NaN]}', "radius must be positive finite, got nan"),
    ('{"format_version": 1, "radii": [1e400]}', "radius must be positive finite, got inf"),
    (
        '{"format_version": 1, "radii": [%s]}' % BIG_INT,
        f"radius must be positive finite, got {BIG_INT}",
    ),
    ('{"format_version": true, "radii": [0.5]}', "unsupported instance format_version: True"),
    ('{"format_version": 1.0, "radii": [0.5]}', "unsupported instance format_version: 1.0"),
    ('{"format_version": "1", "radii": [0.5]}', "unsupported instance format_version: '1'"),
    (
        '{"format_version": 1, "radii": [0.5], "container_radius": "2"}',
        "container_radius must be a number, got '2'",
    ),
    (
        '{"format_version": 1, "radii": [0.5], "container_radius": true}',
        "container_radius must be a number, got True",
    ),
]


@pytest.mark.parametrize(
    "text, message",
    INSTANCE_NUMBER_ERRORS,
    ids=["int-past-float" if BIG_INT in text else text for text, _ in INSTANCE_NUMBER_ERRORS],
)
def test_parse_instance_takes_only_finite_json_numbers(text, message):
    with pytest.raises(FileFormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


def test_parse_instance_takes_json_integers():
    inst = parse_instance('{"format_version": 1, "radii": [1, 0.5], "container_radius": 2}')
    assert inst == InstanceFile(radii=(1.0, 0.5), container_radius=2.0)
    assert all(type(v) is float for v in inst.radii + (inst.container_radius,))


def packing_text(format_version=1, unplaced=(), placements=None, **placement):
    item = {"radius": 0.5, "x": 0.5, "y": 0.0}
    item.update(placement)
    return json.dumps({
        "format_version": format_version,
        "instance_digest": "0" * 64,
        "complete": not unplaced,
        "placements": [item] if placements is None else placements,
        "unplaced": unplaced,
    })


PACKING_NUMBER_ERRORS = [
    ({"radius": True}, "radius must be a number, got True"),
    ({"radius": "0.5"}, "radius must be a number, got '0.5'"),
    ({"radius": 0}, "radius must be positive finite, got 0"),
    ({"radius": -0.5}, "radius must be positive finite, got -0.5"),
    ({"radius": math.nan}, "radius must be positive finite, got nan"),
    ({"radius": math.inf}, "radius must be positive finite, got inf"),
    ({"x": math.nan}, "x must be finite, got nan"),
    ({"y": -math.inf}, "y must be finite, got -inf"),
    ({"x": False}, "x must be a number, got False"),
    ({"y": "0"}, "y must be a number, got '0'"),
    ({"format_version": True}, "unsupported packing format_version: True"),
    ({"unplaced": [math.nan]}, "unplaced radius must be positive finite, got nan"),
    ({"unplaced": [True]}, "unplaced radius must be a number, got True"),
    ({"unplaced": [0.0]}, "unplaced radius must be positive finite, got 0.0"),
    ({"unplaced": 0.5}, "placements and unplaced must be lists"),
    ({"placements": 5}, "placements and unplaced must be lists"),
    ({"placements": {"radius": 0.5}}, "placements and unplaced must be lists"),
]


@pytest.mark.parametrize(
    "fields, message",
    PACKING_NUMBER_ERRORS,
    ids=[f"fields{k}" for k in range(len(PACKING_NUMBER_ERRORS))],
)
def test_parse_packing_takes_only_finite_json_numbers(fields, message):
    with pytest.raises(FileFormatError) as exc:
        parse_packing(packing_text(**fields))
    assert str(exc.value) == message


def test_parse_packing_takes_json_integers():
    doc = parse_packing(packing_text(radius=1, x=0, y=0, unplaced=[1]))
    assert doc.placements == ((1.0, 0.0, 0.0),) and doc.unplaced == (1.0,)
    assert all(type(v) is float for v in doc.placements[0] + doc.unplaced)


def test_parse_takes_finite_values_whose_sum_overflows():
    doc = parse_packing(packing_text(radius=1e308, x=1e308, y=1e308))
    assert doc.placements == ((1e308, 1e308, 1e308),)
    inst = parse_instance('{"format_version": 1, "radii": [1e308, 1e308]}')
    assert inst.radii == (1e308, 1e308)
    assert parse_instance(dumps_instance(inst)) == inst


@pytest.mark.parametrize("v", [0.25, 1])
def test_parse_gives_floats_and_keeps_the_sign_of_zero(v):
    # With v an int every column is scanned value by value; with v a float
    # each is taken whole.
    placements = [{"radius": 0.5, "x": -0.0, "y": v}, {"radius": v, "x": 0.5, "y": -0.0}]
    doc = parse_packing(packing_text(placements=placements, unplaced=[0.125, v]))
    assert doc.placements == ((0.5, 0.0, v), (v, 0.5, 0.0)) and doc.unplaced == (0.125, v)
    assert math.copysign(1.0, doc.placements[0][1]) == -1.0
    assert math.copysign(1.0, doc.placements[1][2]) == -1.0
    inst = parse_instance('{"format_version": 1, "radii": [0.5, %r]}' % v)
    assert inst.radii == (0.5, v)
    values = [*doc.placements[0], *doc.placements[1], *doc.unplaced, *inst.radii]
    assert all(type(x) is float for x in values)


def test_dumps_instance_writes_each_radius_as_17_digits():
    rng = random.Random(3)
    radii = GNARLY + [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e22]
    while len(radii) < 2000:
        r = abs(struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0])
        if math.isfinite(r) and r > 0.0:
            radii.append(r)
    want = "".join(
        ['{\n  "format_version": 1,\n  "container_radius": 1,\n  "radii": [\n',
         ",\n".join(f"    {format(r, '.17g')}" for r in radii),
         "\n  ]\n}\n"])
    assert dumps_instance(InstanceFile(radii=tuple(radii))) == want
    with pytest.raises(FileFormatError) as exc:
        dumps_instance(InstanceFile(radii=(0.5, math.nan, math.inf)))
    assert str(exc.value) == "non-finite number not serializable: nan"


def test_an_empty_instance_is_neither_written_nor_parsed():
    with pytest.raises(FileFormatError) as exc:
        dumps_instance(InstanceFile(radii=()))
    assert str(exc.value) == "radii must be a nonempty list"
    text = '{\n  "format_version": 1,\n  "container_radius": 1,\n  "radii": [\n  ]\n}\n'
    with pytest.raises(FileFormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == "radii must be a nonempty list"


def test_digest_binds_instance():
    a = instance_digest(InstanceFile(radii=(0.5, 0.5)))
    b = instance_digest(InstanceFile(radii=(0.5, 0.25)))
    assert a != b
    assert len(a) == 64


# ---------------------------------------------------------------------------
# SVG rendering


def worst_case_packing_file(trace=False):
    res = pack(InstanceSpec.of([0.5, 0.5]))
    return packing_from_result(
        res, InstanceFile(radii=(0.5, 0.5)), include_trace=trace
    )


def test_render_two_disk_packing_has_three_circles():
    svg = render_svg(worst_case_packing_file())
    assert svg.count("<circle") == 3
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in svg


def test_render_empty_packing_container_only():
    doc = PackingFile(
        instance_digest="0" * 64, placements=(), complete=False, unplaced=(0.5,)
    )
    svg = render_svg(doc)
    assert svg.count("<circle") == 1


def test_render_rings_match_trace_count():
    inst_spec = InstanceSpec.of(
        [0.3, 0.2] + [0.05] * 40 + [0.02] * 50
    )
    res = pack(inst_spec)
    doc = packing_from_result(
        res, InstanceFile(radii=inst_spec.radii), include_trace=True
    )
    n_rings = sum(1 for e in res.phase_trace if e["event"] == "ring_created")
    assert n_rings > 0
    svg = render_svg(doc, show_rings=True)
    assert svg.count("stroke-dasharray") == n_rings
    assert svg.count("<circle") == 1 + len(doc.placements) + n_rings


def test_render_deterministic():
    doc = worst_case_packing_file(trace=True)
    assert render_svg(doc, show_rings=True, labels=True) == render_svg(
        doc, show_rings=True, labels=True
    )


# ---------------------------------------------------------------------------
# CLI


def run_cli(args, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_gen_pack_verify_files(tmp_path, capsys, monkeypatch):
    inst = os.fspath(tmp_path / "inst.json")
    packing = os.fspath(tmp_path / "pack.json")
    assert main(["gen", "--kind", "worst-case", "-o", inst]) == 0
    assert main(["pack", inst, "-o", packing]) == 0
    code, out, err = run_cli(
        ["verify", packing, "--instance", inst], capsys=capsys
    )
    assert code == 0
    assert '"valid": true' in out
    assert '"density": 0.5' in out


def test_cli_pipeline_stdin(capsys, monkeypatch):
    code, inst_text, _ = run_cli(["gen", "--kind", "worst-case"], capsys=capsys)
    assert code == 0
    code, pack_text, _ = run_cli(
        ["pack"], stdin_text=inst_text, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    code, report, _ = run_cli(
        ["verify"], stdin_text=pack_text, capsys=capsys, monkeypatch=monkeypatch
    )
    assert code == 0
    assert '"valid": true' in report


def test_cli_pipeline_subprocess():
    shell = (
        f"{sys.executable} -m diskpack.cli gen --kind worst-case | "
        f"{sys.executable} -m diskpack.cli pack | "
        f"{sys.executable} -m diskpack.cli verify"
    )
    proc = subprocess.run(
        shell, shell=True, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert '"valid": true' in proc.stdout


def test_cli_verify_detects_digest_mismatch(tmp_path, capsys, monkeypatch):
    inst = os.fspath(tmp_path / "inst.json")
    other = os.fspath(tmp_path / "other.json")
    packing = os.fspath(tmp_path / "pack.json")
    assert main(["gen", "--kind", "worst-case", "-o", inst]) == 0
    assert main(["gen", "--kind", "pocket3", "-o", other]) == 0
    assert main(["pack", inst, "-o", packing]) == 0
    code, _, err = run_cli(
        ["verify", packing, "--instance", other], capsys=capsys
    )
    assert code == 1
    assert "digest" in err


def test_cli_verify_invalid_packing_exits_2(tmp_path, capsys, monkeypatch):
    bad = PackingFile(
        instance_digest="0" * 64,
        placements=((0.6, 0.5, 0.0),),
        complete=True,
        unplaced=(),
    )
    path = tmp_path / "bad.json"
    path.write_text(dumps_packing(bad), encoding="utf-8")
    code, out, _ = run_cli(["verify", os.fspath(path)], capsys=capsys)
    assert code == 2
    assert '"valid": false' in out


def test_cli_verify_rejects_a_nan_packing(tmp_path, capsys):
    # json.loads accepts NaN, and NaN compares false in every check of the
    # verifier, so two disks at x = NaN must be refused when parsed.
    path = tmp_path / "nan.json"
    doc = json.loads(packing_text(x=math.nan))
    doc["placements"].append({"radius": 0.5, "x": math.nan, "y": 0.0})
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["verify", os.fspath(path)], capsys=capsys)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("complete, unplaced", [(True, [0.01]), (False, [])])
@pytest.mark.parametrize("command", ["verify", "render"])
def test_cli_refuses_complete_contradicting_unplaced(tmp_path, capsys, command, complete, unplaced):
    doc = json.loads(packing_text())
    doc.update(complete=complete, unplaced=unplaced)
    path = tmp_path / "packing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli([command, os.fspath(path)], capsys=capsys)
    assert code == 1
    assert out == ""
    assert err == "error: complete must be true exactly when unplaced is empty\n"


def test_cli_verify_instance_refuses_a_packing_that_drops_a_disk(tmp_path, capsys):
    inst = os.fspath(tmp_path / "inst.json")
    packing = tmp_path / "pack.json"
    assert main(["gen", "--kind", "random-area", "--n", "5", "-o", inst]) == 0
    assert main(["pack", inst, "-o", os.fspath(packing)]) == 0
    doc = json.loads(packing.read_text(encoding="utf-8"))
    assert doc["complete"] and len(doc["placements"]) == 5
    del doc["placements"][2]
    packing.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["verify", os.fspath(packing), "--instance", inst], capsys=capsys)
    assert code == 1
    assert out == ""
    assert "4 placed and unplaced radii" in err and "instance's 5 radii" in err


def test_cli_verify_instance_reports_a_changed_radius(tmp_path, capsys):
    # A placed radius the instance does not hold is a report finding (exit 2),
    # not an accounting error (exit 1).
    inst = os.fspath(tmp_path / "inst.json")
    packing = tmp_path / "pack.json"
    assert main(["gen", "--kind", "random-area", "--n", "5", "-o", inst]) == 0
    assert main(["pack", inst, "-o", os.fspath(packing)]) == 0
    doc = json.loads(packing.read_text(encoding="utf-8"))
    doc["placements"][2]["radius"] *= 0.5
    packing.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["verify", os.fspath(packing), "--instance", inst], capsys=capsys)
    assert code == 2
    assert err == ""
    report = json.loads(out)
    assert not report["valid"]
    assert [v["kind"] for v in report["violations"]] == ["radius_mismatch"]
    assert report["violations"][0]["indices"] == [2]


def test_cli_verify_instance_counts_the_unplaced_radii(tmp_path, capsys):
    inst = os.fspath(tmp_path / "inst.json")
    packing = os.fspath(tmp_path / "pack.json")
    assert main(["gen", "--kind", "worst-case", "--inflate", "1e-3", "-o", inst]) == 0
    assert main(["pack", inst, "-o", packing]) == 0
    code, out, _ = run_cli(["verify", packing, "--instance", inst], capsys=capsys)
    assert code == 0
    assert '"valid": true' in out


def test_cli_pack_warns_on_incomplete(tmp_path, capsys, monkeypatch):
    inst = os.fspath(tmp_path / "inst.json")
    assert main(["gen", "--kind", "worst-case", "--inflate", "1e-3", "-o", inst]) == 0
    code, out, err = run_cli(["pack", inst], capsys=capsys)
    assert code == 0
    assert "incomplete" in err
    assert '"complete": false' in out


def test_cli_render(tmp_path, capsys, monkeypatch):
    inst = os.fspath(tmp_path / "inst.json")
    packing = os.fspath(tmp_path / "pack.json")
    svg_path = os.fspath(tmp_path / "out.svg")
    main(["gen", "--kind", "worst-case", "-o", inst])
    main(["pack", inst, "--trace", "-o", packing])
    assert main(["render", packing, "--show-rings", "-o", svg_path]) == 0
    svg = open(svg_path, encoding="utf-8").read()
    assert svg.count("<circle") == 3  # no rings in the two-disk trace


def malformed_trace_packing(tmp_path, trace):
    path = tmp_path / "traced.json"
    doc = json.loads(packing_text())
    doc["trace"] = trace
    path.write_text(json.dumps(doc), encoding="utf-8")
    return os.fspath(path)


def test_cli_render_rejects_a_ring_event_without_its_geometry(tmp_path, capsys):
    # A ring of radius 0 or less would be drawn as an invalid SVG circle.
    ring = {"event": "ring_created", "cx": 0.0, "cy": 0.0}
    for event, message in [
        ({"event": "ring_created"}, "ring_created r_out must be a number"),
        ({**ring, "r_out": 0}, "ring_created r_out must be positive finite, got 0"),
        ({**ring, "r_out": -0.5}, "ring_created r_out must be positive finite, got -0.5"),
    ]:
        packing = malformed_trace_packing(tmp_path, [event])
        code, out, err = run_cli(["render", packing, "--show-rings"], capsys=capsys)
        assert code == 1
        assert out == ""
        assert message in err


def test_cli_render_rejects_a_trace_event_that_is_not_an_object(tmp_path, capsys):
    packing = malformed_trace_packing(tmp_path, [5])
    code, out, err = run_cli(["render", packing, "--show-rings"], capsys=capsys)
    assert code == 1
    assert out == ""
    assert "trace event must be an object" in err


def test_cli_oracle_constants(capsys, monkeypatch):
    code, out, _ = run_cli(["oracle"], capsys=capsys)
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert float(lines["rho"]) == pytest.approx(0.5606471, abs=1e-6)
    assert float(lines["zipper_one_density"]) == pytest.approx(0.7703677, abs=1e-6)


def test_cli_oracle_function_eval(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["oracle", "--fn", "cone_density", "--at", "0.25", "--at", "0.5"],
        capsys=capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert float(lines[0].split("=")[1]) == pytest.approx(0.57776, abs=5e-5)
    assert float(lines[1].split("=")[1]) == pytest.approx(0.5, abs=1e-12)


def test_cli_oracle_function_needs_at(capsys, monkeypatch):
    code, _, err = run_cli(["oracle", "--fn", "gap_excess"], capsys=capsys)
    assert code == 1
    assert "--at" in err


@pytest.mark.parametrize("args", [["--at", "0.3"], ["--fn", "rho", "--at", "0.3"]])
def test_cli_oracle_refuses_at_without_a_function(capsys, args):
    code, out, err = run_cli(["oracle", *args], capsys=capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--at" in err


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--kind", "worst-case"], gen_worst_case()),
        (["--kind", "worst-case", "--inflate", "1e-3"], gen_worst_case(1e-3)),
        (["--kind", "random-area", "--n", "7", "--seed", "1"],
         gen_random_area(7, math.pi / 2, 1)),
        (["--kind", "pocket3"], gen_pocket3()),
        (["--kind", "near-threshold", "--edge", "quarter"],
         gen_near_threshold(ThresholdEdge.QUARTER_EDGE)),
    ],
)
def test_cli_gen_kinds(tmp_path, args, expected):
    path = os.fspath(tmp_path / "inst.json")
    assert main(["gen", *args, "-o", path]) == 0
    with open(path, encoding="utf-8") as fh:
        assert parse_instance(fh.read()).radii == expected.radii


def test_cli_gen_bad_params_exit_1(capsys, monkeypatch):
    code, _, err = run_cli(
        ["gen", "--kind", "random-area", "--n", "0"], capsys=capsys
    )
    assert code == 1
    assert "error" in err


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_cli_prove_small_run_and_exit_codes(tmp_path, capsys, monkeypatch):
    cert = os.fspath(tmp_path / "cert.log")
    args = ["prove", "--case", "T1", "--lambda-max", "0.52"]
    code, out, _ = run_cli(args + ["--certificate", cert], capsys=capsys)
    assert code == 0
    assert "SUMMARY case=T1 orient=outer" in out
    assert os.listdir(tmp_path) == ["cert.log"]
    cert_text = open(cert, encoding="utf-8").read()
    assert "VERDICT proven" in cert_text
    # A rerun runs every cell and writes the same certificate and SUMMARY.
    calls = spy_run_cell(monkeypatch)
    code, out2, _ = run_cli(args + ["--certificate", cert + ".2"], capsys=capsys)
    assert code == 0
    assert [len(call["cells"]) for call in calls] == [256]
    assert _read_bytes(cert + ".2") == _read_bytes(cert)
    line = [l for l in out.splitlines() if l.startswith("SUMMARY")][0]
    line2 = [l for l in out2.splitlines() if l.startswith("SUMMARY")][0]
    strip = lambda s: s.split(" wall=")[0]
    assert strip(line) == strip(line2)
    # Only stdout reports the wall time; the certificate stays canonical.
    assert line != strip(line)
    assert cert_text.splitlines()[-1] == strip(line)


def test_cli_prove_unproven_exit_3(capsys, monkeypatch):
    code, out, err = run_cli(
        [
            "prove",
            "--case", "T1",
            "--bound", "0.99",
            "--lambda-max", "0.51",
            "--max-boxes", "2000",
            "--max-depth", "16",
        ],
        capsys=capsys,
    )
    assert code == 3
    assert "UNPROVEN" in err


def test_cli_prove_runs_every_configuration_of_its_case(tmp_path, capsys, monkeypatch):
    """A case runs both of its orientations, `--case all` runs every cell of
    all 14 certified configurations, and a run without --certificate writes
    no file."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        ["prove", "--case", "T6", "--lambda-max", "0.505", "--max-boxes", "400000"],
        capsys=capsys,
    )
    assert code == 0
    summaries = [l for l in out.splitlines() if l.startswith("SUMMARY")]
    assert [l.split()[1:3] for l in summaries] == [
        ["case=T6", "orient=outer"], ["case=T6", "orient=inner"]
    ]
    assert all("failed=0" in l for l in summaries)
    calls = spy_run_cell(monkeypatch)
    code, out, _ = run_cli(["prove", "--bound", "0.3", "--lambda-max", "0.505"], capsys=capsys)
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("SUMMARY")]) == 14
    assert [len(call["cells"]) for call in calls] == [256] * 14
    assert os.listdir(tmp_path) == []


def test_cli_prove_certified_run_starts_fresh(tmp_path, capsys, monkeypatch):
    """A certified run over an old certificate runs every cell of both
    configurations and writes the certificate of the same run in an empty
    directory."""
    args = ["prove", "--case", "T2", "--lambda-max", "0.52"]
    for name in ("old", "new"):
        os.mkdir(tmp_path / name)
    cert = os.fspath(tmp_path / "old" / "c.txt")
    with open(cert, "w", encoding="utf-8") as fh:
        fh.write("old certificate\n")
    calls = spy_run_cell(monkeypatch)
    code, out, err = run_cli(args + ["--certificate", cert], capsys=capsys)
    assert (code, err) == (0, "")
    assert [len(call["cells"]) for call in calls] == [256, 256]
    new = os.fspath(tmp_path / "new" / "c.txt")
    code, out2, _ = run_cli(args + ["--certificate", new], capsys=capsys)
    assert code == 0
    strip = lambda text: [line.split(" wall=")[0] for line in text.splitlines()]
    assert strip(out) == strip(out2)
    assert _read_bytes(cert) == _read_bytes(new)
    assert os.listdir(tmp_path / "old") == ["c.txt"]


@pytest.mark.parametrize(
    "args",
    [
        # stdout carries the SUMMARY lines, so `-` is no certificate path.
        pytest.param(["--lambda-max", "0.51", "--certificate", "-"], id="certificate-on-stdout"),
        # Nor is the empty path, which names no file at all.
        pytest.param(["--lambda-max", "0.51", "--certificate", ""], id="empty-certificate-path"),
        pytest.param(["--lambda-min", "0.7", "--lambda-max", "0.6"], id="empty-lambda-range"),
        pytest.param(["--lambda-max", "nan"], id="nan-lambda-max"),
        pytest.param(["--lambda-min", "nan"], id="nan-lambda-min"),
        # A small budget, so that a run that is not refused ends quickly.
        pytest.param(["--bound", "nan", "--lambda-max", "0.51", "--max-boxes", "2000"],
                     id="nan-bound"),
        pytest.param(["--bound", "inf", "--lambda-max", "0.51", "--max-boxes", "2000"],
                     id="infinite-bound"),
        pytest.param(["--lambda-max", "0.51", "--max-depth", "-1"], id="negative-max-depth"),
        pytest.param(["--lambda-max", "0.51", "--max-boxes", "0"], id="zero-max-boxes"),
        pytest.param(["--lambda-max", "0.51", "--max-boxes", "-5"], id="negative-max-boxes"),
    ],
)
def test_cli_prove_refused_run_leaves_no_certificate(tmp_path, capsys, monkeypatch, args):
    """A refused run exits 1 before any cell runs, and leaves neither the
    certificate nor its .part file."""
    monkeypatch.chdir(tmp_path)
    if "--certificate" not in args:
        args = args + ["--certificate", "new.cert"]
    calls = spy_run_cell(monkeypatch)
    code, out, err = run_cli(["prove", "--case", "T1", "--bound", "0.3", *args], capsys=capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert "SUMMARY" not in out
    assert calls == []
    assert os.listdir(tmp_path) == []


def test_cli_prove_has_no_checkpoint_option(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["prove", "--case", "T1", "--lambda-max", "0.51", "--checkpoint", "k"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --checkpoint k" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_prove_interrupted_run_leaves_the_certificate_as_it_was(
    tmp_path, capsys, monkeypatch
):
    """The interrupt comes as the search of T2/inner starts, after T2/outer
    has gone into the certificate's .part file: the certificate is as it
    was, and no .part file is left."""
    cert = os.fspath(tmp_path / "cert.log")
    with open(cert, "w", encoding="utf-8") as fh:
        fh.write("old certificate\n")
    run_cell = prover._run_cell
    calls = []

    def interrupted(config, *args):
        calls.append(config.label)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return run_cell(config, *args)

    monkeypatch.setattr(prover, "_run_cell", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["prove", "--case", "T2", "--lambda-max", "0.51", "--certificate", cert])
    assert calls == ["T2/outer", "T2/inner"]
    with open(cert, encoding="utf-8") as fh:
        assert fh.read() == "old certificate\n"
    assert os.listdir(tmp_path) == ["cert.log"]


def test_cli_prove_certificate_in_a_missing_directory_fails_before_any_cell(
    tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(prover, "_run_cell", lambda *args: calls.append(args))
    cert = os.fspath(tmp_path / "missing" / "cert.log")
    code, out, err = run_cli(
        ["prove", "--case", "T1", "--lambda-max", "0.51", "--certificate", cert],
        capsys=capsys,
    )
    assert code == 1
    assert err.startswith("error: ")
    assert out == "" and calls == []
    assert os.listdir(tmp_path) == []


def test_cli_prove_unproven_run_replaces_the_certificate(tmp_path, capsys):
    cert = os.fspath(tmp_path / "cert.log")
    with open(cert, "w", encoding="utf-8") as fh:
        fh.write("old certificate\n")
    code, out, _ = run_cli(
        ["prove", "--case", "T1", "--bound", "0.99", "--lambda-max", "0.51",
         "--max-boxes", "2000", "--max-depth", "16",
         "--certificate", cert],
        capsys=capsys,
    )
    assert code == 3
    with open(cert, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("CASE T1 ORIENT outer BOX ")
    assert "VERDICT failed" in text
    assert text.splitlines()[-1] == out.splitlines()[0].split(" wall=")[0]
    assert os.listdir(tmp_path) == ["cert.log"]


def _record(line, **changes):
    return json.dumps({**json.loads(line), **changes}) + "\n"


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda lines: lines[:1] + ['{"foo": 1}\n'], id="no-cell"),
        pytest.param(lambda lines: lines[:1] + ["[1, 2]\n"], id="not-an-object"),
        pytest.param(lambda lines: lines[:1] + ['{"cell": 0}\n'], id="no-counts"),
        pytest.param(lambda lines: lines[:1] + [_record(lines[1], cell=256)], id="cell-past-end"),
        pytest.param(lambda lines: lines[:2] + lines[1:2], id="repeated-cell"),
        pytest.param(lambda lines: lines[:1] + [_record(lines[1], proven=True)], id="bool-count"),
        pytest.param(
            lambda lines: lines[:1] + [_record(lines[1], failures=[[0.5, 0.51]])],
            id="short-row",
        ),
        pytest.param(
            lambda lines: lines[:1] + [_record(lines[1], failures=[[math.nan] * 6])],
            id="nan-row",
        ),
        pytest.param(lambda lines: lines[:2] + ["not json\n"] + lines[3:], id="not-json"),
        pytest.param(lambda lines: lines[:2] + ["\udcff\n"] + lines[3:], id="not-utf-8"),
    ],
)
def test_cli_prove_replaces_a_malformed_checkpoint(tmp_path, capsys, edit):
    """A malformed checkpoint, written by `prover.prove_case(checkpoint=)` and
    left at the certificate path, is never read: the run exits 0 and
    replaces it with the certificate of a run into an empty directory."""
    for name in ("old", "new"):
        os.mkdir(tmp_path / name)
    ck = os.fspath(tmp_path / "old" / "ck.jsonl")
    (cfg,) = prover.certified_configs(prover.ConfigTag.T1)
    prover.prove_case(cfg, lambda_range=(0.5, 0.51), b_d=0.3, checkpoint=ck)
    with open(ck, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == 1 + 256
    with open(ck, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.writelines(edit(lines))
    args = ["prove", "--case", "T1", "--bound", "0.3", "--lambda-max", "0.51", "--certificate"]
    code, out, err = run_cli(args + [ck], capsys=capsys)
    assert (code, err) == (0, "")
    assert "SUMMARY case=T1 orient=outer" in out
    new = os.fspath(tmp_path / "new" / "ck.jsonl")
    assert run_cli(args + [new], capsys=capsys)[0] == 0
    assert _read_bytes(ck) == _read_bytes(new)
    assert os.listdir(tmp_path / "old") == ["ck.jsonl"]
