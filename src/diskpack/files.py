"""Versioned JSON file formats for instances, packings, and verification reports.

Serialization is canonical: fixed key order, two-space indentation, floats
printed with 17 significant digits (exact double round-trip), UTF-8, trailing
newline. parse(serialize(x)) == x bit-exactly.

Radii, coordinates and unplaced radii are checked by whole columns. A column
whose values are all floats, whose C-level sum is finite (so is every value)
and, for radii, whose least value is positive is taken as `json.loads` gave
it. Any other column is scanned value by value with `_number`, which names
the first bad value, turns JSON integers into floats, and accepts finite
values whose sum overflows. So parsing gives the same values and the same
errors either way, and only floats. `dumps_instance` checks its radii the
same way, once, before formatting them.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence, Tuple

from .engine import PackingResult
from .verifier import VerificationReport

INSTANCE_FORMAT_VERSION = 1
PACKING_FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Malformed or out-of-contract instance/packing document."""


def _fmt(v: float) -> str:
    f = float(v)
    if not math.isfinite(f):
        raise FileFormatError(f"non-finite number not serializable: {v}")
    return format(f, ".17g")


def _number(v, what: str, positive: bool = False) -> float:
    """A JSON number (not a boolean or a string) as a finite float, and
    positive when asked."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FileFormatError(f"{what} must be a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f) or (positive and not f > 0.0):
        qualifier = "positive finite" if positive else "finite"
        raise FileFormatError(f"{what} must be {qualifier}, got {v!r}")
    return f


def _whole(rows: Sequence[Sequence], radii: Iterable) -> bool:
    """Whether rows of values can be taken as `json.loads` gave them: every
    value is a float (not an int, a bool or a string), their C-level sum is
    finite (so is every value), and the least of the radii is positive."""
    return (
        {float}.issuperset(map(type, chain.from_iterable(rows)))
        and math.isfinite(sum(chain.from_iterable(rows)))
        and min(radii, default=1.0) > 0.0
    )


def _numbers(values: list, what: str, positive: bool = False) -> Tuple[float, ...]:
    """`_number` of each value: the column as it is when `_whole` takes it,
    with its values as radii when asked to be positive; otherwise scanned
    value by value."""
    if _whole((values,), values if positive else ()):
        return tuple(values)
    return tuple(_number(v, what, positive) for v in values)


def _placements(items: list) -> Tuple[Tuple[float, float, float], ...]:
    """Each item's (radius, x, y), by `_number`. The triples come out of one
    itemgetter map and are taken as they are when `_whole` takes them;
    otherwise, a malformed item too, the items are scanned one by one."""
    try:
        rows = tuple(map(operator.itemgetter("radius", "x", "y"), items))
    except (TypeError, KeyError):
        rows = None
    if rows is not None and _whole(rows, map(operator.itemgetter(0), rows)):
        return rows
    placements = []
    for item in items:
        try:
            placements.append((
                _number(item["radius"], "radius", positive=True),
                _number(item["x"], "x"),
                _number(item["y"], "y"),
            ))
        except (TypeError, KeyError) as exc:
            raise FileFormatError(f"malformed placement: {item!r}") from exc
    return tuple(placements)


def _check_version(doc: dict, expected: int, what: str) -> None:
    version = doc.get("format_version")
    if type(version) is not int or version != expected:  # rejects true and 1.0
        raise FileFormatError(f"unsupported {what} format_version: {version!r}")


@dataclass(frozen=True)
class InstanceFile:
    radii: Tuple[float, ...]
    container_radius: float = 1.0

    def normalized_radii(self) -> Tuple[float, ...]:
        """Radii in units of the container radius."""
        if self.container_radius == 1.0:
            return self.radii
        return tuple(r / self.container_radius for r in self.radii)


@dataclass(frozen=True)
class PackingFile:
    instance_digest: str
    placements: Tuple[Tuple[float, float, float], ...]  # (radius, x, y)
    complete: bool
    unplaced: Tuple[float, ...]
    trace: Optional[Tuple[dict, ...]] = None


def _array_items(items) -> list:
    """The lines of a JSON array's items, one item per line indented four
    spaces, with a comma after each item but the last."""
    return [f"    {item}," for item in items[:-1]] + [f"    {item}" for item in items[-1:]]


def _number_items(values: Sequence) -> str:
    """The lines `_array_items` makes of the values as `_fmt` writes them.
    The values are checked once, by the finiteness of their sum, and written
    by one '%.17g' template, the bytes `_fmt` writes; values that fail the
    check go through `_fmt` one by one, which raises on the first it cannot
    write."""
    try:
        floats = tuple(map(float, values))
        if math.isfinite(sum(floats)):
            return ("    %.17g,\n" * (len(floats) - 1) + "    %.17g") % floats
    except (TypeError, ValueError, OverflowError):
        pass
    return "\n".join(_array_items([_fmt(v) for v in values]))


def dumps_instance(inst: InstanceFile) -> str:
    if not inst.radii:
        raise FileFormatError("radii must be a nonempty list")
    lines = [
        "{",
        f'  "format_version": {INSTANCE_FORMAT_VERSION},',
        f'  "container_radius": {_fmt(inst.container_radius)},',
        '  "radii": [',
        _number_items(inst.radii),
        "  ]",
        "}",
    ]
    return "\n".join(lines) + "\n"


def instance_digest(inst: InstanceFile) -> str:
    """Content hash binding packings to the instance they were produced from."""
    return hashlib.sha256(dumps_instance(inst).encode("utf-8")).hexdigest()


def parse_instance(text: str) -> InstanceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("instance document must be a JSON object")
    _check_version(doc, INSTANCE_FORMAT_VERSION, "instance")
    radii = doc.get("radii")
    if not isinstance(radii, list) or not radii:
        raise FileFormatError("radii must be a nonempty list")
    out = _numbers(radii, "radius", positive=True)
    cr = _number(doc.get("container_radius", 1.0), "container_radius", positive=True)
    return InstanceFile(radii=out, container_radius=cr)


def _dump_trace_event(ev: dict) -> str:
    # Events are flat dicts of strings/numbers/bools; keys in insertion order.
    parts = []
    for k, v in ev.items():
        if isinstance(v, bool):
            sv = "true" if v else "false"
        elif isinstance(v, str):
            sv = json.dumps(v)
        elif isinstance(v, int):
            sv = str(v)
        elif isinstance(v, float):
            sv = _fmt(v)
        elif isinstance(v, (tuple, list)):
            sv = "[" + ", ".join(_fmt(float(x)) for x in v) + "]"
        else:
            raise FileFormatError(f"unsupported trace value: {v!r}")
        parts.append(f"{json.dumps(k)}: {sv}")
    return "{" + ", ".join(parts) + "}"


def dumps_packing(p: PackingFile) -> str:
    lines = [
        "{",
        f'  "format_version": {PACKING_FORMAT_VERSION},',
        f'  "instance_digest": "{p.instance_digest}",',
        f'  "complete": {"true" if p.complete else "false"},',
        '  "placements": [',
        *_array_items([
            f'{{"radius": {_fmt(r)}, "x": {_fmt(x)}, "y": {_fmt(y)}}}'
            for r, x, y in p.placements
        ]),
        "  ],",
    ]
    unplaced = ", ".join(_fmt(r) for r in p.unplaced)
    if p.trace is None:
        lines.append(f'  "unplaced": [{unplaced}]')
    else:
        lines.append(f'  "unplaced": [{unplaced}],')
        lines.append('  "trace": [')
        lines += _array_items([_dump_trace_event(ev) for ev in p.trace])
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_packing(text: str) -> PackingFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("packing document must be a JSON object")
    _check_version(doc, PACKING_FORMAT_VERSION, "packing")
    digest = doc.get("instance_digest")
    if not isinstance(digest, str):
        raise FileFormatError("instance_digest must be a string")
    items, unplaced = doc.get("placements", []), doc.get("unplaced", [])
    if not isinstance(items, list) or not isinstance(unplaced, list):
        raise FileFormatError("placements and unplaced must be lists")
    placements = _placements(items)
    unplaced = _numbers(unplaced, "unplaced radius", positive=True)
    complete = doc.get("complete")
    if not isinstance(complete, bool):
        raise FileFormatError("complete must be a boolean")
    if complete != (not unplaced):
        raise FileFormatError("complete must be true exactly when unplaced is empty")
    trace = doc.get("trace")
    if trace is not None:
        if not isinstance(trace, list):
            raise FileFormatError("trace must be a list of events")
        for event in trace:
            if not isinstance(event, dict):
                raise FileFormatError(f"trace event must be an object, got {event!r}")
            if event.get("event") == "ring_created":
                _number(event.get("r_out"), "ring_created r_out", positive=True)
                for key in ("cx", "cy"):
                    _number(event.get(key), f"ring_created {key}")
        trace = tuple(trace)
    return PackingFile(
        instance_digest=digest,
        placements=placements,
        complete=complete,
        unplaced=unplaced,
        trace=trace,
    )


def packing_from_result(
    result: PackingResult, inst: InstanceFile, include_trace: bool = False
) -> PackingFile:
    return PackingFile(
        instance_digest=instance_digest(inst),
        placements=tuple(
            (r, xy[0], xy[1]) for r, xy in result.placements
        ),
        complete=result.complete,
        unplaced=result.unplaced,
        trace=result.phase_trace if include_trace else None,
    )


def dumps_report(report: VerificationReport) -> str:
    lines = [
        "{",
        f'  "valid": {"true" if report.valid else "false"},',
        f'  "density": {_fmt(report.density)},',
        f'  "epsilon": {_fmt(report.epsilon)},',
        '  "violations": [',
        *_array_items([
            f'{{"kind": "{v.kind.value}", "indices": [{", ".join(map(str, v.indices))}], '
            f'"magnitude": {_fmt(v.magnitude)}}}'
            for v in report.violations
        ]),
        "  ]",
        "}",
    ]
    return "\n".join(lines) + "\n"
