"""Per-line reference for the prover's certificate lines.

Independent oracle for `prover._write_lines`: it formats one line at a time,
with `%r` on every bound and on the density enclosure, as the prover wrote
its certificate before it formatted lines in batches. The batch formatter
must give the same text, line for line.
"""

from __future__ import annotations

import math


def box_line(config, row, verdict: str, d_lo=math.nan, d_hi=math.nan) -> str:
    """The certificate line of one box: `row` is its bound row (mu.lo, mu.hi,
    rho1.lo, rho1.hi, ...), and the density enclosure follows the
    verdict when it is not NaN."""
    names = ["mu"] + [f"rho{k}" for k in range(1, config.arity + 1)]
    box_format = (
        f"CASE {config.tag.value} ORIENT {config.orientation.value} BOX "
        + " ".join(f"{name}=[%r,%r]" for name in names)
        + " VERDICT %s"
    )
    line = box_format % (*(float(x) for x in row), verdict)
    if not math.isnan(d_lo):
        line += f" DENSITY [{float(d_lo)!r},{float(d_hi)!r}]"
    return line + "\n"
