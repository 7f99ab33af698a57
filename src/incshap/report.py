"""Attribution reports: exact rationals plus a fixed decimal rendering.

Field order is fixed so that identical inputs (and seed) produce
byte-identical JSON: measure, method, facts, total_measure,
efficiency_check, approx.  Rationals serialize as decimal-digit strings
for numerator and denominator; the decimal sidecar is rounded half-even
to 12 significant digits.  The layout is that of `json.dumps` with an
indent of 2, written by hand: with an indent CPython encodes in pure Python.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote
from math import lcm
from typing import TYPE_CHECKING

from .measures import MeasureKind

if TYPE_CHECKING:
    from .approx import Estimate

_DECIMAL_CONTEXT = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)


def decimal_str(value: Fraction) -> str:
    """Render an exact rational to 12 significant digits, round-half-even."""
    return str(
        _DECIMAL_CONTEXT.divide(
            decimal.Decimal(value.numerator), decimal.Decimal(value.denominator)
        )
    )


def empty_set_value(kind: MeasureKind) -> int:
    """Measure of the empty database: one repair, zero everything else."""
    return 1 if kind is MeasureKind.MC else 0


def build_report(
    kind: MeasureKind,
    method: str,
    entries: list[tuple[str, Fraction]],
    total_measure: int,
    complete: bool,
    estimates: dict[str, Estimate] | None = None,
    approx_meta: dict | None = None,
) -> dict:
    """Assemble a report; the efficiency check runs only on complete exact runs."""
    efficiency = None
    if complete and method in ("exact", "oracle"):
        # One integer sum over the lcm of the denominators, not a Fraction sum.
        scale = lcm(*(value.denominator for _, value in entries))
        total = sum(value.numerator * (scale // value.denominator) for _, value in entries)
        efficiency = total == (total_measure - empty_set_value(kind)) * scale
    # One set of strings per distinct value, keyed on the int pair: a Fraction hashes slowly.
    bodies = {}
    facts = []
    for fid, value in entries:
        pair = value.numerator, value.denominator
        if pair not in bodies:
            bodies[pair] = str(pair[0]), str(pair[1]), decimal_str(value)
        num, den, dec = bodies[pair]
        facts.append({"fact": fid, "numerator": num, "denominator": den, "decimal": dec})
    report = {
        "measure": kind.value,
        "method": method,
        "facts": facts,
        "total_measure": total_measure,
        "efficiency_check": efficiency,
        "approx": approx_meta,
    }
    if estimates:
        for entry in report["facts"]:
            est = estimates[entry["fact"]]
            entry["samples"] = est.samples_used
            entry["guarantee"] = est.guarantee.value
    return report


_ENTRY = (
    '    {\n      "fact": %s,\n      "numerator": "%s",\n      "denominator": "%s",\n'
    '      "decimal": "%s"'
)
_SAMPLES = ',\n      "samples": %d,\n      "guarantee": "%s"'


def render_report(report: dict) -> str:
    """The bytes `json.dumps` prints for a report or a refusal payload with
    an indent of 2 and separators "," and ": ".  A list member is the fact
    list, one format per entry (every field but the fact id is ASCII as it
    is); a dict member is a flat object; any other is a scalar."""
    members = []
    for key, value in report.items():
        if isinstance(value, list):
            entries = [_ENTRY % (quote(e["fact"]), e["numerator"], e["denominator"], e["decimal"])
                       for e in value]
            if value and "samples" in value[0]:
                entries = [t + _SAMPLES % (e["samples"], e["guarantee"])
                           for t, e in zip(entries, value)]
            text = "[\n" + "\n    },\n".join(entries) + "\n    }\n  ]" if value else "[]"
        elif isinstance(value, dict):
            lines = [f"    {quote(k)}: {json.dumps(v)}" for k, v in value.items()]
            text = "{\n" + ",\n".join(lines) + "\n  }"
        else:
            text = json.dumps(value)
        members.append(f"  {quote(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}"
