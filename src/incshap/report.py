"""Attribution reports: exact rationals plus a fixed decimal rendering.

Field order is fixed so that identical inputs (and seed) produce
byte-identical JSON: measure, method, facts, total_measure,
efficiency_check, approx.  Rationals serialize as decimal-digit strings
for numerator and denominator; the decimal sidecar is rounded half-even
to 12 significant digits.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from math import lcm

from .approx import Estimate
from .measures import MeasureKind

_DECIMAL_CONTEXT = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)


def decimal_str(value: Fraction) -> str:
    """Render an exact rational to 12 significant digits, round-half-even."""
    return str(
        _DECIMAL_CONTEXT.divide(
            decimal.Decimal(value.numerator), decimal.Decimal(value.denominator)
        )
    )


def fact_entry(fact_id: str, value: Fraction) -> dict:
    return {
        "fact": fact_id,
        "numerator": str(value.numerator),
        "denominator": str(value.denominator),
        "decimal": decimal_str(value),
    }


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
    report = {
        "measure": kind.value,
        "method": method,
        "facts": [fact_entry(fid, value) for fid, value in entries],
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


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, separators=(",", ": "))
