"""The hand-laid report renderer against `json.dumps(indent=2)`, shape by shape."""

import io
import json
from fractions import Fraction

import pytest

from incshap.approx import Estimate, Guarantee
from incshap.cli import run_command
from incshap.errors import BudgetExceededError, IntractableExactError
from incshap.measures import MeasureKind
from incshap.report import build_report, render_report

from conftest import DATA_DIR

TRAINS = str(DATA_DIR / "trains" / "manifest.json")

# Positive, negative, zero, integral and long rationals.
VALUES = [
    Fraction(1, 3),
    Fraction(-7, 12),
    Fraction(0),
    Fraction(5),
    Fraction(3**90, 7**40),
]

APPROX = {"epsilon": 0.1, "delta": 0.05, "mode": "additive", "seed": 0, "samples": 1199}


def reference(doc: dict) -> str:
    return json.dumps(doc, indent=2, separators=(",", ": "))


def entries(ids=None):
    ids = ids or [f"R:{i}" for i in range(len(VALUES))]
    return list(zip(ids, VALUES))


def estimates(pairs):
    guarantees = list(Guarantee)
    return {
        fid: Estimate(value, 100 + i, guarantees[i % len(guarantees)])
        for i, (fid, value) in enumerate(pairs)
    }


@pytest.mark.parametrize("method", ["exact", "oracle"])
@pytest.mark.parametrize("complete", [True, False])
def test_exact_and_oracle_reports(method, complete):
    pairs = entries()
    total = sum(VALUES)
    for kind in MeasureKind:
        # A whole total makes the check false; an incomplete run leaves it null.
        report = build_report(kind, method, pairs, int(total) + 1, complete)
        assert report["efficiency_check"] is (False if complete else None)
        assert render_report(report) == reference(report)


def test_efficiency_true():
    pairs = [("R:0", Fraction(1, 2)), ("R:1", Fraction(3, 2))]
    report = build_report(MeasureKind.MI, "exact", pairs, 2, complete=True)
    assert report["efficiency_check"] is True
    assert render_report(report) == reference(report)


def test_sampled_report_with_approx_block():
    pairs = entries()
    report = build_report(
        MeasureKind.R, "approx", pairs, 9, True, estimates(pairs), dict(APPROX)
    )
    assert report["efficiency_check"] is None
    assert [sorted(e) for e in report["facts"]][0] == sorted(
        ["fact", "numerator", "denominator", "decimal", "samples", "guarantee"]
    )
    assert render_report(report) == reference(report)
    # A seedless run prints a null seed inside the block.
    report["approx"]["seed"] = None
    assert render_report(report) == reference(report)


@pytest.mark.parametrize("method", ["exact", "approx"])
def test_empty_fact_list(method):
    approx = dict(APPROX) if method == "approx" else None
    report = build_report(MeasureKind.DRASTIC, method, [], 0, True, approx_meta=approx)
    assert report["facts"] == []
    assert render_report(report) == reference(report)


def test_huge_repair_count_total():
    report = build_report(MeasureKind.MC, "exact", entries(), 3**2000, complete=False)
    assert render_report(report) == reference(report)


@pytest.mark.parametrize(
    "exc",
    [
        BudgetExceededError('budget of 5 nodes exceeded on R: ünïcode "q"'),
        IntractableExactError("R has no lhs chain\tunder A → C"),
    ],
)
def test_refusal_payloads(exc):
    payload = {"error": exc.kind, "message": str(exc)}
    assert render_report(payload) == reference(payload)
    payload["suggestion"] = IntractableExactError.suggestion
    assert render_report(payload) == reference(payload)


def test_fact_ids_that_need_escaping():
    ids = ['R:"quoted"', "R:back\\slash", "R:tab\there\x01", "Zoë:Ωμέγα", "R:\u2028\U0001f600"]
    pairs = entries(ids)
    for est in (None, estimates(pairs)):
        report = build_report(MeasureKind.P, "exact", pairs, 3, complete=True, estimates=est)
        assert [e["fact"] for e in report["facts"]] == ids
        assert render_report(report) == reference(report)


def test_many_facts_share_one_value():
    """Entries share their value's strings, but each keeps its own dict:
    the sampled fields set on one entry do not leak to another."""
    value = Fraction(22, 7)
    pairs = [(f"R:{i}", value) for i in range(40)] + [("S:0", Fraction(44, 14))]
    est = estimates(pairs)
    report = build_report(MeasureKind.DRASTIC, "approx", pairs, 1, complete=False, estimates=est)
    facts = report["facts"]
    assert len({id(e) for e in facts}) == len(pairs)
    for entry, (fid, _) in zip(facts, pairs):
        assert entry["fact"] == fid
        assert entry["samples"] == est[fid].samples_used
        assert entry["guarantee"] == est[fid].guarantee.value
        body = entry["numerator"], entry["denominator"], entry["decimal"]
        assert body == ("22", "7", "3.14285714286")
    assert render_report(report) == reference(report)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["shapley", "--measure", "r", "--all"], 0),
        (["shapley", "--measure", "mc", "--fact", "Trains:1"], 0),
        (["oracle", "--measure", "d", "--all"], 0),
        (["shapley", "--measure", "mi", "--all", "--method", "approx", "--seed", "3"], 0),
        (["shapley", "--measure", "mc", "--all", "--method", "approx", "--budget", "1"], 2),
    ],
)
def test_cli_output_is_the_reference_layout(argv, code):
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["--manifest", TRAINS, *argv], stdout=out, stderr=err) == code
    text = out.getvalue()
    assert text == reference(json.loads(text)) + "\n"
