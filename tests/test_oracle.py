"""Brute-force oracle: both forms, limits, and self-consistency."""

import io
import json
import random
from fractions import Fraction

import pytest

from incshap import (
    ApproxParams,
    CoalitionEvaluator,
    Database,
    Fact,
    FDSet,
    Game,
    MeasureKind,
    OracleLimitError,
    OracleLimits,
    Schema,
    estimate_all,
    measure,
    shapley_bruteforce_all,
    shapley_bruteforce_subsets,
)
from incshap.cli import run_command
from incshap.errors import InputError

from conftest import DATA_DIR, random_arbitrary_fds, random_rows


@pytest.fixture
def value_calls(monkeypatch):
    """Counts calls of `CoalitionEvaluator.value` in a one-item list."""
    calls = [0]
    value = CoalitionEvaluator.value

    def counting_value(self, kind, mask):
        calls[0] += 1
        return value(self, kind, mask)

    monkeypatch.setattr(CoalitionEvaluator, "value", counting_value)
    return calls


def test_mini_values(mini):
    db, fds = mini
    g1 = db.facts[0]
    assert shapley_bruteforce_subsets(db, fds, g1, MeasureKind.MI) == Fraction(1, 2)
    assert shapley_bruteforce_subsets(db, fds, g1, MeasureKind.MC) == Fraction(1, 2)
    assert shapley_bruteforce_all(db, fds, [g1], MeasureKind.DRASTIC, "perms")[0] == Fraction(1, 2)
    assert shapley_bruteforce_subsets(db, fds, db.facts[2], MeasureKind.P) == 0


def test_single_fact_database():
    schema = Schema.from_dict({"R": ["A", "B"]})
    db = Database.build(schema, {"R": [("a", "1")]})
    fds = FDSet(schema, ())
    for kind in MeasureKind:
        assert shapley_bruteforce_all(db, fds, db.facts, kind, "perms")[0] == 0


def test_forms_agree_on_random_instances():
    rng = random.Random(808)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    for _ in range(100):
        fds = FDSet(schema, random_arbitrary_fds(rng, "R"))
        db = Database.build(schema, {"R": random_rows(rng, rng.randint(1, 6))})
        engine = CoalitionEvaluator(db, fds)
        kind = rng.choice(list(MeasureKind))
        fact = rng.choice(db.facts)
        assert shapley_bruteforce_subsets(
            db, fds, fact, kind, engine=engine
        ) == shapley_bruteforce_all(db, fds, [fact], kind, "perms", engine=engine)[0]
        # one pass for a shuffled selection with a repeat equals the per-fact values
        facts = rng.sample(db.facts, rng.randint(1, len(db))) + [fact]
        rng.shuffle(facts)
        expected = [shapley_bruteforce_subsets(db, fds, f, kind, engine=engine) for f in facts]
        for form in ("subsets", "perms"):
            assert shapley_bruteforce_all(db, fds, facts, kind, form, engine=engine) == expected


def test_efficiency_of_oracle_values():
    rng = random.Random(809)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    for _ in range(15):
        fds = FDSet(schema, random_arbitrary_fds(rng, "R"))
        db = Database.build(schema, {"R": random_rows(rng, rng.randint(1, 6))})
        engine = CoalitionEvaluator(db, fds)
        for kind in MeasureKind:
            total = sum(
                shapley_bruteforce_subsets(db, fds, f, kind, engine=engine)
                for f in db.facts
            )
            offset = 1 if kind is MeasureKind.MC else 0
            assert total == measure(kind, db, fds) - offset


def test_size_limits(value_calls):
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    rng = random.Random(810)
    db = Database.build(schema, {"R": random_rows(rng, 6)})
    fds = FDSet(schema, random_arbitrary_fds(rng, "R"))
    limits = OracleLimits(max_facts_subsets=5, max_facts_perms=5)
    with pytest.raises(OracleLimitError, match="limit of 5"):
        shapley_bruteforce_subsets(db, fds, db.facts[0], MeasureKind.MI, limits=limits)
    with pytest.raises(OracleLimitError):
        shapley_bruteforce_all(db, fds, db.facts[:1], MeasureKind.MI, "perms", limits)
    with pytest.raises(InputError):
        OracleLimits(max_facts_subsets=0)
    with pytest.raises(InputError, match="form"):
        shapley_bruteforce_all(db, fds, db.facts, MeasureKind.MI, form="gray")
    # an over-limit database refuses before evaluating any coalition
    for form in ("subsets", "perms"):
        with pytest.raises(OracleLimitError):
            shapley_bruteforce_all(db, fds, db.facts, MeasureKind.MC, form, limits)
    assert value_calls[0] == 0


def test_unknown_fact(mini):
    """Exact, sampled and oracle values all refuse a fact outside the database,
    and all return [] for an empty request."""
    db, fds = mini
    unknown = Fact("R", ("q", "7"), 9)
    with pytest.raises(InputError):
        shapley_bruteforce_subsets(db, fds, unknown, MeasureKind.MI)
    engines = (
        lambda facts: Game(db, fds, MeasureKind.MI).values(facts),
        lambda facts: estimate_all(db, fds, facts, MeasureKind.MI, ApproxParams(0.3, 0.3)),
        lambda facts: shapley_bruteforce_all(db, fds, facts, MeasureKind.MI),
    )
    for values in engines:
        with pytest.raises(InputError, match="not in the database"):
            values([db.facts[0], unknown])
        assert values([]) == []
    # the oracle checks membership before its size limit
    over = OracleLimits(max_facts_subsets=len(db) - 1)
    with pytest.raises(OracleLimitError):
        shapley_bruteforce_all(db, fds, db.facts, MeasureKind.MI, limits=over)
    with pytest.raises(InputError, match="not in the database"):
        shapley_bruteforce_all(db, fds, [unknown], MeasureKind.MI, limits=over)


def test_one_pass_per_command(tmp_path, value_calls):
    """Both forms fill one table with the value of each of the 2^n coalitions
    and read every marginal from it, so `--all` and one `--fact` each make
    exactly 2^n `value` calls, whichever the form."""

    def calls(argv):
        value_calls[0] = 0
        out, err = io.StringIO(), io.StringIO()
        assert run_command(argv, stdout=out, stderr=err) == 0, err.getvalue()
        return value_calls[0], json.loads(out.getvalue())

    trains = ["--manifest", str(DATA_DIR / "trains" / "manifest.json"), "shapley",
              "--measure", "r", "--method", "oracle"]
    count, report = calls(trains + ["--all"])
    assert count == 2**9 and len(report["facts"]) == 9
    assert calls(trains + ["--fact", "Trains:3"])[0] == 2**9

    rows = [("a", "1"), ("a", "2"), ("a", "3"), ("b", "1"), ("b", "2"), ("c", "1")]
    (tmp_path / "r.csv").write_text("A,B\n" + "".join(f"{a},{b}\n" for a, b in rows))
    (tmp_path / "r.fds").write_text("R: A -> B\n")
    manifest = {"schema": {"R": ["A", "B"]}, "data": {"R": "r.csv"}, "fds": "r.fds"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    perms = ["--manifest", str(tmp_path / "manifest.json"), "oracle", "--measure", "mc",
             "--form", "perms"]
    count, report = calls(perms + ["--all"])
    assert count == 2**6 and len(report["facts"]) == 6
    assert report["efficiency_check"] is True
    assert calls(perms + ["--fact", "R:2"])[0] == 2**6
