"""Relational core: conflict detection and graph construction."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incshap import (
    CoalitionEvaluator,
    Database,
    FD,
    Fact,
    FDSet,
    Game,
    MeasureKind,
    Schema,
    SchemaError,
    build_conflict_graph,
    is_consistent,
    violates,
)
from incshap.errors import InputError

from conftest import random_arbitrary_fds, random_rows


def test_violates_trains_examples(trains):
    db, fds = trains
    f = {i: db.get(f"Trains:{i}") for i in range(9)}
    assert violates(f[0], f[2], fds)  # different departure stations
    assert not violates(f[0], f[1], fds)  # same departs; durations differ
    assert not violates(f[0], f[0], fds)
    assert violates(f[5], f[6], fds)  # same duration, different arrivals


def test_violates_cross_relation_is_false():
    schema = Schema.from_dict({"R": ["A", "B"], "S": ["A", "B"]})
    fds = FDSet(schema, (FD("R", frozenset({"A"}), frozenset({"B"})),))
    a = Database.build(schema, {"R": [("x", "1")], "S": [("x", "2")]})
    r, s = a.facts
    assert not violates(r, s, fds)


def test_violates_rejects_unknown_schema(mini):
    _, fds = mini
    from incshap import Fact

    alien = Fact("Q", ("1",), 0)
    with pytest.raises(SchemaError):
        violates(alien, alien, fds)
    short = Fact("R", ("a",), 0)
    with pytest.raises(SchemaError, match="fact R:0 has the wrong arity for its relation"):
        violates(short, short, fds)


AB = Schema.from_dict({"R": ["A", "B"]})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Schema((("R", ("A",)), ("R", ("B",)))), "duplicate relation name 'R'"),
        (lambda: Schema.from_dict({"R": []}), "relation 'R' has no attributes"),
        (lambda: Schema.from_dict({"R": ["A", "A"]}), "relation 'R' has duplicate attributes"),
        (lambda: FDSet(AB, (FD("R", frozenset("A"), frozenset("Z")),)),
         r"FD R: A -> Z uses unknown attributes \['Z'\]"),
        (lambda: FDSet(AB, (FD("R", frozenset("A"), frozenset()),)),
         "has an empty right-hand side"),
        (lambda: FDSet(AB, ()).per_relation("U"), "unknown relation 'U'"),
    ],
    ids=["duplicate-relation", "no-attributes", "duplicate-attribute", "unknown-attribute",
         "empty-rhs", "unknown-relation"],
)
def test_malformed_schemas_and_fd_sets_rejected(build, message):
    with pytest.raises(SchemaError, match=message):
        build()


def test_build_rejects_rows_of_an_unknown_relation():
    """Rows of a relation outside the schema are refused, not dropped."""
    with pytest.raises(SchemaError, match="rows given for unknown relation 'X'"):
        Database.build(AB, {"X": [("x", "y")], "R": [("a", "1")]})


@pytest.mark.parametrize(
    "check",
    [build_conflict_graph, is_consistent, CoalitionEvaluator,
     lambda db, fds: Game(db, fds, MeasureKind.MI)],
    ids=["conflict-graph", "is-consistent", "evaluator", "game"],
)
def test_database_and_fds_over_different_schemas_rejected(check):
    db = Database.build(AB, {"R": [("a", "1")]})
    fds = FDSet(Schema.from_dict({"R": ["A", "C"]}), ())
    with pytest.raises(SchemaError, match="database and FD set are over different schemas"):
        check(db, fds)


def test_conflict_graph_matches_brute_force(trains):
    db, fds = trains
    graph = build_conflict_graph(db, fds)["Trains"]
    brute = {
        (a.index, b.index)
        for a, b in itertools.combinations(db.facts, 2)
        if violates(a, b, fds)
    }
    assert set(graph.edges) == brute
    assert len(graph.edges) == 30


def test_conflict_graph_consistent_db():
    schema = Schema.from_dict({"R": ["A", "B"]})
    db = Database.build(schema, {"R": [("a", "1"), ("b", "2")]})
    fds = FDSet(schema, (FD("R", frozenset({"A"}), frozenset({"B"})),))
    assert build_conflict_graph(db, fds)["R"].edges == ()
    assert is_consistent(db, fds)


def test_conflict_graph_mini(mini):
    db, fds = mini
    graph = build_conflict_graph(db, fds)["R"]
    assert graph.edges == ((0, 1),)
    assert graph.degree(0) == 1 and graph.degree(2) == 0


def test_conflict_graph_accessors_agree_with_edges(trains):
    db, fds = trains
    graph = build_conflict_graph(db, fds)["Trains"]
    edges = set(graph.edges)
    for i in range(graph.n):
        expected = {j for j in range(graph.n) if (min(i, j), max(i, j)) in edges}
        assert graph.neighbors(i) == expected
        assert graph.degree(i) == len(expected)
        for j in range(graph.n):
            assert graph.has_edge(i, j) == graph.has_edge(j, i) == (j in expected)
    assert not graph.has_edge(0, 0)
    assert not graph.has_edge(0, graph.n)
    assert not graph.has_edge(graph.n, 0)
    assert not graph.has_edge(-1, 0)


def test_is_consistent_cases(trains):
    db, fds = trains
    assert not is_consistent(db, fds)
    repair = Database.build(
        db.schema, {"Trains": [f.values for f in db.facts[2:5]]}
    )
    assert is_consistent(repair, fds)
    assert is_consistent(Database(db.schema), fds)


def test_duplicate_facts_rejected():
    schema = Schema.from_dict({"R": ["A", "B"]})
    with pytest.raises(InputError, match="duplicate"):
        Database.build(schema, {"R": [("a", "1"), ("a", "1")]})


def test_duplicate_fact_error_carries_both_facts():
    schema = Schema.from_dict({"R": ["A", "B"], "S": ["A", "B"]})
    rows = {"R": [("a", "1"), ("b", "2"), ("a", "1")], "S": [("a", "1")]}
    with pytest.raises(InputError, match="duplicate") as caught:
        Database.build(schema, rows)
    assert caught.value.fact == Fact("R", ("a", "1"), 2)
    assert caught.value.first == Fact("R", ("a", "1"), 0)


def test_short_fact_error_carries_the_fact():
    schema = Schema.from_dict({"R": ["A", "B"]})
    with pytest.raises(SchemaError, match="fact R:1 has 1 values, expected 2") as caught:
        Database.build(schema, {"R": [("a", "1"), ("b",)]})
    assert caught.value.fact == Fact("R", ("b",), 1)


def test_fact_index_is_its_position_in_its_relation(trains):
    """Engines read a fact at its index in its relation, so a subset that
    keeps its ids, or facts in another order, is rejected; relations may
    still interleave."""
    db, _ = trains
    kept = tuple(db.facts[k] for k in (0, 2, 3, 5, 7, 8))
    with pytest.raises(InputError, match="fact Trains:2 is not at position 2 of its relation"):
        Database(db.schema, kept)
    with pytest.raises(InputError, match="fact Trains:8 is not at position 8 of its relation"):
        Database(db.schema, db.facts[::-1])
    schema = Schema.from_dict({"R": ["A"], "S": ["B"]})
    mixed = (Fact("R", ("a",), 0), Fact("S", ("b",), 0), Fact("R", ("c",), 1))
    assert Database(schema, mixed).facts_of("R") == (mixed[0], mixed[2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_violates_is_symmetric(seed):
    rng = random.Random(seed)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    fds = FDSet(schema, random_arbitrary_fds(rng, "R"))
    db = Database.build(schema, {"R": random_rows(rng, 5)})
    for a, b in itertools.combinations(db.facts, 2):
        assert violates(a, b, fds) == violates(b, a, fds)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_subset_consistency_matches_edge_freeness(seed):
    """A subset satisfies the FDs iff no conflict edge lies inside it."""
    rng = random.Random(seed)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    fds = FDSet(schema, random_arbitrary_fds(rng, "R"))
    rows = random_rows(rng, 6)
    db = Database.build(schema, {"R": rows})
    graph = build_conflict_graph(db, fds)["R"]
    for _ in range(10):
        picked = sorted(rng.sample(range(6), rng.randint(0, 6)))
        sub = Database.build(schema, {"R": [rows[i] for i in picked]})
        edge_inside = any(
            set(edge) <= set(picked) for edge in graph.edges
        )
        assert is_consistent(sub, fds) == (not edge_inside)


def test_graphs_never_cross_relations():
    schema = Schema.from_dict({"R": ["A", "B"], "S": ["A", "B"]})
    fds = FDSet(
        schema,
        (
            FD("R", frozenset({"A"}), frozenset({"B"})),
            FD("S", frozenset({"A"}), frozenset({"B"})),
        ),
    )
    db = Database.build(
        schema, {"R": [("x", "1"), ("x", "2")], "S": [("x", "3"), ("x", "4")]}
    )
    graphs = build_conflict_graph(db, fds)
    assert graphs["R"].edges == ((0, 1),)
    assert graphs["S"].edges == ((0, 1),)
    assert all(f.relation == "R" for f in graphs["R"].facts)


def test_membership_by_identity_then_equality(monkeypatch):
    """A stored fact is found without a Fact comparison; an equal fact built
    elsewhere is still a member, and an unknown one is not."""
    schema = Schema.from_dict({"R": ["A", "B"]})
    db = Database.build(schema, {"R": [("a", "1"), ("b", "2")]})
    eq = Fact.__eq__
    calls = []

    def counted(self, other):
        calls.append(self)
        return eq(self, other)

    monkeypatch.setattr(Fact, "__eq__", counted)
    db.require(db.facts)
    assert calls == []
    foreign = Fact("R", ("a", "1"), 0)
    assert foreign is not db.facts[0] and foreign in db
    db.require([foreign])
    for unknown in (Fact("R", ("a", "9"), 0), Fact("R", ("a", "1"), 5), Fact("S", ("a", "1"), 0)):
        assert unknown not in db
        with pytest.raises(InputError, match=f"fact {unknown.id} is not in the database"):
            db.require([unknown])


def test_lookups_by_id_relation_and_attribute():
    """The indexed lookups agree with a scan and keep their error types."""
    schema = Schema.from_dict({"R": ["A", "B"], "S": ["C"], "T": ["D"]})
    db = Database.build(schema, {"R": [("a", "1"), ("b", "2")], "S": [("x",)]})
    for fact in db.facts:
        assert db.get(fact.id) is fact and fact in db
    assert db.facts_of("R") == tuple(f for f in db.facts if f.relation == "R")
    assert db.facts_of("T") == ()
    assert Fact("R", ("a", "9"), 0) not in db
    with pytest.raises(InputError, match="no fact with id 'R:7'"):
        db.get("R:7")
    assert [schema.position("R", a) for a in ("A", "B")] == [0, 1]
    with pytest.raises(SchemaError, match="unknown attribute 'C' in relation 'R'"):
        schema.position("R", "C")
    with pytest.raises(SchemaError, match="unknown relation 'U'"):
        schema.position("U", "A")
    with pytest.raises(SchemaError, match="unknown relation 'U'"):
        schema.attributes("U")
    assert schema.has_relation("T") and not schema.has_relation("U")
    assert schema == Schema.from_dict({"R": ["A", "B"], "S": ["C"], "T": ["D"]})


def test_key_agrees_with_value_equality():
    """Two facts share a key iff they agree on the attributes, for 0, 1 and
    2+ attributes; one attribute keys on the bare value, not a tuple."""
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    rows = [(a, b, c) for a in "xy" for b in "12" for c in "pq"]
    for attrs in ((), ("B",), ("A", "C"), ("C", "B", "A")):
        key = schema.key("R", attrs)
        positions = [schema.position("R", a) for a in attrs]
        for u, v in itertools.product(rows, repeat=2):
            agree = all(u[p] == v[p] for p in positions)
            assert (key(u) == key(v)) is agree
    assert schema.key("R", ["B"])(("x", "1", "p")) == "1"
    assert schema.key("R", ["B", "A"])(("x", "1", "p")) == ("x", "1")
    assert schema.key("R", [])(("x", "1", "p")) == ()


def test_key_rejects_unknown_names_before_reading_a_fact():
    schema = Schema.from_dict({"R": ["A", "B"]})
    with pytest.raises(SchemaError, match="unknown relation 'U'"):
        schema.key("U", [])
    with pytest.raises(SchemaError, match="unknown relation 'U'"):
        schema.key("U", ["A"])
    with pytest.raises(SchemaError, match="unknown attribute 'Z' in relation 'R'"):
        schema.key("R", ["A", "Z"])
    with pytest.raises(SchemaError, match="unknown attribute 'Z' in relation 'R'"):
        schema.group([Fact("R", ("a", "1"), 0)], ["Z"])


def test_group_keeps_first_fact_order():
    schema = Schema.from_dict({"R": ["A", "B"]})
    db = Database.build(schema, {"R": [("b", "1"), ("a", "1"), ("b", "2"), ("c", "1"), ("a", "2")]})
    f = db.facts
    assert schema.group(f, ["A"]) == [(f[0], f[2]), (f[1], f[4]), (f[3],)]
    assert schema.group(f, ["B"]) == [(f[0], f[1], f[3]), (f[2], f[4])]
    assert schema.group(f, []) == [f]
    assert schema.group(f, ["A", "B"]) == [(x,) for x in f]
    assert schema.group((), ["A"]) == []


def test_group_looks_up_positions_once_per_call(monkeypatch):
    """`Schema.group` resolves names to positions per call, not per fact."""
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    calls = []
    position = Schema.position

    def counting(self, relation, attribute):
        calls.append(attribute)
        return position(self, relation, attribute)

    monkeypatch.setattr(Schema, "position", counting)
    counts = []
    for n in (10, 1000):
        facts = [Fact("R", (f"a{i % 7}", f"b{i % 3}", f"c{i}"), i) for i in range(n)]
        calls.clear()
        assert len(schema.group(facts, ["A", "B"])) == min(n, 21)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
