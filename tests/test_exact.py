"""Exact Shapley computation: closed forms, chain DPs, and combination."""

import random
from fractions import Fraction
from math import comb

import pytest

from incshap import (
    CoalitionEvaluator,
    Database,
    FD,
    FDSet,
    IntractableExactError,
    MeasureKind,
    Schema,
    build_conflict_graph,
    build_tree,
    classify,
    measure,
    drastic_tables,
    mc_tables,
    multi_relation_combine,
    r_tables,
    shapley_bruteforce_subsets,
    shapley_drastic,
    shapley_eq1_combine,
    shapley_exact,
    shapley_mc,
    shapley_mi,
    shapley_p,
    shapley_r,
)
from incshap.errors import InputError
from incshap.exact import drastic_tables_by_vertex, r_tables_by_vertex
from incshap.fd_analysis import TractabilityKind

from conftest import (
    random_instance,
    random_two_relation_instance,
    symmetric_pairs,
)


def _chain(fds, relation):
    return classify(fds)[relation].chain


half = Fraction(1, 2)


class TestCombine:
    def test_null_lists(self):
        vals = [Fraction(1, 3)] * 4
        assert shapley_eq1_combine(vals, vals, 4) == 0

    def test_mini_drastic_marginals(self, mini):
        with_f = [Fraction(0), half, Fraction(1)]
        without = [Fraction(0)] * 3
        assert shapley_eq1_combine(with_f, without, 3) == half

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            shapley_eq1_combine([Fraction(0)], [Fraction(0), Fraction(0)], 2)


class TestClosedForms:
    def test_mini_values(self, mini):
        db, fds = mini
        g1, g2, g3 = db.facts
        assert shapley_mi(db, fds, g1) == half
        assert shapley_mi(db, fds, g2) == half
        assert shapley_mi(db, fds, g3) == 0
        assert shapley_p(db, fds, g1) == 1
        assert shapley_p(db, fds, g3) == 0

    def test_conflict_free_fact_is_zero(self, mini):
        db, fds = mini
        assert shapley_mi(db, fds, db.facts[2]) == 0

    def test_trains_mi_values(self, trains):
        db, fds = trains
        graph = build_conflict_graph(db, fds)["Trains"]
        for fact in db.facts:
            # one violating pair splits its unit evenly between its two facts
            assert shapley_mi(db, fds, fact) == Fraction(graph.degree(fact.index), 2)

    def test_trains_p_efficiency(self, trains):
        db, fds = trains
        total = sum(shapley_p(db, fds, f) for f in db.facts)
        assert total == 9

    def test_unknown_fact_rejected(self, mini):
        db, fds = mini
        from incshap import Fact

        with pytest.raises(InputError):
            shapley_mi(db, fds, Fact("R", ("z", "9"), 42))

    def test_efficiency_at_scale(self):
        """Values sum to I(D) on the n=200 ladder plus a relation with no lhs chain."""
        rng = random.Random(0)

        def distinct_rows(n, domains):
            rows = {}
            while len(rows) < n:
                rows.setdefault(tuple(f"{p}{rng.randrange(k)}" for p, k in domains), None)
            return list(rows)

        schema = Schema.from_dict({"R": ["A", "B", "C", "D"], "S": ["X", "Y", "Z"]})
        fds = FDSet(
            schema,
            (
                FD("R", frozenset({"A"}), frozenset({"B"})),
                FD("R", frozenset({"A", "C"}), frozenset({"D"})),
                FD("S", frozenset({"X"}), frozenset({"Z"})),
                FD("S", frozenset({"Y"}), frozenset({"Z"})),
            ),
        )
        db = Database.build(
            schema,
            {
                "R": distinct_rows(200, [("a", 20), ("b", 3), ("c", 3), ("d", 4)]),
                "S": distinct_rows(60, [("x", 8), ("y", 8), ("z", 3)]),
            },
        )
        assert classify(fds)["S"].kind is not TractabilityKind.LHS_CHAIN
        for kind in (MeasureKind.MI, MeasureKind.P):
            total = sum(shapley_exact(db, fds, f, kind) for f in db.facts)
            assert total == measure(kind, db, fds) > 0


class TestDrasticTables:
    def test_trains_checkpoint(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        f9 = db.get("Trains:8")
        base = [f for f in db.facts if f.id != f9.id]
        tree = build_tree(base, chain, db.schema)
        assert drastic_tables(tree).expectation(3) == Fraction(55, 56)
        assert drastic_tables(tree, f9).expectation(3) == 1

    def test_trains_vertex_values(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        base = [f for f in db.facts if f.id != "Trains:8"]
        tree = build_tree(base, chain, db.schema)
        tables = drastic_tables_by_vertex(tree)
        bby = tree.find(["Trains:5", "Trains:6", "Trains:7"])
        assert tables[bby].expectation(2) == Fraction(1, 3)
        assert tables[bby].expectation(3) == 1
        same_duration = tree.find(["Trains:5", "Trains:6"])
        assert tables[same_duration].expectation(2) == 1

    def test_conflicting_vertex_all_sizes_violate(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        f9 = db.get("Trains:8")
        base = [f for f in db.facts if f.id != f9.id]
        tree = build_tree(base, chain, db.schema)
        tables = drastic_tables_by_vertex(tree, f9)
        nyp = tree.find(["Trains:0", "Trains:1"])
        assert tables[nyp].counts == (0, comb(2, 1), comb(2, 2))


class TestRTables:
    def test_consistent_leaf(self, trains):
        db, fds = trains
        tree = build_tree(db.facts_of("Trains")[2:5], (), db.schema)
        table = r_tables(tree)
        assert table.counts[2] == (3, 0, 0)

    def test_bby_block(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        base = [f for f in db.facts if f.id != "Trains:8"]
        tree = build_tree(base, chain, db.schema)
        tables = r_tables_by_vertex(tree)
        bby = tree.find(["Trains:5", "Trains:6", "Trains:7"])
        # the full triple keeps {f6,f8} or {f7,f8}: one deletion
        assert tables[bby].counts[3] == (0, 1, 0, 0)

    def test_mini_pair_block(self, mini):
        db, fds = mini
        chain = _chain(fds, "R")
        tree = build_tree(db.facts[:2], chain, db.schema)
        assert r_tables(tree).counts[2] == (0, 1, 0)

    def test_cost_rows_partition_subsets(self, trains):
        """Every subset has exactly one repair cost."""
        db, fds = trains
        chain = _chain(fds, "Trains")
        for external in (None, db.get("Trains:8")):
            base = [f for f in db.facts if external is None or f.id != external.id]
            tree = build_tree(base, chain, db.schema)
            for vertex, table in r_tables_by_vertex(tree, external).items():
                for j in range(vertex.size + 1):
                    assert sum(table.counts[j]) == comb(vertex.size, j)


class TestMcTables:
    def test_consistent_leaf_expectation_one(self, trains):
        db, _ = trains
        tree = build_tree(db.facts_of("Trains")[2:5], (), db.schema)
        table = mc_tables(tree)
        assert [table.expectation(j) for j in range(4)] == [1, 1, 1, 1]

    def test_mini_conflicting_pair_block(self, mini):
        db, fds = mini
        chain = _chain(fds, "R")
        tree = build_tree(db.facts[:2], chain, db.schema)
        assert mc_tables(tree).expectation(2) == 2

    def test_trains_full_database(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        tree = build_tree(db.facts, chain, db.schema)
        assert mc_tables(tree).expectation(9) == 5


class TestTreeShapley:
    def test_mini_values(self, mini):
        db, fds = mini
        g1, g2, g3 = db.facts
        assert shapley_drastic(db, fds, g1) == half
        assert shapley_r(db, fds, g1) == half
        assert shapley_mc(db, fds, g1) == half
        for fn in (shapley_drastic, shapley_r, shapley_mc):
            assert fn(db, fds, g3) == 0

    def test_trains_efficiency(self, trains):
        db, fds = trains
        assert sum(shapley_r(db, fds, f) for f in db.facts) == 6
        assert sum(shapley_drastic(db, fds, f) for f in db.facts) == 1
        assert sum(shapley_mc(db, fds, f) for f in db.facts) == 4

    def test_results_are_exact_rationals(self, trains):
        db, fds = trains
        for kind in MeasureKind:
            value = shapley_exact(db, fds, db.facts[0], kind)
            assert isinstance(value, Fraction)

    def test_intractable_refusals(self, matching_constraint):
        db, fds = matching_constraint
        fact = db.facts[0]
        for kind in (MeasureKind.DRASTIC, MeasureKind.MC, MeasureKind.R):
            with pytest.raises(IntractableExactError, match="approx"):
                shapley_exact(db, fds, fact, kind)

    def test_mi_p_work_without_chain(self, matching_constraint):
        db, fds = matching_constraint
        engine = CoalitionEvaluator(db, fds)
        for fact in db.facts:
            for kind in (MeasureKind.MI, MeasureKind.P):
                assert shapley_exact(db, fds, fact, kind) == shapley_bruteforce_subsets(
                    db, fds, fact, kind, engine=engine
                )


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = random.Random(5150)
        for trial in range(40):
            db, fds = random_instance(rng, chain=trial % 2 == 0)
            chain_ok = classify(fds)["R"].kind is TractabilityKind.LHS_CHAIN
            engine = CoalitionEvaluator(db, fds)
            for fact in db.facts:
                for kind in MeasureKind:
                    if kind in (MeasureKind.DRASTIC, MeasureKind.R, MeasureKind.MC):
                        if not chain_ok:
                            continue
                    value = shapley_exact(db, fds, fact, kind)
                    assert value >= 0
                    assert value == shapley_bruteforce_subsets(
                        db, fds, fact, kind, engine=engine
                    ), (kind, fact, [str(f) for f in fds])

    def test_null_players_and_symmetry(self):
        rng = random.Random(6001)
        for trial in range(25):
            db, fds = random_instance(rng, chain=True)
            graph = build_conflict_graph(db, fds)["R"]
            for fact in db.facts:
                if graph.degree(fact.index) == 0:
                    for kind in MeasureKind:
                        assert shapley_exact(db, fds, fact, kind) == 0
            for i, j in symmetric_pairs(graph):
                for kind in MeasureKind:
                    assert shapley_exact(db, fds, db.facts[i], kind) == shapley_exact(
                        db, fds, db.facts[j], kind
                    )

    def test_gap_property(self):
        rng = random.Random(6002)
        for _ in range(25):
            db, fds = random_instance(rng, chain=True)
            n = len(db)
            floor = Fraction(1, n * (n - 1))
            for fact in db.facts:
                for fn in (shapley_drastic, shapley_r):
                    value = fn(db, fds, fact)
                    assert value == 0 or value >= floor


class TestMultiRelation:
    def test_single_relation_pass_through(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        tree = build_tree(db.facts, chain, db.schema)
        table = mc_tables(tree)
        combined = multi_relation_combine(MeasureKind.MC, [table])
        assert combined == table.expectations()

    def test_two_mini_relations_drastic_matches_oracle(self):
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["A", "B"]})
        rows = [("a", "1"), ("a", "2"), ("b", "1")]
        db = Database.build(schema, {"R": rows, "S": rows})
        fds = FDSet(
            schema,
            (
                FD("R", frozenset({"A"}), frozenset({"B"})),
                FD("S", frozenset({"A"}), frozenset({"B"})),
            ),
        )
        engine = CoalitionEvaluator(db, fds)
        for fact in db.facts:
            for kind in (MeasureKind.DRASTIC, MeasureKind.MC):
                assert shapley_exact(db, fds, fact, kind) == (
                    shapley_bruteforce_subsets(db, fds, fact, kind, engine=engine)
                )

    def test_consistent_relation_degenerates(self):
        """A relation that cannot violate only reweighs the other's tables."""
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["A", "B"]})
        db = Database.build(
            schema,
            {"R": [("a", "1"), ("a", "2")], "S": [("x", "1"), ("y", "2")]},
        )
        fds = FDSet(
            schema,
            (
                FD("R", frozenset({"A"}), frozenset({"B"})),
                FD("S", frozenset({"A"}), frozenset({"B"})),
            ),
        )
        engine = CoalitionEvaluator(db, fds)
        for fact in db.facts:
            assert shapley_drastic(db, fds, fact) == shapley_bruteforce_subsets(
                db, fds, fact, MeasureKind.DRASTIC, engine=engine
            )

    def test_additive_kinds_reject_combination(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        tree = build_tree(db.facts, chain, db.schema)
        with pytest.raises(InputError):
            multi_relation_combine(MeasureKind.MI, [drastic_tables(tree)])

    def test_random_two_relation_instances(self):
        rng = random.Random(7007)
        for _ in range(10):
            db, fds = random_two_relation_instance(rng)
            engine = CoalitionEvaluator(db, fds)
            for fact in db.facts:
                for kind in MeasureKind:
                    assert shapley_exact(db, fds, fact, kind) == (
                        shapley_bruteforce_subsets(db, fds, fact, kind, engine=engine)
                    )
