"""Exact Shapley computation: closed forms, chain DPs, and combination."""

import functools
import itertools
import random
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

import pytest

from incshap import (
    CoalitionEvaluator,
    Database,
    FD,
    Fact,
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
    shapley_all,
    shapley_bruteforce_subsets,
    shapley_drastic,
    shapley_exact,
    shapley_mi,
)
from incshap import measures
from incshap.errors import BudgetExceededError, InputError
from incshap.block_tree import VertexKind
from incshap.exact import (
    _DPS,
    _KRONECKER_MIN,
    _POWER_MIN,
    Game,
    _Shapes,
    _consistent_block,
    _convolve,
    _divide,
    _kept_block,
    _power_product,
    _product,
    _product_rows,
    _repair_sum_block,
    _rounds,
    _unit_weights,
)
from incshap.fd_analysis import TractabilityKind
from incshap.oracle import shapley_bruteforce_all
from incshap.relational import _conflict_terms

import instances
from conftest import (
    build,
    random_chain_fds,
    random_instance,
    random_rows,
    random_two_relation_instance,
    symmetric_pairs,
)


def _chain(fds, relation):
    return classify(fds)[relation].chain


def _subset_means(evaluator, kind, facts, extra=()):
    """E[I(S + extra)] over the size-j subsets S of `facts`, for j = 0..|facts|."""
    means = []
    for j in range(len(facts) + 1):
        values = [
            evaluator.value(kind, evaluator.mask_of(f.id for f in (*subset, *extra)))
            for subset in itertools.combinations(facts, j)
        ]
        means.append(Fraction(sum(values), len(values)))
    return means


half = Fraction(1, 2)


def _distinct_rows(rng, n, domains):
    """n distinct rows; column i takes values prefix_i + str(0..k_i-1)."""
    rows = {}
    while len(rows) < n:
        rows.setdefault(tuple(f"{p}{rng.randrange(k)}" for p, k in domains), None)
    return list(rows)


class TestClosedForms:
    def test_mini_values(self, mini):
        db, fds = mini
        g1, g2, g3 = db.facts
        assert shapley_mi(db, fds, g1) == half
        assert shapley_mi(db, fds, g2) == half
        assert shapley_mi(db, fds, g3) == 0
        assert shapley_exact(db, fds, g1, MeasureKind.P) == 1
        assert shapley_exact(db, fds, g3, MeasureKind.P) == 0

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
        total = sum(shapley_exact(db, fds, f, MeasureKind.P) for f in db.facts)
        assert total == 9

    def test_unknown_fact_rejected(self, mini):
        db, fds = mini
        from incshap import Fact

        with pytest.raises(InputError):
            shapley_mi(db, fds, Fact("R", ("z", "9"), 42))

    def test_efficiency_at_scale(self):
        """Values sum to I(D) on the n=200 ladder plus a relation with no lhs chain."""
        rng = random.Random(0)
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
                "R": _distinct_rows(rng, 200, [("a", 20), ("b", 3), ("c", 3), ("d", 4)]),
                "S": _distinct_rows(rng, 60, [("x", 8), ("y", 8), ("z", 3)]),
            },
        )
        assert classify(fds)["S"].kind is not TractabilityKind.LHS_CHAIN
        for kind in (MeasureKind.MI, MeasureKind.P):
            total = sum(shapley_exact(db, fds, f, kind) for f in db.facts)
            assert total == measure(kind, db, fds) > 0


def _group_count_instance(rng):
    """R(A, B, C, D) with a mix of FDs and S(X, Y) with or without one, either
    relation possibly empty: lhs-free FDs, multi-attribute rhs, trivial FDs
    (rhs inside lhs) and several FDs on one lhs."""
    attrs = ("A", "B", "C", "D")
    schema = Schema.from_dict({"R": list(attrs), "S": ["X", "Y"]})
    fds = []
    for _ in range(rng.randint(0, 6)):
        lhs = frozenset(rng.sample(attrs, rng.choice([0, 1, 1, 2, 3])))
        if lhs and rng.random() < 0.15:
            rhs = frozenset(rng.sample(sorted(lhs), 1))  # trivial
        else:
            rhs = frozenset(rng.sample(attrs, rng.randint(1, 3)))
        fds.append(FD("R", lhs, rhs))
        if rng.random() < 0.3:
            fds.append(FD("R", lhs, frozenset(rng.sample(attrs, 1))))  # same lhs
    if rng.random() < 0.5:
        fds.append(FD("S", frozenset({"X"}), frozenset({"Y"})))
    rows = {
        "R": random_rows(rng, rng.choice([0, 1, 6, 12, 20]), width=4),
        "S": random_rows(rng, rng.choice([0, 3, 7]), width=2),
    }
    return Database.build(schema, rows), FDSet(schema, tuple(fds))


def _graph_values(db, fds, kind):
    """mi and p values straight from the conflict graph's adjacency."""
    graphs = build_conflict_graph(db, fds)
    values = []
    for fact in db.facts:
        adj = graphs[fact.relation].adjacency
        deg = len(adj[fact.index])
        if kind is MeasureKind.MI:
            values.append(Fraction(deg, 2))
        else:
            values.append(Fraction(deg, deg + 1) + sum(
                Fraction(1, len(adj[g]) * (len(adj[g]) + 1)) for g in adj[fact.index]
            ))
    return values


def _interleaved(db, rng):
    """The facts of ``db`` with R and S merged in a random order, each
    relation keeping its own load order."""
    queues = [list(db.facts_of(r)) for r in ("R", "S")]
    facts = []
    while any(queues):
        queue = rng.choice([q for q in queues if q])
        facts.append(queue.pop(0))
    return Database(db.schema, tuple(facts))


def _graph_layout(db, fds):
    """The evaluator's bit order and component masks rebuilt from the
    conflict graph: components in the order of their first fact in load
    order, facts in load order within a component."""
    graphs = build_conflict_graph(db, fds)
    load = {fact.id: k for k, fact in enumerate(db.facts)}
    partners = [
        {load[f"{fact.relation}:{j}"] for j in graphs[fact.relation].adjacency[fact.index]}
        for fact in db.facts
    ]
    order, comps, placed = [], [], set()
    for k in range(len(db.facts)):
        if k in placed:
            continue
        members, stack = {k}, [k]
        while stack:
            new = partners[stack.pop()] - members
            members |= new
            stack += new
        placed |= members
        local = {m: j for j, m in enumerate(sorted(members))}
        comps.append((len(order), [sum(1 << local[g] for g in partners[m]) for m in local]))
        order += local
    return [db.facts[k].id for k in order], comps


class TestGroupCounts:
    """mi and p from group counts against the conflict graph and the evaluator."""

    KINDS = (MeasureKind.MI, MeasureKind.P)

    def test_two_fd_expansion(self):
        """A -> B, AC -> D: deg = |A| - |AB| + |ABC| - |ABCD|."""
        fds = (FD("R", frozenset("A"), frozenset("B")), FD("R", frozenset("AC"), frozenset("D")))
        terms = dict(_conflict_terms(fds))
        assert terms == {
            frozenset("A"): 1, frozenset("AB"): -1, frozenset("ABC"): 1, frozenset("ABCD"): -1
        }
        # A trivial FD adds no term; repeating an lhs merges into one FD.
        trivial = FD("R", frozenset("AC"), frozenset("C"))
        assert dict(_conflict_terms(fds + (trivial,))) == terms
        split = (FD("R", frozenset("A"), frozenset("B")), FD("R", frozenset("A"), frozenset("C")))
        assert dict(_conflict_terms(split)) == {frozenset("A"): 1, frozenset("ABC"): -1}
        assert _conflict_terms(()) == []

    def test_equals_conflict_graph_and_evaluator(self):
        rng = random.Random(2020)
        seen = set()
        for trial in range(300):
            db, fds = _group_count_instance(rng)
            r_fds = fds.per_relation("R")
            seen |= {
                "empty lhs" if not fd.lhs else "trivial" if fd.rhs <= fd.lhs else "rhs > 1"
                for fd in r_fds if not fd.lhs or fd.rhs <= fd.lhs or len(fd.rhs) > 1
            }
            if len({fd.lhs for fd in r_fds}) < len(r_fds):
                seen.add("same lhs")
            for relation in ("R", "S"):
                if not db.facts_of(relation):
                    seen.add("no facts")
                if not fds.per_relation(relation):
                    seen.add("no FDs")
            engine = CoalitionEvaluator(db, fds)
            for kind in self.KINDS:
                game = Game(db, fds, kind)
                assert game.values(db.facts) == _graph_values(db, fds, kind), (trial, kind)
                assert game.total() == engine.value(kind, engine.full_mask), (trial, kind)
        assert seen == {"empty lhs", "trivial", "rhs > 1", "same lhs", "no facts", "no FDs"}

    def test_evaluator_masks_equal_conflict_graph(self):
        """The evaluator's masks from group counts, and its bit order, equal
        the conflict graph's, also when R and S facts interleave."""
        rng = random.Random(2021)
        for trial in range(300):
            plain, fds = _group_count_instance(rng)
            for db in (plain, _interleaved(plain, rng)):
                engine = CoalitionEvaluator(db, fds)
                layout = (
                    [f.id for f in engine.facts],
                    [(c.offset, c.adj) for c in dict.fromkeys(engine.comp_of)],
                )
                assert layout == _graph_layout(db, fds), trial
                for kind in self.KINDS:
                    assert Game(db, fds, kind).total() == engine.value(kind, engine.full_mask)

    def test_one_component_object_per_conflict_component(self, monkeypatch):
        """The evaluator builds one `_Component` per conflict component, in
        bit order, and none for the whole database."""
        made = []
        init = measures._Component.__init__

        def counting(comp, offset, adj):
            made.append((offset, adj))
            init(comp, offset, adj)

        monkeypatch.setattr(measures._Component, "__init__", counting)
        rng = random.Random(22)
        for trial in range(100):
            db, fds = _group_count_instance(rng)
            made.clear()
            CoalitionEvaluator(db, fds)
            assert made == _graph_layout(db, fds)[1], trial

    def test_many_fds_stay_few_terms(self):
        """Ten FDs over six attributes: the terms are bounded by the 2^6
        attribute sets, not 3^10, and the values still equal the graph's."""
        rng = random.Random(66)
        attrs = "ABCDEF"
        schema = Schema.from_dict({"R": list(attrs)})
        fds = FDSet(schema, tuple(
            FD("R", frozenset(rng.sample(attrs, rng.randint(1, 3))), frozenset(rng.choice(attrs)))
            for _ in range(10)
        ))
        assert len(_conflict_terms(fds.per_relation("R"))) <= 2 ** len(attrs)
        db = Database.build(schema, {"R": random_rows(rng, 150, width=6)})
        for kind in self.KINDS:
            game = Game(db, fds, kind)
            assert game.values(db.facts) == _graph_values(db, fds, kind), kind


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
        bby = tree.find(["Trains:5", "Trains:6", "Trains:7"])
        table = drastic_tables(build_tree(bby.facts, chain, db.schema))
        assert table.expectation(2) == Fraction(1, 3)
        assert table.expectation(3) == 1
        same_duration = tree.find(["Trains:5", "Trains:6"])
        table = drastic_tables(build_tree(same_duration.facts, chain, db.schema))
        assert table.expectation(2) == 1

    def test_conflicting_vertex_all_sizes_violate(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        f9 = db.get("Trains:8")
        base = [f for f in db.facts if f.id != f9.id]
        tree = build_tree(base, chain, db.schema)
        nyp = tree.find(["Trains:0", "Trains:1"])
        table = drastic_tables(build_tree(nyp.facts, chain, db.schema), f9)
        assert table.counts == (0, comb(2, 1), comb(2, 2))


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
        bby = tree.find(["Trains:5", "Trains:6", "Trains:7"])
        table = r_tables(build_tree(bby.facts, chain, db.schema))
        # the full triple keeps {f6,f8} or {f7,f8}: one deletion
        assert table.counts[3] == (0, 1, 0, 0)

    def test_mini_pair_block(self, mini):
        db, fds = mini
        chain = _chain(fds, "R")
        tree = build_tree(db.facts[:2], chain, db.schema)
        assert r_tables(tree).counts[2] == (0, 1, 0)

    def test_expectations_match_subset_enumeration(self):
        """Mean repair cost over size-j subsets, without and with an external fact."""
        rng = random.Random(2828)
        for _ in range(10):
            db, fds = random_instance(rng, chain=True)
            evaluator = CoalitionEvaluator(db, fds)
            *base, external = db.facts
            tree = build_tree(base, _chain(fds, "R"), db.schema)
            assert r_tables(tree).expectations() == _subset_means(
                evaluator, MeasureKind.R, base
            )
            assert r_tables(tree, external).expectations() == _subset_means(
                evaluator, MeasureKind.R, base, (external,)
            )

    def test_cost_rows_partition_subsets(self, trains):
        """Every subset has exactly one repair cost."""
        db, fds = trains
        chain = _chain(fds, "Trains")
        for external in (None, db.get("Trains:8")):
            base = [f for f in db.facts if external is None or f.id != external.id]
            tree = build_tree(base, chain, db.schema)
            for vertex in tree.vertices():
                table = r_tables(build_tree(vertex.facts, chain, db.schema), external)
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


class TestExternalFact:
    """With-fact tables for a fact that conflicts with, matches or misses the tree."""

    BUILDERS = (drastic_tables, mc_tables, r_tables)

    def test_conflict_with_every_subtree_fact(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        f9 = db.get("Trains:8")
        nyp = [db.get("Trains:0"), db.get("Trains:1")]
        tree = build_tree(nyp, chain, db.schema)
        assert drastic_tables(tree, f9).counts == (0, 2, 1)
        # the two NYP facts agree with each other, so S + f9 has the
        # repairs S and {f9}, and costs 1 for every non-empty S
        assert mc_tables(tree, f9).counts == (1, 4, 2)
        assert r_tables(tree, f9).counts == ((1,), (0, 2), (0, 1, 0))

    def test_neither_leaves_tables_unchanged(self, trains):
        db, fds = trains
        chain = _chain(fds, "Trains")
        other = Fact("Trains", ("99", "NYP", "BBY", "1030", "315"), 99)
        base = build_tree([f for f in db.facts if f.id != "Trains:8"], chain, db.schema)
        nyp = build_tree([db.get("Trains:0"), db.get("Trains:1")], chain, db.schema)
        for tree in (base, nyp):
            for builder in self.BUILDERS:
                assert builder(tree, other) == builder(tree)

    def test_match_and_clash_on_leaf(self, mini):
        db, fds = mini
        chain = _chain(fds, "R")
        tree = build_tree([db.facts[0]], chain, db.schema)  # ("a", "1")
        assert drastic_tables(tree, Fact("R", ("a", "1"), 77)).counts == (0, 0)
        assert drastic_tables(tree, Fact("R", ("a", "9"), 78)).counts == (0, 1)

    def test_fact_already_in_tree_rejected(self, trains):
        db, fds = trains
        tree = build_tree(db.facts, _chain(fds, "Trains"), db.schema)
        for builder in self.BUILDERS:
            with pytest.raises(InputError, match="already"):
                builder(tree, db.get("Trains:0"))

    def test_fact_of_another_relation_rejected(self, mini):
        db, fds = mini
        tree = build_tree(db.facts, _chain(fds, "R"), db.schema)
        for builder in self.BUILDERS:
            with pytest.raises(InputError):
                builder(tree, Fact("S", ("a", "1"), 0))


class TestTablesByEnumeration:
    @staticmethod
    def _enumerated(engine, mask, extra=0):
        """Per-size d, mc and r tables of S | extra over the subsets S of mask."""
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        d, mc = [0] * (len(bits) + 1), [0] * (len(bits) + 1)
        r = [[0] * (j + 1) for j in range(len(bits) + 1)]
        for j in range(len(bits) + 1):
            for chosen in itertools.combinations(bits, j):
                subset = sum(1 << i for i in chosen) | extra
                d[j] += engine.value(MeasureKind.DRASTIC, subset)
                mc[j] += engine.value(MeasureKind.MC, subset)
                r[j][engine.value(MeasureKind.R, subset)] += 1
        return tuple(d), tuple(mc), tuple(tuple(row) for row in r)

    def test_root_tables_match_subset_enumeration(self):
        """Every entry of the full, without-f and with-f tables equals brute force."""
        rng = random.Random(2024)
        for _ in range(40):
            db, fds = random_instance(rng, chain=True)
            chain = _chain(fds, "R")
            engine = CoalitionEvaluator(db, fds)
            cases = [(db.facts, None, engine.full_mask, 0)]
            for f in db.facts:
                bit = 1 << engine.bit_of[f.id]
                base = [g for g in db.facts if g.id != f.id]
                cases.append((base, None, engine.full_mask & ~bit, 0))
                cases.append((base, f, engine.full_mask & ~bit, bit))
            for facts, external, mask, extra in cases:
                tree = build_tree(facts, chain, db.schema)
                tables = tuple(
                    builder(tree, external).counts
                    for builder in (drastic_tables, mc_tables, r_tables)
                )
                assert tables == self._enumerated(engine, mask, extra)


class TestTreeShapley:
    def test_mini_values(self, mini):
        db, fds = mini
        g1, g2, g3 = db.facts
        assert shapley_drastic(db, fds, g1) == half
        assert shapley_exact(db, fds, g1, MeasureKind.R) == half
        assert shapley_exact(db, fds, g1, MeasureKind.MC) == half
        for kind in (MeasureKind.DRASTIC, MeasureKind.R, MeasureKind.MC):
            assert shapley_exact(db, fds, g3, kind) == 0

    def test_trains_efficiency(self, trains):
        db, fds = trains
        assert sum(shapley_exact(db, fds, f, MeasureKind.R) for f in db.facts) == 6
        assert sum(shapley_drastic(db, fds, f) for f in db.facts) == 1
        assert sum(shapley_exact(db, fds, f, MeasureKind.MC) for f in db.facts) == 4

    def test_efficiency_at_scale(self):
        """Values sum to I(D) - I(empty) on two lhs-chain relations of many
        small blocks plus a relation holding one 32-fact conflict component
        with 512 repairs."""
        rng = random.Random(0)
        schema = Schema.from_dict(
            {"R": ["A", "B", "C", "D"], "S": ["X", "Y", "Z"], "T": ["A", "B", "C", "D"]}
        )
        fds = FDSet(
            schema,
            (
                FD("R", frozenset({"A"}), frozenset({"B"})),
                FD("R", frozenset({"A", "C"}), frozenset({"D"})),
                FD("S", frozenset({"X"}), frozenset({"Y"})),
                FD("T", frozenset({"A"}), frozenset({"B"})),
                FD("T", frozenset({"A", "C"}), frozenset({"D"})),
            ),
        )
        db = Database.build(
            schema,
            {
                "R": _distinct_rows(rng, 50, [("a", 5), ("b", 3), ("c", 3), ("d", 4)]),
                "S": _distinct_rows(rng, 25, [("x", 4), ("y", 3), ("z", 10)]),
                "T": [
                    ("a", f"b{b}", f"c{c}", f"d{d}")
                    for b in range(2)
                    for c in range(8)
                    for d in range(2)
                ],
            },
        )
        engine = CoalitionEvaluator(db, fds)
        for kind in (MeasureKind.DRASTIC, MeasureKind.MC, MeasureKind.R):
            total = sum(shapley_exact(db, fds, f, kind) for f in db.facts)
            assert total == measure(kind, db, fds) - engine.value(kind, 0)
            assert total > 0

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
                for kind in (MeasureKind.DRASTIC, MeasureKind.R):
                    value = shapley_exact(db, fds, fact, kind)
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

    def test_combine_matches_subset_enumeration(self):
        """Both combinable measures over two relations' root tables."""
        rng = random.Random(2929)
        for _ in range(10):
            db, fds = random_two_relation_instance(rng)
            evaluator = CoalitionEvaluator(db, fds)
            trees = [build_tree(db.facts_of(r), _chain(fds, r), db.schema) for r in ("R", "S")]
            for kind, tables in ((MeasureKind.DRASTIC, drastic_tables), (MeasureKind.MC, mc_tables)):
                combined = multi_relation_combine(kind, [tables(tree) for tree in trees])
                assert combined == _subset_means(evaluator, kind, db.facts), kind

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

    def test_repair_cost_and_p_reject_combination(self, trains):
        db, fds = trains
        tree = build_tree(db.facts, _chain(fds, "Trains"), db.schema)
        for kind in (MeasureKind.P, MeasureKind.R):
            with pytest.raises(InputError, match="additive"):
                multi_relation_combine(kind, [r_tables(tree)])

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


def _no_fd_relation_instance(rng):
    """R carries a random lhs chain, S no FDs at all."""
    schema = Schema.from_dict({"R": ["A", "B", "C"], "S": ["X", "Y", "Z"]})
    fds = FDSet(schema, random_chain_fds(rng, "R"))
    db = Database.build(
        schema, {"R": random_rows(rng, rng.randint(3, 7)), "S": random_rows(rng, rng.randint(1, 4))}
    )
    return db, fds


def _empty_lhs_instance(rng):
    """A chain whose first FD has an empty lhs: one unit holds the whole relation."""
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    fds = FDSet(
        schema,
        (
            FD("R", frozenset(), frozenset({"A"})),
            FD("R", frozenset({"B"}), frozenset({"C"})),
        ),
    )
    return Database.build(schema, {"R": random_rows(rng, rng.randint(3, 8))}), fds


class TestShapleyAll:
    """The block-local engine against the subset-enumeration oracle."""

    MAKERS = (
        lambda rng: random_instance(rng, chain=True),
        random_two_relation_instance,
        _no_fd_relation_instance,
        _empty_lhs_instance,
    )

    def test_equals_oracle_for_every_kind(self):
        rng = random.Random(7117)
        for trial in range(32):
            db, fds = self.MAKERS[trial % len(self.MAKERS)](rng)
            engine = CoalitionEvaluator(db, fds)
            chosen = list(db.facts)
            if trial % 2:
                chosen = rng.sample(chosen, rng.randint(1, len(chosen)))
            for kind in MeasureKind:
                expected = [
                    shapley_bruteforce_subsets(db, fds, f, kind, engine=engine) for f in chosen
                ]
                assert shapley_all(db, fds, chosen, kind) == expected, (kind, trial)

    def test_empty_request(self, trains):
        db, fds = trains
        for kind in MeasureKind:
            assert shapley_all(db, fds, [], kind) == []

    def test_unknown_fact_and_kind_rejected(self, mini):
        db, fds = mini
        with pytest.raises(InputError, match="not in the database"):
            shapley_all(db, fds, [Fact("R", ("z", "9"), 42)], MeasureKind.R)
        with pytest.raises(InputError, match="unknown measure kind"):
            shapley_all(db, fds, list(db.facts), "r")

    def test_refusals_name_the_same_relation(self):
        """d/mc refuse on the first relation without a chain in schema order;
        r only on the relations of the requested facts."""
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["A", "B"], "T": ["A", "B"]})
        rows = [("a", "1"), ("a", "2"), ("b", "2")]
        fds = FDSet(
            schema,
            (
                FD("R", frozenset({"A"}), frozenset({"B"})),
                FD("S", frozenset({"A"}), frozenset({"B"})),
                FD("S", frozenset({"B"}), frozenset({"A"})),
                FD("T", frozenset({"A"}), frozenset({"B"})),
                FD("T", frozenset({"B"}), frozenset({"A"})),
            ),
        )
        db = Database.build(schema, {"R": rows, "S": rows, "T": rows})
        r_facts = list(db.facts_of("R"))
        for kind in (MeasureKind.DRASTIC, MeasureKind.MC):
            with pytest.raises(IntractableExactError, match="relation 'S' has no lhs chain"):
                shapley_all(db, fds, r_facts, kind)
        assert shapley_all(db, fds, r_facts, MeasureKind.R) == [half, half, 0]
        for facts in (db.facts_of("S") + db.facts_of("T"), db.facts):
            with pytest.raises(IntractableExactError, match="relation 'T' has no lhs chain"):
                shapley_all(db, fds, facts[::-1], MeasureKind.R)


class TestMeasureFromTables:
    def test_equals_coalition_evaluator(self):
        rng = random.Random(8118)
        for trial in range(60):
            maker = TestShapleyAll.MAKERS[trial % len(TestShapleyAll.MAKERS)]
            db, fds = maker(rng)
            engine = CoalitionEvaluator(db, fds)
            for kind in MeasureKind:
                expected = engine.value(kind, engine.full_mask)
                assert measure(kind, db, fds) == expected
                # The tables and the conflict graph run no search, so no
                # budget can stop them.
                assert measure(kind, db, fds, budget=0) == expected

    def test_no_chain_falls_back_to_the_evaluator(self, matching_constraint):
        db, fds = matching_constraint
        engine = CoalitionEvaluator(db, fds)
        for kind in (MeasureKind.DRASTIC, MeasureKind.MC, MeasureKind.R):
            assert measure(kind, db, fds) == engine.value(kind, engine.full_mask)

    def test_budget_refusal_names_the_relation(self, matching_constraint):
        """A search that runs out of budget says it was the whole-database measure."""
        db, fds = matching_constraint
        with pytest.raises(
            BudgetExceededError,
            match=r"^whole-database measure of relation 'R': "
            r"vertex-cover search exceeded the node budget of 1$",
        ):
            measure(MeasureKind.R, db, fds, budget=1)

    def test_large_component_repair_count(self):
        """120 facts in one conflict component with 2^31 repairs, counted by the DP."""
        db, fds = build(instances.one_block(30))
        assert measure(MeasureKind.MC, db, fds) == 2147483648
        assert measure(MeasureKind.R, db, fds) == 90
        assert measure(MeasureKind.DRASTIC, db, fds) == 1

    def test_large_component_efficiency(self):
        """Every fact of the 120-fact component: values sum to I(D) - I(empty)."""
        db, fds = build(instances.one_block(30))
        for kind, total in ((MeasureKind.DRASTIC, 1), (MeasureKind.MC, 2**31 - 1), (MeasureKind.R, 90)):
            empty = 1 if kind is MeasureKind.MC else 0
            assert measure(kind, db, fds) - empty == total
            assert sum(shapley_all(db, fds, db.facts, kind)) == total, kind


def _mixed_instance(s_rows):
    """R(A,B,C,D) under A -> B, AC -> D with 80 facts in one level-1 block
    (2^21 repairs, cost 60), beside S(A,B) under A <-> B holding `s_rows`."""
    schema = Schema.from_dict({"R": ["A", "B", "C", "D"], "S": ["A", "B"]})
    fds = FDSet(
        schema,
        (
            FD("R", frozenset({"A"}), frozenset({"B"})),
            FD("R", frozenset({"A", "C"}), frozenset({"D"})),
            FD("S", frozenset({"A"}), frozenset({"B"})),
            FD("S", frozenset({"B"}), frozenset({"A"})),
        ),
    )
    return Database.build(schema, {"R": instances.one_block(20).rows, "S": s_rows}), fds


class TestMixedRelations:
    """A large chain relation beside a relation without an lhs chain."""

    def test_empty_relation_without_chain(self):
        """An empty relation is consistent with one repair: it needs no chain."""
        db, fds = _mixed_instance([])
        first_two = db.facts_of("R")[:2]
        assert shapley_all(db, fds, first_two, MeasureKind.MC) == [Fraction(2097151, 80)] * 2
        assert measure(MeasureKind.MC, db, fds, budget=1000) == 2097152
        assert measure(MeasureKind.DRASTIC, db, fds, budget=0) == 1
        assert measure(MeasureKind.R, db, fds, budget=0) == 60

    def test_measure_combines_per_relation(self):
        """Only S's three facts reach the evaluator, so a small budget suffices."""
        db, fds = _mixed_instance([("x", "1"), ("x", "2"), ("y", "2")])
        assert measure(MeasureKind.DRASTIC, db, fds, budget=1000) == 1
        assert measure(MeasureKind.MC, db, fds, budget=1000) == 4194304
        assert measure(MeasureKind.R, db, fds, budget=1000) == 61
        with pytest.raises(IntractableExactError, match="relation 'S' has no lhs chain"):
            shapley_all(db, fds, db.facts_of("R")[:1], MeasureKind.MC)


def _two_attribute(rows, *fds):
    """R(A, B) holding `rows` under the FDs given as (lhs, rhs) pairs."""
    schema = Schema.from_dict({"R": ["A", "B"]})
    fd_set = FDSet(schema, tuple(FD("R", frozenset(lhs), frozenset(rhs)) for lhs, rhs in fds))
    return Database.build(schema, {"R": rows}), fd_set


class TestDrasticTotal:
    """The `d` total is the consistency test, for every FD class."""

    def test_needs_no_tree_class_evaluator_or_partner_sums(self, trains, monkeypatch):
        """`measure` and a fresh game's total equal the evaluator's value of
        the whole database, with every other engine path made to raise."""
        grid = [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]
        cases = [
            trains,
            build(instances.clustered(1)),  # HardCRepair
            _two_attribute(grid, ("A", "B"), ("B", "A")),
            _two_attribute(grid),  # no FDs
            _two_attribute([("a", "1"), ("b", "2")], ((), "B")),
            _mixed_instance([("x", "1"), ("x", "2"), ("y", "2")]),
            _two_attribute([], ("A", "B")),
            _two_attribute([("a", "1"), ("b", "2"), ("c", "3")], ("A", "B"), ("B", "A")),
        ]
        expected = [
            CoalitionEvaluator(db, fds).value(MeasureKind.DRASTIC, (1 << len(db)) - 1)
            for db, fds in cases
        ]
        assert expected == [1, 1, 1, 0, 1, 1, 0, 0]

        def refuse(*args, **kwargs):
            raise AssertionError("a d total needs no tree, class, evaluator or partner sums")

        for target in ("exact.build_tree", "exact.classify_relation", "relational.partner_sums"):
            monkeypatch.setattr(f"incshap.{target}", refuse)
        monkeypatch.setattr(CoalitionEvaluator, "__init__", refuse)
        for (db, fds), value in zip(cases, expected):
            assert measure(MeasureKind.DRASTIC, db, fds, budget=0) == value
            assert Game(db, fds, MeasureKind.DRASTIC).total() == value


class TestLeaveOneOutFold:
    """Folding a unit with f left out equals folding a tree built without f."""

    KINDS = (MeasureKind.DRASTIC, MeasureKind.MC, MeasureKind.R)

    @staticmethod
    def _emptied(unit, fact):
        """What f's removal empties: its leaf, an inner subblock, its unit."""
        kinds, v = set(), unit
        while True:
            if v.size == 1:
                kinds.add("unit" if v is unit else "leaf" if v.is_leaf else v.kind.value)
            if v.is_leaf:
                return kinds
            v = next(c for c in v.children if fact in c.facts)

    def test_equals_fold_of_a_fresh_tree(self):
        rng = random.Random(9229)
        emptied = set()
        for trial in range(60):
            db, fds = TestShapleyAll.MAKERS[trial % len(TestShapleyAll.MAKERS)](rng)
            game = Game(db, fds, MeasureKind.DRASTIC)
            chains, others = game.classes
            assert not others
            for relation, chain in chains.items():
                for unit in game.units(relation):
                    for fact in unit.facts:
                        emptied |= self._emptied(unit, fact)
                        rest = [g for g in unit.facts if g != fact]
                        fresh = build_tree(rest, chain, db.schema).root
                        for kind in self.KINDS:
                            dps = _DPS[kind]
                            assert _Shapes(dps).fold(unit, fact) == _Shapes(dps).fold(fresh)
        assert {"leaf", "subblock", "unit"} <= emptied, emptied

    def test_one_tree_per_relation(self, monkeypatch):
        """`shapley_all` and `measure` build one tree per relation holding
        facts, except a `d` total, which builds none."""
        calls = []

        def counting_build_tree(*args):
            calls.append(args)
            return build_tree(*args)

        monkeypatch.setattr("incshap.exact.build_tree", counting_build_tree)
        rng = random.Random(4334)
        makers = TestShapleyAll.MAKERS + (lambda rng: _mixed_instance([]),)
        for trial in range(20):
            db, fds = makers[trial % len(makers)](rng)
            holding = sum(1 for r in db.schema.relation_names if db.facts_of(r))
            for kind in self.KINDS:
                calls.clear()
                shapley_all(db, fds, db.facts, kind)
                assert len(calls) == holding, (trial, kind)
                calls.clear()
                measure(kind, db, fds)
                assert len(calls) == (0 if kind is MeasureKind.DRASTIC else holding), (trial, kind)


def _plain_fold(v, dps, out=None):
    """The chain DPs bottom-up with no memo and no grouping, every child its
    own run of one: the reference for the shape memo."""
    leaf, block, join = dps
    size = v.size - (out is not None)
    if v.is_leaf:
        return leaf(size)
    children = [(_plain_fold(c, dps, out if out in c.facts else None), 1) for c in v.children]
    return block(size, children) if v.kind is VertexKind.BLOCK else join(children)


class TestShapeMemo:
    """One memo of tree shapes serves every unit and leave-one-out fold of a command."""

    KINDS = TestLeaveOneOutFold.KINDS

    def test_shared_memo_equals_fold_of_a_fresh_tree(self):
        """One memo per instance and measure, across all its units and facts:
        a key that merged two different shapes would return a wrong table."""
        rng = random.Random(9339)
        for trial in range(60):
            db, fds = TestShapleyAll.MAKERS[trial % len(TestShapleyAll.MAKERS)](rng)
            game = Game(db, fds, MeasureKind.DRASTIC)
            chains, _ = game.classes
            units = [(unit, chain) for r, chain in chains.items() for unit in game.units(r)]
            for kind in self.KINDS:
                shapes = _Shapes(_DPS[kind])
                for unit, chain in units:
                    assert shapes.fold(unit) == _plain_fold(unit, _DPS[kind])
                    for fact in unit.facts:
                        rest = [g for g in unit.facts if g != fact]
                        fresh = build_tree(rest, chain, db.schema).root
                        expected = _Shapes(_DPS[kind]).fold(fresh)
                        assert expected == _plain_fold(fresh, _DPS[kind])
                        assert shapes.fold(unit, fact) == expected, (trial, kind, fact.id)

    def test_dp_calls_grow_linearly_in_the_block(self, monkeypatch):
        """Every leave-one-out fold of ("a", b in 2, c in k, d in 2) has one
        shape, so r's block and join work, the children their calls fold,
        grows with k, not with k squared."""
        leaf, block, join = _DPS[MeasureKind.R]
        children = []

        def counting(dp, at):
            # The runs: a block's second argument, a join's first.
            def counted(*args):
                children.append(sum(m for _, m in args[at]))
                return dp(*args)

            return counted

        monkeypatch.setitem(_DPS, MeasureKind.R, (leaf, counting(block, 1), counting(join, 0)))
        counts = {}
        for k in (8, 16):
            db, fds = build(instances.one_block(k))
            children.clear()
            shapley_all(db, fds, db.facts, MeasureKind.R)
            counts[k] = sum(children)
        assert counts[16] <= 2 * counts[8], counts

    def test_values_make_no_membership_scans(self, monkeypatch):
        """A leave-one-out fold walks the fact's path from its leaf: on the
        64-fact block, `Game.values` compares each fact at most once."""
        eq = Fact.__eq__
        calls = []

        def counted(self, other):
            calls.append(self)
            return eq(self, other)

        db, fds = build(instances.one_block(16))
        monkeypatch.setattr(Fact, "__eq__", counted)
        for kind in self.KINDS:
            calls.clear()
            Game(db, fds, kind).values(db.facts)
            assert len(calls) <= len(db.facts), (kind, len(calls))


def _repeated_children_instance(n, children=4):
    """R(A,B,C) under A -> B, rows ("a0", b{i % children}, c{i}) for i < n:
    one block whose children are leaves of n // children or n // children + 1
    facts, so the block's "kept <= k" rows, at least four factors with a
    repeat, multiply on the power path."""
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    fds = FDSet(schema, (FD("R", frozenset("A"), frozenset("B")),))
    rows = [("a0", f"b{i % children}", f"c{i}") for i in range(n)]
    return Database.build(schema, {"R": rows}), fds


def _uneven_block_instance():
    """R(A,B,C,D) under A -> B, AC -> D: one level-1 block whose subblock
    children keep at most 2 (b0: c0 holds a conflicting pair), 1 (b1, one
    fact), 4 (b2, no conflict) and 1 (b3..b5, each a conflicting pair):
    six children with a run of three, so the block's rows below its last k
    multiply on the power path and share powers."""
    schema = Schema.from_dict({"R": ["A", "B", "C", "D"]})
    fds = FDSet(
        schema,
        (
            FD("R", frozenset({"A"}), frozenset({"B"})),
            FD("R", frozenset({"A", "C"}), frozenset({"D"})),
        ),
    )
    rows = [("a", "b0", "c0", "d0"), ("a", "b0", "c0", "d1"), ("a", "b0", "c1", "d0")]
    rows += [("a", "b1", "c0", "d0")]
    rows += [("a", "b2", f"c{c}", "d0") for c in range(4)]
    rows += [("a", f"b{b}", "c0", f"d{d}") for b in (3, 4, 5) for d in range(2)]
    return Database.build(schema, {"R": rows}), fds


class TestSharedPowers:
    """A block raises a repeated child's row once per memo, for its full fold
    and its leave-one-out folds."""

    DPS = _DPS[MeasureKind.R]

    def test_values_and_folds_on_repeated_children(self):
        for n in (12, 13, 14, 15, 16, 18):
            db, fds = _repeated_children_instance(n)
            game = Game(db, fds, MeasureKind.R)
            assert game.values(db.facts) == shapley_bruteforce_all(
                db, fds, db.facts, MeasureKind.R
            ), n
            assert game._shapes.powers, n
            (unit,) = game.units("R")
            chain = game.classes[0]["R"]
            shapes = _Shapes(self.DPS)
            assert shapes.fold(unit) == _plain_fold(unit, self.DPS)
            for fact in unit.facts:
                fresh = build_tree([g for g in unit.facts if g != fact], chain, db.schema).root
                assert shapes.fold(unit, fact) == _plain_fold(fresh, self.DPS), (n, fact.id)
            assert shapes.powers, n

    def test_children_keeping_different_maxima(self):
        """Every (size, kept) count of the block, and of the block less one
        fact of each child, equals subset enumeration: its last k, the most
        its best child keeps, takes the binomial row C(n, j)."""
        db, fds = _uneven_block_instance()
        engine = CoalitionEvaluator(db, fds)
        (unit,) = Game(db, fds, MeasureKind.R).units("R")
        shapes = _Shapes(self.DPS)
        tops = [shapes.fold(child)[-1].index(1) for child in unit.children]
        assert sorted(tops) == [1, 1, 1, 1, 2, 4]
        outs = [None] + [child.facts[0] for child in unit.children]
        for out in outs:
            mask = engine.full_mask & ~(0 if out is None else 1 << engine.bit_of[out.id])
            bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
            want = [[0] * (j + 1) for j in range(len(bits) + 1)]
            for j in range(len(bits) + 1):
                for chosen in itertools.combinations(bits, j):
                    kept = j - engine.value(MeasureKind.R, sum(1 << i for i in chosen))
                    want[j][kept] += 1
            assert shapes.fold(unit, out) == want, out
        assert shapes.powers

    def test_folds_with_short_factors_by_shifts(self):
        """Ten children of ten facts: at the larger k the power's slot is
        wider than a row has coefficients (11), so the full and leave-one-out
        folds multiply it by shifts and adds."""
        db, fds = _repeated_children_instance(100, children=10)
        game = Game(db, fds, MeasureKind.R)
        (unit,) = game.units("R")
        shapes = _Shapes(self.DPS)
        assert shapes.fold(unit) == _plain_fold(unit, self.DPS)
        fact = unit.facts[0]
        fresh = build_tree(unit.facts[1:], game.classes[0]["R"], db.schema).root
        assert shapes.fold(unit, fact) == _plain_fold(fresh, self.DPS)
        assert max(width for width, _ in shapes.powers.values()) >= 11

    @staticmethod
    def _poison(shapes):
        """Add one to coefficient 0 of every power the memo holds."""
        for key, (width, power) in shapes.powers.items():
            shapes.powers[key] = (width, power + 1)

    def test_leave_one_out_fold_reads_the_full_folds_power(self):
        db, fds = _repeated_children_instance(16)
        (unit,) = Game(db, fds, MeasureKind.R).units("R")
        shapes = _Shapes(self.DPS)
        shapes.fold(unit)
        assert shapes.powers
        self._poison(shapes)
        fact = unit.facts[0]
        assert shapes.fold(unit, fact) != _plain_fold(unit, self.DPS, fact)

    def test_two_memos_share_no_power(self):
        db, fds = _repeated_children_instance(16)
        (unit,) = Game(db, fds, MeasureKind.R).units("R")
        first, second = _Shapes(self.DPS), _Shapes(self.DPS)
        first.fold(unit)
        self._poison(first)
        assert first.powers and not second.powers
        assert second.fold(unit) == _plain_fold(unit, self.DPS)
        for fact in unit.facts:
            assert second.fold(unit, fact) == _plain_fold(unit, self.DPS, fact), fact.id
        assert second.powers


class TestStepMemo:
    """A leave-one-out fold builds the key of each (shape, child shape, child
    less f) step once, however many facts walk it."""

    KINDS = TestLeaveOneOutFold.KINDS

    def test_block_keys_do_not_grow_with_the_block(self):
        """Every fact of one_block(k) walks the same steps, so `Game.values`
        interns as many non-leaf keys, and keeps as many steps, for every k."""
        keys, memos = {}, {}
        for k in (8, 16, 30):
            db, fds = build(instances.one_block(k))
            for kind in self.KINDS:
                game = Game(db, fds, kind)
                game.units("R")
                shapes, interned = game._shapes, []

                def counted(key, intern=shapes._intern):
                    interned.append(key[0] is not None)
                    return intern(key)

                shapes._intern = counted
                game.values(db.facts)
                keys[k, kind], memos[k, kind] = sum(interned), shapes
        assert len(set(keys.values())) == 1, keys
        assert len({len(shapes.steps) for shapes in memos.values()}) == 1

    def test_steps_are_bounded_by_the_tables(self):
        """The memory bound: on the 4000-fact ladder the step memo holds no
        more entries than the shape memo holds tables.  Keys and steps do not
        depend on the measure, and r's values take the least time."""
        db, fds = build(instances.ladder(4000))
        game = Game(db, fds, MeasureKind.R)
        game.values(db.facts)
        shapes = game._shapes
        assert 0 < len(shapes.steps) <= len(shapes.tables)


def _random_table(rng, size, rows):
    """A table of `size` facts with random 40-bit entries and entry 0 = 1:
    per-size counts, or (size, kept) rows when `rows`."""
    if rows:
        return [[1]] + [[rng.getrandbits(40) for _ in range(j + 1)] for j in range(1, size + 1)]
    return [1] + [rng.getrandbits(40) for _ in range(size)]


def _schoolbook(a, b):
    """The product of two coefficient lists by the double loop: no packing."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _schoolbook_join(a, b):
    """The join of two (size, kept) tables by four loops: sizes add and kept
    sizes add, with no packing."""
    out = [[0] * (j + 1) for j in range(len(a) + len(b) - 1)]
    for j1, row1 in enumerate(a):
        for k1, x in enumerate(row1):
            for j2, row2 in enumerate(b):
                for k2, y in enumerate(row2):
                    out[j1 + j2][k1 + k2] += x * y
    return out


def _coefficients(rng, length):
    """Zeros, small counts and 40-bit entries."""
    return [rng.choice((0, rng.randrange(1, 9), rng.getrandbits(40))) for _ in range(length)]


class TestPackedProducts:
    """Grouped children (one table per distinct child, with its multiplicity)
    against the pairwise kernels given one copy per child."""

    @staticmethod
    def _runs(rng, sizes, rows, most=3):
        """One to `most` distinct tables, each repeated 1 to 50 times, with
        entries of up to 40 bits: wider than 2^n for every table size n, so a
        slot width taken from sizes would overflow."""
        runs = [
            (_random_table(rng, rng.choice(sizes), rows), rng.randint(1, 50))
            for _ in range(rng.randint(1, most))
        ]
        return runs, [t for t, m in runs for _ in range(m)]

    # Multiplicities on both sides of the pairwise rule: three factors,
    # four distinct ones, and four with a repeat (the power path).
    EDGES = ((1, 1, 1), (1, 1, 1, 1), (2, 1, 1), (1, 3))

    def test_joins_equal_pairwise_products(self):
        rng = random.Random(1818)
        for trial in range(30):
            runs, expanded = self._runs(rng, (1, 2, 4), rows=False)
            assert _product(runs) == functools.reduce(_convolve, expanded), trial
        for trial in range(6):
            runs, expanded = self._runs(rng, (1,), rows=True, most=2)
            assert _product_rows(runs) == functools.reduce(_schoolbook_join, expanded), trial

    def test_products_on_both_sides_of_the_pairwise_rule(self):
        rng = random.Random(1823)
        pairwise = [sum(c) < _POWER_MIN or max(c) == 1 for c in self.EDGES]
        assert pairwise == [True, True, False, False]
        for counts in self.EDGES:
            for trial in range(4):
                for rows, kernel, product in (
                    (False, _schoolbook, _product),
                    (True, _schoolbook_join, _product_rows),
                ):
                    runs = [(_random_table(rng, rng.randint(1, 3), rows), m) for m in counts]
                    expanded = [t for t, m in runs for _ in range(m)]
                    assert product(runs) == functools.reduce(kernel, expanded), (counts, trial)

    def test_products_with_a_memo(self):
        """`_product(rows, {})` equals the schoolbook product, and the memo
        keeps a power only on the power path, for a run of three or more."""
        rng = random.Random(1824)
        for counts in self.EDGES + ((3, 1), (1, 1, 4), (2, 2), (5,)):
            for trial in range(4):
                runs = [(_random_table(rng, rng.randint(1, 4), False), m) for m in counts]
                want = functools.reduce(_schoolbook, (t for t, m in runs for _ in range(m)))
                powers = {}
                assert _product(runs, powers) == want, (counts, trial)
                power_path = sum(counts) >= _POWER_MIN and max(counts) > 1
                assert bool(powers) == (power_path and max(counts) >= 3), (counts, trial)
                assert _product(runs, powers) == want, (counts, trial)

    def test_convolve_equals_schoolbook_in_both_branches(self):
        rng = random.Random(1820)
        for trial in range(60):
            if trial % 2:  # the loop branch: under _KRONECKER_MIN coefficient products
                la = rng.randint(1, 15)
                lb = rng.randint(1, (_KRONECKER_MIN - 1) // la)
                assert la * lb < _KRONECKER_MIN
            else:  # the packed branch
                la = rng.randint(16, 40)
                lb = rng.randint(-(-_KRONECKER_MIN // la), 40)
                assert la * lb >= _KRONECKER_MIN
            a, b = _coefficients(rng, la), _coefficients(rng, lb)
            if trial % 7 == 0:
                a = [0] * la
            assert _convolve(a, b) == _schoolbook(a, b), trial

    def test_rounds_of_zero_to_five_factors(self):
        """The empty product is [1], a lone factor comes back as it is, and
        two to five factors, short or long enough to pack, equal the
        schoolbook product."""
        rng = random.Random(1825)
        assert _rounds([]) == [1]
        for n in range(1, 6):
            for trial in range(6):
                factors = [
                    _coefficients(rng, rng.choice((rng.randint(1, 7), rng.randint(16, 40))))
                    for _ in range(n)
                ]
                product = _rounds(factors)
                assert product == functools.reduce(_schoolbook, factors), (n, trial)
                if n == 1:
                    assert product is factors[0]

    def test_power_product_equals_schoolbook(self):
        rng = random.Random(1821)
        for trial in range(40):
            runs = [
                (_coefficients(rng, rng.randint(1, 7)), rng.randint(1, 8))
                for _ in range(rng.randint(1, 3))
            ]
            want = functools.reduce(_schoolbook, (t for t, m in runs for _ in range(m)))
            assert _power_product(runs) == want, trial
            assert _product(runs) == want, trial

    def test_power_product_at_slot_edges(self):
        """Largest coefficients just below, at and just above 2^(8w), for
        w = 1..9: a slot rounded down a byte or a word, or one that does not
        hold every factor (the zero factor makes the product zero), fails."""
        for w in range(1, 10):
            for x in (2 ** (8 * w) - 1, 2 ** (8 * w), 2 ** (8 * w) + 1):
                for runs in (
                    [([x], 1), ([1, 1, 1], 1)],  # the bound is x, the largest coefficient
                    [([x, 0, 1], 1), ([1, 1], 1)],
                    [([1, 0, 1], 1), ([x], 1), ([0, 1], 4)],
                    [([0], 1), ([x, 1], 3)],
                    [([x], 1), ([0], 2)],
                    [([x], 1)],
                ):
                    want = functools.reduce(_schoolbook, (t for t, m in runs for _ in range(m)))
                    assert _power_product(runs) == want, (w, x, runs)

    def test_power_product_of_many_copies(self):
        """Multiplicities up to 50, with zero and one-coefficient factors."""
        rng = random.Random(1822)
        for trial in range(40):
            runs = [
                (_coefficients(rng, rng.choice((1, 1, 2, 3))), rng.randint(1, 50))
                for _ in range(rng.randint(1, 3))
            ]
            if trial % 5 == 0:
                runs.append(([0] * rng.randint(1, 3), rng.randint(1, 3)))
            want = functools.reduce(_schoolbook, (t for t, m in runs for _ in range(m)))
            assert _power_product(runs) == want, trial
            assert _product(runs) == want, trial

    def test_power_product_of_the_64_fact_blocks_children(self):
        """The "kept <= k" rows of the two 32-fact children of the 64-fact
        block, for every k: squared, and as two factors."""
        db, fds = build(instances.one_block(16))
        (unit,) = Game(db, fds, MeasureKind.R).units("R")
        shapes = _Shapes(_DPS[MeasureKind.R])
        tables = [shapes.fold(child) for child in unit.children]
        assert [len(t) - 1 for t in tables] == [32, 32]
        for table in tables:
            cumulative = [list(accumulate(row)) for row in table]
            for k in range(33):
                part = [row[min(k, j)] for j, row in enumerate(cumulative)]
                want = _schoolbook(part, part)
                assert _power_product([(part, 2)]) == want, k
                assert _power_product([(part, 1), (part, 1)]) == want, k

    def test_packed_product_with_a_zero_factor(self, monkeypatch):
        """A one-fact subblock of a block of 300 facts empties when its fact
        is left out, so the block's mc DP multiplies [0] by 300 binomials:
        packed, with entries far wider than a slot sized from the zero
        factor.  Values match the loop-only products."""
        schema = Schema.from_dict({"R": ["A", "B", "C"]})
        rows = [("a0", "b0", f"c{i}") for i in range(299)] + [("a0", "b1", "c0")]
        db = Database.build(schema, {"R": rows})
        fds = FDSet(schema, (FD("R", frozenset("A"), frozenset("B")),))
        for kind in (MeasureKind.DRASTIC, MeasureKind.MC):
            packed = shapley_all(db, fds, db.facts, kind)
            assert sum(packed) == measure(kind, db, fds) - (kind is MeasureKind.MC)
            with monkeypatch.context() as m:
                m.setattr("incshap.exact._KRONECKER_MIN", float("inf"))
                assert shapley_all(db, fds, db.facts, kind) == packed, kind

    def test_blocks_equal_one_copy_per_child(self):
        rng = random.Random(1819)
        for block, rows, trials in (
            (_consistent_block, False, 30),
            (_repair_sum_block, False, 30),
            (_kept_block, True, 6),
        ):
            for trial in range(trials):
                runs, expanded = self._runs(rng, (1, 2), rows)
                n = sum(len(t) - 1 for t in expanded)
                assert block(n, runs) == block(n, [(t, 1) for t in expanded]), (trial, block)


def _factorial_weights(kind, fulls, needed):
    """The fold as first written: rest_B from prefix and suffix products, and
    W_B[j] = sum over i of rest_B[i] * (i+j)! (N-1-i-j)! over N!."""
    if kind is MeasureKind.R:
        rests = {u: [1] for u in needed}
    else:
        prefix = list(accumulate(fulls, _convolve, initial=[1]))
        suffix = list(accumulate(reversed(fulls), _convolve, initial=[1]))[::-1]
        rests = {u: _convolve(prefix[u], suffix[u + 1]) for u in needed}
    weights = {}
    for u, rest in rests.items():
        size = len(fulls[u]) - 1
        n = len(rest) - 1 + size
        scale = [factorial(m) * factorial(n - 1 - m) for m in range(n)]
        weights[u] = (
            [sum(r * scale[i + j] for i, r in enumerate(rest)) for j in range(size)],
            factorial(n),
        )
    return weights


class TestUnitWeights:
    """The weight fold (one product, exact division, small-integer scales)
    against the factorial fold it replaced, as exact rationals."""

    KINDS = (MeasureKind.DRASTIC, MeasureKind.MC, MeasureKind.R)

    @staticmethod
    def _sums(rng, size):
        """Unit sums with entry 0 = 1: zeros, small counts and 40-bit entries."""
        entries = (rng.choice((0, rng.randrange(1, 9), rng.getrandbits(40))) for _ in range(size))
        return [1, *entries]

    def _check(self, rng, kind, fulls):
        needed = set(rng.sample(range(len(fulls)), rng.randint(1, len(fulls))))
        got = _unit_weights(kind, fulls, needed)
        want = _factorial_weights(kind, fulls, needed)
        assert set(got) == needed
        for u in needed:
            (weight, denominator), (ref, ref_denominator) = got[u], want[u]
            assert len(weight) == len(ref) == len(fulls[u]) - 1
            assert [Fraction(w, denominator) for w in weight] == [
                Fraction(w, ref_denominator) for w in ref
            ]
            for _ in range(3):
                gain = [rng.choice((0, rng.randrange(-99, 100))) for _ in weight]
                value = Fraction(sum(w * g for w, g in zip(weight, gain)), denominator)
                assert value == Fraction(sum(w * g for w, g in zip(ref, gain)), ref_denominator)

    def test_equals_factorial_fold(self):
        rng = random.Random(2323)
        for trial in range(60):
            kind = self.KINDS[trial % 3]
            fulls = [self._sums(rng, rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
            self._check(rng, kind, fulls)

    def test_one_unit_units_of_size_one_and_zero_entries(self):
        rng = random.Random(2324)
        for kind in self.KINDS:
            self._check(rng, kind, [self._sums(rng, 4)])
            self._check(rng, kind, [[1, rng.randrange(3)] for _ in range(7)])
            self._check(rng, kind, [[1, 0, 0, 5], [1, 0], [1, 3, 0], [1, 0, 0, 0, 0]])

    def test_one_unit_folds_no_product(self, monkeypatch):
        """A lone unit's rest is [1]: no product and no division."""
        calls = []
        monkeypatch.setattr("incshap.exact._convolve", lambda *a: calls.append(a))
        monkeypatch.setattr("incshap.exact._power_product", lambda *a: calls.append(a))
        monkeypatch.setattr("incshap.exact._divide", lambda *a: calls.append(a))
        for kind in self.KINDS:
            _unit_weights(kind, [[1, 4, 6, 4, 1]], {0})
        assert not calls

    def test_division_round_trip(self):
        """q * d divided by d is q, then zeros, and a prefix of the dividend
        gives the same prefix of the quotient."""
        rng = random.Random(2325)
        for trial in range(40):
            bits = rng.choice((4, 60))
            quotient = [rng.choice((0, rng.getrandbits(bits))) for _ in range(rng.randint(1, 30))]
            divisor = [1] + [rng.choice((0, rng.getrandbits(20))) for _ in range(rng.randint(0, 6))]
            product = _convolve(quotient, divisor)
            whole = quotient + [0] * (len(divisor) - 1)
            assert _divide(product, divisor) == whole, trial
            k = rng.randint(0, len(product))
            assert _divide(product[:k], divisor) == whole[:k], trial


def _generator_sums(counts):
    """Summed repair costs per size, entry by entry: cost = size - kept."""
    return [sum((j - k) * c for k, c in enumerate(row)) for j, row in enumerate(counts)]


class TestSummedCosts:
    """`Game._sums` for r, from row totals, against the per-entry sum."""

    def test_random_tables(self):
        rng = random.Random(2326)
        db, fds = build(instances.one_block(1))
        game = Game(db, fds, MeasureKind.R)
        for trial in range(40):
            n = rng.randint(0, 12)
            table = []
            for j in range(n + 1):
                # A random split of the C(n, j) subsets of size j by kept size.
                cuts = sorted(rng.randint(0, comb(n, j)) for _ in range(j))
                table.append([b - a for a, b in zip([0, *cuts], [*cuts, comb(n, j)])])
            game._shapes.tables.append(table)
            assert game._sums(len(game._shapes.tables) - 1) == _generator_sums(table), trial

    def test_every_shape_of_a_game(self):
        rng = random.Random(2327)
        for trial in range(10):
            if trial < 3:
                db, fds = build(instances.one_block(rng.randint(1, 5)))
            else:
                db, fds = random_instance(rng, chain=True, n_max=14)
            game = Game(db, fds, MeasureKind.R)
            game.values(db.facts)
            for shape, table in enumerate(game._shapes.tables):
                assert game._sums(shape) == _generator_sums(table), (trial, shape)
