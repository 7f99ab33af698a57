"""Measure evaluation and repair enumeration."""

import gc
import random
import tracemalloc
import weakref

import pytest

from incshap import (
    ApproxParams,
    BudgetExceededError,
    CoalitionEvaluator,
    Database,
    FD,
    FDSet,
    MeasureKind,
    Schema,
    build_conflict_graph,
    enumerate_repairs,
    estimate_shapley,
    measure,
)
from incshap.errors import InputError
from incshap.measures import _parts

import instances
from conftest import build, random_arbitrary_fds, random_instance, random_rows


def test_trains_measures(trains):
    db, fds = trains
    assert measure(MeasureKind.DRASTIC, db, fds) == 1
    assert measure(MeasureKind.MI, db, fds) == 30
    assert measure(MeasureKind.P, db, fds) == 9
    assert measure(MeasureKind.R, db, fds) == 6
    assert measure(MeasureKind.MC, db, fds) == 5


def test_trains_repairs(trains):
    db, fds = trains
    result = enumerate_repairs(db, fds)
    assert not result.truncated
    assert result.repairs == (
        ("Trains:0", "Trains:1"),
        ("Trains:2", "Trains:3", "Trains:4"),
        ("Trains:5", "Trains:7"),
        ("Trains:6", "Trains:7"),
        ("Trains:8",),
    )


def test_empty_database_measures():
    schema = Schema.from_dict({"R": ["A", "B"]})
    db = Database(schema)
    fds = FDSet(schema, (FD("R", frozenset({"A"}), frozenset({"B"})),))
    for kind in (MeasureKind.DRASTIC, MeasureKind.MI, MeasureKind.P, MeasureKind.R):
        assert measure(kind, db, fds) == 0
    assert measure(MeasureKind.MC, db, fds) == 1


def test_consistent_database_repairs(mini):
    db, fds = mini
    consistent = Database.build(db.schema, {"R": [("a", "1"), ("b", "2")]})
    result = enumerate_repairs(consistent, fds)
    assert result.repairs == (("R:0", "R:1"),)


def test_mini_repairs(mini):
    db, fds = mini
    result = enumerate_repairs(db, fds)
    assert result.repairs == (("R:0", "R:2"), ("R:1", "R:2"))


def test_repair_cap_truncates(trains):
    db, fds = trains
    result = enumerate_repairs(db, fds, cap=2)
    assert result.truncated
    assert len(result.repairs) == 2


def _brute_measures(db, fds, rng_unused=None):
    """Reference values via full repair enumeration."""
    result = enumerate_repairs(db, fds, cap=100000)
    assert not result.truncated
    sizes = [len(r) for r in result.repairs]
    return len(result.repairs), len(db) - max(sizes) if sizes else 0


def test_measures_agree_with_repair_enumeration():
    rng = random.Random(31)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    for _ in range(40):
        fds = FDSet(schema, random_arbitrary_fds(rng, "R"))
        db = Database.build(schema, {"R": random_rows(rng, rng.randint(1, 7))})
        mc, r_cost = _brute_measures(db, fds)
        assert measure(MeasureKind.MC, db, fds) == mc
        assert measure(MeasureKind.R, db, fds) == r_cost
        zero = measure(MeasureKind.MI, db, fds) == 0
        assert (measure(MeasureKind.DRASTIC, db, fds) == 0) == zero
        assert (measure(MeasureKind.P, db, fds) == 0) == zero
        assert (mc == 1) == zero


def test_additivity_across_relations():
    rng = random.Random(32)
    schema = Schema.from_dict({"R": ["A", "B", "C"], "S": ["X", "Y", "Z"]})
    for _ in range(20):
        fds_r = random_arbitrary_fds(rng, "R")
        fds_s = random_arbitrary_fds(rng, "S", attrs=("X", "Y", "Z"))
        rows_r = random_rows(rng, rng.randint(1, 5))
        rows_s = random_rows(rng, rng.randint(1, 5))
        both = Database.build(schema, {"R": rows_r, "S": rows_s})
        only_r = Database.build(schema, {"R": rows_r})
        only_s = Database.build(schema, {"S": rows_s})
        fds = FDSet(schema, fds_r + fds_s)
        for kind in (MeasureKind.MI, MeasureKind.P, MeasureKind.R):
            assert measure(kind, both, fds) == measure(kind, only_r, fds) + measure(
                kind, only_s, fds
            )
        assert measure(MeasureKind.MC, both, fds) == measure(
            MeasureKind.MC, only_r, fds
        ) * measure(MeasureKind.MC, only_s, fds)
        assert measure(MeasureKind.DRASTIC, both, fds) == max(
            measure(MeasureKind.DRASTIC, only_r, fds),
            measure(MeasureKind.DRASTIC, only_s, fds),
        )


def test_monotone_under_insertion():
    rng = random.Random(33)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    for _ in range(25):
        fds = FDSet(schema, random_arbitrary_fds(rng, "R"))
        rows = random_rows(rng, 6)
        smaller = Database.build(schema, {"R": rows[:-1]})
        larger = Database.build(schema, {"R": rows})
        for kind in (
            MeasureKind.DRASTIC,
            MeasureKind.MI,
            MeasureKind.P,
            MeasureKind.R,
        ):
            assert measure(kind, smaller, fds) <= measure(kind, larger, fds)


def test_budget_abort(matching_constraint, trains):
    """A budget bounds the searches without an lhs chain, and only those."""
    db, fds = matching_constraint
    with pytest.raises(BudgetExceededError):
        measure(MeasureKind.R, db, fds, budget=1)
    with pytest.raises(BudgetExceededError):
        measure(MeasureKind.MC, db, fds, budget=1)
    db, fds = trains
    assert measure(MeasureKind.R, db, fds, budget=1) == measure(MeasureKind.R, db, fds) == 6
    assert measure(MeasureKind.MC, db, fds, budget=1) == measure(MeasureKind.MC, db, fds) == 5


def test_negative_budget_rejected(trains):
    db, fds = trains
    with pytest.raises(InputError, match="non-negative"):
        CoalitionEvaluator(db, fds, budget=-1)
    with pytest.raises(InputError, match="non-negative"):
        measure(MeasureKind.MC, db, fds, budget=-5)
    with pytest.raises(InputError, match="non-negative"):
        estimate_shapley(
            db, fds, db.facts[0], MeasureKind.R, ApproxParams(0.1, 0.05),
            engine=CoalitionEvaluator(db, fds, budget=-5),
        )
    assert CoalitionEvaluator(db, fds, budget=0).budget == 0


def test_unknown_kind_is_an_input_error(trains):
    with pytest.raises(InputError, match="unknown measure kind 'r'"):
        CoalitionEvaluator(*trains).value("r", 1)


def test_evaluator_freed_without_cycle_collection(trains):
    """Repair enumeration leaves no reference cycle through the evaluator."""
    db, fds = trains
    gc.disable()
    try:
        engine = CoalitionEvaluator(db, fds)
        assert engine.value(MeasureKind.MC, engine.full_mask) > 1
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()


def _count_test_instances():
    """Seeded instances of 4 to 16 facts under arbitrary FDs, with the submasks to check.

    Instances of at most 9 facts give every submask; larger ones a seeded sample.
    """
    rng = random.Random(34)
    for _ in range(30):
        db, fds = random_instance(rng, chain=False, n_min=4, n_max=16)
        n = len(db)
        masks = range(1 << n) if n <= 9 else [rng.getrandbits(n) for _ in range(150)]
        yield db, fds, masks


def _component_parts(engine, masks):
    """(component, connected part) for each connected part of each mask."""
    for mask in masks:
        for comp in dict.fromkeys(engine.comp_of):
            for part in _parts(comp.adj, mask >> comp.offset & comp.full):
                yield comp, part


def test_repair_count_equals_enumeration():
    """The memoized counter agrees with the enumerating generator on every connected part.

    One evaluator serves all submasks of an instance, so later counts hit
    memo entries that earlier parts left behind.
    """
    for db, fds, masks in _count_test_instances():
        engine = CoalitionEvaluator(db, fds)
        for mask in masks:
            expected = 1
            for comp, part in _component_parts(engine, [mask]):
                expected *= sum(1 for _ in engine._extend_mis(comp, 0, part, 0, [0]))
            assert engine.value(MeasureKind.MC, mask) == expected
        assert engine.value(MeasureKind.MC, engine.full_mask) == len(enumerate_repairs(db, fds).repairs)


def test_repair_count_fits_the_enumeration_budget():
    """A count never needs more nodes than the enumeration of the same connected part.

    Every node of the budget is a memo miss, and every memo miss is a node.
    """
    for db, fds, masks in _count_test_instances():
        engine = CoalitionEvaluator(db, fds)
        parts = {(comp.offset, part) for comp, part in _component_parts(engine, list(masks)[:40])}
        for offset, part in sorted(parts):
            nodes = [0]
            expected = sum(1 for _ in engine._extend_mis(engine.comp_of[offset], 0, part, 0, nodes))
            bounded = CoalitionEvaluator(db, fds, budget=nodes[0])
            assert bounded.value(MeasureKind.MC, part << offset) == expected
            spent = [0]
            assert bounded._count_mis(bounded.comp_of[offset], part, 0, spent) == expected
            assert spent == [0]
            fresh = CoalitionEvaluator(db, fds)
            fresh._count_mis(fresh.comp_of[offset], part, 0, spent)
            assert spent[0] == len(fresh.comp_of[offset].mis_memo) <= nodes[0]
            if part.bit_count() > 1:  # a connected part with an edge
                with pytest.raises(
                    BudgetExceededError, match="^repair enumeration exceeded the node budget of 0$"
                ):
                    CoalitionEvaluator(db, fds, budget=0).value(MeasureKind.MC, part << offset)


def test_the_empty_set_is_one_cover_memo_entry():
    """A cover search that empties its mask spends a node on the empty set
    only the first time, whichever component the search is in."""
    schema = Schema.from_dict({"R": ["A", "B"]})
    fds = FDSet(schema, (FD("R", frozenset({"A"}), frozenset({"B"})),))
    db = Database.build(schema, {"R": [("a", "1"), ("a", "2"), ("b", "1"), ("b", "2")]})
    with pytest.raises(
        BudgetExceededError, match="^vertex-cover search exceeded the node budget of 1$"
    ):
        bounded = CoalitionEvaluator(db, fds, budget=1)
        bounded.value(MeasureKind.R, bounded.mask_of(["R:0", "R:1"]))
    engine = CoalitionEvaluator(db, fds, budget=2)
    assert engine.value(MeasureKind.R, engine.mask_of(["R:0", "R:1"])) == 1
    engine.budget = 1
    assert engine.value(MeasureKind.R, engine.mask_of(["R:2", "R:3"])) == 1


def _components_within(graph, facts) -> list[frozenset[str]]:
    """The connected components of ``graph`` restricted to ``facts``, as fact-id sets."""
    inside = {fact.index for fact in facts}
    components = []
    while inside:
        component, frontier = set(), [inside.pop()]
        while frontier:
            i = frontier.pop()
            component.add(i)
            frontier += graph.neighbors(i) & inside
            inside -= graph.neighbors(i)
        components.append(frozenset(graph.facts[i].id for i in component))
    return components


def test_parts_are_the_conflict_graph_components(trains):
    """On random masks, ``_parts`` partitions each component's local mask
    into the connected components of the conflict graph restricted to it."""
    rng = random.Random(35)
    for db, fds in (trains, build(instances.clustered(3))):
        engine = CoalitionEvaluator(db, fds)
        (graph,) = build_conflict_graph(db, fds).values()
        n = len(db)
        for mask in [rng.getrandbits(n) for _ in range(200)] + [engine.full_mask]:
            parts = []
            for comp in engine._components:
                local = mask >> comp.offset & comp.full
                found = _parts(comp.adj, local)
                union = 0
                for part in found:
                    assert part and not part & union
                    union |= part
                assert union == local
                parts += [part << comp.offset for part in found]
            got = [frozenset(engine.facts[b].id for b in engine._bits(p)) for p in parts]
            facts = [engine.facts[b] for b in engine._bits(mask)]
            expected = _components_within(graph, facts)
            assert len(got) == len(expected) and set(got) == set(expected)


def test_cost_searches_only_the_parts_not_stored(trains):
    """``_cost`` on a two-part mask whose one part a search has stored
    spends the nodes of a search of the other part alone.

    The referee searches the stored part first too, on a counter of its
    own, so both evaluators share the empty set's memo entry when the
    other part is searched."""
    rng = random.Random(36)
    for db, fds in (trains, build(instances.clustered(3))):
        for number, comp in enumerate(CoalitionEvaluator(db, fds)._components):
            split = [m for m in range(1, comp.full + 1) if len(_parts(comp.adj, m)) == 2]
            assert split
            for local in rng.sample(split, min(len(split), 20)):
                stored, other = _parts(comp.adj, local)[:: rng.choice((1, -1))]
                engine, referee = CoalitionEvaluator(db, fds), CoalitionEvaluator(db, fds)
                ours, theirs = engine._components[number], referee._components[number]
                engine._vc(ours, stored)
                referee._vc(theirs, stored)
                nodes, expected = [0], [0]
                cost = engine._cost(ours, local, nodes)
                assert cost == ours.vc_memo[stored] + referee._vc(theirs, other, expected)
                assert nodes == expected


def _region_test_instances():
    """Seeded instances of at most 10 facts: arbitrary FDs, then A -> C, B -> C."""
    rng = random.Random(512)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    hard = FDSet(
        schema,
        (
            FD("R", frozenset({"A"}), frozenset({"C"})),
            FD("R", frozenset({"B"}), frozenset({"C"})),
        ),
    )
    instances = [random_instance(rng, chain=False, n_min=6, n_max=10) for _ in range(6)]
    instances += [(Database.build(schema, {"R": random_rows(rng, n)}), hard) for n in (8, 10)]
    return rng, instances


def test_region_step_equals_direct_evaluation():
    """``part_value`` on each connected part matches ``value`` on a fresh evaluator.

    Each connected part is valued as the step that joins each of its facts
    i to the rest, given the measure of the part less i.  Every such call
    runs twice on one evaluator, from a cold memo and then warm; the
    expected values come from a separate evaluator, so only part steps fill
    the memos under test.  Afterwards the warmed evaluator still agrees
    with a fresh one on random masks.
    """
    rng, instances = _region_test_instances()
    for db, fds in instances:
        n = len(db)
        referee = CoalitionEvaluator(db, fds)
        engine = CoalitionEvaluator(db, fds)
        steps = []  # (component, connected local mask, local fact)
        for comp in dict.fromkeys(engine.comp_of):
            for part in range(1, comp.full + 1):
                if list(_parts(comp.adj, part)) == [part]:
                    steps += [(comp, part, i) for i in engine._bits(part)]
        rng.shuffle(steps)
        for kind in MeasureKind:
            for _ in range(2):
                for comp, part, i in steps:
                    old = referee.value(kind, (part & ~(1 << i)) << comp.offset)
                    got = engine.part_value(kind, comp, part, i, old)
                    assert got == referee.value(kind, part << comp.offset)
        fresh = CoalitionEvaluator(db, fds)
        for mask in [rng.getrandbits(n) for _ in range(40)] + [engine.full_mask]:
            for kind in MeasureKind:
                assert engine.value(kind, mask) == fresh.value(kind, mask)


def _interleaved_relations(rng: random.Random):
    """R(A,B,C) and S(X,Y,Z) under random FDs, some with an empty lhs, and
    T(U,V) without FDs, their facts loaded in a random interleaving."""
    schema = Schema.from_dict({"R": ["A", "B", "C"], "S": ["X", "Y", "Z"], "T": ["U", "V"]})
    s_fds = random_arbitrary_fds(rng, "S", ("X", "Y", "Z"))
    if rng.random() < 0.5:
        s_fds += (FD("S", frozenset(), frozenset({"Z"})),)
    fds = FDSet(schema, random_arbitrary_fds(rng, "R") + s_fds)
    rows = {
        "R": random_rows(rng, rng.randint(0, 12)),
        "S": random_rows(rng, rng.randint(0, 8), domain="0123"),
        "T": random_rows(rng, rng.randint(0, 4), width=2),
    }
    built = Database.build(schema, rows)
    lists = [list(built.facts_of(r)) for r in schema.relation_names]
    facts = []
    while any(lists):
        facts.append(rng.choice([fs for fs in lists if fs]).pop(0))
    return Database(schema, tuple(facts)), fds


def _graph_components(db, fds) -> list[list[str]]:
    """The connected components of ``build_conflict_graph`` as fact ids, in
    the order of their first fact in load order, each in load order."""
    graphs = build_conflict_graph(db, fds)
    component: dict[str, str] = {}  # each fact's first fact of its component
    for fact in db.facts:
        if fact.id in component:
            continue
        graph, frontier = graphs[fact.relation], [fact.index]
        component[fact.id] = fact.id
        while frontier:
            for j in graph.neighbors(frontier.pop()):
                if graph.facts[j].id not in component:
                    component[graph.facts[j].id] = fact.id
                    frontier.append(j)
    members: dict[str, list[str]] = {}
    for fact in db.facts:
        members.setdefault(component[fact.id], []).append(fact.id)
    return list(members.values())


def test_components_are_the_conflict_graph_components():
    """The evaluator numbers its bits one connected component of the
    conflict graphs at a time, components by first fact and facts in load
    order, and each local mask holds the fact's neighbours."""
    rng = random.Random(31)
    for _ in range(60):
        db, fds = _interleaved_relations(rng)
        engine = CoalitionEvaluator(db, fds)
        expected = _graph_components(db, fds)
        order = [fid for ids in expected for fid in ids]
        assert [fact.id for fact in engine.facts] == order
        assert engine.bit_of == {fid: i for i, fid in enumerate(order)}
        comps = list(dict.fromkeys(engine.comp_of))
        assert [len(ids) for ids in expected] == [comp.size for comp in comps]
        graphs = build_conflict_graph(db, fds)
        for comp in comps:
            facts = engine.facts[comp.offset : comp.offset + comp.size]
            local = {fact.index: j for j, fact in enumerate(facts)}
            graph = graphs[facts[0].relation]
            assert comp.adj == [
                sum(1 << local[k] for k in graph.neighbors(fact.index)) for fact in facts
            ]


def test_evaluator_memory_is_linear():
    """Building the evaluator on 4000 shuffled ladder facts (A -> B, AC -> D,
    A from 400 values) peaks below 1000 traced bytes per fact.  Components
    found from partner masks on load-order bits held n-bit sums for every
    fact: a 7.1 MB peak here, 1768 bytes per fact."""
    db, fds = build(instances.ladder(4000))
    tracemalloc.start()
    try:
        CoalitionEvaluator(db, fds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * len(db)
