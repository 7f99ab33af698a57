"""Block/subblock tree construction."""

import itertools
import random

import pytest

from incshap import (
    Database,
    FDSet,
    Schema,
    build_conflict_graph,
    build_tree,
    classify,
    violates,
)
from incshap.block_tree import VertexKind
from incshap.errors import InputError

from conftest import random_chain_fds, random_rows


def _chain(fds, relation):
    return classify(fds)[relation].chain


def _ids(vertex):
    return [f.id for f in vertex.facts]


def test_trains_tree_structure(trains):
    db, fds = trains
    chain = _chain(fds, "Trains")
    base = [f for f in db.facts if f.id != "Trains:8"]
    tree = build_tree(base, chain, db.schema)

    assert tree.root.kind is VertexKind.ROOT
    assert len(tree.root.children) == 1  # all facts share train and time
    level1_block = tree.root.children[0]
    assert level1_block.kind is VertexKind.BLOCK and level1_block.size == 8
    groups = [_ids(c) for c in level1_block.children]
    assert groups == [
        ["Trains:0", "Trains:1"],
        ["Trains:2", "Trains:3", "Trains:4"],
        ["Trains:5", "Trains:6", "Trains:7"],
    ]
    bby = level1_block.children[2]
    level2 = [_ids(c) for c in bby.children]
    assert level2 == [["Trains:5", "Trains:6"], ["Trains:7"]]
    same_duration = bby.children[0]
    assert same_duration.kind is VertexKind.BLOCK
    assert [_ids(c) for c in same_duration.children] == [["Trains:5"], ["Trains:6"]]


def test_single_fact_chain_of_vertices(mini):
    db, fds = mini
    chain = _chain(fds, "R")
    tree = build_tree([db.facts[0]], chain, db.schema)
    kinds = [v.kind for v in tree.vertices()]
    assert kinds == [VertexKind.ROOT, VertexKind.BLOCK, VertexKind.SUBBLOCK]
    assert all(v.size == 1 for v in tree.vertices())


def test_empty_chain_gives_bare_root(mini):
    db, _ = mini
    tree = build_tree(db.facts, (), db.schema)
    assert tree.root.is_leaf and tree.root.size == 3


def test_non_chain_order_rejected(trains):
    db, fds = trains
    chain = _chain(fds, "Trains")
    with pytest.raises(InputError):
        build_tree(db.facts, tuple(reversed(chain)), db.schema)


def test_cross_subblock_pairs_violate_and_tree_is_deterministic():
    rng = random.Random(1001)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    for _ in range(30):
        fds = FDSet(schema, random_chain_fds(rng, "R"))
        db = Database.build(schema, {"R": random_rows(rng, rng.randint(2, 8))})
        chain = _chain(fds, "R")
        tree = build_tree(db.facts, chain, db.schema)
        again = build_tree(db.facts, chain, db.schema)
        assert tree.dump() == again.dump()
        for v in tree.vertices():
            if v.kind is not VertexKind.BLOCK:
                continue
            for c1, c2 in itertools.combinations(v.children, 2):
                for a in c1.facts:
                    for b in c2.facts:
                        assert violates(a, b, fds)


def test_every_violating_pair_shares_a_block():
    """Violating pairs always sit inside one block at the violated level."""
    rng = random.Random(1002)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    for _ in range(30):
        fds = FDSet(schema, random_chain_fds(rng, "R"))
        db = Database.build(schema, {"R": random_rows(rng, rng.randint(2, 8))})
        chain = _chain(fds, "R")
        tree = build_tree(db.facts, chain, db.schema)
        graph = build_conflict_graph(db, fds)["R"]
        blocks = [v for v in tree.vertices() if v.kind is VertexKind.BLOCK]
        for i, j in graph.edges:
            ids = {f"R:{i}", f"R:{j}"}
            assert any(ids <= set(_ids(b)) for b in blocks)
