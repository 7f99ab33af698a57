"""Closures, minimal covers, chain orders, simplify, and classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incshap import (
    Database,
    FD,
    FDSet,
    Schema,
    TractabilityClass,
    TractabilityKind,
    attribute_closure,
    classify,
    classify_relation,
    is_consistent,
    lhs_chain_order,
    minimal_cover,
    simplify_step,
)
from incshap.errors import InputError
from incshap.fd_analysis import _emptiable
from incshap.relational import merge_lhs

from conftest import random_arbitrary_fds, random_chain_fds, random_rows


def fd(relation, lhs, rhs):
    return FD(relation, frozenset(lhs), frozenset(rhs))


TRAIN_FDS = (
    fd("T", {"train", "time"}, {"departs"}),
    fd("T", {"train", "time", "duration"}, {"arrives"}),
)


class TestClosure:
    def test_two_applications(self):
        fds = (fd("R", {"A"}, {"B"}), fd("R", {"B"}, {"A"}))
        assert attribute_closure({"A"}, fds) == {"A", "B"}

    def test_empty_set_stays_empty(self):
        assert attribute_closure(set(), (fd("R", {"A"}, {"B"}),)) == frozenset()

    def test_trains_prefix(self):
        assert attribute_closure({"train", "time"}, TRAIN_FDS) == {
            "train",
            "time",
            "departs",
        }

    def test_unknown_attribute(self):
        with pytest.raises(InputError):
            attribute_closure({"Z"}, TRAIN_FDS, universe={"train", "time"})


class TestMinimalCover:
    def test_redundant_fd_removed(self):
        redundant = TRAIN_FDS + (fd("T", {"train", "time", "arrives"}, {"departs"}),)
        assert minimal_cover(redundant) == minimal_cover(TRAIN_FDS)

    def test_trivial_fd_removed(self):
        assert minimal_cover((fd("R", {"A"}, {"A"}),)) == ()

    def test_same_lhs_merged(self):
        cover = minimal_cover((fd("R", {"A"}, {"B"}), fd("R", {"A"}, {"C"})))
        assert cover == (fd("R", {"A"}, {"B", "C"}),)

    def test_deterministic_order(self):
        fds = (fd("R", {"A", "B"}, {"C"}), fd("R", {"A"}, {"B"}))
        assert minimal_cover(fds) == minimal_cover(tuple(reversed(fds)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cover_is_equivalent(self, seed):
        """Same consistent subsets under the cover, on small random databases."""
        rng = random.Random(seed)
        schema = Schema.from_dict({"R": ["A", "B", "C"]})
        raw = random_arbitrary_fds(rng, "R")
        cover = minimal_cover(raw)
        rows = random_rows(rng, 6)
        for _ in range(8):
            chosen = [r for r in rows if rng.random() < 0.6]
            db = Database.build(schema, {"R": chosen})
            assert is_consistent(db, FDSet(schema, raw)) == is_consistent(
                db, FDSet(schema, cover)
            )


class TestChainOrder:
    def test_trains_chain(self):
        chain = lhs_chain_order(minimal_cover(TRAIN_FDS))
        assert [sorted(f.lhs) for f in chain] == [
            ["time", "train"],
            ["duration", "time", "train"],
        ]

    def test_matching_constraint_has_no_chain(self):
        fds = minimal_cover((fd("R", {"A"}, {"B"}), fd("R", {"B"}, {"A"})))
        assert lhs_chain_order(fds) is None

    def test_empty(self):
        assert lhs_chain_order(()) == ()

    def test_ascending_inclusion(self):
        rng = random.Random(7)
        for _ in range(50):
            chain = lhs_chain_order(minimal_cover(random_chain_fds(rng, "R")))
            assert chain is not None
            for a, b in zip(chain, chain[1:]):
                assert a.lhs <= b.lhs


class TestSimplify:
    def test_matching_constraint_empties_in_one_step(self):
        assert simplify_step((fd("R", {"A"}, {"B"}), fd("R", {"B"}, {"A"}))) == ()

    def test_hard_pair_has_no_removable_pair(self):
        assert simplify_step((fd("R", {"A"}, {"C"}), fd("R", {"B"}, {"C"}))) is None

    def test_consensus_fd(self):
        assert simplify_step((fd("R", set(), {"A"}),)) == ()

    def test_empty_input(self):
        assert simplify_step(()) is None


class TestClassify:
    def test_trains(self, trains):
        _, fds = trains
        assert classify(fds)["Trains"].kind is TractabilityKind.LHS_CHAIN

    def test_matching_constraint(self, matching_constraint):
        _, fds = matching_constraint
        assert classify(fds)["R"].kind is TractabilityKind.PTIME_CREPAIR_NO_CHAIN

    def test_hard(self):
        schema = Schema.from_dict({"R": ["A", "B", "C"]})
        fds = FDSet(schema, (fd("R", {"A"}, {"C"}), fd("R", {"B"}, {"C"})))
        assert classify(fds)["R"].kind is TractabilityKind.HARD_CREPAIR

    def test_malformed_inputs_rejected(self):
        with pytest.raises(InputError, match="LhsChain classification requires the chain order"):
            TractabilityClass(TractabilityKind.LHS_CHAIN)
        with pytest.raises(InputError, match="expected FDs over a single relation"):
            classify_relation((fd("R", {"A"}, {"B"}), fd("S", {"A"}, {"B"})))

    def test_no_fds_is_chain(self):
        schema = Schema.from_dict({"R": ["A"]})
        cls = classify(FDSet(schema, ()))["R"]
        assert cls.kind is TractabilityKind.LHS_CHAIN
        assert cls.chain == ()

    def test_invariant_under_cover(self):
        rng = random.Random(99)
        for _ in range(60):
            raw = random_arbitrary_fds(rng, "R")
            assert classify_relation(raw).kind is classify_relation(minimal_cover(raw)).kind

    def test_chain_sets_are_always_emptiable(self):
        """No chain-ordered FD set may end up classified as hard."""
        rng = random.Random(4242)
        for _ in range(80):
            cover = minimal_cover(random_chain_fds(rng, "R"))
            assert lhs_chain_order(cover) is not None
            assert _emptiable(cover)


def test_merge_lhs_keeps_first_fd_order_and_unions_rhs():
    fds = (
        fd("R", {"B"}, {"C"}),
        fd("R", {"A"}, {"B"}),
        fd("R", {"B"}, {"D"}),
        fd("R", set(), {"A"}),
        fd("R", {"A"}, {"B", "E"}),
    )
    assert merge_lhs(fds) == (
        fd("R", {"B"}, {"C", "D"}),
        fd("R", {"A"}, {"B", "E"}),
        fd("R", set(), {"A"}),
    )
    assert merge_lhs(fds[:2]) == fds[:2]
    assert merge_lhs(()) == ()
