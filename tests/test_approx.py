"""Permutation-sampling estimator: sample counts, determinism, coverage."""

import random
from fractions import Fraction

import pytest

from incshap import (
    ApproxParams,
    BudgetExceededError,
    Database,
    FD,
    FDSet,
    Guarantee,
    MeasureKind,
    Mode,
    Schema,
    CoalitionEvaluator,
    UnsupportedModeError,
    enumerate_repairs,
    estimate_all,
    estimate_shapley,
    sample_count,
    shapley_drastic,
)
import incshap.approx as approx
from incshap.approx import marginal_bound
from incshap.errors import InputError
from incshap.exact import Game
from incshap.oracle import shapley_bruteforce_all

import instances
from conftest import (
    build,
    random_chain_fds,
    random_instance,
    random_rows,
    random_two_relation_instance,
)


class TestSampleCount:
    def test_stated_formula_values(self):
        assert sample_count(ApproxParams(0.1, 0.05), 9, MeasureKind.DRASTIC) == 185
        assert sample_count(ApproxParams(0.5, 0.5), 9, MeasureKind.DRASTIC) == 3

    def test_override(self):
        params = ApproxParams(0.1, 0.05, samples_override=7)
        assert sample_count(params, 9, MeasureKind.DRASTIC) == 7

    def test_range_scales_counts(self):
        n = 9
        base = sample_count(ApproxParams(0.1, 0.05), n, MeasureKind.DRASTIC)
        mi = sample_count(ApproxParams(0.1, 0.05), n, MeasureKind.MI)
        assert mi > base
        assert marginal_bound(MeasureKind.MI, n) == n - 1
        assert marginal_bound(MeasureKind.P, n) == n

    def test_multiplicative_tightens_epsilon(self):
        n = 9
        additive = sample_count(ApproxParams(0.1, 0.05), n, MeasureKind.DRASTIC)
        multiplicative = sample_count(
            ApproxParams(0.1, 0.05, mode=Mode.MULTIPLICATIVE), n, MeasureKind.DRASTIC
        )
        assert multiplicative >= additive * (n * (n - 1)) ** 2 // 2

    def test_multiplicative_rejected_for_closed_form_measures(self):
        params = ApproxParams(0.1, 0.05, mode=Mode.MULTIPLICATIVE)
        for kind in (MeasureKind.MI, MeasureKind.P):
            with pytest.raises(UnsupportedModeError, match="exact"):
                sample_count(params, 9, kind)

    def test_invalid_params(self):
        with pytest.raises(InputError):
            ApproxParams(0.0, 0.5)
        with pytest.raises(InputError):
            ApproxParams(0.5, 1.0)
        with pytest.raises(InputError, match="sample-count override must be positive"):
            ApproxParams(0.5, 0.5, samples_override=0)


class TestEstimate:
    def test_deterministic_for_fixed_seed(self, mini):
        db, fds = mini
        params = ApproxParams(0.2, 0.2, seed=42)
        a = estimate_shapley(db, fds, db.facts[0], MeasureKind.DRASTIC, params)
        b = estimate_shapley(db, fds, db.facts[0], MeasureKind.DRASTIC, params)
        assert a == b

    def test_conflict_free_fact_is_exactly_zero(self, mini):
        db, fds = mini
        params = ApproxParams(0.3, 0.3, seed=1)
        for kind in MeasureKind:
            est = estimate_shapley(db, fds, db.facts[2], kind, params)
            assert est.value == 0

    def test_guarantees(self, mini):
        db, fds = mini
        fact = db.facts[0]
        add = estimate_shapley(db, fds, fact, MeasureKind.DRASTIC, ApproxParams(0.3, 0.3))
        assert add.guarantee is Guarantee.ADDITIVE
        mult = estimate_shapley(
            db, fds, fact, MeasureKind.DRASTIC, ApproxParams(0.3, 0.3, mode=Mode.MULTIPLICATIVE)
        )
        assert mult.guarantee is Guarantee.MULTIPLICATIVE
        mc = estimate_shapley(db, fds, fact, MeasureKind.MC, ApproxParams(0.3, 0.3))
        assert mc.guarantee is Guarantee.NO_GUARANTEE
        mc_mult = estimate_shapley(
            db, fds, fact, MeasureKind.MC, ApproxParams(0.3, 0.3, mode=Mode.MULTIPLICATIVE)
        )
        assert mc_mult.guarantee is Guarantee.NO_GUARANTEE

    def test_r_multiplicative_flagged_on_hard_class(self):
        schema = Schema.from_dict({"R": ["A", "B", "C"]})
        fds = FDSet(
            schema,
            (
                FD("R", frozenset({"A"}), frozenset({"C"})),
                FD("R", frozenset({"B"}), frozenset({"C"})),
            ),
        )
        db = Database.build(schema, {"R": [("a", "b", "1"), ("a", "c", "2")]})
        est = estimate_shapley(
            db,
            fds,
            db.facts[0],
            MeasureKind.R,
            ApproxParams(0.3, 0.3, mode=Mode.MULTIPLICATIVE),
        )
        assert est.guarantee is Guarantee.NO_GUARANTEE
        additive = estimate_shapley(db, fds, db.facts[0], MeasureKind.R, ApproxParams(0.3, 0.3))
        assert additive.guarantee is Guarantee.ADDITIVE
        # A hard relation that holds no facts leaves the claim in place.
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["A", "B", "C"]})
        fds = FDSet(
            schema,
            (
                FD("R", frozenset({"A"}), frozenset({"B"})),
                FD("S", frozenset({"A"}), frozenset({"C"})),
                FD("S", frozenset({"B"}), frozenset({"C"})),
            ),
        )
        db = Database.build(schema, {"R": [("a", "1"), ("a", "2")]})
        params = ApproxParams(0.1, 0.05, mode=Mode.MULTIPLICATIVE)
        estimates = estimate_all(db, fds, db.facts, MeasureKind.R, params)
        assert [e.guarantee for e in estimates] == [Guarantee.MULTIPLICATIVE] * 2

    def test_mean_is_exact_rational(self, mini):
        db, fds = mini
        est = estimate_shapley(
            db, fds, db.facts[0], MeasureKind.MI, ApproxParams(0.3, 0.3, samples_override=7)
        )
        assert isinstance(est.value, Fraction)
        assert est.samples_used == 7

    def test_budget_abort_names_coalition_size(self, trains):
        db, fds = trains
        params = ApproxParams(0.5, 0.5, seed=3)
        with pytest.raises(BudgetExceededError, match="coalition of size"):
            estimate_shapley(
                db, fds, db.facts[0], MeasureKind.R, params,
                engine=CoalitionEvaluator(db, fds, budget=1),
            )

    def test_empirical_coverage_small(self, mini):
        """Loose coverage check; the acceptance suite runs the full one."""
        db, fds = mini
        exact = shapley_drastic(db, fds, db.facts[0])
        hits = 0
        for seed in range(60):
            est = estimate_shapley(
                db, fds, db.facts[0], MeasureKind.DRASTIC, ApproxParams(0.1, 0.1, seed=seed)
            )
            hits += abs(est.value - exact) <= Fraction(1, 10)
        assert hits >= 50


def test_coverage_on_medium_chain_instance():
    rng = random.Random(990)
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    fds = FDSet(schema, random_chain_fds(rng, "R"))
    db = Database.build(schema, {"R": random_rows(rng, 12)})
    fact = db.facts[0]
    exact = shapley_drastic(db, fds, fact)
    hits = 0
    for seed in range(40):
        est = estimate_shapley(
            db, fds, fact, MeasureKind.DRASTIC, ApproxParams(0.1, 0.05, seed=seed)
        )
        hits += abs(est.value - exact) <= Fraction(1, 10)
    assert hits >= 36


def hard_instance(rng: random.Random, n: int):
    """A HardCRepair relation: A -> C and B -> C over random rows."""
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    fds = FDSet(
        schema,
        (
            FD("R", frozenset({"A"}), frozenset({"C"})),
            FD("R", frozenset({"B"}), frozenset({"C"})),
        ),
    )
    return Database.build(schema, {"R": random_rows(rng, n)}), fds


def referee_instances():
    rng = random.Random(606)
    instances = [random_instance(rng, chain=True) for _ in range(4)]
    instances += [random_two_relation_instance(rng) for _ in range(3)]
    instances += [hard_instance(rng, n) for n in (6, 9)]
    return instances


class TestSharedWalk:
    """One permutation walk per sample index gives the per-fact estimates."""

    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_estimate_all_equals_per_fact_additive(self, kind):
        for db, fds in referee_instances():
            params = ApproxParams(0.3, 0.2, seed=11)
            facts = list(db.facts)
            per_fact = [estimate_shapley(db, fds, f, kind, params) for f in facts]
            assert estimate_all(db, fds, facts, kind, params) == per_fact
            some = facts[1::2]
            assert estimate_all(db, fds, some, kind, params) == per_fact[1::2]

    @pytest.mark.parametrize("kind", list(MeasureKind))
    def test_estimate_all_equals_per_fact_override(self, kind):
        for db, fds in referee_instances():
            params = ApproxParams(0.1, 0.05, seed=3, samples_override=9)
            facts = list(db.facts)
            per_fact = [estimate_shapley(db, fds, f, kind, params) for f in facts]
            assert estimate_all(db, fds, facts, kind, params) == per_fact

    @pytest.mark.parametrize("kind", [MeasureKind.DRASTIC, MeasureKind.R])
    def test_estimate_all_equals_per_fact_multiplicative(self, kind):
        params = ApproxParams(0.9, 0.9, mode=Mode.MULTIPLICATIVE, seed=5)
        for db, fds in referee_instances()[::3]:
            facts = list(db.facts)
            per_fact = [estimate_shapley(db, fds, f, kind, params) for f in facts]
            assert estimate_all(db, fds, facts, kind, params) == per_fact

    def test_no_requested_fact(self, trains):
        schema = trains[0].schema
        params = ApproxParams(0.1, 0.05, samples_override=3)
        for kind in MeasureKind:
            assert estimate_all(*trains, [], kind, params) == []
            assert estimate_all(Database.build(schema, {}), trains[1], [], kind, params) == []

    def test_one_draw_per_sample_index(self, trains, monkeypatch):
        db, fds = trains
        draws = []
        real = approx._sample_rng

        def counting(seed, index):
            draws.append(index)
            return real(seed, index)

        monkeypatch.setattr(approx, "_sample_rng", counting)
        params = ApproxParams(0.1, 0.05, samples_override=7)
        for kind in MeasureKind:
            draws.clear()
            estimate_all(db, fds, list(db.facts), kind, params)
            assert draws == list(range(7))


@pytest.mark.parametrize("kind", list(MeasureKind))
def test_walk_matches_value_along_random_orders(kind):
    """The walk's marginals are those of ``value`` on a fresh evaluator.

    Each seed's one permutation requests the facts from a random start on:
    the walk adds the facts before it without reading their marginals, and
    each fact is one part step.  The walks of an instance share one
    evaluator, so later ones read memo entries that earlier ones left.
    """
    rng = random.Random(77)
    for db, fds in referee_instances():
        engine = CoalitionEvaluator(db, fds)
        referee = CoalitionEvaluator(db, fds)
        for seed in range(5):
            order = list(db.facts)
            approx._sample_rng(seed, 0).shuffle(order)
            start = rng.randrange(len(order))
            params = ApproxParams(0.1, 0.05, seed=seed, samples_override=1)
            estimates = estimate_all(db, fds, order[start:], kind, params, engine=engine)
            prefix = referee.mask_of(fact.id for fact in order[:start])
            before = referee.value(kind, prefix)
            for fact, estimate in zip(order[start:], estimates):
                prefix |= referee.mask_of([fact.id])
                after = referee.value(kind, prefix)
                assert estimate.value == after - before
                before = after


def test_shuffle_is_random_shuffle():
    """``_shuffle`` gives the permutation ``random.Random(seed).shuffle`` gives."""
    for length in range(131):
        for seed in range(200):
            ours, theirs = list(range(length)), list(range(length))
            approx._shuffle(random.Random(seed), ours, approx._shuffle_plan(length))
            random.Random(seed).shuffle(theirs)
            assert ours == theirs, (length, seed)


class _RecordingEvaluator(CoalitionEvaluator):
    """An evaluator that records the largest count any one node counter
    reaches, and the nodes that all its searches spend."""

    most = 0
    spent = 0

    def _spend(self, nodes, search):
        super()._spend(nodes, search)
        self.most = max(self.most, nodes[0])
        self.spent += 1


def _check_least_budget(trains, kind, search):
    """The largest single node count of an unbudgeted walk is the least budget that finishes it."""
    params = ApproxParams(0.1, 0.05, seed=0)
    for db, fds in (trains, build(instances.clustered(3))):
        facts = list(db.facts)
        recording = _RecordingEvaluator(db, fds)
        unbounded = estimate_all(db, fds, facts, kind, params, engine=recording)
        most = recording.most
        assert most >= 1
        bounded = CoalitionEvaluator(db, fds, budget=most)
        assert estimate_all(db, fds, facts, kind, params, engine=bounded) == unbounded
        with pytest.raises(
            BudgetExceededError,
            match=r"^measure evaluation aborted on a sampled coalition of size \d+: "
            rf"{search} exceeded the node budget of {most - 1}$",
        ):
            estimate_all(
                db, fds, facts, kind, params,
                engine=CoalitionEvaluator(db, fds, budget=most - 1),
            )


def test_sampled_r_spends_a_node_per_memo_miss(trains):
    _check_least_budget(trains, MeasureKind.R, "vertex-cover search")


def test_sampled_mc_spends_a_node_per_memo_miss(trains):
    _check_least_budget(trains, MeasureKind.MC, "repair enumeration")


@pytest.mark.parametrize(("kind", "spent", "most"), [(MeasureKind.R, 9856, 9), (MeasureKind.MC, 11905, 16)])
def test_walk_spends_the_recorded_nodes(kind, spent, most):
    """An unbudgeted walk of every fact on the 120 clustered facts misses
    the memos as often as the walk that kept the coalition as one mask of
    all facts, whose node counts these are (seed 0, epsilon 0.1, delta 0.05)."""
    db, fds = build(instances.clustered(10))
    recording = _RecordingEvaluator(db, fds)
    estimate_all(db, fds, list(db.facts), kind, ApproxParams(0.1, 0.05), engine=recording)
    assert (recording.spent, recording.most) == (spent, most)


@pytest.mark.parametrize(("kind", "budget"), [(MeasureKind.R, 10), (MeasureKind.MC, 16)])
def test_one_fact_walk_fits_the_budget_of_every_fact(kind, budget):
    """One fact's estimate walks from the empty coalition with join steps,
    as the estimate of every fact does, so a budget that finishes every
    fact's walk on the 120 clustered facts also finishes each fact alone,
    with that fact's value from the walk of every fact."""
    db, fds = build(instances.clustered(10))
    params = ApproxParams(0.1, 0.05)
    every = estimate_all(
        db, fds, list(db.facts), kind, params, engine=CoalitionEvaluator(db, fds, budget=budget)
    )
    for k in (0, 57, 119):
        fact = db.get(f"R:{k}")
        alone = estimate_shapley(
            db, fds, fact, kind, params, engine=CoalitionEvaluator(db, fds, budget=budget)
        )
        assert alone == every[db.facts.index(fact)]


@pytest.mark.parametrize("kind", [MeasureKind.R, MeasureKind.MC])
def test_value_reads_the_search_memos(kind):
    """After a sampled walk, ``value`` on every mask a search memo holds
    agrees with a fresh evaluator and spends no node, also on a mask that a
    search stored whole and whose connected parts were never searched."""
    db, fds = build(instances.clustered(3))
    engine = CoalitionEvaluator(db, fds)
    estimate_all(db, fds, list(db.facts), kind, ApproxParams(0.3, 0.05, seed=0), engine=engine)
    engine.budget = 0
    fresh = CoalitionEvaluator(db, fds)
    for comp in dict.fromkeys(engine.comp_of):
        memo = comp.vc_memo if kind is MeasureKind.R else comp.mis_memo
        # repair-count states that exclude nothing are keyed by the mask alone
        masks = [key << comp.offset for key in memo if key <= comp.full]
        assert masks
        for mask in masks:
            assert engine.value(kind, mask) == fresh.value(kind, mask)


@pytest.mark.parametrize("kind", [MeasureKind.R, MeasureKind.MC])
def test_total_after_the_oracle_spends_no_node(kind):
    """The oracle's table holds the whole relation, so the game's total on
    the same evaluator finds it searched."""
    db, fds = build(instances.clustered(1))
    game = Game(db, fds, kind)
    values = shapley_bruteforce_all(db, fds, list(db.facts), kind, engine=game.evaluator)
    game.evaluator.budget = 0
    total = game.total()
    assert total == CoalitionEvaluator(db, fds).value(kind, game.evaluator.full_mask)
    assert total - game.evaluator.value(kind, 0) == sum(values)


def _interleaved_instance(size: int):
    """The first ``size`` facts of two clusters, loaded alternately, so that
    the two conflict components interleave in load order."""
    db, fds = build(instances.clustered(2))
    rows = [fact.values for fact in db.facts]
    alternating = [row for pair in zip(rows[:size], rows[12 : 12 + size]) for row in pair]
    return Database.build(db.schema, {"R": alternating}), fds


def _reference_walk(db, fds, kind, params):
    """Mean marginals over the sampler's permutations of ``db.facts``, each
    prefix measured from scratch by ``value``."""
    engine = CoalitionEvaluator(db, fds)
    samples = sample_count(params, len(db), kind)
    totals = dict.fromkeys((fact.id for fact in db.facts), 0)
    for index in range(samples):
        order = list(db.facts)
        approx._sample_rng(params.seed, index).shuffle(order)
        prefix, before = [], engine.value(kind, 0)
        for fact in order:
            prefix.append(fact.id)
            after = engine.value(kind, engine.mask_of(prefix))
            totals[fact.id] += after - before
            before = after
    return [Fraction(totals[fact.id], samples) for fact in db.facts]


@pytest.mark.parametrize("kind", [MeasureKind.DRASTIC, MeasureKind.R, MeasureKind.MC])
@pytest.mark.parametrize("size", [5, 12])
def test_estimates_do_not_depend_on_bit_order(kind, size):
    """Interleaved components number their bits apart from load order; the
    walk still adds the facts in the order each seeded shuffle of the loaded
    facts gives."""
    db, fds = _interleaved_instance(size)
    assert CoalitionEvaluator(db, fds).facts != list(db.facts)
    for seed in (0, 1):
        params = ApproxParams(0.1, 0.05, seed=seed, samples_override=40)
        got = [est.value for est in estimate_all(db, fds, list(db.facts), kind, params)]
        assert got == _reference_walk(db, fds, kind, params)


def test_interleaved_repairs_are_listed_in_load_order():
    db, fds = _interleaved_instance(5)
    result = enumerate_repairs(db, fds)
    assert not result.truncated
    assert result.repairs == (
        ("R:0", "R:1", "R:2", "R:3", "R:6", "R:7"),
        ("R:0", "R:1", "R:2", "R:6", "R:7", "R:9"),
        ("R:0", "R:1", "R:3", "R:7", "R:8"),
        ("R:0", "R:1", "R:7", "R:8", "R:9"),
        ("R:0", "R:2", "R:3", "R:5", "R:6", "R:7"),
        ("R:0", "R:2", "R:5", "R:6", "R:7", "R:9"),
        ("R:0", "R:3", "R:5", "R:7", "R:8"),
        ("R:0", "R:5", "R:7", "R:8", "R:9"),
        ("R:1", "R:2", "R:3", "R:4", "R:6", "R:7"),
        ("R:1", "R:2", "R:4", "R:6", "R:7", "R:9"),
        ("R:1", "R:3", "R:4", "R:7", "R:8"),
        ("R:1", "R:4", "R:7", "R:8", "R:9"),
        ("R:2", "R:3", "R:4", "R:5", "R:6", "R:7"),
        ("R:2", "R:4", "R:5", "R:6", "R:7", "R:9"),
        ("R:3", "R:4", "R:5", "R:7", "R:8"),
        ("R:4", "R:5", "R:7", "R:8", "R:9"),
    )
