"""Permutation-sampling estimator with explicit (epsilon, delta) contracts.

Additive mode draws enough permutations for a two-sided Hoeffding bound at
the measure's marginal range; multiplicative mode (drastic and repair-cost
only) tightens epsilon by the gap bound 1/(n*(n-1)) below which nonzero
values cannot fall.  Sampling is deterministic given the seed: each sample
index uses its own generator keyed by SHA-256(seed:index), so results are
independent of how sample indices are scheduled.

One permutation per sample index serves every requested fact, whose
marginal is value(prefix + f) - value(prefix) for the prefix of facts
before it; ``CoalitionEvaluator.walk`` walks the permutation and sums
them.  A permutation shuffles the facts in load order, whatever bits the
evaluator gives them, by the Fisher-Yates loop of ``random.shuffle``,
whose steps and draw widths an estimate lists once for all its samples.  A
fact's marginals do not depend on which other facts are requested, so
estimating facts together or one at a time gives identical values.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, UnsupportedModeError
from .fd_analysis import TractabilityKind, classify_relation
from .measures import CoalitionEvaluator, MeasureKind
from .relational import Database, Fact, FDSet


class Mode(enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


class Guarantee(enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"
    NO_GUARANTEE = "none"


@dataclass(frozen=True)
class ApproxParams:
    epsilon: float
    delta: float
    mode: Mode = Mode.ADDITIVE
    seed: int = 0
    samples_override: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise InputError("epsilon must lie strictly in (0, 1)")
        if not 0 < self.delta < 1:
            raise InputError("delta must lie strictly in (0, 1)")
        if self.samples_override is not None and self.samples_override < 1:
            raise InputError("sample-count override must be positive")


@dataclass(frozen=True)
class Estimate:
    value: Fraction
    samples_used: int
    guarantee: Guarantee


def marginal_bound(kind: MeasureKind, n: int) -> int | None:
    """Largest possible per-permutation contribution, or None when unbounded.

    Adding one fact flips the drastic flag or raises the repair cost by at
    most one; it can create up to n-1 new violating pairs, or make up to n
    facts (itself included) newly problematic.  The repair count can jump
    by an amount exponential in n, so it carries no usable bound.
    """
    return {
        MeasureKind.DRASTIC: 1,
        MeasureKind.R: 1,
        MeasureKind.MI: max(n - 1, 1),
        MeasureKind.P: max(n, 1),
        MeasureKind.MC: None,
    }[kind]


def _hoeffding_count(epsilon: float, delta: float, value_range: int) -> int:
    return math.ceil(value_range**2 * math.log(2 / delta) / (2 * epsilon**2))


def sample_count(params: ApproxParams, n: int, kind: MeasureKind) -> int:
    """Permutations needed for the requested guarantee on an n-fact database."""
    if params.samples_override is not None:
        return params.samples_override
    epsilon = params.epsilon
    if params.mode is Mode.MULTIPLICATIVE:
        if kind in (MeasureKind.MI, MeasureKind.P):
            raise UnsupportedModeError(
                f"multiplicative mode is unsupported for {kind.value!r}; "
                "an exact polynomial algorithm exists; use --method exact"
            )
        if kind is not MeasureKind.MC and n >= 2:
            epsilon /= n * (n - 1)
    # The repair count has unbounded marginals and no known multiplicative
    # scheme: it runs the additive budget for range 1 with no guarantee.
    return _hoeffding_count(epsilon, params.delta, marginal_bound(kind, n) or 1)


def _guarantee(params: ApproxParams, kind: MeasureKind, db, fds) -> Guarantee:
    if kind is MeasureKind.MC or params.samples_override is not None:
        return Guarantee.NO_GUARANTEE
    if params.mode is Mode.ADDITIVE:
        return Guarantee.ADDITIVE
    if kind is MeasureKind.R:
        # The sampled bound still holds, but repair-cost marginals on a
        # hard-classified relation holding facts are themselves
        # exponential-time in the worst case, so the polynomial
        # multiplicative claim is dropped.
        holding = filter(db.facts_of, db.schema.relation_names)
        kinds = {classify_relation(fds.per_relation(r)).kind for r in holding}
        if TractabilityKind.HARD_CREPAIR in kinds:
            return Guarantee.NO_GUARANTEE
    return Guarantee.MULTIPLICATIVE


def _sample_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _shuffle_plan(n: int) -> list[tuple[int, int]]:
    """The Fisher-Yates steps of ``random.shuffle`` on n items: each position
    i from the last down to 1, with the bit width of its draw."""
    return [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]


def _shuffle(rng: random.Random, x: list, plan: list[tuple[int, int]]) -> None:
    """Shuffle ``x`` in place as ``rng.shuffle(x)`` does, by the steps
    ``_shuffle_plan(len(x))`` gives.

    The Fisher-Yates loop and the rejection rule of CPython's
    ``random.shuffle``, on ``getrandbits``: the same draws give the same
    permutation, without a method call per draw.
    """
    getrandbits = rng.getrandbits
    for i, k in plan:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def estimate_all(
    db: Database,
    fds: FDSet,
    facts: Sequence[Fact],
    kind: MeasureKind,
    params: ApproxParams,
    engine: CoalitionEvaluator | None = None,
) -> list[Estimate]:
    """Mean marginal contribution of each of ``facts`` over seeded permutations.

    Deterministic given (inputs, params, seed).  Each returned value is the
    exact rational mean of the sampled integer marginals, and equals what
    ``estimate_shapley`` returns for that fact alone.  A node budget rides
    on ``engine``; without one, an unbounded evaluator is built.
    """
    db.require(facts)
    n = len(db)
    samples = sample_count(params, n, kind)
    guarantee = _guarantee(params, kind, db, fds)
    if engine is None:
        engine = CoalitionEvaluator(db, fds)
    totals = dict.fromkeys((engine.bit_of[fact.id] for fact in facts), 0)
    # Shuffling moves positions, not values: the facts come in the same
    # order whatever bit each one has.
    order_template = [engine.bit_of[fact.id] for fact in db.facts]
    plan = _shuffle_plan(n)
    bound = marginal_bound(kind, n)
    for index in range(samples):
        order = order_template[:]
        _shuffle(_sample_rng(params.seed, index), order, plan)
        engine.walk(kind, order, totals, bound)
    return [
        Estimate(
            value=Fraction(totals[engine.bit_of[fact.id]], samples),
            samples_used=samples,
            guarantee=guarantee,
        )
        for fact in facts
    ]


def estimate_shapley(
    db: Database,
    fds: FDSet,
    fact: Fact,
    kind: MeasureKind,
    params: ApproxParams,
    engine: CoalitionEvaluator | None = None,
) -> Estimate:
    """Mean marginal contribution of one fact; see ``estimate_all``."""
    return estimate_all(db, fds, [fact], kind, params, engine=engine)[0]
