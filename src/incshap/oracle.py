"""Normative brute-force Shapley computation for small instances.

Two exact, algebraically equal routes are the ground truth for every other
algorithm: the weighted sum over all coalitions and the average marginal
over all permutations.  A call evaluates each of the 2^n coalitions once,
only through ``CoalitionEvaluator.value`` (never the sampler's part
steps), into one table of 2^n ints; both routes are arithmetic over that
table for all requested facts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, cycle, permutations
from math import factorial
from operator import mul

from .errors import InputError, OracleLimitError
from .measures import CoalitionEvaluator, MeasureKind
from .relational import Database, Fact, FDSet


@dataclass(frozen=True)
class OracleLimits:
    max_facts_subsets: int = 18
    max_facts_perms: int = 8

    def __post_init__(self):
        if self.max_facts_subsets <= 0 or self.max_facts_perms <= 0:
            raise InputError("oracle limits must be positive")


DEFAULT_LIMITS = OracleLimits()


def shapley_bruteforce_all(
    db: Database, fds: FDSet, facts: Sequence[Fact], kind: MeasureKind, form: str = "subsets",
    limits: OracleLimits = DEFAULT_LIMITS, engine: CoalitionEvaluator | None = None,
) -> list[Fraction]:
    """Exact values of ``facts``, in order.

    One table holds v(T) for each of the 2^n coalitions T, so a call keeps
    2^n ints in memory, and both forms only read it.  Subsets: for each
    requested fact i, gains[m] sums v(T + i) - v(T) over the size-m
    coalitions T without i, and n!·value = Σ_m m!(n-1-m)!·gains[m].  Perms:
    every permutation adds v(prefix + i) - v(prefix) to each requested i.
    A prebuilt ``engine`` shares its memos."""
    if form == "subsets":
        limit, limit_name = limits.max_facts_subsets, "subset-enumeration"
    elif form == "perms":
        limit, limit_name = limits.max_facts_perms, "permutation-enumeration"
    else:
        raise InputError(f"oracle form must be 'subsets' or 'perms', got {form!r}")
    db.require(facts)
    if not facts:
        return []
    n = len(db)
    if n > limit:
        raise OracleLimitError(
            f"database has {n} facts, above the {limit_name} limit of {limit}"
        )
    if engine is None:
        engine = CoalitionEvaluator(db, fds)
    values = [engine.value(kind, mask) for mask in range(1 << n)]
    totals = {engine.bit_of[fact.id]: 0 for fact in facts}
    if form == "subsets":
        w = [factorial(m) * factorial(n - 1 - m) for m in range(n)]
        for i in totals:
            bit, gains = 1 << i, [0] * n
            # the masks without bit i: runs of `bit` masks in, `bit` out
            for mask in compress(range(1 << n), cycle((True,) * bit + (False,) * bit)):
                gains[mask.bit_count()] += values[mask | bit] - values[mask]
            totals[i] = sum(map(mul, w, gains))
    else:
        for perm in permutations(range(n)):
            mask = 0
            for i in perm:
                if i in totals:
                    totals[i] += values[mask | 1 << i] - values[mask]
                mask |= 1 << i
    return [Fraction(totals[engine.bit_of[fact.id]], factorial(n)) for fact in facts]


def shapley_bruteforce_subsets(
    db: Database, fds: FDSet, fact: Fact, kind: MeasureKind,
    limits: OracleLimits = DEFAULT_LIMITS, engine: CoalitionEvaluator | None = None,
) -> Fraction:
    """Exact weighted sum over every coalition: the one-fact subsets pass."""
    return shapley_bruteforce_all(db, fds, [fact], kind, "subsets", limits, engine)[0]
