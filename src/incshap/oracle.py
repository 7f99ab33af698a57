"""Normative brute-force Shapley computation for small instances.

Two exact, algebraically equal routes are the ground truth for every other
algorithm: the weighted sum over all coalitions and the average marginal
over all permutations.  A call is one pass that evaluates each coalition or
permutation once for all requested facts, and only through
``CoalitionEvaluator.value``, never the sampler's ``value_with``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

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
    """Exact values of ``facts``, in order.  Subsets: with w(m) = m!(n-1-m)!, each
    coalition T counts w(|T|-1)·v(T) for the facts in T and -w(|T|)·v(T) for the
    others, summed by size.  Perms: each walk carries the prefix value from the
    first requested fact to the last.  A prebuilt ``engine`` shares its memos."""
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
    totals = {engine.bit_of[fact.id]: 0 for fact in facts}
    if form == "subsets":
        by_size = [0] * (n + 1)  # Σ v(T) over the coalitions T of each size
        inside = {i: [0] * (n + 1) for i in totals}  # the same over T containing i
        for mask in range(1 << n):
            value = engine.value(kind, mask)
            if value:
                m = mask.bit_count()
                by_size[m] += value
                for i, row in inside.items():
                    if mask >> i & 1:
                        row[m] += value
        w = [factorial(m) * factorial(n - m - 1) for m in range(n)] + [0]
        for i, row in inside.items():
            totals[i] = sum(w[m - 1] * row[m] - w[m] * (by_size[m] - row[m]) for m in range(n + 1))
    else:
        for perm in permutations(range(n)):
            mask, prefix, pending = 0, None, len(totals)
            for i in perm:
                if prefix is None and i in totals:
                    prefix = engine.value(kind, mask)
                mask |= 1 << i
                if prefix is None:
                    continue
                value = engine.value(kind, mask)
                if i in totals:
                    totals[i] += value - prefix
                    pending -= 1
                    if not pending:
                        break
                prefix = value
    return [Fraction(totals[engine.bit_of[fact.id]], factorial(n)) for fact in facts]


def shapley_bruteforce_subsets(
    db: Database, fds: FDSet, fact: Fact, kind: MeasureKind,
    limits: OracleLimits = DEFAULT_LIMITS, engine: CoalitionEvaluator | None = None,
) -> Fraction:
    """Exact weighted sum over every coalition: the one-fact subsets pass."""
    return shapley_bruteforce_all(db, fds, [fact], kind, "subsets", limits, engine)[0]


def shapley_bruteforce_perms(
    db: Database, fds: FDSet, fact: Fact, kind: MeasureKind,
    limits: OracleLimits = DEFAULT_LIMITS, engine: CoalitionEvaluator | None = None,
) -> Fraction:
    """Exact average marginal contribution over all |D|! permutations."""
    return shapley_bruteforce_all(db, fds, [fact], kind, "perms", limits, engine)[0]
