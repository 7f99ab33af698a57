"""FD-set analysis: closures, minimal covers, lhs chains, and tractability.

The tractability classes drive which exact Shapley algorithms are allowed:
a chain-ordered minimal cover unlocks the tree dynamic programs, and the
attribute-elimination ("simplify") procedure separates FD sets with a
polynomial-time cardinality repair from the rest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterable

from .errors import InputError
from .relational import FD, FDSet, merge_lhs


class TractabilityKind(enum.Enum):
    LHS_CHAIN = "LhsChain"
    PTIME_CREPAIR_NO_CHAIN = "PTimeCRepairNoChain"
    HARD_CREPAIR = "HardCRepair"


@dataclass(frozen=True)
class TractabilityClass:
    kind: TractabilityKind
    chain: tuple[FD, ...] | None = None

    def __post_init__(self):
        if self.kind is TractabilityKind.LHS_CHAIN and self.chain is None:
            raise InputError("LhsChain classification requires the chain order")


def attribute_closure(
    attrs: Iterable[str], fds: Iterable[FD], universe: Iterable[str] | None = None
) -> frozenset[str]:
    """Least superset of `attrs` closed under the FDs (standard fixpoint)."""
    closure = set(attrs)
    fds = tuple(fds)
    if universe is not None:
        unknown = closure - set(universe)
        if unknown:
            raise InputError(f"unknown attributes {sorted(unknown)}")
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.lhs <= closure and not fd.rhs <= closure:
                closure |= fd.rhs
                changed = True
    return frozenset(closure)


def _single_relation(fds: Iterable[FD]) -> str | None:
    relations = {fd.relation for fd in fds}
    if len(relations) > 1:
        raise InputError("expected FDs over a single relation")
    return next(iter(relations)) if relations else None


def minimal_cover(fds: Iterable[FD]) -> tuple[FD, ...]:
    """Equivalent cover: no trivial FDs, extraneous lhs attributes, or
    redundant FDs; same-lhs FDs merged; deterministic output order.
    """
    fds = tuple(fds)
    relation = _single_relation(fds)
    if relation is None:
        return ()

    # Decompose to singleton right-hand sides, dropping trivial parts.
    work: list[tuple[frozenset[str], str]] = []
    for fd in sorted(fds, key=FD.sort_key):
        for b in sorted(fd.rhs - fd.lhs):
            if (fd.lhs, b) not in work:
                work.append((fd.lhs, b))

    def fd_objects(pairs):
        return tuple(FD(relation, lhs, frozenset({b})) for lhs, b in pairs)

    # Remove extraneous lhs attributes.
    work_fds = fd_objects(work)
    reduced: list[tuple[frozenset[str], str]] = []
    for lhs, b in work:
        current = set(lhs)
        for a in sorted(lhs):
            if a not in current:
                continue
            trial = frozenset(current - {a})
            if b in attribute_closure(trial, work_fds):
                current.discard(a)
        reduced.append((frozenset(current), b))
    reduced = list(dict.fromkeys(reduced))

    # Remove redundant FDs.
    kept = list(reduced)
    for pair in list(reduced):
        lhs, b = pair
        rest = [p for p in kept if p != pair]
        if b in attribute_closure(lhs, fd_objects(rest)):
            kept = rest

    return tuple(sorted(merge_lhs(fd_objects(kept)), key=FD.sort_key))


def lhs_chain_order(fds: Iterable[FD]) -> tuple[FD, ...] | None:
    """Ascending-lhs order when every lhs pair is inclusion-comparable, else None.

    Equal-lhs FDs are merged first; chain comparability concerns the lhs only.
    """
    fds = tuple(fds)
    if _single_relation(fds) is None:
        return ()
    chain = tuple(sorted(merge_lhs(fds), key=FD.sort_key))
    for a, b in zip(chain, chain[1:]):
        if not a.lhs <= b.lhs:
            return None
    return chain


def _remove_attributes(fds: tuple[FD, ...], attrs: frozenset[str]) -> tuple[FD, ...]:
    """Drop `attrs` from every FD, discarding FDs that become trivial."""
    out = []
    for fd in fds:
        lhs = fd.lhs - attrs
        rhs = fd.rhs - attrs - lhs
        if rhs:
            out.append(FD(fd.relation, lhs, rhs))
    return tuple(sorted(dict.fromkeys(out), key=FD.sort_key))


def _removable_candidates(fds: tuple[FD, ...]) -> list[frozenset[str]]:
    """Attribute sets worth trying as one side of a removable pair.

    Distinct left-hand sides cover pairings of actual FDs; the empty set with
    the closure of the empty set covers consensus-style FDs; the common lhs
    intersection (and its single attributes) covers shared-attribute removal.
    """
    candidates = {frozenset()}
    lhss = [fd.lhs for fd in fds]
    candidates.update(lhss)
    candidates.add(attribute_closure(frozenset(), fds))
    if lhss:
        common = frozenset.intersection(*lhss)
        candidates.add(common)
        candidates.update(frozenset({a}) for a in common)
    return sorted(candidates, key=lambda s: (len(s), tuple(sorted(s))))


def _is_removable(x: frozenset[str], y: frozenset[str], fds: tuple[FD, ...]) -> bool:
    if not (x | y):
        return False
    if attribute_closure(x, fds) != attribute_closure(y, fds):
        return False
    return all(x <= fd.lhs or y <= fd.lhs for fd in fds)


def _removable_pairs(fds: tuple[FD, ...]):
    candidates = _removable_candidates(fds)
    for x, y in combinations_with_replacement(candidates, 2):
        if _is_removable(x, y, fds):
            yield x, y


def simplify_step(fds: Iterable[FD]) -> tuple[FD, ...] | None:
    """One attribute-elimination step, or None when no removable pair exists.

    A pair (X, Y) is removable when X and Y have equal closures, X∪Y is
    non-empty, and every FD carries X or Y inside its lhs; the step deletes
    X∪Y from every FD and drops newly trivial FDs.  The pair search is
    deterministic: candidates in (size, lexicographic) order.
    """
    fds = tuple(sorted(dict.fromkeys(fds), key=FD.sort_key))
    _single_relation(fds)
    if not fds:
        return None
    for x, y in _removable_pairs(fds):
        return _remove_attributes(fds, x | y)
    return None


def _emptiable(fds: tuple[FD, ...], _memo: dict | None = None) -> bool:
    """Exhaustive search over removable-pair choices (no confluence assumed)."""
    if _memo is None:
        _memo = {}
    if not fds:
        return True
    key = fds
    if key in _memo:
        return _memo[key]
    _memo[key] = False  # cycle guard; steps strictly shrink the attribute set
    result = any(
        _emptiable(_remove_attributes(fds, x | y), _memo)
        for x, y in _removable_pairs(fds)
    )
    _memo[key] = result
    return result


def classify_relation(fds: Iterable[FD]) -> TractabilityClass:
    """Classification of one relation's FDs, computed on the minimal cover."""
    cover = minimal_cover(fds)
    chain = lhs_chain_order(cover)
    if chain is not None:
        return TractabilityClass(TractabilityKind.LHS_CHAIN, chain)
    if _emptiable(cover):
        return TractabilityClass(TractabilityKind.PTIME_CREPAIR_NO_CHAIN)
    return TractabilityClass(TractabilityKind.HARD_CREPAIR)


def classify(fds: FDSet) -> dict[str, TractabilityClass]:
    return {
        relation: classify_relation(fds.per_relation(relation))
        for relation in fds.schema.relation_names
    }
