"""Exact Shapley values for the five measures: closed forms and chain DPs.

Everything here is exact rational arithmetic (stdlib fractions); no floats.

The pair-count and problematic-fact measures are direct closed forms in
conflict degree, read off one adjacency of the fact's relation (facts of
other relations never conflict with it, so they are null players):

* pair count: the count is a sum over conflict edges of two-player
  unanimity games, each split evenly, so Sh_MI(f) = deg(f)/2.
* problematic-fact count: the count is a sum over facts g of the game
  "g is present with a conflict partner".  f earns its own game when a
  partner precedes it, and the game of each partner g when g precedes f
  and f is g's first partner to arrive, so
  Sh_P(f) = deg(f)/(deg(f)+1) + sum over g in N(f) of 1/(deg(g)(deg(g)+1)).

Only the drastic, repair-cost, and repair-count measures use per-size
expectations: with uniform random size-m subsets D' of D minus f,

    value(f) = (1/|D|) * sum over m of E[I(D' + f)] - E[I(D')].

Those expectations are computed bottom-up over the block/subblock tree of
a set of facts, as integer tables per subset size:

* drastic: count of size-j subsets that are consistent.  A block's subset
  is consistent iff it sits inside one subblock child (facts of different
  subblocks pairwise violate the block's FD); a subblock's children never
  conflict, so their counts convolve.
* repair cost: count of size-j subsets whose minimum deletion cost is t.
  Inside a block the best child part is kept and the rest deleted, so the
  cost of a combined subset is min(w1 + j2, w2 + j1); across a subblock's
  children costs add.
* repair count: sum of repair counts over size-j subsets.  Inside a block
  every repair lives in a single non-empty child part, so child sums add
  against free choices elsewhere, with the empty subset contributing its
  one (empty) repair; across a subblock's children repair counts multiply.

Dividing a table entry by C(n, j) recovers the probability or expectation;
the integer form keeps the convolutions exact and cheap.

Every DP is fact-free: it tabulates one fact set, and the tables "with f"
follow from two of them.  A size-(j+1) subset of D_r either leaves f out or
is S + f with |S| = j, so with[j] = full[j+1] - without[j+1], where full is
the table of D_r and without that of D_r - f.  The identity holds entry by
entry for all three tables (for consistent counts too, since
C(n, j+1) - C(n-1, j+1) = C(n-1, j)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from typing import Sequence

from .block_tree import BlockTree, Vertex, VertexKind, build_tree
from .errors import InputError, IntractableExactError
from .fd_analysis import TractabilityKind, classify_relation
from .measures import MeasureKind
from .relational import Database, Fact, FDSet, build_conflict_graph


# ---------------------------------------------------------------------------
# Generic combinators


def shapley_eq1_combine(
    per_m_with: Sequence[Fraction], per_m_without: Sequence[Fraction], n: int
) -> Fraction:
    """Average of per-size expectation gaps: (1/n) * sum(with[m] - without[m])."""
    if len(per_m_with) != n or len(per_m_without) != n:
        raise InputError(
            f"expected {n} per-size expectations, got "
            f"{len(per_m_with)} and {len(per_m_without)}"
        )
    total = sum((w - wo for w, wo in zip(per_m_with, per_m_without)), Fraction(0))
    return total / n


def _require_member(db: Database, fact: Fact) -> None:
    if fact not in db:
        raise InputError(f"fact {fact.id} is not in the database")


# ---------------------------------------------------------------------------
# Closed forms: violating-pair count and problematic-fact count


def _adjacency(db: Database, fds: FDSet, fact: Fact) -> dict[int, frozenset[int]]:
    _require_member(db, fact)
    return build_conflict_graph(db, fds)[fact.relation].adjacency


def shapley_mi(db: Database, fds: FDSet, fact: Fact) -> Fraction:
    """Attribution under the violating-pair count: half the conflict degree."""
    return Fraction(len(_adjacency(db, fds, fact)[fact.index]), 2)


def shapley_p(db: Database, fds: FDSet, fact: Fact) -> Fraction:
    """Attribution under the problematic-fact count (facts in any violation).

    deg(f)/(deg(f)+1) plus 1/(deg(g)(deg(g)+1)) for every conflict partner g.
    """
    adjacency = _adjacency(db, fds, fact)
    partners = adjacency[fact.index]
    deg = len(partners)
    return Fraction(deg, deg + 1) + sum(
        Fraction(1, len(adjacency[g]) * (len(adjacency[g]) + 1)) for g in partners
    )


# ---------------------------------------------------------------------------
# Size-indexed tables over the block/subblock tree


@dataclass(frozen=True)
class SizeIndexedTable:
    """Per-subset-size values over one tree's facts (one relation's base set).

    variant "violating": counts[j] = number of size-j subsets violating the
    FDs.
    variant "repair_sum": counts[j] = summed repair count over size-j
    subsets, i.e. the expectation numerator over C(size, j).
    variant "cost": counts[j][t] = number of size-j subsets whose
    cardinality-repair cost is t.

    A with-fact table counts every size-j subset S of the base set as
    S + f for the external fact f.
    """

    size: int
    variant: str
    counts: tuple

    def expectation(self, j: int) -> Fraction:
        total = comb(self.size, j)
        if self.variant in ("violating", "repair_sum"):
            return Fraction(self.counts[j], total)
        if self.variant == "cost":
            return Fraction(sum(t * c for t, c in enumerate(self.counts[j])), total)
        raise ValueError(f"unknown table variant {self.variant!r}")

    def expectations(self) -> list[Fraction]:
        return [self.expectation(j) for j in range(self.size + 1)]


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _binomials(n: int) -> list[int]:
    return [comb(n, j) for j in range(n + 1)]


# -- drastic: consistent-subset counts


def _consistent_block(n: int, children: list[list[int]]) -> list[int]:
    """Consistent subsets of a block lie inside a single subblock child."""
    table = [1] + [0] * n
    for child in children:
        for j in range(1, len(child)):
            table[j] += child[j]
    return table


# -- repair count: summed repair counts


def _spread(child: list[int], total_size: int) -> list[int]:
    """Weigh one child's non-empty per-size sums by free choices among the other facts."""
    table = [0] * (total_size + 1)
    rest = total_size - (len(child) - 1)
    for jc in range(1, len(child)):
        if not child[jc]:
            continue
        for j in range(jc, jc + rest + 1):
            table[j] += child[jc] * comb(rest, j - jc)
    return table


def _repair_sum_block(n: int, children: list[list[int]]) -> list[int]:
    """Summed repair counts of a block from its subblock children's.

    Each repair of a non-empty block subset lives in one non-empty child
    part, so child sums add against free choices in the rest of the block;
    the empty subset carries its one (empty) repair.
    """
    table = [1] + [0] * n
    for child in children:
        for j, x in enumerate(_spread(child, n)):
            table[j] += x
    return table


# -- repair cost: per-(size, cost) subset counts


def _cost_leaf(n: int) -> list[list[int]]:
    return [[comb(n, j)] + [0] * j for j in range(n + 1)]


def _cost_convolve(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    na, nb = len(a) - 1, len(b) - 1
    out = [[0] * (j + 1) for j in range(na + nb + 1)]
    for j1 in range(na + 1):
        for t1 in range(j1 + 1):
            x = a[j1][t1]
            if not x:
                continue
            for j2 in range(nb + 1):
                for t2 in range(j2 + 1):
                    y = b[j2][t2]
                    if y:
                        out[j1 + j2][t1 + t2] += x * y
    return out


def _cost_block_merge(acc: list[list[int]], child: list[list[int]]) -> list[list[int]]:
    """Merge one more subblock child into a block's accumulated cost table.

    A combined subset keeps the cheaper side: cost = min(w1 + j2, w2 + j1)
    with (j1, w1) the child part's size and cost and (j2, w2) the
    accumulated side's.  For a fixed total t the winning side's cost is
    pinned (w1 = t - j2 or w2 = t - j1) and the losing side sums over its
    compatible range, strictly above the threshold on one side so ties are
    counted exactly once.
    """
    na, nc = len(acc) - 1, len(child) - 1
    n = na + nc
    child_suffix = [[sum(child[j][w:]) for w in range(j + 2)] for j in range(nc + 1)]
    acc_suffix = [[sum(acc[j][w:]) for w in range(j + 2)] for j in range(na + 1)]
    out = [[0] * (j + 1) for j in range(n + 1)]
    for j in range(n + 1):
        for t in range(j + 1):
            total = 0
            for j1 in range(max(0, j - na), min(j, nc) + 1):
                j2 = j - j1
                w1 = t - j2  # child side wins (ties included)
                if 0 <= w1 <= j1:
                    lo = max(0, t - j1)
                    if lo <= j2:
                        total += child[j1][w1] * acc_suffix[j2][lo]
                w2 = t - j1  # accumulated side wins strictly
                if 0 <= w2 <= j2:
                    lo = max(0, t - j2 + 1)
                    if lo <= j1:
                        total += child_suffix[j1][lo] * acc[j2][w2]
            out[j][t] = total
    return out


# -- one bottom-up pass per tree, and the with-fact identity

# Per measure: the table of a leaf of n facts (they agree on every
# constrained attribute), of a block of n facts from its subblock children's
# tables, and of two fact sets that never conflict (the children of a
# subblock or of the root).
_DPS = {
    MeasureKind.DRASTIC: (_binomials, _consistent_block, _convolve),
    MeasureKind.MC: (_binomials, _repair_sum_block, _convolve),
    MeasureKind.R: (
        _cost_leaf,
        lambda n, children: reduce(_cost_block_merge, children),
        _cost_convolve,
    ),
}


def _root_table(tree: BlockTree, kind: MeasureKind) -> SizeIndexedTable:
    leaf, block, join = _DPS[kind]

    def fold(v: Vertex) -> list:
        if v.is_leaf:
            return leaf(v.size)
        children = [fold(c) for c in v.children]
        if v.kind is VertexKind.BLOCK:
            return block(v.size, children)
        return reduce(join, children)

    n = tree.root.size
    counts = fold(tree.root)
    if kind is MeasureKind.DRASTIC:
        return SizeIndexedTable(n, "violating", tuple(comb(n, j) - c for j, c in enumerate(counts)))
    if kind is MeasureKind.MC:
        return SizeIndexedTable(n, "repair_sum", tuple(counts))
    return SizeIndexedTable(n, "cost", tuple(tuple(row) for row in counts))


def _containing_fact(full: SizeIndexedTable, without: SizeIndexedTable) -> SizeIndexedTable:
    """Table of S + f over the base set, from the tables over base + f and base.

    A size-(j+1) subset of base + f either leaves f out or is S + f with
    |S| = j, so entry j is full[j+1] - without[j+1] (no subset of the base
    set has size |base| + 1).  Cost rows subtract entry by entry; S + f
    never costs j + 1, so the row's last entry is 0 and is dropped.
    """
    if full.variant == "cost":
        later = without.counts[1:] + ((0,) * (full.size + 1),)
        counts = tuple(
            tuple(a - b for a, b in zip(row, other))[:-1]
            for row, other in zip(full.counts[1:], later)
        )
    else:
        later = without.counts[1:] + (0,)
        counts = tuple(a - b for a, b in zip(full.counts[1:], later))
    return SizeIndexedTable(without.size, full.variant, counts)


def _tables(tree: BlockTree, kind: MeasureKind, fact: Fact | None) -> SizeIndexedTable:
    table = _root_table(tree, kind)
    if fact is None:
        return table
    if fact in tree.root.facts:
        raise InputError(f"external fact {fact.id} is already one of the tree's facts")
    full = build_tree(tree.root.facts + (fact,), tree.chain, tree.schema)
    return _containing_fact(_root_table(full, kind), table)


def drastic_tables(tree: BlockTree, fact: Fact | None = None) -> SizeIndexedTable:
    """Root table of violating-subset counts (with or without an external fact)."""
    return _tables(tree, MeasureKind.DRASTIC, fact)


def mc_tables(tree: BlockTree, fact: Fact | None = None) -> SizeIndexedTable:
    """Root table of summed repair counts (with or without an external fact)."""
    return _tables(tree, MeasureKind.MC, fact)


def r_tables(tree: BlockTree, fact: Fact | None = None) -> SizeIndexedTable:
    """Root table of per-(size, cost) subset counts (with or without an external fact)."""
    return _tables(tree, MeasureKind.R, fact)


# ---------------------------------------------------------------------------
# Per-relation assembly and multi-relation combination


def _chain_for(fds: FDSet, relation: str) -> tuple:
    cls = classify_relation(fds.per_relation(relation))
    if cls.kind is not TractabilityKind.LHS_CHAIN:
        raise IntractableExactError(
            f"relation {relation!r} has no lhs chain up to equivalence "
            f"({cls.kind.value}); exact computation refused: "
            + IntractableExactError.suggestion
        )
    return cls.chain


def _relation_tables(
    db: Database, fds: FDSet, relation: str, kind: MeasureKind, fact: Fact | None
) -> tuple[SizeIndexedTable, SizeIndexedTable]:
    """(without, with) root tables over one relation's base set.

    The base set excludes `fact` when it belongs to this relation; the
    with-table then comes from the tables over the relation with and
    without the fact, otherwise both are the same object.
    """
    chain = _chain_for(fds, relation)
    facts = db.facts_of(relation)
    full = _root_table(build_tree(facts, chain, db.schema), kind)
    if fact is None:
        return full, full
    base = [g for g in facts if g.id != fact.id]
    without = _root_table(build_tree(base, chain, db.schema), kind)
    return without, _containing_fact(full, without)


def multi_relation_combine(
    kind: MeasureKind,
    per_relation_tables: Sequence[SizeIndexedTable],
    sizes: Sequence[int] | None = None,
) -> list[Fraction]:
    """Combine per-relation root tables into whole-database expectations.

    Returns E[I(random size-m subset)] for every m over the union of the
    base sets.  Facts of different relations never conflict, so
    consistent-subset counts (drastic) and summed repair counts (repair
    count) convolve; a single relation passes through unchanged.  The
    pair-count, problematic-fact, and repair-cost measures are additive
    over relations with null players outside the fact's relation, so they
    are computed on one relation and never combined here.
    """
    tables = list(per_relation_tables)
    if sizes is not None and list(sizes) != [t.size for t in tables]:
        raise InputError("declared sizes do not match the tables")
    if kind is MeasureKind.DRASTIC:
        counts = [
            [comb(t.size, j) - t.counts[j] for j in range(t.size + 1)] for t in tables
        ]
    elif kind is MeasureKind.MC:
        counts = [list(t.counts) for t in tables]
    else:
        raise InputError(
            f"measure {kind.value!r} is additive over relations; "
            "no table combination applies"
        )
    total = [1]
    for c in counts:
        total = _convolve(total, c)
    n = sum(t.size for t in tables)
    if kind is MeasureKind.DRASTIC:
        return [1 - Fraction(total[m], comb(n, m)) for m in range(n + 1)]
    return [Fraction(total[m], comb(n, m)) for m in range(n + 1)]


def _tree_based_shapley(
    db: Database, fds: FDSet, fact: Fact, kind: MeasureKind
) -> Fraction:
    relations = list(db.schema.relation_names)
    pairs = [
        _relation_tables(db, fds, r, kind, fact if r == fact.relation else None)
        for r in relations
    ]
    without = multi_relation_combine(kind, [p[0] for p in pairs])
    with_f = multi_relation_combine(kind, [p[1] for p in pairs])
    n = len(db)
    return shapley_eq1_combine(with_f[:n], without[:n], n)


def shapley_drastic(db: Database, fds: FDSet, fact: Fact) -> Fraction:
    """Attribution under the 0/1 inconsistency indicator (lhs chains only)."""
    _require_member(db, fact)
    return _tree_based_shapley(db, fds, fact, MeasureKind.DRASTIC)


def shapley_mc(db: Database, fds: FDSet, fact: Fact) -> Fraction:
    """Attribution under the repair count (lhs chains only)."""
    _require_member(db, fact)
    return _tree_based_shapley(db, fds, fact, MeasureKind.MC)


def shapley_r(db: Database, fds: FDSet, fact: Fact) -> Fraction:
    """Attribution under cardinality-repair cost, on the fact's relation.

    The cost is additive over relations and a fact is a null player in
    every other relation's summand, so the value over the whole database
    equals the value computed within the fact's relation (which must have
    an lhs chain up to equivalence).
    """
    _require_member(db, fact)
    without_t, with_t = _relation_tables(db, fds, fact.relation, MeasureKind.R, fact)
    n = len(db.facts_of(fact.relation))
    without = [without_t.expectation(m) for m in range(n)]
    with_f = [with_t.expectation(m) for m in range(n)]
    return shapley_eq1_combine(with_f, without, n)


def shapley_exact(db: Database, fds: FDSet, fact: Fact, kind: MeasureKind) -> Fraction:
    """Exact attribution of `fact` under `kind`; refuses intractable classes.

    The pair-count and problematic-fact measures work for every FD set.
    The drastic and repair-count measures need an lhs chain (up to
    equivalence) for every relation carrying FDs; repair cost needs one
    for the fact's relation only.
    """
    _require_member(db, fact)
    dispatch = {
        MeasureKind.MI: shapley_mi,
        MeasureKind.P: shapley_p,
        MeasureKind.R: shapley_r,
        MeasureKind.DRASTIC: shapley_drastic,
        MeasureKind.MC: shapley_mc,
    }
    try:
        handler = dispatch[kind]
    except KeyError:
        raise InputError(f"unknown measure kind {kind!r}") from None
    return handler(db, fds, fact)
