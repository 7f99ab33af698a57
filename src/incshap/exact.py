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
sums.  With gain[m] the measure summed over the size-m subsets S of D minus
f as I(S + f) - I(S), an integer, and n = |D| (for repair cost, D is f's
relation: the cost adds over relations and f is null in the others),

    value(f) = sum over m of gain[m] * m! * (n-1-m)! / n!,

built as one Fraction at the end.  The sums come from integer tables per
subset size, computed bottom-up over the block/subblock tree of a set of
facts:

* drastic: count of size-j subsets that are consistent.  A block's subset
  is consistent iff it sits inside one subblock child (facts of different
  subblocks pairwise violate the block's FD); a subblock's children never
  conflict, so their counts convolve.
* repair cost: count of size-j subsets whose cardinality repairs keep k
  facts.  Across a subblock's children kept sizes add; inside a block the
  best child part is kept and the rest deleted, so kept is the max over
  the children.  The cost is the size minus kept.
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
from math import comb, factorial
from typing import Sequence

from .block_tree import BlockTree, Vertex, VertexKind, build_tree
from .errors import InputError, IntractableExactError
from .fd_analysis import TractabilityKind, classify_relation
from .measures import MeasureKind
from .relational import Database, Fact, FDSet, build_conflict_graph


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
    """Per-subset-size counts over one tree's facts (one relation's base set).

    The measure fixes what counts[j] holds:
    drastic: the number of size-j subsets violating the FDs;
    repair count: the repair count summed over size-j subsets;
    repair cost: a row whose entry t is the number of size-j subsets with
    cardinality-repair cost t.

    A with-fact table counts every size-j subset S of the base set as
    S + f for the external fact f.
    """

    size: int
    kind: MeasureKind
    counts: tuple

    def expectation(self, j: int) -> Fraction:
        return self.expectations()[j]

    def expectations(self) -> list[Fraction]:
        sums = _subset_sums(self.kind, [self])
        return [Fraction(s, comb(self.size, j)) for j, s in enumerate(sums)]


def _subset_sums(kind: MeasureKind, tables: Sequence[SizeIndexedTable]) -> list[int]:
    """The measure summed over the size-m subsets of the tables' union, per m.

    Facts of different relations never conflict, so consistent-subset
    counts (drastic) and summed repair counts (repair count) convolve over
    relations.  Repair cost takes the table of a single relation.
    """
    if kind is MeasureKind.R:
        (table,) = tables
        return [sum(t * c for t, c in enumerate(row)) for row in table.counts]
    flip = _complement if kind is MeasureKind.DRASTIC else list
    return flip(reduce(_convolve, (flip(t.counts) for t in tables), [1]))


def _complement(counts: Sequence[int]) -> list[int]:
    """Per-size counts of the subsets not counted (violating <-> consistent)."""
    n = len(counts) - 1
    return [comb(n, j) - c for j, c in enumerate(counts)]


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


# -- repair cost: per-(size, kept) subset counts, kept = size - cost


def _kept_leaf(n: int) -> list[list[int]]:
    """A leaf's facts never conflict, so every subset keeps all of itself."""
    return [[0] * j + [comb(n, j)] for j in range(n + 1)]


def _convolve_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Join two fact sets that never conflict: sizes add and kept sizes add."""
    na, nb = len(a) - 1, len(b) - 1
    out = [[0] * (j + 1) for j in range(na + nb + 1)]
    for j1 in range(na + 1):
        for k1 in range(j1 + 1):
            x = a[j1][k1]
            if not x:
                continue
            for j2 in range(nb + 1):
                for k2 in range(j2 + 1):
                    y = b[j2][k2]
                    if y:
                        out[j1 + j2][k1 + k2] += x * y
    return out


def _kept_block(n: int, children: list[list[list[int]]]) -> list[list[int]]:
    """A block subset keeps its best subblock part: kept is the max over children.

    So a block subset keeps at most k facts iff every child part does, and
    for each k the counts of "kept <= k" convolve over the children.
    """
    table = [[0] * (j + 1) for j in range(n + 1)]
    below = [0] * (n + 1)
    for k in range(n + 1):
        parts = ([sum(row[: k + 1]) for row in child] for child in children)
        at_most = reduce(_convolve, parts)
        for j in range(k, n + 1):
            table[j][k] = at_most[j] - below[j]
        below = at_most
    return table


# -- one bottom-up pass per tree, and the with-fact identity

# Per measure: the table of a leaf of n facts (they agree on every
# constrained attribute), of a block of n facts from its subblock children's
# tables, and of two fact sets that never conflict (the children of a
# subblock or of the root).
_DPS = {
    MeasureKind.DRASTIC: (_binomials, _consistent_block, _convolve),
    MeasureKind.MC: (_binomials, _repair_sum_block, _convolve),
    MeasureKind.R: (_kept_leaf, _kept_block, _convolve_rows),
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
        counts = _complement(counts)
    elif kind is MeasureKind.R:
        counts = [tuple(reversed(row)) for row in counts]  # cost = size - kept
    return SizeIndexedTable(n, kind, tuple(counts))


def _containing_fact(full: SizeIndexedTable, without: SizeIndexedTable) -> SizeIndexedTable:
    """Table of S + f over the base set, from the tables over base + f and base.

    A size-(j+1) subset of base + f either leaves f out or is S + f with
    |S| = j, so entry j is full[j+1] - without[j+1] (no subset of the base
    set has size |base| + 1).  Cost rows subtract entry by entry; S + f
    never costs j + 1, so the row's last entry is 0 and is dropped.
    """
    if full.kind is MeasureKind.R:
        later = without.counts[1:] + ((0,) * (full.size + 1),)
        counts = tuple(
            tuple(a - b for a, b in zip(row, other))[:-1]
            for row, other in zip(full.counts[1:], later)
        )
    else:
        later = without.counts[1:] + (0,)
        counts = tuple(a - b for a, b in zip(full.counts[1:], later))
    return SizeIndexedTable(without.size, full.kind, counts)


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
# Multi-relation combination and the exact assembly


def _chain_for(fds: FDSet, relation: str) -> tuple:
    cls = classify_relation(fds.per_relation(relation))
    if cls.kind is not TractabilityKind.LHS_CHAIN:
        raise IntractableExactError(
            f"relation {relation!r} has no lhs chain up to equivalence "
            f"({cls.kind.value}); exact computation refused: "
            + IntractableExactError.suggestion
        )
    return cls.chain


def multi_relation_combine(
    kind: MeasureKind,
    tables: Sequence[SizeIndexedTable],
    sizes: Sequence[int] | None = None,
) -> list[Fraction]:
    """Combine per-relation root tables into whole-database expectations.

    Returns E[I(random size-m subset)] for every m over the union of the
    base sets, for the drastic and repair-count measures.  The pair-count,
    problematic-fact, and repair-cost measures are additive over relations
    with null players outside the fact's relation, so they are computed on
    one relation and never combined here.
    """
    tables = list(tables)
    if sizes is not None and list(sizes) != [t.size for t in tables]:
        raise InputError("declared sizes do not match the tables")
    if kind not in (MeasureKind.DRASTIC, MeasureKind.MC):
        raise InputError(
            f"measure {kind.value!r} is additive over relations; "
            "no table combination applies"
        )
    sums = _subset_sums(kind, tables)
    n = len(sums) - 1
    return [Fraction(s, comb(n, m)) for m, s in enumerate(sums)]


def _tree_based_shapley(
    db: Database, fds: FDSet, fact: Fact, kind: MeasureKind
) -> Fraction:
    """Sum of gain[m] * m! * (n-1-m)! over n!, from two DP passes on f's relation.

    Repair cost stays on f's relation; the drastic and repair-count
    measures take the full table of every other relation as well.
    """
    relations = [fact.relation] if kind is MeasureKind.R else db.schema.relation_names
    others, pair = [], None
    for relation in relations:
        chain = _chain_for(fds, relation)
        facts = db.facts_of(relation)
        full = _root_table(build_tree(facts, chain, db.schema), kind)
        if relation != fact.relation:
            others.append(full)
            continue
        base = [g for g in facts if g.id != fact.id]
        without = _root_table(build_tree(base, chain, db.schema), kind)
        pair = (without, _containing_fact(full, without))
    without_f, with_f = (_subset_sums(kind, others + [t]) for t in pair)
    n = len(with_f)
    total = sum(
        (w - wo) * factorial(m) * factorial(n - 1 - m)
        for m, (w, wo) in enumerate(zip(with_f, without_f))
    )
    return Fraction(total, factorial(n))


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
    return _tree_based_shapley(db, fds, fact, MeasureKind.R)


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
