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

Those expectations are computed bottom-up over the block/subblock tree as
integer tables per vertex:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .block_tree import (
    BlockTree,
    FactVertexRelation,
    Vertex,
    VertexKind,
    build_tree,
    relate,
)
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
    """Per-subset-size values at one vertex (or one relation's root).

    variant "violating": counts[j] = number of size-j subsets violating the
    FDs (together with the external fact, for with-fact tables).
    variant "repair_sum": counts[j] = summed repair count over size-j
    subsets, i.e. the expectation numerator over C(size, j).
    variant "cost": counts[j][t] = number of size-j subsets whose
    cardinality-repair cost is t.
    """

    size: int
    variant: str
    counts: tuple
    with_fact: bool = False

    def expectation(self, j: int) -> Fraction:
        total = comb(self.size, j)
        if self.variant in ("violating", "repair_sum"):
            return Fraction(self.counts[j], total)
        if self.variant == "cost":
            return Fraction(sum(t * c for t, c in enumerate(self.counts[j])), total)
        raise ValueError(f"unknown table variant {self.variant!r}")

    def expectations(self) -> list[Fraction]:
        return [self.expectation(j) for j in range(self.size + 1)]


def _vertex_relations(tree: BlockTree, fact: Fact | None):
    if fact is None:
        return {}
    return {v: relate(fact, v, tree.chain, tree.schema) for v in tree.vertices()}


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


# -- drastic: consistent-subset counts


def _consistent_counts(
    tree: BlockTree, fact: Fact | None = None
) -> dict[Vertex, list[int]]:
    rel = _vertex_relations(tree, fact)
    without = _consistent_counts(tree) if fact is not None else None
    tables: dict[Vertex, list[int]] = {}

    def visit(v: Vertex) -> None:
        for c in v.children:
            visit(c)
        n = v.size
        if fact is not None and rel[v] is FactVertexRelation.CONFLICTS:
            # every non-empty subset violates together with the external fact
            table = [1] + [0] * n
        elif v.is_leaf:
            # leaf facts agree on every constrained attribute
            table = [comb(n, j) for j in range(n + 1)]
        elif fact is not None and rel[v] is FactVertexRelation.NEITHER:
            table = list(without[v])
        elif v.kind is VertexKind.BLOCK:
            # consistent subsets of a block lie inside a single subblock child
            table = [0] * (n + 1)
            table[0] = 1
            for c in v.children:
                child = tables[c]
                for j in range(1, c.size + 1):
                    table[j] += child[j]
        else:
            # subblock/root children never conflict with each other
            table = [1]
            for c in v.children:
                table = _convolve(table, tables[c])
        tables[v] = table

    visit(tree.root)
    return tables


def drastic_tables_by_vertex(
    tree: BlockTree, fact: Fact | None = None
) -> dict[Vertex, SizeIndexedTable]:
    counts = _consistent_counts(tree, fact)
    return {
        v: SizeIndexedTable(
            v.size,
            "violating",
            tuple(comb(v.size, j) - c for j, c in enumerate(table)),
            with_fact=fact is not None,
        )
        for v, table in counts.items()
    }


def drastic_tables(tree: BlockTree, fact: Fact | None = None) -> SizeIndexedTable:
    """Root table of violating-subset counts (with or without an external fact)."""
    return drastic_tables_by_vertex(tree, fact)[tree.root]


# -- repair count: summed repair counts


def _spread(child: list[int], child_size: int, total_size: int, skip_empty: bool) -> list[int]:
    """Weigh one child's per-size sums by free choices among the other facts."""
    table = [0] * (total_size + 1)
    rest = total_size - child_size
    start = 1 if skip_empty else 0
    for jc in range(start, child_size + 1):
        if not child[jc]:
            continue
        for j in range(jc, min(total_size, jc + rest) + 1):
            table[j] += child[jc] * comb(rest, j - jc)
    return table


def _repair_sum_tables(
    tree: BlockTree, fact: Fact | None = None
) -> dict[Vertex, list[int]]:
    rel = _vertex_relations(tree, fact)
    without = _repair_sum_tables(tree) if fact is not None else None
    tables: dict[Vertex, list[int]] = {}

    def visit(v: Vertex) -> None:
        for c in v.children:
            visit(c)
        n = v.size
        if fact is not None and rel[v] is FactVertexRelation.CONFLICTS:
            # {fact} is one additional repair of every subset (incl. empty)
            base = without[v]
            table = [1] + [base[j] + comb(n, j) for j in range(1, n + 1)]
        elif v.is_leaf:
            table = [comb(n, j) for j in range(n + 1)]
        elif fact is not None and rel[v] is FactVertexRelation.NEITHER:
            table = list(without[v])
        elif v.kind is VertexKind.BLOCK:
            # Each repair of a block subset lives in one non-empty child
            # part, so child sums (empty part excluded) add against free
            # choices in the rest of the block; the empty subset carries
            # one repair.  With an external fact, the matching child hosts
            # the fact (its with-fact sums already cover the {fact}-only
            # repair); with no matching child, {fact} is one extra repair
            # of every subset.
            table = [0] * (n + 1)
            matching = None
            if fact is not None:
                for c in v.children:
                    if rel[c] is FactVertexRelation.MATCHES:
                        matching = c
                        break
            for c in v.children:
                source = tables[c] if (fact is None or c is matching) else without[c]
                skip_empty = not (fact is not None and c is matching)
                part = _spread(source, c.size, n, skip_empty)
                for j in range(n + 1):
                    table[j] += part[j]
            if fact is None:
                table[0] += 1
            elif matching is None:
                for j in range(n + 1):
                    table[j] += comb(n, j)
        else:
            # subblock/root: independent children, repair counts multiply
            table = [1]
            for c in v.children:
                table = _convolve(table, tables[c])
        tables[v] = table

    visit(tree.root)
    return tables


def mc_tables_by_vertex(
    tree: BlockTree, fact: Fact | None = None
) -> dict[Vertex, SizeIndexedTable]:
    tables = _repair_sum_tables(tree, fact)
    return {
        v: SizeIndexedTable(v.size, "repair_sum", tuple(t), with_fact=fact is not None)
        for v, t in tables.items()
    }


def mc_tables(tree: BlockTree, fact: Fact | None = None) -> SizeIndexedTable:
    """Root table of summed repair counts (with or without an external fact)."""
    return mc_tables_by_vertex(tree, fact)[tree.root]


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
    counted exactly once.  The same merge serves the with-fact variant:
    there both tables already price the external fact in, and the identity
    min(w1 + j2, w2 + j1) still computes the joint cost because the fact is
    kept or deleted within whichever side wins.
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


def _cost_tables(
    tree: BlockTree, fact: Fact | None = None
) -> dict[Vertex, list[list[int]]]:
    rel = _vertex_relations(tree, fact)
    without = _cost_tables(tree) if fact is not None else None
    tables: dict[Vertex, list[list[int]]] = {}

    def visit(v: Vertex) -> None:
        for c in v.children:
            visit(c)
        n = v.size
        if fact is not None and rel[v] is FactVertexRelation.CONFLICTS:
            # keeping anything here forces deleting the external fact: +1 cost
            base = without[v]
            table = [[0] * (j + 1) for j in range(n + 1)]
            table[0][0] = 1
            for j in range(1, n + 1):
                for t in range(1, j + 1):
                    table[j][t] = base[j][t - 1]
        elif v.is_leaf:
            table = _cost_leaf(n)
        elif fact is not None and rel[v] is FactVertexRelation.NEITHER:
            table = [row[:] for row in without[v]]
        elif v.kind is VertexKind.BLOCK:
            table = [[1]]
            for c in v.children:
                table = _cost_block_merge(table, tables[c])
        else:
            table = [[1]]
            for c in v.children:
                table = _cost_convolve(table, tables[c])
        tables[v] = table

    visit(tree.root)
    return tables


def r_tables_by_vertex(
    tree: BlockTree, fact: Fact | None = None
) -> dict[Vertex, SizeIndexedTable]:
    tables = _cost_tables(tree, fact)
    return {
        v: SizeIndexedTable(
            v.size,
            "cost",
            tuple(tuple(row) for row in t),
            with_fact=fact is not None,
        )
        for v, t in tables.items()
    }


def r_tables(tree: BlockTree, fact: Fact | None = None) -> SizeIndexedTable:
    """Root table of per-(size, cost) subset counts."""
    return r_tables_by_vertex(tree, fact)[tree.root]


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


_TABLE_BUILDERS = {
    MeasureKind.DRASTIC: drastic_tables,
    MeasureKind.MC: mc_tables,
    MeasureKind.R: r_tables,
}


def _relation_tables(
    db: Database, fds: FDSet, relation: str, kind: MeasureKind, fact: Fact | None
) -> tuple[SizeIndexedTable, SizeIndexedTable]:
    """(without, with) root tables over one relation's base set.

    The base set excludes `fact` when it belongs to this relation; the
    with-table then differs, otherwise both are the same object.  One tree
    is built per (relation, fact) pair and reused by both variants.
    """
    chain = _chain_for(fds, relation)
    facts = [g for g in db.facts_of(relation) if fact is None or g.id != fact.id]
    tree = build_tree(facts, chain, db.schema)
    builder = _TABLE_BUILDERS[kind]
    without = builder(tree)
    with_f = builder(tree, fact) if fact is not None else without
    return without, with_f


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
