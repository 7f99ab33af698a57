"""Exact Shapley values for the five measures: closed forms and chain DPs.

Everything here is exact rational arithmetic (stdlib fractions); no floats.
One `Game` per command gives the facts' values and the whole-database
measure from one shared state; `shapley_all` and `measure` are a fresh
game's values and total, and `shapley_exact` is the one-fact case.

The pair-count and problematic-fact measures are direct closed forms in
conflict degree, within the fact's relation (facts of other relations never
conflict with a fact, so they are null players):

* pair count: the count is a sum over conflict edges of two-player
  unanimity games, each split evenly, so Sh_MI(f) = deg(f)/2.
* problematic-fact count: the count is a sum over facts g of the game
  "g is present with a conflict partner".  f earns its own game when a
  partner precedes it, and the game of each partner g when g precedes f
  and f is g's first partner to arrive, so
  Sh_P(f) = deg(f)/(deg(f)+1) + sum over g in N(f) of 1/(deg(g)(deg(g)+1)).

Both come from group counts, with no conflict graph: `partner_sums` adds
weights over conflict partners through a signed expansion over attribute
sets (for A -> B, AC -> D, deg = |A| - |AB| + |ABC| - |ABCD|), and the sum
over N(f) is one more such sum, of the integers L/(deg(g)(deg(g)+1)) with L
their lcm, so each value is one Fraction.

The drastic, repair-cost, and repair-count measures work on units.  In a
relation whose FDs form an lhs chain every lhs contains the first one, so
facts in different level-1 blocks (groups on the first lhs) never
conflict.  One block/subblock tree is built per relation, and its units are
vertices of it: each level-1 block, or the root of a relation without FDs;
each is a union of conflict components.  Every unit is folded once, and
each fact f costs one more fold of its unit B with f left out, which
refolds at most the vertices on f's path (see shapes below).  With
gain_B[j] the measure summed over the size-j subsets S of B - f as
I(S + f) - I(S) within B, an integer:

* repair cost adds over units and f is a null player in every unit but
  its own, so f's value is its value in the game on B:
  value(f) = sum over j of gain_B[j] * j! * (|B|-1-j)! / |B|!.
* drastic and repair count are products over units (drastic through the
  consistent indicator 1 - I), so their per-size sums over the whole
  database convolve over units, across relations.  With rest_B the
  convolution of every other unit's consistent-subset counts (drastic) or
  summed repair counts (repair count), and N = |D|, value(f) = sum over
  i, j of rest_B[i] * gain_B[j] * (i+j)! * (N-1-i-j)! / N!.  Drastic takes
  gain_B in consistent counts too, the gains of 1 - I, so its value flips
  sign.

The weights fold in small integers, with no factorials and no product
per unit.  The weight m!(N-1-m)!/N! is 1/(N * C(N-1, m)), and
L = lcm(1..N)/N is the lcm of the C(N-1, m), so it is s[m] = L / C(N-1, m)
over N * L: about 1.44 N bits where the factorials take N log N.  Every
unit's sums start with 1 (the empty subset), so rest_B is the product P of
all units' sums, multiplied once per command, divided by B's as a power
series.  With s' the scale reversed, coefficient N-1-j of rest_B * s' is
W_B[j] = sum over i of rest_B[i] * s[i+j], so the low N coefficients of
P * s', one packed product, divided by B's sums, give W_B; a power-series
quotient's low coefficients need only the dividend's low ones.  Each
distinct unit table is divided once, and value(f) = W_B . gain_B / (N * L),
which Fraction reduces to the same rational.  A lone unit, and repair
cost, take rest_B = [1], so W_B = s.

Each value is built as one Fraction at the end.  The per-size sums come
from integer tables computed bottom-up over the block/subblock tree of a
set of facts:

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
  one (empty) repair, so a block of n facts has S_B = 1 + sum over
  children c of (S_c - 1)(1 + x)^(n - |c|); across a subblock's children
  repair counts multiply.

Dividing a table entry by C(n, j) recovers the probability or expectation;
the integer form keeps the convolutions exact and cheap.

The tables "with f" follow from two folds.  A size-(j+1) subset of B
either leaves f out or is S + f with |S| = j, so with[j] = full[j+1] -
without[j+1], where full is the fold of B and without its fold with f left
out: f's leaf and every vertex on its path count one fact fewer.  The
identity holds entry by entry for all three tables (for consistent counts
too, since C(n, j+1) - C(n-1, j+1) = C(n-1, j)).

Folds share tables by tree shape, through one memo per command.  A
vertex's table depends only on its size if it is a leaf, and otherwise on
its DP (block, or subblock/root join), its size and its children's tables.
The block DPs sum or convolve over the children and the join convolves,
all in exact integers, so the order of the children does not change a
table: a shape is keyed by (DP, size, sorted child shape ids), interned to
a small int and folded once.  Equal child ids form runs, so each distinct
child table enters its parent's DP once, with its multiplicity m: a join
raises it to the m-th power, and a block raises its "kept <= k" row to the
m-th power (repair cost) or adds m times its sums (drastic, repair count).
Every chain-DP product goes through `_product`, which alone picks how to
multiply: with a repeated factor among at least four, one big integer
product of packed integer powers (Kronecker substitution); fewer or
distinct factors in pairwise rounds (`_rounds`, which also multiplies the
units' sums into P and the relations' tables in `multi_relation_combine`).
A repair-cost join is one such product of its (size, kept) tables
flattened at stride size + 1.  `_power_product` is the one packer: the
long pairwise products and the P * s' product above are packed products
of two factors through it.  Its slot is sized from a bound on the
product's largest coefficient, max(t) * prod(sum(u)^m) / sum(t) for the
best factor t and never below a factor's own max (proved in its
docstring); a slot of at most 8 bytes is rounded up to a machine word,
packed and unpacked by struct in one C call, and wider ones byte string by
byte string.  On the power path a repair-cost block shares its powers
through the shape memo, which passes its power memo to every block DP
call as an argument: for the row P of a child repeated m >= 3 times the
memo keeps the packed P^(m-1), so the full fold takes P^(m-1) * P and a
fold with a fact of that child left out takes P^(m-1) * Q, with Q the row
of the child less the fact; the short factor multiplies by shifts and
adds.  At a block's last k every child's row is its whole binomial row, so
that product is C(n, j), with no power.  The full fold keeps each vertex's
shape and parent and each fact's leaf, so a fold with f left out walks up
from f's leaf, and each vertex u on f's path is one step: u's full shape,
its child's on the path, and that child's shape less f.  The step fixes
u's shape less f, because u's full shape fixes its DP, size and child
shapes, so a step memo maps it to that shape: the sorted child key is
built (every other child's shape read from the full fold) and interned
on the step's first walk only, and once a fact's steps are known its
fold costs one dict read per path vertex.  Isomorphic siblings and units
share steps, the memo holds one entry per distinct step, and facts whose
unit less f has one shape share one value.

The whole-database measure: the pair count is half the summed degrees,
the problematic-fact count the number of facts with a partner, and the
drastic measure 1 iff some lhs group holds a conflict, for every FD class
(`relational.is_consistent`).  Entry |B| of a unit's full sums is its
repair count or repair cost: the database's repair count is the product
of the units' and its repair cost the sum.  Each relation without an lhs
chain goes to the game's coalition evaluator, whose searches a node
budget bounds, and combines with the units the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, groupby
from math import comb, lcm, prod
from operator import mul
from struct import pack, unpack
from typing import Sequence

from .block_tree import BlockTree, Vertex, VertexKind, build_tree
from .errors import BudgetExceededError, InputError, IntractableExactError, SchemaError
from .fd_analysis import TractabilityKind, classify_relation
from .measures import CoalitionEvaluator, MeasureKind, check_budget
from .relational import Database, Fact, FDSet, is_consistent, partner_sums


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
        total = self.counts[j]
        if self.kind is MeasureKind.R:
            total = sum(t * c for t, c in enumerate(total))
        return Fraction(total, comb(self.size, j))

    def expectations(self) -> list[Fraction]:
        return [self.expectation(j) for j in range(len(self.counts))]


def _complement(counts: Sequence[int]) -> list[int]:
    """Per-size counts of the subsets not counted (violating <-> consistent)."""
    return [b - c for b, c in zip(_binomials(len(counts) - 1), counts)]


# Above this many coefficient products, one bigint multiply beats the loop.
_KRONECKER_MIN = 256


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Product of two polynomials with non-negative integer coefficients.

    Long inputs multiply as one packed product (`_power_product`).
    """
    if len(a) * len(b) < _KRONECKER_MIN:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
        return out
    return _power_product([(a, 1), (b, 1)])


def _rounds(factors: Sequence[Sequence[int]]) -> Sequence[int]:
    """Product of polynomials in pairwise rounds, which keep the two factors
    of each product of like size, down to three factors, multiplied left to
    right as their rounds would; the empty product is [1], and a lone factor
    is returned as it is."""
    while len(factors) > 3:
        last = factors[-1:] if len(factors) % 2 else []
        factors = list(map(_convolve, factors[::2], factors[1::2])) + last
    return reduce(_convolve, factors) if factors else [1]


# Slots of 1, 2, 4 or 8 bytes are machine words: struct packs and unpacks
# them little-endian in one C call.
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(coefficients: list[int], width: int) -> int:
    code = _WORDS.get(width)
    if code is None:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coefficients), "little")
    return int.from_bytes(pack(f"<{len(coefficients)}{code}", *coefficients), "little")


def _unpack(packed: int, width: int, length: int) -> list[int]:
    data = packed.to_bytes(width * length, "little")
    code = _WORDS.get(width)
    if code is None:
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    return list(unpack(f"<{length}{code}", data))


# A product of fewer factors than this, or with none repeated, multiplies
# pairwise: packing two or three copies of small tables costs more than the
# loops it saves.
_POWER_MIN = 4


def _pairwise(runs: list[tuple[list, int]]) -> bool:
    factors = sum(m for _, m in runs)
    return factors < _POWER_MIN or factors == len(runs)


def _power_product(runs: list[tuple[list[int], int]]) -> list[int]:
    """Product of polynomials t^m over (t, m) runs, non-negative coefficients.

    One Kronecker-packed product of integer powers: each factor is packed
    into one integer, with a w-byte slot per coefficient, and the product
    is unpacked.  Every packed product goes through here.

    The slot holds every coefficient of the product F.  For any factor t
    with sum(t) > 0, F = t * R, where R is the product of the other factors
    (and m - 1 more copies of t), so R's coefficients are non-negative and
    add up to R(1) = F(1) / t(1).  Then F[k] = sum over i of t[i] R[k-i] <=
    max(t) R(1) = max(t) * prod(sum(u)^m) / sum(t), for every such t; the
    slot takes the smallest.  A zero factor makes F zero, and the factors
    are packed too, so the bound is never below any factor's own max.  Take
    w bytes with 2^(8w) above it, rounded up to a machine word when w <= 8.
    Packing evaluates a polynomial at x = 2^(8w), a ring homomorphism into
    the integers, so the packed product is F(2^(8w)) exactly, whatever
    pow's intermediate squarings hold: they are exact integer products, and
    their coefficients (t^e's) may overflow a slot, say when another factor
    is zero, without harm.  Only F's coefficients are read back, as base
    2^(8w) digits, and each lies below 2^(8w).
    """
    width = _slot(runs)
    packed = prod(pow(_pack(t, width), m) for t, m in runs)
    return _unpack(packed, width, sum(m * (len(t) - 1) for t, m in runs) + 1)


def _slot(runs: list[tuple[list[int], int]]) -> int:
    """Bytes per slot for the product of t^m over runs (see `_power_product`)."""
    sums = [sum(t) for t, _ in runs]
    tops = [max(t) for t, _ in runs]
    total = prod(s**m for s, (_, m) in zip(sums, runs))
    bound = min((top * (total // s) for top, s in zip(tops, sums) if s), default=0)
    width = -(-max(bound, *tops).bit_length() // 8) or 1
    return 1 << (width - 1).bit_length() if width <= 8 else width


def _product(runs: list[tuple[list[int], int]], powers: dict | None = None) -> list[int]:
    """Product of polynomials t^m over (t, m) runs, for every chain DP: in
    pairwise rounds, or one packed power product, sharing powers through
    the `powers` memo that a block DP is passed."""
    if _pairwise(runs):
        return _rounds([t for t, m in runs for _ in range(m)])
    if powers is None:
        return _power_product(runs)
    return _shared_product(runs, powers)


def _binomials(n: int) -> list[int]:
    """C(n, j) for j = 0..n, each from the last by one exact division: for
    hundreds of facts far cheaper than n + 1 calls of comb."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


# -- drastic: consistent-subset counts


def _consistent_block(n: int, runs: list[tuple[list[int], int]], powers=None) -> list[int]:
    """Consistent subsets of a block lie inside a single subblock child."""
    table = [1] + [0] * n
    for child, m in runs:
        for j in range(1, len(child)):
            table[j] += m * child[j]
    return table


# -- repair count: summed repair counts


def _repair_sum_block(n: int, runs: list[tuple[list[int], int]], powers=None) -> list[int]:
    """Summed repair counts of a block from its subblock children's.

    Each repair of a non-empty block subset lives in one non-empty child
    part, so child sums add against free choices in the rest of the block;
    the empty subset carries its one (empty) repair (see the module notes).
    """
    table = [1] + [0] * n
    for child, m in runs:
        for j, x in enumerate(_convolve([0, *child[1:]], _binomials(n + 1 - len(child)))):
            table[j] += m * x
    return table


# -- repair cost: per-(size, kept) subset counts, kept = size - cost


def _kept_leaf(n: int) -> list[list[int]]:
    """A leaf's facts never conflict, so every subset keeps all of itself."""
    return [[0] * j + [c] for j, c in enumerate(_binomials(n))]


def _product_rows(runs: list[tuple[list[list[int]], int]]) -> list[list[int]]:
    """Join of t^m over (t, m) runs of fact sets that never conflict.

    Sizes add and kept sizes add, so the join is one polynomial product
    (`_product`): entry (j, k) of a table is coefficient j * (s + 1) + k,
    with s the joined size, so kept sizes never spill into the next size.
    """
    size = sum(m * (len(t) - 1) for t, m in runs)
    stride = size + 1
    flat = [
        ([c for row in t[:-1] for c in row + [0] * (stride - len(row))] + t[-1], m)
        for t, m in runs
    ]
    out = _product(flat)
    return [out[j * stride : j * stride + j + 1] for j in range(size + 1)]


def _shared_product(rows: list[tuple[list[int], int]], powers: dict) -> list[int]:
    """Product of a block's "kept <= k" rows t^m over (t, m) runs, with one
    power per memo for the row with the most copies.

    That row P, m times, is P^(m-1) times P when m >= 3, and P^(m-1) is
    packed once per memo: a fold of the same block less a fact of that
    child has the run (P, m - 1) and reads the power whole.  A power is
    kept with its slot, which serves every product whose slot is no wider.
    It multiplies the other factors' product, a short one by shifts and
    adds.  That product's coefficients are no larger than the whole
    product's, as every "kept <= k" row starts with 1 (the empty subset).
    """
    i = max(range(len(rows)), key=lambda i: rows[i][1])
    row, m = rows[i]
    key = tuple(row)
    e = m if (key, m) in powers else m - 1
    if e < 2:
        return _power_product(rows)
    rest = rows[:i] + rows[i + 1 :] + [(row, 1)] * (m - e)
    width = _slot(rows)
    held = powers.get((key, e))
    if held is None or held[0] < width:
        held = powers[key, e] = (width, pow(_pack(row, width), e))
    width, power = held
    other = _product(rest) if rest else [1]
    if len(other) > width:
        packed = power * _pack(other, width)
    else:  # a few shifts and adds cost less than one long multiply
        packed = sum((c * power) << (8 * width * j) for j, c in enumerate(other) if c)
    return _unpack(packed, width, sum(m * (len(t) - 1) for t, m in rows) + 1)


def _kept_block(n: int, runs: list[tuple[list[list[int]], int]], powers=None) -> list[list[int]]:
    """A block subset keeps its best subblock part: kept is the max over children.

    So a block subset keeps at most k facts iff every child part does, and
    for each k the counts of "kept <= k" multiply over the children, each
    distinct child's row raised to its multiplicity by one `_product` call
    that shares powers through `powers`, the shape memo's.  Each distinct
    child's "kept <= k" counts are prefix sums of its rows, built once.
    Kept sizes grow with the subset, so no block subset keeps more than the
    most a whole child keeps (its last row's one subset), and k stops
    there, where every child's row is its whole binomial row and the
    product is C(n, j).
    """
    counts = [m for _, m in runs]
    cumulative = [[list(accumulate(row)) for row in child] for child, _ in runs]
    table = [[0] * (j + 1) for j in range(n + 1)]
    below = [0] * (n + 1)
    top = max(max(k for k, c in enumerate(child[-1]) if c) for child, _ in runs)
    for k in range(top + 1):
        if k < top:
            # Row j's "kept <= k" count is its prefix sum up to min(j, k).
            parts = [[r[-1] for r in child[:k]] + [r[k] for r in child[k:]] for child in cumulative]
            at_most = _product(list(zip(parts, counts)), powers)
        else:
            at_most = _binomials(n)
        for j in range(k, n + 1):
            table[j][k] = at_most[j] - below[j]
        below = at_most
    return table


# -- one bottom-up pass per tree, and the with-fact identity

# Per measure: the table of a leaf of n facts (they agree on every
# constrained attribute), of a block of n facts from its subblock children's
# tables, and of fact sets that never conflict (the children of a subblock
# or of the root).  Children come as (table, multiplicity) runs, and a block
# DP is also passed the shape memo's powers, which only repair cost reads.
_DPS = {
    MeasureKind.DRASTIC: (_binomials, _consistent_block, _product),
    MeasureKind.MC: (_binomials, _repair_sum_block, _product),
    MeasureKind.R: (_kept_leaf, _kept_block, _product_rows),
}


class _Shapes:
    """One command's memo of tree shapes for one measure's DPs.

    A shape is a leaf's size, or a vertex's DP (block, or subblock/root
    join), size and sorted child shapes; each is interned to a small int
    and its table computed once, from the runs of equal child shapes: each
    distinct child table once, with its multiplicity.  A full fold keeps
    each vertex's shape and parent and each fact's leaf, so a fold with a
    fact left out walks the fact's path.  `steps` maps each step of such a
    walk, (a vertex's full shape, its child's on the path, that child's
    shape less the fact), to the vertex's shape less the fact; a step's
    key is built from the full fold's child shapes and interned on its
    first walk only, so a fold whose steps are known costs one dict read
    per path vertex.  A fact's leaf is the one in the last tree folded
    that holds it, so leave-one-out folds need each fact in one folded
    tree.  Tables are shared by every vertex of their shape: no caller
    mutates one.  `powers` holds the packed row powers that block DPs
    share (`_shared_product`), this memo's only: it is passed to each
    block DP call.
    """

    def __init__(self, dps: tuple):
        self.dps = dps
        self.ids: dict[tuple, int] = {}
        self.tables: list = []
        self.full: dict[Vertex, int] = {}
        self.parent: dict[Vertex, Vertex] = {}
        self.leaf: dict[Fact, Vertex] = {}
        self.steps: dict[tuple, int] = {}
        self.powers: dict[tuple, tuple[int, int]] = {}

    def shape(self, v: Vertex, out: Fact | None = None) -> int:
        """The shape id of v, or with `out` that of v's facts less it."""
        if v not in self.full:
            self._fold(v)
        if out is None:
            return self.full[v]
        # Walk up from out's leaf: each vertex on the path counts one fact
        # fewer, and only its child on the path changes shape.  u's full
        # shape fixes its DP, size and child shapes, so the step fixes u's
        # shape less out.
        u, child, sid = self.leaf[out], None, None
        while True:
            was = None if child is None else self.full[child]
            step = (self.full[u], was, sid)
            less = self.steps.get(step)
            if less is None:
                size = u.size - 1
                if child is None or not size:
                    key = (None, size, ())  # an emptied vertex folds to leaf(0)
                else:
                    children = [self.full[c] for c in u.children]
                    children[children.index(was)] = sid
                    key = (u.kind is VertexKind.BLOCK, size, tuple(sorted(children)))
                less = self.steps[step] = self._intern(key)
            if u is v:
                return less
            child, u, sid = u, self.parent[u], less

    def _fold(self, v: Vertex) -> None:
        if v.is_leaf:
            self.leaf.update(dict.fromkeys(v.facts, v))
            key = (None, v.size, ())
        else:
            self.parent.update(dict.fromkeys(v.children, v))
            children = tuple(sorted(self.shape(c) for c in v.children))
            key = (v.kind is VertexKind.BLOCK, v.size, children)
        self.full[v] = self._intern(key)

    def _intern(self, key: tuple) -> int:
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.tables)
            self.tables.append(self._table(key))
        return sid

    def _table(self, key: tuple) -> list:
        leaf, block, join = self.dps
        is_block, size, children = key
        if is_block is None:
            return leaf(size)
        runs = [(self.tables[c], len(list(group))) for c, group in groupby(children)]
        return block(size, runs, self.powers) if is_block else join(runs)

    def fold(self, v: Vertex, out: Fact | None = None) -> list:
        return self.tables[self.shape(v, out)]


def _root_table(tree: BlockTree, kind: MeasureKind, shapes: _Shapes) -> SizeIndexedTable:
    counts = shapes.fold(tree.root)
    if kind is MeasureKind.DRASTIC:
        counts = _complement(counts)
    elif kind is MeasureKind.R:
        counts = [tuple(reversed(row)) for row in counts]  # cost = size - kept
    return SizeIndexedTable(tree.root.size, kind, tuple(counts))


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
    # One memo for both trees: the one with f refolds only f's path.
    shapes = _Shapes(_DPS[kind])
    table = _root_table(tree, kind, shapes)
    if fact is None:
        return table
    if fact in tree.root.facts:
        raise InputError(f"external fact {fact.id} is already one of the tree's facts")
    full = build_tree(tree.root.facts + (fact,), tree.chain, tree.schema)
    return _containing_fact(_root_table(full, kind, shapes), table)


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
# Units, multi-relation combination and the exact assembly


def multi_relation_combine(
    kind: MeasureKind, tables: Sequence[SizeIndexedTable]
) -> list[Fraction]:
    """Combine per-relation root tables into whole-database expectations.

    Returns E[I(random size-m subset)] for every m over the union of the
    base sets, for the drastic and repair-count measures.  The pair-count,
    problematic-fact, and repair-cost measures are additive over relations
    with null players outside the fact's relation, so they are computed on
    one relation and never combined here.
    """
    if kind not in (MeasureKind.DRASTIC, MeasureKind.MC):
        raise InputError(
            f"measure {kind.value!r} is additive over relations; "
            "no table combination applies"
        )
    # Facts of different relations never conflict, so consistent-subset
    # counts (drastic) and summed repair counts (repair count) convolve.
    if kind is MeasureKind.MC:
        sums = _rounds([t.counts for t in tables])
    else:
        sums = _complement(_rounds([_complement(t.counts) for t in tables]))
    return [Fraction(s, c) for s, c in zip(sums, _binomials(len(sums) - 1))]


def _divide(p: list[int], d: Sequence[int]) -> list[int]:
    """The first len(p) coefficients of the power series p / d, where d[0] == 1.

    Entry k of the quotient q is p[k] less the sum over i >= 1 of d[i] *
    q[k - i].  d is a unit's short table and p long, so each entry is one
    C-level dot product of small by large integers.
    """
    top = len(d) - 1
    tail, q = d[:0:-1], [0] * top
    for x in p:
        q.append(x - sum(map(mul, tail, q[-top:])))
    return q[top:]


def _scale(n: int) -> tuple[list[int], int]:
    """Integers s[m], m < n, over one denominator D: s[m] / D = m!(n-1-m)!/n!.

    That weight is 1/(n * C(n-1, m)), and L = lcm(1..n)/n is the lcm of the
    C(n-1, m), so s[m] = L / C(n-1, m) and D = n * L.  Each s[m+1] is s[m] *
    (m+1) / (n-1-m); the division is exact iff C(n-1, m+1) divides L.
    """
    common = lcm(*range(1, n + 1)) // n
    scale = [common]
    for m in range(n - 1):
        s, r = divmod(scale[m] * (m + 1), n - 1 - m)
        assert not r
        scale.append(s)
    return scale, n * common


def _unit_weights(
    kind: MeasureKind, fulls: list[list[int]], needed: set[int]
) -> dict[int, tuple[list[int], int]]:
    """Per needed unit B: (W_B, D), so that value(f) = W_B . gain_B / D.

    W_B[j] is the sum over i of rest_B[i] * s[i+j], with (s, D) the scale of
    N = |B| + deg rest_B facts (see the module notes).  Repair cost plays
    f's game on B alone, and so does a lone unit: rest_B = [1] and W_B = s.
    Otherwise W_B is read off one quotient per distinct table of B.
    """
    if kind is MeasureKind.R or len(fulls) == 1:
        scales = {n: _scale(n) for n in {len(fulls[u]) - 1 for u in needed}}
        return {u: scales[len(fulls[u]) - 1] for u in needed}
    product = _rounds(fulls)
    n = len(product) - 1
    scale, denominator = _scale(n)
    # The low n coefficients of product(x) times s reversed, one packed product.
    low = _power_product([(product, 1), (scale[::-1], 1)])[:n]
    # W_B[j] is coefficient n-1-j of the quotient by B's sums, j < |B|.
    table_of = {u: tuple(fulls[u]) for u in needed}
    by_table = {
        t: (_divide(low, t)[n + 1 - len(t) :][::-1], denominator) for t in set(table_of.values())
    }
    return {u: by_table[t] for u, t in table_of.items()}


class Game:
    """One command's game: Shapley values of facts under `kind`, and the
    measure of the whole database, read off one shared state.

    Each piece is built on first use and at most once: the conflict degrees
    from group counts, the tractability classes, one block tree per
    lhs-chain relation with its units and their full sums in one shape
    memo, and the coalition evaluator, which `budget` bounds.  A sampler or
    the oracle that walks coalitions on `evaluator` leaves memos that the
    total then hits.
    """

    def __init__(self, db: Database, fds: FDSet, kind: MeasureKind, budget: int | None = None):
        check_budget(budget)
        if not isinstance(kind, MeasureKind):
            raise InputError(f"unknown measure kind {kind!r}")
        if db.schema != fds.schema:
            raise SchemaError("database and FD set are over different schemas")
        self.db, self.fds, self.kind, self.budget = db, fds, kind, budget
        self._shapes = _Shapes(_DPS[kind]) if kind in _DPS else None
        self._units: dict[str, list[Vertex]] = {}
        self._fulls: dict[Vertex, list[int]] = {}

    @cached_property
    def evaluator(self) -> CoalitionEvaluator:
        """The coalition evaluator, bounded by the game's node budget."""
        return CoalitionEvaluator(self.db, self.fds, budget=self.budget)

    @cached_property
    def degrees(self) -> dict[str, list[int]]:
        """Each relation's conflict degrees, in load order, from group counts."""
        return {
            r: partner_sums(self.db, self.fds, r, [1] * len(self.db.facts_of(r)))
            for r in self.db.schema.relation_names
        }

    def _closed(self, relation: str) -> list[Fraction]:
        """The mi or p value of every fact of `relation`, in load order."""
        degrees = self.degrees[relation]
        if self.kind is MeasureKind.MI:
            return [Fraction(d, 2) for d in degrees]
        # Each partner's 1/(deg(deg+1)) as an integer over the lcm of those denominators.
        scale = lcm(*{d * (d + 1) for d in degrees if d})
        h = [scale // (d * (d + 1)) if d else 0 for d in degrees]
        sums = partner_sums(self.db, self.fds, relation, h)
        return [Fraction(d * scale + (d + 1) * s, (d + 1) * scale) for d, s in zip(degrees, sums)]

    @cached_property
    def classes(self) -> tuple[dict, dict]:
        """Of the relations that hold facts: the lhs chain of each that has one,
        and the tractability class of each that has none."""
        holding = filter(self.db.facts_of, self.db.schema.relation_names)
        classes = {r: classify_relation(self.fds.per_relation(r)) for r in holding}
        chains = {r: c.chain for r, c in classes.items() if c.kind is TractabilityKind.LHS_CHAIN}
        return chains, {r: c.kind for r, c in classes.items() if r not in chains}

    def units(self, relation: str) -> list[Vertex]:
        """The units of an lhs-chain relation: the level-1 blocks of its one
        tree, or the root if it has no FDs; built and folded on first use."""
        if relation not in self._units:
            chain = self.classes[0][relation]
            root = build_tree(self.db.facts_of(relation), chain, self.db.schema).root
            units = self._units[relation] = root.children if chain else [root]
            self._fulls.update((unit, self._sums(self._shapes.shape(unit))) for unit in units)
        return self._units[relation]

    def _sums(self, shape: int) -> list[int]:
        """Per-size sums of a unit's shape, as they combine over units: consistent
        subset counts (drastic), summed repair counts (mc) or summed costs (r)."""
        counts = self._shapes.tables[shape]
        if self.kind is MeasureKind.R:
            # Row j's counts add up to C(n, j), so its summed cost (j - kept)
            # is j * C(n, j) less the summed kept sizes.
            binomials = _binomials(len(counts) - 1)
            return [
                j * c - sum(map(mul, row, range(j + 1)))
                for j, (c, row) in enumerate(zip(binomials, counts))
            ]
        return counts

    def values(self, facts: Sequence[Fact]) -> list[Fraction]:
        """Exact attributions of `facts`, in order; refuses intractable classes.

        The pair-count and problematic-fact measures work for every FD set
        and read group counts of the facts' relations.  The drastic and
        repair-count measures need an lhs chain (up to equivalence) for every
        relation holding facts; repair cost needs one for the relations of
        `facts` only.  Each
        fact costs one more fold of its unit with the fact left out, which
        refolds only shapes the game has not met yet and builds keys only
        for path steps it has not walked yet: once they are known, the
        fold is one dict read per vertex on the fact's path.
        """
        facts, kind = list(facts), self.kind
        self.db.require(facts)
        if not facts:
            return []
        if kind is MeasureKind.MI or kind is MeasureKind.P:
            closed = {r: self._closed(r) for r in dict.fromkeys(f.relation for f in facts)}
            return [closed[f.relation][f.index] for f in facts]
        chains, others = self.classes
        relations = (
            dict.fromkeys(f.relation for f in facts) if kind is MeasureKind.R else chains | others
        )
        refused = next((r for r in relations if r in others), None)
        if refused is not None:
            raise IntractableExactError(
                f"relation {refused!r} has no lhs chain up to equivalence "
                f"({others[refused].value}); exact computation refused: "
                + IntractableExactError.suggestion
            )
        units = [unit for r in relations for unit in self.units(r)]
        unit_of = {f: u for u, unit in enumerate(units) for f in unit.facts}
        fulls = [self._fulls[unit] for unit in units]
        weights = _unit_weights(kind, fulls, {unit_of[f] for f in facts})
        # A value depends only on the fact's unit and the shape of the unit less it.
        values, by_shape = [], {}
        for fact in facts:
            u = unit_of[fact]
            shape = self._shapes.shape(units[u], fact)
            if (u, shape) not in by_shape:
                full = fulls[u]
                without = self._sums(shape) + [0]
                # The with-fact identity on sums: S + f over size-j subsets S of
                # B - f sums to full[j+1] - without[j+1].
                gain = (full[j + 1] - without[j + 1] - without[j] for j in range(len(without) - 1))
                weight, denominator = weights[u]
                value = Fraction(sum(map(mul, weight, gain)), denominator)
                # Drastic gains in consistent counts are minus the measure's gains.
                by_shape[u, shape] = -value if kind is MeasureKind.DRASTIC else value
            values.append(by_shape[u, shape])
        return values

    def total(self) -> int:
        """The measure of the whole database (see the module notes).

        For r and mc, the evaluator measures one relation without an lhs
        chain at a time, so a refusal names the relation.
        """
        kind = self.kind
        if kind is MeasureKind.MI or kind is MeasureKind.P:
            degrees = [d for degs in self.degrees.values() for d in degs]
            return sum(degrees) // 2 if kind is MeasureKind.MI else sum(map(bool, degrees))
        if kind is MeasureKind.DRASTIC:
            return int(not is_consistent(self.db, self.fds))
        chains, others = self.classes
        tops = [self._fulls[unit][-1] for r in chains for unit in self.units(r)]
        for relation in others:
            mask = self.evaluator.mask_of(f.id for f in self.db.facts_of(relation))
            try:
                value = self.evaluator.value(kind, mask)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"whole-database measure of relation {relation!r}: {exc}"
                ) from exc
            tops.append(value)
        return prod(tops) if kind is MeasureKind.MC else sum(tops)


def shapley_all(
    db: Database, fds: FDSet, facts: Sequence[Fact], kind: MeasureKind
) -> list[Fraction]:
    """Exact attributions of `facts` under `kind`, in order (see `Game.values`)."""
    return Game(db, fds, kind).values(facts)


def measure(kind: MeasureKind, db: Database, fds: FDSet, budget: int | None = None) -> int:
    """Exact measure value of the whole database (see `Game.total`)."""
    return Game(db, fds, kind, budget).total()


def shapley_exact(db: Database, fds: FDSet, fact: Fact, kind: MeasureKind) -> Fraction:
    """Exact attribution of `fact` under `kind`: the one-fact case of `shapley_all`."""
    return shapley_all(db, fds, [fact], kind)[0]


def shapley_mi(db: Database, fds: FDSet, fact: Fact) -> Fraction:
    """Attribution under the violating-pair count: half the conflict degree."""
    return shapley_exact(db, fds, fact, MeasureKind.MI)


def shapley_drastic(db: Database, fds: FDSet, fact: Fact) -> Fraction:
    """Attribution under the 0/1 inconsistency indicator (lhs chains only)."""
    return shapley_exact(db, fds, fact, MeasureKind.DRASTIC)
