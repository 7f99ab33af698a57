"""The five inconsistency measures, evaluated exactly on conflict graphs.

For FDs, a fact set is consistent iff it is pairwise consistent, so repairs
are exactly maximal independent sets of the conflict graph and the
cardinality-repair cost is its minimum vertex cover.  No edge is listed:
each fact's neighbours are one bitmask, summed from group counts by
``relational.partner_sums``, the rule of the exact engines too.  The
coalition evaluator computes any measure on any fact subset, whatever the
FD class, for the sampler, the oracle, and the whole-database measure of
the relations without an lhs chain (``exact.Game.total``).  Its
vertex-cover and repair-counting searches are exponential in the worst
case and honor an optional node budget that counts memo misses only: vertex
covers are memoized per induced subgraph, repair counts per search state.

The evaluator numbers its bits one conflict component at a time, so a
component is a contiguous bit range.  ``relational.conflict_components``
finds the components from lhs groups, and one ``partner_sums`` pass that
weighs each fact by its bit within its component gives the masks, so no
sum is wider than its component and memory stays linear in the facts.
Its searches and memos work on the component's small local masks: a
coalition splits into one local mask per component it meets, with a shift
and a mask.  The empty set is one entry of the vertex-cover memo for all
components, so every search spends the nodes it would on one memo keyed by
fact set.  ``value`` keeps no memo of its own.  A component's r is the
cover memo's entry for its local mask, and its mc the repair-count memo's
entry for the state that excludes nothing, which is the repair count of
that mask.  A miss splits the mask into connected parts and searches each
on a node counter of its own; a hit spends nothing, also on a mask that a
search stored.

``walk`` runs one sampled permutation for the sampler.  It grows a
coalition from the empty one, one fact i at a time, and keeps each
component's part of it as one local mask, with its connected parts and
their measures, so a step costs the same however many facts there are.  A
fact that conflicts with none of them is a part of its own and changes no
value.  Otherwise adding i merges the parts it touches into one, and only
that part is valued: the coalition's value moves by the joined part less
the parts it replaced, a quotient for mc.  d, mi and p need only
arithmetic on it.  r and mc read the part's entry in the search memos, the
key its own search fills; only a miss calls ``part_value``, which is one
search on a node counter of its own.  A minimum cover of the joined part
either takes i or takes every neighbour of i, so an r miss spends one node
and searches only the part less i and its neighbours.  A requested fact's
marginal is the value after it less the value before it.  The walk stops
after the last requested fact, and for d at the first conflict, after
which every drastic marginal is 0.  A walk takes the same join steps up to
where it stops, whichever facts are requested, so one fact's estimate
values only parts that the estimate of every fact values too.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import prod

from .errors import BudgetExceededError, InputError, SchemaError
from .relational import Database, Fact, FDSet, conflict_components, partner_sums


class MeasureKind(enum.Enum):
    DRASTIC = "d"
    MI = "mi"
    P = "p"
    R = "r"
    MC = "mc"


# Module-level names for the hot paths: on CPython 3.11 looking a member up
# on the enum class costs about 150 ns, a global about 20 ns.
_D, _MI, _P, _R, _MC = MeasureKind


def check_budget(budget: int | None) -> None:
    """Reject a negative node budget; None means unbounded."""
    if budget is not None and budget < 0:
        raise InputError(f"the node budget must be non-negative, got {budget}")


class _Component:
    """One conflict component on local bits: local bit j is the evaluator's
    bit ``offset + j``, and the component's facts keep their load order."""

    __slots__ = ("offset", "size", "full", "adj", "nonadj", "vc_memo", "mis_memo")

    def __init__(self, offset: int, adj: list[int]):
        self.offset = offset
        self.size = len(adj)
        self.full = (1 << self.size) - 1
        self.adj = adj  # neighbours of each local bit, as a local mask
        # the other local bits that are not neighbours, for the repair searches
        self.nonadj = [self.full & ~a & ~(1 << j) for j, a in enumerate(adj)]
        self.vc_memo: dict[int, int] = {}  # cover size per nonempty local mask
        self.mis_memo: dict[int, int] = {}  # repair count per state P | X << size


class CoalitionEvaluator:
    """Evaluates any measure on arbitrary fact subsets encoded as bitmasks.

    Bits are numbered one conflict component at a time: components in the
    order of their first fact in load order, facts within a component in
    load order, so each component is a contiguous bit range and ``facts[i]``
    is the fact of bit i.  The components come from lhs groups
    (``relational.conflict_components``), and one ``partner_sums`` pass
    weighs each fact by its local bit for their masks.  The searches run on
    a component's local masks, and vertex covers are memoized per
    induced-subgraph mask and repair counts per (candidates, excluded)
    search state in per-component memos, so repeated coalition queries
    (oracles, samplers) stay cheap; a memo hit costs no node of the budget.
    """

    def __init__(self, db: Database, fds: FDSet, budget: int | None = None):
        if db.schema != fds.schema:
            raise SchemaError("database and FD set are over different schemas")
        check_budget(budget)
        self.budget = budget

        # Each fact weighs its bit within its component, so a fact's partner
        # sum is its neighbours' local mask.
        members = conflict_components(db, fds)
        weights = {r: [0] * len(db.facts_of(r)) for r in db.schema.relation_names}
        for facts in members:
            for j, fact in enumerate(facts):
                weights[fact.relation][fact.index] = 1 << j
        sums = {r: partner_sums(db, fds, r, w) for r, w in weights.items()}
        self.facts: list[Fact] = []
        self.comp_of: list[_Component] = []  # the component of each bit
        self._components: list[_Component] = []
        # each bit's component number, component, local bit, its mask and its
        # local neighbours, for walks
        self._steps: list[tuple[int, _Component, int, int, int]] = []
        for number, facts in enumerate(members):
            comp = _Component(len(self.facts), [sums[f.relation][f.index] for f in facts])
            self.facts += facts
            self.comp_of += [comp] * len(facts)
            self._components.append(comp)
            self._steps += [(number, comp, j, 1 << j, a) for j, a in enumerate(comp.adj)]
        self.bit_of = {fact.id: i for i, fact in enumerate(self.facts)}
        self.full_mask = (1 << len(self.facts)) - 1
        # The empty set is one subgraph, whichever component reaches it.
        self._empty_vc: dict[int, int] = {}

    def mask_of(self, fact_ids) -> int:
        mask = 0
        for fid in fact_ids:
            mask |= 1 << self.bit_of[fid]
        return mask

    @staticmethod
    def _bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _spend(self, nodes: list, search: str) -> None:
        """Count one search node against the budget; ``nodes`` is one search's counter."""
        nodes[0] += 1
        if self.budget is not None and nodes[0] > self.budget:
            raise BudgetExceededError(f"{search} exceeded the node budget of {self.budget}")

    def value(self, kind: MeasureKind, mask: int) -> int:
        """The measure of the coalition ``mask``.

        Each component contributes the measure of its part of ``mask``; the
        contributions add up (mi, p, r), multiply (mc) or give 1 if any is 1
        (d).  r and mc read the search memos' entry for the local mask, and
        a miss searches each connected part on a node counter of its own.
        """
        if not isinstance(kind, MeasureKind):
            raise InputError(f"unknown measure kind {kind!r}")
        product = kind is _MC
        total = 1 if product else 0
        while mask:
            comp = self.comp_of[(mask & -mask).bit_length() - 1]
            local = mask >> comp.offset & comp.full
            mask &= ~(comp.full << comp.offset)
            if kind is _R:
                # the hit read inline: a call per component costs more than the lookup
                part = comp.vc_memo.get(local)
                if part is None:
                    part = self._cost(comp, local)
            elif product:
                # nothing excluded: the state's count is the mask's repair count
                part = comp.mis_memo.get(local)
                if part is None:
                    part = comp.mis_memo[local] = prod(
                        self._count_mis(comp, p, 0, [0]) for p in _parts(comp.adj, local)
                    )
            else:
                part = self._local_value(kind, comp, local)
            if product:
                total *= part
            elif part and kind is _D:
                return 1
            else:
                total += part
        return total

    def _local_value(self, kind: MeasureKind, comp: _Component, mask: int) -> int:
        """The d, mi or p measure of a local mask of ``comp``."""
        adj = comp.adj
        pairs = problematic = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            touching = adj[low.bit_length() - 1] & mask
            if touching:
                if kind is _D:
                    return 1
                pairs += touching.bit_count()
                problematic += 1
        return pairs // 2 if kind is _MI else problematic

    def walk(
        self, kind: MeasureKind, order: list[int], totals: dict[int, int], bound: int | None
    ) -> None:
        """Walk the permutation ``order`` of every bit, as the module
        docstring describes, adding each requested bit's marginal into
        ``totals``, keyed by the requested bits.

        Every marginal must lie in ``[0, bound]`` unless ``bound`` is None.
        A budget refusal names the size of the coalition it was adding to.
        """
        pending = len(totals)
        if not pending:
            return
        drastic = kind is _D
        product = kind is _MC
        cover = kind is _R  # r reads the cover memo, as mc the count memo
        single = 1 if product else 0  # the measure of one fact alone, and of none
        value = single
        masks = [0] * len(self._components)  # each component's part of the coalition
        parts: list[dict[int, int]] = [{} for _ in masks]
        steps = self._steps
        part_value = self.part_value
        try:
            for i in order:
                c, comp, b, bit, adj = steps[i]
                touching = adj & masks[c]
                own = parts[c]
                if not touching:
                    own[bit] = single
                    extended = value
                elif drastic:
                    extended = 1
                else:
                    # i joins the parts it touches; only the joined part is valued
                    joined, old = bit, single
                    for part in list(own):
                        if part & touching:
                            joined |= part
                            if product:
                                old *= own.pop(part)
                            else:
                                old += own.pop(part)
                    if product:
                        new = comp.mis_memo.get(joined)
                    elif cover:
                        new = comp.vc_memo.get(joined)
                    else:
                        new = None
                    if new is None:
                        new = part_value(kind, comp, joined, b, old)
                    own[joined] = new
                    extended = value // old * new if product else value - old + new
                if i in totals:
                    marginal = extended - value
                    if bound is not None:
                        assert 0 <= marginal <= bound, (
                            f"marginal {marginal} outside [0, {bound}] for {kind.value}"
                        )
                    totals[i] += marginal
                    pending -= 1
                    if not pending:
                        return
                value = extended
                if value and drastic:
                    return  # every later drastic marginal is 0
                masks[c] |= bit
        except BudgetExceededError as exc:
            size = sum(mask.bit_count() for mask in masks)
            raise BudgetExceededError(
                f"measure evaluation aborted on a sampled coalition of size {size}: {exc}"
            ) from exc

    def part_value(self, kind: MeasureKind, comp: _Component, part: int, i: int, old: int) -> int:
        """The measure of ``part``, a connected local mask of ``comp`` that
        joins local fact ``i`` to parts of measure ``old`` (their product
        for mc, else their sum).

        r and mc read the search memos, and a miss is one search on a node
        counter of its own.  A minimum cover of ``part`` takes i or every
        neighbour of i, so an r miss spends one node and searches only
        ``part`` less i and its neighbours.
        """
        if kind is _R:
            cost = comp.vc_memo.get(part)
            if cost is None:
                nodes = [0]
                self._spend(nodes, "vertex-cover search")
                adj = comp.adj[i]
                rest = self._cost(comp, part & ~adj & ~(1 << i), nodes)
                cost = comp.vc_memo[part] = min(old + 1, (adj & part).bit_count() + rest)
            return cost
        if kind is _MC:
            return self._count_mis(comp, part, 0, [0])
        if not part & part - 1:
            return 0  # one fact alone conflicts with nothing
        if kind is _MI:
            return old + (comp.adj[i] & part).bit_count()
        return part.bit_count() if kind is _P else 1

    def _cost(self, comp: _Component, mask: int, nodes: list | None = None) -> int:
        """Cover size of a local mask, memoized per mask.  Its connected parts'
        searches spend ``nodes``, or each a counter of its own if None."""
        memo = comp.vc_memo if mask else self._empty_vc
        cost = memo.get(mask)
        if cost is None:
            cost = memo[mask] = sum(self._vc(comp, part, nodes) for part in _parts(comp.adj, mask))
        return cost

    def _vc(self, comp: _Component, mask: int, _nodes: list | None = None) -> int:
        memo = comp.vc_memo if mask else self._empty_vc
        result = memo.get(mask)
        if result is not None:
            return result
        if _nodes is None:
            _nodes = [0]
        self._spend(_nodes, "vertex-cover search")
        adj = comp.adj
        best_i, best_deg = -1, -1
        pendant = -1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            deg = (adj[i] & mask).bit_count()
            if deg == 1 and pendant < 0:
                pendant = i
            if deg > best_deg:
                best_i, best_deg = i, deg
        if best_deg <= 0:
            result = 0
        elif pendant >= 0:
            # A degree-1 vertex: some minimum cover takes its neighbor.
            neighbor_bit = adj[pendant] & mask
            result = 1 + self._vc(comp, mask & ~neighbor_bit & ~(1 << pendant), _nodes)
        else:
            take_v = 1 + self._vc(comp, mask & ~(1 << best_i), _nodes)
            closed = (adj[best_i] & mask) | (1 << best_i)
            take_neighbors = best_deg + self._vc(comp, mask & ~closed, _nodes)
            result = min(take_v, take_neighbors)
        memo[mask] = result
        return result

    def _count_mis(self, comp: _Component, candidates: int, excluded: int, nodes: list) -> int:
        """Number of repairs ``_extend_mis`` would yield from this state, without yielding them."""
        if not candidates:
            return 0 if excluded else 1
        memo = comp.mis_memo
        size = comp.size
        key = candidates | excluded << size
        count = memo.get(key)
        if count is not None:
            return count
        self._spend(nodes, "repair enumeration")
        nonadj = comp.nonadj
        branch = _pivot_branches(comp, candidates, excluded)
        count = 0
        while branch:
            bit = branch & -branch
            branch ^= bit
            rest = nonadj[bit.bit_length() - 1]
            sub_candidates = candidates & rest
            sub_excluded = excluded & rest
            if sub_candidates:
                # the child's memo entry, read here to save a call on a hit
                sub = memo.get(sub_candidates | sub_excluded << size)
                if sub is None:
                    sub = self._count_mis(comp, sub_candidates, sub_excluded, nodes)
                count += sub
            elif not sub_excluded:
                count += 1
            candidates ^= bit
            excluded |= bit
        memo[key] = count
        return count

    def _extend_mis(self, comp: _Component, current: int, candidates: int, excluded: int, nodes: list):
        """Pivoting enumeration of the repairs of a local mask (clique search on
        the implicit complement)."""
        # A method rather than a nested generator: a closure that refers to
        # itself forms a reference cycle that keeps the evaluator and its
        # memos alive until the cyclic garbage collector runs.
        self._spend(nodes, "repair enumeration")
        if not candidates and not excluded:
            yield current
            return
        nonadj = comp.nonadj
        for i in self._bits(_pivot_branches(comp, candidates, excluded)):
            bit = 1 << i
            rest = nonadj[i]
            yield from self._extend_mis(
                comp, current | bit, candidates & rest, excluded & rest, nodes
            )
            candidates &= ~bit
            excluded |= bit


def _parts(adj: list[int], mask: int):
    """The connected parts of ``mask``, where ``adj[i]`` masks bit i's neighbours."""
    remaining = mask
    while remaining:
        frontier = remaining & -remaining
        part = 0
        while frontier:
            part |= frontier
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1] & remaining
                frontier ^= low
            frontier = grown & ~part
        yield part
        remaining &= ~part


def _pivot_branches(comp: _Component, candidates: int, excluded: int) -> int:
    """The candidates to branch on: the pivot and its candidate neighbors.

    The pivot is the vertex of candidates | excluded with the most
    non-neighbors among the candidates; counting and enumeration share it.
    """
    nonadj = comp.nonadj
    pivot, best = -1, -1
    rest = candidates | excluded
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        gain = (candidates & nonadj[i]).bit_count()
        if gain > best:
            pivot, best = i, gain
    return candidates & ~nonadj[pivot]


@dataclass(frozen=True)
class RepairEnumeration:
    repairs: tuple[tuple[str, ...], ...]
    truncated: bool


def enumerate_repairs(db: Database, fds: FDSet, cap: int = 10000) -> RepairEnumeration:
    """All repairs (maximal consistent subsets) as sorted fact-id tuples.

    A relation's repairs are the Cartesian product of its conflict
    components' maximal independent sets, and relations combine by
    Cartesian product in schema relation order.  Each repair lists its facts
    in load order and each relation's list is sorted, so output order is
    deterministic; the list is truncated at `cap` with an explicit flag, and
    which repairs a truncated list holds follows the enumeration order.
    """
    engine = CoalitionEvaluator(db, fds)
    position = {fact.id: k for k, fact in enumerate(db.facts)}
    load = [position[fact.id] for fact in engine.facts]  # load position of each bit
    per_relation: list[list[tuple[int, ...]]] = []
    for relation in db.schema.relation_names:
        facts = db.facts_of(relation)
        if not facts:
            continue
        per_component = []
        for comp in dict.fromkeys(engine.comp_of[engine.bit_of[f.id]] for f in facts):
            # any prefix of the eventual product only needs this many
            sets = itertools.islice(engine._extend_mis(comp, 0, comp.full, 0, [0]), cap + 1)
            per_component.append(
                [[load[comp.offset + j] for j in engine._bits(mis)] for mis in sets]
            )
        product = itertools.islice(itertools.product(*per_component), cap + 1)
        per_relation.append(sorted(tuple(sorted(itertools.chain(*parts))) for parts in product))

    combined = itertools.islice(itertools.product(*per_relation), cap + 1)
    flat = [tuple(itertools.chain.from_iterable(parts)) for parts in combined]
    truncated = len(flat) > cap
    repairs = tuple(tuple(db.facts[k].id for k in members) for members in flat[:cap])
    return RepairEnumeration(repairs, truncated)
