"""The five inconsistency measures, evaluated exactly on conflict graphs.

For FDs, a fact set is consistent iff it is pairwise consistent, so repairs
are exactly maximal independent sets of the conflict graph and the
cardinality-repair cost is its minimum vertex cover.  The coalition
evaluator computes any measure on any fact subset, whatever the FD class,
for the sampler, the oracle, and the whole-database measure of the
relations without an lhs chain (``exact.Game.total``).  Its
vertex-cover and repair-counting searches are exponential in the worst
case and honor an optional node budget that counts memo misses only: vertex
covers are memoized per induced subgraph, repair counts per search state.

The sampler grows a coalition one fact i at a time.  Facts outside i's
home, its conflict component in the whole database, never change the r or
mc marginal, so a step evaluates only i's region, the coalition within the
home, and the grown region with i.  Both are memoized as whole masks: cover
size and repair count of a disconnected mask are the sum and product over
its components, so these entries agree with every other key (a count key
with excluded facts is at least 2**n and never collides).  A minimum
cover of the grown region either takes i or takes every neighbour of i,
so an r miss searches only the region less i's neighbours.  Each miss on a
grown region is one budget node.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError, InputError, SchemaError
from .relational import Database, FDSet, build_conflict_graph


class MeasureKind(enum.Enum):
    DRASTIC = "d"
    MI = "mi"
    P = "p"
    R = "r"
    MC = "mc"


def check_budget(budget: int | None) -> None:
    """Reject a negative node budget; None means unbounded."""
    if budget is not None and budget < 0:
        raise InputError(f"the node budget must be non-negative, got {budget}")


class CoalitionEvaluator:
    """Evaluates any measure on arbitrary fact subsets encoded as bitmasks.

    Bit i corresponds to ``facts[i]`` (database load order across relations).
    Vertex covers are memoized per induced-subgraph mask and repair counts
    per (candidates, excluded) search state, so repeated coalition queries
    (oracles, samplers) stay cheap; a memo hit costs no node of the budget.
    """

    def __init__(self, db: Database, fds: FDSet, budget: int | None = None):
        if db.schema != fds.schema:
            raise SchemaError("database and FD set are over different schemas")
        check_budget(budget)
        self.db = db
        self.fds = fds
        self.budget = budget
        self.facts = db.facts
        self.bit_of = {fact.id: i for i, fact in enumerate(self.facts)}
        self.full_mask = (1 << len(self.facts)) - 1
        self.adj = [0] * len(self.facts)
        self.graphs = build_conflict_graph(db, fds)
        for relation, graph in self.graphs.items():
            for i, j in graph.edges:
                gi = self.bit_of[graph.facts[i].id]
                gj = self.bit_of[graph.facts[j].id]
                self.adj[gi] |= 1 << gj
                self.adj[gj] |= 1 << gi
        self.home = [0] * len(self.facts)
        for comp in self._components(self.full_mask):
            for j in self._bits(comp):
                self.home[j] = comp
        self._vc_memo: dict[int, int] = {}
        self._mis_memo: dict[int, int] = {}

    def mask_of(self, fact_ids) -> int:
        mask = 0
        for fid in fact_ids:
            mask |= 1 << self.bit_of[fid]
        return mask

    def _bits(self, mask: int):
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
        if kind is MeasureKind.DRASTIC:
            return self.drastic(mask)
        if kind is MeasureKind.MI:
            return self.violating_pairs(mask)
        if kind is MeasureKind.P:
            return self.problematic(mask)
        if kind is MeasureKind.R:
            return self.repair_cost(mask)
        if kind is MeasureKind.MC:
            return self.repair_count(mask)
        raise ValueError(f"unknown measure kind {kind!r}")

    def drastic(self, mask: int) -> int:
        for i in self._bits(mask):
            if self.adj[i] & mask:
                return 1
        return 0

    def violating_pairs(self, mask: int) -> int:
        total = 0
        for i in self._bits(mask):
            total += (self.adj[i] & mask).bit_count()
        return total // 2

    def problematic(self, mask: int) -> int:
        return sum(1 for i in self._bits(mask) if self.adj[i] & mask)

    def _components(self, mask: int):
        remaining = mask
        while remaining:
            frontier = remaining & -remaining
            comp = 0
            while frontier:
                comp |= frontier
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= self.adj[low.bit_length() - 1] & remaining
                    frontier ^= low
                frontier = grown & ~comp
            yield comp
            remaining &= ~comp

    def repair_cost(self, mask: int) -> int:
        """Minimum vertex cover of the induced conflict graph."""
        return sum(self._vc(comp) for comp in self._components(mask))

    def _cost(self, mask: int, nodes: list) -> int:
        """``repair_cost`` memoized per mask, its searches spending ``nodes``."""
        cost = self._vc_memo.get(mask)
        if cost is None:
            cost = self._vc_memo[mask] = sum(
                self._vc(comp, nodes) for comp in self._components(mask)
            )
        return cost

    def _vc(self, mask: int, _nodes: list | None = None) -> int:
        if mask in self._vc_memo:
            return self._vc_memo[mask]
        if _nodes is None:
            _nodes = [0]
        self._spend(_nodes, "vertex-cover search")
        best_i, best_deg = -1, -1
        pendant = -1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            deg = (self.adj[i] & mask).bit_count()
            if deg == 1 and pendant < 0:
                pendant = i
            if deg > best_deg:
                best_i, best_deg = i, deg
        if best_deg <= 0:
            result = 0
        elif pendant >= 0:
            # A degree-1 vertex: some minimum cover takes its neighbor.
            neighbor_bit = self.adj[pendant] & mask
            result = 1 + self._vc(mask & ~neighbor_bit & ~(1 << pendant), _nodes)
        else:
            take_v = 1 + self._vc(mask & ~(1 << best_i), _nodes)
            closed = (self.adj[best_i] & mask) | (1 << best_i)
            take_neighbors = best_deg + self._vc(mask & ~closed, _nodes)
            result = min(take_v, take_neighbors)
        self._vc_memo[mask] = result
        return result

    def repair_count(self, mask: int) -> int:
        """Number of maximal independent sets; 1 for the empty set."""
        result = 1
        for comp in self._components(mask):
            result *= self._count_mis(comp, 0, [0])
        return result

    def _count_mis(self, candidates: int, excluded: int, nodes: list) -> int:
        """Number of repairs ``_extend_mis`` would yield from this state, without yielding them."""
        if not candidates:
            return 0 if excluded else 1
        key = candidates | excluded << len(self.facts)
        count = self._mis_memo.get(key)
        if count is not None:
            return count
        self._spend(nodes, "repair enumeration")
        branch = self._pivot_branches(candidates, excluded)
        count = 0
        while branch:
            bit = branch & -branch
            branch ^= bit
            nonadj = ~self.adj[bit.bit_length() - 1] & ~bit
            count += self._count_mis(candidates & nonadj, excluded & nonadj, nodes)
            candidates &= ~bit
            excluded |= bit
        self._mis_memo[key] = count
        return count

    def value_with(self, kind: MeasureKind, mask: int, value: int, i: int) -> int:
        """Value of ``mask | 1 << i``, given ``value``, the value of ``mask`` (i not in mask).

        For r and mc only i's region, ``mask & home[i]``, can change.  The
        region and ``grown``, the region with i, are memoized as whole masks.
        A minimum cover of ``grown`` takes i or every neighbour of i, so an r
        miss on ``grown`` searches only the region less i's neighbours; an mc
        miss counts the repairs of the component i joins.  A miss on ``grown``
        is one node of a per-step counter that its r sub-searches share.
        """
        touching = self.adj[i] & mask
        if kind is MeasureKind.DRASTIC:
            return 1 if value or touching else 0
        if kind is MeasureKind.MI:
            return value + touching.bit_count()
        if kind is MeasureKind.P:
            newly = sum(1 for h in self._bits(touching) if not self.adj[h] & mask)
            return value + (1 if touching else 0) + newly
        if kind is not MeasureKind.R and kind is not MeasureKind.MC:
            raise ValueError(f"unknown measure kind {kind!r}")
        if not touching:
            return value
        region = mask & self.home[i]
        grown = region | 1 << i
        if kind is MeasureKind.R:
            nodes = [0]
            before = self._cost(region, nodes)
            after = self._vc_memo.get(grown)
            if after is None:
                self._spend(nodes, "vertex-cover search")
                rest = self._cost(region & ~self.adj[i], nodes)
                after = self._vc_memo[grown] = min(before + 1, touching.bit_count() + rest)
            return value - before + after
        before = self._mis_memo.get(region)
        if before is None:
            before = self._mis_memo[region] = self.repair_count(region)
        after = self._mis_memo.get(grown)
        if after is None:
            after = self._mis_memo[grown] = self.repair_count(grown)
        return value // before * after

    def _pivot_branches(self, candidates: int, excluded: int) -> int:
        """The candidates to branch on: the pivot and its candidate neighbors.

        The pivot is the vertex of candidates | excluded with the most
        non-neighbors among the candidates; counting and enumeration share it.
        """
        adj = self.adj
        pivot, best = -1, -1
        rest = candidates | excluded
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            gain = (candidates & ~adj[i] & ~low).bit_count()
            if gain > best:
                pivot, best = i, gain
        return candidates & (adj[pivot] | 1 << pivot)

    def _maximal_independent_sets(self, mask: int):
        """Pivoting enumeration (clique search on the implicit complement)."""
        return self._extend_mis(0, mask, 0, [0])

    def _extend_mis(self, current: int, candidates: int, excluded: int, nodes: list):
        # A method rather than a nested generator: a closure that refers to
        # itself forms a reference cycle that keeps the evaluator and its
        # memos alive until the cyclic garbage collector runs.
        self._spend(nodes, "repair enumeration")
        if not candidates and not excluded:
            yield current
            return
        for i in self._bits(self._pivot_branches(candidates, excluded)):
            bit = 1 << i
            nonadj = ~self.adj[i] & ~bit
            yield from self._extend_mis(
                current | bit, candidates & nonadj, excluded & nonadj, nodes
            )
            candidates &= ~bit
            excluded |= bit


@dataclass(frozen=True)
class RepairEnumeration:
    repairs: tuple[tuple[str, ...], ...]
    truncated: bool


def enumerate_repairs(db: Database, fds: FDSet, cap: int = 10000) -> RepairEnumeration:
    """All repairs (maximal consistent subsets) as sorted fact-id tuples.

    Per-relation maximal independent sets are combined by Cartesian product
    in schema relation order; output order is deterministic and the list is
    truncated at `cap` with an explicit flag.
    """
    engine = CoalitionEvaluator(db, fds)
    per_relation: list[list[tuple[int, ...]]] = []
    for relation in db.schema.relation_names:
        facts = db.facts_of(relation)
        if not facts:
            continue
        mask = engine.mask_of(f.id for f in facts)
        sets = []
        for mis in engine._maximal_independent_sets(mask):
            sets.append(tuple(sorted(engine._bits(mis))))
            if len(sets) > cap:
                break  # any prefix of the eventual product only needs this many
        per_relation.append(sorted(sets))

    combined = itertools.islice(itertools.product(*per_relation), cap + 1)
    flat = [tuple(itertools.chain.from_iterable(parts)) for parts in combined]
    truncated = len(flat) > cap
    repairs = tuple(
        tuple(engine.facts[i].id for i in members) for members in flat[:cap]
    )
    return RepairEnumeration(repairs, truncated)
