"""Relational core: schemas, facts, databases, FDs, conflict graphs, and
from group counts: conflict components and consistency (`_conflict_groups`,
their one rule) and sums over conflict partners.  `Schema.key` is the one
grouping key, of conflict graphs, block trees and partner sums alike.

Constants are opaque strings compared by exact equality; databases are sets
(duplicate rows within a relation are rejected).  Everything here is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator

from .errors import ArityError, DuplicateFactError, InputError, SchemaError


@dataclass(frozen=True)
class Schema:
    """Relation names mapped to their ordered attribute lists."""

    relations: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        positions: dict[str, dict[str, int]] = {}
        for name, attrs in self.relations:
            if name in positions:
                raise SchemaError(f"duplicate relation name {name!r}")
            if not attrs:
                raise SchemaError(f"relation {name!r} has no attributes")
            if len(set(attrs)) != len(attrs):
                raise SchemaError(f"relation {name!r} has duplicate attributes")
            positions[name] = {a: i for i, a in enumerate(attrs)}
        # Lookup indexes, built once (not fields: equality and hashing ignore them).
        object.__setattr__(self, "_attributes", dict(self.relations))
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def from_dict(cls, mapping: dict[str, Iterable[str]]) -> "Schema":
        return cls(tuple((name, tuple(attrs)) for name, attrs in mapping.items()))

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def attributes(self, relation: str) -> tuple[str, ...]:
        try:
            return self._attributes[relation]
        except KeyError:
            raise SchemaError(f"unknown relation {relation!r}") from None

    def has_relation(self, relation: str) -> bool:
        return relation in self._attributes

    def position(self, relation: str, attribute: str) -> int:
        self.attributes(relation)
        try:
            return self._positions[relation][attribute]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {attribute!r} in relation {relation!r}"
            ) from None

    def key(self, relation: str, attributes: Iterable[str]) -> Callable[[tuple], Hashable]:
        """A function from a fact's values to a key that two facts of `relation`
        share iff they agree on `attributes`; the names are checked once."""
        self.attributes(relation)
        positions = [self.position(relation, a) for a in sorted(attributes)]
        return itemgetter(*positions) if positions else lambda values: ()

    def group(self, facts: Iterable["Fact"], attributes: Iterable[str]) -> list[tuple["Fact", ...]]:
        """Maximal groups of `facts` (of one relation) equal on `attributes`, in
        first-fact order: `group_by` on this schema's key."""
        facts = tuple(facts)
        return group_by(facts, self.key(facts[0].relation, attributes)) if facts else []


def group_by(facts: Iterable["Fact"], key: Callable[[tuple], Hashable]) -> list[tuple["Fact", ...]]:
    """Maximal groups of `facts` with equal `key(values)`, in first-fact order:
    the one grouping rule of conflict graphs and block trees, which build
    each key once (`Schema.key`) and group many fact sets by it."""
    groups: dict[Hashable, list[Fact]] = {}
    for fact in facts:
        groups.setdefault(key(fact.values), []).append(fact)
    return [tuple(g) for g in groups.values()]


@dataclass(frozen=True)
class Fact:
    """One tuple.  ``index`` is the zero-based load position within its relation."""

    relation: str
    values: tuple[str, ...]
    index: int

    @property
    def id(self) -> str:
        return f"{self.relation}:{self.index}"

    def __repr__(self):
        return f"Fact({self.id}={','.join(self.values)})"


@dataclass(frozen=True)
class FD:
    """Functional dependency lhs -> rhs over one relation."""

    relation: str
    lhs: frozenset[str]
    rhs: frozenset[str]

    def __str__(self):
        left = " ".join(sorted(self.lhs)) if self.lhs else "_"
        return f"{self.relation}: {left} -> {' '.join(sorted(self.rhs))}"

    def sort_key(self):
        return (len(self.lhs), tuple(sorted(self.lhs)), tuple(sorted(self.rhs)))


@dataclass(frozen=True)
class FDSet:
    """A set of FDs together with the schema they are validated against."""

    schema: Schema
    fds: tuple[FD, ...]

    def __post_init__(self):
        for fd in self.fds:
            attrs = set(self.schema.attributes(fd.relation))
            unknown = (fd.lhs | fd.rhs) - attrs
            if unknown:
                raise SchemaError(
                    f"FD {fd} uses unknown attributes {sorted(unknown)}"
                )
            if not fd.rhs:
                raise SchemaError(f"FD {fd} has an empty right-hand side")

    def per_relation(self, relation: str) -> tuple[FD, ...]:
        if not self.schema.has_relation(relation):
            raise SchemaError(f"unknown relation {relation!r}")
        return tuple(fd for fd in self.fds if fd.relation == relation)

    def __iter__(self) -> Iterator[FD]:
        return iter(self.fds)

    def __len__(self) -> int:
        return len(self.fds)


@dataclass(frozen=True)
class Database:
    """Facts partitioned by relation, kept in deterministic load order."""

    schema: Schema
    facts: tuple[Fact, ...] = field(default=())

    def __post_init__(self):
        """One pass checks each fact's arity, position and uniqueness."""
        by_relation: dict[str, list[Fact]] = {name: [] for name in self.schema.relation_names}
        by_id: dict[str, Fact] = {}
        first_of: dict[tuple[str, tuple[str, ...]], Fact] = {}
        for fact in self.facts:
            attrs = self.schema.attributes(fact.relation)
            if len(fact.values) != len(attrs):
                raise ArityError(
                    f"fact {fact.id} has {len(fact.values)} values, expected {len(attrs)}", fact
                )
            if fact.index != len(by_relation[fact.relation]):
                raise InputError(f"fact {fact.id} is not at position {fact.index} of its relation")
            first = first_of.setdefault((fact.relation, fact.values), fact)
            if first is not fact:
                raise DuplicateFactError(
                    f"duplicate fact in relation {fact.relation!r}: {fact.id} repeats {first.id}",
                    fact,
                    first,
                )
            by_relation[fact.relation].append(fact)
            by_id[fact.id] = fact
        # Lookup indexes, built once (not fields: equality and hashing ignore them).
        object.__setattr__(
            self, "_by_relation", {name: tuple(fs) for name, fs in by_relation.items()}
        )
        object.__setattr__(self, "_by_id", by_id)

    @classmethod
    def build(cls, schema: Schema, rows: dict[str, Iterable[Iterable[str]]]) -> "Database":
        """Construct from per-relation row lists, assigning load indexes."""
        unknown = next((r for r in rows if not schema.has_relation(r)), None)
        if unknown is not None:
            raise SchemaError(f"rows given for unknown relation {unknown!r}")
        facts = []
        for relation in schema.relation_names:
            for i, row in enumerate(rows.get(relation, ())):
                facts.append(Fact(relation, tuple(row), i))
        return cls(schema, tuple(facts))

    def facts_of(self, relation: str) -> tuple[Fact, ...]:
        return self._by_relation.get(relation, ())

    def get(self, fact_id: str) -> Fact:
        try:
            return self._by_id[fact_id]
        except KeyError:
            raise InputError(f"no fact with id {fact_id!r}") from None

    def __contains__(self, fact: Fact) -> bool:
        stored = self._by_id.get(fact.id)
        return stored is fact or stored == fact

    def require(self, facts: Iterable[Fact]) -> None:
        """Raise InputError for the first of `facts` not in the database."""
        for fact in facts:
            if fact not in self:
                raise InputError(f"fact {fact.id} is not in the database")

    def __len__(self) -> int:
        return len(self.facts)


@dataclass(frozen=True)
class ConflictGraph:
    """Pairs of same-relation facts that jointly violate at least one FD.

    Vertices are the relation's load indexes; edges are (i, j) with i < j.
    """

    relation: str
    facts: tuple[Fact, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.facts)

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        """Conflict partners of every vertex, built once per graph."""
        adj: dict[int, set[int]] = {f.index: set() for f in self.facts}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return {i: frozenset(s) for i, s in adj.items()}

    def neighbors(self, index: int) -> frozenset[int]:
        return self.adjacency[index]

    def degree(self, index: int) -> int:
        return len(self.adjacency[index])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adjacency.get(i, ())


def _check_same_schema(f: Fact, g: Fact, fds: FDSet) -> None:
    for fact in (f, g):
        if not fds.schema.has_relation(fact.relation):
            raise SchemaError(f"fact {fact.id} is not over the FD set's schema")
        if len(fact.values) != len(fds.schema.attributes(fact.relation)):
            raise SchemaError(f"fact {fact.id} has the wrong arity for its relation")


def violates(f: Fact, g: Fact, fds: FDSet) -> bool:
    """True iff f and g jointly violate some FD: equal on a lhs, different on its rhs."""
    _check_same_schema(f, g, fds)
    if f.relation != g.relation:
        return False

    def agree(attributes):
        return all(
            f.values[p] == g.values[p]
            for p in (fds.schema.position(f.relation, a) for a in attributes)
        )

    return any(agree(fd.lhs) and not agree(fd.rhs) for fd in fds.per_relation(f.relation))


def build_conflict_graph(db: Database, fds: FDSet) -> dict[str, ConflictGraph]:
    """Per-relation conflict graphs; vertex order is fact load order.

    Edges are the cross pairs of each FD's rhs groups inside each of its lhs
    groups (`Schema.group`), so the cost is near-linear in facts plus
    quadratic only inside conflicting groups.
    """
    if db.schema != fds.schema:
        raise SchemaError("database and FD set are over different schemas")
    graphs = {}
    for relation in db.schema.relation_names:
        facts = db.facts_of(relation)
        edges: set[tuple[int, int]] = set()
        for fd in fds.per_relation(relation):
            rhs = db.schema.key(relation, fd.rhs)
            for group in db.schema.group(facts, fd.lhs):
                parts = group_by(group, rhs)
                for a, part in enumerate(parts):
                    for other in parts[a + 1 :]:
                        for x in part:
                            for y in other:
                                i, j = sorted((x.index, y.index))
                                edges.add((i, j))
        graphs[relation] = ConflictGraph(relation, facts, tuple(sorted(edges)))
    return graphs


def merge_lhs(fds: Iterable[FD]) -> tuple[FD, ...]:
    """One FD per distinct lhs of `fds` (one relation's), in first-FD order,
    whose rhs is the union of the rhs of the FDs with that lhs."""
    merged: dict[frozenset[str], FD] = {}
    for fd in fds:
        prior = merged.get(fd.lhs)
        merged[fd.lhs] = fd if prior is None else FD(fd.relation, fd.lhs, prior.rhs | fd.rhs)
    return tuple(merged.values())


def _conflict_groups(db: Database, fds: FDSet, relation: str) -> Iterator[tuple[Fact, ...]]:
    """Each lhs group of a merged FD (`merge_lhs`) of `relation` whose facts
    have two or more rhs projections, lazily.  Two facts conflict iff they
    share such a group and differ on its rhs, and a group's conflict graph
    is complete multipartite, so connected."""
    for fd in merge_lhs(fds.per_relation(relation)):
        rhs = db.schema.key(relation, fd.rhs)
        for group in db.schema.group(db.facts_of(relation), fd.lhs):
            if len({rhs(f.values) for f in group}) > 1:
                yield group


def conflict_components(db: Database, fds: FDSet) -> list[list[Fact]]:
    """The connected components of the conflict graphs, isolated facts
    included, without the graphs: in the order of their first fact in load
    order, each with its facts in load order.

    A union-find joins the facts of each conflict group (`_conflict_groups`),
    which is connected and holds every conflict.
    """
    if db.schema != fds.schema:
        raise SchemaError("database and FD set are over different schemas")
    parent = list(range(len(db.facts)))
    positions: dict[str, list[int]] = {name: [] for name in db.schema.relation_names}
    for k, fact in enumerate(db.facts):
        positions[fact.relation].append(k)

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for relation, places in positions.items():
        for group in _conflict_groups(db, fds, relation):
            root = find(places[group[0].index])
            for f in group[1:]:
                parent[find(places[f.index])] = root
    members: dict[int, list[Fact]] = {}
    for k, fact in enumerate(db.facts):
        members.setdefault(find(k), []).append(fact)
    return list(members.values())


def _conflict_terms(fds: Iterable[FD]) -> list[tuple[frozenset[str], int]]:
    """Signed attribute sets (S, c): the c of the sets on which g agrees with
    f sum to 1 if g conflicts with f, else to 0.  This expands 1 - product
    over FDs of (1 - [agree on lhs] + [agree on lhs + rhs]); indicators
    multiply as their sets unite, and equal sets merge after each factor.
    FDs that share an lhs merge first, which keeps their conflicts."""
    product = {frozenset(): 1}
    for lhs, full in ((fd.lhs, fd.lhs | fd.rhs) for fd in merge_lhs(fds)):
        step: dict[frozenset[str], int] = {}
        for s, c in product.items():
            for t, d in ((s, c), (s | lhs, -c), (s | full, c)):
                step[t] = step.get(t, 0) + d
        product = {s: c for s, c in step.items() if c}
    terms = {s: -c for s, c in product.items()}
    terms[frozenset()] = terms.get(frozenset(), 0) + 1
    return [(s, c) for s, c in terms.items() if c]


def partner_sums(db: Database, fds: FDSet, relation: str, weights: list[int]) -> list[int]:
    """Per fact of `relation`, in load order: the summed `weights` (one per
    fact, in load order) of its conflict partners, from group counts with no
    conflict graph.  Each term (S, c) adds c times the weights of the facts
    equal to the fact on S; the fact's own weight cancels, as no fact
    conflicts with itself."""
    rows = [f.values for f in db.facts_of(relation)]
    sums = [0] * len(rows)
    for attrs, c in _conflict_terms(fds.per_relation(relation)):
        keys = list(map(db.schema.key(relation, attrs), rows))
        groups: dict = {}
        for key, w in zip(keys, weights):
            groups[key] = groups.get(key, 0) + w
        sums = [s + c * groups[key] for s, key in zip(sums, keys)]
    return sums


def is_consistent(db: Database, fds: FDSet) -> bool:
    """For FDs, set consistency is pairwise consistency: no relation has a
    conflict group (`_conflict_groups`); the test stops at the first."""
    if db.schema != fds.schema:
        raise SchemaError("database and FD set are over different schemas")
    return not any(g for r in db.schema.relation_names for g in _conflict_groups(db, fds, r))
