"""The block/subblock tree that drives the chain dynamic programs.

For a chain-ordered FD list, level-i block vertices group their parent's
facts by the i-th lhs; level-i subblock vertices further group a block by
the i-th rhs.  Facts in different subblocks of one block always violate
that level's FD with each other, while facts in different blocks under one
subblock never conflict at all, so a vertex's consistency structure
decomposes over its children.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import InputError
from .relational import FD, Fact, Schema


class VertexKind(enum.Enum):
    ROOT = "root"
    BLOCK = "block"
    SUBBLOCK = "subblock"


@dataclass(eq=False)
class Vertex:
    kind: VertexKind
    level: int  # FD index, 1-based; 0 for the root
    facts: tuple[Fact, ...]
    children: list["Vertex"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return len(self.facts)


@dataclass(frozen=True)
class BlockTree:
    relation: str
    chain: tuple[FD, ...]
    root: Vertex
    schema: Schema

    def vertices(self) -> Iterator[Vertex]:
        """Preorder traversal; deterministic given the construction order."""
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(v.children))

    def find(self, fact_ids: Iterable[str]) -> Vertex | None:
        wanted = frozenset(fact_ids)
        for v in self.vertices():
            if frozenset(f.id for f in v.facts) == wanted:
                return v
        return None

    def dump(self) -> str:
        lines: list[str] = []

        def walk(v: Vertex, depth: int):
            ids = ",".join(f.id for f in v.facts)
            lines.append(f"{'  ' * depth}{v.kind.value}[L{v.level}] {{{ids}}}")
            for c in v.children:
                walk(c, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def _group(facts, schema: Schema, attrs) -> list[tuple[Fact, ...]]:
    """Maximal same-value groups on `attrs`, ordered by first fact load index."""
    groups: dict[tuple[str, ...], list[Fact]] = {}
    for fact in facts:
        groups.setdefault(schema.project(fact, attrs), []).append(fact)
    return [tuple(g) for g in groups.values()]


def build_tree(facts: Iterable[Fact], chain: tuple[FD, ...], schema: Schema) -> BlockTree:
    """Build the alternating block/subblock tree for a chain-ordered FD list."""
    facts = tuple(sorted(facts, key=lambda f: f.index))
    for a, b in zip(chain, chain[1:]):
        if not a.lhs <= b.lhs:
            raise InputError("FD list is not in ascending lhs-chain order")
    relations = {f.relation for f in facts} | {fd.relation for fd in chain}
    if len(relations) > 1:
        raise InputError("tree facts and chain must share one relation")
    relation = next(iter(relations)) if relations else ""

    def expand(parent: Vertex, level: int):
        if level > len(chain):
            return
        fd = chain[level - 1]
        for block_facts in _group(parent.facts, schema, fd.lhs):
            block = Vertex(VertexKind.BLOCK, level, block_facts)
            parent.children.append(block)
            for sub_facts in _group(block_facts, schema, fd.rhs):
                sub = Vertex(VertexKind.SUBBLOCK, level, sub_facts)
                block.children.append(sub)
                expand(sub, level + 1)

    root = Vertex(VertexKind.ROOT, 0, facts)
    if facts:
        expand(root, 1)
    return BlockTree(relation, chain, root, schema)
