"""The generated instances of the tests: one row generator per family,
the instances the pin table names, and the one manifest writer.
Standard library only.

Every instance is one relation ``R``: its columns, its FD lines in the FD
file grammar, and its rows in load order.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path
from typing import NamedTuple

CHAIN_FDS = ("R: A -> B", "R: A C -> D")


class Instance(NamedTuple):
    columns: tuple[str, ...]
    fds: tuple[str, ...]
    rows: list[tuple[str, ...]]

    def prefix(self, n: int) -> "Instance":
        return self._replace(rows=self.rows[:n])


def ladder(n: int) -> Instance:
    """R(A,B,C,D) under A -> B, AC -> D: n distinct rows (a from n/10 values,
    b from 3, c from 3, d from 4) drawn from random.Random(0), then sorted
    and shuffled with the same generator, in about n/10 level-1 blocks."""
    rng = random.Random(0)
    rows: dict[tuple[str, ...], None] = {}
    while len(rows) < n:
        row = (f"a{rng.randrange(n // 10)}", f"b{rng.randrange(3)}", f"c{rng.randrange(3)}",
               f"d{rng.randrange(4)}")
        rows.setdefault(row, None)
    ordered = sorted(rows)
    rng.shuffle(ordered)
    return Instance(tuple("ABCD"), CHAIN_FDS, ordered)


def one_block(k: int) -> Instance:
    """R(A,B,C,D) under A -> B, AC -> D: the 4k facts (a, b in 2, c in k,
    d in 2) form one level-1 block and one conflict component."""
    rows = [("a", f"b{b}", f"c{c}", f"d{d}") for b in range(2) for c in range(k) for d in range(2)]
    return Instance(tuple("ABCD"), CHAIN_FDS, rows)


def dense(n: int) -> Instance:
    """Row i is (a0, b{i mod 50}, c{i}) under A -> B: one lhs group of 50
    rhs values, in which every fact conflicts with those of the other 49."""
    rows = [("a0", f"b{i % 50}", f"c{i}") for i in range(n)]
    return Instance(tuple("ABC"), ("R: A -> B",), rows)


def clustered(clusters: int) -> Instance:
    """Clusters of 12 facts under A -> C, B -> C (no lhs chain), drawn from
    random.Random(0), with no conflict across clusters."""
    rng = random.Random(0)
    rows = []
    for k in range(clusters):
        combos = [(f"a{k}_{i}", f"b{k}_{j}", f"c{c}") for i in range(3) for j in range(3)
                  for c in range(3)]
        rows += rng.sample(combos, 12)
    return Instance(tuple("ABC"), ("R: A -> C", "R: B -> C"), rows)


def groups(n: int) -> Instance:
    """n a values times 3 b values under A -> B: 3^n repairs."""
    rows = [(f"a{a}", f"b{b}") for a in range(n) for b in range(3)]
    return Instance(tuple("AB"), ("R: A -> B",), rows)


# The instances that tests name, built on first use.
NAMED = {
    "ladder400": lambda: ladder(400),
    "ladder1000": lambda: ladder(1000),
    "block120": lambda: one_block(30),
    "dense1000": lambda: dense(1000),
    "dense2000": lambda: dense(2000),
    "dense4000": lambda: dense(4000),
    "groups9100": lambda: groups(9100),
    "clustered120": lambda: clustered(10),
    "clustered18": lambda: clustered(10).prefix(18),
    "clustered8": lambda: clustered(10).prefix(8),
}


def write_manifest(directory: Path, instance: Instance) -> Path:
    """Write ``instance`` as r.csv, r.fds and manifest.json in ``directory``."""
    with open(directory / "r.csv", "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows([instance.columns, *instance.rows])
    (directory / "r.fds").write_text("".join(line + "\n" for line in instance.fds))
    manifest = {"schema": {"R": list(instance.columns)}, "data": {"R": "r.csv"}, "fds": "r.fds"}
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path
