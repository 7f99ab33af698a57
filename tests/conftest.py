"""Shared fixtures and deterministic random-instance generators."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import incshap
import instances
from incshap import FD, Database, FDSet, Schema
from incshap.io import parse_fd_file

DATA_DIR = Path(__file__).parent / "data"

TRAIN_ROWS = [
    ("16", "NYP", "BBY", "1030", "315"),
    ("16", "NYP", "PVD", "1030", "250"),
    ("16", "PHL", "WIL", "1030", "20"),
    ("16", "PHL", "BAL", "1030", "70"),
    ("16", "PHL", "WAS", "1030", "120"),
    ("16", "BBY", "PHL", "1030", "260"),
    ("16", "BBY", "NYP", "1030", "260"),
    ("16", "BBY", "WAS", "1030", "420"),
    ("16", "WAS", "PVD", "1030", "390"),
]


@pytest.fixture(scope="session")
def trains():
    schema = Schema.from_dict(
        {"Trains": ["train", "departs", "arrives", "time", "duration"]}
    )
    db = Database.build(schema, {"Trains": TRAIN_ROWS})
    fds = FDSet(
        schema,
        (
            FD("Trains", frozenset({"train", "time"}), frozenset({"departs"})),
            FD(
                "Trains",
                frozenset({"train", "time", "duration"}),
                frozenset({"arrives"}),
            ),
        ),
    )
    return db, fds


def build(instance: instances.Instance) -> tuple[Database, FDSet]:
    """The database and FD set of a generated instance, built in process."""
    schema = Schema.from_dict({"R": instance.columns})
    fds = parse_fd_file("".join(line + "\n" for line in instance.fds), schema)
    return Database.build(schema, {"R": instance.rows}), fds


@pytest.fixture(scope="session")
def manifest_of(tmp_path_factory):
    """The manifest path of ``"trains"`` or of an instance in
    ``instances.NAMED``, each written once per session."""
    paths = {"trains": DATA_DIR / "trains" / "manifest.json"}

    def path(name: str) -> str:
        if name not in paths:
            paths[name] = instances.write_manifest(
                tmp_path_factory.mktemp(name), instances.NAMED[name]()
            )
        return str(paths[name])

    return path


_SRC = str(Path(incshap.__file__).resolve().parent.parent)


def fresh_cli(argv, timeout: float = 60) -> tuple[int, str, str]:
    """``python -m incshap argv`` in a fresh process that imports this
    package: its exit code, stdout and stderr, with no newline translation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "incshap", *argv], capture_output=True, env=env, timeout=timeout
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.fixture(scope="session")
def mini():
    """Three facts over (A, B) with A->B; only the first two conflict."""
    schema = Schema.from_dict({"R": ["A", "B"]})
    db = Database.build(schema, {"R": [("a", "1"), ("a", "2"), ("b", "1")]})
    fds = FDSet(schema, (FD("R", frozenset({"A"}), frozenset({"B"})),))
    return db, fds


@pytest.fixture(scope="session")
def matching_constraint():
    """The A<->B pattern: no lhs chain, but simplify-emptiable."""
    schema = Schema.from_dict({"R": ["A", "B"]})
    db = Database.build(
        schema, {"R": [("a", "1"), ("a", "2"), ("b", "2"), ("c", "3")]}
    )
    fds = FDSet(
        schema,
        (
            FD("R", frozenset({"A"}), frozenset({"B"})),
            FD("R", frozenset({"B"}), frozenset({"A"})),
        ),
    )
    return db, fds


# ---------------------------------------------------------------------------
# Random instance generation (all deterministic via caller-provided rng)

ATTRS3 = ("A", "B", "C")


def random_chain_fds(rng: random.Random, relation: str, attrs=ATTRS3) -> tuple[FD, ...]:
    """FD sets whose left-hand sides form an inclusion chain by construction."""
    attrs = list(attrs)
    x1 = frozenset(rng.sample(attrs, rng.choice([0, 1, 1, 2])))
    rest = [a for a in attrs if a not in x1]
    if not rest:
        x1 = frozenset(rng.sample(attrs, 1))
        rest = [a for a in attrs if a not in x1]
    y1 = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
    fds = [FD(relation, x1, y1)]
    if rng.random() < 0.5:
        extra = [a for a in attrs if a not in x1]
        if extra:
            x2 = x1 | frozenset(rng.sample(extra, rng.randint(1, len(extra))))
            rest2 = [a for a in attrs if a not in x2]
            if rest2:
                fds.append(FD(relation, x2, frozenset(rng.sample(rest2, rng.randint(1, len(rest2))))))
    return tuple(fds)


def random_arbitrary_fds(rng: random.Random, relation: str, attrs=ATTRS3) -> tuple[FD, ...]:
    out = []
    for _ in range(rng.randint(1, 3)):
        lhs = frozenset(rng.sample(list(attrs), rng.choice([0, 1, 1, 2])))
        rest = [a for a in attrs if a not in lhs]
        if not rest:
            continue
        out.append(FD(relation, lhs, frozenset(rng.sample(rest, rng.randint(1, len(rest))))))
    if not out:
        out = [FD(relation, frozenset({attrs[0]}), frozenset({attrs[1]}))]
    return tuple(dict.fromkeys(out))


def random_rows(rng: random.Random, n: int, width: int = 3, domain: str = "012"):
    pool = list(itertools.product(domain, repeat=width))
    return rng.sample(pool, n)


def random_instance(
    rng: random.Random,
    chain: bool,
    n_min: int = 4,
    n_max: int = 8,
) -> tuple[Database, FDSet]:
    schema = Schema.from_dict({"R": list(ATTRS3)})
    maker = random_chain_fds if chain else random_arbitrary_fds
    fds = FDSet(schema, maker(rng, "R"))
    db = Database.build(schema, {"R": random_rows(rng, rng.randint(n_min, n_max))})
    return db, fds


def random_two_relation_instance(rng: random.Random, n_max: int = 5):
    schema = Schema.from_dict({"R": list(ATTRS3), "S": ["X", "Y", "Z"]})
    fds = FDSet(
        schema,
        random_chain_fds(rng, "R", ATTRS3) + random_chain_fds(rng, "S", ("X", "Y", "Z")),
    )
    db = Database.build(
        schema,
        {
            "R": random_rows(rng, rng.randint(1, n_max)),
            "S": random_rows(rng, rng.randint(1, n_max)),
        },
    )
    return db, fds


def symmetric_pairs(graph):
    """Fact-index pairs with identical neighborhoods (excluding each other)."""
    pairs = []
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if graph.neighbors(i) - {j} == graph.neighbors(j) - {i}:
                pairs.append((i, j))
    return pairs
