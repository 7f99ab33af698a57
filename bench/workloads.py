"""Seeded instance generators for the benchmark's three workloads.

Each workload fixes a conflict structure: a set of rows drawn once from
the workload's distribution with ``structure_seed``.  The run's seed then
permutes the values of every column and shuffles the row order.  Both are
bijections on the equality pattern, so every seed gives different input
files (different fact ids, labels and load order) with isomorphic conflict
graphs and block trees.  Run-to-run spread is then machine noise, not
instance-to-instance variation in the work.

``small`` parameters give the same generator at 12 facts or fewer, for the
brute-force oracle spot-check.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
MEASURES = ("mi", "p", "d", "mc", "r")
EPSILON = 0.1
DELTA = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    measures: tuple[str, ...]
    params: dict
    small: dict
    make_rows: Callable[[dict, random.Random], dict]  # -> {relation: [row, ...]}
    schema: dict
    fds: tuple[str, ...]
    expect: dict  # generator self-test: classes, and optional component facts

    def shapley_argv(self, manifest: Path, measure: str, seed: int) -> list[str]:
        argv = ["--manifest", str(manifest), "shapley", "--measure", measure, "--all"]
        if self.method == "approx":
            argv += ["--method", "approx", "--eps", str(EPSILON), "--delta", str(DELTA)]
            argv += ["--seed", str(seed)]
        return argv


def _draw_distinct(rng: random.Random, n: int, domains: list) -> list[tuple[str, ...]]:
    """n distinct rows; column i takes values prefix_i + str(0..k_i-1) uniformly."""
    capacity = 1
    for _, k in domains:
        capacity *= k
    if n > capacity:
        raise ValueError(f"cannot draw {n} distinct rows from {capacity} combinations")
    rows: dict[tuple[str, ...], None] = {}
    while len(rows) < n:
        rows.setdefault(tuple(f"{p}{rng.randrange(k)}" for p, k in domains), None)
    return list(rows)


def _chain_rows(params: dict, rng: random.Random) -> dict:
    return {
        rel: _draw_distinct(rng, spec["n"], spec["domains"])
        for rel, spec in params["relations"].items()
    }


def _one_block_rows(params: dict, rng: random.Random) -> dict:
    return {
        "R": [
            ("a", f"b{b}", f"c{c}", f"d{d}")
            for b in range(params["b"])
            for c in range(params["c"])
            for d in range(params["d"])
        ]
    }


def _clustered_rows(params: dict, rng: random.Random) -> dict:
    """Clusters with private A and B values and shared C values.

    A fact conflicts only with facts sharing its A or B value, so no
    conflict component spans two clusters.
    """
    k, c = params["values_per_cluster"], params["shared_c"]
    rows = []
    for cluster in range(params["clusters"]):
        combos = [
            (f"a{cluster}_{i}", f"b{cluster}_{j}", f"c{l}")
            for i in range(k)
            for j in range(k)
            for l in range(c)
        ]
        rows += rng.sample(combos, params["cluster_size"])
    return {"R": rows}


def _permute(rows: list[tuple[str, ...]], rng: random.Random) -> list[tuple[str, ...]]:
    """Relabel each column by a random bijection of its values, then shuffle."""
    maps = []
    for col in zip(*rows):
        values = sorted(set(col))
        images = values[:]
        rng.shuffle(images)
        maps.append(dict(zip(values, images)))
    out = [tuple(m[v] for m, v in zip(maps, row)) for row in rows]
    rng.shuffle(out)
    return out


def generate(workload: Workload, seed: int, small: bool = False) -> dict:
    """Rows per relation for one seed (see the module docstring)."""
    params = workload.small if small else workload.params
    template = workload.make_rows(params, random.Random(params["structure_seed"]))
    rng = random.Random(seed)
    return {rel: _permute(rows, rng) for rel, rows in template.items()}


def write_instance(workload: Workload, rows: dict, directory: Path) -> Path:
    """Write CSV files, the FD file and the manifest; return the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    data = {}
    for rel, attrs in workload.schema.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(attrs)
        writer.writerows(rows[rel])
        (directory / f"{rel}.csv").write_text(buf.getvalue(), encoding="utf-8")
        data[rel] = f"{rel}.csv"
    (directory / "instance.fds").write_text("\n".join(workload.fds) + "\n", encoding="utf-8")
    manifest = {"schema": workload.schema, "data": data, "fds": "instance.fds"}
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


WORKLOADS = {
    w.name: w
    for w in (
        # Many small blocks over two lhs-chain relations: the mi/p closed
        # forms and the per-fact tree rebuilds of d/mc/r carry the work, and
        # d/mc also run the multi-relation combine.
        Workload(
            name="chain-exact",
            method="exact",
            measures=MEASURES,
            params={
                "structure_seed": 0,
                "relations": {
                    "R": {"n": 50, "domains": [["a", 5], ["b", 3], ["c", 3], ["d", 4]]},
                    "S": {"n": 25, "domains": [["x", 4], ["y", 3], ["z", 10]]},
                },
            },
            small={
                "structure_seed": 0,
                "relations": {
                    "R": {"n": 8, "domains": [["a", 1], ["b", 3], ["c", 3], ["d", 4]]},
                    "S": {"n": 4, "domains": [["x", 2], ["y", 3], ["z", 10]]},
                },
            },
            make_rows=_chain_rows,
            schema={"R": ["A", "B", "C", "D"], "S": ["X", "Y", "Z"]},
            fds=("R: A -> B", "R: A C -> D", "S: X -> Y"),
            expect={"classes": {"R": "LhsChain", "S": "LhsChain"}},
        ),
        # One conflict component with 2^17 repairs: the block-merge kernel
        # of r and the repair enumeration behind total_measure carry the
        # work.
        Workload(
            name="one-block",
            method="exact",
            measures=("d", "mc", "r"),
            params={"structure_seed": 0, "b": 2, "c": 16, "d": 2},
            small={"structure_seed": 0, "b": 2, "c": 3, "d": 2},
            make_rows=_one_block_rows,
            schema={"R": ["A", "B", "C", "D"]},
            fds=("R: A -> B", "R: A C -> D"),
            expect={"classes": {"R": "LhsChain"}, "components": 1, "measure_mc": 131072},
        ),
        # A HardCRepair FD set, so exact d/mc/r are refused and the sampler
        # with the coalition evaluator does all the work; clusters keep the
        # components small enough for the evaluator's exponential searches.
        Workload(
            name="hard-approx",
            method="approx",
            measures=("d", "r", "mc"),
            params={
                "structure_seed": 0,
                "clusters": 10,
                "cluster_size": 12,
                "values_per_cluster": 3,
                "shared_c": 3,
            },
            small={
                "structure_seed": 0,
                "clusters": 1,
                "cluster_size": 12,
                "values_per_cluster": 3,
                "shared_c": 3,
            },
            make_rows=_clustered_rows,
            schema={"R": ["A", "B", "C"]},
            fds=("R: A -> C", "R: B -> C"),
            expect={"classes": {"R": "HardCRepair"}, "max_component": 12},
        ),
    )
}
