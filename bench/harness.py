"""Untraced benchmark run: generate, check, time `shapley --all` per measure.

Commands run in-process through ``incshap.cli.run_command``, one after
another: a closed loop with one client, one process and one thread.  Every
timing reported is a median over the run's samples of that command.

The machine may be shared, and then its speed drifts: on a 2-vCPU VM the
same command's wall time moved by a third over a few minutes, every
command of a run together.  So each sample is also scaled to a fixed
machine speed.  A short reference loop of the benchmark's own (no program
code) runs between consecutive commands; a sample's scaled time is its
wall time times REFERENCE_S over the mean of the reference times just
before and after it.  That is the time the command would take on a machine
that runs the reference loop in REFERENCE_S.  The end-to-end metrics are
scaled medians; wall-clock medians are printed beside them.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from incshap import (
    ApproxParams,
    MeasureKind,
    build_conflict_graph,
    estimate_shapley,
    load_instance,
    load_manifest,
)
from incshap.cli import run_command

from workloads import DEFAULT_SEED, DELTA, EPSILON, MEASURES, Workload, generate, write_instance

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTS = BENCH / "digests.json"
SETUP_RUNS = 7
REFERENCE_S = 0.007  # the reference loop's time at the nominal machine speed
APPROX_SPOT_FACTS = 3


class Checks:
    """Tally of checked operations; an operation fails if any of its checks does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def record(self, operation: str, results: dict[str, bool]) -> None:
        self.attempted += 1
        bad = [name for name, ok in results.items() if not ok]
        if bad:
            self.failed += 1
        for name in bad:
            key = f"{operation}: {name}"
            self.failures[key] = self.failures.get(key, 0) + 1


def run_cli(argv: list[str]) -> tuple[int | str, str, float]:
    """One in-process CLI command: (exit code, stdout, wall seconds).

    An exception escaping the CLI is returned in place of the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = run_command(argv, out, err)
    except Exception as exc:  # a crash is a failed command, not a failed run
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def _values(report: dict) -> list:
    return [[f["fact"], f["numerator"], f["denominator"]] for f in report["facts"]]


def reference_seconds() -> float:
    """Median wall time of three runs of a fixed pure-Python loop.

    The loop does integer, tuple and dict work, like the program.  It runs
    with the collector off, so that heap state left by the program cannot
    trigger a collection inside it.  The median of three short runs ignores
    a single interrupted one.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            table: dict[tuple[int, int], int] = {}
            acc = 1
            for i in range(4000):
                key = (i & 63, i % 7)
                table[key] = table.get(key, 0) + acc
                acc = (acc * 1000003 + i) & ((1 << 96) - 1)
                acc ^= sum([acc >> k for k in (0, 8, 16)])
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


class Sample:
    """Wall seconds of one command, and scaled by the reference times around it."""

    def __init__(self, wall: float, ref_before: float, ref_after: float):
        self.wall = wall
        self.scaled = wall * 2 * REFERENCE_S / (ref_before + ref_after)


def digest(report: dict) -> str:
    """SHA-256 over each fact's (numerator, denominator) and total_measure."""
    payload = json.dumps([_values(report), report["total_measure"]], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _parse(out: str) -> dict | None:
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _components(db, fds) -> list[int]:
    """Sizes of the conflict graph's connected components, isolated facts included."""
    parent = {f.id: f.id for f in db.facts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for graph in build_conflict_graph(db, fds).values():
        for i, j in graph.edges:
            parent[find(graph.facts[i].id)] = find(graph.facts[j].id)
    sizes: dict[str, int] = {}
    for fid in parent:
        root = find(fid)
        sizes[root] = sizes.get(root, 0) + 1
    return sorted(sizes.values(), reverse=True)


def _classify_text(workload: Workload) -> str:
    return "".join(f"{rel}: {cls}\n" for rel, cls in workload.expect["classes"].items())


def self_test(workload: Workload, seed: int, manifest: Path, work: Path, checks: Checks) -> None:
    """The generator is deterministic and yields the structure its workload claims."""
    again = write_instance(workload, generate(workload, seed), work / "again")
    files = sorted(p.name for p in manifest.parent.iterdir())
    same = files == sorted(p.name for p in again.parent.iterdir()) and all(
        (manifest.parent / name).read_bytes() == (again.parent / name).read_bytes()
        for name in files
    )
    checks.record("generator", {"same seed gives identical bytes": same})

    code, out, _ = run_cli(["--manifest", str(manifest), "classify"])
    checks.record("classify", {"exits 0": code == 0, "expected classes": out == _classify_text(workload)})

    db, fds = load_instance(load_manifest(manifest))
    sizes = _components(db, fds)
    expect = workload.expect
    if "components" in expect:
        checks.record(
            "generator", {f"{expect['components']} conflict component(s)": len(sizes) == expect["components"]}
        )
    if "max_component" in expect:
        checks.record(
            "generator", {f"components of at most {expect['max_component']} facts": sizes[0] <= expect["max_component"]}
        )
    if "measure_mc" in expect:
        code, out, _ = run_cli(["--manifest", str(manifest), "measure", "--measure", "mc"])
        checks.record(
            "measure mc", {"exits 0": code == 0, f"returns {expect['measure_mc']}": out.strip() == str(expect["measure_mc"])}
        )


def oracle_spot_check(workload: Workload, seed: int, work: Path, checks: Checks) -> None:
    """On the 12-fact version of the generator, exact agrees with the oracle.

    Where exact computation is intractable (d/mc/r without an lhs chain) it
    must refuse with exit 2 and an ``intractable_exact`` error instead.
    """
    manifest = write_instance(workload, generate(workload, seed, small=True), work / "small")
    chains = all(cls == "LhsChain" for cls in workload.expect["classes"].values())
    for m in MEASURES:
        base = ["--manifest", str(manifest)]
        code, out, _ = run_cli(base + ["shapley", "--measure", m, "--all"])
        exact = _parse(out) or {}
        if not chains and m in ("d", "mc", "r"):
            checks.record(
                f"spot-check shapley {m}",
                {"refused with exit 2 and intractable_exact": code == 2 and exact.get("error") == "intractable_exact"},
            )
            continue
        ocode, oout, _ = run_cli(base + ["oracle", "--measure", m, "--all"])
        oracle = _parse(oout) or {}
        checks.record(f"spot-check oracle {m}", {"exits 0": ocode == 0})
        checks.record(
            f"spot-check shapley {m}",
            {
                "exits 0": code == 0,
                "equals oracle --all": code == 0
                and ocode == 0
                and _values(exact) == _values(oracle)
                and exact["total_measure"] == oracle["total_measure"],
            },
        )


def setup_times(workload: Workload, manifest: Path, checks: Checks) -> list[Sample]:
    """Fresh interpreters running `classify` (import, load, classify).

    One untimed run first, so that compiled bytecode exists as it would for
    any installed copy.
    """
    program = "import sys; from incshap.cli import main; main()"
    argv = [sys.executable, "-c", program, "--manifest", str(manifest), "classify"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    expected = _classify_text(workload)
    samples = []
    ref = reference_seconds()
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        checks.record("setup classify", {"exits 0": proc.returncode == 0, "expected classes": proc.stdout == expected})
        if i:
            samples.append(Sample(elapsed, ref, after))
        ref = after
    return samples


def _load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def timed_commands(workload: Workload, manifest: Path, seed: int, seconds: float, checks: Checks):
    """Time the workload's commands until `seconds` are spent.

    Commands run round-robin over the workload's measures, so every
    measure's samples spread over the whole run rather than one stretch of
    it.  Every measure runs at least once, and the run stops before a
    command that would likely end past `seconds`.  Returns (samples per
    measure, first output per measure).
    """
    recorded = _load_digests().get(workload.name, {}) if seed == DEFAULT_SEED else None
    first: dict[str, str] = {}
    samples: dict[str, list[Sample]] = {m: [] for m in workload.measures}
    start = time.perf_counter()
    ref = reference_seconds()
    while True:
        m = min(workload.measures, key=lambda k: len(samples[k]))
        if samples[m] and time.perf_counter() - start + statistics.median(x.wall for x in samples[m]) > seconds:
            break
        code, out, elapsed = run_cli(workload.shapley_argv(manifest, m, seed))
        after = reference_seconds()
        samples[m].append(Sample(elapsed, ref, after))
        ref = after
        report = _parse(out) if code == 0 else None
        results = {"exits 0": code == 0, "prints a JSON report": report is not None}
        if report is not None:
            if workload.method == "exact":
                results["efficiency_check is true"] = report["efficiency_check"] is True
            if recorded is not None:
                results["matches the recorded digest"] = digest(report) == recorded.get(m)
            if m in first:
                results["repeats the first output byte for byte"] = out == first[m]
            else:
                first[m] = out
        checks.record(f"shapley {m}", results)
    return samples, first


def approx_spot_check(workload: Workload, manifest: Path, seed: int, outputs: dict, checks: Checks) -> None:
    """A few facts' reported estimates equal a direct `estimate_shapley` call."""
    db, fds = load_instance(load_manifest(manifest))
    params = ApproxParams(epsilon=EPSILON, delta=DELTA, seed=seed)
    facts = random.Random(seed).sample(list(db.facts), APPROX_SPOT_FACTS)
    for m, out in outputs.items():
        entries = {f["fact"]: f for f in json.loads(out)["facts"]}
        ok = True
        for fact in facts:
            value = estimate_shapley(db, fds, fact, MeasureKind(m), params).value
            entry = entries[fact.id]
            ok &= [entry["numerator"], entry["denominator"]] == [str(value.numerator), str(value.denominator)]
        checks.record(f"direct estimate_shapley {m}", {"equals the CLI's per-fact values": ok})


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
