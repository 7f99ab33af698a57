"""Traced run: per-layer numbers from spans around the program's public calls.

The replay repeats each `shapley --all` command's public-call sequence
(load, per-fact attribution, whole-database measure, report) with a span
around every call, and must render the CLI's report byte for byte.  Probe
calls then time one call into each lower layer.  Layers are named after the
modules of ``incshap``.  A metric of a layer a workload never uses (approx
on an exact workload, the tree on a relation without an lhs chain) is 0.
"""

from __future__ import annotations

import statistics

from incshap import (
    ApproxParams,
    CoalitionEvaluator,
    MeasureKind,
    build_conflict_graph,
    build_tree,
    classify,
    drastic_tables,
    estimate_shapley,
    load_instance,
    load_manifest,
    mc_tables,
    measure,
    multi_relation_combine,
    r_tables,
    sample_count,
    shapley_exact,
)
from incshap.fd_analysis import TractabilityKind
from incshap.report import build_report, render_report

from harness import run_cli
from spans import Recorder, tail
from workloads import DELTA, EPSILON, MEASURES, Workload

TABLES = {"d": drastic_tables, "mc": mc_tables, "r": r_tables}
APPROX_MEASURES = ("d", "r", "mc")
REPLAY_LAYERS = ("cli", "io", "exact", "approx", "measures", "report")


class CountingEvaluator(CoalitionEvaluator):
    """Coalition evaluator that counts measure evaluations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evaluations = 0

    def value(self, kind, mask):
        self.evaluations += 1
        return super().value(kind, mask)


def _ms(seconds: float) -> float:
    return seconds * 1000


def replay(workload: Workload, manifest, seed: int, rec: Recorder) -> tuple[dict, dict, dict]:
    """Replay every command under spans.

    Each replay directly follows one untraced run of the same CLI command,
    so that the two wall times compare under the same machine load.
    Returns (rendered reports, counters, CLI wall seconds per measure).
    """
    rendered: dict[str, str] = {}
    cli_wall: dict[str, float] = {}
    counters = {"coalition_evals": 0, "samples_per_fact": 0, "report_bytes": 0}
    for m in workload.measures:
        kind = MeasureKind(m)
        cli_wall[m] = run_cli(workload.shapley_argv(manifest, m, seed))[2]
        with rec.span(f"cli.shapley.{m}"):
            with rec.span("io.load"):
                db, fds = load_instance(load_manifest(manifest))
            values, estimates, meta = [], {}, None
            if workload.method == "exact":
                for fact in db.facts:
                    with rec.span(f"exact.fact.{m}"):
                        values.append((fact.id, shapley_exact(db, fds, fact, kind)))
            else:
                params = ApproxParams(epsilon=EPSILON, delta=DELTA, seed=seed)
                with rec.span("measures.evaluator_build"):
                    engine = CountingEvaluator(db, fds)
                for fact in db.facts:
                    with rec.span(f"approx.fact.{m}"):
                        est = estimate_shapley(db, fds, fact, kind, params, engine=engine)
                    estimates[fact.id] = est
                    values.append((fact.id, est.value))
                counters["coalition_evals"] += engine.evaluations
                counters["samples_per_fact"] = est.samples_used
                meta = {
                    "epsilon": EPSILON,
                    "delta": DELTA,
                    "mode": params.mode.value,
                    "seed": seed,
                    "samples": sample_count(params, len(db), kind),
                }
            with rec.span(f"measures.total_measure.{m}"):
                total = measure(kind, db, fds)
            with rec.span("report.render"):
                report = build_report(
                    kind, workload.method, values, total_measure=total, complete=True,
                    estimates=estimates or None, approx_meta=meta,
                )
                text = render_report(report) + "\n"
        rendered[m] = text
        counters["report_bytes"] += len(text.encode())
    return rendered, counters, cli_wall


def probes(manifest, rec: Recorder) -> dict:
    """One call into each lower layer, on the whole database."""
    out: dict[str, float] = {}
    db, fds = load_instance(load_manifest(manifest))
    with rec.span("fd_analysis.classify") as s:
        classes = classify(fds)
    out["fd_analysis.classify_s"] = s["end"] - s["start"]
    with rec.span("relational.conflict_graph") as s:
        graphs = build_conflict_graph(db, fds)
    out["relational.conflict_graph_ms"] = _ms(s["end"] - s["start"])
    out["relational.conflict_edges"] = sum(len(g.edges) for g in graphs.values())
    with rec.span("measures.evaluator_build") as s:
        CoalitionEvaluator(db, fds)
    out["measures.evaluator_build_ms"] = _ms(s["end"] - s["start"])

    trees = []
    out.update({"block_tree.build_ms": 0.0, "block_tree.vertices": 0, "block_tree.depth": 0, "block_tree.max_fanout": 0})
    for relation, cls in classes.items():
        if cls.kind is not TractabilityKind.LHS_CHAIN:
            continue
        with rec.span("block_tree.build") as s:
            tree = build_tree(db.facts_of(relation), cls.chain, db.schema)
        trees.append(tree)
        out["block_tree.build_ms"] += _ms(s["end"] - s["start"])
        vertices = list(tree.vertices())
        out["block_tree.vertices"] += len(vertices)
        out["block_tree.max_fanout"] = max(out["block_tree.max_fanout"], *(len(v.children) for v in vertices))
        out["block_tree.depth"] = max(out["block_tree.depth"], _depth(tree.root))

    every_relation_chains = len(trees) == len(classes)
    for m, builder in TABLES.items():
        out[f"exact.root_tables_ms.{m}"] = 0.0
        roots = []
        if every_relation_chains:
            for tree in trees:
                with rec.span(f"exact.root_tables.{m}") as s:
                    roots.append(builder(tree))
                out[f"exact.root_tables_ms.{m}"] += _ms(s["end"] - s["start"])
        if m in ("d", "mc"):
            out[f"exact.combine_ms.{m}"] = 0.0
            if roots:
                kind = MeasureKind.DRASTIC if m == "d" else MeasureKind.MC
                with rec.span(f"exact.combine.{m}") as s:
                    multi_relation_combine(kind, roots)
                out[f"exact.combine_ms.{m}"] = _ms(s["end"] - s["start"])
    return out


def _depth(vertex) -> int:
    return 1 + max((_depth(c) for c in vertex.children), default=-1)


def _fact_stats(rec: Recorder, layer: str, measures, out: dict, info: dict) -> None:
    for m in measures:
        times = [_ms(t) for t in rec.durations(f"{layer}.fact.{m}")]
        p50 = statistics.median(times) if times else 0.0
        value, pct = tail(times) if times else (0.0, 0)
        out[f"{layer}.fact_ms.{m}.p50"] = p50
        out[f"{layer}.fact_ms.{m}.tail"] = value
        if times:
            info[f"{layer}.fact_ms.{m}.tail"] = f"p{pct} of {len(times)} facts"


def per_layer(
    workload: Workload, manifest, seed: int, cli_outputs: dict, untraced_total_s: float, rec: Recorder
) -> tuple[dict, dict, dict]:
    """Run the traced replay and probes; return (metrics, info lines, integrity checks)."""
    rendered, counters, cli_wall = replay(workload, manifest, seed, rec)
    checks = {
        f"traced replay of {m} renders the CLI's report": rendered[m] == cli_outputs.get(m) for m in workload.measures
    }
    out: dict[str, float] = {}
    info: dict[str, str] = {}

    loads = rec.durations("io.load")
    out["io.load_s"] = statistics.median(loads)
    _fact_stats(rec, "exact", MEASURES, out, info)
    _fact_stats(rec, "approx", APPROX_MEASURES, out, info)
    for m in MEASURES:
        spans = rec.durations(f"measures.total_measure.{m}")
        out[f"measures.total_measure_ms.{m}"] = _ms(spans[0]) if spans else 0.0
    out["approx.samples_per_fact"] = counters["samples_per_fact"]
    out["approx.coalition_evals"] = counters["coalition_evals"]
    out["report.render_ms"] = _ms(sum(rec.durations("report.render")))
    out["report.bytes"] = counters["report_bytes"]

    commands = [s for s in rec.spans if s["name"].startswith("cli.shapley.")]
    covered = rec.children_time()
    traced_total = sum(s["end"] - s["start"] for s in commands)
    out["cli.unattributed_ms"] = _ms(
        sum(cli_wall[s["name"].rsplit(".", 1)[1]] - covered[s["id"]] for s in commands)
    )
    out["trace.overhead_s"] = traced_total - untraced_total_s
    selfs = rec.self_times()
    for layer in REPLAY_LAYERS:
        out[f"{layer}.self_ms"] = _ms(selfs.get(layer, 0.0))

    out.update(probes(manifest, rec))
    for m in TABLES:
        base = out[f"exact.root_tables_ms.{m}"]
        out[f"exact.dp_passes_per_fact.{m}"] = out[f"exact.fact_ms.{m}.p50"] / base if base else 0.0
        if base:
            info[f"exact.dp_passes_per_fact.{m}"] = (
                f"exact.fact_ms.{m}.p50 / exact.root_tables_ms.{m} = "
                f"{out[f'exact.fact_ms.{m}.p50']:.3f} / {base:.3f}"
            )
    info["cli.unattributed_ms"] = "CLI wall time minus traced layer calls, per command, summed"
    info["trace.overhead_s"] = f"traced replay {traced_total:.3f} s - untraced total_s {untraced_total_s:.3f} s"
    return out, info, checks
