"""Benchmark for `incshap shapley --all`, one seeded workload per run.

Run from the repository root:

    python3 bench/run.py --workload chain-exact --seed 0 --seconds 24 --trace 0

Workloads (see workloads.py): chain-exact, one-block, hard-approx; `all`
runs each of them in turn, in a process of its own.  A run
writes its instance under .bench_work/, checks the generator and a 12-fact
oracle spot-check, times fresh-interpreter set-up, then runs the workload's
`shapley --measure <m> --all` commands, interleaved, until --seconds are spent.
Every command's output is checked.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics, times scaled to a fixed
machine speed (see harness.py); with --trace 1 a traced replay
follows the timed commands, its spans are written to
.bench_work/trace-<workload>-<seed>.json, and the JSON object carries the
per-layer metrics, named as in BENCHMARK.json.  The lines before it name
every metric with its unit, and every failing check.

Exits 2 without a result when the program's source (src/incshap) is absent.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "incshap" / "cli.py").is_file():
        print(f"error: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    import layers
    from spans import Recorder
    from workloads import WORKLOADS, generate, write_instance

    if args.workload == "all":
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, *flags]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = harness.Checks()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    lines: list[str] = []
    try:
        manifest = write_instance(workload, generate(workload, args.seed), work / "instance")
        harness.self_test(workload, args.seed, manifest, work, checks)
        harness.oracle_spot_check(workload, args.seed, work, checks)
        setup = harness.setup_times(workload, manifest, checks)
        samples, outputs = harness.timed_commands(workload, manifest, args.seed, args.seconds, checks)
        peak = harness.peak_rss_mib()
        if workload.method == "approx":
            harness.approx_spot_check(workload, manifest, args.seed, outputs, checks)

        wall = {m: statistics.median(x.wall for x in t) for m, t in samples.items()}
        scaled = {m: statistics.median(x.scaled for x in t) for m, t in samples.items()}
        e2e = {f"shapley_all_s.{m}": scaled[m] for m in workload.measures}
        e2e.update(
            {
                "total_s": sum(scaled.values()),
                "setup_s": statistics.median(x.scaled for x in setup),
                "peak_rss_mib": peak,
            }
        )
        walls = {f"shapley_all_s.{m}": wall[m] for m in workload.measures}
        walls.update({"total_s": sum(wall.values()), "setup_s": statistics.median(x.wall for x in setup)})
        counts = ", ".join(f"{m} x{len(t)}" for m, t in samples.items())
        lines.append(f"workload {workload.name} seed {args.seed}: commands {counts}; {len(setup)} set-up runs")
        lines += [f"digest {m} {harness.digest(json.loads(out))}" for m, out in outputs.items()]
        e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in e2e.items():
            note = f"  (wall-clock {walls[name]:.6g} s)" if name in walls else ""
            lines.append(f"{name} = {value:.6g} {e2e_units.get(name, 's')}{note}")

        if args.trace:
            rec = Recorder()
            metrics, info, integrity = layers.per_layer(
                workload, manifest, args.seed, outputs, walls["total_s"], rec
            )
            checks.record("traced replay", integrity)
            rec.write(
                WORK / f"trace-{workload.name}-{args.seed}.json",
                {"workload": workload.name, "seed": args.seed, "info": info},
            )
            declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name, value in metrics.items():
                note = f"  ({info[name]})" if name in info else ""
                lines.append(f"{name} = {value:.6g} {declared[name]}{note}")
        else:
            metrics, declared = e2e, e2e_units
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_ratio = checks.failed / checks.attempted
    lines.append(f"fail_ratio = {fail_ratio:.6g} ({checks.failed} of {checks.attempted} operations)")
    for failure, count in checks.failures.items():
        lines.append(f"FAILED {failure} (x{count})")
    print("\n".join(lines))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
