"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's public functions, from
the benchmark's side of the boundary.  They stay in memory until the run
ends and are written once.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def children_time(self) -> list[float]:
        """Seconds covered by each span's direct children, indexed by span id."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return covered

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (first name component) not covered by child spans."""
        covered = self.children_time()
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s["end"] - s["start"] - covered[s["id"]]
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}) + "\n", encoding="utf-8")


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it, and its value.

    Nearest-rank: percentile p takes the ceil(p*n/100)-th smallest value.
    """
    n = len(values)
    if n <= 10:
        raise ValueError(f"a tail needs more than 10 samples, got {n}")
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return sorted(values)[rank - 1], pct
