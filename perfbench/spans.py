"""In-memory span recorder for the traced benchmark run.

A span has a name ``<layer>.<step>`` (or ``job`` for the root of one job),
start and end times on the wall clock and on the process CPU clock, the id of
the span open when it started, and the job it belongs to. Spans stay in
memory while the workload runs and are written as JSONL once it is over, so
the file write never lands inside a timed region.
"""

from __future__ import annotations

import contextlib
import json
import time

ROOT = "job"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, job):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "job": job,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            rec["cpu"] = time.process_time() - cpu0
            self._open.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def named(self, name: str, job=None) -> list[dict]:
        """Spans called ``name``, optionally only those of one job."""
        return [
            s for s in self.spans
            if s["name"] == name and (job is None or s["job"] == job)
        ]

    def job_breakdown(self, job, root_name: str = ROOT) -> tuple[float, dict]:
        """Duration of the job's root span and the self time of each layer under it.

        A span's self time is its duration minus the time its child spans
        cover; a layer's self time sums that over the layer's spans.
        """
        roots = self.named(root_name, job)
        if len(roots) != 1:
            raise ValueError(f"job {job!r} has {len(roots)} {root_name!r} spans")
        root = roots[0]
        inside = {root["id"]}
        for s in self.spans:  # parents precede children, so one pass suffices
            if s["parent"] in inside:
                inside.add(s["id"])
        child_time = {}
        for s in self.spans:
            if s["id"] in inside and s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
        layers: dict[str, float] = {}
        for s in self.spans:
            if s["id"] in inside and s is not root:
                layer = s["name"].split(".", 1)[0]
                self_time = duration(s) - child_time.get(s["id"], 0.0)
                layers[layer] = layers.get(layer, 0.0) + self_time
        return duration(root), layers


class NullTracer:
    """Stands in for Tracer when tracing is off: spans cost one no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str, job):
        return self._null


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]
