"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, parent, iteration, start, end, counts)``. Spans live
in memory until :meth:`Tracer.dump` writes them, with each span name's self
time (duration minus the part covered by child spans) per iteration. The
untraced run never touches a tracer, so it pays nothing for it.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.iteration: Optional[int] = None
        self.stats: Dict[str, List[dict]] = {}  # span name -> Dataset.stats() operators
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields a dict for counts measured inside."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "iteration": self.iteration,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record_stats(self, name: str, ds) -> None:
        """Keep the per-operator figures of a materialized Dataset."""
        self.stats[name] = parse_dataset_stats(ds.stats())

    def _self_times(self) -> Dict[int, float]:
        covered: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in self.spans}

    def ledger(self) -> Dict[str, dict]:
        """Per span name: median over iterations of total and self seconds."""
        self_t = self._self_times()
        total: Dict[str, Dict] = defaultdict(lambda: defaultdict(float))
        own: Dict[str, Dict] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            total[s["name"]][s["iteration"]] += s["end"] - s["start"]
            own[s["name"]][s["iteration"]] += self_t[s["id"]]
        return {
            name: {
                "iterations": len(per_it),
                "total_s": statistics.median(per_it.values()),
                "self_s": statistics.median(own[name].values()),
            }
            for name, per_it in total.items()
        }

    def total_s(self, name: str) -> float:
        """Median per-iteration duration of a span name; 0 if never entered."""
        row = self.ledger().get(name)
        return row["total_s"] if row else 0.0

    def count(self, name: str, key: str) -> float:
        """Median over the spans called ``name`` of one recorded count; 0 if
        none recorded it."""
        vals = [s["counts"][key] for s in self.spans
                if s["name"] == name and key in s["counts"]]
        return statistics.median(vals) if vals else 0

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "ledger": self.ledger(),
                       "dataset_stats": self.stats, **extra}, f, indent=1)


_OP_RE = re.compile(r"^Operator \d+ (.+?): (\d+) tasks executed", re.M)
_FIELD_RE = re.compile(r"\* Remote (wall|cpu) time: .*?, ([\d.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_dataset_stats(text: str) -> List[dict]:
    """Per-operator task count and summed remote wall/cpu seconds from the
    text ``Dataset.stats()`` returns (fields absent in a Ray version are
    simply left out)."""
    ops = []
    starts = list(_OP_RE.finditer(text))
    for i, m in enumerate(starts):
        end = starts[i + 1].start() if i + 1 < len(starts) else len(text)
        op = {"operator": m.group(1), "tasks": int(m.group(2))}
        for kind, val, unit in _FIELD_RE.findall(text[m.start():end]):
            op[f"remote_{kind}_s"] = float(val) * _UNIT[unit]
        ops.append(op)
    return ops
