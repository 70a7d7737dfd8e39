"""Spans around calls into braidinv, recorded from the benchmark's own files.

The tracer replaces public functions at their module (or class) attributes
with timing wrappers, so calls that the library makes through those names are
recorded too; nothing under src/ is edited.  Spans stay in memory as
(name, layer, start, end, parent) and are written out once, at the end.  A
span's self time is its duration minus the durations of its direct children;
stage spans (pass boundaries taken from the progress callback) are kept for
the record but do not enter self time.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "layer": layer, "start": time.perf_counter(),
                           "end": None, "parent": parent})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, layer: str) -> None:
        """Route calls through owner.attr into a span named ``name``."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def stage(self, name: str, layer: str, start: float, end: float) -> None:
        """A span measured by timestamps rather than around a call."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "layer": layer, "start": start,
                           "end": end, "parent": parent, "stage": True})

    def durations(self, prefix: str) -> list[float]:
        """Durations of the outermost spans whose name starts with prefix."""
        out = []
        for s in self.spans:
            parent = self.spans[s["parent"]] if s["parent"] is not None else None
            if (s["name"].startswith(prefix)
                    and not (parent and parent["name"].startswith(prefix))):
                out.append(s["end"] - s["start"])
        return out

    def total(self, prefix: str) -> float:
        return sum(self.durations(prefix))

    def self_time_by_layer(self) -> dict[str, float]:
        calls = [s for s in self.spans if not s.get("stage")]
        own = {id(s): s["end"] - s["start"] for s in calls}
        for s in calls:
            if s["parent"] is not None:
                own[id(self.spans[s["parent"]])] -= s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in calls:
            out[s["layer"]] = out.get(s["layer"], 0.0) + own[id(s)]
        return out

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "missing": self.missing, "spans": self.spans}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
