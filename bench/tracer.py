"""Span tracer that wraps the library's public functions at run time.

Installing a Tracer replaces every binding of a public function of a layer
module -- in the module that defines it and in every module that imported
it, e.g. both ``rotation.apply_displacement`` and
``compose.apply_displacement`` -- with a wrapper that records one span:
its name, start, end, the span that was open when it began (its parent)
and whether it ended by raising. The check functions that ``checks.run_all``
reaches through ``checks.REGISTRY`` are wrapped in that list too, under the
registry name. No library source is edited; ``uninstall`` puts every
original binding back.

Spans are kept in flat arrays in memory. ``flush``, called between batches
of operations (outside any timed region, with no span open), folds them
into per-name totals and appends them to the spans file. A span's self
time is its duration minus the durations of its child spans.

Spans file: ``<path>.spans.gz`` holds one record per flush -- the span count
as a little-endian int64, then the arrays ``name``, ``parent``, ``start``,
``end``, ``raised`` in machine byte order with the typecodes listed in
``<path>.json``; ``parent`` indexes into the same record (-1: no parent),
``name`` into the label list of the index.
"""

from __future__ import annotations

import gzip
import json
import struct
import sys
import time
from array import array
from pathlib import Path
from types import FunctionType

PACKAGE = "screwalgebra"
LAYERS = (
    "core",
    "rotation",
    "compose",
    "screw",
    "pointfit",
    "infinitesimal",
    "oracle",
    "checks",
    "cli",
)
ARRAYS = (("name", "l"), ("parent", "l"), ("start", "d"), ("end", "d"), ("raised", "b"))


class Tracer:
    """Records spans of wrapped library calls; one instance per traced run.

    Use as a context manager when writing a spans file, so it is closed.
    """

    def __init__(self, path: Path | None = None) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        for key, code in ARRAYS:
            setattr(self, key, array(code))
        self._stack = [-1]
        self._restore: list[tuple[object, object, object]] = []
        # Folded totals: label id -> [calls, total_s, self_s, raised];
        # (label id, parent label id or -1) -> calls; time in parentless spans.
        self._stats: dict[int, list] = {}
        self.callers: dict[tuple[int, int], int] = {}
        self.root_s = 0.0
        self.spans = 0
        self._path = path
        self._fh = None
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = gzip.open(path.with_suffix(".spans.gz"), "wb", compresslevel=1)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _label_id(self, label: str) -> int:
        idx = self._label_ids.get(label)
        if idx is None:
            idx = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return idx

    def _wrap(self, fn, label: str):
        name_id = self._label_id(label)
        name, parent, start, end, raised = (
            self.name, self.parent, self.start, self.end, self.raised
        )
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        return span

    def install(self) -> None:
        """Wrap every binding of every public layer function now imported."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        originals: dict[int, object] = {}
        for module in modules:
            for value in vars(module).values():
                if (
                    isinstance(value, FunctionType)
                    and not value.__name__.startswith("_")
                    and value.__module__.startswith(PACKAGE + ".")
                    and value.__module__.rsplit(".", 1)[1] in LAYERS
                ):
                    originals[id(value)] = value

        checks = sys.modules.get(PACKAGE + ".checks")
        registry = getattr(checks, "REGISTRY", [])
        registry_label = {id(fn): f"checks.{name}" for name, _base, fn in registry}

        wrappers = {}
        for key, fn in originals.items():
            layer = fn.__module__.rsplit(".", 1)[1]
            label = registry_label.get(key, f"{layer}.{fn.__name__}")
            wrappers[key] = self._wrap(fn, label)

        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for i, (name, base, fn) in enumerate(registry):
            if id(fn) in wrappers:
                self._restore.append((registry, i, (name, base, fn)))
                registry[i] = (name, base, wrappers[id(fn)])

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            if isinstance(target, list):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()

    def dump(self) -> dict:
        """The unflushed spans as plain lists (a child process hands these to its parent)."""
        out = {key: getattr(self, key).tolist() for key, _code in ARRAYS}
        out["labels"] = self.labels
        return out

    def merge(self, spans: dict) -> None:
        """Append the spans of another tracer's dump, keeping their parent links."""
        offset = len(self.start)
        ids = [self._label_id(label) for label in spans["labels"]]
        self.name.extend(ids[i] for i in spans["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in spans["parent"])
        self.start.extend(spans["start"])
        self.end.extend(spans["end"])
        self.raised.extend(spans["raised"])

    def flush(self) -> None:
        """Fold the recorded spans into the totals, write them out, and clear them."""
        if len(self._stack) != 1:
            raise RuntimeError("flush with a span still open")
        n = len(self.start)
        if n == 0:
            return
        name, parent, raised = self.name, self.parent, self.raised
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats, callers = self._stats, self.callers
        for i in range(n):
            nm = name[i]
            row = stats.get(nm)
            if row is None:
                row = stats[nm] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            row[3] += raised[i]
            p = parent[i]
            key = (nm, name[p] if p >= 0 else -1)
            callers[key] = callers.get(key, 0) + 1
            if p < 0:
                self.root_s += dur[i]
        self.spans += n
        if self._fh is not None:
            self._fh.write(struct.pack("<q", n))
            for key, _code in ARRAYS:
                getattr(self, key).tofile(self._fh)
        for key, _code in ARRAYS:
            del getattr(self, key)[:]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds, raised."""
        return {
            self.labels[nm]: {"calls": c, "total_s": t, "self_s": s, "raised": r}
            for nm, (c, t, s, r) in self._stats.items()
        }

    def calls_from(self, label: str, caller_prefixes: tuple[str, ...]) -> int:
        """Spans named ``label`` whose parent is none or has one of these prefixes."""
        target = self._label_ids.get(label)
        return sum(
            count
            for (nm, parent), count in self.callers.items()
            if nm == target and (parent < 0 or self.labels[parent].startswith(caller_prefixes))
        )

    def close(self) -> None:
        """Flush what is left, then write the index beside the spans file."""
        if self._fh is None:
            return
        self.flush()
        self._fh.close()
        self._fh = None
        index = {
            "spans": self.spans,
            "labels": self.labels,
            "arrays": [list(pair) for pair in ARRAYS],
            "byteorder": sys.byteorder,
        }
        self._path.with_suffix(".json").write_text(json.dumps(index) + "\n")
