"""Outside-in span tracer: wraps a package's functions without editing it.

`Tracer.install` replaces each named function with a timing wrapper and then
rebinds every module-level alias of the original inside the package, so calls
that went through `from .mod import f` are traced as well.  Spans are kept in
memory (one stack per thread, so nested calls in worker threads get the right
parent) and written out once with `dump`.  `summarize` turns spans into
per-function statistics; a span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# span fields, in the order they are stored and dumped
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "key", "elems")


def digest(*arrays) -> str:
    """Content hash of array operands, used to count distinct calls."""
    h = hashlib.blake2b(digest_size=12)
    for a in arrays:
        a = np.asarray(a)
        if a.dtype == object:
            h.update(repr(a.tolist()).encode())
        else:
            h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


class Tracer:
    """Collects (id, name, start, end, parent, thread, key, elems) spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, probe=None):
        """Timing wrapper around fn; probe(*args, **kw) -> (key, elems)."""
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key, elems = probe(*args, **kwargs) if probe is not None else (None, 0)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), key, elems)
                )

        traced.__traced__ = fn
        return traced

    def install(self, package: str, targets: dict, probes: dict | None = None) -> int:
        """Trace `package.<module>.<function>` for each module -> functions entry.

        Spans are named `<module>.<function>`.  Returns the number of
        attributes rebound, aliases included.
        """
        probes = probes or {}
        swaps: dict[int, object] = {}
        for module, names in targets.items():
            mod = importlib.import_module(f"{package}.{module}")
            for fname in names:
                orig = getattr(mod, fname)
                if hasattr(orig, "__traced__"):
                    raise ValueError(f"{module}.{fname} is already traced")
                name = f"{module}.{fname}"
                swaps[id(orig)] = self.wrap(name, orig, probes.get(name))
        rebound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                new = swaps.get(id(val))
                if new is not None and new.__traced__ is val:
                    setattr(mod, attr, new)
                    rebound += 1
        return rebound

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def load(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


def summarize(spans) -> dict:
    """Per-name stats: calls, total_s, self_s, elems, distinct keys, children.

    `child_calls[m]` counts the calls of a name that have at least one direct
    child span in module m (the text before the first dot of the child's name).
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    child_mods: dict[int, set] = defaultdict(set)
    for sid, name, start, end, parent, *_ in spans:
        if parent in by_id:
            child_time[parent] += end - start
            child_mods[parent].add(name.split(".", 1)[0])
    stats: dict[str, dict] = {}
    for sid, name, start, end, parent, _thread, key, elems in spans:
        st = stats.setdefault(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "elems": 0, "keys": set(),
             "child_calls": defaultdict(int)},
        )
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child_time[sid]
        st["elems"] += elems
        if key is not None:
            st["keys"].add(key)
        for m in child_mods[sid]:
            st["child_calls"][m] += 1
    for st in stats.values():
        st["distinct"] = len(st.pop("keys"))
        st["child_calls"] = dict(st["child_calls"])
    return stats


def descendants_self(spans, root_id: int, module: str) -> float:
    """Self time of the spans of `module` below the span root_id."""
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        kids[s[4]].append(s)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        child_time[s[4]] += s[3] - s[2]
    total, todo = 0.0, list(kids[root_id])
    while todo:
        s = todo.pop()
        if s[1].split(".", 1)[0] == module:
            total += s[3] - s[2] - child_time[s[0]]
        todo.extend(kids[s[0]])
    return total
