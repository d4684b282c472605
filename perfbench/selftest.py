"""Self-test of the tracer on a toy package of nested functions.

    python3 perfbench/selftest.py

Checks alias rebinding (a function imported by name into another module is
traced there too), parent links and self-time subtraction, per-thread span
stacks, and distinct-key counting.  `run()` returns the failures; the
benchmark runs it before every traced run.
"""

from __future__ import annotations

import sys
import threading
import types

import tracer

PKG = "perfbench_toy"

INNER = """
import time

def leaf(n):
    time.sleep(0.004)
    return n

def mid(n):
    time.sleep(0.006)
    return leaf(n) + leaf(n + 1)
"""

OTHER = f"""
from {PKG}.inner import leaf, mid

def outer():
    return mid(1) + leaf(5)
"""


def _toy_package():
    pkg = types.ModuleType(PKG)
    pkg.__path__ = []
    sys.modules[PKG] = pkg
    mods = {}
    for name, src in (("inner", INNER), ("other", OTHER)):
        mod = types.ModuleType(f"{PKG}.{name}")
        sys.modules[mod.__name__] = mod
        exec(src, mod.__dict__)
        mods[name] = mod
    return mods


def run() -> list[str]:
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    mods = _toy_package()
    try:
        tr = tracer.Tracer()
        rebound = tr.install(PKG, {"inner": ("leaf", "mid")},
                             {"inner.leaf": lambda n: (str(n), 1)})
        expect(rebound == 4, f"rebound {rebound} attributes, want 4 (2 + 2 aliases)")
        expect(hasattr(mods["other"].leaf, "__traced__"), "alias other.leaf not rebound")
        try:
            tr.install(PKG, {"inner": ("leaf",)})
            problems.append("second install of the same function was accepted")
        except ValueError:
            pass

        expect(mods["other"].outer() == 8, "traced functions changed a result")
        spans = list(tr.spans)
        stats = tracer.summarize(spans)
        leaf, mid = stats.get("inner.leaf", {}), stats.get("inner.mid", {})
        expect(leaf.get("calls") == 3 and mid.get("calls") == 1,
               f"calls leaf={leaf.get('calls')} mid={mid.get('calls')}, want 3 and 1")
        (mid_span,) = [s for s in spans if s[1] == "inner.mid"]
        kids = [s for s in spans if s[4] == mid_span[0]]
        roots = [s for s in spans if s[4] == -1]
        expect(len(kids) == 2, f"mid has {len(kids)} children, want 2")
        expect(len(roots) == 2, f"{len(roots)} root spans, want 2 (mid, aliased leaf)")
        want_self = (mid_span[3] - mid_span[2]) - sum(s[3] - s[2] for s in kids)
        expect(abs(mid["self_s"] - want_self) < 1e-12, "mid self time is not total - children")
        expect(0.005 <= mid["self_s"] < mid["total_s"] - 0.007,
               f"mid self {mid['self_s']:.4f}s outside [0.005, total - 0.007)")
        expect(leaf["distinct"] == 3 and leaf["elems"] == 3,
               f"leaf distinct={leaf['distinct']} elems={leaf['elems']}, want 3 and 3")
        expect(mid["child_calls"] == {"inner": 1}, f"mid child_calls {mid['child_calls']}")
        expect(tracer.descendants_self(spans, mid_span[0], "inner") == sum(
            s[3] - s[2] for s in kids), "descendants_self misses mid's children")

        tr.spans.clear()
        threads = [threading.Thread(target=mods["other"].outer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        expect(not any(t.is_alive() for t in threads), "toy threads did not finish")
        by_id = {s[0]: s for s in tr.spans}
        expect(len(tr.spans) == 8, f"{len(tr.spans)} spans from two threads, want 8")
        expect(all(s[4] == -1 or by_id[s[4]][5] == s[5] for s in tr.spans),
               "a span's parent lives on another thread")
        expect(tracer.summarize(tr.spans)["inner.leaf"]["distinct"] == 3,
               "repeated operands counted as distinct")
    finally:
        for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
            del sys.modules[name]
    return problems


if __name__ == "__main__":
    failures = run()
    for f in failures:
        print(f"FAIL {f}")
    print("tracer self-test:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)
