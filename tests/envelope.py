"""Time and peak memory of one sweep record, measured in a fresh process.

    python tests/envelope.py P D

runs the record of the subgroup of order D in Z_P* (`cli._record_for`, the
default checks, heavy checks as a sweep would set them) in a child process
started by `spawn`, and prints one JSON line: p, d, wall_s (the record alone,
after import) and peak_rss_mb (the child's `ru_maxrss`, import included).
To see whether a record fits a memory budget, cap the address space of the
shell that runs it, e.g. `(ulimit -v 6000000; python tests/envelope.py P D)`.
Not a pytest module; `test_cli.py` runs it once at a small prime.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))


def measure(p: int, d: int) -> dict:
    """Run the record of (p, d) in this process; return its time and peak RSS."""
    from subgroup_lab.cli import SweepConfig, _record_for

    cfg = SweepConfig(p_min=p, p_max=p).validate()
    t0 = time.perf_counter()
    _record_for((p, d, cfg))
    wall = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"p": p, "d": d, "wall_s": round(wall, 3), "peak_rss_mb": round(peak, 1)}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/envelope.py P D", file=sys.stderr)
        return 2
    p, d = (int(a) for a in argv)
    if p < 3 or d < 1 or (p - 1) % d:
        print(f"error: need p >= 3 and a divisor d of p - 1, got {p}, {d}", file=sys.stderr)
        return 2
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        print(json.dumps(pool.submit(measure, p, d).result()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
