"""One benchmark repetition in a fresh interpreter.

    python3 -E -s perfbench/child.py SPAWN_TIME TREE TRACE_PATH|- CLI_ARG...

Puts TREE/src first on sys.path, imports `subgroup_lab.cli` and checks that
the package came from that tree, then times one call of `cli.main(CLI_ARG...)`.
SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start plus the package import.  With
a TRACE_PATH the package's public functions are wrapped by `tracer` and the
spans are written there after the call.  The last stdout line is one JSON
object; exit code 3 means the tree could not be imported.

`speed_probe` runs just before and just after the call.  It is fixed code
that never changes with the tree under test, so its time tells how fast the
shared host ran this process at that moment; `run.py` scales the measured
times by it.
"""

import os
import sys
import time

PIN_FAILED = 3

# Functions traced per module.  `cli._record_for` is the per-record unit of a
# sweep; the rest are the modules' public entry points.
TARGETS = {
    "numtheory": ("subgroup", "coset_reps"),
    "zpsets": ("sumset", "shift_intersect"),
    "spectral": ("cyclic_convolution_exact", "phi_subgroup", "dft_magnitudes"),
    "energetics": (
        "shift_sizes",
        "threshold_invariant_set",
        "ssc_ratio_sum",
        "sumset_ratio_sum",
        "coset_profile",
    ),
    "verifier": (
        "check_bound",
        "check_six_fold",
        "covering_index",
        "count_solutions_N",
        "positivity_condition",
    ),
    "cli": ("run_sweep", "emit_report", "verify_all", "_record_for"),
}


PROBE_KEYS = 1 << 10
PROBE_ROUNDS = 384
PROBE_ARRAY = 1 << 15
PROBE_ARRAY_ROUNDS = 100


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    Dict lookups with integer arithmetic stand for the package's pure-Python
    loops, in-place int64 arithmetic and sorts for its numpy kernels.  The
    working set is a few hundred kilobytes, so the probe leaves the peak RSS
    the benchmark reports unchanged.
    """
    import numpy as np

    table = {i * 7919: i for i in range(PROBE_KEYS)}
    mask = PROBE_KEYS - 1
    a = np.arange(PROBE_ARRAY, dtype=np.int64)
    total = 0
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        for i in range(PROBE_KEYS):
            total += table[((i * 40503) & mask) * 7919] % 7
    for _ in range(PROBE_ARRAY_ROUNDS):
        np.multiply(a, 40503, out=a)
        np.add(a, 7, out=a)
        np.remainder(a, 998244353, out=a)
        a.sort()
    return time.perf_counter() - t0


def _probes(digest):
    """Operand keys (for distinct-call ratios) and element counts per call."""

    def pair(p, a, b):
        return f"{p}:" + ":".join(sorted((digest(a), digest(b))))

    return {
        "spectral.cyclic_convolution_exact": lambda u, v, p: (pair(p, u, v), int(p)),
        "zpsets.sumset": lambda X, Y: (pair(X.p, X.bits, Y.bits), 0),
        "energetics.shift_sizes": lambda X: (f"{X.p}:{digest(X.bits)}", 0),
    }


def main(argv) -> int:
    spawn, tree, trace_path, cli_args = float(argv[0]), argv[1], argv[2], argv[3:]
    src = os.path.realpath(os.path.join(tree, "src"))
    sys.path.insert(0, src)
    try:
        import subgroup_lab
        import subgroup_lab.cli as cli
    except ImportError as exc:
        print(f"cannot import subgroup_lab from {src}: {exc}", file=sys.stderr)
        return PIN_FAILED
    setup_s = time.monotonic() - spawn
    if not os.path.realpath(subgroup_lab.__file__).startswith(src + os.sep):
        print(f"subgroup_lab imported from {subgroup_lab.__file__}, not {src}", file=sys.stderr)
        return PIN_FAILED

    import json
    import platform
    import resource

    import numpy

    tracer = None
    if trace_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install("subgroup_lab", TARGETS, _probes(tracing.digest))

    probe_before = speed_probe()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    probe_s = (probe_before + speed_probe()) / 2
    if tracer is not None:
        tracer.dump(trace_path)
    print(
        json.dumps(
            {
                "rc": rc,
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "probe_s": probe_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
