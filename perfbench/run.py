"""Benchmark of the subgroup-lab CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree (the package is not installed; each
repetition imports it from ./src).  Each repetition is a fresh interpreter
(`child.py`) that makes one `subgroup_lab.cli.main` call, so no `lru_cache`
stays warm between repetitions.  Repetitions run until about S seconds have
passed (at least MIN_REPS of them); every output is checked against
`golden.json`.

--trace 0 reports the end-to-end metrics, each the median over repetitions:
  wall_s       time inside cli.main (after import), at reference speed
  setup_s      interpreter start until `import subgroup_lab.cli` completes,
               at reference speed
  peak_rss_mb  ru_maxrss of the repetition's process
  match_rate   output units equal to the golden copy over units attempted
               (1 - error_rate; error_rate itself is printed above the result)

Repetitions of a workload with `pool_threads` (sweep_p300) are timed with
one thread; each run adds one checked, untimed repetition on the cli's thread
pool (see workloads.py).  Its outputs count in attempted and failed, and its
CPU seconds over (wall seconds x threads) is `cli.cpu_util` (on the other
workloads, that of the untraced repetitions).

--trace 1 alternates untraced and traced repetitions and reports the
per-module metrics of TRACE_METRICS from the traced ones (spans are left in
.bench_work/<workload>/spans_<rep>.json), plus the tracing overhead and the
share of wall time the spans cover.  These times are raw, not scaled.

"At reference speed": the host this benchmark was built on is shared, and
for tens of seconds to minutes at a time it runs this process up to twice as
slowly as at other times.  Each repetition therefore also times
`child.speed_probe`, a fixed mix of interpreter and numpy work that no change
to the tree can alter, just before and after its call, and reports a time t
as t * PROBE_REF_S / (its mean probe time).  A change that makes the program
faster or slower moves the scaled time as much as the raw one, while a slow
phase of the host slows the call and the probe alike.  The raw times and
the probe's are printed, with their quartiles, on the lines above the result.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import selftest
import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_REPS = 3
MIN_REPS_TRACE = 4  # two untraced, two traced
HARD_LIMIT_S = 150.0  # no repetition starts that would end past this
REP_TIMEOUT_S = 170.0
# child.speed_probe's time when the host runs at full speed (2-vCPU Xeon VM, Python 3.11)
PROBE_REF_S = 0.1

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "match_rate": "ratio",
}

MODULES = ("numtheory", "zpsets", "spectral", "energetics", "verifier", "cli")


def _stat(fn: str, field: str):
    return lambda s: s.get(fn, {}).get(field, 0)


def _ratio(fn: str, num):
    def get(s):
        st = s.get(fn)
        return num(st) / st["calls"] if st and st["calls"] else 0.0

    return get


def _per_function_metrics() -> dict:
    """name -> (unit, stats -> value) for the per-function trace metrics."""
    out = {}

    def add(fn, *fields):
        for f in fields:
            unit = "s" if f.endswith("_s") else "count"
            out[f"{fn}.{f}"] = (unit, _stat(fn, f))

    add("numtheory.subgroup", "calls", "self_s")
    add("numtheory.coset_reps", "calls", "self_s")
    add("spectral.cyclic_convolution_exact", "calls", "self_s", "elems")
    out["spectral.cyclic_convolution_exact.distinct_ratio"] = (
        "ratio", _ratio("spectral.cyclic_convolution_exact", lambda st: st["distinct"]))
    add("spectral.phi_subgroup", "self_s")
    add("spectral.dft_magnitudes", "self_s")
    for fn in ("zpsets.sumset", "energetics.shift_sizes"):
        add(fn, "calls", "self_s")
        out[f"{fn}.conv_frac"] = (
            "ratio", _ratio(fn, lambda st: st["child_calls"].get("spectral", 0)))
        out[f"{fn}.distinct_ratio"] = ("ratio", _ratio(fn, lambda st: st["distinct"]))
    add("zpsets.shift_intersect", "calls", "self_s")
    add("energetics.threshold_invariant_set", "self_s")
    for fn in ("ssc_ratio_sum", "sumset_ratio_sum", "coset_profile"):
        add(f"energetics.{fn}", "total_s")
    add("verifier.check_bound", "calls", "total_s")
    for fn in ("check_six_fold", "covering_index", "count_solutions_N", "positivity_condition"):
        add(f"verifier.{fn}", "total_s")
    add("cli.run_sweep", "total_s")
    add("cli.emit_report", "total_s")
    add("cli.verify_all", "self_s")
    add("cli._record_for", "calls")
    return out


FUNCTION_METRICS = _per_function_metrics()
# every per-layer metric: name -> (unit, better)
TRACE_METRICS = {
    **{n: (u, "lower") for n, (u, _) in FUNCTION_METRICS.items()},
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "cli.cpu_util": ("ratio", "higher"),
    "spectral.slowest_record_frac": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}
for _n in ("spectral.cyclic_convolution_exact.distinct_ratio",
           "zpsets.sumset.distinct_ratio", "energetics.shift_sizes.distinct_ratio"):
    TRACE_METRICS[_n] = ("ratio", "higher")


class PinError(RuntimeError):
    """The tree under test could not be imported by a repetition."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUBGROUP_LAB_THREADS", None)  # thread counts come from the workload
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: str, args: list, trace_path: str | None, timeout: float):
    """Start one repetition; returns (its JSON result or None, stdout lines)."""
    spawn = time.monotonic()
    cmd = [sys.executable, "-E", "-s", CHILD, repr(spawn), root, trace_path or "-", *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, []
    if proc.returncode == 3:
        raise PinError(proc.stderr.strip())
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, lines
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        return None, lines


def run_rep(root, work, w, seed, rep, golden, traced, timeout, threads=1) -> dict:
    plan = wl.plan(w, seed, work, rep, golden, threads)
    trace_path = os.path.join(work, f"spans_{rep}.json") if traced else None
    res, lines = run_child(root, plan.args, trace_path, timeout)
    attempted = len(plan.expected)
    if res is None or res["rc"] != 0 or (plan.out_path and not os.path.exists(plan.out_path)):
        failed = attempted
    elif w.kind == "verify":
        failed = wl.check_verify(lines, plan.expected)
    else:
        with open(plan.out_path, "r", encoding="utf-8") as fh:
            failed = wl.check_records(fh.read(), plan.expected, golden)
    if plan.out_path:
        for path in (plan.out_path, plan.out_path + ".summary.txt"):
            if os.path.exists(path):
                os.remove(path)
    rep_out = {"ok": res is not None and res["rc"] == 0, "attempted": attempted,
               "failed": failed, "traced": traced, "threads": threads, "res": res}
    if traced and rep_out["ok"]:
        rep_out["spans"] = tracer.load(trace_path)
    return rep_out


def measure(root, work, w, seed, seconds, trace, golden) -> list:
    start = time.monotonic()
    # untimed warm-up: byte-compiles the tree and checks that it imports
    run_child(root, ["verify", "--pmax", "2"], None, REP_TIMEOUT_S)
    pool = []
    if w.pool_threads:
        pool.append(run_rep(root, work, w, seed, 0, golden, False, REP_TIMEOUT_S, w.pool_threads))
    reps: list = []
    durations: list = []
    while True:
        t0 = time.monotonic()
        timeout = max(10.0, REP_TIMEOUT_S - (t0 - start))
        reps.append(run_rep(root, work, w, seed, len(pool) + len(reps), golden,
                            trace and len(reps) % 2 == 1, timeout))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        typical = statistics.median(durations)
        if elapsed + typical > HARD_LIMIT_S:
            break
        if len(reps) >= (MIN_REPS_TRACE if trace else MIN_REPS) and elapsed + typical > seconds:
            break
    return pool + reps


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def at_reference_speed(r: dict, key: str) -> float:
    return r[key] * PROBE_REF_S / r["probe_s"]


def end_to_end_metrics(plain, attempted: int, failed: int) -> dict:
    return {
        "wall_s": _median(at_reference_speed(r, "wall_s") for r in plain),
        "setup_s": _median(at_reference_speed(r, "setup_s") for r in plain),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        "match_rate": 1.0 - failed / attempted,
    }


def trace_metrics(reps, plain) -> dict:
    traced = [r for r in reps if r["ok"] and r["traced"]]
    per_rep = []
    for r in traced:
        spans = r["spans"]
        stats = tracer.summarize(spans)
        vals = {name: get(stats) for name, (_, get) in FUNCTION_METRICS.items()}
        for m in MODULES:
            vals[f"{m}.self_s"] = sum(
                st["self_s"] for n, st in stats.items() if n.split(".", 1)[0] == m)
        records = [s for s in spans if s[1] == "cli._record_for"]
        if records:
            slow = max(records, key=lambda s: s[3] - s[2])
            vals["spectral.slowest_record_frac"] = (
                tracer.descendants_self(spans, slow[0], "spectral") / (slow[3] - slow[2]))
        else:
            vals["spectral.slowest_record_frac"] = 0.0
        vals["trace.coverage"] = sum(st["self_s"] for st in stats.values()) / r["res"]["wall_s"]
        per_rep.append(vals)
    if not per_rep:
        raise RuntimeError("no traced repetition succeeded")
    out = {name: _median(v[name] for v in per_rep) for name in per_rep[0]}
    untraced = [r for r in reps if r["ok"] and not r["traced"]]
    pool = [r for r in untraced if r["threads"] > 1] or untraced
    out["cli.cpu_util"] = _median(r["res"]["cpu_s"] / (r["res"]["wall_s"] * r["threads"])
                                  for r in pool)
    out["trace.overhead_s"] = (_median(r["res"]["wall_s"] for r in traced)
                               - _median(r["wall_s"] for r in plain))
    return out


def machine_facts(root: str, reps) -> dict:
    res = next((r["res"] for r in reps if r["res"]), {})
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "subgroup_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": res.get("python"), "numpy": res.get("numpy"),
            "commit": commit, "src_sha256": h.hexdigest()[:16]}


def run_workload(root: str, name: str, seed: int, seconds: int, trace: bool, golden) -> dict:
    w = wl.WORKLOADS[name]
    work = os.path.join(root, ".bench_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    problems = selftest.run() if trace else []
    reps = measure(root, work, w, seed, seconds, trace, golden)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r["res"] for r in reps if r["ok"] and not r["traced"] and r["threads"] == 1]
    if not plain:
        raise RuntimeError(f"{name}: every untraced repetition failed")
    print(f"{name} machine {json.dumps(machine_facts(root, reps))}")
    rows = [(f"raw_{k}", [r[k] for r in plain], "s") for k in ("wall_s", "setup_s")]
    rows.append(("probe_s", [r["probe_s"] for r in plain], "s"))
    rows += [(k, [at_reference_speed(r, k) for r in plain], "s") for k in ("wall_s", "setup_s")]
    rows.append(("peak_rss_mb", [r["peak_rss_mb"] for r in plain], "MB"))
    for key, vals, unit in rows:
        q1, q3 = _quartiles(vals)
        print(f"{name} {key} median={_median(vals):.6g} q1={q1:.6g} q3={q3:.6g} {unit} "
              f"n={len(vals)}")
    for r in reps:
        if r["threads"] > 1 and r["ok"]:
            print(f"{name} pool threads={r['threads']} raw_wall_s={r['res']['wall_s']:.6g} s "
                  f"failed={r['failed']}/{r['attempted']}")
    print(f"{name} error_rate={failed / attempted:.6g} ratio ({failed}/{attempted} units)")
    for p in problems:
        print(f"{name} tracer self-test failed: {p}")
    if trace:
        values = trace_metrics(reps, plain)
        metrics = {n: {"value": values[n], "unit": u} for n, (u, _) in TRACE_METRICS.items()}
    else:
        values = end_to_end_metrics(plain, attempted, failed)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def check_manifest(root: str) -> None:
    """BENCHMARK.json must name exactly this file's workloads and metrics."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = (
        [w["name"] for w in bench["workloads"]],
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
    )
    if declared != (list(wl.WORKLOADS), END_TO_END, TRACE_METRICS):
        raise RuntimeError("BENCHMARK.json does not match the workloads and metrics of run.py")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "subgroup_lab", "__init__.py")):
        print(f"error: no src/subgroup_lab under {root}", file=sys.stderr)
        return 2
    golden = wl.load_golden()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        check_manifest(root)
        results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace), golden)
                   for n in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for n, r in results.items():
        for m, v in r["metrics"].items():
            print(f"{n} {m} = {v['value']:.6g} {v['unit']}")
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
