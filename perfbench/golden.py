"""Capture the golden outputs the benchmark checks every run against.

    python3 perfbench/golden.py

Runs the CLI of the tree this file sits in, in-process, on every input any
seed can pick: the sweep over [3, SWEEP_PMAX] (with 1 and with 2 threads,
which must agree byte for byte), each prime of RECORD_PRIMES, and verify.
It writes perfbench/golden.json: a hash per record line, the CSV header hash
and the verify family lines.  Run it only on a commit whose outputs are known
good; the benchmark treats any later difference as an error.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sweep(cli, args: list, out: str) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(args + ["--out", out])
    if rc != 0:
        raise SystemExit(f"sweep {args} exited {rc}")
    with open(out, "r", encoding="utf-8") as fh:
        return fh.read()


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import subgroup_lab.cli as cli

    work = os.path.join(ROOT, ".bench_work", "golden")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sweep = ["sweep", "--pmin", "3", "--pmax", str(wl.SWEEP_PMAX)]
    text = _sweep(cli, sweep + ["--threads", "1"], os.path.join(work, "t1.csv"))
    if _sweep(cli, sweep + ["--threads", "2"], os.path.join(work, "t2.csv")) != text:
        raise SystemExit("sweep output depends on the thread count")
    header, *rows = text.rstrip("\n").split("\n")
    for p in wl.RECORD_PRIMES:
        cfg = os.path.join(work, "record.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"p_min = {p}\np_max = {p}\nmin_size = 6\nmax_size = {(p - 1) // 6}\n")
        out = _sweep(cli, ["sweep", "--config", cfg], os.path.join(work, "r.csv"))
        rec_header, *rec_rows = out.rstrip("\n").split("\n")
        if rec_header != header or len(rec_rows) != 2:
            raise SystemExit(f"unexpected record output at p={p}")
        rows += rec_rows
    bad = [r for r in rows if not wl.consistent(r)]
    if bad:
        raise SystemExit(f"six-fold verdict disagrees with covering index: {bad[0][:60]}")

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--pmax", str(wl.VERIFY_PMAX)])
    if rc != 0:
        raise SystemExit(f"verify exited {rc}")
    golden = {
        "csv_header": wl.line_hash(header),
        "records": {wl.record_key(r): wl.line_hash(r) for r in rows},
        "verify_lines": buf.getvalue().splitlines(),
    }
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0)
        fh.write("\n")
    shutil.rmtree(work)
    print(f"wrote {len(golden['records'])} records and {len(golden['verify_lines'])} verify lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
