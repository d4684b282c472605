"""The benchmark's workloads: CLI arguments from a seed, and output checks.

Every workload is one `subgroup_lab.cli.main` call.  The seed picks inputs of
near-equal cost, so runs with different seeds stay comparable:

- sweep_p300: `sweep --pmin P --pmax 300 --threads 1`; the seed picks P
  among the primes below 50 (seed 0 gives P = 3), which drops only the
  cheapest primes.  Each run also makes one repetition of the same sweep with
  `--threads 2`, which goes through the cli's thread pool; its records must
  equal the same golden copy byte for byte.  That repetition is checked but
  not timed: on a 2-vCPU host its wall time is set by interpreter-lock
  handoffs between the vCPUs and swings from 1.7 to 3.2 s between
  back-to-back repetitions.
- record_p1e5: `sweep --config F`, one prime p = 6q + 1 with q prime, records
  d = 6 and d = q (heavy checks off, as above p = 4096); the seed picks p
  from RECORD_PRIMES, whose NTT length is the same (2^18) and whose sizes
  differ by under 2%.
- verify_p100: `verify --pmax 100`.  The property suite has no input but the
  bound, so every seed gives the same run.

Outputs are checked unit by unit against `golden.json` (captured by
`golden.py`): a unit is one CSV record line for the sweeps, one `ok <family>`
line for verify.  Each record line is also checked by an independent route:
its six-fold verdict must agree with its covering index.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

SWEEP_PMAX = 300
SWEEP_PMINS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# p = 6q + 1 with q prime, p in [95287, 96667]
RECORD_PRIMES = (95287, 95443, 95479, 95539, 95947, 96043, 96199, 96667)
VERIFY_PMAX = 100

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" or "record" (CSV records), "verify" (family lines)
    pool_threads: int = 0  # >0: one checked, untimed repetition with this many threads


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_p300", "sweep", pool_threads=2),
        Workload("record_p1e5", "record"),
        Workload("verify_p100", "verify"),
    )
}


def line_hash(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def record_key(line: str) -> str:
    return ",".join(line.split(",", 2)[:2])


@dataclass(frozen=True)
class Plan:
    """What one repetition runs and what it must produce."""

    args: list
    out_path: str | None  # records file of a sweep
    expected: list  # record keys in output order, or verify lines


def plan(w: Workload, seed: int, work_dir: str, rep: int, golden: dict, threads: int = 1) -> Plan:
    rng = random.Random(seed)
    if w.kind == "verify":
        return Plan(["verify", "--pmax", str(VERIFY_PMAX)], None, golden["verify_lines"])
    out = os.path.join(work_dir, f"records_{rep}.csv")
    if w.kind == "record":
        p = RECORD_PRIMES[0] if seed == 0 else rng.choice(RECORD_PRIMES)
        cfg = os.path.join(work_dir, "record.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"p_min = {p}\np_max = {p}\nmin_size = 6\nmax_size = {(p - 1) // 6}\n")
        args = ["sweep", "--config", cfg, "--out", out]
        keys = [f"{p},6", f"{p},{(p - 1) // 6}"]
    else:
        pmin = 3 if seed == 0 else rng.choice(SWEEP_PMINS)
        args = ["sweep", "--pmin", str(pmin), "--pmax", str(SWEEP_PMAX),
                "--threads", str(threads), "--out", out]
        keys = sorted(
            (k for k in golden["records"] if pmin <= int(k.split(",")[0]) <= SWEEP_PMAX),
            key=lambda k: tuple(map(int, k.split(","))),
        )
    return Plan(args, out, keys)


def consistent(line: str) -> bool:
    """Six-fold verdict agrees with the covering index; |A| equals d."""
    cells = line.split(",")
    d, a_size, six, k = cells[1], cells[2], cells[4], cells[5]
    return a_size == d and (six == "true") == (k != "" and int(k) <= 6)


def check_records(text: str, keys: list, golden: dict) -> int:
    """Number of expected records that are missing, wrong or out of place.

    Zero failures means the file is byte-identical to the golden records.
    """
    lines = text.split("\n")
    if len(lines) < 2 or lines[-1] != "" or line_hash(lines[0]) != golden["csv_header"]:
        return len(keys)
    rows = lines[1:-1]
    failed = max(0, len(keys) - len(rows))
    for i, row in enumerate(rows):
        key = record_key(row)
        ok = (
            i < len(keys)
            and key == keys[i]
            and golden["records"].get(key) == line_hash(row)
            and consistent(row)
        )
        failed += not ok
    return min(failed, len(keys))


def check_verify(stdout_lines: list, expected: list) -> int:
    """Number of expected family lines missing from the verify output."""
    got = [ln for ln in stdout_lines if ln.startswith(("ok ", "FAIL "))]
    return sum(1 for i, want in enumerate(expected) if i >= len(got) or got[i] != want)


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
