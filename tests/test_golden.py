"""Byte identity of sweep output against hashes in golden_records.json.

Each configuration runs `sweep` through cli.main and hashes (sha256) its
records file, its summary, and the records lines of each prime, so that a
mismatch names the first prime whose records differ.  Each configuration
is written in the formats its entry in CONFIGS names: `pmax300` as CSV and
JSONL, `p4090_checks` (a check subset out of catalog order, d < 3 rows, and
heavy cells left empty above p = 4096) as JSONL, the others as CSV.

The float columns (E32, phi, the ratio sums and every check's lhs, rhs and
ratio) depend on numpy's summation order (np.sum and np.add.reduce add
pairwise) and on the platform's libm (log, exp, pow, cos).  They also depend
on the SIMD kernels numpy dispatches to on the CPU at hand: E32 raises its
terms to the power 1.5 with numpy's vector power, and its X86_V4 (AVX-512)
kernel rounds differently from libm's pow (x ** 1.5 differs for 297 of the
integers x from 1 to 5000; for none with those kernels off).  The hashes were captured on
a host with AVX-512, so on one without it, or with

    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"

every configuration fails at its first prime whose E32 differs, from
pmax300 on.  Each failure message names the SIMD features numpy found, so a
host mismatch can be told from a regression.  A numpy, libm or CPU that
rounds differently may change the last bits without any fault in the
package; only then re-capture a configuration: delete its entry from
golden_records.json and run

    PYTHONPATH=src python tests/test_golden.py

which adds the configurations missing from the file and leaves every hash
already there as it is, so capturing a new configuration never re-blesses
the old ones.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from subgroup_lab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_records.json")

# name: (sweep arguments, record formats)
CONFIGS = {
    "pmax300": (["--pmax", "300"], ("csv", "jsonl")),
    "p4090_heavy_k5": (["--pmin", "4090", "--pmax", "4400", "--heavy", "--kmax", "5"], ("csv",)),
    "p100000": (["--pmin", "100000", "--pmax", "100150"], ("csv",)),
    "pmax2000_heavy": (["--pmax", "2000", "--heavy"], ("csv",)),
    "pmax300_k64": (["--pmax", "300", "--kmax", "64"], ("csv",)),
    "p4090_checks": (
        ["--pmin", "4090", "--pmax", "4250", "--checks", "li_decay,ssc_lemma3,e3"],
        ("jsonl",),
    ),
}


def _simd() -> str:
    """numpy's version and the SIMD dispatch targets it found on this CPU
    (numpy.show_runtime prints the same)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return f"numpy {np.__version__}, SIMD dispatch found: {' '.join(found) or 'none'}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _prime_of(line: bytes, fmt: str) -> str:
    if fmt == "csv":
        return line.split(b",", 1)[0].decode()
    return str(json.loads(line)["p"])


def sweep_hashes(args, fmt: str, out_dir: str) -> dict:
    """Hashes of one sweep's records file, its summary and each prime's lines."""
    out = os.path.join(out_dir, f"records.{fmt}")
    assert main(["sweep", *args, "--format", fmt, "--out", out]) == 0
    with open(out, "rb") as fh:
        records = fh.read()
    with open(out + ".summary.txt", "rb") as fh:
        summary = fh.read()
    lines = records.splitlines(keepends=True)
    per_prime: dict[str, list[bytes]] = {}
    for line in lines[1:] if fmt == "csv" else lines:
        per_prime.setdefault(_prime_of(line, fmt), []).append(line)
    return {
        "records": _sha(records),
        "summary": _sha(summary),
        "primes": {p: _sha(b"".join(ls)) for p, ls in per_prime.items()},
    }


def _cases():
    return [(name, fmt) for name, (_, fmts) in CONFIGS.items() for fmt in fmts]


@pytest.mark.parametrize("name,fmt", _cases())
def test_sweep_output_is_byte_identical(name, fmt, tmp_path, capsys):
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)[f"{name}.{fmt}"]
    got = sweep_hashes(CONFIGS[name][0], fmt, str(tmp_path))
    capsys.readouterr()
    assert list(got["primes"]) == list(want["primes"]), f"the swept primes differ ({_simd()})"
    for p, digest in want["primes"].items():
        assert got["primes"][p] == digest, f"records of p={p} differ ({_simd()})"
    assert got["records"] == want["records"], f"records file differs outside the rows ({_simd()})"
    assert got["summary"] == want["summary"], f"summary differs ({_simd()})"

if __name__ == "__main__":
    import tempfile

    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    added = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, fmt in _cases():
            if f"{name}.{fmt}" not in golden:
                golden[f"{name}.{fmt}"] = sweep_hashes(CONFIGS[name][0], fmt, tmp)
                added.append(f"{name}.{fmt}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"added {', '.join(added) or 'nothing'} to {GOLDEN}", file=sys.stderr)
