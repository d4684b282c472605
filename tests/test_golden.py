"""Byte identity of sweep output against hashes in golden_records.json.

Each configuration runs `sweep` through cli.main and hashes (sha256) its
records file, its summary, and the records lines of each prime, so that a
mismatch names the first prime whose records differ.  Each configuration
is written in the formats its entry in CONFIGS names: `pmax300` as CSV and
JSONL, `p4090_checks` (a check subset out of catalog order, d < 3 rows, and
heavy cells left empty above p = 4096) as JSONL, the others as CSV.

The float columns (E32, phi, the ratio sums and every check's lhs, rhs and
ratio) depend on numpy's summation order (np.sum and np.add.reduce add
pairwise) and on the platform's libm (log, exp, pow, cos).  A numpy or libm
that rounds differently may change their last bits without any fault in the
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
    assert list(got["primes"]) == list(want["primes"]), "the swept primes differ"
    for p, digest in want["primes"].items():
        assert got["primes"][p] == digest, f"records of p={p} differ"
    assert got["records"] == want["records"], "records file differs outside the rows"
    assert got["summary"] == want["summary"], "summary differs"


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
