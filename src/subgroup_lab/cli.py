"""Sweep driver, reporting, and the command-line entry point.

Subcommands:
  sweep    compute per-subgroup records over a prime range and write csv/jsonl
  verify   run the internal property suite, exit nonzero on any violation
  report   rebuild summary (and optional SVG scatters) from a records file

Records are emitted in (p, d) order with fixed column order and fixed float
formatting, so output bytes do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import random
import re
import sys
import time
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import energetics, numtheory, spectral
from .energetics import SubgroupContext, shift_sizes
from .numtheory import cached_property, divisors, subgroup
from .spectral import convolve_counts, dft_magnitudes, exact_supports, phi_subgroup
from .verifier import (
    ALL_CHECKS,
    catalog_cells,
    check_six_fold,
    clears_cover_threshold,
    count_solutions_N,
    exponent_fit,
    positivity_condition,
)
from .zpsets import ZpSet, fold_sumset, sumset

CSV_BASE_COLUMNS = (
    "p",
    "d",
    "A_size",
    "twoA_size",
    "sixA_covers",
    "covering_k",
    "E",
    "E3",
    "E32",
    "phi",
    "ssc_ratio",
    "sumset_ratio",
)

# Every check contributes these four columns, as "<check>:<suffix>".
CHECK_SUFFIXES = ("lhs", "rhs", "ratio", "hyp")


@dataclass
class SweepConfig:
    p_min: int = 3
    p_max: int = 101
    min_size: int = 1
    max_size: int | None = None
    alpha_lo: float = 0.0
    alpha_hi: float = 1.0
    checks: tuple[str, ...] = ALL_CHECKS
    kmax: int = 8
    threads: int = 1
    out_path: str = "records.csv"
    format: str = "csv"
    svg_dir: str | None = None
    hypothesis_constant: float = 1.0
    heavy_ops: bool = False

    def validate(self) -> "SweepConfig":
        if not 3 <= self.p_min <= self.p_max <= numtheory.MODULUS_LIMIT:
            raise ValueError(
                f"need 3 <= p_min <= p_max <= {numtheory.MODULUS_LIMIT}, got [{self.p_min}, {self.p_max}]"
            )
        if not self.alpha_lo <= self.alpha_hi:
            raise ValueError(f"need alpha_lo <= alpha_hi, got [{self.alpha_lo}, {self.alpha_hi}]")
        if self.min_size < 0:
            raise ValueError(f"min_size must be >= 0, got {self.min_size}")
        if self.max_size is not None and self.max_size < self.min_size:
            raise ValueError(f"max_size {self.max_size} is below min_size {self.min_size}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.kmax < 1:
            raise ValueError("kmax must be >= 1")
        if self.format not in ("csv", "jsonl"):
            raise ValueError(f"format must be csv or jsonl, got {self.format!r}")
        unknown = [c for c in self.checks if c not in ALL_CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        repeated = sorted({c for c in self.checks if self.checks.count(c) > 1})
        if repeated:
            raise ValueError(f"repeated checks: {', '.join(repeated)}")
        if not 0 < self.hypothesis_constant < math.inf:
            raise ValueError(
                f"hypothesis constant must be positive and finite, got {self.hypothesis_constant}"
            )
        return self


def _parse_bool(val: str) -> bool:
    low = val.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"bad boolean {val!r}")


def _parse_checks(text: str) -> tuple[str, ...]:
    text = text.strip()
    if text == "all":
        return ALL_CHECKS
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _optional(parse):
    return lambda val: None if val.lower() in ("", "none") else parse(val)


# Config-file value parser for each annotation used in SweepConfig.
_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": str,
    "int | None": _optional(int),
    "str | None": _optional(str),
    "tuple[str, ...]": _parse_checks,
}


_COMMENT = re.compile(r"(?:^|\s)#.*")


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; keys are SweepConfig fields.

    '#' starts a comment at the start of a line or after whitespace, so a
    value may hold '#' (out_path = run#2.csv).  A key set twice raises.
    """
    types = {f.name: f.type for f in fields(SweepConfig)}
    out: dict = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT.sub("", raw).strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(
                    f"{path}:{lineno}: {key} set again (first at line {first_line[key]})"
                )
            first_line[key] = lineno
            try:
                out[key] = _PARSERS[types[key]](val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def primes_between(lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi], ascending (2 is never a working modulus)."""
    lo = max(lo, 3)
    if hi < lo:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(math.isqrt(hi)) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return (np.flatnonzero(sieve[lo:]) + lo).tolist()


def _qualifying_orders(p: int, cfg: SweepConfig) -> list[int]:
    out = []
    lnp = math.log(p)
    for d in divisors(p - 1):
        if d < cfg.min_size:
            continue
        if cfg.max_size is not None and d > cfg.max_size:
            continue
        alpha = math.log(d) / lnp
        if alpha < cfg.alpha_lo or alpha > cfg.alpha_hi:
            continue
        out.append(d)
    return out


@lru_cache(maxsize=None)
def _check_columns(name: str) -> tuple[str, ...]:
    return tuple(f"{name}:{suffix}" for suffix in CHECK_SUFFIXES)


@lru_cache(maxsize=8)  # _record_for asks for the same columns once per record
def _columns(check_names: tuple[str, ...]) -> tuple[str, ...]:
    """The columns of a records file: CSV_BASE_COLUMNS, then four per check."""
    return (*CSV_BASE_COLUMNS, *(c for name in check_names for c in _check_columns(name)))


def _record_for(args) -> dict:
    """The row of one (p, d); a check skipped (d < 3, or heavy and off) has None cells."""
    p, d, cfg = args
    A = subgroup(p, d)
    ctx = SubgroupContext(A, allow_heavy=cfg.heavy_ops)
    cells = catalog_cells(cfg.checks, ctx, cfg.hypothesis_constant)
    fixed = (  # in CSV_BASE_COLUMNS order; A_size is d
        p, d, d, ctx.twoA_size, check_six_fold(A), ctx.covering_index(cfg.kmax),
        ctx.energy, ctx.energy3, ctx.energy32, ctx.phi, ctx.ssc,
        ctx.sumset_ratio if ctx.heavy_ok else None,
    )
    return dict(zip(_columns(tuple(cfg.checks)), (*fixed, *cells), strict=True))


def run_sweep(cfg: SweepConfig) -> list[dict]:
    """Compute the row of each qualifying (p, d).  Output order is (p, d).

    The tasks are built in that order, and pool.map keeps it.
    """
    cfg.validate()
    tasks = [
        (p, d, cfg)
        for p in primes_between(cfg.p_min, cfg.p_max)
        for d in _qualifying_orders(p, cfg)
    ]
    if cfg.threads <= 1 or len(tasks) <= 1:
        return [_record_for(t) for t in tasks]
    import concurrent.futures  # only here: its import costs every CLI start 6-12 ms

    with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(_record_for, tasks))


# ---------------------------------------------------------------------------
# emission


def format_csv(rows: list[dict], check_names) -> str:
    """The CSV text of the rows: an empty cell for None, true or false for a
    bool, repr for an int or float (for these str and repr agree).

    Each row is joined from map(repr, ...) of its cells, and the text is
    fixed up by three str.replace calls: no Python call per cell.  That
    needs the plain Python None, bool, int and float cells _record_for
    builds; no column name and no int or float repr holds None, True or
    False.
    """
    cols = _columns(tuple(check_names))
    lines = [",".join(cols)]
    lines += [",".join(map(repr, cells)) for cells in map(operator.itemgetter(*cols), rows)]
    text = "\n".join(lines) + "\n"
    return text.replace("None", "").replace("True", "true").replace("False", "false")


def format_jsonl(rows: list[dict]) -> str:
    return "\n".join(json.dumps(row, separators=(",", ":")) for row in rows) + "\n"


def summary_text(rows: list[dict], check_names) -> str:
    """Human-readable sweep digest with envelope exponent fits per check."""
    out = []
    n = len(rows)
    out.append(f"records: {n}")
    if n:
        ps = sorted({r["p"] for r in rows})
        out.append(f"primes: {ps[0]}..{ps[-1]} ({len(ps)} of them)")
        covered = sum(1 for r in rows if r["sixA_covers"])
        out.append(f"six-fold coverage: {covered}/{n} records cover Z_p*")
        above = [r for r in rows if clears_cover_threshold(int(r["p"]), int(r["d"]))]
        bad = [r for r in above if not r["sixA_covers"]]
        out.append(
            f"six-fold coverage at |A| >= p^(11/23): {len(above) - len(bad)}/{len(above)}"
            f" (failures: {len(bad)})"
        )
    for name in check_names:
        lhs_col, _, ratio_col, hyp_col = _check_columns(name)
        hits = [r for r in rows if r.get(lhs_col) is not None and r.get(ratio_col) is not None]
        if not hits:
            out.append(f"check {name}: no records")
            continue
        hyp_ok = sum(bool(r.get(hyp_col)) for r in hits)
        line = (
            f"check {name}: n={len(hits)} max_ratio={max(r[ratio_col] for r in hits):.6g}"
            f" hyp_ok={hyp_ok}/{len(hits)}"
        )
        pts = [(r["A_size"], r[lhs_col]) for r in hits]
        try:
            fit = exponent_fit(pts, envelope=True)
            line += (
                f" envelope_slope={fit.slope:.6g} intercept={fit.intercept:.6g}"
                f" residual={fit.residual:.6g}"
            )
        except ValueError:
            line += " envelope_fit=insufficient-data"
        out.append(line)
    return "\n".join(out) + "\n"


def write_svg_scatter(path: str, points, title: str, fit=None) -> None:
    """Self-contained log-log scatter plot, no plotting dependency."""
    pts = [(math.log(x), math.log(y)) for x, y in points if 0 < x < math.inf and 0 < y < math.inf]
    w, h, m = 640, 480, 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w//2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    if pts:
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0

        def sx(x):
            return m + (x - x0) / xr * (w - 2 * m)

        def sy(y):
            return h - m - (y - y0) / yr * (h - 2 * m)

        parts.append(
            f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>'
        )
        parts.append(f'<line x1="{m}" y1="{h-m}" x2="{m}" y2="{m}" stroke="black"/>')
        parts.append(
            f'<text x="{w//2}" y="{h-12}" text-anchor="middle" font-size="12">ln |A|</text>'
        )
        parts.append(
            f'<text x="14" y="{h//2}" font-size="12" '
            f'transform="rotate(-90 14 {h//2})" text-anchor="middle">ln lhs</text>'
        )
        for lbl, val, xpix, ypix, anchor in (
            (f"{x0:.2f}", x0, sx(x0), h - m + 16, "middle"),
            (f"{x1:.2f}", x1, sx(x1), h - m + 16, "middle"),
        ):
            parts.append(
                f'<text x="{xpix:.1f}" y="{ypix}" text-anchor="{anchor}" '
                f'font-size="10">{lbl}</text>'
            )
        parts.append(
            f'<text x="{m-6}" y="{sy(y0):.1f}" text-anchor="end" font-size="10">{y0:.2f}</text>'
        )
        parts.append(
            f'<text x="{m-6}" y="{sy(y1):.1f}" text-anchor="end" font-size="10">{y1:.2f}</text>'
        )
        if fit is not None:
            fy0 = fit.slope * x0 + fit.intercept
            fy1 = fit.slope * x1 + fit.intercept
            parts.append(
                f'<line x1="{sx(x0):.2f}" y1="{sy(fy0):.2f}" x2="{sx(x1):.2f}" '
                f'y2="{sy(fy1):.2f}" stroke="#c33" stroke-width="1.2"/>'
            )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.4" '
                f'fill="#228" fill-opacity="0.6"/>'
            )
    else:
        parts.append(
            f'<text x="{w//2}" y="{h//2}" text-anchor="middle" font-size="12">'
            "no positive data</text>"
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def write_check_svgs(rows: list[dict], check_names, svg_dir: str) -> list[str]:
    """One lhs-vs-|A| scatter per check, with its envelope fit; returns the paths."""
    os.makedirs(svg_dir, exist_ok=True)
    paths = []
    for name in check_names:
        lhs_col = _check_columns(name)[0]
        pts = [(row["A_size"], row[lhs_col]) for row in rows if row.get(lhs_col)]
        fit = None
        try:
            fit = exponent_fit(pts, envelope=True)
        except ValueError:
            pass
        path = os.path.join(svg_dir, f"{name}.svg")
        write_svg_scatter(path, pts, f"{name}: lhs vs |A| (log-log)", fit)
        paths.append(path)
    return paths


def emit_report(rows: list[dict], cfg: SweepConfig) -> dict:
    """Write the records file, its summary, and optional SVG scatters."""
    check_names = list(cfg.checks)
    text = format_csv(rows, check_names) if cfg.format == "csv" else format_jsonl(rows)
    paths = {"records": cfg.out_path}
    with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    summary_path = cfg.out_path + ".summary.txt"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(summary_text(rows, check_names))
    paths["summary"] = summary_path
    if cfg.svg_dir:
        paths["svg"] = write_check_svgs(rows, check_names, cfg.svg_dir)
    return paths


# The types the cells summary_text reads may have, and their name: the fixed
# cells by column, a check's cells by suffix (empty where it was skipped).
_INT, _NUMBER = ((int,), "int"), ((int, float, type(None)), "a number or empty")
_FIXED_CELLS = {"p": _INT, "d": _INT, "A_size": _INT, "sixA_covers": ((bool,), "bool")}
_CHECK_CELLS = dict(lhs=_NUMBER, rhs=_NUMBER, ratio=_NUMBER, hyp=((bool, type(None)), "bool or empty"))


def read_rows(path: str) -> tuple[list[dict], list[str]]:
    """Load a records file written by emit_report.  Returns (rows, check names).

    JSONL if the first non-blank line opens an object, else CSV, whatever the suffix.
    A line that is not JSON, a CSV cell that is not a number, a CSV row with another
    cell count than the header, a JSONL row with other keys than the first, a fixed
    or check cell of another type than _FIXED_CELLS or _CHECK_CELLS gives it, a NaN,
    or an integer cell beyond the float range or longer than int() reads raises
    ValueError naming the file and the line; a check name outside ALL_CHECKS (it
    names an SVG file) raises naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        return [], []

    def bad_line(n: int, why: str) -> ValueError:
        return ValueError(f"{path}, line {n}: {why}")

    off_columns = f"row does not match the columns of line {lines[0][0]}"
    rows = []
    jsonl = lines[0][1].startswith("{")
    if jsonl:
        for n, ln in lines:
            try:
                row = json.loads(ln)
            except json.JSONDecodeError as exc:
                raise bad_line(n, f"not JSON ({exc.msg}, column {exc.colno})") from None
            except ValueError as exc:  # an integer longer than int() reads
                raise bad_line(n, str(exc)) from None
            if not isinstance(row, dict) or (rows and row.keys() != rows[0].keys()):
                raise bad_line(n, off_columns)
            rows.append(row)
        cols = rows[0].keys()
    else:
        cols = lines[0][1].split(",")
        for n, ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(cols):
                raise bad_line(n, off_columns)
            try:
                rows.append({c: _parse_cell(v) for c, v in zip(cols, cells)})
            except ValueError as exc:
                raise bad_line(n, str(exc)) from None
    missing = [c for c in CSV_BASE_COLUMNS if c not in cols]
    if missing:
        raise ValueError(f"{path} is not a records file: no column {', '.join(missing)}")
    checks = [c[: -len(":ratio")] for c in cols if c.endswith(":ratio")]
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"{path}: unknown check {', '.join(map(repr, unknown))}")
    kinds = {**_FIXED_CELLS, **{f"{c}:{x}": t for c in checks for x, t in _CHECK_CELLS.items()}}
    for (n, _), row in zip(lines if jsonl else lines[1:], rows):
        for c, (types, what) in kinds.items():
            v = row.get(c)
            if type(v) not in types or v != v:  # bool is an int subclass; NaN != NaN
                raise bad_line(n, f"{c} must be {what}, got {v!r}")
            if type(v) is int and abs(v) > sys.float_info.max:  # the fits take float(v)
                raise bad_line(n, f"{c} is beyond the float range ({len(str(abs(v)))} digits)")
    return rows, checks


def _parse_cell(v: str):
    if v == "":
        return None
    if v == "true":
        return True
    if v == "false":
        return False
    try:
        return int(v)
    except ValueError:
        if v.lstrip("+-").isdecimal():  # longer than int() reads
            raise
    try:
        return float(v)
    except ValueError:
        raise ValueError(f"not a number: {v!r}") from None


# ---------------------------------------------------------------------------
# property suite


def _rand_set(p: int, rng: random.Random, max_card: int = 512) -> ZpSet:
    card = rng.randint(1, min(p - 1, max_card))
    return ZpSet.from_elements(p, rng.sample(range(p), card))


def _enumeration_convolution(X: ZpSet, Y: ZpSet) -> np.ndarray:
    """Representation counts from the sorted pair sums, a route no tier of
    exact_counts takes (its pair tier bincounts the sums): the count of z is
    the gap between the first positions of z and z + 1 in the sorted sums."""
    sums = ((X.members()[:, None] + Y.members()) % X.p).ravel()
    sums.sort()
    return np.diff(np.searchsorted(sums, np.arange(X.p + 1)))


class _Shared:
    """One subgroup A of a verify walk and the Z_p-route values that several
    families read (verify_all), each built by the first family to read it."""

    def __init__(self, p: int, d: int):
        self.p, self.d = p, d

    @cached_property
    def A(self):
        return subgroup(self.p, self.d)

    @cached_property
    def prof(self) -> np.ndarray:
        return shift_sizes(self.A.indicator)

    @cached_property
    def two(self) -> ZpSet:
        return fold_sumset(self.A.indicator, 2)


def _verify_convolution(h, rng):
    """A * Y for a random set Y, against pair enumeration."""
    A = h.A
    X, Y = A.indicator, _rand_set(A.p, rng)
    got = convolve_counts(X, Y)
    want = _enumeration_convolution(X, Y)
    if not np.array_equal(got, want):
        z = int(np.flatnonzero(got != want)[0])
        return 1, f"convolution p={A.p} d={A.d} z={z}: {got[z]} != {want[z]}"
    return 1, None


def _verify_energy(h, rng):
    """E(A) from pair counts, the shift profile, all rotations and the spectrum."""
    A, prof = h.A, h.prof
    aset, p = A.indicator, A.p
    counts = convolve_counts(aset, aset)
    e_conv = int(np.dot(counts, counts))
    e_prof = int(np.dot(prof, prof))
    rotations = np.lib.stride_tricks.sliding_window_view(np.tile(aset.bits, 2)[:-1], p)
    rolled = (aset.bits & rotations).sum(axis=1)  # row k: np.roll by -k, each shift once
    e_roll = int(np.dot(rolled, rolled))
    e_spec = energetics.additive_energy_spectral(aset, aset)
    if not (e_conv == e_prof == e_roll):
        return 1, f"energy-definitions p={p} d={A.d}: {e_conv}/{e_prof}/{e_roll}"
    if abs(e_spec - e_conv) > max(spectral.ABS_TOL, spectral.REL_TOL * e_conv):
        return 1, f"energy-spectral p={p} d={A.d}: {e_spec} vs {e_conv}"
    return 1, None


def _verify_containment(h, rng):
    """A + A_s inside (2A)_s: every shift for p <= 200, else 0 and the coset reps.

    The rows A_s and (2A)_s are cut from the rotations of A and 2A, at most
    spectral._GATHER_BLOCK elements at a time; the nonempty A_s of a block
    take one exact_supports call, which reads A's rotations too, and the
    first failing one in ascending shift order is reported.
    """
    A, two = h.A, h.two
    p, aset = A.p, A.indicator
    shifts = np.arange(p) if p <= 200 else np.concatenate(([0], A.reps))
    step, cases = max(1, spectral._GATHER_BLOCK // p), 0
    for i in range(0, len(shifts), step):
        s = shifts[i : i + step]
        a_s = aset.bits & aset.rotations[-s % p]
        live = a_s.any(axis=1)
        s = s[live]
        outside = ~(two.bits & two.rotations[-s % p])  # Z_p minus (2A)_s
        bad = (exact_supports(aset, a_s[live]) & outside).any(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            return cases + j, f"containment p={p} d={A.d} s={s[j]}"
        cases += len(s)
    return cases, None


def _verify_coset_profile(h, rng):
    """The shift profile is constant on cosets; phi equals the dense
    spectrum's up to p = 521, and above it, with its rep, bit for bit the
    largest of the direct np.exp sums at every coset rep (no screen, no table).
    """
    A, prof = h.A, h.prof
    p, reps = A.p, A.reps
    phases = (reps[:, None] * A.elements) % p  # one row per coset
    vals = prof[phases]
    broken = np.flatnonzero((vals != prof[reps][:, None]).any(axis=1))
    if broken.size:
        return 1, f"coset-constancy p={p} d={A.d} rep={int(reps[broken[0]])}"
    phi_fast, rep = phi_subgroup(A)
    if p <= 521:
        want = dft_magnitudes(A.indicator).phi
        if abs(phi_fast - want) > 1e-9 * max(phi_fast, want, 1.0):
            return 1, f"phi p={p} d={A.d}: {phi_fast} vs {want}"
    else:
        mags = np.abs(np.exp(2j * np.pi * phases / p).sum(axis=1))
        i = int(np.argmax(mags))
        if (phi_fast, rep) != (float(mags[i]), int(reps[i])):
            return 1, f"phi p={p} d={A.d}: {phi_fast} at {rep} vs {mags[i]} at {reps[i]}"
    return 1, None


def _verify_spectral_identity(h, rng):
    """|A| |Â(lam)|^2 equals sum_s |A_s| Re Â(lam s), Â(t) = sum_{y in A} e_p(t y).

    Both sides read one table of Â: Â(0) = |A|, and Â is constant on the
    cosets of A, so one np.exp sum at each quotient point but 0 (A.points) is
    spread over its coset (not through phi_subgroup's unit roots).  The identity
    holds for every dilate of Â, so a direct sum of Â(1) pins the orientation.
    """
    A = h.A
    p, d = A.p, A.d
    prof = h.prof.astype(np.float64)
    lams = np.arange(1, p) if p <= 101 else np.arange(1, p, max(1, p // 32))
    sums = np.exp(2j * np.pi * ((A.points[1:, None] * A.elements) % p) / p).sum(axis=1)
    hat = A.spread(np.concatenate(([d], sums)))
    hat1 = np.exp(2j * np.pi * A.elements / p).sum()
    if abs(hat[1] - hat1) > max(spectral.ABS_TOL, spectral.REL_TOL * abs(hat1)):
        return 0, f"spectral-identity p={p} d={d} hat(1): {hat[1]} vs {hat1}"
    lhs = d * np.abs(hat[lams]) ** 2
    rhs = hat.real[(lams[:, None] * np.arange(p)) % p] @ prof
    bad = np.abs(lhs - rhs) > np.maximum(spectral.ABS_TOL, spectral.REL_TOL * np.abs(lhs))
    if bad.any():
        i = int(np.argmax(bad))  # the first failing lam
        return i, f"spectral-identity p={p} d={d} lam={lams[i]}: {lhs[i]} vs {rhs[i]}"
    return lams.size, None


def _verify_coverage(h, rng):
    """Six-fold check vs 6A built in full; positivity forces solutions and coverage.

    The reference builds all six folds without the multiset bound that
    check_six_fold reads, 2A + A + A + A + A as fold_sumset chains them;
    for d >= 2 a cover at some k <= 6 carries to 6A.
    """
    A, six_a = h.A, h.two
    p, d = A.p, A.d
    for _ in range(4):
        six_a = sumset(six_a, A.indicator)
    six, full = check_six_fold(A), six_a.covers_nonzero()
    if six != full:
        return 1, f"coverage-agreement p={p} d={d}: six={six} 6A covers={full}"
    if p <= 2000 and positivity_condition(A):
        for a in random.Random(p * 7919 + d).sample(range(1, p), min(3, p - 1)):
            if count_solutions_N(A, a) <= 0:
                return 1, f"positivity p={p} d={d} a={a}"
            if not six:
                return 1, f"positivity-coverage p={p} d={d}"
    return 1, None


# Each family checks one subgroup (a _Shared) against an independent route
# and returns (cases, failure message or None).  Entries: (name, largest
# prime, family).
_FAMILIES = (
    ("convolution", 1024, _verify_convolution),
    ("energy-definitions", 1024, _verify_energy),
    ("containment", math.inf, _verify_containment),
    ("coset-profile", math.inf, _verify_coset_profile),
    ("spectral-identity", 1024, _verify_spectral_identity),
    ("coverage", math.inf, _verify_coverage),
)


def verify_all(p_max: int, *, echo=print) -> int:
    """Run the property suite over p <= p_max; 0 iff no violation.

    Walks the primes once.  At each prime it makes one _Shared per subgroup
    of Z_p*, so the subgroup, its shift profile (read by energy-definitions,
    coset-profile and spectral-identity) and 2A (read by containment and
    coverage) are built once, and runs the families in order over them, each
    up to its cap with a fresh rng = random.Random(911 * p), which draws the
    convolution family's random sets.  Only one prime's subgroups are alive
    at a time.  After the walk it echoes "ok <family> (N cases)" and writes
    "<family>: <seconds> s" to stderr per family, the seconds counting every
    shared value the family is the first to read.  On a failure it reports
    the families before the failing one, then the first "FAIL ..." in
    (family, p, d) order: a family that fails stops with the families after
    it, and the families before it finish the walk, since one of them may
    still fail at a later prime.  A family that raises still raises, possibly
    at a prime before an earlier family's failure.  Inside the families,
    dense spectra stop at p = 521 (phi is checked against direct sums above
    it) and solution counts at 2000.
    """
    cases, seconds = [0] * len(_FAMILIES), [0.0] * len(_FAMILIES)
    failure, stop = None, len(_FAMILIES)  # families from stop on are done
    for p in primes_between(3, p_max):
        live = [i for i in range(stop) if p <= _FAMILIES[i][1]]
        if not live:
            break
        shared = [_Shared(p, d) for d in divisors(p - 1)]
        for i in live:
            family, rng, start = _FAMILIES[i][2], random.Random(911 * p), time.perf_counter()
            for h in shared:
                n, msg = family(h, rng)
                if msg:
                    failure, stop = msg, i
                    break
                cases[i] += n
            seconds[i] += time.perf_counter() - start
            if stop == i:
                break
    for (name, _, _), n, t in zip(_FAMILIES[:stop], cases, seconds):
        echo(f"ok {name} ({n} cases)")
        print(f"{name}: {t:.2f} s", file=sys.stderr)
    if failure:
        echo(f"FAIL {failure}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgroup-lab",
        description="sumset, energy, and exponential-sum sweeps over subgroups of Z_p*",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sweep", help="compute records over a prime range")
    ps.add_argument("--config", help="flat key = value config file")
    # Each option below --config sets the SweepConfig field named by its dest.
    ps.add_argument("--pmin", dest="p_min", type=int, help="smallest prime (default 3)")
    ps.add_argument("--pmax", dest="p_max", type=int, help="largest prime (default 101)")
    ps.add_argument("--alpha-lo", type=float, help="lower bound on log_p |A|")
    ps.add_argument("--alpha-hi", type=float, help="upper bound on log_p |A|")
    ps.add_argument(
        "--checks", type=_parse_checks, help="comma-separated catalog names, or 'all'"
    )
    ps.add_argument("--kmax", type=int, help="covering search cap (default 8)")
    ps.add_argument("--threads", type=int, help="worker threads (default $SUBGROUP_LAB_THREADS or 1)")
    ps.add_argument("--out", dest="out_path", help="records path (default records.csv)")
    ps.add_argument("--format", choices=("csv", "jsonl"), help="records format")
    ps.add_argument("--svg-dir", help="directory for per-check scatter plots")
    ps.add_argument(
        "--hypothesis-constant",
        type=float,
        help="constant used when testing hypothesis ranges (default 1.0)",
    )
    ps.add_argument(
        "--heavy",
        dest="heavy_ops",
        action="store_true",
        default=None,
        help="enable heavy operations above p = 4096",
    )

    pv = sub.add_parser("verify", help="run the internal property suite")
    pv.add_argument("--pmax", type=int, default=101, help="largest prime (default 101)")

    pr = sub.add_parser("report", help="summarize an existing records file")
    pr.add_argument("records", help="csv or jsonl written by sweep")
    pr.add_argument("--out", help="summary path (default: stdout)")
    pr.add_argument("--svg-dir", help="directory for per-check scatter plots")
    return parser


def _config_from_args(args) -> SweepConfig:
    """Merge a sweep's settings: flag > config file > $SUBGROUP_LAB_THREADS > default."""
    cfg_kwargs = parse_config_file(args.config) if args.config else {}
    for f in fields(SweepConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            cfg_kwargs[f.name] = val
    if "threads" not in cfg_kwargs:
        env = os.environ.get("SUBGROUP_LAB_THREADS")
        if env:
            try:
                cfg_kwargs["threads"] = int(env)
            except ValueError:
                raise ValueError(f"SUBGROUP_LAB_THREADS={env!r} is not an integer") from None
    return SweepConfig(**cfg_kwargs).validate()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "sweep":
        try:
            cfg = _config_from_args(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows = run_sweep(cfg)
        try:
            paths = emit_report(rows, cfg)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(rows)} records to {paths['records']}")
        print(f"summary: {paths['summary']}")
        return 0
    if args.command == "verify":
        # A bound below the first odd prime is an empty run, not an error.
        if args.pmax > numtheory.MODULUS_LIMIT:
            print(f"error: --pmax must be <= {numtheory.MODULUS_LIMIT}", file=sys.stderr)
            return 2
        return verify_all(args.pmax)
    if args.command == "report":
        try:
            rows, checks = read_rows(args.records)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = summary_text(rows, checks)
        try:
            if args.out:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            else:
                print(text, end="")
            if args.svg_dir:
                write_check_svgs(rows, checks, args.svg_dir)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
