import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import subgroup_lab.cli as cli
import subgroup_lab.energetics as energetics
import subgroup_lab.numtheory as numtheory
import subgroup_lab.spectral as spectral
import subgroup_lab.verifier as verifier
from subgroup_lab.cli import (
    CSV_BASE_COLUMNS,
    SweepConfig,
    _build_parser,
    _config_from_args,
    _enumeration_convolution,
    _qualifying_orders,
    emit_report,
    format_csv,
    format_jsonl,
    main,
    parse_config_file,
    primes_between,
    read_rows,
    run_sweep,
    summary_text,
    verify_all,
    write_svg_scatter,
)
from subgroup_lab.energetics import HEAVY_LIMIT, SubgroupContext
from subgroup_lab.numtheory import divisors, subgroup
from subgroup_lab.verifier import ALL_CHECKS, check_bound
from subgroup_lab.zpsets import ZpSet

from oracles import is_prime_slow
from routes import TIERS, count_contexts, force_tier


def _check_cells(row, names):
    """The four cells of each named check, in column order."""
    return [row[f"{name}:{x}"] for name in names for x in ("lhs", "rhs", "ratio", "hyp")]


class TestConfigFile:
    def test_parses_values_and_comments(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# sweep over small primes\n"
            "p_min = 5\n"
            "p_max = 13   # inclusive\n"
            "alpha_lo = 0.25\n"
            "heavy_ops = yes\n"
            "checks = hk_energy, e3\n"
            "max_size = none\n"
            "\n"
            "out_path = out.csv\n"
        )
        parsed = parse_config_file(str(cfg))
        assert parsed == {
            "p_min": 5,
            "p_max": 13,
            "alpha_lo": 0.25,
            "heavy_ops": True,
            "checks": ("hk_energy", "e3"),
            "max_size": None,
            "out_path": "out.csv",
        }

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("prime_max = 7\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(str(cfg))

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p_min 5\n")
        with pytest.raises(ValueError, match="expected key = value"):
            parse_config_file(str(cfg))

    def test_bad_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("heavy_ops = maybe\n")
        with pytest.raises(ValueError, match="bad boolean"):
            parse_config_file(str(cfg))

    def test_checks_all_keyword(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("checks = all\n")
        assert parse_config_file(str(cfg))["checks"] == ALL_CHECKS

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # the last value used to win silently: p_max read 13 here
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("p_max = 31\n# narrower\np_min = 5\np_max = 13\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:4: p_max set again \\(first at line 1\\)$"):
            parse_config_file(str(cfg))
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "p_max set again (first at line 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_hash_inside_value_kept(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("out_path = run#2.csv\n  # indented comment\nsvg_dir = plots\t# tab\n")
        assert parse_config_file(str(cfg)) == {"out_path": "run#2.csv", "svg_dir": "plots"}


class TestConfigPrecedence:
    def test_cli_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p_max = 31\nthreads = 2\n")
        args = _build_parser().parse_args(
            ["sweep", "--config", str(cfg), "--pmax", "13"]
        )
        merged = _config_from_args(args)
        assert merged.p_max == 13  # flag wins
        assert merged.threads == 2  # file wins over default
        assert merged.p_min == 3  # default

    def test_env_threads_fallback(self, monkeypatch):
        monkeypatch.setenv("SUBGROUP_LAB_THREADS", "5")
        args = _build_parser().parse_args(["sweep"])
        assert _config_from_args(args).threads == 5

    def test_bad_env_threads_names_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("SUBGROUP_LAB_THREADS", "abc")
        assert main(["sweep", "--pmax", "7"]) == 2
        assert "SUBGROUP_LAB_THREADS" in capsys.readouterr().err

    def test_explicit_threads_beats_env(self, monkeypatch):
        monkeypatch.setenv("SUBGROUP_LAB_THREADS", "5")
        args = _build_parser().parse_args(["sweep", "--threads", "2"])
        assert _config_from_args(args).threads == 2

    def test_validate_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SweepConfig(p_min=10, p_max=5).validate()
        with pytest.raises(ValueError):
            SweepConfig(threads=0).validate()
        with pytest.raises(ValueError):
            SweepConfig(format="xml").validate()
        with pytest.raises(ValueError):
            SweepConfig(checks=("nope",)).validate()
        for bad in (-1, math.nan, math.inf):
            with pytest.raises(ValueError):
                SweepConfig(hypothesis_constant=bad).validate()

    def test_validate_rejects_empty_by_construction(self):
        for bad in (
            dict(alpha_lo=0.6, alpha_hi=0.4),
            dict(alpha_lo=float("nan")),
            dict(min_size=-1),
            dict(min_size=5, max_size=4),
        ):
            with pytest.raises(ValueError):
                SweepConfig(**bad).validate()
        SweepConfig(alpha_lo=0.5, alpha_hi=0.5, min_size=0, max_size=0).validate()


# A config-file spelling and its parsed value for each SweepConfig annotation.
_SAMPLES = {
    "int": ("7", 7),
    "float": ("0.25", 0.25),
    "bool": ("on", True),
    "str": ("out.jsonl", "out.jsonl"),
    "int | None": ("12", 12),
    "str | None": ("plots", "plots"),
    "tuple[str, ...]": ("e3, hk_energy", ("e3", "hk_energy")),
}


class TestOneSchema:
    @pytest.mark.parametrize("field", fields(SweepConfig), ids=lambda f: f.name)
    def test_every_field_round_trips_through_config_file(self, tmp_path, field):
        text, want = _SAMPLES[field.type]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{field.name} = {text}\n")
        got = parse_config_file(str(cfg))[field.name]
        assert got == want and type(got) is type(want)
        assert getattr(SweepConfig(**{field.name: got}), field.name) == want

    def test_none_clears_optional_keys(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("svg_dir = none\nmax_size = None\n")
        assert parse_config_file(str(cfg)) == {"svg_dir": None, "max_size": None}

    def test_flags_land_on_field_names(self):
        argv = ["sweep", "--pmin", "5", "--pmax", "13", "--out", "r.csv", "--heavy"]
        args = _build_parser().parse_args([*argv, "--checks", "e3,hk_energy"])
        assert (args.p_min, args.p_max, args.out_path, args.heavy_ops) == (5, 13, "r.csv", True)
        assert args.checks == ("e3", "hk_energy")
        cfg = _config_from_args(args)
        assert (cfg.p_min, cfg.p_max, cfg.out_path, cfg.heavy_ops) == (5, 13, "r.csv", True)
        assert cfg.checks == ("e3", "hk_energy")

    def test_record_row_values_are_plain(self):
        # p = 4099 is above the heavy limit, so sumset_ratio is None there
        rows = run_sweep(SweepConfig(p_max=101)) + run_sweep(
            SweepConfig(p_min=4099, p_max=4099, max_size=6)
        )
        plain = (int, float, bool, type(None))  # what format_csv renders by repr
        columns = format_csv([], ALL_CHECKS).rstrip("\n").split(",")
        for row in rows:
            assert list(row) == columns, (row["p"], row["d"])
            for key, v in row.items():
                assert type(v) in plain, (row["p"], row["d"], key, type(v))
        # the earlier rows filled their ssc_lemma3 cells; above the heavy
        # limit the catalog pass leaves them None
        assert [rows[-1][c] for c in cli._check_columns("ssc_lemma3")] == [None] * 4


class TestPrimesAndOrders:
    def test_primes_between_golden(self):
        assert primes_between(3, 31) == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    def test_two_is_excluded(self):
        assert primes_between(1, 4) == [3]
        assert 2 not in primes_between(1, 100)

    def test_against_trial_division(self):
        want = [n for n in range(3, 500) if n % 2 == 1 and is_prime_slow(n)]
        assert primes_between(3, 499) == want

    def test_empty_range(self):
        assert primes_between(90, 96) == []

    def test_qualifying_orders_window(self):
        cfg = SweepConfig(alpha_lo=0.3, alpha_hi=0.8, min_size=2)
        for p in (31, 101):
            got = _qualifying_orders(p, cfg)
            want = [
                d
                for d in divisors(p - 1)
                if d >= 2 and 0.3 <= math.log(d) / math.log(p) <= 0.8
            ]
            assert got == want

    def test_max_size(self):
        cfg = SweepConfig(max_size=6)
        assert _qualifying_orders(13, cfg) == [1, 2, 3, 4, 6]


class TestRunSweep:
    def test_p7_has_one_record_per_divisor(self):
        rows = run_sweep(SweepConfig(p_min=7, p_max=7))
        assert [(r["p"], r["d"]) for r in rows] == [(7, 1), (7, 2), (7, 3), (7, 6)]

    def test_record_count_matches_brute_scan(self):
        cfg = SweepConfig(p_min=3, p_max=101, min_size=3)
        recs = run_sweep(cfg)
        want = sum(
            sum(1 for d in divisors(p - 1) if d >= 3) for p in primes_between(3, 101)
        )
        assert len(recs) == want
        assert all(r["d"] >= 3 for r in recs)

    def test_sorted_by_p_then_d(self):
        recs = run_sweep(SweepConfig(p_min=3, p_max=31))
        keys = [(r["p"], r["d"]) for r in recs]
        assert keys == sorted(keys)

    def test_threads_do_not_change_output(self, monkeypatch):
        # in [20000, 20100] phi screens some records and takes the unscreened
        # pass on others, while the worker threads share phi's per-prime
        # tables; the spy sees both routes run
        real, routes = spectral._screen_pays, set()

        def spy(p, d):
            pays = real(p, d)
            routes.add(pays)
            return pays

        monkeypatch.setattr(spectral, "_screen_pays", spy)
        for lo, hi, threads in ((3, 61, 4), (20000, 20100, 2)):
            cfg1 = SweepConfig(p_min=lo, p_max=hi, threads=1)
            cfgn = SweepConfig(p_min=lo, p_max=hi, threads=threads)
            csv1 = format_csv(run_sweep(cfg1), list(cfg1.checks))
            assert csv1 == format_csv(run_sweep(cfgn), list(cfgn.checks)), (lo, hi)
        assert routes == {False, True}

    def test_small_orders_skip_checks(self):
        rows = run_sweep(SweepConfig(p_min=7, p_max=7))
        assert _check_cells(rows[0], ALL_CHECKS) == [None] * 4 * len(ALL_CHECKS)  # d = 1
        assert _check_cells(rows[1], ALL_CHECKS) == [None] * 4 * len(ALL_CHECKS)  # d = 2
        assert None not in _check_cells(rows[2], ALL_CHECKS)

    @pytest.mark.parametrize("d", [1, 2, 3, 12])
    def test_record_builds_one_context(self, monkeypatch, d):
        # every d: the record and, from d = 3 on, all 15 checks read one context
        cfg = SweepConfig(p_min=13, p_max=13)
        built = count_contexts(monkeypatch)
        row = cli._record_for((13, d, cfg))
        assert built == [subgroup(13, d)]
        assert (None in _check_cells(row, ALL_CHECKS)) == (d < 3)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_catalog_pass_equals_check_bound(self, c):
        # every record of sweep --pmax 300: the row's check cells are what
        # check_bound gives on a fresh context at the same constant
        rows = run_sweep(SweepConfig(p_max=300, hypothesis_constant=c))
        assert len(rows) == 514
        for row in rows:
            p, d = row["p"], row["d"]
            got = _check_cells(row, ALL_CHECKS)
            if d < 3:
                assert got == [None] * 4 * len(ALL_CHECKS), (p, d)
                continue
            A = subgroup(p, d)
            ctx = SubgroupContext(A)
            want = [
                v
                for name in ALL_CHECKS
                for v in check_bound(name, A, ctx, hypothesis_constant=c)[3:]
            ]
            assert got == want, (p, d, c)

    @pytest.mark.parametrize("heavy", [False, True])
    def test_catalog_pass_above_heavy_limit(self, heavy):
        # p = 4099 > HEAVY_LIMIT: ssc_lemma3 is left empty unless --heavy
        assert 4099 > HEAVY_LIMIT
        cfg = SweepConfig(p_min=4099, p_max=4099, min_size=6, max_size=6, heavy_ops=heavy)
        (row,) = run_sweep(cfg)
        A = subgroup(4099, 6)
        ctx = SubgroupContext(A, allow_heavy=heavy)
        for name in ALL_CHECKS:
            got = _check_cells(row, [name])
            if name == "ssc_lemma3" and not heavy:
                assert got == [None] * 4
            else:
                assert got == list(check_bound(name, A, ctx)[3:]), name

    def test_check_selection(self):
        cfg = SweepConfig(p_min=7, p_max=7, checks=("hk_energy",))
        row = run_sweep(cfg)[2]
        checks = [c for c in row if c not in CSV_BASE_COLUMNS]
        assert checks == ["hk_energy:lhs", "hk_energy:rhs", "hk_energy:ratio", "hk_energy:hyp"]
        assert None not in _check_cells(row, ["hk_energy"])

    def test_alpha_window_count_matches_brute_scan(self):
        cfg = SweepConfig(p_min=3, p_max=101, alpha_lo=0.4, alpha_hi=0.7)
        recs = run_sweep(cfg)
        want = sum(
            1
            for p in primes_between(3, 101)
            for d in divisors(p - 1)
            if d >= 2 and 0.4 <= math.log(d) / math.log(p) <= 0.7
        )
        assert len(recs) == want
        assert all(0.4 <= math.log(r["d"]) / math.log(r["p"]) <= 0.7 for r in recs)

    def test_empty_prime_range_yields_no_records(self):
        # 90..96 holds no primes at all.
        assert run_sweep(SweepConfig(p_min=90, p_max=96)) == []


class TestFormatting:
    def test_csv_header(self):
        text = format_csv([], ["hk_energy", "e3"])
        header = text.splitlines()[0].split(",")
        assert header == list(CSV_BASE_COLUMNS) + [
            "hk_energy:lhs",
            "hk_energy:rhs",
            "hk_energy:ratio",
            "hk_energy:hyp",
            "e3:lhs",
            "e3:rhs",
            "e3:ratio",
            "e3:hyp",
        ]

    def test_cells_of_every_kind_render_by_the_per_cell_rule(self):
        def per_cell(v) -> str:  # the rule format_csv applied cell by cell
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, int):
                return str(v)
            return repr(float(v))

        kinds = [None, True, False, 0, -7, 2**70, 0.0, -0.0, 1e16, 1.5e-7, math.inf, -math.inf, math.nan]
        checks = ["hk_energy", "e3"]
        cols = [*CSV_BASE_COLUMNS, *(f"{n}:{x}" for n in checks for x in ("lhs", "rhs", "ratio", "hyp"))]
        # each kind in each column, and every kind in each row
        rows = [{c: kinds[(i + j) % len(kinds)] for j, c in enumerate(cols)} for i in range(len(kinds))]
        want = [",".join(cols), *(",".join(per_cell(row[c]) for c in cols) for row in rows)]
        assert format_csv(rows, checks) == "\n".join(want) + "\n"
        assert format_csv(rows[:1], tuple(checks)) == "\n".join(want[:2]) + "\n"
        assert format_csv([], checks) == want[0] + "\n"

    def test_golden_row_7_3(self):
        recs = run_sweep(SweepConfig(p_min=7, p_max=7, checks=("hk_energy",)))
        text = format_csv(recs, ["hk_energy"])
        rows = text.splitlines()
        assert rows[3].startswith("7,3,3,6,true,2,15,33,11.196152422706632,1.4142135623730951,2.7")
        # d = 1 row leaves the check cells empty
        assert rows[1].endswith(",,,")

    def test_none_and_bool_cells(self):
        recs = run_sweep(SweepConfig(p_min=7, p_max=7))
        assert recs[0]["covering_k"] is None  # 6-fold of {1} never covers
        text = format_csv(recs[:1], [])
        cells = text.splitlines()[1].split(",")
        assert cells[CSV_BASE_COLUMNS.index("covering_k")] == ""
        assert cells[CSV_BASE_COLUMNS.index("sixA_covers")] == "false"

    @staticmethod
    def _reads_back(tmp_path, fmt):
        """A sweep's rows are exactly what read_rows returns from its file: d < 3
        rows, a heavy check and sumset_ratio empty above p = 4096 (4099) and set
        below it (4091), and a check subset out of catalog order."""
        cfg = SweepConfig(
            p_min=4090,
            p_max=4100,
            checks=("ssc_lemma3", "phi_hk", "e3"),
            out_path=str(tmp_path / f"r.{fmt}"),
            format=fmt,
        )
        rows = run_sweep(cfg)
        assert [r["p"] for r in rows if r["d"] < 3] == [4091, 4091, 4093, 4093, 4099, 4099]
        assert {r["p"] for r in rows if r["sumset_ratio"] is None} == {4099}
        assert {r["p"] for r in rows if r["ssc_lemma3:lhs"] is None and r["d"] >= 3} == {4099}
        emit_report(rows, cfg)
        got = read_rows(cfg.out_path)
        assert got == (rows, list(cfg.checks))
        assert [list(r) for r in got[0]] == [list(r) for r in rows]  # the same column order

    def test_csv_roundtrip(self, tmp_path):
        self._reads_back(tmp_path, "csv")

    def test_jsonl_roundtrip(self, tmp_path):
        self._reads_back(tmp_path, "jsonl")

    def test_csv_and_jsonl_agree(self, tmp_path):
        base = SweepConfig(p_min=3, p_max=13, checks=("e32",))
        recs = run_sweep(base)
        c = tmp_path / "r.csv"
        j = tmp_path / "r.jsonl"
        emit_report(recs, SweepConfig(p_min=3, p_max=13, checks=("e32",), out_path=str(c)))
        emit_report(
            recs,
            SweepConfig(
                p_min=3, p_max=13, checks=("e32",), out_path=str(j), format="jsonl"
            ),
        )
        assert read_rows(str(c)) == read_rows(str(j)) == (recs, ["e32"])


class TestSummaryAndSvg:
    def test_summary_lines(self):
        cfg = SweepConfig(p_min=3, p_max=101, min_size=3)
        rows = run_sweep(cfg)
        text = summary_text(rows, list(cfg.checks))
        assert text.startswith(f"records: {len(rows)}\n")
        assert "six-fold coverage at |A| >= p^(11/23):" in text
        for name in cfg.checks:
            assert f"check {name}:" in text
        assert "envelope_slope=" in text

    def test_summary_empty(self):
        assert summary_text([], ["e3"]) == "records: 0\ncheck e3: no records\n"

    def test_svg_scatter(self, tmp_path):
        path = tmp_path / "plot.svg"
        pts = [(x, x**2.5) for x in range(2, 40)]
        write_svg_scatter(str(path), pts, "demo")
        text = path.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<circle") == len(pts)

    def test_svg_empty_points(self, tmp_path):
        path = tmp_path / "empty.svg"
        write_svg_scatter(str(path), [], "demo")
        assert "no positive data" in path.read_text()

    def test_emit_report_writes_everything(self, tmp_path):
        cfg = SweepConfig(
            p_min=3,
            p_max=31,
            out_path=str(tmp_path / "r.csv"),
            svg_dir=str(tmp_path / "plots"),
            checks=("hk_energy", "e3"),
        )
        recs = run_sweep(cfg)
        paths = emit_report(recs, cfg)
        assert os.path.exists(paths["records"])
        assert os.path.exists(paths["summary"])
        assert sorted(os.path.basename(s) for s in paths["svg"]) == [
            "e3.svg",
            "hk_energy.svg",
        ]
        for s in paths["svg"]:
            assert os.path.exists(s)


class TestMain:
    def test_sweep_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        rc = main(
            [
                "sweep",
                "--pmin",
                "3",
                "--pmax",
                "31",
                "--checks",
                "hk_energy,e3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "records.csv.summary.txt").exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.out

    def test_sweep_bad_check_name(self, capsys):
        rc = main(["sweep", "--checks", "bogus"])
        assert rc == 2
        assert "unknown checks" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, cfg_text",
        [
            (["--alpha-lo", "0.8", "--alpha-hi", "0.2"], ""),
            ([], "min_size = -1\n"),
            ([], "min_size = 6\nmax_size = 3\n"),
        ],
    )
    def test_sweep_empty_by_construction_exits_2(self, tmp_path, capsys, flags, cfg_text):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "records.csv"
        rc = main(["sweep", "--config", str(cfg), "--pmax", "13", "--out", str(out), *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, cfg_text",
        [(["--checks", "hk_energy,hk_energy"], ""), ([], "checks = e3, hk_energy, e3\n")],
    )
    def test_sweep_repeated_check_exits_2(self, tmp_path, capsys, flags, cfg_text):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "r.csv"
        rc = main(["sweep", "--config", str(cfg), "--pmax", "13", "--out", str(out), *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: repeated checks: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, cfg_text",
        [
            (["--hypothesis-constant", "nan"], ""),
            (["--hypothesis-constant", "inf"], ""),
            ([], "hypothesis_constant = nan\n"),
        ],
    )
    def test_sweep_non_finite_constant_exits_2(self, tmp_path, capsys, flags, cfg_text):
        # a NaN constant used to pass validation and write every :hyp cell false
        cfg = tmp_path / "s.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "r.csv"
        rc = main(["sweep", "--config", str(cfg), "--pmax", "13", "--out", str(out), *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: hypothesis constant")
        assert not out.exists()

    def test_sweep_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p_min = banana\n")
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2

    def test_sweep_missing_config_file(self, capsys):
        rc = main(["sweep", "--config", "/nonexistent/sweep.cfg"])
        assert rc == 2

    def test_verify_ok(self, capsys):
        rc = main(["verify", "--pmax", "13"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok convolution" in out
        assert "ok coverage" in out

    def test_sweep_empty_prime_range_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "none.csv"
        assert main(["sweep", "--pmin", "90", "--pmax", "96", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1  # header only
        assert lines[0].startswith("p,d,")

    def test_verify_empty_range_succeeds(self, capsys):
        # No odd primes at or below 2: every family runs zero cases and passes.
        assert main(["verify", "--pmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok convolution (0 cases)" in out
        assert "ok coverage (0 cases)" in out

    def test_envelope_script(self):
        # tests/envelope.py runs one record in a child process: one JSON line
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "envelope.py")
        done = subprocess.run(
            [sys.executable, script, "95287", "6"], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert list(rec) == ["p", "d", "wall_s", "peak_rss_mb"]
        assert (rec["p"], rec["d"]) == (95287, 6) and rec["wall_s"] >= 0 and rec["peak_rss_mb"] > 0
        bad = subprocess.run([sys.executable, script, "95287", "7"], capture_output=True, text=True, timeout=60)
        assert bad.returncode == 2 and not bad.stdout

    def test_verify_pmax_above_limit(self, capsys):
        assert main(["verify", "--pmax", str(2**26 + 1)]) == 2
        assert "--pmax" in capsys.readouterr().err

    def test_report_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--pmax", "13", "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["report", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.startswith("records:")

    def test_report_to_file_with_svg(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--pmax", "13", "--out", str(out)]) == 0
        summary = tmp_path / "digest.txt"
        plots = tmp_path / "plots"
        rc = main(
            ["report", str(out), "--out", str(summary), "--svg-dir", str(plots)]
        )
        assert rc == 0
        assert summary.exists()
        assert (plots / "hk_energy.svg").exists()

    @pytest.mark.parametrize("flag", ["--out", "--svg-dir"])
    def test_report_unwritable_output_exits_2(self, tmp_path, capsys, flag):
        records = tmp_path / "r.csv"
        assert main(["sweep", "--pmax", "13", "--out", str(records)]) == 0
        blocker = tmp_path / "plain-file"
        blocker.write_text("")
        target = tmp_path / "missing" / "x.txt" if flag == "--out" else blocker
        capsys.readouterr()
        assert main(["report", str(records), flag, str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/r.csv"]) == 2

    def test_report_without_fixed_columns_exits_2(self, tmp_path, capsys):
        # exit status 1 is reserved for an invariant violation
        records = tmp_path / "r.csv"
        records.write_text("p,d\n7,3\n")
        assert main(["report", str(records)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sixA_covers" in err

    @pytest.mark.parametrize("fmt, bad", [("csv", "7,3"), ("jsonl", '{"p": 7, "d": 3}')], ids=["csv", "jsonl"])
    def test_report_row_off_the_columns_exits_2(self, tmp_path, capsys, fmt, bad):
        # the header (or first row) of a real sweep, then a row with too few cells or keys
        records = tmp_path / "r.txt"
        assert main(["sweep", "--pmax", "13", "--format", fmt, "--out", str(records)]) == 0
        lines = records.read_text().splitlines()
        records.write_text(f"{lines[0]}\n{bad}\n")
        capsys.readouterr()
        assert main(["report", str(records)]) == 2
        assert capsys.readouterr().err == f"error: {records}, line 2: row does not match the columns of line 1\n"

    def test_report_names_the_line_that_is_not_json(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        assert main(["sweep", "--pmax", "13", "--format", "jsonl", "--out", str(records)]) == 0
        lines = records.read_text().splitlines()
        records.write_text("\n".join([*lines[:2], "7,3", *lines[2:]]) + "\n")
        capsys.readouterr()
        assert main(["report", str(records)]) == 2
        assert capsys.readouterr().err == f"error: {records}, line 3: not JSON (Extra data, column 2)\n"

    def test_report_names_the_line_of_a_non_numeric_cell(self, tmp_path, capsys):
        records = tmp_path / "r.csv"
        assert main(["sweep", "--pmax", "13", "--out", str(records)]) == 0
        lines = records.read_text().splitlines()
        cells = lines[2].split(",")
        cells[CSV_BASE_COLUMNS.index("E")] = "abc"
        records.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n")
        capsys.readouterr()
        assert main(["report", str(records)]) == 2
        assert capsys.readouterr().err == f"error: {records}, line 3: not a number: 'abc'\n"

    @pytest.mark.parametrize(
        "fmt, column, value, why",
        [
            ("csv", "p", "", "p must be int, got None"),
            ("csv", "d", "1.5", "d must be int, got 1.5"),
            ("csv", "A_size", "true", "A_size must be int, got True"),
            ("csv", "sixA_covers", "7", "sixA_covers must be bool, got 7"),
            ("jsonl", "d", None, "d must be int, got None"),
            ("jsonl", "d", "3", "d must be int, got '3'"),
            ("jsonl", "p", 7.0, "p must be int, got 7.0"),
            ("jsonl", "sixA_covers", 7, "sixA_covers must be bool, got 7"),
            ("jsonl", "hk_energy:ratio", "x", "hk_energy:ratio must be a number or empty, got 'x'"),
            ("jsonl", "e3:lhs", [1], "e3:lhs must be a number or empty, got [1]"),
            ("csv", "hk_energy:ratio", "true", "hk_energy:ratio must be a number or empty, got True"),
            ("jsonl", "li_decay:hyp", 1, "li_decay:hyp must be bool or empty, got 1"),
            # integers the summary cannot take as floats, and one json.loads cannot read
            pytest.param(
                "csv", "A_size", "1" + "0" * 400, "A_size is beyond the float range (401 digits)",
                id="csv-A_size-1e400",
            ),
            pytest.param(
                "jsonl", "A_size", 10**400, "A_size is beyond the float range (401 digits)",
                id="jsonl-A_size-1e400",
            ),
            pytest.param(
                "jsonl", "hk_energy:lhs", 10**400, "hk_energy:lhs is beyond the float range (401 digits)",
                id="jsonl-hk_energy:lhs-1e400",
            ),
            pytest.param(
                "csv", "hk_energy:lhs", "1" * 5000,
                "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
                " use sys.set_int_max_str_digits() to increase the limit",
                id="csv-hk_energy:lhs-5000-digits",
            ),
            # a NaN ratio would drop out of the summary's maximum
            ("csv", "hk_energy:ratio", "nan", "hk_energy:ratio must be a number or empty, got nan"),
            ("jsonl", "hk_energy:ratio", math.nan, "hk_energy:ratio must be a number or empty, got nan"),
            pytest.param(
                "jsonl", "E", 10**4999,
                "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
                " use sys.set_int_max_str_digits() to increase the limit",
                id="jsonl-E-5000-digits",
            ),
        ],
    )
    def test_report_names_the_line_of_a_bad_cell(self, tmp_path, capsys, fmt, column, value, why):
        # a wrong fixed or check cell would crash the summary (exit 1) or, as
        # sixA_covers = 7, be counted as covering; the row p = 13, d = 12 has checks
        records = tmp_path / "r.txt"
        assert main(["sweep", "--pmax", "13", "--format", fmt, "--out", str(records)]) == 0
        lines = records.read_text().splitlines()
        n = len(lines) - 1
        if fmt == "csv":
            cells = lines[n].split(",")
            cells[lines[0].split(",").index(column)] = value
            lines[n] = ",".join(cells)
        else:
            row = json.loads(lines[n])
            assert row["d"] == 12 and row["hk_energy:ratio"] is not None
            row[column] = value
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)  # json.dumps writes the 5,000-digit integer
            try:
                lines[n] = json.dumps(row)
            finally:
                sys.set_int_max_str_digits(limit)
        records.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", str(records)]) == 2
        assert capsys.readouterr().err == f"error: {records}, line {n + 1}: {why}\n"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_report_reads_empty_and_infinite_check_cells(self, tmp_path, capsys, fmt):
        # sumset_growth writes inf for an empty lhs; skipped checks leave empty
        # cells; an infinite lhs is left out of the fit and the plot, not nan
        records = tmp_path / "r.txt"
        assert main(["sweep", "--pmax", "13", "--format", fmt, "--out", str(records)]) == 0
        lines = records.read_text().splitlines()
        if fmt == "csv":
            cells = lines[-1].split(",")
            for column in ("sumset_growth:ratio", "hk_energy:lhs"):
                cells[lines[0].split(",").index(column)] = "inf"
            lines[-1] = ",".join(cells)
        else:
            row = json.loads(lines[-1])
            row["sumset_growth:ratio"] = row["hk_energy:lhs"] = float("inf")
            lines[-1] = json.dumps(row)
        records.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        plots = tmp_path / "plots"
        assert main(["report", str(records), "--svg-dir", str(plots)]) == 0
        summary = capsys.readouterr().out
        assert "check sumset_growth: n=" in summary and "nan" not in summary
        assert "check hk_energy: n=9 " in summary
        svg = (plots / "hk_energy.svg").read_text()
        assert "nan" not in svg and svg.count("<circle") == 8

    @pytest.mark.parametrize("name", ["../escaped", "nested/name", "hk_energyx"])
    def test_report_rejects_unknown_check_names(self, tmp_path, capsys, name):
        # a check name becomes an SVG file name under --svg-dir
        records = tmp_path / "r.csv"
        assert main(["sweep", "--pmax", "13", "--out", str(records)]) == 0
        lines = records.read_text().splitlines()
        lines[0] = lines[0].replace("hk_energy:ratio", f"{name}:ratio")
        records.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        svg_dir = tmp_path / "plots" / "inner"
        assert main(["report", str(records), "--svg-dir", str(svg_dir)]) == 2
        assert capsys.readouterr().err == f"error: {records}: unknown check {name!r}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["r.csv", "r.csv.summary.txt"]

    @pytest.mark.parametrize("fmt, name", [("jsonl", "r.csv"), ("csv", "r.jsonl")])
    def test_report_reads_either_format_whatever_the_suffix(self, tmp_path, capsys, fmt, name):
        plain = tmp_path / "plain.csv"
        assert main(["sweep", "--pmax", "13", "--out", str(plain)]) == 0
        records = tmp_path / name
        assert main(["sweep", "--pmax", "13", "--format", fmt, "--out", str(records)]) == 0
        capsys.readouterr()
        assert main(["report", str(plain)]) == 0
        want = capsys.readouterr().out
        assert main(["report", str(records)]) == 0
        assert capsys.readouterr().out == want

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestVerifyAll:
    def test_clean_pass(self):
        lines = []
        assert verify_all(31, echo=lines.append) == 0
        assert len(lines) == 6
        assert all(ln.startswith("ok ") for ln in lines)

    GOLDEN_P100 = [
        "ok convolution (159 cases)",
        "ok energy-definitions (159 cases)",
        "ok containment (4469 cases)",
        "ok coset-profile (159 cases)",
        "ok spectral-identity (8024 cases)",
        "ok coverage (159 cases)",
    ]

    def test_golden_lines_p100(self):
        lines = []
        assert verify_all(100, echo=lines.append) == 0
        assert lines == self.GOLDEN_P100

    def test_golden_lines_p300(self, capsys):
        """The case count of every family at --pmax 300, captured at 7f2eba4
        (about 1.2 s).  --pmax 1100 would also pin the families capped at
        p = 1024, but takes 4-6 s, too slow for this suite; the
        spectral-identity family is pinned there on its own below."""
        assert main(["verify", "--pmax", "300"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "ok convolution (514 cases)",
            "ok energy-definitions (514 cases)",
            "ok containment (20893 cases)",
            "ok coset-profile (514 cases)",
            "ok spectral-identity (21081 cases)",
            "ok coverage (514 cases)",
        ]

    def test_family_seconds_go_to_stderr_only(self, capsys):
        assert main(["verify", "--pmax", "100"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == self.GOLDEN_P100
        names = [name for name, _, _ in cli._FAMILIES]
        lines = err.splitlines()
        assert [ln.split(":")[0] for ln in lines] == names
        assert all(re.fullmatch(r"[a-z-]+: \d+\.\d\d s", ln) for ln in lines), lines

    def test_first_failure_in_family_order(self, monkeypatch, capsys):
        # coverage fails at p = 3 and convolution only at p = 11: the walk
        # meets coverage's failure first, but convolution's comes first in
        # (family, p, d) order; the lines were captured when verify ran
        # family by family (dbe7e37)
        real_six, real_conv = cli.check_six_fold, cli.convolve_counts

        def conv_off_at_11(X, Y):
            out = real_conv(X, Y).copy()
            out[0] += X.p == 11
            return out

        monkeypatch.setattr(cli, "check_six_fold", lambda A: A.p != 3 and real_six(A))
        monkeypatch.setattr(cli, "convolve_counts", conv_off_at_11)
        lines = []
        assert verify_all(13, echo=lines.append) == 1
        assert lines == ["FAIL convolution p=11 d=1 z=0: 2 != 1"]
        assert capsys.readouterr().err == ""

    def test_each_family_runs_to_its_own_cap(self, monkeypatch):
        # case counts captured when verify ran family by family (dbe7e37)
        caps = (5, 7, 11, 5, 7, 11)
        monkeypatch.setattr(cli, "_FAMILIES", tuple((n, cap, f) for (n, _, f), cap in zip(cli._FAMILIES, caps)))
        lines = []
        assert verify_all(13, echo=lines.append) == 0
        assert lines == [
            "ok convolution (5 cases)",
            "ok energy-definitions (9 cases)",
            "ok containment (57 cases)",
            "ok coset-profile (5 cases)",
            "ok spectral-identity (40 cases)",
            "ok coverage (13 cases)",
        ]

    def test_walk_builds_each_subgroup_once(self, monkeypatch):
        # 159 subgroups of the 24 primes to 100: each subgroup, its shift
        # profile and its context once, each power table once
        calls = {"subgroup": 0, "shift_sizes": 0}
        for module, name in ((numtheory, "subgroup"), (energetics, "shift_sizes")):
            real = getattr(module, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
            monkeypatch.setattr(cli, name, counted)
        contexts = count_contexts(monkeypatch)
        verifier._context.cache_clear()
        numtheory.power_table.cache_clear()
        assert verify_all(100, echo=lambda line: None) == 0
        assert calls == {"subgroup": 159, "shift_sizes": 159}
        assert numtheory.power_table.cache_info().misses == 24
        assert len(contexts) == 159

    def test_convolution_draws_the_same_random_sets(self, monkeypatch):
        # every set _rand_set draws in verify_all(100), in draw order: a walk
        # that seeds or shares Random(911 * p) otherwise changes no ok line;
        # the hash was captured when verify ran family by family (dbe7e37)
        digest, real = hashlib.sha256(), cli._rand_set

        def hashed(p, rng):
            S = real(p, rng)
            digest.update(S.members().astype("<i8").tobytes() + b"|")
            return S

        monkeypatch.setattr(cli, "_rand_set", hashed)
        assert verify_all(100, echo=lambda line: None) == 0
        assert digest.hexdigest() == "f879a1d8500d44210ec55195b423b2325478e722867094e740b3b583de83f49a"

    @staticmethod
    def _last_line(p_max):
        lines = []
        assert verify_all(p_max, echo=lines.append) == 1
        return lines[-1]

    def test_detects_broken_energy(self, monkeypatch):
        real = cli.shift_sizes
        monkeypatch.setattr(cli, "shift_sizes", lambda S: 2 * real(S))
        assert self._last_line(13).startswith("FAIL energy-definitions p=3")

    def test_detects_broken_containment(self, monkeypatch):
        # every sum A + A_s comes back translated by 1
        real = cli.exact_supports
        monkeypatch.setattr(cli, "exact_supports", lambda x_bits, rows: np.roll(real(x_bits, rows), 1, axis=1))
        assert self._last_line(13).startswith("FAIL containment p=3")

    @staticmethod
    def _full_on_row(monkeypatch, n):
        """cli.exact_supports returns all of Z_p in its n-th row over all
        calls, the sum of the n-th live shift."""
        real, done = cli.exact_supports, [0]  # rows returned so far

        def corrupted(x_bits, rows):
            out = real(x_bits, rows)
            if 0 <= n - 1 - done[0] < len(rows):
                out[n - 1 - done[0]] = True
            done[0] += len(rows)
            return out

        monkeypatch.setattr(cli, "exact_supports", corrupted)

    def test_containment_failure_line_every_shift(self, monkeypatch):
        self._full_on_row(monkeypatch, 20)
        assert self._last_line(31) == "FAIL containment p=7 d=3 s=2"

    @pytest.mark.parametrize(
        "p, d, n, want",
        [
            (101, 20, 40, (39, "containment p=101 d=20 s=49")),  # every shift
            (211, 6, 4, (3, "containment p=211 d=6 s=13")),  # 0 and the coset reps
            (211, 10, 4, (3, "containment p=211 d=10 s=22")),
            (211, 14, 5, (4, "containment p=211 d=14 s=9")),
        ],
    )
    def test_containment_reports_first_failing_shift(self, monkeypatch, p, d, n, want):
        # the empty A_s are skipped and the live ones taken in ascending order
        self._full_on_row(monkeypatch, n)
        assert cli._verify_containment(cli._Shared(p, d), random.Random(0)) == want

    @pytest.mark.parametrize("d, cases", [(30, 8), (42, 6), (210, 2)])
    def test_containment_rep_path_cases(self, d, cases):
        assert cli._verify_containment(cli._Shared(211, d), random.Random(0)) == (cases, None)

    def test_containment_rows_are_blocked(self):
        # 5,004 shifts (0 and the coset reps); one unblocked bool matrix of
        # A_s rows would take 50 MB
        h = cli._Shared(10007, 2)
        h.A.indicator, h.A.reps  # built before tracing
        tracemalloc.start()
        try:
            got = cli._verify_containment(h, random.Random(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (2, None)
        assert peak < 4 * 2**20, peak

    def test_detects_broken_coset_constancy(self, monkeypatch):
        # a rotated profile keeps every energy but is not constant on cosets
        real = cli.shift_sizes
        monkeypatch.setattr(cli, "shift_sizes", lambda S: np.roll(real(S), 1))
        assert self._last_line(13).startswith("FAIL coset-constancy p=3 d=2")

    def test_detects_broken_spectral_identity(self, monkeypatch):
        # called directly: in verify_all the energy family reads the scaled
        # profile first and fails first
        real = cli.shift_sizes
        monkeypatch.setattr(cli, "shift_sizes", lambda S: 1.01 * real(S))
        cases, failure = cli._verify_spectral_identity(cli._Shared(13, 3), random.Random(0))
        assert (cases, failure.split(":")[0]) == (0, "spectral-identity p=13 d=3 lam=1")

    def test_detects_dilated_spectral_table(self, monkeypatch):
        # the coset sums spread one column off give Â(t / g) for the primitive
        # root g, a dilate for which both sides of the identity still agree;
        # only the direct sum of Â(1) sees it
        class RolledExp:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x):
                return np.exp(np.roll(x, 1, axis=0) if np.ndim(x) == 2 else x)

        monkeypatch.setattr(cli, "np", RolledExp())
        assert self._last_line(13).startswith("FAIL spectral-identity p=3 d=1 hat(1): ")

    def test_spectral_identity_every_subgroup_to_1024(self):
        # the family's whole range, where the frequencies are stepped
        # (p > 101) and the exponential sums spread over long cosets
        total = 0
        for p in primes_between(3, 1024):
            for d in divisors(p - 1):
                cases, failure = cli._verify_spectral_identity(cli._Shared(p, d), random.Random(0))
                assert failure is None, failure
                total += cases
        assert total == 66304

    @pytest.mark.parametrize("tier", TIERS)
    def test_detects_corrupted_convolution(self, monkeypatch, tier):
        # the tier's kernel adds 1 at z = 0 on every call
        kernel = {"pairs": "pair_counts", "gather": "gather_counts", "fft": "cyclic_convolution_exact"}[tier]
        real = getattr(spectral, kernel)

        def corrupted(*args, **kwargs):
            out = real(*args, **kwargs).copy()
            out[0] += 1
            return out

        force_tier(monkeypatch, tier)
        monkeypatch.setattr(spectral, kernel, corrupted)
        lines = []
        assert verify_all(13, echo=lines.append) == 1
        assert lines[-1].startswith("FAIL convolution p=3")
        assert "z=" in lines[-1]

    def test_detects_broken_coverage(self, monkeypatch):
        monkeypatch.setattr(cli, "check_six_fold", lambda A: False)
        lines = []
        assert verify_all(13, echo=lines.append) == 1
        assert lines[-1].startswith("FAIL coverage-agreement")

    def test_detects_skewed_phi(self, monkeypatch):
        real = spectral.phi_subgroup

        def skewed(A):
            phi, rep = real(A)
            return phi * 1.001, rep

        monkeypatch.setattr(cli, "phi_subgroup", skewed)
        lines = []
        assert verify_all(13, echo=lines.append) == 1
        assert any(ln.startswith("FAIL phi") for ln in lines)

    def test_detects_phi_off_by_one_bit_past_dense_spectra(self, monkeypatch):
        # above p = 521 coset-profile compares phi and its rep with the
        # direct sums at every coset rep, bit for bit
        h = cli._Shared(1009, 7)
        A = h.A
        assert cli._verify_coset_profile(h, None) == (1, None)
        phi, rep = spectral.phi_subgroup(A)
        for wrong in ((math.nextafter(phi, 0.0), rep), (phi, int(A.reps[A.reps != rep][0]))):
            monkeypatch.setattr(cli, "phi_subgroup", lambda A, wrong=wrong: wrong)
            cases, failure = cli._verify_coset_profile(h, None)
            assert cases == 1 and failure.startswith("phi p=1009 d=7: "), failure


class TestEnumerationOracle:
    def test_matches_convolve_counts(self):
        rng = random.Random(51)
        for p in (7, 31, 101):
            X = ZpSet.from_elements(p, rng.sample(range(p), p // 3 + 1))
            Y = ZpSet.from_elements(p, rng.sample(range(p), p // 4 + 1))
            want = _enumeration_convolution(X, Y)
            got = spectral.convolve_counts(X, Y)
            assert np.array_equal(got, want)

    def test_empty(self):
        X = ZpSet.empty(7)
        assert _enumeration_convolution(X, X).sum() == 0
