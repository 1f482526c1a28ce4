"""Command-line surface: output formats, exit codes, golden tables, and
transcript determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracles import child_env

from bermanpir import berman, checks, cli, gf2, pir
from bermanpir.berman import BermanParams
from bermanpir.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY_FAILED,
    build_tables,
    format_rate,
    main,
    render_tables_csv,
)
from bermanpir.codes import TooLarge

GOLDEN = Path(__file__).parent / "golden"

#: Python's int-to-str digit limit (0 when off or absent).
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Every published cell, per pairing and (rC, rD) row, in column order
# (2,5), (3,3), (5,2), (6,2).
PUBLISHED_CELLS = {
    "ber-dber": {
        "(0,0)": ["(1, 0.969, 0.031)", "(1, 0.963, 0.037)", "(1, 0.96, 0.04)", "(1, 0.972, 0.028)"],
        "(1,0)": ["(1, 0.812, 0.188)", "(1, 0.741, 0.259)", "(1, 0.64, 0.36)", "(1, 0.694, 0.306)"],
        "(1,1)": ["(3, 0.812, 0.031)", "(3, 0.741, 0.037)", "(3, 0.64, 0.04)", "(3, 0.694, 0.028)"],
    },
    "dber-dber": {
        "(0,0)": ["(1, 0.03, 0.96)", "(1, 0.03, 0.96)", "(1, 0.04, 0.96)", "(1, 0.02, 0.97)"],
        "(0,1)": ["(3, 0.03, 0.81)", "(3, 0.03, 0.74)", "(3, 0.04, 0.64)", "(3, 0.02, 0.69)"],
        "(1,0)": ["(1, 0.18, 0.81)", "(1, 0.25, 0.74)", "(1, 0.36, 0.64)", "(1, 0.3, 0.69)"],
    },
    "dber-ber": {
        "(0,0)": ["(31, 0.031, 0.031)", "(26, 0.037, 0.037)", "(24, 0.04, 0.04)", "(35, 0.028, 0.028)"],
        "(0,1)": ["(15, 0.031, 0.188)", "(8, 0.037, 0.259)", "(4, 0.04, 0.36)", "(5, 0.028, 0.306)"],
        "(1,1)": ["(15, 0.188, 0.031)", "(8, 0.259, 0.037)", "(4, 0.36, 0.04)", "(5, 0.306, 0.028)"],
    },
}


class TestRateFormatting:
    def test_half_even_rounding(self):
        from fractions import Fraction

        assert format_rate(Fraction(26, 32), 3, "round") == "0.812"
        assert format_rate(Fraction(6, 32), 3, "round") == "0.188"
        assert format_rate(Fraction(1, 36), 3, "round") == "0.028"

    def test_truncation(self):
        from fractions import Fraction

        assert format_rate(Fraction(31, 32), 2, "trunc") == "0.96"
        assert format_rate(Fraction(1, 27), 2, "trunc") == "0.03"
        assert format_rate(Fraction(11, 36), 2, "trunc") == "0.3"

    def test_trailing_zero_stripping(self):
        from fractions import Fraction

        assert format_rate(Fraction(24, 25), 3, "round") == "0.96"
        assert format_rate(Fraction(1, 25), 3, "round") == "0.04"


class TestParams:
    def test_text_examples(self, capsys):
        assert main(["params", "--storage", "DBer(3,0,3)", "--retrieval", "DBer(3,1,3)"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t=3" in out and "R_st=1/27 (0.037)" in out and "R_pir=20/27 (0.741)" in out

        assert main(["params", "--storage", "DBer(6,0,2)", "--retrieval", "Ber(6,0,2)"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t=35" in out and "(0.028)" in out

        assert main(["params", "--storage", "Ber(2,1,5)", "--retrieval", "DBer(2,1,5)"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t=3" in out and "(0.812)" in out and "(0.031)" in out

    def test_json_format(self, capsys):
        assert main(
            ["params", "--storage", "DBer(3,0,3)", "--retrieval", "DBer(3,1,3)", "--format", "json"]
        ) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["t"] == 3
        assert payload["R_pir"] == {"exact": "20/27", "decimal": "0.741"}

    def test_csv_bytes(self, capsys):
        argv = ["params", "--storage", "DBer(3,0,3)", "--retrieval", "DBer(3,1,3)", "--format", "csv"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            "storage,retrieval,servers,t,R_st_exact,R_st,R_pir_exact,R_pir\n"
            '"DBer(3,0,3)","DBer(3,1,3)",27,3,1/27,0.037,20/27,0.741\n'
        )

    def test_unsupported_exit_code(self, capsys):
        assert main(["params", "--storage", "Ber(3,0,2)", "--retrieval", "Ber(3,0,2)"]) == EXIT_UNSUPPORTED
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UnsupportedPair"

    def test_zero_rate_exit_code(self, capsys):
        assert main(["params", "--storage", "DBer(3,1,2)", "--retrieval", "DBer(3,1,2)"]) == EXIT_UNSUPPORTED
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ZeroRate"

    def test_parse_error_exit_code(self, capsys):
        assert main(["params", "--storage", "Ber(3;0;2)", "--retrieval", "DBer(3,1,2)"]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    @pytest.mark.parametrize(
        "storage, retrieval",
        (
            ("DBer(٣,1,3)", "DBer(3,0,3)"),  # ARABIC-INDIC DIGIT THREE
            ("DBer(3,0,3)", "DBer(3,1,３)"),  # FULLWIDTH DIGIT THREE
            ("Ber(3,०,3)", "DBer(3,1,3)"),  # DEVANAGARI DIGIT ZERO
        ),
    )
    def test_non_ascii_digit_is_a_parse_error(self, storage, retrieval, capsys):
        assert main(["params", "--storage", storage, "--retrieval", retrieval]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        error = json.loads(line)
        assert error["error"] == "ValueError"
        assert error["message"].startswith("cannot parse code name")

    @pytest.mark.skipif(not INT_DIGITS, reason="no int-to-str digit limit")
    def test_number_past_the_digit_limit_is_a_parse_error(self, capsys):
        name = f"DBer(2,0,{'1' * (INT_DIGITS + 1)})"
        assert main(["params", "--storage", name, "--retrieval", "DBer(2,1,3)"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ValueError"
        assert error["message"].startswith("Exceeds the limit")

    @pytest.mark.parametrize(
        "storage, retrieval",
        (
            ("DBer(3,50000,100000)", "DBer(3,1,100000)"),
            ("DBer(2,0,100000)", "DBer(2,1,100000)"),
        ),
    )
    def test_unprintable_length_is_refused_fast(self, storage, retrieval, capsys):
        start = time.perf_counter()
        rc = main(["params", "--storage", storage, "--retrieval", retrieval])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert elapsed < 1.0
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "TooLarge"
        assert set(error) == {"error", "message"}

    @pytest.mark.skipif(0 < INT_DIGITS < 3914, reason="2^13000 has 3914 digits, past the int-to-str limit")
    def test_long_printable_pair_is_fast(self, capsys):
        # Both dimensions sum thousands of closed-form terms of ~13000 bits.
        start = time.perf_counter()
        rc = main(["params", "--storage", "DBer(2,6000,13000)", "--retrieval", "DBer(2,6000,13000)"])
        elapsed = time.perf_counter() - start
        assert rc == EXIT_OK
        assert elapsed < 1.0
        assert capsys.readouterr().out.startswith(f"storage=DBer(2,6000,13000) retrieval=DBer(2,6000,13000) servers={2**13000}\n")

    @pytest.mark.skipif(not INT_DIGITS, reason="no int-to-str digit limit")
    def test_printable_length_boundary(self, capsys):
        # 10^(limit-1) has exactly `limit` digits and prints; 10^limit has one
        # more and is refused.
        limit = INT_DIGITS
        for m, rc in ((limit - 1, EXIT_OK), (limit, EXIT_PARSE)):
            assert main(["params", "--storage", f"DBer(10,0,{m})", "--retrieval", f"DBer(10,1,{m})"]) == rc
            captured = capsys.readouterr()
            if rc == EXIT_OK:
                assert f"servers=1{'0' * m}\n" in captured.out
            else:
                assert json.loads(captured.err)["error"] == "TooLarge"


class TestTables:
    def test_cells_match_published_values(self):
        for table in build_tables():
            expected = PUBLISHED_CELLS[table["pairing"]]
            for row in table["rows"]:
                assert row["cells"] == expected[row["pair"]], (table["pairing"], row["pair"])

    def test_csv_golden(self):
        assert render_tables_csv(build_tables()) == (GOLDEN / "tables.csv").read_text()

    def test_json_golden(self, capsys):
        assert main(["tables", "--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / "tables.json").read_text()

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "tables.csv"
        assert main(["tables", "--format", "csv", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert out.read_text() == (GOLDEN / "tables.csv").read_text()


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify", "--nmax", "2", "--mmax", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("cases passed")

    def test_star_records_have_contract_fields(self, capsys):
        assert main(["verify", "--nmax", "2", "--mmax", "2", "--format", "json"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        star_records = [json.loads(ln) for ln in lines if '"lhs"' in ln]
        assert star_records
        for rec in star_records:
            assert set(rec) >= {"lhs", "rhs", "predicted", "verified", "dims", "ok"}
            assert set(rec["dims"]) == {"lhs", "rhs", "product"}

    def test_corrupted_formula_is_flagged(self, capsys, monkeypatch):
        real = berman.min_distance_formula

        def corrupted(params):
            value = real(params)
            if params.name == "DBer(2,1,2)":
                return value + 1
            return value

        monkeypatch.setattr(berman, "min_distance_formula", corrupted)
        assert main(["verify", "--nmax", "2", "--mmax", "2"]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "FAIL  distance DBer(2,1,2)" in out

    # SHA-256 of the stdout of `verify --nmax 3 --mmax 3` (373 cases): pins
    # case order, names, details and the star records byte for byte.
    @pytest.mark.parametrize(
        "fmt, digest",
        (
            ("json", "012c86e60184085a373a21047dc04fa17f910119634af7098e270370fb92ea4a"),
            ("text", "03c14676a0d571987e23661c94360cceffb20b8777c85d9231f0a2736a6092e5"),
        ),
    )
    def test_golden_verify_digests(self, capsys, fmt, digest):
        assert main(["verify", "--nmax", "3", "--mmax", "3", "--format", fmt]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # The same for `verify --nmax 5 --mmax 3` (708 cases), the sweep the
    # benchmark's verify_sweep workload runs.
    @pytest.mark.parametrize(
        "fmt, digest",
        (("json", "fd48ac15eaf9b2598f02d42e3bfc26dfda49dea0e0f8fed925655375023bc567"),),
    )
    def test_golden_verify_digests_5_3(self, capsys, fmt, digest):
        assert main(["verify", "--nmax", "5", "--mmax", "3", "--format", fmt]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "bounds",
        (["--nmax", "2", "--mmax", "10"], ["--nmax", "23", "--mmax", "2"], ["--nmax", "2", "--mmax", "10" * 500]),
    )
    def test_oversized_sweep_is_refused_fast(self, capsys, bounds):
        start = time.perf_counter()
        assert main(["verify", *bounds]) == EXIT_PARSE
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert elapsed < 1.0
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "TooLarge"

    def test_sweep_guard_boundary(self):
        # Longest members of 484, 512 and 512 coordinates pass; 529, 729 and
        # 1024 do not.
        for n_max, m_max in ((22, 2), (8, 3), (2, 9)):
            assert checks._case_builders(n_max, m_max)
        for n_max, m_max in ((23, 2), (9, 3), (2, 10)):
            with pytest.raises(TooLarge):
                checks._case_builders(n_max, m_max)

    @pytest.mark.parametrize("bounds", (["--nmax", "1"], ["--mmax", "0"], ["--nmax", "-3"]))
    def test_empty_sweep_is_rejected(self, capsys, bounds):
        assert main(["verify", *bounds]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"


class TestSimulate:
    ARGS = ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)",
            "--files", "2", "--seed", "1"]

    def test_summary_and_transcript(self, tmp_path, capsys):
        out = tmp_path / "transcript.json"
        rc = main(
            [
                "simulate",
                "--storage",
                "DBer(3,0,2)",
                "--retrieval",
                "DBer(3,1,2)",
                "--files",
                "2",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        assert "reconstructed_ok=True" in stdout
        assert "achieved_rate=0.444" in stdout
        assert "privacy_rank_ok=True" in stdout
        payload = json.loads(out.read_text())
        assert payload["derived"]["t"] == 3
        assert payload["reconstructed_ok"] is True
        assert set(payload["iterations"][0]) == {"J", "assignments", "responses_hex"}

    def test_csv_bytes(self, capsys):
        assert main([*self.ARGS, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "storage,retrieval,files,seed,demand,servers,t,b,S,reconstructed_ok,"
            "achieved_rate,theoretical_rate,privacy_rank_ok\n"
            '"DBer(3,0,2)","DBer(3,1,2)",2,1,0,9,3,4,1,True,0.444,0.444,True\n'
        )

    def test_json_summary_bytes(self, tmp_path, capsys):
        # The summary the benchmark ladder parses when the transcript goes to --out.
        assert main([*self.ARGS, "--format", "json", "--out", str(tmp_path / "t.json")]) == EXIT_OK
        assert capsys.readouterr().out == (
            '{\n  "S": 1,\n  "achieved_rate": "0.444",\n  "b": 4,\n  "demand": 0,\n  "files": 2,\n'
            '  "privacy_rank_ok": true,\n  "reconstructed_ok": true,\n  "retrieval": "DBer(3,1,2)",\n'
            '  "seed": 1,\n  "servers": 9,\n  "storage": "DBer(3,0,2)",\n  "t": 3,\n'
            '  "theoretical_rate": "0.444"\n}\n'
        )

    def test_byte_identical_transcripts(self, tmp_path, capsys):
        args = ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)",
                "--files", "2", "--seed", "1"]
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([*args, "--out", str(out)]) == EXIT_OK
            capsys.readouterr()
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("fmt", ("json", "text"))
    def test_stdout_transcript_is_to_json(self, fmt, capsys):
        args = ["simulate", "--storage", "DBer(2,1,7)", "--retrieval", "DBer(2,2,7)",
                "--files", "3", "--seed", "5", "--format", fmt]
        assert main(args) == EXIT_OK
        config = pir.SchemeConfig(BermanParams.parse("DBer(2,1,7)"), BermanParams.parse("DBer(2,2,7)"), 3, 5)
        expected = pir.run_retrieval(config, 0).to_json()
        out = capsys.readouterr().out
        if fmt == "json":
            assert out == expected
        else:
            assert out.endswith(expected)

    @pytest.mark.parametrize(
        "error", (gf2.Singular, gf2.LengthMismatch, pir.ShapeMismatch)
    )
    def test_protocol_internal_errors_exit_4(self, error, monkeypatch, capsys):
        def fail(*args):
            raise error("forced")

        monkeypatch.setattr(pir, "decode_iteration", fail)
        rc = main(["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)"])
        captured = capsys.readouterr()
        assert rc == EXIT_VERIFY_FAILED
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": error.__name__, "message": "forced"}

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        def exhausted(config):
            raise MemoryError("forced")

        monkeypatch.setattr(cli, "derive_scheme", exhausted)
        rc = main(["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)"])
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MemoryError", "message": "forced"}

    def test_unmapped_error_exits_4(self, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("forced")

        monkeypatch.setattr(cli, "derive_scheme", broken)
        rc = main(["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)"])
        captured = capsys.readouterr()
        assert rc == EXIT_VERIFY_FAILED
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "RuntimeError", "message": "forced"}

    def test_bare_value_error_exits_4(self, monkeypatch, capsys):
        # Only the named refusals are parse errors; a bare ValueError from
        # inside the library is a fault.
        def broken(code, t):
            raise ValueError("forced")

        monkeypatch.setattr(cli, "verify_privacy_rank", broken)
        rc = main(["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)"])
        captured = capsys.readouterr()
        assert rc == EXIT_VERIFY_FAILED
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError", "message": "forced"}

    def test_zero_rate_pair(self, capsys):
        rc = main(["simulate", "--storage", "Ber(3,0,2)", "--retrieval", "Ber(3,0,2)"])
        assert rc == EXIT_UNSUPPORTED
        capsys.readouterr()

    def test_demand_selects_the_file(self, tmp_path, capsys):
        out = tmp_path / "transcript.json"
        args = ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)",
                "--files", "2", "--demand", "1", "--out", str(out)]
        assert main(args) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "demand=1" in stdout
        assert "reconstructed_ok=True" in stdout
        payload = json.loads(out.read_text())
        assert payload["demand"] == 1
        assert payload["reconstructed_ok"] is True

    @pytest.mark.parametrize("demand", ("-1", "2"))
    def test_out_of_range_demand_exits_2(self, demand, capsys):
        args = ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)",
                "--files", "2", "--demand", demand]
        assert main(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": "demand index out of range"}

    def test_out_of_range_demand_exits_2_before_derivation(self, monkeypatch, capsys):
        # Deriving would raise and fail the test, so the demand is checked first.
        def derive(config):
            raise AssertionError("derived before the demand check")

        monkeypatch.setattr(cli, "derive_scheme", derive)
        args = ["simulate", "--storage", "DBer(3,2,5)", "--retrieval", "DBer(3,2,5)", "--demand", "3"]
        assert main(args) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": "demand index out of range"}

    @pytest.mark.parametrize(
        "flag, value, message",
        (
            ("--files", "0", "need at least one file"),
            ("--seed", "-1", "seed must fit in 64 bits"),
            ("--seed", str(2**64), "seed must fit in 64 bits"),
        ),
    )
    def test_out_of_range_config_exits_2(self, flag, value, message, capsys):
        assert main([*self.ARGS, flag, value]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}

    def test_largest_seed_is_accepted(self, capsys):
        assert main([*self.ARGS, "--seed", str(2**64 - 1), "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == (
            '"DBer(3,0,2)","DBer(3,1,2)",2,18446744073709551615,0,9,3,4,1,True,0.444,0.444,True'
        )

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_VERIFY_FAILED}) == 4
        # 5 meant "no schedule" while schedules came from a search; it stays retired.
        assert 5 not in {code for _, code in cli.EXIT_CODES}


class TestSizeGuard:
    def test_oversized_pair_is_refused_fast(self, capsys):
        start = time.perf_counter()
        rc = main(["simulate", "--storage", "DBer(50,1,5)", "--retrieval", "DBer(50,2,5)"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert elapsed < 1.0
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "TooLarge",
            "message": "DBer(50,1,5): length 312500000 exceeds the guard of 4096",
        }

    @pytest.mark.parametrize(
        "storage, retrieval, rc, error",
        (
            ("DBer(2,0,1000000000)", "DBer(2,1,1000000000)", EXIT_PARSE, "TooLarge"),
            ("Ber(2,0,1000000000)", "Ber(2,1,1000000000)", EXIT_UNSUPPORTED, "UnsupportedPair"),
            ("DBer(2,600000000,1000000000)", "DBer(2,500000000,1000000000)", EXIT_UNSUPPORTED, "ZeroRate"),
        ),
    )
    def test_huge_depth_is_refused_fast(self, storage, retrieval, rc, error, capsys):
        # Refusals by name come first, then the length guard; none of them
        # sums the closed forms or forms n**m.
        start = time.perf_counter()
        assert main(["simulate", "--storage", storage, "--retrieval", retrieval]) == rc
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert elapsed < 1.0
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error

    def test_oversized_library_is_refused_fast(self, capsys):
        start = time.perf_counter()
        rc = main(["simulate", "--storage", "DBer(2,1,3)", "--retrieval", "DBer(2,1,3)",
                   "--files", "1000000000000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert elapsed < 1.0
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "TooLarge"
        assert set(error) == {"error", "message"}


class TestOutPath:
    @pytest.mark.parametrize(
        "argv",
        (
            ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)"],
            ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)", "--format", "json"],
            ["params", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)"],
            ["tables"],
            ["verify", "--nmax", "2", "--mmax", "1"],
        ),
    )
    def test_unwritable_out_exits_2(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.json"
        assert main([*argv, "--out", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "OutputUnwritable"
        assert str(path) in error["message"]
        assert not path.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_to_out_exits_2(self, capsys):
        assert main(["tables", "--out", "/dev/full"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "OutputUnwritable"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        (
            (["params", "--storage", "DBer(3,0,2)"], "the following arguments are required: --retrieval"),
            (
                ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)", "--files", "x"],
                "argument --files: invalid int value: 'x'",
            ),
        ),
    )
    def test_usage_error_is_one_json_object(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == EXIT_PARSE
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ArgumentError", "message": message}


class TestHashSeed:
    """Members hash by identity, so a set of them iterates in an order set by
    memory addresses, and text keys in one set by ``PYTHONHASHSEED``; no
    output may depend on either."""

    @staticmethod
    def output_under(seed, argv, out):
        proc = subprocess.run(
            [sys.executable, "-c", "from bermanpir.cli import main; raise SystemExit(main())", *argv, "--out", out],
            capture_output=True, text=True, env=dict(child_env(), PYTHONHASHSEED=str(seed)), timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        return out.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        (
            ["verify", "--nmax", "3", "--mmax", "3", "--format", "json"],
            ["simulate", "--storage", "Ber(3,1,3)", "--retrieval", "DBer(3,0,3)", "--files", "3", "--seed", "11",
             "--demand", "2", "--format", "json"],
        ),
    )
    def test_output_does_not_depend_on_the_hash_seed(self, argv, tmp_path):
        assert self.output_under(0, argv, tmp_path / "0.out") == self.output_under(1, argv, tmp_path / "1.out")


class TestClosedStdout:
    SIMULATE = ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)"]

    @staticmethod
    def run_cli(argv, **popen):
        return subprocess.run(
            [sys.executable, "-c", "from bermanpir.cli import main; raise SystemExit(main())", *argv],
            stderr=subprocess.PIPE, text=True, env=child_env(), timeout=120, **popen,
        )

    @staticmethod
    def assert_unwritable(proc):
        assert proc.returncode == EXIT_PARSE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"] == "OutputUnwritable"

    @pytest.mark.parametrize("argv", (["tables"], SIMULATE))
    def test_closed_stdout_exits_2_without_a_traceback(self, argv):
        # The pipe's read end is closed before the run starts, so every write
        # to stdout fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run_cli(argv, stdout=write_end)
        finally:
            os.close(write_end)
        self.assert_unwritable(proc)

    @pytest.mark.parametrize("argv", (["tables"], SIMULATE, SIMULATE + ["--out", "{tmp}/t.json"]))
    def test_fd_1_closed_exits_2_without_a_traceback(self, argv, tmp_path):
        # As ``bermanpir tables >&-``: the child starts with no fd 1, so the
        # interpreter sets ``sys.stdout`` to None.
        argv = [a.format(tmp=tmp_path) for a in argv]
        self.assert_unwritable(self.run_cli(argv, preexec_fn=lambda: os.close(1)))

    def test_fd_1_closed_with_out_writes_the_file(self, tmp_path):
        # ``tables --out`` writes nothing to stdout, so it needs none.
        out = tmp_path / "tables.txt"
        proc = self.run_cli(["tables", "--out", str(out)], preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.read_text() == cli.render_tables_text(cli.build_tables())

    UNSUPPORTED = ["simulate", "--storage", "DBer(9,0,2)", "--retrieval", "Ber(2,1,2)"]

    def test_fd_2_closed_keeps_the_exit_code(self):
        # As ``bermanpir simulate ... 2>&-``: the error JSON has nowhere to go.
        proc = self.run_cli(self.UNSUPPORTED, preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stderr) == (EXIT_UNSUPPORTED, "")

    def test_stderr_reader_gone_keeps_the_exit_code(self):
        # The error JSON goes to a pipe whose read end is closed.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run_cli(self.UNSUPPORTED, preexec_fn=lambda: os.dup2(write_end, 2))
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_UNSUPPORTED
