"""Protocol machinery: scheme derivation, scheduling, encoding, queries,
responses, decoding, reconstruction, privacy checks, end-to-end runs."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bermanpir import berman, cli, gf2, pir
from bermanpir.berman import BermanParams, CodeKind, build
from bermanpir.codes import MAX_BRUTE_FORCE_DIM, LinearCode, TooLarge
from bermanpir.gf2 import BitMatrix, BitVector, LengthMismatch, invert_columns, rank
from bermanpir.pir import (
    Incomplete,
    ProtocolInvariantError,
    ScheduleNotFound,
    SchemeConfig,
    ShapeMismatch,
    UnsupportedPair,
    ZeroRate,
    closed_form_triple,
    decode_iteration,
    derive_scheme,
    encode_storage,
    gen_queries,
    philox_generator,
    reconstruct_file,
    respond_all,
    run_retrieval,
    scheme_row,
    verify_privacy_empirical,
    verify_privacy_rank,
)


P = BermanParams.parse

ACCEPTANCE_PAIRS = (
    ("DBer(3,0,2)", "DBer(3,1,2)"),
    ("DBer(2,1,3)", "DBer(2,1,3)"),
    ("Ber(3,1,2)", "DBer(3,0,2)"),
    ("DBer(3,0,3)", "Ber(3,1,3)"),
)


#: Every (n, m) with n <= 6 and n^m <= 36.
SHAPES_UP_TO_36 = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                   (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2))


def cfg(storage, retrieval, files=1, seed=0):
    return SchemeConfig(P(storage), P(retrieval), files=files, seed=seed)


def random_library(d, files, rng):
    """A library of ``files`` random files: one ``files*b x k_C`` matrix."""
    rows = files * d.b
    return BitMatrix(rows, d.k_c, tuple(int(w) for w in rng.integers(0, 1 << d.k_c, size=rows)))


def family(n, m):
    """Every Berman and dual Berman code of one (n, m), as parameters."""
    return [BermanParams(kind, n, m, r) for kind in (CodeKind.BERMAN, CodeKind.DUAL_BERMAN)
            for r in range(m + 1)]


def supported_pairs(shapes):
    """(storage, retrieval, t) for every supported pair on the given shapes, in a fixed order."""
    for n, m in shapes:
        for storage in family(n, m):
            for retrieval in family(n, m):
                try:
                    t, _, _ = closed_form_triple(storage, retrieval)
                except (UnsupportedPair, ZeroRate):
                    continue
                yield storage, retrieval, t


def planted_words(d, plan, files, demand):
    """The bits one iteration plants into Q, one word per file row."""
    words = [0] * (files * d.b)
    for stripe, coord in zip(plan.stripes, plan.coords):
        words[d.file_row(demand, stripe)] |= 1 << coord
    return words


@st.composite
def bit_matrices(draw, rows, cols):
    """Random rows, or rows of full rank: an identity block in random
    columns, the other columns random."""
    words = draw(st.lists(st.integers(0, 2**cols - 1), min_size=rows, max_size=rows))
    if draw(st.booleans()):
        pivots = draw(st.permutations(range(cols)))[:rows]
        mask = sum(1 << p for p in pivots)
        words = [w & ~mask | 1 << p for w, p in zip(words, pivots)]
    return BitMatrix(rows, cols, tuple(words))


@st.composite
def schedule_instances(draw):
    """(G_C, H, b, k_C, d_perp, S) on at most 6 coordinates and 6 slots, with
    b and S minimal as in the derivation."""
    n_s = draw(st.integers(2, 6))
    k_c, d_perp = draw(st.sampled_from(
        [(k, d) for k in range(1, n_s + 1) for d in range(1, n_s + 1) if k * d // gcd(k, d) <= 6]
    ))
    g = gcd(k_c, d_perp)
    return draw(bit_matrices(k_c, n_s)), draw(bit_matrices(d_perp, n_s)), d_perp // g, k_c, d_perp, k_c // g


def rescanned_stripe_coords(schedule, stripe):
    """The coordinates the iterations assign to ``stripe``, ascending."""
    coords = (c for plan in schedule.iterations for s, c in zip(plan.stripes, plan.coords) if s == stripe)
    return tuple(sorted(coords))


def check_schedule(schedule, g_c, h, b, k_c, d_perp, s_iterations):
    """Every iteration holds d_perp distinct coordinates with invertible
    columns of H; every stripe holds k_C with invertible columns of G_C,
    and the stripe view agrees with the iterations."""
    assert len(schedule.iterations) == s_iterations
    for plan in schedule.iterations:
        assert len(set(plan.coords)) == len(plan.coords) == d_perp
        invert_columns(h, plan.coords)
    assert len(schedule.stripe_coords) == b
    for stripe in range(b):
        coords = schedule.stripe_coords[stripe]
        assert coords == rescanned_stripe_coords(schedule, stripe)
        assert len(coords) == k_c
        invert_columns(g_c, coords)


def duplicate_column(code):
    """``code`` with column 1 of its generator overwritten by column 0."""
    words = tuple((w & ~2) | ((w & 1) << 1) for w in code.generator.row_words)
    return LinearCode.from_generator(BitMatrix(code.dimension, code.length, words))


@pytest.fixture(scope="module")
def ladder():
    """(storage, retrieval, t) for each pair of the benchmark's simulate ladder."""
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    sys.path.insert(0, str(bench))  # run.py imports its sibling hostspeed.py
    try:
        spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
    pairs = [(P(storage), P(retrieval)) for storage, retrieval in run.LADDER]
    assert len(pairs) == 20
    return [(storage, retrieval, closed_form_triple(storage, retrieval)[0]) for storage, retrieval in pairs]


def shapes_up_to(n_s_max):
    """Every (n, m) with n >= 2 and n^m <= n_s_max."""
    return tuple(
        (n, m) for m in range(1, n_s_max.bit_length()) for n in range(2, n_s_max + 1) if n**m <= n_s_max
    )


class TestClosedForms:
    def test_published_triples(self):
        t, r_st, r_pir = closed_form_triple(P("DBer(3,0,3)"), P("DBer(3,1,3)"))
        assert (t, r_st, r_pir) == (3, Fraction(1, 27), Fraction(20, 27))
        t, r_st, r_pir = closed_form_triple(P("Ber(3,1,3)"), P("DBer(3,0,3)"))
        assert (t, r_st, r_pir) == (1, Fraction(20, 27), Fraction(7, 27))
        t, r_st, r_pir = closed_form_triple(P("DBer(3,0,3)"), P("Ber(3,1,3)"))
        assert (t, r_st, r_pir) == (8, Fraction(1, 27), Fraction(7, 27))

    def test_row_classification(self):
        assert scheme_row(P("DBer(3,0,2)"), P("DBer(3,1,2)")) == "dber-dber"
        assert scheme_row(P("DBer(3,0,2)"), P("Ber(3,1,2)")) == "dber-ber"
        assert scheme_row(P("Ber(3,1,2)"), P("DBer(3,0,2)")) == "ber-dber"

    def test_unsupported_pairs(self):
        with pytest.raises(UnsupportedPair):
            scheme_row(P("Ber(3,0,2)"), P("Ber(3,0,2)"))
        with pytest.raises(UnsupportedPair):
            scheme_row(P("DBer(3,1,2)"), P("Ber(3,0,2)"))  # needs r_D >= r_C
        with pytest.raises(UnsupportedPair):
            scheme_row(P("Ber(3,0,2)"), P("DBer(3,1,2)"))  # needs r_C >= r_D
        with pytest.raises(UnsupportedPair):
            scheme_row(P("DBer(3,2,2)"), P("DBer(3,1,2)"))  # full-space storage
        with pytest.raises(UnsupportedPair):
            scheme_row(P("DBer(3,0,2)"), P("Ber(3,2,2)"))  # zero retrieval
        with pytest.raises(UnsupportedPair):
            scheme_row(P("DBer(3,0,2)"), P("DBer(2,0,2)"))  # mismatched (n, m)

    def test_zero_rate(self):
        with pytest.raises(ZeroRate):
            closed_form_triple(P("DBer(3,1,2)"), P("DBer(3,1,2)"))

    def test_case_table_matches_the_per_row_closed_forms(self):
        from oracles import per_row_triple

        def outcome(f, storage, retrieval):
            try:
                return f(storage, retrieval)
            except Exception as exc:
                return type(exc), str(exc)

        checked = 0
        for members in berman.families(8, 6):
            for storage in members:
                for retrieval in members:
                    expected = outcome(per_row_triple, storage, retrieval)
                    assert outcome(closed_form_triple, storage, retrieval) == expected, (storage, retrieval)
                    checked += isinstance(expected[0], int)
        assert checked > 300


class TestDeriveScheme:
    def test_worked_example(self):
        d = derive_scheme(cfg("DBer(3,0,3)", "DBer(3,1,3)"))
        assert (d.t, d.r_st, d.r_pir) == (3, Fraction(1, 27), Fraction(20, 27))

    def test_counts_are_consistent(self):
        for storage, retrieval in ACCEPTANCE_PAIRS:
            d = derive_scheme(cfg(storage, retrieval))
            assert d.b * d.k_c == d.s_iterations * d.d_perp
            assert d.r_pir == Fraction(d.d_perp, d.n_s)
            assert d.r_st == Fraction(d.k_c, d.n_s)
            # Parity annihilates the product code.
            product = d.parity @ d.product_code.generator.transpose()
            assert all(w == 0 for w in product.row_words)

    def test_zero_rate_propagates(self):
        # Raised on every call, not only the first: failures are not cached.
        for _ in range(3):
            with pytest.raises(ZeroRate):
                derive_scheme(cfg("DBer(3,1,2)", "DBer(3,1,2)"))

    def test_one_derivation_per_pair(self):
        a = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=1, seed=0))
        b = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=3, seed=99))
        assert a is b
        assert derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)")) is not a

    def test_runs_share_one_derivation(self):
        pir._derive.cache_clear()
        for seed in range(4):
            run_retrieval(cfg("DBer(2,1,3)", "DBer(2,1,3)", files=2, seed=seed), seed % 2)
        assert pir._derive.cache_info().misses == 1

    def test_inverses_once_per_pair(self, monkeypatch):
        # The first run inverts each iteration's and each stripe's columns
        # once; later runs of the pair invert nothing.
        calls = []
        invert = pir.invert_columns

        def counting(m, cols):
            calls.append(cols)
            return invert(m, cols)

        monkeypatch.setattr(pir, "invert_columns", counting)
        pir._derive.cache_clear()
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)"))
        assert d.b > 1 and d.s_iterations > 1
        run_retrieval(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=2, seed=1), 0)
        assert len(calls) == d.s_iterations + d.b
        calls.clear()
        run_retrieval(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=3, seed=2), 2)
        assert calls == []


class TestSchedule:
    def test_single_iteration_example(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        assert (d.k_c, d.d_perp, d.b, d.s_iterations) == (1, 4, 4, 1)
        (plan,) = d.schedule.iterations
        assert len(plan.coords) == 4
        assert sorted(plan.stripes) == [0, 1, 2, 3]
        invert_columns(d.parity, plan.coords)  # invertible by construction

    def test_invariants_all_pairs(self):
        for storage, retrieval in ACCEPTANCE_PAIRS:
            d = derive_scheme(cfg(storage, retrieval))
            assert len(d.schedule.iterations) == d.s_iterations
            for plan in d.schedule.iterations:
                assert len(set(plan.coords)) == len(plan.coords) == d.d_perp
                assert plan.coords == tuple(sorted(plan.coords))
                invert_columns(d.parity, plan.coords)
            for stripe in range(d.b):
                coords = d.schedule.stripe_coords[stripe]
                assert len(coords) == d.k_c
                invert_columns(d.storage_code.generator, coords)

    def test_infeasible_search_is_reported(self):
        from bermanpir.pir import _solve_schedule

        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        # Too few slots for the stripe demand: reported, never silently dropped.
        with pytest.raises(ScheduleNotFound, match="no schedule exists"):
            _solve_schedule(d.storage_code.generator, d.parity, d.b, d.k_c, d.d_perp, 0)
        # Enough slots but impossible independence: a one-row parity map can
        # never supply two independent columns in one iteration.
        from bermanpir.gf2 import BitMatrix

        flat_parity = BitMatrix(1, d.n_s, (d.parity.row_words[0],))
        with pytest.raises(ScheduleNotFound, match="no schedule exists"):
            _solve_schedule(d.storage_code.generator, flat_parity, 2, 1, 2, 1)

    @given(schedule_instances())
    @settings(max_examples=200)
    def test_agrees_with_brute_force(self, instance):
        from oracles import brute_force_schedule

        g_c, h, b, k_c, d_perp, s_iterations = instance
        expected = brute_force_schedule(
            g_c.transpose().row_words, h.transpose().row_words, b, k_c, d_perp, s_iterations
        )
        try:
            schedule = pir._solve_schedule(g_c, h, b, k_c, d_perp, s_iterations)
        except ScheduleNotFound as exc:
            assert expected is None
            assert "no schedule exists" in str(exc)
            return
        assert expected is not None
        check_schedule(schedule, g_c, h, b, k_c, d_perp, s_iterations)


class TestScheduleRegression:
    #: SHA-256 over every pair of SHAPES_UP_TO_36 of its name and, per
    #: iteration, its coordinates and their stripes.
    SCHEDULES_SHA256 = "4803f9e91c363364064777380b1e54283d321bd757eeca42b6238cb8a1b52a3c"

    #: Pairs with n^m <= 64 that the former depth-first search gave up on.
    FORMERLY_OVER_BUDGET = (
        ("DBer(4,1,2)", "DBer(4,0,2)"),
        ("DBer(5,1,2)", "DBer(5,0,2)"),
        ("DBer(6,1,2)", "DBer(6,0,2)"),
        ("DBer(7,1,2)", "DBer(7,0,2)"),
        ("DBer(8,1,2)", "DBer(8,0,2)"),
        ("Ber(7,1,2)", "DBer(7,0,2)"),
        ("Ber(8,1,2)", "DBer(8,0,2)"),
        ("DBer(3,2,3)", "DBer(3,0,3)"),
        ("DBer(4,1,3)", "DBer(4,1,3)"),
        ("Ber(4,1,3)", "DBer(4,0,3)"),
        ("Ber(4,2,3)", "DBer(4,0,3)"),
        ("DBer(4,2,3)", "DBer(4,0,3)"),
    )

    def test_schedules_are_pinned(self):
        digest = hashlib.sha256()
        for storage, retrieval, _ in supported_pairs(SHAPES_UP_TO_36):
            plans = derive_scheme(SchemeConfig(storage, retrieval)).schedule.iterations
            record = [storage.name, retrieval.name, [[p.coords, p.stripes] for p in plans]]
            digest.update(json.dumps(record).encode())
        assert digest.hexdigest() == self.SCHEDULES_SHA256

    def test_stripe_view_matches_iterations(self):
        for storage, retrieval, _ in supported_pairs(shapes_up_to(64)):
            d = derive_scheme(SchemeConfig(storage, retrieval))
            expected = tuple(rescanned_stripe_coords(d.schedule, s) for s in range(d.b))
            assert d.schedule.stripe_coords == expected, (storage.name, retrieval.name)

    def test_every_pair_up_to_64_servers_reconstructs(self):
        pairs = list(supported_pairs(shapes_up_to(64)))
        assert len(pairs) == 444
        for storage, retrieval, _ in pairs:
            config = SchemeConfig(storage, retrieval, files=3, seed=1)
            for demand in range(3):
                assert run_retrieval(config, demand).reconstructed_ok, (storage.name, retrieval.name, demand)

    @pytest.mark.parametrize(
        "storage, retrieval", (("DBer(4,1,3)", "DBer(4,1,3)"), ("Ber(4,1,3)", "DBer(4,0,3)"))
    )
    def test_ladder_pairs_simulate(self, storage, retrieval, tmp_path, capsys):
        argv = ["simulate", "--storage", storage, "--retrieval", retrieval, "--format", "json",
                "--out", str(tmp_path / "transcript.json")]
        assert cli.main(argv) == cli.EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["reconstructed_ok"] is True
        assert summary["privacy_rank_ok"] is True

    def test_proven_infeasible_search_exits_5(self, monkeypatch, capsys):
        # Derive with only the first row of H: no iteration of d_perp >= 2
        # coordinates can be scheduled on it.
        real = pir._solve_schedule

        def flat(g_c, h, *sizes):
            return real(g_c, BitMatrix(1, h.cols, h.row_words[:1]), *sizes)

        monkeypatch.setattr(pir, "_solve_schedule", flat)
        pir._derive.cache_clear()
        argv = ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)"]
        assert cli.main(argv) == cli.EXIT_NO_SCHEDULE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ScheduleNotFound"
        assert error["message"].startswith("no schedule exists")

    @pytest.mark.parametrize("refusal", ("infeasible", "over-budget"))
    def test_refused_schedule_exits_5_before_the_privacy_check(self, refusal, monkeypatch, capsys):
        if refusal == "infeasible":
            real = pir._solve_schedule
            monkeypatch.setattr(
                pir, "_solve_schedule", lambda g_c, h, *sizes: real(g_c, BitMatrix(1, h.cols, h.row_words[:1]), *sizes)
            )
            pair = ("DBer(3,0,2)", "DBer(3,1,2)")
        else:
            monkeypatch.setattr(pir, "SCHEDULE_BUDGET", 0)
            pair = ("DBer(4,1,3)", "DBer(4,1,3)")

        def no_privacy_check(*args):
            raise AssertionError("privacy check ran before the schedule search")

        monkeypatch.setattr(cli, "verify_privacy_rank", no_privacy_check)
        pir._derive.cache_clear()
        assert cli.main(["simulate", "--storage", pair[0], "--retrieval", pair[1]]) == cli.EXIT_NO_SCHEDULE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ScheduleNotFound"

    def test_over_budget_search_says_so(self, monkeypatch):
        monkeypatch.setattr(pir, "SCHEDULE_BUDGET", 0)
        pir._derive.cache_clear()
        with pytest.raises(ScheduleNotFound, match="scanned more than 0 exchange-graph arcs"):
            derive_scheme(cfg("DBer(4,1,3)", "DBer(4,1,3)"))

    #: Pairs up to 256 servers whose search runs past SCHEDULE_BUDGET.  The
    #: former depth-first search gave up on each of them too.
    OVER_BUDGET_UP_TO_256 = frozenset((
        ("DBer(11,1,2)", "DBer(11,0,2)"),
        ("Ber(5,2,3)", "DBer(5,0,3)"),
        ("DBer(5,2,3)", "DBer(5,0,3)"),
        ("DBer(12,1,2)", "DBer(12,0,2)"),
        ("DBer(13,1,2)", "DBer(13,0,2)"),
        ("DBer(14,1,2)", "DBer(14,0,2)"),
        ("Ber(6,2,3)", "DBer(6,0,3)"),
        ("DBer(6,1,3)", "DBer(6,1,3)"),
        ("DBer(6,2,3)", "DBer(6,0,3)"),
        ("DBer(15,1,2)", "DBer(15,0,2)"),
        ("Ber(3,2,5)", "DBer(3,0,5)"),
        ("Ber(3,3,5)", "DBer(3,0,5)"),
        ("Ber(3,3,5)", "DBer(3,1,5)"),
        ("Ber(3,4,5)", "DBer(3,0,5)"),
        ("Ber(3,4,5)", "DBer(3,1,5)"),
        ("DBer(3,2,5)", "DBer(3,1,5)"),
        ("DBer(3,2,5)", "DBer(3,2,5)"),
        ("DBer(3,3,5)", "DBer(3,0,5)"),
        ("DBer(3,3,5)", "DBer(3,1,5)"),
        ("DBer(3,4,5)", "DBer(3,0,5)"),
        ("Ber(2,2,8)", "DBer(2,0,8)"),
        ("Ber(2,3,8)", "DBer(2,0,8)"),
        ("Ber(2,3,8)", "DBer(2,1,8)"),
        ("Ber(2,4,8)", "DBer(2,0,8)"),
        ("Ber(4,2,4)", "DBer(4,0,4)"),
        ("Ber(4,3,4)", "DBer(4,0,4)"),
        ("Ber(4,3,4)", "DBer(4,1,4)"),
        ("DBer(16,1,2)", "DBer(16,0,2)"),
        ("DBer(2,3,8)", "Ber(2,7,8)"),
        ("DBer(2,3,8)", "DBer(2,0,8)"),
        ("DBer(2,4,8)", "Ber(2,6,8)"),
        ("DBer(2,4,8)", "Ber(2,7,8)"),
        ("DBer(2,4,8)", "DBer(2,0,8)"),
        ("DBer(2,4,8)", "DBer(2,1,8)"),
        ("DBer(2,5,8)", "Ber(2,7,8)"),
        ("DBer(2,5,8)", "DBer(2,0,8)"),
        ("DBer(4,1,4)", "DBer(4,2,4)"),
        ("DBer(4,2,4)", "DBer(4,0,4)"),
        ("DBer(4,2,4)", "DBer(4,1,4)"),
        ("DBer(4,3,4)", "DBer(4,0,4)"),
    ))

    @pytest.mark.slow
    def test_every_pair_up_to_256_servers_derives_or_is_refused(self):
        for storage, retrieval, _ in supported_pairs(shapes_up_to(256)):
            try:
                d = derive_scheme(SchemeConfig(storage, retrieval))
            except ScheduleNotFound:
                assert (storage.name, retrieval.name) in self.OVER_BUDGET_UP_TO_256
                continue
            finally:
                pir._derive.cache_clear()
            check_schedule(
                d.schedule, d.storage_code.generator, d.parity, d.b, d.k_c, d.d_perp, d.s_iterations
            )

    @pytest.mark.parametrize(
        "storage, retrieval",
        # Slot counts 1456, 1467 and 3441: deeper than the interpreter's
        # recursion limit; then the pairs the depth-first search gave up on.
        (("Ber(5,1,3)", "DBer(5,0,3)"), ("DBer(2,1,8)", "DBer(2,2,8)"), ("DBer(2,2,8)", "DBer(2,2,8)"))
        + FORMERLY_OVER_BUDGET,
    )
    def test_deep_searches_reconstruct(self, storage, retrieval):
        assert run_retrieval(cfg(storage, retrieval, seed=3), 0).reconstructed_ok

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "storage, retrieval, refused",
        # 512 and 1024 servers, across the shapes (8,3), (2,9), (32,2), (4,5)
        # and (2,10): each pair reconstructs, or its schedule search runs
        # over the budget (exit 5).
        (
            ("DBer(8,1,3)", "Ber(8,1,3)", None),
            ("Ber(8,2,3)", "DBer(8,0,3)", ScheduleNotFound),
            ("Ber(2,6,9)", "DBer(2,6,9)", None),
            ("DBer(2,4,9)", "Ber(2,7,9)", None),
            ("DBer(32,0,2)", "Ber(32,1,2)", None),
            ("Ber(4,3,5)", "DBer(4,3,5)", None),
            ("DBer(4,2,5)", "DBer(4,0,5)", ScheduleNotFound),
            ("DBer(2,2,10)", "Ber(2,8,10)", None),
            ("DBer(2,4,10)", "DBer(2,3,10)", None),
            ("DBer(2,2,10)", "DBer(2,2,10)", None),
        ),
    )
    def test_large_pairs_reconstruct_or_are_refused(self, storage, retrieval, refused):
        config = cfg(storage, retrieval, files=2, seed=5)
        assert 512 <= config.storage.length <= 1024
        try:
            if refused:
                with pytest.raises(refused):
                    run_retrieval(config, 1)
            else:
                assert run_retrieval(config, 1).reconstructed_ok
        finally:
            pir._derive.cache_clear()


class TestEncodeStorage:
    def test_zero_files(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        assert encode_storage(d, BitMatrix.zeros(2 * d.b, d.k_c)) == BitMatrix.zeros(2 * d.b, d.n_s)

    def test_repetition_broadcast(self):
        d = derive_scheme(cfg("DBer(2,1,3)", "DBer(2,1,3)"))
        # k_C = 4, b = 1: a single stripe; every server stores one codeword bit.
        file0 = BitMatrix.from_bits([[1, 0, 1, 1]])
        stored = encode_storage(d, file0)
        codeword = d.storage_code.generator.left_mul(BitVector.from_bits([1, 0, 1, 1]))
        assert stored == BitMatrix.from_rows([codeword])

    def test_rows_are_codewords(self):
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=2))
        stored = encode_storage(d, random_library(d, 2, philox_generator(3)))
        assert (stored.rows, stored.cols) == (2 * d.b, d.n_s)
        for i in range(stored.rows):
            assert d.storage_code.contains(stored.row(i))

    def test_shape_check(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        # b = 4, k_C = 1: row counts that are no positive whole number of
        # files, then whole files of the wrong width.
        for rows, cols in ((1, 1), (0, 1), (5, 1), (7, 1), (4, 2)):
            with pytest.raises(ShapeMismatch):
                encode_storage(d, BitMatrix.zeros(rows, cols))


class TestQueries:
    def test_deterministic(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        q1 = gen_queries(d, 2, 1, range(0, 1), philox_generator(42))
        q2 = gen_queries(d, 2, 1, range(0, 1), philox_generator(42))
        assert q1 == q2

    def test_embedding_structure(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        demand = 1
        q = gen_queries(d, 2, demand, range(0, 1), philox_generator(7))
        from oracles import random_bits

        # The random part, redrawn from the same Philox seed.
        g_d = d.retrieval_code.generator
        rand = BitMatrix(2 * d.b, g_d.rows, random_bits(philox_generator(7), 2 * d.b, g_d.rows)) @ g_d
        embed = BitMatrix(q.rows, q.cols, tuple(a ^ r for a, r in zip(q.row_words, rand.row_words)))
        assert list(embed.row_words) == planted_words(d, d.schedule.iterations[0], 2, demand)
        # At most one planted bit per coordinate, all on the demanded rows.
        for j in range(d.n_s):
            assert embed.column(j).weight() <= 1
        for row in range(embed.rows):
            stripe_rows = range(demand * d.b, (demand + 1) * d.b)
            if row not in stripe_rows:
                assert embed.row(row).is_zero()
        planted = sum(embed.row(i).weight() for i in range(embed.rows))
        assert planted == d.d_perp

    def test_random_rows_are_retrieval_codewords(self):
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=2))
        q = gen_queries(d, 2, 0, range(0, 1), philox_generator(13))
        planted = planted_words(d, d.schedule.iterations[0], 2, 0)
        for word, embed in zip(q.row_words, planted):
            assert d.retrieval_code.contains(BitVector(q.cols, word ^ embed))

    def test_demand_range(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        for demand in (-1, 2):
            with pytest.raises(ValueError):
                gen_queries(d, 2, demand, range(0, 1), philox_generator(0))

    def test_one_run_equals_single_iterations(self):
        # 3 files of 22 stripes draw 363 32-bit words per iteration, so every
        # other iteration starts on a carried half of a Philox output.
        d = derive_scheme(cfg("DBer(2,1,6)", "DBer(2,2,6)", files=3))
        s = d.s_iterations
        assert s > 1
        rng = philox_generator(17)
        run = gen_queries(d, 3, 2, range(0, s), rng)
        after_run = rng.integers(0, 1 << 32, dtype=np.uint32)
        rng = philox_generator(17)
        single = [gen_queries(d, 3, 2, range(it, it + 1), rng) for it in range(s)]
        assert run.rows == 3 * d.b * s
        assert run.row_words == tuple(w for q in single for w in q.row_words)
        assert rng.integers(0, 1 << 32, dtype=np.uint32) == after_run


class TestRandomBits:
    @staticmethod
    def reference(rng, rows, cols):
        """Bit-by-bit packing of the same row-major uint8 draw."""
        flat = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8) if cols else None
        out = []
        for i in range(rows):
            w = 0
            for j in range(cols):
                if flat[i, j]:
                    w |= 1 << j
            out.append(w)
        return tuple(out)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 12), st.integers(0, 80))
    def test_matches_bitwise_packing(self, seed, rows, cols):
        from oracles import random_bits

        packed, bitwise = philox_generator(seed), philox_generator(seed)
        assert random_bits(packed, rows, cols) == self.reference(bitwise, rows, cols)
        # Both leave the stream at the same position.
        assert packed.integers(0, 2**63) == bitwise.integers(0, 2**63)


class TestLoopOracle:
    """Every query, response and recovered file of ``run_retrieval`` against
    the row-at-a-time Python-integer loop of :func:`oracles.loop_retrieval`."""

    @pytest.mark.parametrize(
        "storage, retrieval",
        (
            ("DBer(3,0,2)", "DBer(3,1,2)"),  # 9 servers, one limb
            ("DBer(2,1,7)", "DBer(2,2,7)"),  # 128 servers, two limbs
            ("DBer(2,1,8)", "DBer(2,1,8)"),  # 256 servers, four limbs
            ("DBer(2,1,8)", "DBer(2,3,8)"),  # messages of two limbs, queries of four
            ("Ber(3,1,3)", "DBer(3,0,3)"),  # schedule found by augmenting paths
        ),
    )
    @pytest.mark.parametrize("seed", (3, 2**64 - 5))
    def test_matches_row_loop(self, storage, retrieval, seed):
        from oracles import loop_retrieval

        config = cfg(storage, retrieval, files=3, seed=seed)
        d = derive_scheme(config)
        for demand in range(3):
            file_words, queries, responses = loop_retrieval(d, 3, seed, demand)
            transcript = run_retrieval(config, demand)
            assert len(transcript.iterations) == len(queries)
            for rec, q, r in zip(transcript.iterations, queries, responses):
                assert rec.query.row_words == q
                assert rec.response.word == r
            assert transcript.recovered_file.row_words == file_words
            assert transcript.stored_file.row_words == file_words
            assert transcript.reconstructed_ok


class TestRespond:
    @given(
        st.integers(0, 20),
        st.integers(0, 70),
        st.integers(0, 2**32 - 1),
    )
    def test_respond_all_matches_per_server_loop(self, rows, n_s, seed):
        from oracles import per_server_responses, random_bits

        rng = np.random.default_rng(seed)
        stored = BitMatrix(rows, n_s, random_bits(rng, rows, n_s))
        q = BitMatrix(rows, n_s, random_bits(rng, rows, n_s))
        assert respond_all(stored, q) == per_server_responses(stored, q)

    def test_respond_all_shape_check(self):
        # Same number of entries, transposed shape: still rejected.
        with pytest.raises(LengthMismatch):
            respond_all(BitMatrix.zeros(3, 2), BitMatrix.zeros(2, 3))

    def test_zero_query(self):
        stored = BitMatrix.from_bits([[1, 0, 1, 1], [0, 1, 1, 0]])
        assert respond_all(stored, BitMatrix.zeros(2, 4)) == BitVector.zeros(4)

    def test_unit_query_reads_a_bit(self):
        stored = BitMatrix.from_bits([[1, 0, 1, 1], [0, 1, 1, 0]])
        for r in range(2):
            for i in range(4):
                q = BitMatrix(2, 4, tuple(1 << i if row == r else 0 for row in range(2)))
                expected = BitVector.unit(4, i) if stored.entry(r, i) else BitVector.zeros(4)
                assert respond_all(stored, q) == expected

    def test_length_check(self):
        q = BitMatrix.zeros(2, 3)
        with pytest.raises(LengthMismatch):
            respond_all(BitMatrix.zeros(5, 3), q)  # rows differ
        with pytest.raises(LengthMismatch):
            respond_all(BitMatrix.zeros(2, 4), q)  # columns differ


class TestDecode:
    def test_zero_storage_recovers_zeros(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        stored = encode_storage(d, BitMatrix.zeros(2 * d.b, d.k_c))
        q = gen_queries(d, 2, 0, range(0, 1), philox_generator(3))
        r = respond_all(stored, q)
        for _, _, bit in decode_iteration(d, 0, r):
            assert bit == 0

    def test_recovers_ground_truth(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2, seed=5))
        rng = philox_generator(5)
        library = random_library(d, 2, rng)
        stored = encode_storage(d, library)
        encoded = library @ d.storage_code.generator
        demand = 1
        q = gen_queries(d, 2, demand, range(0, 1), rng)
        r = respond_all(stored, q)
        for stripe, coord, bit in decode_iteration(d, 0, r):
            assert bit == encoded.entry(d.file_row(demand, stripe), coord)

    def test_invariant_under_rerandomization(self):
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=2))
        stored = encode_storage(d, random_library(d, 2, philox_generator(6)))
        recovered = []
        for seed in (100, 200):
            got = []
            for it in range(d.s_iterations):
                q = gen_queries(d, 2, 0, range(it, it + 1), philox_generator(seed + it))
                got.extend(decode_iteration(d, it, respond_all(stored, q)))
            recovered.append(sorted(got))
        assert recovered[0] == recovered[1]


class TestReconstruct:
    def test_zero_bits_zero_file(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        triples = tuple(
            (stripe, coord, 0)
            for stripe in range(d.b)
            for coord in d.schedule.stripe_coords[stripe]
        )
        assert reconstruct_file(d, triples) == BitMatrix.zeros(d.b, d.k_c)

    def test_pivot_coordinates_copy_through(self):
        d = derive_scheme(cfg("DBer(2,1,3)", "DBer(2,1,3)"))
        rng = philox_generator(8)
        file0 = BitMatrix(d.b, d.k_c, tuple(int(w) for w in rng.integers(0, 1 << d.k_c, size=d.b)))
        encoded = file0 @ d.storage_code.generator
        pivots = d.storage_code.information_set()
        triples = tuple(
            (stripe, coord, encoded.entry(stripe, coord))
            for stripe in range(d.b)
            for coord in pivots
        )
        assert reconstruct_file(d, triples) == file0

    def test_incomplete(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        with pytest.raises(Incomplete):
            reconstruct_file(d, ((0, 0, 0),))


class TestPrivacyRank:
    def test_repetition_t1(self):
        rep = build(P("DBer(3,0,2)"))
        assert verify_privacy_rank(rep, 1)

    def test_worked_examples(self):
        code = build(P("DBer(3,1,2)"))
        assert verify_privacy_rank(code, 3)
        assert not verify_privacy_rank(code, 4)
        assert verify_privacy_rank(build(P("DBer(2,1,2)")), 3)

    def test_sampled_mode(self):
        # C(256, 15) subsets and dim D^perp = 163: no enumeration fits, so the
        # dual Ber(2,3,8) is recognised and its distance 16 read off the
        # closed form.
        code = build(P("DBer(2,3,8)"))
        assert code.dual().dimension > MAX_BRUTE_FORCE_DIM
        assert pir._privacy_verdict(code, 15) == (True, "family")
        assert pir._privacy_verdict(code, 16) == (False, "family")

    def test_dependency_missed_by_sampling_is_found(self):
        # The duals Ber(2,2,7) and Ber(2,2,8) have distance 8, so some 8
        # columns are dependent, but too few 8-subsets are for a random
        # sample of subsets to find one.
        assert not verify_privacy_rank(build(P("DBer(2,2,7)")), 8)
        assert not verify_privacy_rank(build(P("DBer(2,2,8)")), 8)

    def test_dual_route_rejects_a_duplicated_column(self):
        # C(27, 8) subsets and dim D^perp = 7: decided from the dual distance.
        code = build(P("Ber(3,1,3)"))
        broken = duplicate_column(code)
        assert broken.dual().dimension <= MAX_BRUTE_FORCE_DIM
        assert verify_privacy_rank(code, 8)
        assert not verify_privacy_rank(broken, 8)

    def test_dual_route_agrees_with_exhaustive(self, monkeypatch):
        monkeypatch.setattr(pir, "EXHAUSTIVE_SUBSETS", 0)
        verdicts = set()
        for n, m in SHAPES_UP_TO_36:
            for params in family(n, m):
                if params.is_zero_code:
                    continue
                code = build(params)
                if code.dual().dimension > MAX_BRUTE_FORCE_DIM:
                    continue
                for t in range(1, code.length + 1):
                    if comb(code.length, t) > 2_000:
                        break
                    exhaustive = all(
                        rank(code.generator.take_columns(subset)) == t
                        for subset in combinations(range(code.length), t)
                    )
                    assert pir._privacy_verdict(code, t) == (exhaustive, "dual-distance"), (params.name, t)
                    verdicts.add(exhaustive)
        assert verdicts == {True, False}

    def test_family_route_agrees_with_exhaustive(self, monkeypatch):
        monkeypatch.setattr(pir, "EXHAUSTIVE_SUBSETS", 0)
        monkeypatch.setattr(pir, "MAX_BRUTE_FORCE_DIM", -1)
        verdicts = set()
        for n, m in shapes_up_to(64):
            for params in family(n, m):
                code = build(params)
                cols = code.generator.transpose().row_words
                for t in range(1, code.length + 1):
                    if comb(code.length, t) > 3_000:
                        break
                    exhaustive = all(
                        pir._projection_rank(cols, subset) == t
                        for subset in combinations(range(code.length), t)
                    )
                    assert pir._privacy_verdict(code, t) == (exhaustive, "family"), (params.name, t)
                    verdicts.add(exhaustive)
        assert verdicts == {True, False}

    def test_duplicated_column_falls_through_family(self):
        # dim D^perp = 42 and C(64, 7) subsets: the intact code's dual is
        # Ber(2,2,6); a duplicated column makes the dual no family member,
        # and no exact route is left.
        code = build(P("DBer(2,2,6)"))
        broken = duplicate_column(code)
        assert pir._privacy_verdict(code, 7) == (True, "family")
        with pytest.raises(TooLarge):
            pir._privacy_verdict(broken, 7)

    def test_ladder_pairs_are_decided_exactly(self, ladder):
        routes = {}
        for storage, retrieval, t in ladder:
            verdict, route = pir._privacy_verdict(build(retrieval), t)
            assert verdict is True, (storage.name, retrieval.name, t)
            routes[storage.name, retrieval.name] = route
        assert sum(route == "family" for route in routes.values()) == 9

    def test_ladder_t_is_sharp(self, ladder):
        # Every route finds a dependency among t + 1 columns.
        for storage, retrieval, t in ladder:
            verdict, route = pir._privacy_verdict(build(retrieval), t + 1)
            assert verdict is False, (storage.name, retrieval.name, t, route)

    @pytest.mark.slow
    def test_every_supported_pair_up_to_256_servers(self):
        verdicts = {}
        pairs = list(supported_pairs(shapes_up_to(256)))
        assert len(pairs) == 1425
        for storage, retrieval, t in pairs:
            for s in (t, t + 1):
                if (retrieval, s) not in verdicts:
                    verdicts[retrieval, s] = pir._privacy_verdict(build(retrieval), s)
            assert verdicts[retrieval, t][0] is True, (storage.name, retrieval.name, t)
            assert verdicts[retrieval, t + 1][0] is False, (storage.name, retrieval.name, t + 1)
        assert {route for _, route in verdicts.values()} <= {"exhaustive", "dual-distance", "family"}

    @pytest.mark.parametrize("t", (-1, 5))
    def test_out_of_range_t(self, t):
        with pytest.raises(ValueError, match="t must lie in 0..4"):
            verify_privacy_rank(build(P("DBer(2,1,2)")), t)

    def test_every_supported_pair_up_to_36_servers(self):
        checked = 0
        for storage, retrieval, t in supported_pairs(SHAPES_UP_TO_36):
            assert verify_privacy_rank(build(retrieval), t), (storage.name, retrieval.name, t)
            checked += 1
        assert checked > 100


class TestPrivacyEmpirical:
    def test_exhaustive_single_demand(self):
        assert verify_privacy_empirical(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=1, seed=3), 3) == 0.0

    def test_exhaustive_two_demands(self):
        assert verify_privacy_empirical(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2, seed=3), 3) == 0.0

    def test_weak_retrieval_code_leaks(self):
        distance = verify_privacy_empirical(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2, seed=3), 4)
        assert distance > 0.1

    def test_guard(self):
        with pytest.raises(TooLarge):
            verify_privacy_empirical(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=5), 3)

    def test_colluding_set_guard(self, monkeypatch):
        # C(9, 3) = 84 colluding sets are searched for the worst case.
        config = cfg("DBer(3,0,2)", "DBer(3,1,2)")
        monkeypatch.setattr(pir, "EXHAUSTIVE_SUBSETS", 83)
        with pytest.raises(TooLarge, match="colluding sets"):
            verify_privacy_empirical(config, 3)
        monkeypatch.setattr(pir, "EXHAUSTIVE_SUBSETS", 84)
        assert verify_privacy_empirical(config, 3) == 0.0

    @pytest.mark.parametrize("t", (-1, 5))
    def test_out_of_range_t(self, t):
        with pytest.raises(ValueError, match="t must lie in 0..4"):
            verify_privacy_empirical(cfg("DBer(2,0,2)", "DBer(2,1,2)"), t)

    def test_zero_rate_pair(self):
        with pytest.raises(ZeroRate):
            verify_privacy_empirical(cfg("DBer(3,1,2)", "DBer(3,1,2)"), 1)


class TestRunRetrieval:
    def test_worked_example(self):
        transcript = run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2, seed=1), 0)
        assert transcript.reconstructed_ok
        assert transcript.achieved_rate == Fraction(4, 9)
        assert transcript.downloaded_bits == 9

    def test_single_file_is_legal(self):
        transcript = run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=1, seed=2), 0)
        assert transcript.reconstructed_ok
        retrieval = build(P("DBer(3,1,2)"))
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        for rec in transcript.iterations:
            # Queries still carry the random retrieval-code part.
            planted = planted_words(d, rec.plan, 1, 0)
            assert sum(w.bit_count() for w in planted) == d.d_perp
            for word, embed in zip(rec.query.row_words, planted):
                assert retrieval.contains(BitVector(rec.query.cols, word ^ embed))

    def test_parity_storage_scheme(self):
        transcript = run_retrieval(cfg("Ber(3,0,3)", "DBer(3,0,3)", files=1, seed=4), 0)
        assert transcript.reconstructed_ok
        assert transcript.t == 1
        assert transcript.achieved_rate == Fraction(1, 27)
        assert transcript.s_iterations == 26

    def test_transcript_determinism(self):
        a = run_retrieval(cfg("DBer(2,1,3)", "DBer(2,1,3)", files=2, seed=9), 1)
        b = run_retrieval(cfg("DBer(2,1,3)", "DBer(2,1,3)", files=2, seed=9), 1)
        assert a.to_json() == b.to_json()

    def test_response_residue_checked(self):
        # Every run exercises the in-simulator response-algebra check.
        run_retrieval(cfg("DBer(3,0,3)", "Ber(3,1,3)", files=2, seed=11), 1)

    @pytest.mark.parametrize(
        "storage, retrieval, files, seed, demand, digest",
        (
            ("DBer(2,1,6)", "DBer(2,2,6)", 256, 0, 0,
             "bedf485c16001ba1bdb88d498d22025778b047cfca1e57005ed0ae160a9bd942"),
            ("DBer(2,0,8)", "DBer(2,1,8)", 2, 7, 1,
             "143e2d5fdd829399c6cfd48d0f43838bcd7b53bbe540282c0b016faca5300373"),
            ("Ber(3,1,3)", "DBer(3,0,3)", 3, 11, 2,
             "fdceed4d9a22db4bce7c1c30dc00043fb22aa1901635d8ac4f0e5b07744e9d46"),
            # 5 files of 39 32-bit words each: the first query draw starts
            # on the second half of a 64-bit Philox output.
            ("DBer(2,1,6)", "DBer(2,2,6)", 5, 2**63 + 12345, 3,
             "a4a807976be0a4d5045d4f6a1019dbf8de0c2825273d3e104d2fa524aa7982c7"),
        ),
    )
    def test_golden_transcript_digests(self, storage, retrieval, files, seed, demand, digest):
        transcript = run_retrieval(cfg(storage, retrieval, files=files, seed=seed), demand)
        assert hashlib.sha256(transcript.to_json().encode()).hexdigest() == digest

    def test_runs_split_by_the_batch_guard(self, monkeypatch):
        # With room for two query batches, the 7 iterations run as 2+2+2+1
        # and the transcript is byte-identical to the one-run retrieval.
        config = cfg("DBer(2,1,6)", "DBer(2,2,6)", files=5, seed=2**63 + 12345)
        d = derive_scheme(config)
        runs = []
        honest = pir.gen_queries

        def recording(derived, files, demand, iterations, rng):
            runs.append(len(iterations))
            return honest(derived, files, demand, iterations, rng)

        monkeypatch.setattr(pir, "gen_queries", recording)
        whole = run_retrieval(config, 3)
        assert runs == [d.s_iterations] == [7]
        runs.clear()
        monkeypatch.setattr(pir, "MAX_BATCH_BITS", 2 * pir._query_bits(d, 5))
        split = run_retrieval(config, 3)
        assert runs == [2, 2, 2, 1]
        assert split.to_json() == whole.to_json()
        for a, b in zip(split.iterations, whole.iterations):
            assert a.query == b.query

    def test_oversized_library_is_refused_before_any_draw(self, monkeypatch):
        config = cfg("DBer(2,1,3)", "DBer(2,1,3)", files=10**12)
        d = derive_scheme(config)  # derivation is cached per pair, so warm it first

        def no_draw(*args):
            raise AssertionError("drew before the size guard")

        monkeypatch.setattr(pir, "philox_generator", no_draw)
        monkeypatch.setattr(pir, "draw_bit_limbs", no_draw)
        monkeypatch.setattr(pir, "draw_bit_bytes", no_draw)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                run_retrieval(config, 0)
            with pytest.raises(TooLarge):
                gen_queries(d, 10**12, 0, range(0, 1), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_size_guard_boundary(self):
        d = derive_scheme(cfg("DBer(2,1,3)", "DBer(2,1,3)"))
        per_file = d.b * 64  # 8 servers: one limb per row
        files = pir.MAX_BATCH_BITS // per_file
        pir._check_batch_size(d, files)
        with pytest.raises(TooLarge):
            pir._check_batch_size(d, files + 1)

    def test_wide_retrieval_converts_no_large_matrix_to_words(self, monkeypatch):
        # The stored matrix, the library and the queries stay limbs; only
        # the demanded file's b rows and response vectors become words.
        config = cfg("DBer(2,1,6)", "DBer(2,2,6)", files=256, seed=3)
        b = derive_scheme(config).b
        converted = []
        convert = gf2.limbs_to_words

        def recording(limbs):
            converted.append(limbs.shape[0])
            return convert(limbs)

        monkeypatch.setattr(gf2, "limbs_to_words", recording)
        monkeypatch.setattr(pir, "limbs_to_words", recording)
        transcript = run_retrieval(config, 5)
        assert transcript.reconstructed_ok
        assert converted and max(converted) <= b

    @pytest.mark.parametrize(
        "stage, flip_first, message",
        (
            ("decode_iteration", lambda got: ((*got[0][:2], got[0][2] ^ 1), *got[1:]), "recovered bit"),
            ("take_bits", lambda bits: [bits[0] ^ 1, *bits[1:]], "left the product code"),
        ),
    )
    def test_wide_retrieval_catches_a_corrupted_planted_bit(self, monkeypatch, stage, flip_first, message):
        # A wrong decoded bit fails the recovered-bit check; a wrong stored
        # bit from the gather fails the residue check.
        honest = getattr(pir, stage)
        monkeypatch.setattr(pir, stage, lambda *args: flip_first(honest(*args)))
        with pytest.raises(ProtocolInvariantError, match=message):
            run_retrieval(cfg("DBer(2,1,6)", "DBer(2,2,6)", files=256, seed=3), 5)

    def test_zero_rate_propagates(self):
        with pytest.raises(ZeroRate):
            run_retrieval(cfg("DBer(3,1,2)", "DBer(3,1,2)"), 0)

    def test_demand_range(self):
        with pytest.raises(ValueError):
            run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2), 2)


def flip_first_response_bit(monkeypatch):
    """Make every server response vector arrive with coordinate 0 flipped."""
    honest = pir.respond_all

    def flipped(stored, q):
        response = honest(stored, q)
        return BitVector(response.length, response.word ^ 1)

    monkeypatch.setattr(pir, "respond_all", flipped)


FLIPPED_SIMULATE = """
import sys
import pytest
from tests.test_pir import flip_first_response_bit
if not sys.flags.optimize:
    sys.exit("expected python -O")
with pytest.MonkeyPatch.context() as mp:
    flip_first_response_bit(mp)
    from bermanpir import cli
    sys.exit(cli.main(sys.argv[1:]))
"""

FLIPPED_RUN_RETRIEVAL = """
import sys
import pytest
from tests.test_pir import cfg, flip_first_response_bit
from bermanpir import pir
if not sys.flags.optimize:
    sys.exit("expected python -O")
with pytest.MonkeyPatch.context() as mp:
    flip_first_response_bit(mp)
    try:
        pir.run_retrieval(cfg("DBer(2,1,7)", "DBer(2,2,7)", files=2, seed=1), 1)
    except pir.ProtocolInvariantError as exc:
        print(type(exc).__name__)
"""

CORRUPTED_DIMENSION_SIMULATE = """
import sys
from bermanpir import berman, cli
if not sys.flags.optimize:
    sys.exit("expected python -O")
real = berman.dimension_formula
berman.dimension_formula = lambda params: real(params) + 1
sys.exit(cli.main(sys.argv[1:]))
"""


class TestProtocolInvariants:
    ARGS = ["simulate", "--storage", "DBer(3,0,2)", "--retrieval", "DBer(3,1,2)", "--files", "2"]

    def test_flipped_response_bit_is_caught(self, monkeypatch):
        flip_first_response_bit(monkeypatch)
        with pytest.raises(ProtocolInvariantError):
            run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2, seed=1), 0)

    def test_cli_reports_exit_4(self, monkeypatch, capsys):
        flip_first_response_bit(monkeypatch)
        assert cli.main(self.ARGS) == cli.EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ProtocolInvariantError"

    @staticmethod
    def run_optimized(script, *args):
        """``script`` in a fresh ``python -O`` with the repo and ``src`` importable."""
        root = Path(__file__).resolve().parent.parent
        path = [str(root), str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        return subprocess.run(
            [sys.executable, "-O", "-c", script, *args],
            capture_output=True, text=True, env=env, cwd=root, timeout=300,
        )

    def test_checks_survive_python_O(self):
        # A flipped response bit and a corrupted dimension formula (caught by
        # the `build` rank check) must both still fail under `python -O`.
        for script in (FLIPPED_SIMULATE, CORRUPTED_DIMENSION_SIMULATE):
            proc = self.run_optimized(script, *self.ARGS)
            assert proc.returncode == cli.EXIT_VERIFY_FAILED, proc.stderr
            assert proc.stdout == ""
            assert json.loads(proc.stderr)["error"] == "ProtocolInvariantError"

    def test_run_retrieval_raises_under_python_O(self):
        # The library call itself, not only the CLI, keeps its response check
        # when asserts are stripped.
        proc = self.run_optimized(FLIPPED_RUN_RETRIEVAL)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ProtocolInvariantError\n"
