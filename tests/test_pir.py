"""Protocol machinery: scheme derivation, scheduling, encoding, queries,
responses, decoding, reconstruction, privacy checks, end-to-end runs."""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import child_env

from bermanpir import berman, cli, codes, gf2, pir
from bermanpir.berman import BermanParams, CodeKind, build
from bermanpir.codes import MAX_BRUTE_FORCE_DIM, InvalidInput, LinearCode, TooLarge
from bermanpir.gf2 import BitMatrix, BitVector, LengthMismatch, draw_bit_limbs
from bermanpir.pir import (
    ProtocolInvariantError,
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


def zeros(rows, cols):
    return BitMatrix(rows, cols, (0,) * rows)


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


def planted_words(d, it, files, demand):
    """The bits iteration ``it`` plants into Q, one word per file row."""
    words = [0] * (files * d.b)
    for stripe, coord in enumerate(d.schedule.coords[it]):
        words[d.file_row(demand, stripe)] |= 1 << coord
    return words


def stripe_coords(schedule, stripe):
    """Column ``stripe`` of the table: the stripe's coordinates in iteration order."""
    return tuple(schedule.coords[:, stripe].tolist())


def sorted_plan(row):
    """One iteration's coordinates ascending and their stripes, as the
    transcript lists them."""
    order = sorted(range(len(row)), key=row.__getitem__)
    return [[row[p] for p in order], order]


def query_matrix(d, files, demand, iterations, rng):
    """The queries of one :func:`gen_queries` run, stacked in iteration
    order as one matrix."""
    limbs = gen_queries(d, files, demand, iterations, rng)
    return BitMatrix.from_limbs(limbs.reshape(-1, limbs.shape[2]), d.n_s)


def respond(stored, q):
    """:func:`respond_all`'s answer to the one query matrix ``q``."""
    (response,) = respond_all(stored, q.limbs[None].copy(), q.cols)
    return response


def regenerated_queries(d, files, seed, demand):
    """Every query of one retrieval, stacked as one run: the documented
    stream draws the M files first, then one batch per iteration."""
    rng = philox_generator(seed)
    draw_bit_limbs(rng, files, d.b, d.k_c)
    return query_matrix(d, files, demand, range(d.s_iterations), rng)


def check_schedule(schedule, g_c, h, b, k_c, d_perp, s_iterations):
    """Every iteration (row) holds d_perp distinct coordinates with
    invertible columns of H; every stripe (column) holds k_C with
    invertible columns of G_C."""
    from oracles import rank

    assert len(schedule.coords) == s_iterations
    for row in schedule.coords:
        assert len(set(row)) == len(row) == d_perp
        assert rank(h.take_columns(row)) == len(row) == h.rows
    assert {len(row) for row in schedule.coords} == {b}
    for stripe in range(b):
        coords = stripe_coords(schedule, stripe)
        assert len(coords) == k_c
        assert rank(g_c.take_columns(coords)) == len(coords) == g_c.rows


def duplicate_column(code):
    """``code`` with column 1 of its generator overwritten by column 0."""
    words = tuple((w & ~2) | ((w & 1) << 1) for w in code.generator.row_words)
    return LinearCode.from_generator(BitMatrix(code.dimension, code.length, words))


def simulate_with_peak(*args, address_space=None):
    """``bermanpir simulate`` with ``args`` in a fresh interpreter: the
    finished process and the child's own peak RSS in KiB.  With
    ``address_space`` (bytes), the child's ``RLIMIT_AS`` is set to it first."""
    limit = f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space})); " if address_space else ""
    script = (
        f"import resource, sys; {limit}from bermanpir.cli import main; rc = main(); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); raise SystemExit(rc)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "simulate", *args], capture_output=True, text=True, env=child_env(), timeout=120
    )
    return proc, int(proc.stderr.splitlines()[-1])


#: SHA-256 of the JSON transcript of ``simulate DBer(2,5,12)×DBer(2,0,12)``
#: at seed 0, demand 0.
LARGEST_TRANSCRIPT_SHA256 = "499c40c1ed9e3526c603cf4251bb712ea952e2006a3a5d94b635f8e6a311394c"

#: Warm retrievals of ``retrieve_wide``'s pair in one process; prints the
#: minor page faults of the last 200.
WARM_RETRIEVAL_FAULTS = """
import dataclasses, resource
from bermanpir import pir
from bermanpir.berman import BermanParams
config = pir.SchemeConfig(BermanParams.parse("DBer(2,1,6)"), BermanParams.parse("DBer(2,2,6)"), 256, 0)
for op in range(250):
    if op == 50:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert pir.run_retrieval(dataclasses.replace(config, seed=op), op % 256).reconstructed_ok
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


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

    def test_runs_reuse_the_schedule_bases(self, monkeypatch):
        # Decoding and reconstruction read the products M_E H' and M_C B_C
        # that derivation formed, so runs after derivation invert and
        # row-reduce nothing.
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)"))
        assert d.b > 1 and d.s_iterations > 1

        def fail(*args):
            raise AssertionError("a run rebuilt a basis")

        monkeypatch.setattr(pir, "invert_columns", fail)
        monkeypatch.setattr(gf2, "_eliminate", fail)
        assert run_retrieval(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=2, seed=1), 0).reconstructed_ok
        assert run_retrieval(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=3, seed=2), 2).reconstructed_ok


class TestSchedule:
    def test_single_iteration_example(self):
        from oracles import rank

        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        assert (d.k_c, d.d_perp, d.b, d.s_iterations) == (1, 4, 4, 1)
        (row,) = d.schedule.coords
        assert len(set(row)) == len(row) == 4
        assert sorted(sorted_plan(row)[1]) == [0, 1, 2, 3]
        assert rank(d.parity.take_columns(row)) == len(row) == d.parity.rows  # invertible by construction

    def test_invariants_all_pairs(self):
        from oracles import rank

        for storage, retrieval in ACCEPTANCE_PAIRS:
            config = cfg(storage, retrieval)
            d = derive_scheme(config)
            assert len(d.schedule.coords) == d.s_iterations
            published = json.loads(run_retrieval(config, 0).to_json())["iterations"]
            assert len(published) == d.s_iterations
            for row, it in zip(d.schedule.coords, published):
                assert len(set(row)) == len(row) == d.d_perp
                assert it["J"] == sorted(row)
                assert it["assignments"] == [[p, row[p]] for p in sorted_plan(row)[1]]
                assert rank(d.parity.take_columns(row)) == len(row) == d.parity.rows
            for stripe in range(d.b):
                coords = stripe_coords(d.schedule, stripe)
                assert len(coords) == d.k_c
                g_c = d.storage_code.generator
                assert rank(g_c.take_columns(coords)) == len(coords) == g_c.rows

    def test_table_adds_the_weight_sets(self):
        # Iteration i meets stripe p at I_0[i] + J_0[p], the tuples added
        # componentwise mod n, with I_0 = W(C) and J_0 = W(E^perp); so
        # S = k_C and b = d_perp, also where gcd(k_C, d_perp) = 8.
        from oracles import tuple_to_index

        for storage, retrieval in ACCEPTANCE_PAIRS + (("DBer(2,1,7)", "DBer(2,2,7)"), ("Ber(3,2,5)", "DBer(3,0,5)")):
            config = cfg(storage, retrieval)
            d = derive_scheme(config)
            n, m = config.storage.n, config.storage.m
            perp = pir.predict_star(config.storage, config.retrieval).dual
            shifts = [berman.index_to_tuple(n, m, i) for i in berman.basis(config.storage)[0]]
            assert d.schedule.iteration_shifts == tuple(shifts)
            shifts = [berman.index_to_tuple(n, m, i) for i in berman.basis(perp)[0]]
            assert d.schedule.stripe_shifts == tuple(shifts)
            assert (d.s_iterations, d.b) == (d.k_c, d.d_perp)
            assert len(d.schedule.coords) == d.s_iterations
            for a, row in zip(d.schedule.iteration_shifts, d.schedule.coords):
                assert len(row) == d.b
                for stripe, coord in enumerate(row):
                    c = d.schedule.stripe_shifts[stripe]
                    assert coord == tuple_to_index(n, [(x + y) % n for x, y in zip(a, c)])
        assert derive_scheme(cfg("DBer(2,1,7)", "DBer(2,2,7)")).b == 64

    def test_syndrome_map_is_a_parity_check_of_the_product(self):
        # H', the family basis of the member E^perp, and the derived syndrome
        # map M_E H': against the product formed from every pair of generator
        # rows, the rows of each are orthogonal to E and independent, n - dim E
        # of them.
        from oracles import all_products_star, rank

        pairs = list(supported_pairs(shapes_up_to(64)))
        assert len(pairs) == 444
        for storage, retrieval, _ in pairs:
            d = derive_scheme(SchemeConfig(storage, retrieval))
            e = all_products_star(d.storage_code, d.retrieval_code)
            words = berman.basis(pir.predict_star(storage, retrieval).dual)[1]
            family_basis = BitMatrix(len(words), d.n_s, words)
            for h in (family_basis, d.parity):
                assert all((row & w).bit_count() % 2 == 0 for row in h.row_words for w in e.generator.row_words)
                assert h.rows == rank(h) == d.n_s - e.dimension, (storage.name, retrieval.name)


class TestTables:
    """The schedule and the stripe readout are read-only int32 tables; a
    schedule compares by value."""

    def test_equal_schedules_compare_and_hash_equal(self):
        schedule = derive_scheme(cfg("DBer(2,1,6)", "DBer(2,2,6)")).schedule
        assert schedule.coords.dtype == np.int32
        twin = pir.Schedule(schedule.n, schedule.iteration_shifts, schedule.stripe_shifts)
        assert twin == schedule and hash(twin) == hash(schedule)
        assert np.array_equal(twin.coords, schedule.coords)

    @pytest.mark.parametrize("pair", (("DBer(2,1,6)", "DBer(2,2,6)"), ("Ber(3,1,3)", "DBer(3,0,3)")))
    def test_tables_are_formed_from_the_shifts(self, pair):
        # Neither table is a field: each is the sum table of the shifts that
        # fix it, read-only, and formed again for a schedule made anew.
        d = derive_scheme(cfg(*pair))
        schedule, n = d.schedule, d.schedule.n
        assert [f.name for f in dataclasses.fields(schedule)] == ["n", "iteration_shifts", "stripe_shifts"]
        assert "readout" not in {f.name for f in dataclasses.fields(d)}
        coords = pir._sum_table(n, schedule.iteration_shifts, schedule.stripe_shifts)
        pivots = [[c // n**l % n for l in reversed(range(len(schedule.stripe_shifts[0])))]
                  for c in d.storage_code.information_set()]
        negated = [[-x % n for x in shift] for shift in schedule.stripe_shifts]
        for table, want in ((schedule.coords, coords), (d.readout, pir._sum_table(n, negated, pivots))):
            assert table.dtype == np.int32 and np.array_equal(table, want) and not table.flags.writeable
        remade = dataclasses.replace(d, schedule=pir.Schedule(n, schedule.iteration_shifts, schedule.stripe_shifts))
        assert remade == d and remade.schedule.coords is not schedule.coords
        assert np.array_equal(remade.readout, d.readout) and not remade.readout.flags.writeable

    def test_tables_are_read_only(self):
        d = derive_scheme(cfg("DBer(2,1,6)", "DBer(2,2,6)"))
        assert d.readout.dtype == np.int32 and d.readout.shape == (d.b, d.k_c)
        for table in (d.schedule.coords, d.readout):
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_fresh_derivations_compare_equal(self):
        config = cfg("Ber(3,1,2)", "DBer(3,0,2)")
        first = derive_scheme(config)
        pir._derive.cache_clear()
        second = derive_scheme(config)
        assert second is not first
        assert second == first and hash(second) == hash(first)
        assert np.array_equal(second.readout, first.readout)


class TestSchemeConfig:
    """Files, seed and demand are integers: a float seed was keyed by Philox
    as its integer part while the transcript recorded the float."""

    @pytest.mark.parametrize(
        "field, value", (("files", 2.5), ("files", True), ("seed", 1.5), ("seed", True), ("seed", "1"))
    )
    def test_refuses_files_and_seed_that_are_not_integers(self, field, value):
        with pytest.raises(InvalidInput, match=f"^{field} must be an integer"):
            cfg("DBer(2,1,3)", "DBer(2,1,3)", **{field: value})

    def test_holds_files_and_seed_as_int(self):
        config = cfg("DBer(2,1,3)", "DBer(2,1,3)", files=np.int64(2), seed=np.uint64(2**63))
        assert (type(config.files), type(config.seed), config.seed) == (int, int, 2**63)
        assert json.loads(run_retrieval(config, 1).to_json())["config"]["seed"] == 2**63

    @pytest.mark.parametrize("demand", (True, 1.0, 0.5, "0"))
    def test_refuses_a_demand_that_is_not_an_integer(self, demand):
        config = cfg("DBer(2,1,3)", "DBer(2,1,3)", files=2)
        d = derive_scheme(config)
        with pytest.raises(InvalidInput, match="^demand must be an integer"):
            run_retrieval(config, demand)
        with pytest.raises(InvalidInput, match="^demand must be an integer"):
            gen_queries(d, 2, demand, range(0, 1), philox_generator(0))


class TestScheduleRegression:
    #: SHA-256 over every pair of SHAPES_UP_TO_36 of its name and, per
    #: iteration, its coordinates ascending and their stripes.
    SCHEDULES_SHA256 = "c0926b58bf78fd6b2aec47469a54acb91108b2817eebef9b6d0a8329dc0db320"

    #: Pairs with n^m <= 64 that an early depth-first schedule search gave up on.
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
            coords = derive_scheme(SchemeConfig(storage, retrieval)).schedule.coords
            record = [storage.name, retrieval.name, [sorted_plan(row) for row in coords.tolist()]]
            digest.update(json.dumps(record).encode())
        assert digest.hexdigest() == self.SCHEDULES_SHA256

    def test_stripe_view_matches_iterations(self):
        # Decoding reads row i translated by -I_0[i] as J_0, in stripe order;
        # reconstruction reads column p translated by -J_0[p] as I_0, in
        # iteration order.
        from oracles import tuple_to_index

        for storage, retrieval, _ in supported_pairs(shapes_up_to(64)):
            d = derive_scheme(SchemeConfig(storage, retrieval))
            n, m = storage.n, storage.m
            schedule = d.schedule
            iteration_set = berman.basis(storage)[0]
            stripe_set = berman.basis(pir.predict_star(storage, retrieval).dual)[0]

            def moved(coords, shift):
                return tuple(
                    tuple_to_index(n, [(x - y) % n for x, y in zip(berman.index_to_tuple(n, m, c), shift)])
                    for c in coords
                )

            for row, a in zip(schedule.coords, schedule.iteration_shifts):
                assert moved(row, a) == stripe_set, (storage.name, retrieval.name)
            for stripe, c in enumerate(schedule.stripe_shifts):
                assert moved(stripe_coords(schedule, stripe), c) == iteration_set, (storage.name, retrieval.name)

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

    @pytest.mark.slow
    def test_every_pair_up_to_256_servers_derives_and_reconstructs(self):
        pairs = list(supported_pairs(shapes_up_to(256)))
        assert len(pairs) == 1425
        for storage, retrieval, _ in pairs:
            try:
                d = derive_scheme(SchemeConfig(storage, retrieval))
                check_schedule(
                    d.schedule, d.storage_code.generator, d.parity, d.b, d.k_c, d.d_perp, d.s_iterations
                )
                assert run_retrieval(SchemeConfig(storage, retrieval, seed=2), 0).reconstructed_ok
            finally:
                pir._derive.cache_clear()

    @pytest.mark.parametrize(
        "storage, retrieval",
        # Pairs whose former schedule searches went deeper than the
        # interpreter's recursion limit or gave up.
        (("Ber(5,1,3)", "DBer(5,0,3)"), ("DBer(2,1,8)", "DBer(2,2,8)"), ("DBer(2,2,8)", "DBer(2,2,8)"))
        + FORMERLY_OVER_BUDGET,
    )
    def test_deep_searches_reconstruct(self, storage, retrieval):
        assert run_retrieval(cfg(storage, retrieval, seed=3), 0).reconstructed_ok

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "storage, retrieval",
        # 512 and 1024 servers, across the shapes (8,3), (2,9), (32,2), (4,5)
        # and (2,10).
        (
            ("DBer(8,1,3)", "Ber(8,1,3)"),
            ("Ber(8,2,3)", "DBer(8,0,3)"),
            ("Ber(2,6,9)", "DBer(2,6,9)"),
            ("DBer(2,4,9)", "Ber(2,7,9)"),
            ("DBer(32,0,2)", "Ber(32,1,2)"),
            ("Ber(4,3,5)", "DBer(4,3,5)"),
            ("DBer(4,2,5)", "DBer(4,0,5)"),
            ("DBer(2,2,10)", "Ber(2,8,10)"),
            ("DBer(2,4,10)", "DBer(2,3,10)"),
            ("DBer(2,2,10)", "DBer(2,2,10)"),
        ),
    )
    def test_large_pairs_reconstruct(self, storage, retrieval):
        config = cfg(storage, retrieval, files=2, seed=5)
        assert 512 <= config.storage.length <= 1024
        try:
            assert run_retrieval(config, 1).reconstructed_ok
        finally:
            pir._derive.cache_clear()

    @pytest.mark.slow
    def test_widest_pair_reconstructs_within_a_memory_limit(self, tmp_path):
        # 4096 servers: 3969 stripes over 127 iterations, in a fresh
        # interpreter with 3 GB of address space and two minutes.
        script = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
            "from bermanpir.cli import main; raise SystemExit(main())"
        )
        out = tmp_path / "transcript.json"
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--storage", "DBer(64,1,2)", "--retrieval", "DBer(64,0,2)",
             "--format", "json", "--out", str(out)],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        summary = json.loads(proc.stdout)
        assert (summary["b"], summary["S"]) == (3969, 127)
        assert summary["reconstructed_ok"] is True

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "storage, retrieval",
        # The slowest pairs of a stratified census of 1025-4096 servers: the
        # longest derive (elimination chains on 4075 servers), the longest
        # run (4017 iterations) and the longest privacy verdict (the family
        # route).  Each took about 8 s and at most 150 MB on a 2-CPU host, so
        # the bounds are 60 s and 300 MB, under 3 GB of address space.
        (("Ber(4075,0,1)", "DBer(4075,0,1)"), ("DBer(2,9,12)", "Ber(2,11,12)"), ("DBer(2,6,12)", "DBer(2,1,12)")),
    )
    def test_top_band_census(self, storage, retrieval):
        start = time.perf_counter()
        proc, peak_kb = simulate_with_peak(
            "--storage", storage, "--retrieval", retrieval, "--format", "csv", address_space=3 << 30
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        (summary,) = csv.DictReader(proc.stdout.splitlines())
        assert summary["reconstructed_ok"] == summary["privacy_rank_ok"] == "True"
        assert elapsed < 60
        assert peak_kb < 300 << 10


class TestEncodeStorage:
    def test_zero_files(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        assert encode_storage(d, zeros(2 * d.b, d.k_c)) == zeros(2 * d.b, d.n_s)

    def test_repetition_broadcast(self):
        from oracles import row_xor

        d = derive_scheme(cfg("DBer(2,1,3)", "DBer(2,1,3)"))
        # k_C = 4, b = 1: a single stripe; every server stores one codeword bit.
        message = BitVector.from01("1011")
        stored = encode_storage(d, BitMatrix.from_rows([message], 4))
        codeword = BitVector(d.n_s, row_xor(message.word, d.storage_code.generator))
        assert stored == BitMatrix.from_rows([codeword], d.n_s)

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
                encode_storage(d, zeros(rows, cols))


class TestQueries:
    def test_deterministic(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        q1 = query_matrix(d, 2, 1, range(0, 1), philox_generator(42))
        q2 = query_matrix(d, 2, 1, range(0, 1), philox_generator(42))
        assert q1 == q2

    def test_embedding_structure(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        demand = 1
        q = query_matrix(d, 2, demand, range(0, 1), philox_generator(7))
        from oracles import random_bits

        # The random part, redrawn from the same Philox seed.
        g_d = d.retrieval_code.generator
        rand = BitMatrix(2 * d.b, g_d.rows, random_bits(philox_generator(7), 2 * d.b, g_d.rows)) @ g_d
        embed = BitMatrix(q.rows, q.cols, tuple(a ^ r for a, r in zip(q.row_words, rand.row_words)))
        assert list(embed.row_words) == planted_words(d, 0, 2, demand)
        # At most one planted bit per coordinate, all on the demanded rows.
        for column in embed.transpose().row_words:
            assert column.bit_count() <= 1
        for row in range(embed.rows):
            stripe_rows = range(demand * d.b, (demand + 1) * d.b)
            if row not in stripe_rows:
                assert embed.row_words[row] == 0
        planted = sum(w.bit_count() for w in embed.row_words)
        assert planted == d.d_perp

    def test_random_rows_are_retrieval_codewords(self):
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=2))
        q = query_matrix(d, 2, 0, range(0, 1), philox_generator(13))
        planted = planted_words(d, 0, 2, 0)
        for word, embed in zip(q.row_words, planted):
            assert d.retrieval_code.contains(BitVector(q.cols, word ^ embed))

    def test_demand_range(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        for demand in (-1, 2):
            with pytest.raises(ValueError):
                gen_queries(d, 2, demand, range(0, 1), philox_generator(0))

    def test_refuses_iterations_outside_the_schedule(self, monkeypatch):
        # S = 7: a run past the end, one wholly beyond it, one before the
        # start and one with a step are each refused before any draw.
        d = derive_scheme(cfg("DBer(2,1,6)", "DBer(2,2,6)"))
        assert d.s_iterations == 7
        assert gen_queries(d, 1, 0, range(6, 7), philox_generator(0)).shape == (1, d.b, 1)
        assert gen_queries(d, 1, 0, range(7, 7), philox_generator(0)).shape == (0, d.b, 1)

        def no_draw(*args):
            raise AssertionError("drew before the range check")

        monkeypatch.setattr(pir, "draw_product", no_draw)
        for iterations in (range(6, 10), range(7, 8), range(-2, 0), range(0, 4, 2)):
            with pytest.raises(IndexError):
                gen_queries(d, 1, 0, iterations, philox_generator(0))

    def test_one_run_equals_single_iterations(self):
        # 3 files of 22 stripes draw 363 32-bit words per iteration, so every
        # other iteration starts on a carried half of a Philox output.
        d = derive_scheme(cfg("DBer(2,1,6)", "DBer(2,2,6)", files=3))
        s = d.s_iterations
        assert s > 1
        rng = philox_generator(17)
        run = query_matrix(d, 3, 2, range(0, s), rng)
        after_run = rng.integers(0, 1 << 32, dtype=np.uint32)
        rng = philox_generator(17)
        single = [query_matrix(d, 3, 2, range(it, it + 1), rng) for it in range(s)]
        assert run.rows == 3 * d.b * s
        assert run.row_words == tuple(w for q in single for w in q.row_words)
        assert rng.integers(0, 1 << 32, dtype=np.uint32) == after_run

    def test_a_run_tabulates_each_group_once_and_multiplies_no_messages(self, monkeypatch):
        # The run's draw goes straight into the four-Russians lookup: the
        # groups of eight generator rows are tabulated once per run, in one
        # stacked call, however many iterations it holds, and no packed
        # message array is multiplied afterwards.
        # 256 files draw one block per iteration.
        d = derive_scheme(cfg("DBer(2,1,6)", "DBer(2,2,6)", files=256))
        k_d = d.retrieval_code.generator.rows
        assert d.s_iterations > 1 and k_d > 8
        built = []
        honest = gf2.span_table

        def counting(rows):
            built.append(rows.shape[:-1])
            return honest(rows)

        def no_product(*args):
            raise AssertionError("limb_product on the query path")

        monkeypatch.setattr(gf2, "span_table", counting)
        monkeypatch.setattr(gf2, "limb_product", no_product)
        gen_queries(d, 256, 2, range(0, d.s_iterations), philox_generator(17))
        assert built == [(-(-k_d // 8), 8)]


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
    the row-at-a-time Python-integer loop of :func:`oracles.loop_retrieval`;
    the queries are regenerated from the documented stream."""

    @pytest.mark.parametrize(
        "storage, retrieval",
        (
            ("DBer(3,0,2)", "DBer(3,1,2)"),  # 9 servers, one limb
            ("DBer(2,1,7)", "DBer(2,2,7)"),  # 128 servers, two limbs
            ("DBer(2,1,8)", "DBer(2,1,8)"),  # 256 servers, four limbs
            ("DBer(2,1,8)", "DBer(2,3,8)"),  # messages of two limbs, queries of four
            ("Ber(3,1,3)", "DBer(3,0,3)"),  # 20 iterations of 7 stripes
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
            assert regenerated_queries(d, 3, seed, demand).row_words == tuple(w for q in queries for w in q)
            assert [r.word for r in transcript.responses] == responses
            assert transcript.recovered_file.row_words == file_words
            assert transcript.stored_file.row_words == file_words
            assert transcript.reconstructed_ok


class TestRespond:
    @given(
        st.integers(0, 3),
        st.integers(0, 20),
        st.integers(0, 70),
        st.integers(0, 2**32 - 1),
    )
    def test_respond_all_matches_per_server_loop(self, queries, rows, n_s, seed):
        from oracles import per_server_responses, random_bits

        rng = np.random.default_rng(seed)
        stored = BitMatrix(rows, n_s, random_bits(rng, rows, n_s))
        run = [BitMatrix(rows, n_s, random_bits(rng, rows, n_s)) for _ in range(queries)]
        limbs = np.array([q.limbs for q in run], dtype=np.uint64).reshape(queries, *stored.limbs.shape)
        assert respond_all(stored, limbs, n_s) == [per_server_responses(stored, q) for q in run]

    def test_respond_all_shape_check(self):
        # Same number of entries, transposed shape: still rejected.
        with pytest.raises(LengthMismatch):
            respond(zeros(3, 2), zeros(2, 3))

    def test_zero_query(self):
        stored = BitMatrix.from_rows([BitVector.from01("1011"), BitVector.from01("0110")], 4)
        assert respond(stored, zeros(2, 4)) == BitVector(4)

    def test_unit_query_reads_a_bit(self):
        stored = BitMatrix.from_rows([BitVector.from01("1011"), BitVector.from01("0110")], 4)
        for r in range(2):
            for i in range(4):
                q = BitMatrix(2, 4, tuple(1 << i if row == r else 0 for row in range(2)))
                expected = BitVector(4, (stored.row_words[r] >> i & 1) << i)
                assert respond(stored, q) == expected

    def test_length_check(self):
        q = zeros(2, 3)
        with pytest.raises(LengthMismatch):
            respond(zeros(5, 3), q)  # rows differ
        with pytest.raises(LengthMismatch):
            respond(zeros(2, 4), q)  # columns differ


class TestDecode:
    def test_zero_storage_recovers_zeros(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2))
        stored = encode_storage(d, zeros(2 * d.b, d.k_c))
        q = gen_queries(d, 2, 0, range(0, 1), philox_generator(3))
        (r,) = respond_all(stored, q, d.n_s)
        assert decode_iteration(d, 0, r) == 0

    def test_recovers_ground_truth(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2, seed=5))
        rng = philox_generator(5)
        library = random_library(d, 2, rng)
        stored = encode_storage(d, library)
        encoded = library @ d.storage_code.generator
        demand = 1
        q = gen_queries(d, 2, demand, range(0, 1), rng)
        (r,) = respond_all(stored, q, d.n_s)
        word = decode_iteration(d, 0, r)
        assert word >> d.b == 0
        for stripe, coord in enumerate(d.schedule.coords[0]):
            assert word >> stripe & 1 == encoded.row_words[d.file_row(demand, stripe)] >> coord & 1

    def test_invariant_under_rerandomization(self):
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)", files=2))
        stored = encode_storage(d, random_library(d, 2, philox_generator(6)))
        recovered = []
        for seed in (100, 200):
            got = []
            for it in range(d.s_iterations):
                q = gen_queries(d, 2, 0, range(it, it + 1), philox_generator(seed + it))
                got.append(decode_iteration(d, it, respond_all(stored, q, d.n_s)[0]))
            recovered.append(got)
        assert recovered[0] == recovered[1]

    @pytest.mark.parametrize("extra", (-1, 1))
    def test_refuses_a_response_of_the_wrong_length(self, extra):
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)"))
        with pytest.raises(LengthMismatch):
            decode_iteration(d, 0, BitVector(d.n_s + extra))

    def test_refuses_an_iteration_outside_the_schedule(self):
        # -1 would otherwise decode with the last iteration's shift.
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)"))
        response = BitVector(d.n_s)
        assert decode_iteration(d, d.s_iterations - 1, response) == 0
        for it in (-1, d.s_iterations):
            with pytest.raises(IndexError):
                decode_iteration(d, it, response)


class TestReconstruct:
    def test_zero_bits_zero_file(self):
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        assert reconstruct_file(d, [0] * d.s_iterations) == zeros(d.b, d.k_c)

    def test_pivot_coordinates_copy_through(self):
        # E^perp = DBer(2,0,3), so the one stripe's offset is the zero tuple,
        # and its coordinates W(C) are the RREF pivots of C = RM(1,3).
        d = derive_scheme(cfg("DBer(2,1,3)", "Ber(2,1,3)"))
        rng = philox_generator(8)
        file0 = BitMatrix(d.b, d.k_c, tuple(int(w) for w in rng.integers(0, 1 << d.k_c, size=d.b)))
        encoded = file0 @ d.storage_code.generator
        pivots = d.storage_code.information_set()
        assert d.b == 1 and stripe_coords(d.schedule, 0) == pivots
        recovered = [encoded.row_words[0] >> coord & 1 for coord in pivots]
        assert reconstruct_file(d, recovered) == file0

    def test_refuses_a_wrong_count_or_a_high_bit(self):
        # S words of b bits each, no fewer, no more, and no bit at or above b.
        d = derive_scheme(cfg("Ber(3,1,2)", "DBer(3,0,2)"))
        s, b = d.s_iterations, d.b
        assert reconstruct_file(d, [(1 << b) - 1] * s).rows == b
        for recovered in ([0] * (s - 1), [0] * (s + 1), [1 << b] + [0] * (s - 1), [0] * (s - 1) + [-1]):
            with pytest.raises(LengthMismatch):
                reconstruct_file(d, recovered)


class TestPrivacyRank:
    def test_repetition_t1(self):
        rep = build(P("DBer(3,0,2)"))
        assert verify_privacy_rank(rep, 1)

    def test_worked_examples(self):
        code = build(P("DBer(3,1,2)"))
        assert verify_privacy_rank(code, 3)
        assert not verify_privacy_rank(code, 4)
        assert verify_privacy_rank(build(P("DBer(2,1,2)")), 3)

    def test_family_route_when_no_enumeration_fits(self):
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
        from oracles import rank

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

    @staticmethod
    def forbid_dual_elimination(monkeypatch):
        def eliminate(*args):
            raise AssertionError("a privacy route eliminated a dual")

        monkeypatch.setattr(LinearCode, "dual", eliminate)
        monkeypatch.setattr(gf2, "nullspace_basis", eliminate)
        monkeypatch.setattr(codes, "nullspace_basis", eliminate)

    def test_built_code_is_decided_from_its_member(self, monkeypatch):
        # The member a code was built as names its dual, so neither route
        # that needs D^perp eliminates it.
        self.forbid_dual_elimination(monkeypatch)
        code = build(P("DBer(2,3,8)"))
        assert pir._privacy_verdict(code, 15) == (True, "family")
        assert pir._privacy_verdict(code, 16) == (False, "family")
        assert pir._privacy_verdict(build(P("Ber(3,1,3)")), 8) == (True, "dual-distance")

    def test_member_whose_dual_fails_the_check_is_refused(self):
        code = build(P("DBer(2,3,8)"))
        # Same dimension, but no longer annihilated by Ber(2,3,8).
        broken = duplicate_column(code)
        assert broken.dimension == code.dimension
        # Annihilated by Ber(2,2,8), which is too large to be the dual.
        mislabelled = LinearCode(code.length, code.generator, P("DBer(2,2,8)"))
        for tagged in (LinearCode(broken.length, broken.generator, code.member), mislabelled):
            with pytest.raises(ProtocolInvariantError, match="is not the dual"):
                pir._privacy_verdict(tagged, 15)

    def test_untagged_code_has_no_family_route(self):
        code = build(P("DBer(2,3,8)"))
        copy = LinearCode(code.length, code.generator)
        assert copy == code and copy.member is None
        with pytest.raises(TooLarge):
            pir._privacy_verdict(copy, 15)

    @pytest.mark.slow
    def test_family_route_at_4096_coordinates(self, monkeypatch):
        # The retrieval code of DBer(2,6,12) x DBer(2,1,12), t = 3: its dual
        # Ber(2,1,12) has 4083 rows and distance 4, and is built, not
        # eliminated.
        self.forbid_dual_elimination(monkeypatch)
        code = build(P("DBer(2,1,12)"))
        assert pir._privacy_verdict(code, 3) == (True, "family")
        assert pir._privacy_verdict(code, 4) == (False, "family")
        # Its storage code's dual Ber(2,6,12) has distance 2^7.
        code = build(P("DBer(2,6,12)"))
        assert pir._privacy_verdict(code, 127) == (True, "family")
        assert pir._privacy_verdict(code, 128) == (False, "family")

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

    @pytest.mark.parametrize("t", (True, 2.0))
    def test_t_that_is_no_integer(self, t):
        with pytest.raises(InvalidInput, match="t must be an integer"):
            verify_privacy_rank(build(P("DBer(2,1,2)")), t)

    def test_numpy_integer_t(self):
        code = build(P("DBer(2,1,2)"))
        assert verify_privacy_rank(code, np.int64(3)) is verify_privacy_rank(code, 3)
        with pytest.raises(InvalidInput, match="t must lie in 0..4, got 5"):
            verify_privacy_rank(code, np.int64(5))

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

    def test_intermediate_distance(self):
        # t = 3 of the 4 servers see the demanded row's embedded bit through
        # a 1-dimensional retrieval code.
        assert verify_privacy_empirical(cfg("Ber(2,0,2)", "DBer(2,0,2)"), 3) == 0.75

    @pytest.mark.parametrize(
        "storage, retrieval, files, t",
        [
            ("Ber(2,0,2)", "DBer(2,0,2)", 1, 3),
            ("Ber(2,0,2)", "DBer(2,0,2)", 2, 0),
            ("DBer(2,1,2)", "DBer(2,0,2)", 3, 2),
            ("Ber(2,0,3)", "DBer(2,0,3)", 1, 4),
            ("Ber(2,1,3)", "DBer(2,1,3)", 1, 4),
            ("Ber(2,1,3)", "DBer(2,1,3)", 2, 2),
            ("DBer(3,0,2)", "Ber(3,1,2)", 1, 3),
            ("DBer(3,0,2)", "DBer(3,1,2)", 2, 3),
            ("DBer(3,0,2)", "DBer(3,1,2)", 2, 4),
            ("Ber(3,1,2)", "DBer(3,0,2)", 3, 4),
            ("DBer(2,1,4)", "DBer(2,1,4)", 1, 4),
        ],
    )
    def test_matches_the_packed_message_loop(self, storage, retrieval, files, t):
        from oracles import packed_message_privacy

        config = cfg(storage, retrieval, files=files)
        assert verify_privacy_empirical(config, t) == packed_message_privacy(config, t)

    def test_query_randomness_guard(self, monkeypatch):
        # dim DBer(2,2,4) = 11, so two files take 22 > 20 random bits; the
        # guard refuses before anything is derived or enumerated.
        def derive(config):
            raise AssertionError("derived past the query randomness guard")

        monkeypatch.setattr(pir, "derive_scheme", derive)
        with pytest.raises(TooLarge, match="query randomness"):
            verify_privacy_empirical(cfg("DBer(2,0,4)", "DBer(2,2,4)", files=2), 1)

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

    @pytest.mark.parametrize("t", (True, 2.0))
    def test_t_that_is_no_integer(self, t):
        with pytest.raises(InvalidInput, match="t must be an integer"):
            verify_privacy_empirical(cfg("DBer(2,0,2)", "DBer(2,1,2)"), t)

    def test_numpy_integer_t(self):
        config = cfg("DBer(2,0,2)", "DBer(2,1,2)")
        assert verify_privacy_empirical(config, np.int64(3)) == verify_privacy_empirical(config, 3)

    def test_zero_rate_pair(self):
        with pytest.raises(ZeroRate):
            verify_privacy_empirical(cfg("DBer(3,1,2)", "DBer(3,1,2)"), 1)


class TestRunRetrieval:
    def test_worked_example(self):
        transcript = run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2, seed=1), 0)
        assert transcript.reconstructed_ok
        assert transcript.achieved_rate == Fraction(4, 9)
        assert transcript.downloaded_bits == 9

    def test_stored_file_keeps_no_library_alive(self):
        # The demanded file's rows are copied out of the M-file library, so
        # a kept transcript does not hold the other files' bits.
        transcript = run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2, seed=1), 1)
        assert transcript.stored_file.limbs.base is None
        assert transcript.reconstructed_ok

    def test_single_file_is_legal(self):
        transcript = run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=1, seed=2), 0)
        assert transcript.reconstructed_ok
        retrieval = build(P("DBer(3,1,2)"))
        d = derive_scheme(cfg("DBer(3,0,2)", "DBer(3,1,2)"))
        queries = regenerated_queries(d, 1, 2, 0).row_words
        for it in range(d.s_iterations):
            # Queries still carry the random retrieval-code part.
            planted = planted_words(d, it, 1, 0)
            assert sum(w.bit_count() for w in planted) == d.d_perp
            for word, embed in zip(queries[it * d.b : (it + 1) * d.b], planted):
                assert retrieval.contains(BitVector(d.n_s, word ^ embed))

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

    def test_iter_json_encodes_one_iteration_at_a_time(self):
        # The head comes out before any response is encoded, and each later
        # piece encodes one more; the pieces join to the one-shot encoding.
        transcript = run_retrieval(cfg("DBer(2,1,3)", "DBer(2,1,3)", files=2, seed=9), 1)
        encoded = []

        class Spy:
            def __init__(self, response):
                self.response = response

            def to_hex(self):
                encoded.append(self.response)
                return self.response.to_hex()

        spied = dataclasses.replace(transcript, responses=tuple(map(Spy, transcript.responses)))
        pieces, seen = [], []
        for piece in spied.iter_json():
            pieces.append(piece)
            seen.append(len(encoded))
        s = transcript.s_iterations
        assert seen == [*range(s + 1), s]
        whole = json.JSONEncoder(indent=2, sort_keys=True).encode(json.loads(transcript.to_json())) + "\n"
        assert "".join(pieces) == transcript.to_json() == whole

    def test_response_residue_checked(self):
        # Every run exercises the in-simulator response-algebra check.
        run_retrieval(cfg("DBer(3,0,3)", "Ber(3,1,3)", files=2, seed=11), 1)

    @pytest.mark.parametrize(
        "storage, retrieval, files, seed, demand, digest",
        (
            ("DBer(2,1,6)", "DBer(2,2,6)", 256, 0, 0,
             "593ef51f6aa804d996a66134f3a3b0693926a9b4c2c0aabc22b3a0807e65e399"),
            ("DBer(2,0,8)", "DBer(2,1,8)", 2, 7, 1,
             "7e443470b5faa47514e47ddc11e32f357c8bc5ef70868a621800853c97c3506c"),
            ("Ber(3,1,3)", "DBer(3,0,3)", 3, 11, 2,
             "fbed38cee8ea0c96c765fb7be0bc5a2f2c00f84fe219e84d1ccab91b54619b90"),
            # 5 files of 39 32-bit words each: the first query draw starts
            # on the second half of a 64-bit Philox output.
            ("DBer(2,1,6)", "DBer(2,2,6)", 5, 2**63 + 12345, 3,
             "49f53be87a428fb7f3267b8507be410b9f02795aa5063afcffeffc1188588266"),
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
        runs, answered = [], []
        honest_queries, honest_respond = pir.gen_queries, pir.respond_all

        def recording(derived, files, demand, iterations, rng):
            runs.append(len(iterations))
            return honest_queries(derived, files, demand, iterations, rng)

        def answering(stored, queries, cols):
            answered.append(len(queries))
            return honest_respond(stored, queries, cols)

        monkeypatch.setattr(pir, "gen_queries", recording)
        monkeypatch.setattr(pir, "respond_all", answering)
        whole = run_retrieval(config, 3)
        assert runs == answered == [d.s_iterations] == [7]
        runs.clear()
        answered.clear()
        monkeypatch.setattr(pir, "MAX_BATCH_BITS", 2 * pir._query_bits(d, 5))
        split = run_retrieval(config, 3)
        assert runs == answered == [2, 2, 2, 1]
        assert split.to_json() == whole.to_json()

    def test_retrieval_holds_one_run_of_queries(self):
        # 40 files of 1486 stripes on 2048 servers: each of the 67 queries
        # takes 15 MB, one run under the batch guard, and keeping them all
        # would take a gigabyte.  The peak is the child's own.
        proc, peak_kb = simulate_with_peak(
            "--storage", "DBer(2,2,11)", "--retrieval", "DBer(2,2,11)", "--files", "40", "--demand", "39",
            "--format", "csv",
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        (summary,) = csv.DictReader(proc.stdout.splitlines())
        assert summary["reconstructed_ok"] == "True"
        assert peak_kb < 300 << 10

    @pytest.mark.slow
    def test_largest_schedule_table_within_a_memory_bound(self):
        # S = 1586 iterations of b = 2510 stripes on 4096 servers: the
        # schedule and the stripe readout are int32 tables built one tuple
        # component at a time.  A table of whole digit tuples peaked at
        # 782 MB; this one peaks near 230 MB.
        proc, peak_kb = simulate_with_peak(
            "--storage", "DBer(2,5,12)", "--retrieval", "DBer(2,0,12)", "--files", "1", "--format", "csv"
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout == (
            "storage,retrieval,files,seed,demand,servers,t,b,S,reconstructed_ok,achieved_rate,theoretical_rate,"
            "privacy_rank_ok\n"
            '"DBer(2,5,12)","DBer(2,0,12)",1,0,0,4096,1,2510,1586,True,0.613,0.613,True\n'
        )
        assert peak_kb < 350 << 10

    @pytest.mark.slow
    def test_largest_json_transcript_streams_within_a_memory_bound(self, tmp_path):
        # The 261 MB JSON transcript of the largest schedule is written an
        # iteration at a time.  Building every iteration's lists before the
        # first byte peaked at 673 MB.
        out = tmp_path / "transcript.json"
        proc, peak_kb = simulate_with_peak(
            "--storage", "DBer(2,5,12)", "--retrieval", "DBer(2,0,12)", "--format", "json", "--out", str(out)
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["reconstructed_ok"] is True
        digest = hashlib.sha256()
        with out.open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        assert (out.stat().st_size, digest.hexdigest()) == (260_883_049, LARGEST_TRANSCRIPT_SHA256)
        assert peak_kb < 400 << 10

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor page faults")
    def test_warm_retrievals_take_no_page_faults(self):
        # Each run is folded in place.  A second run-sized array would double
        # the run's transient heap, and glibc would then return and refault
        # it on every op: about 120 minor faults per op instead of none.
        proc = subprocess.run(
            [sys.executable, "-c", WARM_RETRIEVAL_FAULTS], capture_output=True, text=True, env=child_env(), timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 200 < 5

    def test_oversized_library_is_refused_before_any_draw(self, monkeypatch):
        config = cfg("DBer(2,1,3)", "DBer(2,1,3)", files=10**12)
        d = derive_scheme(config)  # derivation is cached per pair, so warm it first

        def no_draw(*args):
            raise AssertionError("drew before the size guard")

        monkeypatch.setattr(pir, "philox_generator", no_draw)
        monkeypatch.setattr(pir, "draw_bit_limbs", no_draw)
        monkeypatch.setattr(pir, "draw_product", no_draw)
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
            ("decode_iteration", lambda word: word ^ 1, "recovered bit"),
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

    def test_wide_retrieval_names_the_first_wrong_stripe_and_its_coordinate(self, monkeypatch):
        # Bit 3 of iteration 2's decoded word is wrong, so the check names
        # iteration 2, stripe 3 and the coordinate stripe 3 was read at.
        config = cfg("DBer(2,1,6)", "DBer(2,2,6)", files=256, seed=3)
        coords = derive_scheme(config).schedule.coords
        honest = pir.decode_iteration

        def flip(derived, iteration, response):
            return honest(derived, iteration, response) ^ (1 << 3 if iteration == 2 else 0)

        monkeypatch.setattr(pir, "decode_iteration", flip)
        with pytest.raises(ProtocolInvariantError) as info:
            run_retrieval(config, 5)
        assert str(info.value) == f"iteration 2: recovered bit of stripe 3 at coordinate {coords[2, 3]} is wrong"

    def test_a_short_rebuilt_file_fails_the_rate_check(self, monkeypatch):
        # The achieved rate is read off what the retrieval produced, so a
        # rebuilt file one row short strays from the derived rate.
        honest = pir.reconstruct_file

        def short(derived, recovered):
            rebuilt = honest(derived, recovered)
            return BitMatrix(rebuilt.rows - 1, rebuilt.cols, rebuilt.row_words[:-1])

        monkeypatch.setattr(pir, "reconstruct_file", short)
        with pytest.raises(ProtocolInvariantError, match="achieved rate"):
            run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2), 1)

    def test_zero_rate_propagates(self):
        with pytest.raises(ZeroRate):
            run_retrieval(cfg("DBer(3,1,2)", "DBer(3,1,2)"), 0)

    def test_demand_range(self):
        with pytest.raises(ValueError):
            run_retrieval(cfg("DBer(3,0,2)", "DBer(3,1,2)", files=2), 2)


def flip_first_response_bit(monkeypatch):
    """Make every server response vector arrive with coordinate 0 flipped:
    :func:`respond_all`, which answers each run, flips it in every response."""
    honest = pir.respond_all

    def flipped(stored, queries, cols):
        return [BitVector(r.length, r.word ^ 1) for r in honest(stored, queries, cols)]

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

FLIPPED_DECODE_SIMULATE = """
import sys
from bermanpir import cli, pir
if not sys.flags.optimize:
    sys.exit("expected python -O")
honest = pir.decode_iteration
pir.decode_iteration = lambda *args: honest(*args) ^ 1
sys.exit(cli.main(sys.argv[1:]))
"""

CLEAN_SIMULATE = "import sys; from bermanpir import cli; sys.exit(cli.main(sys.argv[1:]))"

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
        """``script`` in a fresh ``python -O`` with the repo, its tests and
        ``src`` importable."""
        root = Path(__file__).resolve().parent.parent
        return subprocess.run(
            [sys.executable, "-O", "-c", script, *args],
            capture_output=True, text=True, env=child_env(root, root / "tests"), cwd=root, timeout=300,
        )

    def test_checks_survive_python_O(self):
        # A flipped response bit and a corrupted dimension formula (caught by
        # the `build` rank check) must both still fail under `python -O`.
        for script in (FLIPPED_SIMULATE, CORRUPTED_DIMENSION_SIMULATE):
            proc = self.run_optimized(script, *self.ARGS)
            assert proc.returncode == cli.EXIT_VERIFY_FAILED, proc.stderr
            assert proc.stdout == ""
            assert json.loads(proc.stderr)["error"] == "ProtocolInvariantError"

    def test_decoded_word_check_survives_python_O(self):
        # A decoded word with bit 0 flipped fails iteration 0's recovered-bit
        # check with asserts stripped; a clean run prints the same bytes
        # with and without -O.
        proc = self.run_optimized(FLIPPED_DECODE_SIMULATE, *self.ARGS)
        assert proc.returncode == cli.EXIT_VERIFY_FAILED, proc.stderr
        assert proc.stdout == ""
        error = json.loads(proc.stderr)
        assert error["error"] == "ProtocolInvariantError"
        assert error["message"].startswith("iteration 0: recovered bit of stripe 0 ")
        args = [*self.ARGS, "--format", "json"]
        optimized = self.run_optimized(CLEAN_SIMULATE, *args)
        plain = subprocess.run(
            [sys.executable, "-c", CLEAN_SIMULATE, *args], capture_output=True, text=True, env=child_env(), timeout=300
        )
        assert optimized.returncode == plain.returncode == cli.EXIT_OK, optimized.stderr + plain.stderr
        assert optimized.stdout == plain.stdout != ""

    def test_run_retrieval_raises_under_python_O(self):
        # The library call itself, not only the CLI, keeps its response check
        # when asserts are stripped.
        proc = self.run_optimized(FLIPPED_RUN_RETRIEVAL)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ProtocolInvariantError\n"

    @staticmethod
    def flipped_row(words, row, coord):
        """``words`` with bit ``coord`` of word ``row`` flipped."""
        return tuple(w ^ (1 << coord if i == row else 0) for i, w in enumerate(words))

    @pytest.mark.parametrize(
        "corrupt, message",
        (
            # One product row fewer than the case table gives.
            ("star_codes", "product dimension disagrees"),
            # A bit of H' off its weight set: H' no longer annihilates E.
            ("parity", "does not annihilate"),
            # I_0, then J_0, moved to the first coordinates: M_C, then M_E, is
            # not its own inverse.
            ("iteration set", "storage basis on its weight set is not its own inverse"),
            ("stripe set", "syndrome basis on its weight set is not its own inverse"),
        ),
    )
    def test_derivation_checks_refuse_a_broken_pair(self, corrupt, message, monkeypatch, capsys):
        storage, retrieval = P("Ber(3,1,2)"), P("DBer(3,0,2)")
        perp = pir.predict_star(storage, retrieval).dual
        if corrupt == "star_codes":
            real_star = pir.star_codes

            def star(c, d):
                e = real_star(c, d)
                return LinearCode(e.length, BitMatrix(e.dimension - 1, e.length, e.generator.row_words[1:]))

            monkeypatch.setattr(pir, "star_codes", star)
        elif corrupt == "parity":
            real_basis = pir.basis
            outside = min(set(range(9)) - set(real_basis(perp)[0]))
            def basis(p):
                coords, words = real_basis(p)
                return (coords, self.flipped_row(words, 0, outside)) if p == perp else (coords, words)

            monkeypatch.setattr(pir, "basis", basis)
        else:
            real_basis = pir.basis
            moved = storage if corrupt == "iteration set" else perp
            def first_coordinates(p):
                coords, words = real_basis(p)
                return (tuple(range(len(coords))) if p == moved else coords), words

            monkeypatch.setattr(pir, "basis", first_coordinates)

        def no_privacy_check(*args):
            raise AssertionError("privacy check ran before derivation")

        monkeypatch.setattr(cli, "verify_privacy_rank", no_privacy_check)
        pir._derive.cache_clear()
        try:
            with pytest.raises(ProtocolInvariantError, match=message):
                derive_scheme(SchemeConfig(storage, retrieval))
            argv = ["simulate", "--storage", storage.name, "--retrieval", retrieval.name]
            assert cli.main(argv) == cli.EXIT_VERIFY_FAILED
        finally:
            pir._derive.cache_clear()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ProtocolInvariantError"
