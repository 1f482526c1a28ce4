"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them all).

Every tolerance is exact except the stated Monte Carlo noise bound; every
runtime budget is asserted against the wall clock.
"""

import functools
import time
from fractions import Fraction

from bermanpir.berman import (
    BermanParams,
    CodeKind,
    basis,
    build,
    dimension_formula,
    min_distance_formula,
    reed_muller_code,
)
from bermanpir.cli import build_tables, render_tables_csv
from bermanpir.codes import MAX_BRUTE_FORCE_DIM
from bermanpir.gf2 import BitMatrix
from bermanpir.pir import (
    SchemeConfig,
    derive_scheme,
    run_retrieval,
    verify_privacy_empirical,
    verify_privacy_rank,
)
from bermanpir.star import star_codes, star_pairs, verify_star_case
from oracles import (
    all_tuples,
    berman_basis_identity,
    disjoint_support_product,
    rank,
    staged_mixed_products,
    staged_parity_products,
    tuple_weight,
)
from test_cli import GOLDEN, PUBLISHED_CELLS

P = BermanParams.parse

RETRIEVAL_PAIRS = (
    ("DBer(3,0,2)", "DBer(3,1,2)"),
    ("DBer(2,1,3)", "DBer(2,1,3)"),
    ("Ber(3,1,2)", "DBer(3,0,2)"),
    ("DBer(3,0,3)", "Ber(3,1,3)"),
)


def criterion(name, budget_seconds):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget_seconds}s)")
            assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"

        return wrapper

    return deco


def sweep_params(n_max=4, m_max=3):
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            for kind in (CodeKind.BERMAN, CodeKind.DUAL_BERMAN):
                for r in range(m + 1):
                    yield BermanParams(kind, n, m, r)


@criterion("1 table reproduction", 1)
def test_criterion_1_tables():
    tables = build_tables()
    for table in tables:
        expected = PUBLISHED_CELLS[table["pairing"]]
        for row in table["rows"]:
            assert row["cells"] == expected[row["pair"]], (table["pairing"], row["pair"])
    assert render_tables_csv(tables) == (GOLDEN / "tables.csv").read_text()


@criterion("2 closed forms vs brute force", 120)
def test_criterion_2_closed_forms():
    for params in sweep_params():
        words = basis(params)[1]
        got_rank = rank(BitMatrix(len(words), params.length, words)) if words else 0
        assert got_rank == dimension_formula(params), params.name
        if params.is_zero_code:
            continue
        if dimension_formula(params) <= MAX_BRUTE_FORCE_DIM:
            assert build(params).min_distance_bruteforce() == min_distance_formula(params), params.name


@criterion("3 duality and containment", 30)
def test_criterion_3_duality_containment():
    for params in sweep_params():
        if params.kind is CodeKind.BERMAN:
            assert build(params).dual() == build(params.dual), params.name
        if params.r >= 1:
            if params.kind is CodeKind.BERMAN:
                inner = build(params)
                outer = build(BermanParams(params.kind, params.n, params.m, params.r - 1))
            else:
                inner = build(BermanParams(params.kind, params.n, params.m, params.r - 1))
                outer = build(params)
            assert all(
                outer.contains(inner.generator.row(i)) for i in range(inner.dimension)
            ), params.name


@criterion("4 star-product case sweep", 120)
def test_criterion_4_star_case_sweep():
    results = [verify_star_case(p, q) for p, q in star_pairs(4, 3)]
    assert results
    for res in results:
        assert res.verified, f"{res.left.name} * {res.right.name}"
    # n = 2 members coincide with the independently built Reed-Muller codes.
    for m in (1, 2, 3):
        for r in range(m + 1):
            assert build(BermanParams(CodeKind.DUAL_BERMAN, 2, m, r)) == reed_muller_code(r, m)
            assert build(BermanParams(CodeKind.BERMAN, 2, m, r)) == reed_muller_code(m - r - 1, m)


@criterion("5 constructive proof oracles", 30)
def test_criterion_5_constructive_oracles():
    for n in (2, 3):
        for m in (1, 2, 3):
            for j1 in all_tuples(n, m):
                for j2 in all_tuples(n, m):
                    if not any(a and b for a, b in zip(j1, j2)):
                        disjoint_support_product(n, m, j1, j2)
            for j in all_tuples(n, m):
                for k in all_tuples(n, m):
                    if tuple_weight(k) == 1 and all(a == 0 or a == b for a, b in zip(k, j)):
                        berman_basis_identity(n, m, j, k)
    assert len(staged_parity_products(3, 2)) == 9
    assert len(staged_mixed_products(3, 2, 1)) == 9


@criterion("6 end-to-end retrieval", 300)
def test_criterion_6_end_to_end():
    for storage, retrieval in RETRIEVAL_PAIRS:
        product = star_codes(build(P(storage)), build(P(retrieval)))
        exact_rate = Fraction(product.length - product.dimension, product.length)
        probe = derive_scheme(SchemeConfig(P(storage), P(retrieval), files=2, seed=0))
        assert probe.s_iterations == probe.b * probe.k_c // probe.d_perp  # minimal S
        assert len(probe.schedule.coords) == probe.s_iterations
        for seed in range(100):
            config = SchemeConfig(P(storage), P(retrieval), files=2, seed=seed)
            transcript = run_retrieval(config, demand=seed % 2)
            assert transcript.reconstructed_ok, (storage, retrieval, seed)
            assert transcript.recovered_file == transcript.stored_file
            assert transcript.achieved_rate == exact_rate, (storage, retrieval, seed)


@criterion("7 structural privacy", 300)
def test_criterion_7_structural_privacy():
    for storage, retrieval in RETRIEVAL_PAIRS:
        derived = derive_scheme(SchemeConfig(P(storage), P(retrieval)))
        assert verify_privacy_rank(derived.retrieval_code, derived.t), (storage, retrieval)
    # Negative control: one collusion level above the guarantee fails.
    assert not verify_privacy_rank(build(P("DBer(3,1,2)")), 4)


@criterion("8 exact query distribution", 60)
def test_criterion_8_exact_privacy():
    config = SchemeConfig(P("DBer(3,0,2)"), P("DBer(3,1,2)"), files=1, seed=0)
    assert verify_privacy_empirical(config, 3) == 0.0


@criterion("9 determinism", 10)
def test_criterion_9_determinism():
    config = SchemeConfig(P("DBer(3,0,2)"), P("DBer(3,1,2)"), files=2, seed=1)
    first = run_retrieval(config, demand=0).to_json().encode()
    second = run_retrieval(config, demand=0).to_json().encode()
    assert first == second
