"""LinearCode behaviour: spans, duals, distances, projections, information
sets, and the serialization format."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bermanpir.berman import BermanParams, CodeKind, all_tuples, build, c_vector, min_distance_formula, tuple_weight
from bermanpir.codes import MAX_BRUTE_FORCE_DIM, LinearCode, TooLarge, ZeroCode
from bermanpir.gf2 import BitMatrix, BitVector, bits_to_limbs, invert_columns, limbs_to_words
from oracles import code_to_text, exhaustive_span, project_columns


def small_family(n_max=4, m_max=3):
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            for kind in (CodeKind.BERMAN, CodeKind.DUAL_BERMAN):
                for r in range(m + 1):
                    yield BermanParams(kind, n, m, r)


class TestFromSpanningSet:
    def test_empty_is_zero_code(self):
        code = LinearCode.from_spanning_set(4, [])
        assert code.dimension == 0
        assert code.contains(BitVector(4))
        assert not code.contains(BitVector(4, (1 << 4) - 1))

    def test_repetition(self):
        code = LinearCode.from_spanning_set(4, [BitVector(4, (1 << 4) - 1)])
        assert code.dimension == 1

    def test_weight_filtered_indicators(self):
        rows = [c_vector(3, 2, t) for t in all_tuples(3, 2) if 1 <= tuple_weight(t) <= 2]
        code = LinearCode.from_spanning_set(9, rows)
        assert code.dimension == 8
        # The span really is the span: compare against direct enumeration.
        got = exhaustive_span(9, [code.generator.row(i) for i in range(8)])
        want = exhaustive_span(9, rows)
        assert got == want


class TestContains:
    def test_zero_vector_everywhere(self):
        for params in small_family(3, 2):
            assert build(params).contains(BitVector(params.length))

    def test_repetition_member(self):
        assert build(BermanParams.parse("DBer(3,0,2)")).contains(BitVector(9, (1 << 9) - 1))

    def test_odd_weight_rejected(self):
        code = build(BermanParams.parse("Ber(3,0,2)"))
        v = BitVector(9, 1)
        assert not code.contains(v)
        # Exhaustive span oracle at length 9.
        words = exhaustive_span(9, [code.generator.row(i) for i in range(code.dimension)])
        assert v.word not in words


class TestDual:
    def test_full_space_dual_is_zero(self):
        assert LinearCode.full(5).dual() == LinearCode.zero(5)
        assert LinearCode.zero(5).dual() == LinearCode.full(5)

    def test_family_duality_example(self):
        assert build(BermanParams.parse("Ber(3,1,2)")).dual() == build(BermanParams.parse("DBer(3,1,2)"))

    def test_involution_on_random_codes(self):
        from bermanpir.pir import philox_generator

        rng = philox_generator(11)
        for _ in range(20):
            words = tuple(int(w) for w in rng.integers(0, 1 << 7, size=3, dtype=int))
            code = LinearCode.from_generator(BitMatrix(3, 7, words))
            assert code.dual().dual() == code


class TestEqual:
    def test_reflexive(self):
        code = build(BermanParams.parse("DBer(2,1,3)"))
        assert code == code

    def test_span_is_order_free(self):
        from bermanpir.berman import basis_vectors

        params = BermanParams.parse("DBer(2,1,3)")
        shuffled = list(reversed(basis_vectors(params)))
        assert LinearCode.from_spanning_set(8, shuffled) == build(params)

    def test_distinct_dimensions_differ(self):
        assert build(BermanParams.parse("Ber(3,0,2)")) != build(BermanParams.parse("DBer(3,0,2)"))


def gray_code_distance(code):
    """Minimum weight by walking every nonzero codeword in Gray-code order."""
    rows = code.generator.row_words
    cw = 0
    best = code.length + 1
    for g in range(1, 1 << code.dimension):
        cw ^= rows[(g & -g).bit_length() - 1]
        best = min(best, cw.bit_count())
    return best


def random_code(length, dim, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(min(dim, length), length), dtype=np.uint8)
    generator = limbs_to_words(bits_to_limbs(bits))
    return LinearCode.from_generator(BitMatrix(len(generator), length, generator))


class TestMinDistance:
    def test_repetition(self):
        assert LinearCode.from_spanning_set(9, [BitVector(9, (1 << 9) - 1)]).min_distance_bruteforce() == 9

    def test_family_examples(self):
        assert build(BermanParams.parse("Ber(3,1,2)")).min_distance_bruteforce() == 4
        assert build(BermanParams.parse("DBer(3,1,2)")).min_distance_bruteforce() == 3

    @settings(max_examples=40)
    @given(st.integers(1, 200), st.integers(1, 18), st.integers(0, 2**32 - 1))
    @example(1, 1, 0)
    @example(64, 14, 1)
    @example(65, 15, 2)
    @example(128, 18, 3)
    @example(129, 18, 4)
    @example(200, 18, 5)
    def test_matches_plain_gray_code_loop(self, length, dim, seed):
        code = random_code(length, dim, seed)
        if code.dimension == 0:
            return
        assert code.min_distance_bruteforce() == gray_code_distance(code)

    @settings(max_examples=60)
    @given(st.integers(1, 30), st.integers(1, 16), st.integers(0, 2**32 - 1))
    @example(16, 16, 0)
    @example(30, 15, 1)  # k = n/2 is weighed directly
    @example(30, 16, 2)  # k = n/2 + 1 goes through the dual
    @example(17, 16, 3)
    def test_macwilliams_side_matches_plain_gray_code_loop(self, length, dim, seed):
        # Dimensions on both sides of n/2, at most 2^16 codewords for the
        # loop; above n/2 the distance comes from the dual's weight histogram.
        code = random_code(length, dim, seed)
        if code.dimension == 0:
            return
        assert code.min_distance_bruteforce() == gray_code_distance(code)

    def test_dual_side_with_a_zero_column(self):
        # Coordinate 0 is zero on every codeword, so the dual has a word of weight 1.
        code = LinearCode.from_generator(BitMatrix(3, 5, (0b00110, 0b01010, 0b10010)))
        assert code.dimension == 3
        assert code.min_distance_bruteforce() == gray_code_distance(code) == 2

    def test_at_the_guard_dimension(self):
        params = BermanParams.parse("Ber(5,0,2)")
        code = build(params)
        assert code.dimension == MAX_BRUTE_FORCE_DIM
        assert code.min_distance_bruteforce() == min_distance_formula(params) == 2

    def test_guards(self):
        with pytest.raises(ZeroCode):
            LinearCode.zero(4).min_distance_bruteforce()
        # A dimension past the guard is searched from the smaller dual side.
        assert LinearCode.full(25).min_distance_bruteforce() == 1
        # DBer(2,2,7) is a [128, 29] code with a 99-dimensional dual.
        code = build(BermanParams.parse("DBer(2,2,7)"))
        assert min(code.dimension, code.length - code.dimension) > MAX_BRUTE_FORCE_DIM
        with pytest.raises(TooLarge):
            code.min_distance_bruteforce()


class TestInformationSet:
    def test_identity_generator(self):
        assert LinearCode.full(4).information_set() == (0, 1, 2, 3)

    def test_repetition(self):
        assert LinearCode.from_spanning_set(9, [BitVector(9, (1 << 9) - 1)]).information_set() == (0,)

    def test_invertibility(self):
        code = build(BermanParams.parse("DBer(3,1,2)"))
        cols = code.information_set()
        assert len(cols) == 5
        sub_inv = invert_columns(code.generator, cols)
        assert code.generator.take_columns(cols) @ sub_inv == BitMatrix.identity(5)

    def test_zero_code(self):
        with pytest.raises(ZeroCode):
            LinearCode.zero(3).information_set()


class TestProjectColumns:
    def test_full_space(self):
        assert project_columns(LinearCode.full(6), {1, 3, 5}) == LinearCode.full(3)

    def test_repetition(self):
        rep9 = LinearCode.from_spanning_set(9, [BitVector(9, (1 << 9) - 1)])
        assert project_columns(rep9, {0, 4, 8}) == LinearCode.from_spanning_set(3, [BitVector(3, (1 << 3) - 1)])

    def test_every_triple_projection_is_onto(self):
        # Equivalent to the dual distance being 4: all 3-column selections
        # of DBer(3,1,2) have full rank.
        from itertools import combinations

        code = build(BermanParams.parse("DBer(3,1,2)"))
        for cols in combinations(range(9), 3):
            assert project_columns(code, cols) == LinearCode.full(3)

    def test_privacy_criterion_matches_dual_distance(self):
        from itertools import combinations

        for name in ("DBer(2,1,2)", "DBer(3,1,2)", "DBer(2,1,3)"):
            code = build(BermanParams.parse(name))
            limit = code.dual().min_distance_bruteforce() - 1
            for t in range(1, limit + 1):
                assert all(
                    project_columns(code, cols) == LinearCode.full(t)
                    for cols in combinations(range(code.length), t)
                )
            assert any(
                project_columns(code, cols) != LinearCode.full(limit + 1)
                for cols in combinations(range(code.length), limit + 1)
            )


class TestStructuralInvariants:
    def test_dimension_split_and_orthogonality(self):
        for params in small_family(3, 3):
            code = build(params)
            dual = code.dual()
            assert code.dimension + dual.dimension == code.length
            product = code.generator @ dual.generator.transpose()
            assert all(w == 0 for w in product.row_words)


class TestSerialization:
    def test_golden_fixture(self):
        from pathlib import Path

        fixture = Path(__file__).parent / "golden" / "dber_3_1_2.code.txt"
        assert code_to_text(build(BermanParams.parse("DBer(3,1,2)"))) == fixture.read_text()
