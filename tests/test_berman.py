"""Family constructions: index conventions, basis vectors, the recursion,
the closed forms, and the structural properties they must satisfy."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bermanpir import berman
from bermanpir.berman import (
    MAX_LENGTH,
    BermanParams,
    CodeKind,
    all_tuples,
    basis_span,
    basis_vectors,
    build,
    c_vector,
    check_digits,
    d_vector,
    dimension_formula,
    families,
    index_to_tuple,
    length_beyond,
    min_distance_formula,
    recursive_membership,
    reed_muller_code,
    transitivity_witness,
    translate,
    tuple_weight,
    weight_set,
)
from bermanpir.codes import LinearCode, ProtocolInvariantError, TooLarge
from bermanpir.gf2 import BitMatrix, BitVector, LengthMismatch
from bermanpir.pir import philox_generator
from oracles import (
    dimension_by_binomials,
    loop_c_vector,
    loop_d_vector,
    per_bit_translation,
    pointwise_reed_muller,
    precedes,
    rank,
    recursion_distance,
    tuple_to_index,
)


def family(n, m):
    for kind in (CodeKind.BERMAN, CodeKind.DUAL_BERMAN):
        for r in range(m + 1):
            yield BermanParams(kind, n, m, r)


#: Every (n, m) with n >= 2 and n^m within the length guard.
SHAPES_UP_TO_GUARD = tuple(
    (n, m) for m in range(1, MAX_LENGTH.bit_length()) for n in range(2, MAX_LENGTH + 1) if n**m <= MAX_LENGTH
)


class TestParams:
    def test_name_round_trip(self):
        for text in ("Ber(3,0,2)", "DBer(2,1,5)", "Ber(6,2,2)"):
            assert BermanParams.parse(text).name == text

    def test_parse_rejects_noise(self):
        for text in ("Ber(3,0)", "Foo(2,1,1)", "Ber(1,0,1)", "DBer(2,3,2)", "ber(2,1,2)"):
            with pytest.raises(ValueError):
                BermanParams.parse(text)

    def test_extreme_members(self):
        assert BermanParams.parse("Ber(3,2,2)").is_zero_code
        assert BermanParams.parse("DBer(3,2,2)").is_full_space
        assert BermanParams.parse("Ber(3,1,2)").dual == BermanParams.parse("DBer(3,1,2)")


class TestIndexing:
    def test_zero_tuple(self):
        assert tuple_to_index(4, (0, 0, 0)) == 0

    def test_worked_examples(self):
        assert tuple_to_index(3, (1, 2)) == 5
        assert tuple_to_index(2, (1, 0, 1)) == 5

    def test_round_trip_exhaustive(self):
        for n, m in ((3, 2), (2, 3), (4, 2)):
            for idx in range(n**m):
                assert tuple_to_index(n, index_to_tuple(n, m, idx)) == idx
            for pos, t in enumerate(all_tuples(n, m)):
                assert tuple_to_index(n, t) == pos

    def test_first_component_selects_block(self):
        # Block l of the n-way concatenation is exactly {tuples with t[0] = l}.
        n, m = 3, 2
        for t in all_tuples(n, m):
            idx = tuple_to_index(n, t)
            assert idx // n ** (m - 1) == t[0]


class TestPartialOrder:
    def test_zero_below_everything(self):
        for t in all_tuples(3, 2):
            assert precedes((0, 0), t)

    def test_worked_examples(self):
        assert precedes((0, 2), (1, 2))
        assert not precedes((2, 2), (1, 2))

    def test_arity_check(self):
        with pytest.raises(LengthMismatch):
            precedes((0,), (0, 0))


class TestBasisVectors:
    def test_c_at_zero_is_first_unit(self):
        assert c_vector(3, 2, (0, 0)) == BitVector(9, 1 << 0)

    def test_c_worked_example(self):
        assert c_vector(3, 2, (1, 2)).to01() == "101101000"

    def test_c_weight_law(self):
        for t in all_tuples(3, 2):
            assert c_vector(3, 2, t).word.bit_count() == 2 ** tuple_weight(t)

    def test_d_at_zero_is_all_ones(self):
        assert d_vector(3, 2, (0, 0)) == BitVector(9, (1 << 9) - 1)

    def test_d_worked_example(self):
        assert d_vector(3, 2, (1, 0)).to01() == "000111000"

    def test_d_weight_law(self):
        for t in all_tuples(2, 3):
            assert d_vector(2, 3, t).word.bit_count() == 2 ** (3 - tuple_weight(t))

    def test_definitions_pointwise(self):
        # c is the indicator of downward neighbours, d of upward ones.
        n, m = 3, 2
        for t in all_tuples(n, m):
            cv, dv = c_vector(n, m, t), d_vector(n, m, t)
            for i in all_tuples(n, m):
                idx = tuple_to_index(n, i)
                assert (cv.word >> idx) & 1 == int(precedes(i, t))
                assert (dv.word >> idx) & 1 == int(precedes(t, i))

    @pytest.mark.parametrize(
        "n, m",
        [(n, m) for n in range(2, 7) for m in range(1, 5) if n**m <= 1296] + [(2, m) for m in range(5, 11)],
    )
    def test_words_match_the_coordinate_loops(self, n, m):
        for t in all_tuples(n, m):
            assert c_vector(n, m, t) == loop_c_vector(n, m, t), t
            assert d_vector(n, m, t) == loop_d_vector(n, m, t), t

    @given(st.data())
    def test_words_match_the_coordinate_loops_up_to_the_guard(self, data):
        n, m = data.draw(st.sampled_from(SHAPES_UP_TO_GUARD))
        t = data.draw(st.tuples(*[st.integers(0, n - 1)] * m))
        assert c_vector(n, m, t) == loop_c_vector(n, m, t)
        assert d_vector(n, m, t) == loop_d_vector(n, m, t)


class TestBuild:
    def test_zero_code_members(self):
        for n, m in ((2, 1), (3, 2), (4, 2)):
            code = build(BermanParams(CodeKind.BERMAN, n, m, m))
            assert code.dimension == 0

    def test_repetition_members(self):
        for n, m in ((2, 3), (3, 2), (5, 2)):
            code = build(BermanParams(CodeKind.DUAL_BERMAN, n, m, 0))
            assert code == LinearCode.from_spanning_set(n**m, [BitVector(n**m, (1 << n**m) - 1)])

    def test_worked_example(self):
        code = build(BermanParams.parse("DBer(3,1,2)"))
        assert code.dimension == 5
        assert code.min_distance_bruteforce() == 3

    def test_basis_sets_are_independent(self):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                for params in family(n, m):
                    vectors = basis_vectors(params)
                    got = rank(BitMatrix.from_rows(list(vectors), params.length)) if vectors else 0
                    assert got == dimension_formula(params) == len(vectors)

    def test_build_is_the_checked_basis_span(self, monkeypatch):
        params = BermanParams.parse("DBer(3,1,2)")
        assert build(params) is basis_span(params)
        monkeypatch.setattr(berman, "dimension_formula", lambda p: 0)
        with pytest.raises(ProtocolInvariantError, match="basis rank disagrees"):
            build.__wrapped__(params)

    def test_size_guard(self):
        # Length exactly at the guard builds; the next length up is refused.
        at_guard = BermanParams.parse("DBer(8,0,4)")
        assert at_guard.length == MAX_LENGTH
        assert build(at_guard).dimension == 1
        with pytest.raises(TooLarge):
            build(BermanParams.parse("DBer(2,0,13)"))

    def test_length_guard_boundary(self):
        # 2^9 = 512 fits a guard of 512; every depth from 10 on is refused by
        # its depth alone, however large n is.
        assert length_beyond(2, 9, 512) is None
        assert length_beyond(22, 2, 512) is None
        assert length_beyond(23, 2, 512) == "529"
        assert length_beyond(2, 10, 512) == "2^10"
        assert length_beyond(1000, 10**9, 512) == f"1000^{10**9}"

    @pytest.mark.parametrize("n", (2, 3, 7, 10, 1000))
    def test_digit_guard_boundary(self, n):
        # The shortest depth at which n^m reaches 10^limit, found by the
        # float estimate and confirmed on the exact integers.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("no int-to-str digit limit")
        m = math.ceil(limit / math.log10(n))
        while n ** (m - 1) >= 10**limit:
            m -= 1
        while n**m < 10**limit:
            m += 1
        check_digits(BermanParams(CodeKind.DUAL_BERMAN, n, m - 1, 0))
        for depth in (m, m + 1, 4 * limit + 1, 10**4000):
            with pytest.raises(TooLarge):
                check_digits(BermanParams(CodeKind.DUAL_BERMAN, n, depth, 0))


class TestClosedForms:
    def test_dimension_examples(self):
        assert dimension_formula(BermanParams.parse("Ber(3,0,2)")) == 8
        assert dimension_formula(BermanParams.parse("DBer(3,3,3)")) == 27
        assert dimension_formula(BermanParams.parse("Ber(3,1,3)")) == 20

    def test_distance_examples(self):
        assert min_distance_formula(BermanParams.parse("Ber(2,1,3)")) == 4
        assert min_distance_formula(BermanParams.parse("DBer(3,1,2)")) == 3
        assert min_distance_formula(BermanParams.parse("DBer(4,2,2)")) == 1

    def test_zero_code_has_no_distance(self):
        with pytest.raises(ValueError):
            min_distance_formula(BermanParams.parse("Ber(3,2,2)"))

    def test_dimension_is_the_binomial_sum(self):
        members = [p for shape in families(6, 6) for p in shape]
        members += [BermanParams(kind, n, m, r) for kind in CodeKind
                    for n, m, r in ((2, 200, 100), (7, 300, 1), (3, 1000, 999), (1000, 50, 25))]
        for params in members:
            assert dimension_formula(params) == dimension_by_binomials(params), params.name

    def test_distance_is_the_recursion_bound(self):
        # Every member up to the length guard; the bound is the recursion's own.
        members = [p for n, m in SHAPES_UP_TO_GUARD for p in family(n, m) if not p.is_zero_code]
        assert len(members) > 8000
        for params in members:
            assert min_distance_formula(params) == recursion_distance(params.kind, params.n, params.r, params.m)

    def test_distance_is_attained_by_a_basis_vector(self):
        # A basis vector is a codeword, so a weight equal to the lower bound
        # makes the bound the minimum distance.
        for n, m in SHAPES_UP_TO_GUARD:
            if n**m > 256:
                continue
            for params in family(n, m):
                if params.is_zero_code:
                    continue
                weights = {v.word.bit_count() for v in basis_vectors(params)}
                assert min_distance_formula(params) in weights, params.name


class TestRecursiveMembership:
    def test_zero_vector_everywhere(self):
        for n, m in ((2, 2), (3, 2), (2, 3)):
            for params in family(n, m):
                assert recursive_membership(params, BitVector(n**m))

    def test_even_parity_example(self):
        assert recursive_membership(BermanParams.parse("Ber(3,0,2)"), BitVector.from01("110000000"))
        assert not recursive_membership(BermanParams.parse("Ber(3,0,2)"), BitVector.from01("100000000"))

    def test_length_check(self):
        with pytest.raises(LengthMismatch):
            recursive_membership(BermanParams.parse("Ber(3,0,2)"), BitVector(8))

    def test_exhaustive_agreement_small(self):
        for n, m in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)):
            for params in family(n, m):
                code = build(params)
                for w in range(1 << (n**m)):
                    v = BitVector(n**m, w)
                    assert recursive_membership(params, v) == code.contains(v)

    def test_sampled_agreement_larger(self):
        def random_word(rng, bits):
            nbytes = (bits + 7) // 8
            return int.from_bytes(rng.bytes(nbytes), "little") & ((1 << bits) - 1)

        rng = philox_generator(20240817)
        for n, m in ((3, 3), (4, 3), (5, 2), (2, 5)):
            size = n**m
            members = list(family(n, m))
            per_params = 10_000 // len(members)
            for params in members:
                code = build(params)
                k = code.dimension
                for i in range(per_params):
                    if i % 2 == 0 or k == 0:
                        v = BitVector(size, random_word(rng, size))
                    else:
                        v = code.generator.left_mul(BitVector(k, random_word(rng, k)))
                        assert code.contains(v)
                    assert recursive_membership(params, v) == code.contains(v)


class TestReedMullerMatch:
    def test_dual_family_equals_rm(self):
        for m in range(1, 6):
            for r in range(m + 1):
                assert build(BermanParams(CodeKind.DUAL_BERMAN, 2, m, r)) == reed_muller_code(r, m)

    def test_primal_family_equals_rm_dual(self):
        for m in range(1, 6):
            for r in range(m + 1):
                assert build(BermanParams(CodeKind.BERMAN, 2, m, r)) == reed_muller_code(m - r - 1, m)

    def test_matches_the_pointwise_construction(self):
        for m in range(1, 7):
            for r in range(-1, m + 1):
                assert reed_muller_code(r, m) == pointwise_reed_muller(r, m)


class TestStructuralProperties:
    def test_duality_sweep(self):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                for r in range(m + 1):
                    params = BermanParams(CodeKind.BERMAN, n, m, r)
                    assert build(params).dual() == build(params.dual)

    def test_containment_sweep(self):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                for r in range(1, m + 1):
                    tight = build(BermanParams(CodeKind.BERMAN, n, m, r))
                    loose = build(BermanParams(CodeKind.BERMAN, n, m, r - 1))
                    assert all(loose.contains(tight.generator.row(i)) for i in range(tight.dimension))
                    small = build(BermanParams(CodeKind.DUAL_BERMAN, n, m, r - 1))
                    big = build(BermanParams(CodeKind.DUAL_BERMAN, n, m, r))
                    assert all(big.contains(small.generator.row(i)) for i in range(small.dimension))

    def test_transitivity_at_tiny_lengths(self):
        # Componentwise translations suffice for the whole family.
        for n, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
            for params in family(n, m):
                for a in range(params.length):
                    for b in range(params.length):
                        assert transitivity_witness(params, a, b), (params.name, a, b)


def shapes_up_to(length):
    """Every (n, m) with n >= 2 and n^m <= length."""
    return tuple((n, m) for m in range(1, length.bit_length()) for n in range(2, length + 1) if n**m <= length)


class TestTranslation:
    def test_every_shift_up_to_length_64_moves_every_bit(self):
        # One unit word per coordinate, under every shift of every shape.
        for n, m in shapes_up_to(64):
            for shift in all_tuples(n, m):
                for i in range(n**m):
                    assert translate(1 << i, n, shift) == per_bit_translation(1 << i, n, shift), (n, m, shift, i)

    @pytest.mark.parametrize("n, m", ((2, 12), (4, 6), (16, 3), (64, 2)))
    def test_random_words_match_the_per_bit_reference(self, n, m):
        rng = philox_generator(n * 100 + m)
        for _ in range(20):
            word = int.from_bytes(rng.bytes(n**m // 8), "little")
            shift = tuple(int(x) for x in rng.integers(0, n, size=m))
            assert translate(word, n, shift) == per_bit_translation(word, n, shift), (n, m, shift)
            # Negative components are taken mod n, so -shift undoes shift.
            assert translate(translate(word, n, shift), n, [-x for x in shift]) == word


class TestWeightSet:
    def test_family_basis_on_the_weight_set_is_its_own_inverse(self):
        # The lemma: restricted to W(p), the family basis squares to I, for
        # every member of length up to 256.
        checked = 0
        for n, m in shapes_up_to(256):
            for params in family(n, m):
                coords = weight_set(params)
                assert len(coords) == dimension_formula(params)
                if not coords:
                    continue
                square = BitMatrix.from_rows(basis_vectors(params), params.length).take_columns(coords)
                assert square @ square == BitMatrix.identity(len(coords)), params.name
                checked += 1
        assert checked == 969

    def test_weights_of_the_set(self):
        for params in family(3, 3):
            weights = {tuple_weight(index_to_tuple(3, 3, i)) for i in weight_set(params)}
            expected = range(params.r + 1, 4) if params.kind is CodeKind.BERMAN else range(params.r + 1)
            assert weights == set(expected), params.name
