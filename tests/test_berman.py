"""Family constructions: index conventions, basis vectors, the recursion,
the closed forms, and the structural properties they must satisfy."""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bermanpir import berman, checks, codes, gf2, pir
from bermanpir.berman import (
    MAX_LENGTH,
    BermanParams,
    CodeKind,
    basis,
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
    reflect,
    transitivity_witness,
    translate,
)
from bermanpir.codes import InvalidInput, LinearCode, ProtocolInvariantError, TooLarge
from bermanpir.gf2 import BitMatrix, BitVector, LengthMismatch, row_reduce
from bermanpir.pir import philox_generator
from bermanpir.star import predict_star, star_pairs
from oracles import (
    all_tuples,
    dimension_by_binomials,
    loop_c_vector,
    loop_d_vector,
    per_bit_translation,
    pointwise_reed_muller,
    precedes,
    rank,
    recursion_distance,
    self_inverse_product,
    tuple_basis,
    tuple_to_index,
    tuple_weight,
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

    def test_name_is_kept_outside_the_fields(self):
        # The name is formed once, and repr and pickles still see only the
        # four fields.
        p, fresh = BermanParams.parse("DBer(5,2,3)"), BermanParams(CodeKind.DUAL_BERMAN, 5, 3, 2)
        before = (hash(p), repr(p), pickle.dumps(p))
        assert p.name == "DBer(5,2,3)" and p.name is p.name
        assert (hash(p), repr(p), pickle.dumps(p)) == before == (hash(fresh), repr(fresh), pickle.dumps(fresh))
        assert p == fresh and pickle.loads(pickle.dumps(p)) == p
        assert [f.name for f in dataclasses.fields(p)] == ["kind", "n", "m", "r"]

    def test_parse_rejects_noise(self):
        for text in ("Ber(3,0)", "Foo(2,1,1)", "Ber(1,0,1)", "DBer(2,3,2)", "ber(2,1,2)"):
            with pytest.raises(ValueError):
                BermanParams.parse(text)

    def test_fields_are_normalised(self):
        # A kind given as its text, and integers of other types, are held as
        # CodeKind and int, so equal members are the same member.
        p = BermanParams("Ber", np.int64(2), 3, np.int32(2))
        assert p.kind is CodeKind.BERMAN and p.name == "Ber(2,2,3)"
        assert [type(v) for v in (p.n, p.m, p.r)] == [int, int, int]
        assert p == BermanParams.parse("Ber(2,2,3)") and repr(p) == repr(BermanParams.parse("Ber(2,2,3)"))

    @pytest.mark.parametrize(
        "fields",
        (
            ("Foo", 2, 3, 2),
            (None, 2, 3, 2),
            ("Ber", 2.0, 3, 2),
            ("Ber", 2, 3, True),
            ("Ber", 2, "3", 2),
            ("Ber", 2, 3, 1.0),
            ("Ber", np.float64(2), 3, 2),
        ),
    )
    def test_refuses_other_kinds_and_non_integers(self, fields):
        # The members these fields equal (True == 1, 2.0 == 2) are interned
        # first, so the refusal cannot rest on the order the tests run in.
        for text in ("Ber(2,2,3)", "Ber(2,1,3)"):
            BermanParams.parse(text)
        with pytest.raises(InvalidInput):
            BermanParams(*fields)

    def test_a_kind_given_as_text_builds_its_own_member(self):
        # Equal members share build's cache entry, so the one built first
        # must be the same code: a text kind once built the dual family's
        # 7-dimensional code into the entry of Ber(2,2,3), whose dimension is 1.
        build.cache_clear()
        text_kind = build(BermanParams("Ber", 2, 3, 2))
        assert build(BermanParams.parse("Ber(2,2,3)")) is text_kind
        assert text_kind.dimension == 1 == dimension_formula(BermanParams.parse("Ber(2,2,3)"))

    def test_equal_members_are_one_object(self):
        p = BermanParams.parse("Ber(2,2,3)")
        assert p is BermanParams("Ber", 2, 3, 2) is BermanParams(CodeKind.BERMAN, 2, 3, 2)
        assert p is BermanParams(r=2, m=3, n=2, kind="Ber")
        assert p is BermanParams("Ber", np.int64(2), np.uint8(3), np.int32(2))
        assert p.dual.dual is p and p.dual is p.dual is BermanParams.parse("DBer(2,2,3)")
        assert p is next(block for block in families(2, 3) if block[0].m == 3)[2]
        assert BermanParams.__eq__ is object.__eq__ and BermanParams.__hash__ is object.__hash__

    def test_predicted_members_are_the_interned_ones(self):
        for p, q in star_pairs(3, 3):
            predicted = predict_star(p, q)
            if isinstance(predicted, BermanParams):
                assert predicted is BermanParams.parse(predicted.name)

    def test_copies_are_the_member_itself(self):
        p = BermanParams.parse("DBer(5,2,3)")
        assert pickle.loads(pickle.dumps(p)) is p
        assert copy.copy(p) is p and copy.deepcopy(p) is p and copy.deepcopy([p, p]) == [p, p]
        assert dataclasses.replace(p) is p
        assert dataclasses.replace(p, r=1) is BermanParams.parse("DBer(5,1,3)")
        with pytest.raises(InvalidInput):
            dataclasses.replace(p, r=True)

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


#: Every (n, m) with n <= 6 and n^m <= 1296: the shapes whose members the
#: one-pass basis is checked on, all of them, from the zero code to the full space.
BASIS_SHAPES = tuple((n, m) for n in range(2, 7) for m in range(1, 11) if n**m <= 1296)


class TestBasisPass:
    """The one-pass basis against the basis formed one defining tuple at a
    time by ``c_vector`` or ``d_vector``: the same words, with the same
    coordinates, in the same order."""

    @staticmethod
    def check(params):
        want = tuple_basis(params)
        assert basis(params) == (tuple(coord for coord, _ in want), tuple(word for _, word in want)), params.name

    @pytest.mark.parametrize("n, m", BASIS_SHAPES)
    def test_matches_the_tuple_basis(self, n, m):
        for params in family(n, m):
            self.check(params)

    @pytest.mark.parametrize("name", ("DBer(2,4,12)", "Ber(2,6,12)", "DBer(64,1,2)"))
    def test_matches_the_tuple_basis_at_the_top_band(self, name):
        self.check(BermanParams.parse(name))


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
                    words = basis(params)[1]
                    got = rank(BitMatrix(len(words), params.length, words)) if words else 0
                    assert got == dimension_formula(params) == len(words)

    def test_build_refuses_a_rank_off_the_formula(self, monkeypatch):
        # A member whose basis rank is not the closed form is never built,
        # and the verify dimension case reports the refusal as its detail.
        params = BermanParams.parse("DBer(3,1,2)")
        monkeypatch.setattr(berman, "dimension_formula", lambda p: 0)
        message = "DBer(3,1,2): basis rank 5 disagrees with the closed form 0"
        with pytest.raises(ProtocolInvariantError) as refused:
            build.__wrapped__(params)
        assert str(refused.value) == message
        monkeypatch.setattr(berman, "build", build.__wrapped__)
        assert checks._dimension(params) == checks.VerifyCase("dimension DBer(3,1,2)", False, message)

    def test_build_records_its_member(self):
        # The member is kept beside the span, not as part of it.
        params = BermanParams.parse("DBer(3,1,2)")
        code = build(params)
        copy = LinearCode(code.length, code.generator)
        assert code.member == params and copy.member is None
        assert code == copy and hash(code) == hash(copy) and repr(code) == repr(copy)
        assert pickle.loads(pickle.dumps(code)).member == params

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
                weights = {w.bit_count() for w in basis(params)[1]}
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


def check_against_elimination(params):
    """``build``'s RREF against ``row_reduce`` of the basis words, and the
    derivation's generator that is the identity on W(p) against ``M @ B``."""
    coords, words = basis(params)
    # Any order of the words has the same RREF.  Reversed, each Ber(n,0,1)
    # word e_0 + e_t meets one pivot row, not a chain of t - 1 of them.
    rref, pivots = row_reduce(BitMatrix(len(words), params.length, words[::-1]))
    assert build(params).generator.row_words == rref.row_words[: len(pivots)], params.name
    if words:
        assert pir._on_weight_set(params) == (coords, self_inverse_product(params)[1]), params.name


class TestOneBackSubstitution:
    """Each member's RREF is one back-substitution of its basis words,
    reflected for Ber, and its generator that is the identity on W(p) is read
    off that RREF; both are checked against elimination and ``M @ B``."""

    def test_every_member_up_to_512_coordinates(self):
        checked = 0
        for n, m in shapes_up_to(512):
            for params in family(n, m):
                check_against_elimination(params)
                checked += 1
        assert checked == 2348

    @pytest.mark.slow
    @pytest.mark.parametrize("n, m", ((2, 12), (64, 2), (16, 3), (4075, 1)))
    def test_every_member_at_the_top_band(self, n, m):
        for params in family(n, m):
            check_against_elimination(params)

    def test_build_eliminates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("build ran an elimination")

        monkeypatch.setattr(gf2, "_eliminate", refuse)
        monkeypatch.setattr(codes, "row_reduce", refuse)
        for n, m in ((2, 4), (3, 3), (5, 2)):
            for params in family(n, m):
                assert build.__wrapped__(params) == build(params), params.name

    def test_reflect_is_its_own_inverse(self):
        # Ber words reversed bit by bit and listed in reverse order; DBer as
        # they stand.
        params = BermanParams.parse("Ber(3,1,3)")
        coords, words = basis(params)
        reflected = reflect(params, coords, words)
        assert reflected[0] == tuple(26 - c for c in reversed(coords))
        assert reflected[1] == tuple(sum(1 << 26 - j for j in range(27) if w >> j & 1) for w in reversed(words))
        assert reflect(params, *reflected) == (coords, words)
        assert reflect(params.dual, *basis(params.dual)) == basis(params.dual)

    def test_a_cold_derivation_forms_each_basis_once(self, monkeypatch):
        storage, retrieval = BermanParams.parse("DBer(2,1,6)"), BermanParams.parse("DBer(2,2,6)")
        real_basis, calls = berman.basis, []

        def spy(p):
            calls.append(p)
            return real_basis(p)

        monkeypatch.setattr(berman, "basis", spy)
        pir._derive.cache_clear()
        build.cache_clear()
        try:
            pir._derive(storage, retrieval)
        finally:
            pir._derive.cache_clear()
            build.cache_clear()
        perp = predict_star(storage, retrieval).dual
        assert sorted(calls, key=str) == sorted([storage, retrieval, perp], key=str)


class TestWeightSet:
    def test_family_basis_on_the_weight_set_is_its_own_inverse(self):
        # The lemma: restricted to W(p), the family basis squares to I, for
        # every member of length up to 256.
        checked = 0
        for n, m in shapes_up_to(256):
            for params in family(n, m):
                coords, words = basis(params)
                assert len(coords) == dimension_formula(params)
                if not coords:
                    continue
                square = BitMatrix(len(words), params.length, words).take_columns(coords)
                assert square @ square == BitMatrix.identity(len(coords)), params.name
                checked += 1
        assert checked == 969

    def test_weights_of_the_set(self):
        for params in family(3, 3):
            weights = {tuple_weight(index_to_tuple(3, 3, i)) for i in basis(params)[0]}
            expected = range(params.r + 1, 4) if params.kind is CodeKind.BERMAN else range(params.r + 1)
            assert weights == set(expected), params.name
