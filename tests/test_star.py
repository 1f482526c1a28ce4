"""Star products: vector algebra, code products, the predicted-case table,
and the constructive identities behind it."""

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bermanpir import checks, star
from bermanpir.berman import (
    BermanParams,
    CodeKind,
    all_tuples,
    build,
    c_vector,
    d_vector,
    families,
    reed_muller_code,
    tuple_weight,
)
from bermanpir.codes import LinearCode
from bermanpir.gf2 import BitMatrix, BitVector, LengthMismatch
from bermanpir.pir import philox_generator
from bermanpir.star import (
    FULL_SPACE,
    UNDEFINED,
    ParamMismatch,
    UndefinedCase,
    predict_star,
    predicted_code,
    star_codes,
    star_pairs,
    star_vectors,
    verify_star_case,
)
from oracles import (
    OverlappingSupport,
    PreconditionViolated,
    all_products_star,
    berman_basis_identity,
    disjoint_support_product,
    staged_mixed_products,
    staged_parity_products,
    tuple_to_index,
)

#: Two lists of spanning rows, repeats and zero rows allowed, and their length.
SPANNING_ROWS = st.integers(1, 20).flatmap(
    lambda length: st.tuples(*[st.lists(st.integers(0, (1 << length) - 1), max_size=8)] * 2, st.just(length))
)


class TestStarVectors:
    def test_ones_is_identity(self):
        a = BitVector.from01("101101000")
        assert star_vectors(a, BitVector(9, (1 << 9) - 1)) == a

    def test_zero_annihilates(self):
        a = BitVector.from01("101101000")
        assert star_vectors(a, BitVector(9)) == BitVector(9)

    def test_worked_example(self):
        a = BitVector.from01("101101000")
        b = BitVector.from01("000111000")
        assert star_vectors(a, b).to01() == "000101000"

    def test_length_check(self):
        with pytest.raises(LengthMismatch):
            star_vectors(BitVector(3), BitVector(4))

    def test_distributes_over_addition_exhaustive(self):
        for length in (1, 2, 3, 4):
            top = 1 << length
            for aw in range(top):
                a = BitVector(length, aw)
                for bw in range(top):
                    b = BitVector(length, bw)
                    for cw in range(top):
                        c = BitVector(length, cw)
                        assert star_vectors(a, b ^ c) == star_vectors(a, b) ^ star_vectors(a, c)

    def test_distributes_over_addition_sampled(self):
        rng = philox_generator(5)
        draws = rng.integers(0, 1 << 9, size=(100_000, 3))
        for aw, bw, cw in draws:
            a, b, c = BitVector(9, int(aw)), BitVector(9, int(bw)), BitVector(9, int(cw))
            assert star_vectors(a, b ^ c) == star_vectors(a, b) ^ star_vectors(a, c)


class TestStarCodes:
    def test_repetition_is_identity(self):
        code = build(BermanParams.parse("Ber(3,1,2)"))
        rep = build(BermanParams.parse("DBer(3,0,2)"))
        assert star_codes(code, rep) == code

    def test_zero_annihilates(self):
        code = build(BermanParams.parse("Ber(3,1,2)"))
        assert star_codes(code, LinearCode.zero(9)) == LinearCode.zero(9)

    def test_worked_example(self):
        assert star_codes(
            build(BermanParams.parse("DBer(3,0,2)")), build(BermanParams.parse("DBer(3,1,2)"))
        ) == build(BermanParams.parse("DBer(3,1,2)"))

    def test_commutative_and_associative(self):
        rng = philox_generator(9)
        for _ in range(10):
            codes = [
                LinearCode.from_generator(
                    BitMatrix(3, 8, tuple(int(w) for w in rng.integers(0, 1 << 8, size=3)))
                )
                for _ in range(3)
            ]
            a, b, c = codes
            assert star_codes(a, b) == star_codes(b, a)
            assert star_codes(star_codes(a, b), c) == star_codes(a, star_codes(b, c))

    @pytest.mark.parametrize("n, m", ((3, 3), (2, 6), (5, 2), (6, 2)))
    def test_family_pairs_match_all_products(self, n, m):
        members = [BermanParams(kind, n, m, r) for kind in CodeKind for r in range(m + 1)]
        for p in members:
            for q in members:
                assert star_codes(build(p), build(q)) == all_products_star(build(p), build(q)), (p.name, q.name)

    def test_full_rank_on_the_last_distinct_product(self):
        # The unit rows times 111 give e0, e1, e2 in that order, and only e2
        # completes the span; times 110 the span stays one pivot short.
        units = LinearCode.full(3)
        assert units.generator.row_words == (0b001, 0b010, 0b100)
        short = LinearCode.from_generator(BitMatrix(2, 3, (0b010, 0b100)))
        for word, want in ((0b111, units), (0b110, short)):
            d = LinearCode.from_generator(BitMatrix(1, 3, (word,)))
            assert star_codes(units, d) == all_products_star(units, d) == want

    @given(SPANNING_ROWS)
    @example(([], [0b1011], 4))  # a zero code
    @example(([1], [1], 1))  # length 1
    @example(([0b0110, 0b0110, 0b0011], [0b0111, 0b0111], 4))  # repeated rows and products
    @example(([0b001, 0b010, 0b100], [0b111], 3))  # full rank on the last distinct product
    def test_random_codes_match_all_products(self, drawn):
        left, right, length = drawn
        c, d = (LinearCode.from_generator(BitMatrix(len(rows), length, tuple(rows))) for rows in (left, right))
        assert star_codes(c, d) == all_products_star(c, d)


@st.composite
def star_factors(draw):
    """Two codes of one length for the star-product routes: each spanned by
    sparse rows (at most three bits), dense rows, no rows, or every unit row,
    with repeated rows, and with a random set of columns cleared in both."""
    length = draw(st.integers(1, 24))
    top = (1 << length) - 1
    dead = draw(st.integers(0, top)) if draw(st.booleans()) else 0

    def factor():
        kind = draw(st.sampled_from(("sparse", "dense", "zero", "full")))
        if kind == "zero":
            return LinearCode.zero(length)
        if kind == "full":
            words = [1 << i for i in range(length)]
        else:
            if kind == "sparse":
                word = st.lists(st.integers(0, length - 1), max_size=3).map(lambda bits: sum(1 << b for b in set(bits)))
            else:
                word = st.integers(0, top)
            words = draw(st.lists(word, min_size=1, max_size=10))
            words += words[: draw(st.integers(0, 2))]
        words = [w & ~dead for w in words]
        return LinearCode.from_generator(BitMatrix(len(words), length, tuple(words)))

    return factor(), factor()


def forced_route(restrict):
    """Make :func:`star.star_codes` take the restriction (True) or the product loop (False)."""
    return mock.patch.object(star, "_restriction_pays", lambda c, d: restrict)


class TestStarRoutes:
    """Both routes of :func:`star_codes` against every pairwise product."""

    @given(star_factors())
    @example((LinearCode.full(6), LinearCode.from_generator(BitMatrix(2, 6, (0b111111, 0b101010)))))
    @example((LinearCode.zero(5), LinearCode.full(5)))
    @example(  # column 0 zero in both; repeated rows
        (
            LinearCode.from_generator(BitMatrix(3, 5, (0b00110, 0b00110, 0b11000))),
            LinearCode.from_generator(BitMatrix(2, 5, (0b11110, 0b01010))),
        )
    )
    def test_random_codes_on_each_route(self, factors):
        c, d = factors
        want = all_products_star(c, d)
        for restrict in (True, False):
            with forced_route(restrict):
                assert star_codes(c, d) == want, restrict
                assert star_codes(d, c) == want, restrict

    def test_family_pairs_on_each_route(self):
        for shape in families(64, 6):
            if shape[0].n ** shape[0].m > 64:
                continue
            members = [build(p) for p in shape]
            for i, c in enumerate(members):
                for d in members[i:]:
                    want = all_products_star(c, d)
                    for restrict in (True, False):
                        with forced_route(restrict):
                            assert star_codes(c, d) == want, (shape[0].n, shape[0].m, restrict)

    def test_default_sweep_takes_both_routes(self, monkeypatch):
        choose = star._restriction_pays
        taken = []
        monkeypatch.setattr(star, "_restriction_pays", lambda c, d: taken.append(choose(c, d)) or taken[-1])
        assert all(case.ok for case in checks.iter_verification_cases(5, 3))
        assert True in taken and False in taken


class TestPredictStar:
    def test_worked_examples(self):
        p = BermanParams.parse
        assert predict_star(p("DBer(3,0,2)"), p("DBer(3,1,2)")) == p("DBer(3,1,2)")
        assert predict_star(p("Ber(3,1,2)"), p("DBer(3,1,2)")) == p("Ber(3,0,2)")
        assert predict_star(p("Ber(3,0,2)"), p("Ber(3,0,2)")) is FULL_SPACE

    def test_degenerate_screens(self):
        p = BermanParams.parse
        # A zero-code factor annihilates regardless of the case table.
        assert predict_star(p("Ber(3,2,2)"), p("DBer(3,1,2)")) == p("Ber(3,2,2)")
        assert predict_star(p("Ber(3,2,2)"), p("Ber(3,1,2)")) == p("Ber(3,2,2)")
        # A full-space factor absorbs any nonzero factor.
        assert predict_star(p("DBer(3,2,2)"), p("DBer(3,1,2)")) is FULL_SPACE

    def test_undefined_regime(self):
        p = BermanParams.parse
        assert predict_star(p("DBer(3,2,3)"), p("DBer(3,2,3)")) is UNDEFINED

    def test_n2_reduces_to_rm_arithmetic(self):
        p = BermanParams.parse
        # Ber(2,r,m) = RM(m-r-1,m): degree sum 1+1 <= 3 stays a proper member;
        # degree sum m lands on the member that is the whole space.
        assert predict_star(p("Ber(2,1,3)"), p("Ber(2,1,3)")) == p("DBer(2,2,3)")
        assert predict_star(p("Ber(2,0,3)"), p("Ber(2,1,3)")) == p("DBer(2,3,3)")
        # Degree sum beyond m needs the explicit full-space answer.
        assert predict_star(p("Ber(2,0,4)"), p("Ber(2,0,4)")) is FULL_SPACE

    def test_no_predicted_code_for_an_undefined_case(self):
        with pytest.raises(UndefinedCase):
            predicted_code(3, 3, UNDEFINED)

    def test_param_mismatch(self):
        with pytest.raises(ParamMismatch):
            predict_star(BermanParams.parse("Ber(3,1,2)"), BermanParams.parse("Ber(2,1,2)"))


class TestVerifyStarCase:
    def test_rm_remark_case(self):
        res = verify_star_case(BermanParams.parse("Ber(2,1,3)"), BermanParams.parse("DBer(2,2,3)"))
        assert res.predicted is FULL_SPACE and res.verified

    def test_rm_product_case(self):
        p = BermanParams.parse("DBer(2,1,3)")
        res = verify_star_case(p, p)
        assert res.predicted == BermanParams.parse("DBer(2,2,3)")
        assert res.verified
        # Independent check through the monomial-evaluation construction.
        assert star_codes(reed_muller_code(1, 3), reed_muller_code(1, 3)) == reed_muller_code(2, 3)

    def test_undefined_raises(self):
        p = BermanParams.parse("DBer(3,2,3)")
        with pytest.raises(UndefinedCase):
            verify_star_case(p, p)

    def test_dual_dual_regime_sweep(self):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                for r1 in range(m + 1):
                    for r2 in range(m - r1 + 1):
                        res = verify_star_case(
                            BermanParams(CodeKind.DUAL_BERMAN, n, m, r1),
                            BermanParams(CodeKind.DUAL_BERMAN, n, m, r2),
                        )
                        assert res.verified, f"{res.left.name} * {res.right.name}"

    def test_full_sweep(self):
        results = [verify_star_case(p, q) for p, q in star_pairs(4, 3)]
        assert len(results) == 345
        assert all(res.verified for res in results)


class TestConstructiveIdentities:
    def test_disjoint_trivial_factor(self):
        assert disjoint_support_product(3, 2, (1, 0), (0, 0)) == d_vector(3, 2, (1, 0))

    def test_disjoint_worked_example(self):
        got = disjoint_support_product(3, 2, (1, 0), (0, 2))
        assert got == BitVector(9, 1 << tuple_to_index(3, (1, 2)))

    def test_disjoint_exhaustive(self):
        for n, m in ((2, 2), (3, 2), (2, 3), (3, 3)):
            for j1 in all_tuples(n, m):
                for j2 in all_tuples(n, m):
                    if any(a and b for a, b in zip(j1, j2)):
                        with pytest.raises(OverlappingSupport):
                            disjoint_support_product(n, m, j1, j2)
                    else:
                        disjoint_support_product(n, m, j1, j2)

    def test_basis_identity_worked_examples(self):
        assert berman_basis_identity(3, 2, (1, 2), (1, 0)) == c_vector(3, 2, (0, 2))
        assert berman_basis_identity(2, 2, (1, 1), (0, 1)) == c_vector(2, 2, (1, 0))

    def test_basis_identity_exhaustive(self):
        for n in (2, 3):
            for m in (1, 2, 3):
                for j in all_tuples(n, m):
                    for k in all_tuples(n, m):
                        if tuple_weight(k) == 1 and all(a == 0 or a == b for a, b in zip(k, j)):
                            berman_basis_identity(n, m, j, k)

    def test_basis_identity_preconditions(self):
        with pytest.raises(PreconditionViolated):
            berman_basis_identity(3, 2, (1, 2), (1, 1))
        with pytest.raises(PreconditionViolated):
            berman_basis_identity(3, 2, (1, 2), (2, 0))


class TestStagedConstructions:
    def test_parity_products_cover_standard_basis(self):
        built = staged_parity_products(3, 2)
        assert len(built) == 9

    def test_mixed_products_cover_standard_basis(self):
        built = staged_mixed_products(3, 2, 1)
        assert len(built) == 9

    def test_staged_constructions_elsewhere(self):
        staged_parity_products(3, 3)
        staged_parity_products(4, 2)
        staged_mixed_products(3, 3, 2)
        staged_mixed_products(2, 3, 2)
