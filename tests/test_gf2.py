"""Word-packed GF(2) algebra: worked examples plus algebraic properties."""

import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bermanpir import gf2
from bermanpir.gf2 import (
    BitMatrix,
    BitVector,
    LengthMismatch,
    Singular,
    bits_to_limbs,
    draw_bit_limbs,
    invert_columns,
    limbs_to_words,
    nullspace_basis,
    row_reduce,
    words_to_limbs,
)
from oracles import nullspace_reference, rank


@st.composite
def bit_matrices(draw, max_rows=6, max_cols=8):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    top = max((1 << cols) - 1, 0)
    words = draw(st.lists(st.integers(0, top), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, tuple(words))


def transpose_reference(m):
    """Transpose by one bit-by-bit column scan per column."""
    return BitMatrix(m.cols, m.rows, tuple(m.column_word(j) for j in range(m.cols)))


def take_columns_reference(m, cols):
    """Column selection bit by bit, one row at a time."""
    words = []
    for rw in m.row_words:
        w = 0
        for t, j in enumerate(cols):
            if (rw >> j) & 1:
                w |= 1 << t
        words.append(w)
    return BitMatrix(m.rows, len(cols), tuple(words))


def matmul_reference(a, b):
    """Product as an XOR of the rows of ``b`` selected by each row of ``a``."""
    words = []
    for rw in a.row_words:
        w = 0
        for k in range(a.cols):
            if (rw >> k) & 1:
                w ^= b.row_words[k]
        words.append(w)
    return BitMatrix(a.rows, b.cols, tuple(words))


@st.composite
def shaped_matrices(draw):
    """Tall (up to 64 x 12), wide (up to 8 x 130) or sparse (up to 40 x 40,
    at most two bits a row) matrices."""
    shape = draw(st.sampled_from(("tall", "wide", "sparse")))
    max_rows, max_cols = {"tall": (64, 12), "wide": (8, 130), "sparse": (40, 40)}[shape]
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    if shape == "sparse" and cols:
        bit = st.integers(0, cols - 1).map(lambda j: 1 << j)
        word = st.lists(bit, max_size=2).map(lambda bits: sum(set(bits)))
    else:
        word = st.integers(0, max((1 << cols) - 1, 0))
    return BitMatrix(rows, cols, tuple(draw(st.lists(word, min_size=rows, max_size=rows))))


def eliminate_reference(words, ncols):
    """Gauss-Jordan by column sweep: for each column, find a pivot row and
    clear the column from every other row."""
    nrows = len(words)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        bit = 1 << c
        p = next((i for i in range(r, nrows) if words[i] & bit), None)
        if p is None:
            continue
        words[r], words[p] = words[p], words[r]
        for i in range(nrows):
            if i != r and words[i] & bit:
                words[i] ^= words[r]
        pivots.append(c)
        r += 1
    return pivots


def outcome(fn, *args, reference=False):
    """``fn(*args)``, or Singular if it raised that; run on the column-sweep
    kernel when ``reference`` is set."""
    kernel = eliminate_reference if reference else gf2._eliminate
    with mock.patch.object(gf2, "_eliminate", kernel):
        try:
            return fn(*args)
        except Singular:
            return Singular


def hex_reference(v):
    """The bit string, coordinate 0 first, zero-padded to whole hex digits
    and read as one binary number."""
    text = "".join(str((v.word >> i) & 1) for i in range(v.length))
    text += "0" * (-len(text) % 4)
    return format(int(text, 2), f"0{len(text) // 4}x") if text else ""


def random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    return BitMatrix(rows, cols, limbs_to_words(bits_to_limbs(bits)))


class TestBitVector:
    def test_from01_round_trip(self):
        v = BitVector.from01("10110")
        assert v == BitVector(5, 0b01101)
        assert v.to01() == "10110"
        assert v.word.bit_count() == 3

    @given(st.integers(0, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    @example((0, 0))
    def test_bit_strings_match_the_bit_loop(self, vector):
        length, word = vector
        v = BitVector(length, word)
        text = "".join(str((word >> i) & 1) for i in range(length))
        assert v.to01() == text
        assert BitVector.from01(text) == v
        assert v.to_hex() == hex_reference(v)

    def test_xor_is_addition(self):
        a = BitVector.from01("1100")
        b = BitVector.from01("1010")
        assert (a ^ b).to01() == "0110"

    def test_length_checks(self):
        with pytest.raises(LengthMismatch):
            BitVector(3) ^ BitVector(4)
        with pytest.raises(ValueError):
            BitVector(2, 4)

    def test_hex_convention(self):
        # Coordinate 0 is the most-significant bit of the first hex digit.
        assert BitVector(9, 1).to_hex() == "800"
        assert BitVector(9, 1 << 8).to_hex() == "008"
        assert BitVector(4, (1 << 4) - 1).to_hex() == "f"
        assert BitVector.from01("101101000").to_hex() == "b40"
        for length in range(13):
            for word in range(1 << length):
                v = BitVector(length, word)
                assert v.to_hex() == hex_reference(v)


class TestRowReduce:
    def test_identity_already_reduced(self):
        m = BitMatrix.identity(3)
        rref, pivots = row_reduce(m)
        assert rref == m
        assert pivots == (0, 1, 2)

    def test_dependent_rows(self):
        # Third row is the XOR of the first two, so the rank drops to 2.
        rows = [BitVector.from01("110"), BitVector.from01("011"), BitVector.from01("101")]
        assert (rows[0] ^ rows[1]) == rows[2]
        rref, pivots = row_reduce(BitMatrix.from_rows(rows, 3))
        assert pivots == (0, 1)
        assert [rref.row(i).to01() for i in range(3)] == ["101", "011", "000"]

    def test_zero_matrix(self):
        m = BitMatrix(2, 4, (0, 0))
        rref, pivots = row_reduce(m)
        assert rref == m
        assert pivots == ()

    @given(bit_matrices())
    def test_idempotent(self, m):
        rref, pivots = row_reduce(m)
        again, pivots2 = row_reduce(rref)
        assert again == rref
        assert pivots2 == pivots


class TestEliminationKernel:
    """The lowest-bit pivot kernel against the column sweep, on row reduction
    and on the augmented columns that :func:`invert_columns` reads."""

    @given(shaped_matrices())
    @example(random_matrix(64, 12, 2))
    @example(BitMatrix(64, 12, (0b1000_0000_0001,) * 64))
    def test_row_reduce_matches(self, m):
        assert row_reduce(m) == outcome(row_reduce, m, reference=True)

    @given(shaped_matrices(), st.permutations(range(130)))
    @example(BitMatrix.identity(12), list(range(130)))
    def test_invert_columns_matches(self, m, order):
        cols = [j for j in order if j < m.cols][: m.rows]
        if len(cols) < m.rows:
            return
        assert outcome(invert_columns, m, cols) == outcome(invert_columns, m, cols, reference=True)


def dense_unitriangular(n, seed):
    """An n x n matrix with row i holding bit i and random bits above it, so
    its RREF is the identity and back-substitution visits many pivots."""
    rng = np.random.default_rng(seed)
    words = [(1 << i) | (int.from_bytes(rng.bytes(n // 8 + 1), "little") << (i + 1)) & ((1 << n) - 1)
             for i in range(n)]
    return BitMatrix(n, n, tuple(words))


class TestBackSubstitutionWalk:
    """:func:`gf2._eliminate` walks only the set later-pivot bits of each row
    and :func:`nullspace_basis` reads the RREF rows' free bits: dense cases
    against the column sweep, and the nullspace word for word against the
    per-pivot scan."""

    @pytest.mark.parametrize(
        "m", (dense_unitriangular(96, 0), dense_unitriangular(130, 1), random_matrix(40, 130, 3))
    )
    def test_dense_rref_matches_the_column_sweep(self, m):
        assert row_reduce(m) == outcome(row_reduce, m, reference=True)

    @pytest.mark.parametrize("m, cols", (
        (dense_unitriangular(64, 2), list(range(64))),
        (dense_unitriangular(12, 3), list(reversed(range(12)))),
        (random_matrix(20, 40, 4), list(range(0, 40, 2))),
    ))
    def test_augmented_tail_rides_along(self, m, cols):
        got = outcome(invert_columns, m, cols)
        assert got == outcome(invert_columns, m, cols, reference=True)
        if got is not Singular:
            assert got @ m.take_columns(cols) == BitMatrix.identity(m.rows)

    @given(bit_matrices(max_rows=12, max_cols=40))
    @example(BitMatrix.identity(7))  # full rank: no free column
    @example(dense_unitriangular(20, 4))
    @example(BitMatrix(0, 6, ()))  # no rows: the whole space
    @example(BitMatrix(0, 0, ()))
    @example(random_matrix(12, 40, 5))
    def test_nullspace_matches_the_per_pivot_scan(self, m):
        assert nullspace_basis(m) == nullspace_reference(m)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(5)) == 5

    def test_all_ones(self):
        assert rank(BitMatrix(3, 3, (7, 7, 7))) == 1

    def test_berman_spanning_set(self):
        # Rank of the n=3, m=2 weight-{1,2} indicator set equals the family
        # dimension formula value, 8.
        from bermanpir.berman import all_tuples, c_vector, tuple_weight

        rows = [c_vector(3, 2, t) for t in all_tuples(3, 2) if 1 <= tuple_weight(t) <= 2]
        assert len(rows) == 8
        assert rank(BitMatrix.from_rows(rows, 9)) == 8


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert nullspace_basis(BitMatrix.identity(4)).rows == 0

    def test_single_parity_row(self):
        m = BitMatrix.from_rows([BitVector.from01("1111")], 4)
        basis = nullspace_basis(m)
        assert basis.rows == 3
        # Exhaustive: every span element is orthogonal to the parity row.
        from oracles import exhaustive_span

        for w in exhaustive_span(4, [basis.row(i) for i in range(3)]):
            assert m.mul_vector(BitVector(4, w)).word == 0
        assert rank(basis) == 3

    def test_nullspace_realizes_duality(self):
        from bermanpir.berman import BermanParams, build

        g = build(BermanParams.parse("DBer(2,1,2)")).generator
        dual_gen = nullspace_basis(g)
        ber = build(BermanParams.parse("Ber(2,1,2)"))
        assert all(ber.contains(dual_gen.row(i)) for i in range(dual_gen.rows))
        assert rank(dual_gen) == ber.dimension

    @given(bit_matrices())
    def test_rank_nullity_and_orthogonality(self, m):
        basis = nullspace_basis(m)
        assert rank(m) + basis.rows == m.cols
        for i in range(basis.rows):
            assert m.mul_vector(basis.row(i)).word == 0


class TestInvertColumns:
    def test_identity(self):
        m = BitMatrix.identity(4)
        assert invert_columns(m, [0, 1, 2, 3]) == m

    def test_self_inverse(self):
        m = BitMatrix.from_rows([BitVector.from01("11"), BitVector.from01("01")], 2)
        inv = invert_columns(m, [0, 1])
        assert inv == m
        assert m @ inv == BitMatrix.identity(2)

    def test_singular_selection(self):
        m = BitMatrix.from_rows([BitVector.from01("110"), BitVector.from01("111")], 3)
        with pytest.raises(Singular):
            invert_columns(m, [0, 1])

    def test_wrong_count(self):
        with pytest.raises(LengthMismatch):
            invert_columns(BitMatrix.identity(3), [0, 1])

    @given(st.integers(1, 5), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
    def test_inverse_property(self, n, ops):
        # Random row operations on the identity always yield an invertible matrix.
        words = [1 << i for i in range(n)]
        for i, j in ops:
            if i % n != j % n:
                words[i % n] ^= words[j % n]
        m = BitMatrix(n, n, tuple(words))
        cols = list(range(n))
        assert m @ invert_columns(m, cols) == BitMatrix.identity(n)

    @given(bit_matrices(max_rows=5, max_cols=7), st.permutations(range(7)))
    def test_singular_iff_rank_deficient(self, m, order):
        cols = [j for j in order if j < m.cols][: m.rows]
        if len(cols) < m.rows:
            return
        if rank(m.take_columns(cols)) < m.rows:
            with pytest.raises(Singular):
                invert_columns(m, cols)
        else:
            assert m.take_columns(cols) @ invert_columns(m, cols) == BitMatrix.identity(m.rows)


class TestBulkKernels:
    """The limb kernels against their loop definitions, across limb widths."""

    @given(bit_matrices(max_rows=70, max_cols=130))
    @example(BitMatrix(0, 0, ()))
    @example(BitMatrix(0, 9, ()))
    @example(BitMatrix(5, 0, (0,) * 5))
    @example(random_matrix(6, 13, 0))
    @example(random_matrix(70, 129, 1))
    def test_transpose_matches_column_scan(self, m):
        t = m.transpose()
        assert t == transpose_reference(m)
        assert t.transpose() == m

    @pytest.mark.parametrize("k", (0, 1, 8, 9, 63, 64, 65, 70, 130))
    @given(rows=st.integers(0, 12), cols=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    @example(rows=3, cols=64, seed=0)
    @example(rows=3, cols=65, seed=1)
    @example(rows=3, cols=128, seed=2)
    def test_table_product_matches_row_xor(self, k, rows, cols, seed):
        a = random_matrix(rows, k, seed)
        b = random_matrix(k, cols, seed + 1)
        assert a @ b == matmul_reference(a, b)

    def test_table_product_at_the_length_guard(self):
        # 4096 columns, the longest code ``berman.build`` accepts: 64 limbs.
        a = random_matrix(9, 21, 3)
        b = random_matrix(21, 4096, 4)
        assert a @ b == matmul_reference(a, b)

    @pytest.mark.parametrize("gather_bytes", (8, 24, 512))
    @pytest.mark.parametrize("rows, k, cols", ((13, 22, 64), (7, 70, 130), (0, 9, 5), (5, 0, 65)))
    def test_table_product_in_row_blocks(self, gather_bytes, rows, k, cols):
        # Blocks of one row and more, a short last block, and rows wider
        # than a block still give the row-XOR product.
        a = random_matrix(rows, k, rows + k)
        b = random_matrix(k, cols, cols)
        with mock.patch.object(gf2, "GATHER_BYTES", gather_bytes):
            assert a @ b == matmul_reference(a, b)

    def test_table_product_holds_one_span_table_at_a_time(self, monkeypatch):
        # k = 70 rows: ceil(70 / 8) = 9 groups, each tabulated once, and each
        # table gone before the next group's is built.
        a = random_matrix(5, 70, 1)
        b = random_matrix(70, 130, 2)
        built = []
        honest = gf2.span_table

        def counting(rows):
            assert all(ref() is None for ref in built), "an earlier group's table is still held"
            table = honest(rows)
            built.append(weakref.ref(table))
            return table

        monkeypatch.setattr(gf2, "span_table", counting)
        assert a @ b == matmul_reference(a, b)
        assert len(built) == -(-70 // 8) == 9

    @pytest.mark.parametrize("rows, k, cols", ((3, 0, 70), (0, 9, 70), (3, 9, 0), (0, 0, 0)))
    def test_empty_table_products(self, rows, k, cols):
        # No rows, no columns, or k = 0: products start from np.empty and the
        # first group writes them, so with no group at all they must still
        # come back zero.  A freed block of ones sits where np.empty may
        # hand it out again.
        a, b = random_matrix(rows, k, 1), random_matrix(k, cols, 2)
        ones = np.full(2 * rows * ((cols + 63) // 64), np.iinfo(np.uint64).max, dtype=np.uint64)
        del ones
        assert a @ b == BitMatrix(rows, cols, (0,) * rows)
        rng = np.random.Generator(np.random.Philox(key=5))
        before = philox_state(rng)
        product = gf2.draw_product(rng, 2, rows, b.limbs)
        assert product.shape == (2 * rows, (cols + 63) // 64)
        if not k:
            assert not product.any()
            assert philox_state(rng) == before

    def test_table_product_shape_check(self):
        with pytest.raises(LengthMismatch):
            BitMatrix(2, 3, (0, 0)) @ BitMatrix(2, 3, (0, 0))

    # Bit rows pack to row words through limbs: entry [i, j] becomes bit j of word i.
    def test_pack_bit_rows_little_endian(self):
        bits = np.array([[1, 0, 0, 0, 0, 0, 0, 0, 1], [0, 1, 1, 0, 0, 0, 0, 0, 0]], dtype=np.uint8)
        assert limbs_to_words(bits_to_limbs(bits)) == (0b1_0000_0001, 0b110)
        assert limbs_to_words(bits_to_limbs(np.zeros((3, 0), dtype=np.uint8))) == (0, 0, 0)

    @pytest.mark.parametrize("cols", (63, 64, 65, 128, 129))
    def test_pack_bit_rows_across_limbs(self, cols):
        bits = np.random.default_rng(cols).integers(0, 2, size=(7, cols), dtype=np.uint8)
        bits[0] = 1  # every bit of a row set, the top limb included
        words = limbs_to_words(bits_to_limbs(bits))
        assert words == tuple(sum(int(b) << j for j, b in enumerate(row)) for row in bits)
        limbs = words_to_limbs(words, cols)
        assert limbs.shape == (7, (cols + 63) // 64)
        assert limbs_to_words(limbs) == words

    @pytest.mark.parametrize(
        "cols",
        ((), (5,), (3, 0, 2), (2, 2, 0, 2), (64, 1, 129, 63, 64), tuple(range(129, -1, -1))),
    )
    def test_take_columns_matches_bit_loop(self, cols):
        m = random_matrix(11, 130, 7)
        assert m.take_columns(cols) == take_columns_reference(m, cols)

    @pytest.mark.parametrize("cols", ((130,), (-1,), (0, 200)))
    def test_take_columns_range_check(self, cols):
        with pytest.raises(IndexError):
            random_matrix(3, 130, 0).take_columns(cols)


def philox_state(rng):
    """The generator's whole state as plain values.  The saved half word
    ``uinteger`` is dropped while ``has_uint32`` is clear: Philox reads it
    only when that flag is set, so a stale value there is never drawn."""
    state = dict(rng.bit_generator.state)
    state["state"] = {k: np.asarray(v).tolist() for k, v in state["state"].items()}
    state["buffer"] = state["buffer"].tolist()
    if not state["has_uint32"]:
        del state["uinteger"]
    return state


def separate_draws(rng, calls, rows, cols):
    """``calls`` separate uint8 bit draws, stacked, as the documented stream makes them."""
    want = [rng.integers(0, 2, size=(rows, cols), dtype=np.uint8) for _ in range(calls)]
    return np.concatenate(want) if want else np.zeros((0, cols), np.uint8)


class TestDrawBitLimbs:
    """One whole-word draw against ``calls`` separate uint8 bit draws."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        rows=st.integers(0, 12),
        cols=st.integers(0, 80),
        calls=st.integers(0, 5),
        pre=st.lists(st.integers(0, 9), max_size=2),
    )
    @example(seed=2**64 - 1, rows=3, cols=5, calls=3, pre=[1])  # 4 words per call, a half word carried in
    @example(seed=0, rows=2, cols=6, calls=5, pre=[])  # 3 words per call: every other call starts on a half
    @example(seed=5, rows=7, cols=11, calls=2, pre=[4, 9])
    @example(seed=9, rows=5632, cols=22, calls=1, pre=[])  # a retrieve_wide query batch
    @example(seed=9, rows=22, cols=7, calls=256, pre=[])  # retrieve_wide's 256 files
    # 1 + 2 * 6 words: a carried half first, five 64-bit draws, one odd last word.
    @example(seed=11, rows=3, cols=8, calls=2, pre=[1])
    # The byte index: one short group (cols < 8), whole groups only (cols % 8
    # == 0), rows * cols % 8 != 0 so rows start mid-word, and the last row's
    # last group reading past the words into the buffer's slack.
    @example(seed=12, rows=5, cols=3, calls=1, pre=[])
    @example(seed=13, rows=4, cols=16, calls=3, pre=[])
    @example(seed=14, rows=3, cols=11, calls=2, pre=[3])
    @example(seed=15, rows=2, cols=3, calls=1, pre=[])  # 6 bits in 8 bytes; the last row reads bytes 3 to 10
    @example(seed=16, rows=1, cols=65, calls=1, pre=[])  # the ninth group, bit 64, is alone in its limb
    def test_matches_separate_uint8_draws(self, seed, rows, cols, calls, pre):
        batched = np.random.Generator(np.random.Philox(key=seed))
        separate = np.random.Generator(np.random.Philox(key=seed))
        for size in pre:  # an odd number of 32-bit words leaves half a Philox output
            batched.integers(0, 256, size=size, dtype=np.uint8)
            separate.integers(0, 256, size=size, dtype=np.uint8)
        limbs = draw_bit_limbs(batched, calls, rows, cols)
        want = separate_draws(separate, calls, rows, cols)
        assert limbs.shape == (calls * rows, (cols + 63) // 64)
        bits = np.unpackbits(limbs.view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, cols:].any()
        assert np.array_equal(bits[:, :cols], want)
        # Both leave the generator in the same state, with the same half of a
        # Philox output carried (a uint32 draw takes it first).
        assert philox_state(batched) == philox_state(separate)
        assert batched.integers(0, 1 << 32, dtype=np.uint32) == separate.integers(0, 1 << 32, dtype=np.uint32)
        assert batched.integers(0, 2**63) == separate.integers(0, 2**63)

    @pytest.mark.parametrize("gather_bytes, draw_bytes", ((8, 8), (24, 24), (gf2.GATHER_BYTES, gf2.DRAW_BYTES)))
    @given(
        seed=st.integers(0, 2**64 - 1),
        rows=st.integers(0, 12),
        k=st.integers(0, 70),
        cols=st.integers(0, 130),
        calls=st.integers(0, 3),
        pre=st.integers(0, 3),
    )
    @example(seed=3, rows=5632, k=22, cols=64, calls=1, pre=0)  # a retrieve_wide query batch
    @example(seed=4, rows=2, k=3, cols=5, calls=1, pre=1)  # the last row's group reads the slack
    @example(seed=5, rows=3, k=16, cols=9, calls=2, pre=0)
    @example(seed=6, rows=5, k=22, cols=256, calls=2, pre=1)  # four limbs per row
    def test_raw_byte_product_matches_row_xor(self, gather_bytes, draw_bytes, seed, rows, k, cols, calls, pre):
        # The product drawn straight into the table lookups equals the
        # row-XOR product of the separate uint8 draws.  With DRAW_BYTES = 8
        # every call is its own block of the draw, so a carried half word
        # passes from block to block.
        batched = np.random.Generator(np.random.Philox(key=seed))
        separate = np.random.Generator(np.random.Philox(key=seed))
        batched.integers(0, 256, size=pre, dtype=np.uint8)
        separate.integers(0, 256, size=pre, dtype=np.uint8)
        left = BitMatrix(calls * rows, k, limbs_to_words(bits_to_limbs(separate_draws(separate, calls, rows, k))))
        right = random_matrix(k, cols, seed % 2**32)
        with mock.patch.multiple(gf2, GATHER_BYTES=gather_bytes, DRAW_BYTES=draw_bytes):
            product = BitMatrix.from_limbs(gf2.draw_product(batched, calls, rows, right.limbs), cols)
        assert product == matmul_reference(left, right)
        assert philox_state(batched) == philox_state(separate)


class TestLimbBackedMatrix:
    """A matrix built from limbs keeps them and derives its row words lazily;
    it must behave exactly like its twin built from the same row words."""

    @pytest.mark.parametrize("cols", (1, 63, 65, 130))
    def test_from_limbs_rejects_bits_beyond_cols(self, cols):
        width = (cols + 63) // 64
        for bit in (cols, 64 * width - 1):
            limbs = np.zeros((3, width), dtype=np.uint64)
            limbs[1, bit // 64] = np.uint64(1) << np.uint64(bit % 64)
            with pytest.raises(ValueError, match="row word has bits beyond the column count"):
                BitMatrix.from_limbs(limbs, cols)

    @pytest.mark.parametrize("cols", (64, 128))
    def test_from_limbs_accepts_full_limbs(self, cols):
        limbs = np.full((4, cols // 64), np.iinfo(np.uint64).max, dtype=np.uint64)
        m = BitMatrix.from_limbs(limbs, cols)
        assert m.row_words == ((1 << cols) - 1,) * 4
        assert not m.limbs.flags.writeable

    @pytest.mark.parametrize("cols", (0, 1, 63, 64, 65, 128, 130))
    def test_from_limbs_accepts_zero_rows(self, cols):
        m = BitMatrix.from_limbs(np.zeros((0, (cols + 63) // 64), dtype=np.uint64), cols)
        assert m == BitMatrix(0, cols, ())

    def test_from_limbs_shape_checks(self):
        with pytest.raises(LengthMismatch):
            BitMatrix.from_limbs(np.zeros((2, 1), dtype=np.uint64), 65)
        with pytest.raises(LengthMismatch):
            BitMatrix.from_limbs(np.zeros(2, dtype=np.uint64), 5)
        with pytest.raises(ValueError):
            BitMatrix.from_limbs(np.zeros((2, 1), dtype=np.uint32), 5)

    def test_immutable(self):
        m = random_matrix(3, 70, 0)
        with pytest.raises(AttributeError):
            m.rows = 4
        with pytest.raises(AttributeError):
            del m.cols

    @given(
        rows=st.integers(0, 12),
        cols=st.integers(0, 200),
        inner=st.integers(0, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=0, cols=0, inner=0, seed=0)
    @example(rows=5, cols=64, inner=64, seed=1)
    @example(rows=12, cols=200, inner=65, seed=2)
    def test_limb_and_word_twins_agree(self, rows, cols, inner, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        limbs = gf2.bits_to_limbs(bits)
        words = BitMatrix(rows, cols, limbs_to_words(limbs))

        def built():  # a fresh limb-built matrix, so no word form exists yet
            return BitMatrix.from_limbs(limbs.copy(), cols)

        assert "row_words" not in vars(built())
        assert built() == words and words == built()
        assert hash(built()) == hash(words)
        assert built().row_words == words.row_words
        assert np.array_equal(words.limbs, limbs)
        if rows and cols:
            for i, j in zip(rng.integers(0, rows, 8).tolist(), rng.integers(0, cols, 8).tolist()):
                assert built().row_words[i] >> j & 1 == int(words.limbs[i, j >> 6]) >> (j & 63) & 1
        right = random_matrix(cols, inner, seed + 1)
        assert built() @ right == words @ right
        left = random_matrix(inner, rows, seed + 2)
        assert left @ built() == left @ words
        assert built().transpose() == words.transpose()
        picked = rng.integers(0, cols, size=min(cols, 9)).tolist() if cols else []
        assert built().take_columns(picked) == words.take_columns(picked)
        v, u = (random_matrix(1, n, seed + 3).row(0) for n in (rows, cols))
        assert built().left_mul(v) == words.left_mul(v)
        assert built().mul_vector(u) == words.mul_vector(u)


class TestMatrixInvariant:
    @pytest.mark.parametrize(
        "rows, cols, words",
        (
            (2, 3, (1, -1)),  # negative word
            (2, 3, (0b111, 0b1000)),  # a bit at column index `cols`
            (3, 3, (0, 1)),  # fewer words than rows
        ),
    )
    def test_rejects_bad_row_words(self, rows, cols, words):
        with pytest.raises(ValueError):
            BitMatrix(rows, cols, words)
