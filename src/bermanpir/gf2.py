"""Dense GF(2) linear algebra on word-packed bit vectors and matrices.

A vector stores all of its bits in a single Python integer (bit ``i`` of the
word is coordinate ``i``), so vector addition is one XOR and Hamming weight
is ``int.bit_count()``.  Everything is immutable; operations are pure
functions and safe to share across threads.

Bulk kernels run on NumPy *limbs*: a matrix's rows as a little-endian
``uint64`` array of shape ``(rows, ceil(cols / 64))``, bit ``j`` of a row in
bit ``j % 64`` of limb ``j // 64``.  :func:`words_to_limbs` and
:func:`limbs_to_words` convert between the two forms, and
:func:`bits_to_limbs` packs a 0/1 array.  Uniform bits are never unpacked:
one generator, :func:`_draw_groups`, takes whole 64-bit Philox outputs, one
``random_raw`` read per block of calls, and packs each row's bits a byte at
a time straight from the generator's bytes, and two consumers spend those
bytes: :func:`draw_bit_limbs` writes them into
limbs, and :func:`draw_product` looks them up in a product's tables.  A
:class:`BitMatrix` holds row words (one word per row) or limbs, whichever it
was built from, and derives the other form lazily the first time something
reads it, so a matrix that only feeds limb kernels is never converted to
words.  Matrix products use the "method of four Russians": the right
operand's rows are grouped eight at a time, each group's 256 XOR
combinations are tabulated once, and every output row then gathers one
table row per group, indexed by the matching byte of the left operand's
row, a block of rows at a time.  One helper, :func:`_gather_xor`, does
every such lookup; its bytes come from the left operand's limbs
(:func:`limb_product`) or, for random queries, straight from the draw
(:func:`draw_product`).  The first group's lookup writes the output rows,
so no product zeroes its output first, and each later group gathers into
one scratch block of rows, allocated once per product, and XORs it into
them in place, so no group allocates a temporary.
:func:`draw_product` reads every group's table for every block of the
draw, so it builds them all in one stacked :func:`span_table`: its eight
doubling steps run once per product, not once per group.
:func:`limb_product` reads each table once, so it keeps one at a time.
Transposes and column selections unpack to a 0/1 array, index it, and pack.

Row reduction has one kernel, :func:`_eliminate`, which brings whole rows to
reduced row-echelon form in two steps: each row is reduced against the
pivot rows kept so far (:func:`reduce_word`), and one back-substitution
(:func:`back_substitute`) clears the pivot columns above each kept row.
:func:`row_reduce` and :func:`nullspace_basis` read that form, and
:func:`invert_columns` reads an inverse off the RREF of ``[A | I]``.  Two
callers take the second step alone: :func:`.star.star_codes`, which holds
reduced pivot rows, and :func:`.berman.build`, whose basis words, reflected
for Ber, are already in echelon form.  Each operation has one implementation:
``left_mul`` is a one-row product and ``column_word`` a row of the
transpose.

The module defines only what the package, its demos and its benchmark
harness call.  Operations that only the tests need (rank, a dot product, a
single entry) are one integer expression or live in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class LengthMismatch(ValueError):
    """Operands have incompatible lengths or shapes."""


class Singular(ValueError):
    """The selected square submatrix is not invertible."""


#: Element type of a limb array: 64 bits of a row, least significant first.
LIMB = np.dtype("<u8")
_LIMB_MASK = (1 << 64) - 1


def words_to_limbs(words: Sequence[int], cols: int) -> np.ndarray:
    """Row words of ``cols`` bits as a ``len(words) x ceil(cols/64)`` limb array."""
    width = (cols + 63) // 64
    limbs = np.empty((len(words), width), dtype=LIMB)
    rest = words
    for i in range(width - 1):
        limbs[:, i] = [w & _LIMB_MASK for w in rest]
        rest = [w >> 64 for w in rest]
    if width:
        limbs[:, -1] = rest
    return limbs


def limbs_to_words(limbs: np.ndarray) -> tuple[int, ...]:
    """Inverse of :func:`words_to_limbs`: one Python integer per limb row."""
    rows, width = limbs.shape
    if not width:
        return (0,) * rows
    words = limbs[:, -1].tolist()
    for i in range(width - 2, -1, -1):
        words = [w << 64 | x for w, x in zip(words, limbs[:, i].tolist())]
    return tuple(words)


def bits_to_limbs(bits: np.ndarray) -> np.ndarray:
    """Limbs of a 2-D 0/1 array: entry ``[i, j]`` becomes bit ``j`` of row ``i``.

    The rows are zero-padded to whole limbs first, so one flat ``packbits``
    packs them all."""
    rows, cols = bits.shape
    width = (cols + 63) // 64
    padded = np.zeros((rows, 64 * width), dtype=np.uint8)
    padded[:, :cols] = bits
    return np.packbits(padded, bitorder="little").view(LIMB).reshape(rows, width)


#: ``(w & _TOP_BITS) * _GATHER_TOP >> 56`` packs the top bits of the eight
#: little-endian bytes of the 64-bit word ``w`` into one byte, byte 0's bit
#: lowest: byte k's top bit, 8k + 7, moves up by 7(7 - k) to 56 + k.
_TOP_BITS = LIMB.type(0x8080808080808080)
_GATHER_TOP = LIMB.type(0x0002040810204081)


#: Bytes of generator words that one block of :func:`_draw_groups` holds (or
#: one call's words, if more).  Its packing reads the block once per eight
#: columns, so the block is kept small enough to stay in cache.  The block's
#: raw 64-bit outputs are drawn at most this many bytes at a time, so the
#: generator's output array is never a second copy of a large block.
DRAW_BYTES = 1 << 17


def _draw_groups(rng: np.random.Generator, calls: int, rows: int, cols: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The packed bits of ``calls`` consecutive ``rng.integers(0, 2, (rows,
    cols), uint8)`` draws, stacked into ``calls * rows`` rows, one group of
    eight columns of one block of calls at a time: each item is ``(start,
    g, index)``, where ``index[r]`` holds bits ``8g`` to ``8g + 7`` of row
    ``start + r``, lowest first, zero past ``cols``.  ``index`` is a uint64
    array that the next item overwrites, so a consumer uses it before asking
    for more.  Group 0 of a block comes first, and the first block is the
    longest.

    Each such uint8 call takes ``ceil(rows * cols / 4)`` fresh 32-bit words
    from the generator and spends them a byte at a time, least significant
    byte first; for a range of two, Lemire's multiply returns the byte's top
    bit and never rejects.  So bit ``j`` of row ``i`` of a call is the top
    bit of byte ``i * cols + j`` of its words.  Philox hands out 32-bit words
    as the low, then the high half of each 64-bit output, and carries an
    unused high half (``has_uint32`` in its state) from one call to the next.
    So the same words come from whole 64-bit outputs, split into halves: a
    carried half is taken first with one uint32 draw, then every pair of
    words is one raw output (``random_raw``), and an odd last word is one
    more uint32 draw, whose high half the generator carries on exactly as
    the uint8 calls would.  The state is read once per call: a block leaves
    a half carried iff it drew an odd last word, since raw outputs leave the
    carry alone.  Group ``g`` of row ``i`` is then the top bits of the 8
    bytes from ``i * cols + 8g`` on, read as one unaligned word, under a
    mask formed once per call; the last group of a row masks off the next
    row's bytes, and 8 bytes of slack after the words hold the last row's
    overhang.  The calls are drawn in blocks of at most :data:`DRAW_BYTES`
    of words (at least one call each), so the scratch memory does not grow
    with their number, and a block's raw outputs are one ``random_raw``
    read when they fit in that bound, as one call of a retrieval's queries
    does.  Each read's output array is dropped as soon as it is copied into
    the words, not held while the block is packed: held, it lifted a
    retrieval's transient heap far enough that, for some environment sizes,
    glibc trimmed and refaulted the heap on every op."""
    per_call = -(-rows * cols // 4)
    if not per_call * calls:
        return
    step = min(calls, max(1, DRAW_BYTES // (4 * per_call)))
    raw_step = max(1, DRAW_BYTES // 8)
    buf = np.empty(4 * per_call * step + 8, dtype=np.uint8)
    packed = np.empty(step * rows, dtype=LIMB)
    masks = [_TOP_BITS & LIMB.type((1 << 8 * min(8, cols - g)) - 1) for g in range(0, cols, 8)]
    lanes = np.ndarray((step, rows, len(masks)), dtype="<u8", buffer=buf, strides=(4 * per_call, cols, 8))
    carried = rng.bit_generator.state["has_uint32"]
    for lo in range(0, calls, step):
        n = min(step, calls - lo)
        count = n * per_call
        buf[4 * count : 4 * count + 8] = 0
        words = buf[: 4 * count].view("<u4")
        if carried:
            words[:1] = rng.integers(0, 1 << 32, size=1, dtype=np.uint32)
        pairs, odd = divmod(count - carried, 2)
        for at in range(0, pairs, raw_step):
            size = min(raw_step, pairs - at)
            words[carried + 2 * at : carried + 2 * (at + size)].view("<u8")[:] = rng.bit_generator.random_raw(size)
        if odd:
            words[-1:] = rng.integers(0, 1 << 32, size=1, dtype=np.uint32)
        carried = odd
        index = packed[: n * rows]
        for g, mask in enumerate(masks):
            np.bitwise_and(lanes[:n, :, g], mask, out=index.reshape(n, rows))
            index *= _GATHER_TOP
            index >>= 56
            yield lo * rows, g, index


def draw_bit_limbs(rng: np.random.Generator, calls: int, rows: int, cols: int) -> np.ndarray:
    """The limbs of ``calls`` consecutive ``rng.integers(0, 2, (rows, cols),
    uint8)`` draws, stacked into ``calls * rows`` rows, each limb byte written
    straight from the generator's words by :func:`_draw_groups`."""
    limbs = np.zeros((calls * rows, (cols + 63) // 64), dtype=LIMB)
    out = limbs.view(np.uint8)
    for start, g, index in _draw_groups(rng, calls, rows, cols):
        out[start : start + len(index), g] = index
    return limbs


def _limbs_to_bits(limbs: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`bits_to_limbs`: a ``rows x cols`` uint8 array."""
    return np.unpackbits(limbs.view(np.uint8), axis=1, count=cols, bitorder="little")


def take_bits(limbs: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> list[int]:
    """Bit ``cols[i]`` of row ``rows[i]`` of ``limbs``, for every ``i``, in one gather."""
    cols = np.asarray(cols, dtype=LIMB)
    limbs = limbs[np.asarray(rows, dtype=np.intp), cols >> 6]
    return ((limbs >> (cols & 63)) & 1).tolist()


def span_table(rows: np.ndarray) -> np.ndarray:
    """Every XOR combination of the limb rows ``rows``: entry ``x`` of the
    ``2^len(rows)``-row table is the XOR of the rows that the bits of ``x``
    select, so entry 0 is zero.  A stack of equally many rows per group,
    shape ``(groups, r, W)``, gives one table per group, all built by the
    same ``r`` doubling steps."""
    r = rows.shape[-2]
    table = np.empty((*rows.shape[:-2], 1 << r, rows.shape[-1]), dtype=LIMB)
    table[..., 0, :] = 0
    for i in range(r):
        np.bitwise_xor(table[..., : 1 << i, :], rows[..., i, None, :], out=table[..., 1 << i : 2 << i, :])
    return table


#: Bytes of output rows that one gather of :func:`_gather_xor` fills, so its
#: scratch memory does not grow with the height of the left operand.
GATHER_BYTES = 1 << 18


def _gather_rows(width: int) -> int:
    """Rows of ``width`` limbs that one gather of :func:`_gather_xor` fills."""
    return max(1, GATHER_BYTES // (8 * max(1, width)))


def _gather_xor(out: np.ndarray, table: np.ndarray, index: np.ndarray, scratch: np.ndarray | None) -> None:
    """``out[r] ^= table[index[r]]`` for every row ``r`` of the limb array
    ``out``: the four-Russians lookup of one group, gathered with the
    table's ``take`` for at most :func:`_gather_rows` output rows at a time.
    The first group of a product passes no ``scratch`` and writes its rows
    instead, so ``out`` may start uninitialised and is never zeroed; every
    later group gathers into the first rows of ``scratch``, a limb array of
    at least ``min(len(out), _gather_rows(W))`` rows that the product
    allocates once, and XORs them in place, so no group makes a temporary.
    ``mode="clip"`` lets ``take`` write into its ``out`` unbuffered, and no
    index is out of range to clip.  ``take`` is fastest on intp indexes, so
    any other index type is cast one block at a time."""
    block = _gather_rows(out.shape[1])
    for lo in range(0, len(index), block):
        part = out[lo : lo + block]  # a view: `out[...] ^=` would copy the block back onto itself
        rows = index[lo : lo + block].astype(np.intp, copy=False)
        if scratch is None:
            table.take(rows, axis=0, out=part, mode="clip")
        else:
            part ^= table.take(rows, axis=0, out=scratch[: len(part)], mode="clip")


def limb_product(index: np.ndarray, right: np.ndarray) -> np.ndarray:
    """GF(2) product of a ``rows x k`` left operand, given by its packed bytes,
    and the ``k x W`` limb array ``right``.

    ``index[g]`` holds byte ``g`` of every row of the left operand: its bits
    ``8g`` to ``8g + 7``, zero past ``k``, so a short last group's byte never
    indexes past its table.  The bytes are the left operand's limb bytes
    (``BitMatrix @``).  Each group of eight rows of ``right`` gets its
    :func:`span_table`, which :func:`_gather_xor` reads once and which is
    dropped before the next group's is built, so a long ``right`` never has
    all its tables held at once.  The groups after the first share one
    scratch block of output rows, allocated only if there are any.  With
    ``k = 0`` the product is zero.
    """
    shape = (index.shape[1], right.shape[1])
    if not len(right):
        return np.zeros(shape, dtype=LIMB)
    out = np.empty(shape, dtype=LIMB)
    scratch = np.empty((min(shape[0], _gather_rows(shape[1])), shape[1]), dtype=LIMB) if len(right) > 8 else None
    for g in range(0, len(right), 8):
        _gather_xor(out, span_table(right[g : g + 8]), index[g >> 3], scratch if g else None)
    return out


def draw_product(rng: np.random.Generator, calls: int, rows: int, right: np.ndarray) -> np.ndarray:
    """The GF(2) product of ``calls`` consecutive ``rng.integers(0, 2, (rows,
    k), uint8)`` draws, stacked into ``calls * rows`` rows, and the ``k x W``
    limb array ``right``, without holding the drawn bits.

    Every group's table is built at once: ``right``, zero-padded to whole
    groups of eight rows (or its k rows if fewer), goes through one stacked
    :func:`span_table`, eight doubling steps in all rather than eight per
    group.  :func:`_draw_groups` hands over the packed bits of each block of
    drawn rows, one byte per group of each row, and :func:`_gather_xor`
    looks them up in the group's table; group 0 comes first in every block,
    so it writes the block's rows.  With more than one group, the later
    ones share one scratch block of output rows, sized by the first (and
    longest) block of the draw, so it never outgrows the rows it serves.
    A short last group's bytes are zero past ``k``, so they never index its
    padding.  With ``k = 0`` nothing is drawn and the product is zero.
    """
    k, width = right.shape
    if not k:
        return np.zeros((calls * rows, width), dtype=LIMB)
    size = min(8, k)
    groups = np.zeros((-(-k // size), size, width), dtype=LIMB)
    groups.reshape(len(groups) * size, width)[:k] = right
    tables = span_table(groups)
    out = np.empty((calls * rows, width), dtype=LIMB)
    scratch = None
    for start, g, index in _draw_groups(rng, calls, rows, k):
        if scratch is None and k > 8:
            scratch = np.empty((min(len(index), _gather_rows(width)), width), dtype=LIMB)
        # intp on 64-bit hosts: no cast
        _gather_xor(out[start : start + len(index)], tables[g], index.view(np.int64), scratch if g else None)
    return out


@dataclass(frozen=True)
class BitVector:
    """A length-``length`` vector over GF(2), packed into one integer."""

    length: int
    word: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")
        if self.word < 0 or self.word >> self.length:
            raise ValueError("word has bits beyond the vector length")

    @classmethod
    def from01(cls, text: str) -> BitVector:
        if set(text) - {"0", "1"}:
            raise ValueError("expected a string of '0'/'1' characters")
        return cls(len(text), int(text[::-1] or "0", 2))

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise LengthMismatch(f"{self.length} != {other.length}")
        return BitVector(self.length, self.word ^ other.word)

    def __and__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise LengthMismatch(f"{self.length} != {other.length}")
        return BitVector(self.length, self.word & other.word)

    def to01(self) -> str:
        """Coordinate 0 first: the word's binary digits, reversed."""
        return format(self.word, f"0{self.length}b")[::-1] if self.length else ""

    def to_hex(self) -> str:
        """Hex string, most-significant bit of the first digit = coordinate 0."""
        digits = -(-self.length // 4)
        return format(int(self.to01(), 2) << (4 * digits - self.length), f"0{digits}x") if digits else ""

    def __str__(self) -> str:
        return self.to01()


class BitMatrix:
    """A rows x cols matrix over GF(2), immutable.

    It holds the form it was built from, row words (one packed word per row)
    or limbs (:meth:`from_limbs`), and derives the other on first use, then
    keeps it.  Row words given as any sequence are stored as a tuple, so a
    later change to that sequence does not reach the matrix.  Equality and
    hashing mean (rows, cols, row words) either way.
    """

    rows: int
    cols: int

    def __init__(self, rows: int, cols: int, row_words: Sequence[int] = ()) -> None:
        row_words = tuple(row_words)
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        if len(row_words) != rows:
            raise ValueError("row count does not match the stored words")
        if row_words and (min(row_words) < 0 or max(row_words) >> cols):
            raise ValueError("row word has bits beyond the column count")
        state = self.__dict__
        state["rows"] = rows
        state["cols"] = cols
        state["row_words"] = row_words

    @classmethod
    def from_limbs(cls, limbs: np.ndarray, cols: int) -> BitMatrix:
        """The matrix whose rows are the limb rows of ``limbs``, which it keeps
        (read-only) as :attr:`limbs`; its row words follow on first use.

        Bits at or above ``cols`` are rejected by one test of the last limb."""
        if cols < 0:
            raise ValueError("negative shape")
        if limbs.ndim != 2 or limbs.shape[1] != (cols + 63) // 64:
            raise LengthMismatch(f"limbs of shape {limbs.shape} cannot hold rows of {cols} columns")
        if limbs.dtype != LIMB:
            raise ValueError(f"limbs must have dtype {LIMB}, not {limbs.dtype}")
        if cols % 64 and np.count_nonzero(limbs[:, -1] >> LIMB.type(cols % 64)):
            raise ValueError("row word has bits beyond the column count")
        limbs.flags.writeable = False
        m = cls.__new__(cls)
        m.__dict__.update(rows=limbs.shape[0], cols=cols, limbs=limbs)
        return m

    @cached_property
    def row_words(self) -> tuple[int, ...]:
        """One Python integer per row; derived from :attr:`limbs` when the
        matrix was built from them."""
        return limbs_to_words(self.limbs)

    @cached_property
    def limbs(self) -> np.ndarray:
        """The rows as a read-only limb array (see :func:`words_to_limbs`)."""
        limbs = words_to_limbs(self.row_words, self.cols)
        limbs.flags.writeable = False
        return limbs

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BitMatrix is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("BitMatrix is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.row_words == other.row_words

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_words))

    def __repr__(self) -> str:
        return f"BitMatrix(rows={self.rows!r}, cols={self.cols!r}, row_words={self.row_words!r})"

    @classmethod
    def from_rows(cls, rows: Sequence[BitVector], cols: int) -> BitMatrix:
        for v in rows:
            if v.length != cols:
                raise LengthMismatch(f"{v.length} != {cols}")
        return cls(len(rows), cols, tuple(v.word for v in rows))

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_words[i])

    def column_word(self, j: int) -> int:
        """Column ``j`` packed into an integer over the row index."""
        if not 0 <= j < self.cols:
            raise IndexError("column out of range")
        return self.transpose().row_words[j]

    def take_columns(self, cols: Sequence[int]) -> BitMatrix:
        """Submatrix of the listed columns, in the order given."""
        index = np.asarray(cols, dtype=np.intp)
        if index.size and (index.min() < 0 or index.max() >= self.cols):
            raise IndexError("column out of range")
        bits = _limbs_to_bits(self.limbs, self.cols)[:, index]
        return BitMatrix.from_limbs(bits_to_limbs(bits), len(index))

    def transpose(self) -> BitMatrix:
        """All columns at once: row ``j`` of the result holds column ``j``,
        bit ``i`` of it from row ``i``."""
        bits = _limbs_to_bits(self.limbs, self.cols)
        return BitMatrix.from_limbs(bits_to_limbs(bits.T), self.rows)

    def left_mul(self, v: BitVector) -> BitVector:
        """Row vector times matrix: ``v @ self`` (length = cols), as a
        one-row product."""
        return (BitMatrix(1, v.length, (v.word,)) @ self).row(0)

    def mul_vector(self, v: BitVector) -> BitVector:
        """Matrix times column vector: ``self @ v^T`` (length = rows)."""
        if v.length != self.cols:
            raise LengthMismatch(f"{v.length} != {self.cols}")
        word = 0
        for i, rw in enumerate(self.row_words):
            if (rw & v.word).bit_count() & 1:
                word |= 1 << i
        return BitVector(self.rows, word)

    def __matmul__(self, other: BitMatrix) -> BitMatrix:
        if self.cols != other.rows:
            raise LengthMismatch(f"{self.cols} != {other.rows}")
        return BitMatrix.from_limbs(limb_product(self.limbs.view(np.uint8).T, other.limbs), other.cols)

    def to_text(self) -> str:
        """Serialize: a "rows cols" header line, then one '0'/'1' row per line."""
        lines = [f"{self.rows} {self.cols}"]
        lines.extend(self.row(i).to01() for i in range(self.rows))
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.to_text().rstrip("\n")


def _eliminate(words: list[int]) -> list[int]:
    """Gauss-Jordan elimination of whole rows, in place.  Pivot row ``i`` ends
    up at index ``i`` and the rows that vanish come back as zeros after them;
    the pivot columns come back strictly increasing.

    Each row is reduced against the pivot rows kept so far, keyed by their
    lowest set bit, until it either finds a new pivot or vanishes
    (:func:`reduce_word`); :func:`back_substitute` then brings the kept rows
    to reduced row-echelon form.
    """
    basis: dict[int, int] = {}
    for w in words:
        if w := reduce_word(w, basis):
            basis[w & -w] = w
    rref = back_substitute(basis)
    words[:] = [*rref, *[0] * (len(words) - len(rref))]
    return [(w & -w).bit_length() - 1 for w in rref]


def back_substitute(basis: dict[int, int]) -> tuple[int, ...]:
    """The reduced row-echelon rows of the pivot rows ``basis``, lowest pivot
    first.  ``basis`` maps each row's lowest set bit to the row, so its rows
    are in echelon form, as the first step of :func:`_eliminate` leaves
    them or as :func:`.berman.build` finds them; it is not changed.

    One pass, highest pivot first, clears every pivot column above each
    row's own: it walks only the set bits of ``w & later``, the row's bits
    in the pivot columns above its own.  Each of those pivot rows is already
    reduced, so it has no bit in any other of those columns, and XORing it
    in clears its own bit and leaves the rest of the walk as it was.
    """
    done: dict[int, int] = {}
    later = 0
    for low in sorted(basis, reverse=True):
        w = basis[low]
        hits = w & later
        while hits:
            w ^= done[hits & -hits]
            hits &= hits - 1
        done[low] = w
        later |= low
    return tuple(reversed(done.values()))


def reduce_word(word: int, pivots: dict[int, int]) -> int:
    """``word`` with pivot rows XORed in until its lowest set bit is no key of
    ``pivots``, which maps each nonzero row's lowest set bit to the row.  Zero
    iff ``word`` lies in their span; otherwise its lowest set bit is a new pivot."""
    while (v := pivots.get(word & -word)) is not None:
        word ^= v
    return word


def row_reduce(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row-echelon form over GF(2) plus the pivot column indices.

    The row space is preserved and pivot columns are strictly increasing.
    Rows of zeros sink to the bottom.
    """
    words = list(m.row_words)
    pivots = _eliminate(words)
    return BitMatrix(m.rows, m.cols, tuple(words)), tuple(pivots)


def nullspace_basis(m: BitMatrix) -> BitMatrix:
    """A basis of ``{x : m @ x^T = 0}``, one basis vector per row.

    Row count is always ``cols - rank(m)``; for a zero-row matrix this is the
    identity (the whole space).  Free column ``f`` gives ``e_f`` plus
    ``e_p`` for every RREF row, of pivot ``p``, that has bit ``f``.  Those
    are read row by row, walking each row's set bits outside its pivot, so
    the work is the number of such bits rather than free columns times rank.
    """
    rref, pivots = row_reduce(m)
    above = [0] * m.cols  # column f: the pivots of the rows with bit f
    free = (1 << m.cols) - 1
    for p, row in zip(pivots, rref.row_words):
        pbit = 1 << p
        free ^= pbit
        rest = row ^ pbit
        while rest:
            bit = rest & -rest
            above[bit.bit_length() - 1] |= pbit
            rest ^= bit
    words = []
    while free:
        bit = free & -free
        words.append(above[bit.bit_length() - 1] | bit)
        free ^= bit
    return BitMatrix(len(words), m.cols, tuple(words))


def invert_columns(m: BitMatrix, cols: Sequence[int]) -> BitMatrix:
    """Inverse of the square submatrix ``A = m[:, cols]``, read off the right
    half of the RREF of ``[A | I]``.

    ``cols`` must list exactly ``m.rows`` column indices (in the caller's
    order).  ``[A | I]`` has full rank, so its pivots are ``0 .. k-1``, and
    its RREF ``[I | A^-1]``, iff ``A`` is invertible; otherwise raises
    Singular.
    """
    k = m.rows
    if len(cols) != k:
        raise LengthMismatch(f"need {k} column indices, got {len(cols)}")
    sub = m.take_columns(cols)
    aug = BitMatrix(k, 2 * k, tuple(w | 1 << (k + i) for i, w in enumerate(sub.row_words)))  # [A | I]
    rref, pivots = row_reduce(aug)
    if pivots != tuple(range(k)):
        raise Singular("selected columns are linearly dependent")
    return BitMatrix(k, k, tuple(w >> k for w in rref.row_words))
