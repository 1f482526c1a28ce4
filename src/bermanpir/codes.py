"""Binary linear codes held in canonical (reduced row-echelon) generator form.

Because every code stores the RREF of its generator with zero rows dropped,
two codes span the same space iff they compare equal, and membership tests
reduce a word against at most ``dim`` pivot rows, one vector
(:meth:`LinearCode.contains`) or a matrix of rows
(:meth:`LinearCode.contains_rows`) at a time.

Only what the package, its demos and its benchmark harness call is defined
here; the projection and text form of a code that the tests compare against
live in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import index
from typing import TYPE_CHECKING

import numpy as np

from .gf2 import BitMatrix, BitVector, LengthMismatch, nullspace_basis, reduce_word, row_reduce, span_table
from .gf2 import invert_columns  # noqa: F401  benchmarks/tracer.py patches codes.invert_columns

if TYPE_CHECKING:
    from .berman import BermanParams

#: Enumeration guard for brute-force minimum distance (2^24 codewords).
MAX_BRUTE_FORCE_DIM = 24

#: Generator rows whose span the distance search tabulates at once: 2^14
#: codewords, 256 KB for lengths up to 128.
TABLE_DIM = 14


class ZeroCode(ValueError):
    """Operation undefined on the zero (dimension 0) code."""


class InvalidInput(ValueError):
    """A code name, a parameter or an option value outside its documented range."""


def whole_number(value: object, what: str) -> int:
    """``value`` as a Python int, through :func:`operator.index`; a bool, or
    anything that is not an integer, raises :class:`InvalidInput`."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidInput(f"{what} must be an integer, got {value!r}")
    return index(value)


class TooLarge(ValueError):
    """Exhaustive enumeration would exceed the guard."""


class ProtocolInvariantError(RuntimeError):
    """A derived quantity or a protocol step broke an invariant the scheme guarantees."""


@dataclass(frozen=True)
class LinearCode:
    """A length-``length`` binary linear code with an RREF generator.

    ``member`` is the Berman family member the code was built as
    (:func:`.berman.build`), or None for a code made any other way.  It
    takes no part in equality, hashing or ``repr``: a code is its span.
    """

    length: int
    generator: BitMatrix
    member: BermanParams | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.generator.cols != self.length:
            raise LengthMismatch("generator width does not match the code length")

    @property
    def dimension(self) -> int:
        return self.generator.rows

    @classmethod
    def from_spanning_set(cls, length: int, vectors: Iterable[BitVector]) -> LinearCode:
        """The span of ``vectors``; an empty set gives the zero code."""
        return cls.from_generator(BitMatrix.from_rows(list(vectors), length))

    @classmethod
    def from_generator(cls, matrix: BitMatrix) -> LinearCode:
        rref, pivots = row_reduce(matrix)
        words = rref.row_words[: len(pivots)]
        return cls(matrix.cols, BitMatrix(len(words), matrix.cols, words))

    @classmethod
    def zero(cls, length: int) -> LinearCode:
        return cls(length, BitMatrix(0, length, ()))

    @classmethod
    @lru_cache(maxsize=None)
    def full(cls, length: int) -> LinearCode:
        """The whole space, whose RREF is the identity: one shared instance
        per length, since a code never changes."""
        return cls(length, BitMatrix.identity(length))

    def contains(self, v: BitVector) -> bool:
        """Whether ``v`` is a codeword; a vector of another length raises
        :class:`.gf2.LengthMismatch`.  :meth:`contains_rows` tests a whole
        matrix of rows at once."""
        if v.length != self.length:
            raise LengthMismatch(f"{v.length} != {self.length}")
        return reduce_word(v.word, self._pivots) == 0

    def contains_rows(self, m: BitMatrix) -> bool:
        """Whether every row of ``m`` is a codeword, so true for a zero-row
        matrix.  Each row word is reduced against the pivot rows, with no
        vector made per row; a matrix of another width raises
        :class:`.gf2.LengthMismatch`, as :meth:`contains` does."""
        if m.cols != self.length:
            raise LengthMismatch(f"{m.cols} != {self.length}")
        pivots = self._pivots
        return not any(reduce_word(w, pivots) for w in m.row_words)

    @cached_property
    def _pivots(self) -> dict[int, int]:
        return {w & -w: w for w in self.generator.row_words}

    @cached_property
    def row_bits(self) -> int:
        """Set bits over all generator rows."""
        return sum(w.bit_count() for w in self.generator.row_words)

    @cached_property
    def column_words(self) -> tuple[int, ...]:
        """Generator column ``j`` packed over the row index, for every ``j``."""
        return self.generator.transpose().row_words

    def dual(self) -> LinearCode:
        return LinearCode.from_generator(nullspace_basis(self.generator))

    def min_distance_bruteforce(self) -> int:
        """Minimum weight over all nonzero codewords, by enumerating the
        smaller of C and its dual.

        With ``dim C <= n - dim C`` every codeword of C is weighed
        (:meth:`_weight_blocks`).  Otherwise the weight histogram ``B`` of
        the dual is tabulated the same way, and by the MacWilliams identity
        ``2^(n-k) A_w = sum_j B_j K_w(j)`` with the Krawtchouk polynomials
        ``K_w`` of length n; the answer is the least ``w > 0`` whose sum is
        nonzero, found in exact integers.
        """
        n, k = self.length, self.dimension
        if k == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        if min(k, n - k) > MAX_BRUTE_FORCE_DIM:
            raise TooLarge(f"dimension {k} and dual dimension {n - k} both exceed the enumeration guard")
        if k <= n - k:
            blocks = self._weight_blocks()
            best = int(next(blocks)[1:].min())  # row 0 of the first block is the zero codeword
            for weights in blocks:
                best = min(best, int(weights.min()))
            return best
        hist = np.zeros(n + 1, dtype=np.int64)
        for weights in self.dual()._weight_blocks():
            hist += np.bincount(weights, minlength=n + 1)
        support = [(j, int(b)) for j, b in enumerate(hist.tolist()) if b]
        # K_0(j) = 1, K_1(j) = n - 2j, (w+1) K_{w+1}(j) = (n-2j) K_w(j) - (n-w+1) K_{w-1}(j).
        prev, cur = [1] * len(support), [n - 2 * j for j, _ in support]
        w = 1
        while not sum(b * kw for (_, b), kw in zip(support, cur)):
            prev, cur = cur, [
                ((n - 2 * j) * kw - (n - w + 1) * kp) // (w + 1)
                for (j, _), kw, kp in zip(support, cur, prev)
            ]
            w += 1
        return w

    def _weight_blocks(self) -> Iterator[np.ndarray]:
        """The weights of all ``2^dim`` codewords, one table at a time.

        The span of the first ``min(dim, TABLE_DIM)`` generator rows is
        tabulated once as limb rows (:func:`.gf2.span_table`); the remaining
        rows are walked in Gray-code order, each step weighing the whole table
        shifted by the current offset codeword in one NumPy pass.  Entry 0 of
        the first block is the zero codeword.
        """
        rows = self.generator.limbs
        a = min(self.dimension, TABLE_DIM)
        table = span_table(rows[:a])
        yield np.bitwise_count(table).sum(axis=1, dtype=np.intp)
        offset = np.zeros(rows.shape[1], dtype=rows.dtype)
        for g in range(1, 1 << (self.dimension - a)):
            offset ^= rows[a + (g & -g).bit_length() - 1]
            yield np.bitwise_count(table ^ offset).sum(axis=1, dtype=np.intp)

    def information_set(self) -> tuple[int, ...]:
        """The lexicographically first independent column set (RREF pivots)."""
        if self.dimension == 0:
            raise ZeroCode("the zero code has no information set")
        return tuple((rw & -rw).bit_length() - 1 for rw in self.generator.row_words)

    def __str__(self) -> str:
        return f"[{self.length},{self.dimension}] code"
