"""Binary linear codes held in canonical (reduced row-echelon) generator form.

Because every code stores the RREF of its generator with zero rows dropped,
two codes span the same space iff they compare equal, and membership tests
reduce a word against at most ``dim`` pivot rows.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf2 import BitMatrix, BitVector, LengthMismatch, nullspace_basis, reduce_word, row_reduce, span_table
from .gf2 import invert_columns  # noqa: F401  benchmarks/tracer.py patches codes.invert_columns

#: Enumeration guard for brute-force minimum distance (2^24 codewords).
MAX_BRUTE_FORCE_DIM = 24

#: Generator rows whose span the distance search tabulates at once: 2^14
#: codewords, 256 KB for lengths up to 128.
TABLE_DIM = 14


class ZeroCode(ValueError):
    """Operation undefined on the zero (dimension 0) code."""


class TooLarge(ValueError):
    """Exhaustive enumeration would exceed the guard."""


class ProtocolInvariantError(RuntimeError):
    """A derived quantity or a protocol step broke an invariant the scheme guarantees."""


@dataclass(frozen=True)
class LinearCode:
    """A length-``length`` binary linear code with an RREF generator."""

    length: int
    generator: BitMatrix

    def __post_init__(self) -> None:
        if self.generator.cols != self.length:
            raise LengthMismatch("generator width does not match the code length")

    @property
    def dimension(self) -> int:
        return self.generator.rows

    @classmethod
    def from_spanning_set(cls, length: int, vectors: Iterable[BitVector]) -> LinearCode:
        """The span of ``vectors``; an empty set gives the zero code."""
        vecs = list(vectors)
        for v in vecs:
            if v.length != length:
                raise LengthMismatch(f"{v.length} != {length}")
        if not vecs:
            return cls.zero(length)
        return cls.from_generator(BitMatrix.from_rows(vecs, length))

    @classmethod
    def from_generator(cls, matrix: BitMatrix) -> LinearCode:
        rref, pivots = row_reduce(matrix)
        words = rref.row_words[: len(pivots)]
        return cls(matrix.cols, BitMatrix(len(words), matrix.cols, words))

    @classmethod
    def zero(cls, length: int) -> LinearCode:
        return cls(length, BitMatrix(0, length, ()))

    @classmethod
    def full(cls, length: int) -> LinearCode:
        return cls(length, BitMatrix.identity(length))

    def contains(self, v: BitVector) -> bool:
        if v.length != self.length:
            raise LengthMismatch(f"{v.length} != {self.length}")
        return reduce_word(v.word, self._pivots) == 0

    @cached_property
    def _pivots(self) -> dict[int, int]:
        return {w & -w: w for w in self.generator.row_words}

    def dual(self) -> LinearCode:
        return LinearCode.from_generator(nullspace_basis(self.generator))

    def min_distance_bruteforce(self) -> int:
        """Minimum weight over all nonzero codewords, by Gray-code sweep.

        The span of the first ``min(dim, TABLE_DIM)`` generator rows is
        tabulated once as limb rows (:func:`.gf2.span_table`); the remaining
        rows are walked in Gray-code order, each step weighing the whole table
        shifted by the current offset codeword in one NumPy pass.
        """
        k = self.dimension
        if k == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        if k > MAX_BRUTE_FORCE_DIM:
            raise TooLarge(f"dimension {k} exceeds the enumeration guard")
        rows = self.generator.limbs
        a = min(k, TABLE_DIM)
        table = span_table(rows[:a])
        best = int(np.bitwise_count(table[1:]).sum(axis=1).min())  # row 0 is the zero codeword
        offset = np.zeros(rows.shape[1], dtype=rows.dtype)
        for g in range(1, 1 << (k - a)):
            offset ^= rows[a + (g & -g).bit_length() - 1]
            best = min(best, int(np.bitwise_count(table ^ offset).sum(axis=1).min()))
        return best

    def information_set(self) -> tuple[int, ...]:
        """The lexicographically first independent column set (RREF pivots)."""
        if self.dimension == 0:
            raise ZeroCode("the zero code has no information set")
        return tuple((rw & -rw).bit_length() - 1 for rw in self.generator.row_words)

    def project_columns(self, cols: Iterable[int]) -> LinearCode:
        """The code ``{c_T : c in C}`` on the (ascending) coordinate set T."""
        sel = sorted(set(cols))
        for j in sel:
            if not 0 <= j < self.length:
                raise IndexError("column out of range")
        return LinearCode.from_generator(self.generator.take_columns(sel))

    def to_text(self) -> str:
        """Serialize: a "length dim" header line, then the generator matrix text."""
        return f"{self.length} {self.dimension}\n" + self.generator.to_text()

    @classmethod
    def from_text(cls, text: str) -> LinearCode:
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty code text")
        try:
            length, dim = (int(tok) for tok in lines[0].split())
        except Exception as exc:
            raise ValueError("bad code header, expected 'length dim'") from exc
        code = cls.from_generator(BitMatrix.from_text("\n".join(lines[1:])))
        if code.length != length or code.dimension != dim:
            raise ValueError("code header disagrees with the generator matrix")
        return code

    def __str__(self) -> str:
        return f"[{self.length},{self.dimension}] code"
