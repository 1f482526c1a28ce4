"""Exact collusion-privacy check by translation meet in the middle.

Every t columns of a code's generator are independent iff no nonempty set
of at most t columns sums to zero.  When the translations of ``Z_n^m``
preserve the code, such a set can always be moved to contain column 0, so
one sorted table of small column sums and one stream of larger ones decide
the question exactly (see :func:`translation_mitm`).
"""

from __future__ import annotations

from math import comb

import numpy as np

from .berman import is_automorphism, translation_permutation
from .codes import LinearCode
from .gf2 import BitMatrix, BitVector, draw_bit_limbs

#: Most column sums :func:`translation_mitm` looks up; past it the privacy
#: check falls through to sampling.
MITM_LOOKUPS = 4_000_000

#: Sums looked up per NumPy pass, which bounds the route's scratch memory.
_MITM_CHUNK = 1 << 13

#: Width of the linear digest behind the route's table filter.
_DIGEST_BITS = 20


def translation_invariant(code: LinearCode) -> bool:
    """True iff, for some ``n^m`` equal to the code's length, every unit
    translation of ``Z_n^m`` maps the code onto itself."""
    length = code.length
    for m in range(length.bit_length() - 1, 0, -1):
        n = round(length ** (1 / m))
        if n >= 2 and n**m == length and all(
            is_automorphism(code, translation_permutation(n, m, tuple(int(i == l) for i in range(m))))
            for l in range(m)
        ):
            return True
    return False


def _digests(columns: BitMatrix) -> np.ndarray:
    """A GF(2)-linear :data:`_DIGEST_BITS`-bit digest of each row of
    ``columns`` (its product with a fixed random matrix), so the digest of a
    XOR sum is the XOR of the digests."""
    rng = np.random.Generator(np.random.Philox(key=0))
    product = columns @ BitMatrix.from_limbs(draw_bit_limbs(rng, 1, columns.cols, _DIGEST_BITS), _DIGEST_BITS)
    return np.array(product.row_words, dtype=np.uint32)


def _lex_sums(cols: np.ndarray, size: int) -> np.ndarray:
    """XOR sums of the subsets of ``cols`` of at most ``size`` elements, by
    size and then in lexicographic order, so the sums of the ``size``-subsets
    of ``cols[j:]`` are the last ``comb(len(cols) - j, size)`` entries."""
    count = len(cols)
    out = np.zeros(sum(comb(count, x) for x in range(size + 1)), dtype=cols.dtype)
    start = 1
    for x in range(1, size + 1):
        end = start
        for j in range(count - x + 1):
            tail = comb(count - 1 - j, x - 1)
            np.bitwise_xor(out[start - tail : start], cols[j], out=out[end : end + tail])
            end += tail
        start = end
    return out


def translation_mitm(code: LinearCode, t: int) -> bool | None:
    """Exact privacy verdict by meet in the middle, or None where the route
    does not apply.

    If the translations of ``Z_n^m`` preserve the code, they act on its
    columns transitively, so any dependency among at most t columns moves to
    one that contains column 0: ``col_0 ^ sum(X) == sum(Y)`` for sets X, Y of
    other columns with ``|X| + |Y| <= t - 1``.  The sums over
    ``|Y| <= (t - 1) // 2`` form the table; those over the larger X are
    streamed against it in chunks, never all held at once.  Each chunk first
    meets a bitmap of the table's :func:`_digests`: a sum outside the table
    passes it with probability at most ``len(table) / 2^20``, so only the few
    that pass reach the sorted lookup.  When the all-ones word is a
    codeword, every dependency has even size, so an odd t needs only
    ``t - 1``.
    """
    n_s = code.length
    if code.dimension > 64 or not translation_invariant(code):
        return None
    if t % 2 and code.contains(BitVector.ones(n_s)):
        t -= 1
    if t == 0:
        return True
    rest = n_s - 1
    small = (t - 1) // 2
    large = t - 1 - small
    if sum(comb(rest, x) for x in range(large + 1)) > MITM_LOOKUPS:
        return None
    columns = code.generator.transpose()
    cols = np.array(columns.row_words, dtype=np.uint64)
    digests = _digests(columns)
    sums = _lex_sums(cols[1:], small)
    table = np.sort(sums)
    last = len(table) - 1
    sum_digests = _lex_sums(digests[1:], small)
    in_table = np.zeros(1 << (_DIGEST_BITS - 3), dtype=np.uint8)
    for lo in range(0, len(sum_digests), _MITM_CHUNK):
        chunk = sum_digests[lo : lo + _MITM_CHUNK]
        np.bitwise_or.at(in_table, chunk >> 3, (1 << (chunk & 7)).astype(np.uint8))

    def meets(lo: int, word: np.uint64, digest: np.uint32) -> bool:
        """True iff ``word ^ sums[i]`` is in the table for some ``i >= lo``."""
        for at in range(lo, len(sums), _MITM_CHUNK):
            q = sum_digests[at : at + _MITM_CHUNK] ^ digest
            hits = np.flatnonzero(in_table.take(q >> 3) >> (q & 7) & 1)
            if hits.size:
                found = sums[at + hits] ^ word
                if (table[np.minimum(np.searchsorted(table, found), last)] == found).any():
                    return True
        return False

    if meets(0, cols[0], digests[0]):
        return False
    if large > small:
        # |X| = small + 1: column j of the rest, then a small-set of the
        # columns after it, which is a tail of the table.
        for j in range(1, n_s - small):
            if meets(len(sums) - comb(rest - j, small), cols[0] ^ cols[j], digests[0] ^ digests[j]):
                return False
    return True
