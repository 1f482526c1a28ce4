"""Star (Schur) products of vectors and codes, with a predicted-case table
for every pairing inside the Berman family and span-equality verification.

The product of two codes is the span of the coordinatewise products of
their generator rows; bilinearity makes that equal to the span over all
codeword pairs without enumerating them.

Only what the package, its demos and its benchmark harness call is defined
here.  The paper's constructive identities (the disjoint-support product
and the Berman basis identity), which no command runs, are checked by the
tests through ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from .berman import BermanParams, CodeKind, build, families
from .codes import LinearCode
from .gf2 import BitMatrix, BitVector, LengthMismatch, reduce_word


class ParamMismatch(ValueError):
    """The two family members do not share (n, m)."""


class UndefinedCase(ValueError):
    """The product is not covered by a known case."""


class StarSpecial(Enum):
    FULL_SPACE = "full-space"
    UNDEFINED = "undefined"


FULL_SPACE = StarSpecial.FULL_SPACE
UNDEFINED = StarSpecial.UNDEFINED

Predicted = BermanParams | StarSpecial


def star_vectors(a: BitVector, b: BitVector) -> BitVector:
    """Coordinatewise product, i.e. AND over GF(2)."""
    if a.length != b.length:
        raise LengthMismatch(f"{a.length} != {b.length}")
    return a & b


def star_codes(c: LinearCode, d: LinearCode) -> LinearCode:
    """Span of all pairwise products of generator rows.

    Two exact routes feed one pivot dict (:func:`.gf2.reduce_word`), and
    :func:`_restriction_pays` picks one on each call from the factors' sizes.
    ``c`` is taken to be the factor whose generator rows have fewer set bits
    in all (the product commutes).

    * Product loop: each distinct ``a & b``, for rows a of ``c`` and b of
      ``d``, is reduced as soon as it is formed.
    * Restriction: by bilinearity ``C * D`` is the sum over the rows a of
      ``c`` of ``a * D``, which is D projected onto ``supp(a)`` and zero
      elsewhere; :func:`_restricted_basis` reads the RREF rows of each
      ``a * D`` off ``|supp a|`` reductions of ``d``'s column words instead
      of forming ``dim D`` products.  The rows of sparse RREF generators
      give sparse, often unit, vectors that reduce in a few steps.

    A vector that leaves a new pivot is kept.  Once ``length`` pivots are
    kept the span is the whole space, whose RREF is the identity: the
    remaining vectors are skipped and no back-substitution is needed.
    Otherwise the kept vectors are brought to the canonical RREF, so the
    result depends neither on the route nor on the order of the vectors.
    """
    if c.length != d.length:
        raise LengthMismatch(f"{c.length} != {d.length}")
    length = c.length
    if c.dimension == 0 or d.dimension == 0:
        return LinearCode.zero(length)
    if c.row_bits > d.row_bits:
        c, d = d, c
    pivots: dict[int, int] = {}
    if _restriction_pays(c, d):
        cols, k = d.column_words, d.dimension
        for a in c.generator.row_words:
            for w in _restricted_basis(a, cols, k):
                if w := reduce_word(w, pivots):
                    pivots[w & -w] = w
                    if len(pivots) == length:
                        return LinearCode.full(length)
    else:
        seen: set[int] = set()
        right = d.generator.row_words
        for gw in c.generator.row_words:
            for hw in right:
                if (w := gw & hw) in seen:
                    continue
                seen.add(w)
                if w := reduce_word(w, pivots):
                    pivots[w & -w] = w
                    if len(pivots) == length:
                        return LinearCode.full(length)
    return LinearCode.from_generator(BitMatrix(len(pivots), length, tuple(pivots.values())))


def _restricted_basis(a: int, cols: tuple[int, ...], k: int) -> Iterable[int]:
    """The RREF rows of ``a * D``, for the code D with ``k``-bit column
    words ``cols``.

    Each coordinate l of ``supp(a)``, in increasing order, has its column
    reduced with the tag bit ``k + l`` riding along.  An independent column
    keeps a pivot; a dependent one leaves only its tags, a relation among
    the columns made of l and the earlier independent coordinates.  ``a * D``
    is every vector on ``supp(a)`` orthogonal to those relations, whose RREF
    rows are ``e_l`` plus ``e_l'`` for every relation of a dependent l' that
    holds l, one row per independent coordinate l.
    """
    mask = (1 << k) - 1
    local: dict[int, int] = {}
    tails: dict[int, int] = {}  # independent coordinate bit: its dependent coordinates
    rest = a
    while rest:
        bit = rest & -rest
        rest ^= bit
        w = reduce_word(cols[bit.bit_length() - 1] | bit << k, local)
        if w & mask:
            local[w & -w] = w
            tails[bit] = bit
            continue
        held = (w >> k) ^ bit
        while held:
            low = held & -held
            tails[low] |= bit
            held ^= low
    return tails.values()


def _restriction_pays(c: LinearCode, d: LinearCode) -> bool:
    """Whether :func:`star_codes` restricts ``d`` to the supports of the
    rows of ``c``, the sparser factor: when the loop would form more than
    eight products per set bit of ``c``.  Each set bit costs a column
    reduction of ``dim D`` bits with its tags, several times the price of one
    product, so on dense pairs (``DBer(5,1,3)`` squared) the loop wins."""
    return 8 * c.row_bits < c.dimension * d.dimension


def predict_star(p: BermanParams, q: BermanParams) -> Predicted:
    """The product's identity, by case analysis on the two family members.

    Degenerate operands are screened first: a zero-code factor annihilates
    the product, and the full space absorbs any nonzero factor (every
    nonzero family member has full support).  The remaining cases:

    * DBer(r1) * DBer(r2) = DBer(r1+r2) when r1+r2 <= m, else UNDEFINED;
    * Ber(r1) * DBer(r2) = Ber(r1-r2) when r2 <= r1, else the full space;
    * Ber * Ber is the full space for n >= 3; for n = 2 it reduces to the
      DBer case through Ber(2,r,m) = RM(m-r-1,m).
    """
    if (p.n, p.m) != (q.n, q.m):
        raise ParamMismatch(f"{p.name} and {q.name} do not share (n, m)")
    n, m = p.n, p.m
    if p.is_zero_code or q.is_zero_code:
        return BermanParams(CodeKind.BERMAN, n, m, m)
    if p.is_full_space or q.is_full_space:
        return FULL_SPACE
    kinds = {p.kind, q.kind}
    if kinds == {CodeKind.DUAL_BERMAN}:
        s = p.r + q.r
        return BermanParams(CodeKind.DUAL_BERMAN, n, m, s) if s <= m else UNDEFINED
    if kinds == {CodeKind.BERMAN}:
        if n >= 3:
            return FULL_SPACE
        s = 2 * m - p.r - q.r - 2
        return BermanParams(CodeKind.DUAL_BERMAN, n, m, s) if s <= m else FULL_SPACE
    ber, dber = (p, q) if p.kind is CodeKind.BERMAN else (q, p)
    if dber.r <= ber.r:
        return BermanParams(CodeKind.BERMAN, n, m, ber.r - dber.r)
    return FULL_SPACE


def predicted_code(n: int, m: int, predicted: Predicted) -> LinearCode:
    if predicted is UNDEFINED:
        raise UndefinedCase("no predicted code for an undefined case")
    if predicted is FULL_SPACE:
        return LinearCode.full(n**m)
    return build(predicted)


@dataclass(frozen=True)
class StarCaseResult:
    left: BermanParams
    right: BermanParams
    predicted: Predicted
    verified: bool
    product_dimension: int

    @property
    def predicted_name(self) -> str:
        return self.predicted.name if isinstance(self.predicted, BermanParams) else self.predicted.value


def verify_star_case(p: BermanParams, q: BermanParams, product: LinearCode | None = None) -> StarCaseResult:
    """Construct both sides and compare spans; raises on UNDEFINED cases.

    ``product``, when given, stands for ``star_codes(build(p), build(q))``;
    the product is symmetric (AND commutes and the RREF is canonical), so
    the one formed for (q, p) serves (p, q) too.
    """
    predicted = predict_star(p, q)
    if predicted is UNDEFINED:
        raise UndefinedCase(f"{p.name} * {q.name} is not covered by the case table")
    actual = product if product is not None else star_codes(build(p), build(q))
    expected = predicted_code(p.n, p.m, predicted)
    return StarCaseResult(p, q, predicted, actual == expected, actual.dimension)


def star_pairs(n_max: int, m_max: int) -> Iterator[tuple[BermanParams, BermanParams]]:
    """Every ordered pair of family members with a predicted product,
    for 2 <= n <= n_max and 1 <= m <= m_max, in :func:`families` order."""
    for members in families(n_max, m_max):
        for p in members:
            for q in members:
                if predict_star(p, q) is not UNDEFINED:
                    yield p, q
