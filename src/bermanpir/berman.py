"""Berman and Dual Berman code construction over GF(2).

Both families live on length ``n^m`` with coordinates indexed by m-tuples
over ``{0,...,n-1}``; the first tuple component is the most significant
digit, so block ``l`` of the concatenation ``(v_0|...|v_{n-1})`` is exactly
the coordinate set ``{i : i_0 = l}``.

Each family member can be produced three independent ways, and the test
suite cross-checks them against each other:

* an explicit basis of downward/upward indicator vectors on the partial
  order ``j <= i  iff  j agrees with i on j's nonzero positions``; each is
  the Kronecker product of one value set per component (``{0, t_l}`` or
  ``{0}`` below t, ``{t_l}`` or all of ``Z_n`` above it), so its word is
  built a component at a time by shifted copies rather than a coordinate
  at a time,
* a recursive membership test that splits a vector into its n blocks,
* closed-form dimension and minimum-distance formulas.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations, product
from math import log10

from .codes import InvalidInput, LinearCode, ProtocolInvariantError, TooLarge
from .gf2 import BitVector, LengthMismatch

IndexTuple = tuple[int, ...]

#: Longest code :func:`build` constructs; longer ones are refused before any
#: basis vector is formed, since their vectors alone could exhaust memory.
MAX_LENGTH = 4096


class CodeKind(str, Enum):
    BERMAN = "Ber"
    DUAL_BERMAN = "DBer"


#: ASCII digits only: ``\d`` would also match other scripts' digits, which
#: ``int`` accepts.
_NAME_RE = re.compile(r"^(Ber|DBer)\(([0-9]+),([0-9]+),([0-9]+)\)$")


@dataclass(frozen=True)
class BermanParams:
    """One family member: kind, alphabet size n >= 2, depth m >= 1, order r."""

    kind: CodeKind
    n: int
    m: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidInput("n must be at least 2")
        if self.m < 1:
            raise InvalidInput("m must be at least 1")
        if not 0 <= self.r <= self.m:
            raise InvalidInput("r must satisfy 0 <= r <= m")

    @property
    def length(self) -> int:
        return self.n**self.m

    @property
    def is_zero_code(self) -> bool:
        return self.kind is CodeKind.BERMAN and self.r == self.m

    @property
    def is_full_space(self) -> bool:
        return self.kind is CodeKind.DUAL_BERMAN and self.r == self.m

    @property
    def dual(self) -> BermanParams:
        other = CodeKind.DUAL_BERMAN if self.kind is CodeKind.BERMAN else CodeKind.BERMAN
        return BermanParams(other, self.n, self.m, self.r)

    @property
    def name(self) -> str:
        return f"{self.kind.value}({self.n},{self.r},{self.m})"

    @classmethod
    def parse(cls, text: str) -> BermanParams:
        m = _NAME_RE.match(text.strip())
        if m is None:
            raise InvalidInput(f"cannot parse code name {text!r}; expected Ber(n,r,m) or DBer(n,r,m)")
        kind = CodeKind.BERMAN if m.group(1) == "Ber" else CodeKind.DUAL_BERMAN
        try:  # a number past the int-to-string digit limit
            n, r, depth = (int(m.group(i)) for i in (2, 3, 4))
        except ValueError as exc:
            raise InvalidInput(str(exc)) from exc
        return cls(kind, n, depth, r)

    def __str__(self) -> str:
        return self.name


def families(n_max: int, m_max: int) -> Iterator[tuple[BermanParams, ...]]:
    """The members at each (n, m) for 2 <= n <= n_max and 1 <= m <= m_max,
    n-major; each tuple lists Ber with r = 0..m, then DBer with r = 0..m."""
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            yield tuple(
                BermanParams(kind, n, m, r)
                for kind in (CodeKind.BERMAN, CodeKind.DUAL_BERMAN)
                for r in range(m + 1)
            )


# ---------------------------------------------------------------------------
# Coordinate tuples and the partial order.


def all_tuples(n: int, m: int):
    """All m-tuples over {0,...,n-1} in coordinate-index order."""
    return product(range(n), repeat=m)


def index_to_tuple(n: int, m: int, index: int) -> IndexTuple:
    if not 0 <= index < n**m:
        raise ValueError("index out of range")
    digits = []
    for _ in range(m):
        index, d = divmod(index, n)
        digits.append(d)
    return tuple(reversed(digits))


def tuple_weight(t: IndexTuple) -> int:
    return sum(1 for x in t if x)


def c_vector(n: int, m: int, t: IndexTuple) -> BitVector:
    """Indicator of all tuples preceding ``t``; weight is 2^weight(t)."""
    _check_tuple(n, m, t)
    return BitVector(n**m, _product_word(n, [(0, x) if x else (0,) for x in t]))


def d_vector(n: int, m: int, t: IndexTuple) -> BitVector:
    """Indicator of all tuples succeeding ``t``; weight is n^(m-weight(t))."""
    _check_tuple(n, m, t)
    return BitVector(n**m, _product_word(n, [(x,) if x else range(n) for x in t]))


def _product_word(n: int, component_sets: list[Iterable[int]]) -> int:
    """Indicator word of the tuples whose component l lies in ``component_sets[l]``.

    The set is a Kronecker product, built least significant component
    first: the word over the last components, of ``size`` coordinates, is
    copied to offset ``x * size`` for each value x of the next component
    up, one shift and OR per value."""
    word, size = 1, 1
    for values in reversed(component_sets):
        spread = 0
        for x in values:
            spread |= word << x * size
        word, size = spread, size * n
    return word


def _check_tuple(n: int, m: int, t: IndexTuple) -> None:
    if len(t) != m:
        raise LengthMismatch(f"expected an {m}-tuple")
    if any(not 0 <= x < n for x in t):
        raise ValueError("tuple component out of range")


# ---------------------------------------------------------------------------
# Construction paths.


def _defining_tuples(params: BermanParams) -> Iterator[tuple[int, IndexTuple]]:
    """(coordinate, tuple) of each tuple defining the family basis, in
    coordinate-index order: weight above r for Ber, at most r for DBer."""
    berman = params.kind is CodeKind.BERMAN
    for index, t in enumerate(all_tuples(params.n, params.m)):
        if (tuple_weight(t) > params.r) is berman:
            yield index, t


def basis_vectors(params: BermanParams) -> tuple[BitVector, ...]:
    """The family's basis, in coordinate-index order of the defining tuples."""
    vector = c_vector if params.kind is CodeKind.BERMAN else d_vector
    return tuple(vector(params.n, params.m, t) for _, t in _defining_tuples(params))


def weight_set(params: BermanParams) -> tuple[int, ...]:
    """W(p): the coordinates of the defining tuples, ascending.

    Restricted to W(p), the family basis is a square matrix M with
    ``M @ M = I``.  For DBer, entry (t, s) is 1 iff t precedes s, so entry
    (t, u) of ``M @ M`` counts the s between t and u, of which there are
    ``2^(weight(u) - weight(t))``; all of them lie in W(p).  It is odd iff
    ``t = u``.  For Ber the order is reversed.  So W(p) is an information
    set of the code, and M is its own inverse."""
    return tuple(index for index, _ in _defining_tuples(params))


def length_beyond(n: int, m: int, limit: int) -> str | None:
    """None if the length ``n**m`` (``n >= 2``) is at most ``limit``, else the
    length as text: its digits, or ``"n^m"`` at depths where ``2**m`` alone
    exceeds ``limit``, which never form the power."""
    if m >= limit.bit_length():  # n**m >= 2**m > limit
        return f"{n}^{m}"
    length = n**m
    return str(length) if length > limit else None


def check_length(params: BermanParams) -> None:
    """Refuse a code longer than :data:`MAX_LENGTH` (see :func:`length_beyond`)."""
    if length := length_beyond(params.n, params.m, MAX_LENGTH):
        raise TooLarge(f"{params.name}: length {length} exceeds the guard of {MAX_LENGTH}")


def check_digits(params: BermanParams) -> None:
    """Refuse a code whose length ``n**m`` has more decimal digits than Python
    converts to text (:func:`sys.get_int_max_str_digits`, unless that limit
    is off), decided exactly without forming a power far beyond the limit.

    It has more than ``limit`` digits iff ``n**m >= 10**limit``.  Since
    ``n >= 2`` and ``2**4 > 10``, any ``m > 4 * limit`` is too long.  Below
    that, ``m * log10(n)`` is off by far less than 1, so only an estimate
    within 1 of ``limit`` needs the exact comparison, whose power then has
    about ``limit`` digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    n, m = params.n, params.m
    estimate = m * log10(n) if m <= 4 * limit else float("inf")
    if estimate >= limit + 1 or (estimate > limit - 1 and n**m >= 10**limit):
        raise TooLarge(f"{params.name}: length {n}^{m} has more than {limit} decimal digits")


@lru_cache(maxsize=None)
def basis_span(params: BermanParams) -> LinearCode:
    """The span of the family basis, canonicalized and not yet checked: its
    dimension is the basis rank, which :func:`build` holds to the closed form."""
    check_length(params)
    return LinearCode.from_spanning_set(params.length, basis_vectors(params))


@lru_cache(maxsize=None)
def build(params: BermanParams) -> LinearCode:
    """The code spanned by the family basis, canonicalized: :func:`basis_span`
    once its dimension is checked against :func:`dimension_formula`."""
    code = basis_span(params)
    if code.dimension != dimension_formula(params):
        raise ProtocolInvariantError(f"{params.name}: basis rank disagrees with the closed form")
    return code


def dimension_formula(params: BermanParams) -> int:
    """The sum of ``comb(m, w) * (n-1)^w`` over the weights w of the defining
    tuples (``r < w <= m`` for Ber, ``w <= r`` for DBer), each term got from
    the last by one exact multiply and divide."""
    n, m, r = params.n, params.m, params.r
    lo, hi = (r + 1, m) if params.kind is CodeKind.BERMAN else (0, r)
    total, term = 0, 1
    for w in range(hi + 1):
        if w >= lo:
            total += term
        term = term * (m - w) * (n - 1) // (w + 1)
    return total


def min_distance_formula(params: BermanParams) -> int:
    if params.kind is CodeKind.BERMAN:
        if params.r == params.m:
            raise ValueError("the zero code has no minimum distance")
        return 2 ** (params.r + 1)
    return params.n ** (params.m - params.r)


def recursive_membership(params: BermanParams, v: BitVector) -> bool:
    """Membership decided directly from the block recursion.

    Base cases: the Berman family bottoms out at the zero code (r = m) and
    the even-parity code (r = 0); the dual family at the full space (r = m)
    and the repetition code (r = 0).  Otherwise a vector is split into its
    n blocks of length ``n^(m-1)`` and the defining conditions are checked
    recursively.
    """
    if v.length != params.length:
        raise LengthMismatch(f"{v.length} != {params.length}")
    return _member(params.kind, params.n, params.r, params.m, v.word)


def _member(kind: CodeKind, n: int, r: int, m: int, word: int) -> bool:
    if kind is CodeKind.BERMAN:
        if r == m:
            return word == 0
        if r == 0:
            return word.bit_count() % 2 == 0
        size = n ** (m - 1)
        mask = (1 << size) - 1
        total = 0
        for l in range(n):
            blk = (word >> (l * size)) & mask
            if not _member(kind, n, r - 1, m - 1, blk):
                return False
            total ^= blk
        return _member(kind, n, r, m - 1, total)
    if r == m:
        return True
    size_full = n**m
    if r == 0:
        return word == 0 or word == (1 << size_full) - 1
    size = n ** (m - 1)
    mask = (1 << size) - 1
    u = (word >> ((n - 1) * size)) & mask
    if not _member(kind, n, r, m - 1, u):
        return False
    return all(
        _member(kind, n, r - 1, m - 1, ((word >> (l * size)) & mask) ^ u) for l in range(n - 1)
    )


def reed_muller_code(r: int, m: int) -> LinearCode:
    """RM(r, m) built from scratch by evaluating multilinear monomials.

    Evaluation points are the length-2^m coordinate tuples, so this is an
    independent construction to compare the n = 2 dual family against.
    Variable p is the word of the points whose component p is 1, that is
    of the coordinates whose bit ``m - 1 - p`` is set, and a monomial's
    evaluation is the AND of its variables' words.  ``r = -1`` yields the
    zero code.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if r > m:
        raise ValueError("r must be at most m")
    n_pts = 1 << m
    ones = (1 << n_pts) - 1
    variables = [sum(1 << idx for idx in range(n_pts) if idx >> (m - 1 - p) & 1) for p in range(m)]
    rows = []
    for deg in range(max(r, -1) + 1):
        for positions in combinations(range(m), deg):
            word = ones
            for p in positions:
                word &= variables[p]
            rows.append(BitVector(n_pts, word))
    return LinearCode.from_spanning_set(n_pts, rows)


# ---------------------------------------------------------------------------
# Coordinate symmetries: the translations of Z_n^m, on words.


@lru_cache(maxsize=None)
def _rotations(n: int, m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per tuple component l: its sub-block size ``s = n^(m-1-l)``, and for
    each a in ``0..n-1`` the mask of sub-blocks ``0..n-a-1`` inside every
    block of size ``n*s``, the coordinates whose component l stays below n
    when a is added to it."""
    rotations = []
    for l in range(m):
        size = n ** (m - 1 - l)
        every_block = ((1 << n**m) - 1) // ((1 << n * size) - 1)  # bit 0 of each block
        rotations.append((size, tuple(every_block * ((1 << (n - a) * size) - 1) for a in range(n))))
    return tuple(rotations)


def translate(word: int, n: int, shift: IndexTuple) -> int:
    """``word`` with the bit of each coordinate tuple i moved to ``i + shift``,
    componentwise mod n, on length ``n^m`` for ``m = len(shift)``.

    Adding a to component l moves sub-block x of size ``s = n^(m-1-l)`` to
    sub-block ``x + a (mod n)`` inside each block of size ``n*s``: the low
    sub-blocks ``x < n - a`` move up by ``a*s`` and the others down by
    ``(n - a)*s``, two masked shifts per component.  Components may be
    negative; they are taken mod n."""
    for (size, lows), a in zip(_rotations(n, len(shift)), shift):
        a %= n
        if a:
            low = lows[a]
            word = (word & low) << a * size | (word & ~low) >> (n - a) * size
    return word


def transitivity_witness(params: BermanParams, a: int, b: int) -> bool:
    """True iff the componentwise translation taking coordinate a to b,
    by the tuple ``t_b - t_a (mod n)``, maps every generator row of the code
    into the code, and so the code onto itself."""
    code = build(params)
    n, m = params.n, params.m
    shift = tuple(y - x for x, y in zip(index_to_tuple(n, m, a), index_to_tuple(n, m, b)))
    return all(code.contains(BitVector(code.length, translate(w, n, shift))) for w in code.generator.row_words)
