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
  ``{0}`` below t, ``{t_l}`` or all of ``Z_n`` above it), so one pass over
  the components, least significant first, spreads every basis word at
  once by shifted copies, rather than a tuple or a coordinate at a time,
* a recursive membership test that splits a vector into its n blocks,
* closed-form dimension and minimum-distance formulas.

Members are interned (:class:`BermanParams`): each is one object for the
life of the process, so every cache keyed by members, here and in
:mod:`.star`, :mod:`.checks` and :mod:`.pir`, looks it up by identity.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from math import log10

from .codes import InvalidInput, LinearCode, ProtocolInvariantError, TooLarge, whole_number
from .gf2 import BitMatrix, BitVector, LengthMismatch

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


#: Every member made in this process, keyed by its normalised fields.  A
#: plain dict, whose lookup runs in C, and it is never emptied: members are
#: four small fields, and :func:`dimension_formula`'s cache keeps every member
#: it sees alive as well.
_MEMBERS: dict[tuple[CodeKind, int, int, int], BermanParams] = {}


@dataclass(frozen=True, eq=False, init=False)
class BermanParams:
    """One family member: kind, alphabet size n >= 2, depth m >= 1, order r.

    The fields are held normalised: ``kind`` as a :class:`CodeKind` (``"Ber"``
    becomes ``CodeKind.BERMAN``), and n, m and r as Python ints.  Any other
    kind, a bool, or a number that is not an integer raises
    :class:`InvalidInput`.

    Members are interned: ``BermanParams(...)`` returns the one instance made
    in this process for its normalised fields, however they were given, so
    two members name the same code iff they are the same object, and
    equality and hashing are by identity.  Pickling, :mod:`copy` and
    :func:`dataclasses.replace` return that instance too.  The table keeps
    every member made for the life of the process."""

    kind: CodeKind
    n: int
    m: int
    r: int

    def __new__(cls, kind: CodeKind | str, n: int, m: int, r: int) -> BermanParams:
        # Exact types only: True == 1 and 2.0 == 2 would find an int's member.
        if kind.__class__ is CodeKind and n.__class__ is int and m.__class__ is int and r.__class__ is int:
            member = _MEMBERS.get((kind, n, m, r))
            if member is not None:
                return member
        try:
            kind = CodeKind(kind)
        except ValueError:
            raise InvalidInput(f"kind must be Ber or DBer, got {kind!r}") from None
        n, m, r = whole_number(n, "n"), whole_number(m, "m"), whole_number(r, "r")
        if n < 2:
            raise InvalidInput("n must be at least 2")
        if m < 1:
            raise InvalidInput("m must be at least 1")
        if not 0 <= r <= m:
            raise InvalidInput("r must satisfy 0 <= r <= m")
        member = object.__new__(cls)
        for name, value in (("kind", kind), ("n", n), ("m", m), ("r", r)):
            object.__setattr__(member, name, value)
        return _MEMBERS.setdefault((kind, n, m, r), member)

    def __reduce__(self) -> tuple[type[BermanParams], tuple[CodeKind, int, int, int]]:
        return BermanParams, (self.kind, self.n, self.m, self.r)

    @property
    def length(self) -> int:
        return self.n**self.m

    @property
    def is_zero_code(self) -> bool:
        return self.kind is CodeKind.BERMAN and self.r == self.m

    @property
    def is_full_space(self) -> bool:
        return self.kind is CodeKind.DUAL_BERMAN and self.r == self.m

    @cached_property
    def dual(self) -> BermanParams:
        """The member of the other kind at the same n, m and r, kept after its
        first use."""
        other = CodeKind.DUAL_BERMAN if self.kind is CodeKind.BERMAN else CodeKind.BERMAN
        return BermanParams(other, self.n, self.m, self.r)

    @cached_property
    def name(self) -> str:
        """``Kind(n,r,m)``, formed on first use and kept outside the fields,
        so ``repr`` and pickles see only the fields."""
        return f"{self.kind.value}({self.n},{self.r},{self.m})"

    @classmethod
    def parse(cls, text: str) -> BermanParams:
        m = _NAME_RE.match(text.strip())
        if m is None:
            raise InvalidInput(f"cannot parse code name {text!r}; expected Ber(n,r,m) or DBer(n,r,m)")
        try:  # a number past the int-to-string digit limit
            n, r, depth = (int(m.group(i)) for i in (2, 3, 4))
        except ValueError as exc:
            raise InvalidInput(str(exc)) from exc
        return cls(CodeKind(m.group(1)), n, depth, r)

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


def index_to_tuple(n: int, m: int, index: int) -> IndexTuple:
    if not 0 <= index < n**m:
        raise ValueError("index out of range")
    digits = []
    for _ in range(m):
        index, d = divmod(index, n)
        digits.append(d)
    return tuple(reversed(digits))


def c_vector(n: int, m: int, t: IndexTuple) -> BitVector:
    """Indicator of all tuples preceding ``t``; weight is 2^weight(t)."""
    _check_tuple(n, m, t)
    return BitVector(n**m, _tuple_word(n, t, True))


def d_vector(n: int, m: int, t: IndexTuple) -> BitVector:
    """Indicator of all tuples succeeding ``t``; weight is n^(m-weight(t))."""
    _check_tuple(n, m, t)
    return BitVector(n**m, _tuple_word(n, t, False))


def _tuple_word(n: int, t: IndexTuple, berman: bool) -> int:
    """The word of c(t) (``berman``) or d(t), one :func:`_spread` per
    component, least significant first."""
    words = [1]
    for l, x in enumerate(reversed(t)):
        words = _spread(words, x, n**l, n, berman)
    return words[0]


def _spread(words: list[int], x: int, size: int, n: int, berman: bool) -> list[int]:
    """The Kronecker step: ``words``, each over the last components
    (``size`` coordinates), spread under the value x of the next component
    up.  c(t) takes that component's values in ``{0, x}``, or ``{0}`` for
    x = 0; d(t) takes x, or all of Z_n for x = 0.  One shifted copy per
    value, or for all of Z_n one multiply by the word that sets bit 0 of
    each of the n blocks."""
    shift = x * size
    if berman:
        return [w | w << shift for w in words] if x else words
    if x:
        return [w << shift for w in words]
    every_block = ((1 << n * size) - 1) // ((1 << size) - 1)
    return [w * every_block for w in words]


def _check_tuple(n: int, m: int, t: IndexTuple) -> None:
    if len(t) != m:
        raise LengthMismatch(f"expected an {m}-tuple")
    if any(not 0 <= x < n for x in t):
        raise ValueError("tuple component out of range")


# ---------------------------------------------------------------------------
# Construction paths.


def basis(params: BermanParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The family basis, the c(t) (Ber) or d(t) (DBer) of each defining
    tuple t, in coordinate order: weight above r for Ber, at most r for
    DBer.  Returns the coordinates of the defining tuples, W(p), and the
    basis words.

    One pass builds every word at once, least significant component first.
    Each word over the components seen so far carries its coordinate and
    weight, and the values x of the next component up are taken in order,
    each spreading every word (:func:`_spread`).  A DBer word is dropped
    once its weight passes r, a Ber word once the components left can no
    longer lift its weight past r.  Coordinates ``c + x * size``, for c
    below ``size``, come out ascending.

    Restricted to W(p), the family basis is a square matrix M with
    ``M @ M = I``.  For DBer, entry (t, s) is 1 iff t precedes s, so entry
    (t, u) of ``M @ M`` counts the s between t and u, of which there are
    ``2^(weight(u) - weight(t))``; all of them lie in W(p).  It is odd iff
    ``t = u``.  For Ber the order is reversed.  So W(p) is an information
    set of the code, and M is its own inverse."""
    n, r = params.n, params.r
    berman = params.kind is CodeKind.BERMAN
    coords, weights, words, size = [0], [0], [1], 1
    for left in reversed(range(params.m)):  # the components after this one
        # The words kept under x = 0, which adds no weight, and under x > 0.
        kept = [[i for i, w in enumerate(weights) if (w + up + left > r if berman else w + up <= r)] for up in (0, 1)]
        coords = [coords[i] + x * size for x in range(n) for i in kept[x > 0]]
        weights = [weights[i] + (x > 0) for x in range(n) for i in kept[x > 0]]
        parts = [[words[i] for i in k] for k in kept]
        words = [w for x in range(n) if parts[x > 0] for w in _spread(parts[x > 0], x, size, n, berman)]
        size *= n
    return tuple(coords), tuple(words)


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
def build(params: BermanParams) -> LinearCode:
    """The code spanned by the family basis (:func:`basis`), canonicalized by
    one elimination of its words and tagged with ``params`` as its member
    (:attr:`.codes.LinearCode.member`).  This is each member's one
    constructor and one cache, and it holds only checked codes: a length
    over :data:`MAX_LENGTH` is refused before the basis is formed
    (:func:`check_length`), and a rank other than :func:`dimension_formula`
    raises :class:`ProtocolInvariantError`, naming the member, the rank and
    the formula.  The basis words are formed again on each miss, not kept:
    one pass forms them cheaply, and at 4096 coordinates they take up to
    2 MB."""
    check_length(params)
    words = basis(params)[1]
    code = LinearCode.from_generator(BitMatrix(len(words), params.length, words))
    rank, formula = code.dimension, dimension_formula(params)
    if rank != formula:
        raise ProtocolInvariantError(f"{params.name}: basis rank {rank} disagrees with the closed form {formula}")
    return LinearCode(code.length, code.generator, params)


@lru_cache(maxsize=None)
def dimension_formula(params: BermanParams) -> int:
    """The sum of ``comb(m, w) * (n-1)^w`` over the weights w of the defining
    tuples (``r < w <= m`` for Ber, ``w <= r`` for DBer), each term got from
    the last by one exact multiply and divide; worked out once per member."""
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
    rows = tuple(translate(w, n, shift) for w in code.generator.row_words)
    return code.contains_rows(BitMatrix(len(rows), code.length, rows))
