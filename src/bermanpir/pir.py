"""Star-product private information retrieval with Berman-family code pairs.

A scheme stores M files of b x k_C bits across ``n_s = n^m`` servers by
encoding each stripe with the storage code C: the stored matrix has one
codeword row per stripe, and server ``i`` holds its column ``i``.
Retrieval runs S iterations; in each, the client sends every server one
column of a query matrix ``Q = D_rand + E`` of the same shape, whose random
part has rows drawn uniformly from the retrieval code D and whose deliberate
part plants single bits of the demanded file's stripes.  Server ``i``
answers with the inner product of its two columns, so the whole response
vector is the XOR over rows r of ``stored_r & Q_r``.  Every Berman code is
invariant under the translations of ``Z_n^m``, so the schedule is an
addition table: iteration a, one per coordinate of ``I_0 = W(C)``, recovers
coordinate ``a + c`` of stripe c, one per coordinate of
``J_0 = W((C * D)^perp)`` (see :func:`.berman.weight_set`).  The response
translated by -a, times the family basis H' of ``(C * D)^perp``, loses its
random part and leaves the planted bits times ``M_E``, H' on ``J_0``, which
is its own inverse.  After all iterations each stripe c holds C's codeword
on ``I_0 + c``; translated back it is read through ``M_C``, the family basis
of C on ``I_0``, also its own inverse.  So ``b = d_perp`` and ``S = k_C``,
and neither step eliminates anything once the pair is derived.

The bulk work runs on NumPy limb arrays (see :mod:`.gf2`): the queries of a
run of consecutive iterations are drawn straight into one table product with
D's generator, so its tables are built once per run and the message bits are
never held, and each iteration's response is one XOR reduction over the rows
of ``stored & Q``.
The matrices the stages return keep those limbs and become Python integers
only where something reads their words; a retrieval itself reads the words
of the response vectors and the demanded file alone.

Collusion resistance: any t servers see t columns of Q, and those are
exactly uniform as long as every t-column projection of D is the full
space, which holds up to ``t = d_min(D^perp) - 1``.  The check decides this
exactly: by enumeration on small instances, otherwise from the distance of
``D^perp``, brute-forced or read off the family member it equals.

All of a retrieval's randomness flows from a single 64-bit seed through
NumPy's Philox counter-based generator (Philox 4x64 with 10 rounds); draw
order is documented in :func:`run_retrieval`.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np

from .berman import (
    BermanParams,
    CodeKind,
    basis_vectors,
    build,
    check_digits,
    check_length,
    dimension_formula,
    min_distance_formula,
    translate,
    weight_set,
)
from .codes import MAX_BRUTE_FORCE_DIM, InvalidInput, LinearCode, ProtocolInvariantError, TooLarge
from .gf2 import (
    BitMatrix,
    BitVector,
    LengthMismatch,
    draw_bit_limbs,
    draw_product,
    invert_columns,  # noqa: F401  benchmarks/tracer.py patches pir.invert_columns
    limbs_to_words,
    reduce_word,
    span_table,
    take_bits,
)
from .star import predict_star, star_codes


class UnsupportedPair(ValueError):
    """The storage/retrieval pair matches no supported scheme row."""


class ZeroRate(ValueError):
    """The product code fills the whole space, leaving nothing to retrieve."""


class ShapeMismatch(ValueError):
    """A library is not a positive whole number of the scheme's b x k_C files."""


def philox_generator(seed: int) -> np.random.Generator:
    """The project PRNG: Philox 4x64-10, keyed by one 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed))


# ---------------------------------------------------------------------------
# Scheme configuration and derivation.


@dataclass(frozen=True)
class SchemeConfig:
    """Storage/retrieval pair, library size, and the master RNG seed."""

    storage: BermanParams
    retrieval: BermanParams
    files: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.files < 1:
            raise InvalidInput("need at least one file")
        if not 0 <= self.seed < 2**64:
            raise InvalidInput("seed must fit in 64 bits")


def scheme_row(storage: BermanParams, retrieval: BermanParams) -> str:
    """Classify the pair into one of the three supported scheme rows.

    Rows: dual/dual storage-retrieval; dual storage with Berman retrieval
    (needs r_D >= r_C); Berman storage with dual retrieval (needs
    r_C >= r_D).  Degenerate codes (zero-dimensional storage or retrieval,
    full-space storage) are rejected outright.
    """
    if (storage.n, storage.m) != (retrieval.n, retrieval.m):
        raise UnsupportedPair("storage and retrieval codes must share (n, m)")
    if storage.is_zero_code or storage.is_full_space:
        raise UnsupportedPair("storage code must be a nonzero proper subspace")
    if retrieval.is_zero_code:
        raise UnsupportedPair("retrieval code must be nonzero")
    sk, rk = storage.kind, retrieval.kind
    if sk is CodeKind.DUAL_BERMAN and rk is CodeKind.DUAL_BERMAN:
        return "dber-dber"
    if sk is CodeKind.DUAL_BERMAN and rk is CodeKind.BERMAN:
        if retrieval.r < storage.r:
            raise UnsupportedPair("dual-storage/Berman-retrieval row requires r_D >= r_C")
        return "dber-ber"
    if sk is CodeKind.BERMAN and rk is CodeKind.DUAL_BERMAN:
        if storage.r < retrieval.r:
            raise UnsupportedPair("Berman-storage/dual-retrieval row requires r_C >= r_D")
        return "ber-dber"
    raise UnsupportedPair("no scheme row pairs a Berman storage code with a Berman retrieval code")


def _product(storage: BermanParams, retrieval: BermanParams) -> BermanParams:
    """The case-table product ``C * D`` of a supported pair; refused as
    :class:`ZeroRate` unless it is a family member short of the full space."""
    scheme_row(storage, retrieval)
    product = predict_star(storage, retrieval)
    if not isinstance(product, BermanParams) or product.is_full_space:
        raise ZeroRate(f"{storage.name} * {retrieval.name} fills the whole space")
    return product


def _rates(storage: BermanParams, retrieval: BermanParams, product: BermanParams) -> tuple[int, Fraction, Fraction]:
    n_s = storage.length
    t = min_distance_formula(retrieval.dual) - 1
    return t, Fraction(dimension_formula(storage), n_s), Fraction(n_s - dimension_formula(product), n_s)


def closed_form_triple(storage: BermanParams, retrieval: BermanParams) -> tuple[int, Fraction, Fraction]:
    """(t, R_st, R_pir) for a supported pair, read off the star-product case
    table: ``R_st = dim C / n^m``, ``R_pir = dim (C*D)^perp / n^m`` and
    ``t = d(D^perp) - 1``, all from the family's closed forms.

    Refusals by name (unsupported pair, zero rate) come first; then a length
    ``n^m`` with more decimal digits than Python prints raises
    :class:`TooLarge` (:func:`.berman.check_digits`) before any closed form
    runs."""
    product = _product(storage, retrieval)
    check_digits(storage)
    return _rates(storage, retrieval, product)


@dataclass(frozen=True)
class Schedule:
    """The addition table of two weight sets of ``Z_n^m``: ``coords[i][p]``
    is the coordinate where iteration i meets stripe p, the tuple
    ``iteration_shifts[i] + stripe_shifts[p]`` added componentwise mod n.
    A row holds one iteration's coordinates in stripe order; a column, one
    stripe's in iteration order, a translate of an information set of C."""

    n: int
    iteration_shifts: tuple[tuple[int, ...], ...]
    stripe_shifts: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SchemeDerived:
    """Everything the storage/retrieval pair fixes; files and seed play no part."""

    n_s: int
    storage_code: LinearCode
    retrieval_code: LinearCode
    product_code: LinearCode
    parity: BitMatrix  # M_E H': a parity-check matrix of C*D, the identity on J_0
    systematic: BitMatrix  # M_C B_C: a generator of C, the identity on I_0
    k_c: int
    d_perp: int
    t: int
    r_st: Fraction
    r_pir: Fraction
    schedule: Schedule

    @property
    def b(self) -> int:
        """Stripes per file: one per coordinate of ``J_0``."""
        return self.d_perp

    @property
    def s_iterations(self) -> int:
        """Iterations: one per coordinate of ``I_0``."""
        return self.k_c

    def file_row(self, demand: int, stripe: int) -> int:
        return demand * self.b + stripe


def derive_scheme(config: SchemeConfig) -> SchemeDerived:
    """The derivation of ``config``'s storage/retrieval pair, computed once
    per pair and shared by every run of it."""
    return _derive(config.storage, config.retrieval)


@lru_cache(maxsize=None)
def _derive(storage: BermanParams, retrieval: BermanParams) -> SchemeDerived:
    """Derive codes, rates, the syndrome map, and the schedule.

    Refusals by name (unsupported pair, zero rate) come before the length
    guard, and both before any arithmetic on ``n^m``.  The product code E is
    constructed outright and its dimension must match the case table's
    rate.  H' is the family basis of the member ``E^perp`` that the table
    names, ``n - dim E`` rows, and ``M_E`` is H' on ``J_0 = W(E^perp)``;
    ``B_C`` and ``M_C`` are the same for C on ``I_0 = W(C)`` (see
    :func:`.berman.weight_set`).  The products ``M_E H'`` and ``M_C B_C``
    are formed once, so decoding and reconstruction each multiply by one
    matrix.  Three checks, each on one table product, make ``M_E H'`` a
    parity-check matrix of E: it is the identity on ``J_0``, so
    ``M_E @ M_E = I`` and its rows are independent; it annihilates E's
    generator; and ``M_C B_C`` is the identity on ``I_0``, so
    ``M_C @ M_C = I``.  Each raises :class:`ProtocolInvariantError`, even
    under ``python -O``.  The schedule is the addition table of ``I_0`` and
    ``J_0`` (:func:`_addition_table`), so ``S = k_C`` and ``b = d_perp``.
    """
    product = _product(storage, retrieval)
    check_length(storage)
    t, r_st, r_pir = _rates(storage, retrieval, product)
    c = build(storage)
    d = build(retrieval)
    n_s = c.length
    e = star_codes(c, d)
    perp = product.dual
    iteration_set, stripe_set = weight_set(storage), weight_set(perp)
    if n_s - e.dimension != len(stripe_set) or Fraction(len(stripe_set), n_s) != r_pir:
        raise ProtocolInvariantError("constructed product dimension disagrees with the case table")
    parity = _self_inverse_product(perp, stripe_set, "syndrome")
    if (parity @ e.generator.transpose()).limbs.any():
        raise ProtocolInvariantError("the syndrome map does not annihilate the product code")
    return SchemeDerived(
        n_s=n_s,
        storage_code=c,
        retrieval_code=d,
        product_code=e,
        parity=parity,
        systematic=_self_inverse_product(storage, iteration_set, "storage"),
        k_c=c.dimension,
        d_perp=len(stripe_set),
        t=t,
        r_st=r_st,
        r_pir=r_pir,
        schedule=_addition_table(storage.n, storage.m, iteration_set, stripe_set),
    )


def _self_inverse_product(params: BermanParams, coords: tuple[int, ...], name: str) -> BitMatrix:
    """``M B``, where B is the family basis of ``params`` and M is B on its
    weight set ``coords``; raises :class:`ProtocolInvariantError` unless its
    columns ``coords``, ``M @ M``, are the identity."""
    basis = BitMatrix.from_rows(basis_vectors(params), params.length)
    product = basis.take_columns(coords) @ basis
    if product.take_columns(coords) != BitMatrix.identity(len(coords)):
        raise ProtocolInvariantError(f"the {name} basis on its weight set is not its own inverse")
    return product


def _addition_table(n: int, m: int, iteration_set: tuple[int, ...], stripe_set: tuple[int, ...]) -> Schedule:
    """The schedule whose iteration a (of ``I_0 = W(C)``) recovers, for
    stripe c (of ``J_0 = W(E^perp)``), coordinate ``a + c``.

    Iteration a covers ``J_0 + a``, a translate of an information set of
    ``E^perp``, so its columns of H' are independent; stripe c covers
    ``I_0 + c``, a translate of an information set of C.  Every Berman code
    is invariant under the translations of ``Z_n^m``, so both stay
    information sets, and addition commutes, so both views cover the same
    coordinates.  The table is formed on the tuples' digits at once."""
    place = n ** np.arange(m - 1, -1, -1)

    def digits(coords: tuple[int, ...]) -> np.ndarray:
        return np.asarray(coords)[:, None] // place % n

    rows, cols = digits(iteration_set), digits(stripe_set)
    table = (rows[:, None] + cols[None]) % n @ place
    return Schedule(
        n=n,
        iteration_shifts=tuple(map(tuple, rows.tolist())),
        stripe_shifts=tuple(map(tuple, cols.tolist())),
        coords=tuple(map(tuple, table.tolist())),
    )


# ---------------------------------------------------------------------------
# Protocol steps.

#: Guard on one retrieval matrix, in bits as held: ``M*b`` rows of ``n_s``
#: columns padded to whole 64-bit limbs.  The library and query draws
#: (``M*b*k_C`` and ``M*b*k_D`` bits) and the stored and query matrices all
#: fit within it, and a draw's unpacked bits take at most that many bytes.
MAX_BATCH_BITS = 1 << 27


def _query_bits(derived: SchemeDerived, files: int) -> int:
    """Bits of one iteration's query matrix as held: ``M*b`` rows of ``n_s``
    columns padded to whole limbs."""
    return files * derived.b * 64 * ((derived.n_s + 63) // 64)


def _check_batch_size(derived: SchemeDerived, files: int, iterations: int = 1) -> None:
    """Raise :class:`TooLarge`, before anything is drawn, when the
    retrieval's matrices, or a run of ``iterations`` query matrices, would
    exceed :data:`MAX_BATCH_BITS`."""
    bits = iterations * _query_bits(derived, files)
    if bits > MAX_BATCH_BITS:
        run = f"{iterations} iterations of " if iterations > 1 else ""
        raise TooLarge(
            f"{run}{files} files of {derived.b} stripes on {derived.n_s} servers take {bits} bits, "
            f"over the guard of {MAX_BATCH_BITS}"
        )


def encode_storage(derived: SchemeDerived, library: BitMatrix) -> BitMatrix:
    """The stored matrix: the library times the storage generator.

    The library is one ``M*b x k_C`` matrix holding the M files in blocks of
    b rows, so its row ``file_row(f, s)`` is stripe s of file f, and so is
    the stored matrix's.  Server ``i`` holds column ``i``."""
    b, k_c = derived.b, derived.k_c
    if library.cols != k_c or library.rows < b or library.rows % b:
        raise ShapeMismatch(f"the library must be a positive whole number of {b} x {k_c} files")
    return library @ derived.storage_code.generator


def gen_queries(
    derived: SchemeDerived, files: int, demand: int, iterations: range, rng: np.random.Generator
) -> BitMatrix:
    """The query matrices Q of a run of consecutive iterations, stacked: rows
    ``i*M*b`` to ``(i+1)*M*b`` are the query of ``iterations[i]``, and
    column j of each goes to server j.

    Every row starts as an independent uniform codeword of the retrieval
    code.  Each iteration, in order, draws one row-major batch of
    ``M*b x k_D`` uniform message bits, the bits of ``rng.integers(0, 2,
    (M*b, k_D), uint8)``.  These are consecutive calls, so the whole run is
    one :func:`~.gf2.draw_product` with the generator's limbs: it draws the
    run's bits together from whole Philox outputs, packs each row's bits a
    byte at a time and looks each byte up at once in its group's table,
    built once per run, so the message bits are never held.  Last, for
    each stripe p of each iteration i, bit ``coords[i][p]`` of the demanded
    file's stripe-p row of that iteration's query is flipped, all of the
    run's bits by one fancy-index XOR: each row holds one of them, so no
    two share a limb.  A run over :data:`MAX_BATCH_BITS` raises
    :class:`TooLarge` before the draw.
    """
    if not 0 <= demand < files:
        raise InvalidInput("demand index out of range")
    g_d = derived.retrieval_code.generator
    _check_batch_size(derived, files, len(iterations))
    b, rows = derived.b, files * derived.b
    limbs = draw_product(rng, len(iterations), rows, g_d.limbs)
    planted = np.arange(len(iterations))[:, None] * rows + derived.file_row(demand, np.arange(b))
    coords = np.array([derived.schedule.coords[it] for it in iterations], dtype=np.uint64).reshape(planted.shape)
    limbs[planted, coords >> 6] ^= np.uint64(1) << (coords & 63)
    return BitMatrix.from_limbs(limbs, derived.n_s)


def respond_all(stored: BitMatrix, q: BitMatrix) -> BitVector:
    """Every server's answer.  Bit ``i`` is the inner product of stored
    column ``i`` and query column ``i``, so the whole vector is one parity
    fold over rows: the XOR of ``stored_r & q_r``, on limbs."""
    if (stored.rows, stored.cols) != (q.rows, q.cols):
        raise LengthMismatch(f"stored {stored.rows} x {stored.cols} != query {q.rows} x {q.cols}")
    folded = np.bitwise_xor.reduce(stored.limbs & q.limbs, axis=0)
    return BitVector(q.cols, limbs_to_words(folded[None])[0])


def decode_iteration(derived: SchemeDerived, iteration: int, response: BitVector) -> int:
    """Syndrome-decode one response vector into a b-bit word whose bit p is
    stripe p's bit, read at coordinate ``coords[iteration][p]``.

    Iteration a plants stripe p's bit at coordinate ``a + c`` for the p-th
    c of ``J_0``.  The response translated by -a, ``r'(j) = r(j + a)``,
    holds them at ``J_0`` itself, and its random part stays a codeword of
    the translation-invariant product code, which H' annihilates.  So
    ``H' r' = M_E x`` for the planted bits x, and ``x = M_E (H' r')``, since
    ``M_E`` is its own inverse: one product with the derived ``M_E H'``.
    An iteration outside ``0..S-1`` raises :class:`IndexError`.
    """
    if response.length != derived.n_s:
        raise LengthMismatch(f"{response.length} != {derived.n_s}")
    if not 0 <= iteration < derived.s_iterations:
        raise IndexError(f"iteration {iteration} outside 0..{derived.s_iterations - 1}")
    schedule = derived.schedule
    back = [-x for x in schedule.iteration_shifts[iteration]]
    return derived.parity.mul_vector(BitVector(derived.n_s, translate(response.word, schedule.n, back))).word


def reconstruct_file(derived: SchemeDerived, recovered: list[int]) -> BitMatrix:
    """Rebuild the b x k_C file from the S decoded words, bit p of word i
    being stripe p's bit ``y = f . g`` at ``coords[i][p]``; a list of other
    than S words, or a word with a bit at or above b, raises
    :class:`~.gf2.LengthMismatch`.

    Stripe p, of shift c, holds its codeword ``u = f G_C`` on ``I_0 + c``.
    Translated by -c it is a codeword u' of C, read on ``I_0`` as y', bit p
    of each word in iteration order.  So ``u' = f' B_C`` with
    ``f' = y' M_C``: ``u' = y' (M_C B_C)``, the XOR of the rows of the
    derived matrix that those bits select.  Bit r of the file row, u at the
    RREF pivot ``P_r``, is bit ``P_r - c`` of u': u' translated back by c,
    read at the pivots."""
    b, schedule = derived.b, derived.schedule
    if len(recovered) != derived.s_iterations or any(word >> b for word in recovered):
        raise LengthMismatch(f"reconstruction takes {derived.s_iterations} words of {b} bits")
    pivots = derived.storage_code.information_set()
    rows = derived.systematic.row_words
    words = []
    for p, shift in enumerate(schedule.stripe_shifts):
        u = 0
        for word, row in zip(recovered, rows):
            if word >> p & 1:
                u ^= row
        u = translate(u, schedule.n, shift)
        words.append(sum((u >> q & 1) << r for r, q in enumerate(pivots)))
    return BitMatrix(b, derived.k_c, tuple(words))


# ---------------------------------------------------------------------------
# Privacy checks.


def _projection_rank(cols: tuple[int, ...], subset: tuple[int, ...]) -> int:
    """Rank of the code's projection onto ``subset``, given its column words."""
    pivots: dict[int, int] = {}
    for j in subset:
        w = reduce_word(cols[j], pivots)
        if w:
            pivots[w & -w] = w
    return len(pivots)


def _check_collusion_size(t: int, n_s: int) -> None:
    if not 0 <= t <= n_s:
        raise ValueError(f"t must lie in 0..{n_s}, got {t}")


#: Most coordinate subsets the privacy checks enumerate one by one.
EXHAUSTIVE_SUBSETS = 100_000


def verify_privacy_rank(retrieval_code: LinearCode, t: int) -> bool:
    """True iff every t-column projection of the code is onto.

    Onto projections make the random query part uniform on the colluding
    coordinates, which is exactly the privacy condition, and they are onto
    iff every t columns are independent, i.e. iff ``d(D^perp) > t``.  Three
    exact routes, the first that applies decides:

    * every coordinate subset, while there are at most
      :data:`EXHAUSTIVE_SUBSETS`;
    * the brute-force distance of ``D^perp``, while its dimension is within
      the guard :data:`.codes.MAX_BRUTE_FORCE_DIM`;
    * the closed-form distance of the family member whose built code is
      ``D^perp``, for a dual of the same length and dimension.

    A code none of them decides (a long code outside the families) raises
    :class:`TooLarge`.
    """
    return _privacy_verdict(retrieval_code, t)[0]


def _privacy_verdict(retrieval_code: LinearCode, t: int) -> tuple[bool, str]:
    """:func:`verify_privacy_rank`'s verdict and the route that decided it:
    ``exhaustive``, ``dual-distance`` or ``family``."""
    n_s = retrieval_code.length
    _check_collusion_size(t, n_s)
    if comb(n_s, t) <= EXHAUSTIVE_SUBSETS:
        cols = retrieval_code.column_words
        return all(_projection_rank(cols, subset) == t for subset in combinations(range(n_s), t)), "exhaustive"
    dual = retrieval_code.dual()
    if dual.dimension <= MAX_BRUTE_FORCE_DIM:
        return dual.dimension == 0 or dual.min_distance_bruteforce() > t, "dual-distance"
    member = _family_member(dual)
    if member is None:
        raise TooLarge(f"{n_s}-coordinate code outside the families: no exact privacy route for t = {t}")
    return member.is_zero_code or min_distance_formula(member) > t, "family"


def _family_member(code: LinearCode) -> BermanParams | None:
    """The family member whose built code equals ``code``, or None: members
    of every shape ``n^m`` equal to its length, of the same dimension."""
    length = code.length
    for m in range(length.bit_length() - 1, 0, -1):
        n = round(length ** (1 / m))
        if n < 2 or n**m != length:
            continue
        for kind in CodeKind:
            for r in range(m + 1):
                member = BermanParams(kind, n, m, r)
                if dimension_formula(member) == code.dimension and build(member) == code:
                    return member
    return None


def _worst_case_columns(retrieval_code: LinearCode, t: int, prefer: int) -> tuple[int, ...]:
    """A size-t coordinate set minimizing the projection rank (worst case
    for privacy), preferring sets that contain the ``prefer`` coordinate."""
    cols = retrieval_code.column_words
    return min(
        combinations(range(retrieval_code.length), t),
        key=lambda subset: (_projection_rank(cols, subset), 0 if prefer in subset else 1, subset),
    )


def verify_privacy_empirical(config: SchemeConfig, t: int) -> float:
    """Max total-variation distance between restricted query distributions.

    Uses a cut-down instance with one stripe per file (the privacy argument
    is per-iteration and does not depend on the stripe count), a worst-case
    colluding set T of size t, found among every size-t coordinate set
    (allowed while there are at most :data:`EXHAUSTIVE_SUBSETS`), and one
    embedded coordinate.  The query randomness is enumerated exhaustively
    (allowed while ``dim(D) * M <= 20``): the words of one
    :func:`.gf2.span_table` of D's generator on T are its codewords there,
    with multiplicity, and one count of their M-tuples serves every demand,
    with the embedded bit XORed into the demanded row.
    The uniform distribution is included as a reference point, so a
    single-demand instance still measures deviation from uniformity.
    Once the size guards pass, D and ``(C*D)^perp`` come from
    :func:`derive_scheme`, so a pair the scheme does not support or cannot
    schedule raises as derivation does.
    """
    _check_collusion_size(t, config.storage.length)
    rows = config.files
    if rows * t > 12:
        raise TooLarge("joint query alphabet exceeds the enumeration guard")
    k_d = dimension_formula(config.retrieval)
    if k_d * rows > 20:
        raise TooLarge("query randomness exceeds the exhaustive enumeration guard")
    if comb(config.storage.length, t) > EXHAUSTIVE_SUBSETS:
        raise TooLarge("colluding sets exceed the exhaustive enumeration guard")
    derived = derive_scheme(config)
    d = derived.retrieval_code
    embed = LinearCode.from_generator(derived.parity).information_set()[0]
    subset = _worst_case_columns(d, t, prefer=embed)
    restricted = d.generator.take_columns(subset)
    shift = 1 << subset.index(embed) if embed in subset else 0

    words = limbs_to_words(span_table(restricted.limbs))  # every restricted codeword, with multiplicity
    counts = Counter(product(words, repeat=rows))
    total = len(words) ** rows

    def distribution(demand: int) -> dict[tuple[int, ...], float]:
        return {key[:demand] + (key[demand] ^ shift,) + key[demand + 1 :]: c / total for key, c in counts.items()}

    dists = [distribution(demand) for demand in range(config.files)]
    outcomes = 1 << (rows * t)
    uniform = 1.0 / outcomes
    dists.append({tuple((w >> (i * t)) & ((1 << t) - 1) for i in range(rows)): uniform for w in range(outcomes)})

    def tv(p: dict, q: dict) -> float:
        keys = set(p) | set(q)
        return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)

    worst = 0.0
    for i in range(len(dists)):
        for j in range(i + 1, len(dists)):
            worst = max(worst, tv(dists[i], dists[j]))
    return worst


# ---------------------------------------------------------------------------
# End-to-end retrieval.


@dataclass(frozen=True)
class Transcript:
    """Record of one simulated retrieval: its schedule and one response
    vector per iteration, not the queries, which the seed redraws."""

    config: SchemeConfig
    demand: int
    t: int
    r_st: Fraction
    r_pir: Fraction
    b: int
    s_iterations: int
    schedule: Schedule
    responses: tuple[BitVector, ...]
    recovered_file: BitMatrix
    stored_file: BitMatrix
    reconstructed_ok: bool
    downloaded_bits: int
    achieved_rate: Fraction

    def to_json(self) -> str:
        return "".join(self.iter_json())

    def iter_json(self) -> Iterator[str]:
        """:meth:`to_json` in pieces, so a writer need not hold the whole text.
        Each iteration lists its coordinates ascending, ``"J"``, and in that
        order each with its stripe, ``"assignments"``."""
        payload = {
            "config": {
                "storage": self.config.storage.name,
                "retrieval": self.config.retrieval.name,
                "files": self.config.files,
                "seed": self.config.seed,
            },
            "demand": self.demand,
            "derived": {
                "t": self.t,
                "R_st": float(self.r_st),
                "R_pir": float(self.r_pir),
                "b": self.b,
                "S": self.s_iterations,
            },
            "iterations": [
                {
                    "J": sorted(row),
                    "assignments": sorted(([p, coord] for p, coord in enumerate(row)), key=lambda pair: pair[1]),
                    "responses_hex": response.to_hex(),
                }
                for row, response in zip(self.schedule.coords, self.responses)
            ],
            "reconstructed_ok": self.reconstructed_ok,
            "achieved_rate": float(self.achieved_rate),
        }
        yield from json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
        yield "\n"


def run_retrieval(config: SchemeConfig, demand: int) -> Transcript:
    """Simulate a full retrieval of file ``demand``.

    Draw order from the seeded Philox stream: first the M file matrices,
    each the row-major bits of one ``rng.integers(0, 2, (b, k_C), uint8)``
    call, then one query batch per iteration (:func:`gen_queries`).  A uint8
    call starts on a fresh 32-bit word, so one bit draw of all M files would
    shift the stream; instead :func:`~.gf2.draw_bit_limbs` draws the M
    calls' words together as whole Philox outputs and writes each limb byte
    of the one library matrix straight from them, with the same bits.  A
    library over :data:`MAX_BATCH_BITS` raises :class:`TooLarge` before
    anything is drawn.

    The S iterations are cut into runs of consecutive iterations, each as
    long as :data:`MAX_BATCH_BITS` allows, and each run's queries come from
    one :func:`gen_queries` call; the draws are the same one batch per
    iteration in order, however the runs fall.  A retrieval holds one run
    of queries at a time and keeps only the response vectors.  One
    :func:`~.gf2.take_bits` call first gathers the S*b planted bits, the
    demanded stripes' stored bits at every row of ``coords``.  Every
    iteration is answered by :func:`respond_all` and decoded by
    :func:`decode_iteration` on its own, and checks, in this order, that
    the response vector minus its planted bits lies in the product code and
    that the decoded word equals them.  Last, the achieved rate is read off
    what the retrieval produced: the rebuilt file's ``b*k_C`` bits over the
    summed lengths of the kept responses, the downloaded bits.  A failed
    check, or an achieved rate that strays from the derived one, raises
    :class:`ProtocolInvariantError`.
    """
    if not 0 <= demand < config.files:
        raise InvalidInput("demand index out of range")
    derived = derive_scheme(config)
    _check_batch_size(derived, config.files)
    rng = philox_generator(config.seed)
    b, k_c = derived.b, derived.k_c
    library = BitMatrix.from_limbs(draw_bit_limbs(rng, config.files, b, k_c), k_c)
    stored = encode_storage(derived, library)

    coords = derived.schedule.coords
    s_iterations = len(coords)
    first = derived.file_row(demand, 0)
    rows = config.files * b
    planted = take_bits(stored.limbs, list(range(first, first + b)) * s_iterations, [c for row in coords for c in row])
    run = MAX_BATCH_BITS // _query_bits(derived, config.files)
    responses, recovered = [], []
    for start in range(0, s_iterations, run):
        iterations = range(start, min(start + run, s_iterations))
        queries = gen_queries(derived, config.files, demand, iterations, rng).limbs
        for i, it in enumerate(iterations):
            response = respond_all(stored, BitMatrix.from_limbs(queries[i * rows : (i + 1) * rows], derived.n_s))
            word = decode_iteration(derived, it, response)
            bits = planted[it * b : (it + 1) * b]
            embed_word = sum(1 << coord for coord, bit in zip(coords[it], bits) if bit)
            if not derived.product_code.contains(BitVector(derived.n_s, response.word ^ embed_word)):
                raise ProtocolInvariantError(f"iteration {it}: response residue left the product code")
            wrong = word ^ sum(bit << p for p, bit in enumerate(bits))
            if wrong:
                p = (wrong & -wrong).bit_length() - 1
                raise ProtocolInvariantError(
                    f"iteration {it}: recovered bit of stripe {p} at coordinate {coords[it][p]} is wrong"
                )
            responses.append(response)
            recovered.append(word)
        del queries  # hold one run of queries at a time

    rebuilt = reconstruct_file(derived, recovered)
    demanded = BitMatrix.from_limbs(library.limbs[first : first + b].copy(), k_c)  # not a view: keep no library alive
    downloaded = sum(response.length for response in responses)
    achieved = Fraction(rebuilt.rows * rebuilt.cols, downloaded)
    if achieved != derived.r_pir:
        raise ProtocolInvariantError(f"achieved rate {achieved} strayed from the derived rate {derived.r_pir}")
    return Transcript(
        config=config,
        demand=demand,
        t=derived.t,
        r_st=derived.r_st,
        r_pir=derived.r_pir,
        b=b,
        s_iterations=s_iterations,
        schedule=derived.schedule,
        responses=tuple(responses),
        recovered_file=rebuilt,
        stored_file=demanded,
        reconstructed_ok=rebuilt == demanded,
        downloaded_bits=downloaded,
        achieved_rate=achieved,
    )
