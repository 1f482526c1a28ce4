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
``J_0 = W((C * D)^perp)`` (see :func:`.berman.basis`).  The response
translated by -a, times the family basis H' of ``(C * D)^perp``, loses its
random part and leaves the planted bits times ``M_E``, H' on ``J_0``, which
is its own inverse.  After all iterations each stripe c holds C's codeword
on ``I_0 + c``; translated back it is read through ``M_C``, the family basis
of C on ``I_0``, also its own inverse.  So ``b = d_perp`` and ``S = k_C``,
and neither step eliminates anything once the pair is derived.

A retrieval runs five stages: encode, query, respond, decode and
reconstruct, each one public function.  The bulk work runs on NumPy limb
arrays (see :mod:`.gf2`): the queries of a run of consecutive iterations are
drawn straight into one table product with D's generator, so its tables are
built once per run and the message bits are never held.  The run is
answered in place: its limbs are ANDed with the stored limbs where they lie
and XOR-folded over each query's rows, so no second run-sized array is held,
which would double the run's transient heap.
The schedule and the stripe readout are read-only int32 tables, formed once
per pair one tuple component at a time, so a run's coordinates are a slice,
the planted bits one gather, and reconstruction reads each stripe's file bits
where they stand, with no translation.  The checks and the rebuild walk the
set planted bits of each iteration once, in Python integers.
The matrices the stages return keep those limbs and become Python integers
only where something reads their words; a retrieval itself reads the words
of the response vectors and the demanded file alone.

Collusion resistance: any t servers see t columns of Q, and those are
exactly uniform as long as every t-column projection of D is the full
space, which holds up to ``t = d_min(D^perp) - 1``.  The check decides this
exactly: by enumeration on small instances, otherwise from the distance of
``D^perp``, brute-forced or, for a code built as a family member, read off
the closed form of the dual member.

All of a retrieval's randomness flows from a single 64-bit seed through
NumPy's Philox counter-based generator (Philox 4x64 with 10 rounds); draw
order is documented in :func:`run_retrieval`.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, product
from math import comb

import numpy as np

from .berman import (
    BermanParams,
    CodeKind,
    build,
    check_digits,
    check_length,
    dimension_formula,
    min_distance_formula,
    reflect,
    translate,
)
from .codes import MAX_BRUTE_FORCE_DIM, InvalidInput, LinearCode, ProtocolInvariantError, TooLarge, whole_number
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
    """Storage/retrieval pair, library size, and the master RNG seed.  Files
    and seed are held as Python ints; a bool or a number that is not an
    integer raises :class:`InvalidInput`."""

    storage: BermanParams
    retrieval: BermanParams
    files: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("files", "seed"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
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
    """The addition table of two weight sets of ``Z_n^m``: ``coords[i, p]``
    is the coordinate where iteration i meets stripe p, the tuple
    ``iteration_shifts[i] + stripe_shifts[p]`` added componentwise mod n.
    A row holds one iteration's coordinates in stripe order, ``J_0 + a``
    for iteration a of ``I_0 = W(C)``: a translate of an information set of
    ``E^perp``, so its columns of H' are independent.  A column holds one
    stripe's in iteration order, ``I_0 + c`` for stripe c of
    ``J_0 = W(E^perp)``: a translate of an information set of C.  Every
    Berman code is invariant under the translations of ``Z_n^m``, so both
    stay information sets, and addition commutes, so both views cover the
    same coordinates.

    ``coords`` is formed from the shifts when the schedule is made
    (:func:`_sum_table`): one read-only int32 array of S rows and b columns,
    so a run of iterations is a slice of it and all its coordinates one
    ``ravel``.  It is not a field, so equality and hashing read the shifts
    alone, which fix it, and no schedule holds a table its shifts
    contradict."""

    n: int
    iteration_shifts: tuple[tuple[int, ...], ...]
    stripe_shifts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _sum_table(self.n, self.iteration_shifts, self.stripe_shifts))


@dataclass(frozen=True)
class SchemeDerived:
    """Everything the storage/retrieval pair fixes; files and seed play no part.

    The product code E is held once, as its syndrome map ``parity``
    (``M_E H'``), whose kernel the derivation proves is E; no RREF of E
    outlives the derivation.  ``readout[p, r]`` is the coordinate of stripe
    p's translated codeword that holds bit r of its file row
    (:func:`reconstruct_file`): C's RREF pivots minus stripe p's shift, a
    read-only int32 :func:`_sum_table`.  It is formed from the schedule and
    C when the derivation is made, and is not a field, so equality and
    hashing read only what fixes it."""

    n_s: int
    storage_code: LinearCode
    retrieval_code: LinearCode
    parity: BitMatrix  # M_E H': a parity-check matrix of C*D, the identity on J_0
    systematic: BitMatrix  # M_C B_C: a generator of C, the identity on I_0
    k_c: int
    d_perp: int
    t: int
    r_st: Fraction
    r_pir: Fraction
    schedule: Schedule

    def __post_init__(self) -> None:
        n, offsets = self.schedule.n, self.schedule.stripe_shifts
        pivots = _digits(n, len(offsets[0]), self.storage_code.information_set())
        object.__setattr__(self, "readout", _sum_table(n, -np.array(offsets, dtype=np.int32) % n, pivots))

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
    :func:`.berman.basis`).  ``M_E H'`` and ``M_C B_C`` are the generators
    of ``E^perp`` and C that are the identity on ``J_0`` and ``I_0``, read
    off each member's cached RREF (:func:`_on_weight_set`), so no basis is
    formed twice and decoding and reconstruction each multiply by one
    matrix.  :func:`.berman.build` has checked that each W is an
    information set, so ``M_E H'`` has independent rows; it is a
    parity-check matrix of E once it has ``n - dim E`` rows, as the case
    table says, and annihilates E's generator, one table product.  So its
    kernel is E, and it is the one form of E kept: the RREF that
    :func:`.star.star_codes` forms for these checks is dropped.  Each check
    raises :class:`ProtocolInvariantError`, even under ``python -O``.  The
    schedule is the addition table of ``I_0`` and ``J_0``, so ``S = k_C``
    and ``b = d_perp``; the stripe readout is the table of C's RREF pivots
    minus ``J_0``.  Each is formed from those shifts when the schedule and
    the derivation are made (:func:`_sum_table`).
    """
    product = _product(storage, retrieval)
    check_length(storage)
    t, r_st, r_pir = _rates(storage, retrieval, product)
    c = build(storage)
    d = build(retrieval)
    n_s = c.length
    e = star_codes(c, d)
    perp = product.dual
    stripe_set, parity = _on_weight_set(perp)
    if n_s - e.dimension != len(stripe_set) or Fraction(len(stripe_set), n_s) != r_pir:
        raise ProtocolInvariantError("constructed product dimension disagrees with the case table")
    if (parity @ e.generator.transpose()).limbs.any():
        raise ProtocolInvariantError("the syndrome map does not annihilate the product code")
    iteration_set, systematic = _on_weight_set(storage)
    n, m = storage.n, storage.m
    return SchemeDerived(
        n_s=n_s,
        storage_code=c,
        retrieval_code=d,
        parity=parity,
        systematic=systematic,
        k_c=c.dimension,
        d_perp=len(stripe_set),
        t=t,
        r_st=r_st,
        r_pir=r_pir,
        schedule=Schedule(n, _digits(n, m, iteration_set), _digits(n, m, stripe_set)),
    )


def _on_weight_set(params: BermanParams) -> tuple[tuple[int, ...], BitMatrix]:
    """W(params) and the generator of ``build(params)`` that is the identity
    on it, ``M B`` for the family basis B and M, B on W: its cached RREF, as
    it stands or reflected (:func:`.berman.reflect`)."""
    code = build(params)
    coords, words = reflect(params, code.information_set(), code.generator.row_words)
    return coords, BitMatrix(len(words), params.length, words)


def _digits(n: int, m: int, coords: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The coordinates' tuples of ``Z_n^m``, m digits each, most significant
    first."""
    place = n ** np.arange(m - 1, -1, -1)
    return tuple(map(tuple, (np.asarray(coords, dtype=np.int64)[:, None] // place % n).tolist()))


def _sum_table(n: int, rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> np.ndarray:
    """The read-only int32 table whose entry ``[i, j]`` is the coordinate of
    the digit tuples ``rows[i] + cols[j]``, added componentwise mod n; each
    side is a sequence of tuples or an int array of them.

    The table is built one component at a time, most significant first:
    each step multiplies it by n and adds one digit sum, so nothing beside
    it is larger than one table of int32 digits.  (All components at once
    would form a table of m-digit tuples, and a copy of it, in int64.)"""
    rows, cols = np.asarray(rows, dtype=np.int32), np.asarray(cols, dtype=np.int32)
    table = np.zeros((len(rows), len(cols)), dtype=np.int32)
    for component in range(rows.shape[1]):
        digit = np.add.outer(rows[:, component], cols[:, component])
        digit %= n
        table *= n
        table += digit
    table.flags.writeable = False
    return table


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
) -> np.ndarray:
    """The query matrices Q of a run of consecutive iterations, as one
    writable limb array of shape ``(len(iterations), M*b, W)``: entry i is
    the query of ``iterations[i]``, one row of W limbs per file row, and bit
    j of each row goes to server j.

    Every row starts as an independent uniform codeword of the retrieval
    code.  Each iteration, in order, draws one row-major batch of
    ``M*b x k_D`` uniform message bits, the bits of ``rng.integers(0, 2,
    (M*b, k_D), uint8)``.  These are consecutive calls, so the whole run is
    one :func:`~.gf2.draw_product` with the generator's limbs: it draws the
    run's bits together from whole Philox outputs, packs each row's bits a
    byte at a time and looks each byte up at once in its group's table,
    built once per run, so the message bits are never held.  Last, for
    each stripe p of each iteration i, bit ``coords[i, p]`` of the demanded
    file's stripe-p row of that iteration's query is flipped, all of the
    run's bits by one fancy-index XOR over the run's slice of ``coords``:
    each row holds one of them, so no two share a limb.  Before anything
    is drawn, files that are not a positive integer, a demand that is not an
    integer in ``0..M-1``, or iterations that are not a ``range`` raise
    :class:`InvalidInput`; a range that is not a step-1 range within
    ``0..S`` raises :class:`IndexError`, and a run over
    :data:`MAX_BATCH_BITS` raises :class:`TooLarge`.  Files are held as a
    Python int from then on, so a NumPy integer cannot wrap in the sizes.

    :func:`respond_all` overwrites the array it is given, so a
    :class:`~.gf2.BitMatrix` built on any part of it must not outlive that
    call: :meth:`~.gf2.BitMatrix.from_limbs` makes only its own view
    read-only, not the array behind it.
    """
    demand, files = whole_number(demand, "demand"), whole_number(files, "files")
    if not 0 <= demand < files:  # also refuses fewer than one file
        raise InvalidInput("demand index out of range")
    if not isinstance(iterations, range):
        raise InvalidInput(f"iterations must be a range, not {type(iterations).__name__}")
    if iterations.step != 1 or not 0 <= iterations.start <= iterations.stop <= derived.s_iterations:
        raise IndexError(f"iterations {iterations} are not a step-1 range within 0..{derived.s_iterations}")
    _check_batch_size(derived, files, len(iterations))
    b, rows = derived.b, files * derived.b
    limbs = draw_product(rng, len(iterations), rows, derived.retrieval_code.generator.limbs)
    planted = np.arange(len(iterations))[:, None] * rows + derived.file_row(demand, np.arange(b))
    coords = derived.schedule.coords[iterations.start : iterations.stop]
    limbs[planted, coords >> 6] ^= np.uint64(1) << (coords & 63).astype(np.uint64)
    return limbs.reshape(len(iterations), rows, limbs.shape[1])


def respond_all(stored: BitMatrix, queries: np.ndarray, cols: int) -> list[BitVector]:
    """Every server's answer to each query of a run of ``cols``-column
    queries, as :func:`gen_queries` returns it: limbs of shape
    ``(iterations, rows, W)``.  Queries whose rows, columns or limbs per row
    differ from the stored matrix's raise :class:`~.gf2.LengthMismatch`.

    Bit ``i`` of a response is the inner product of stored column ``i`` and
    query column ``i``, so each response is one parity fold over rows: the
    XOR of ``stored_r & q_r``.  ``queries`` is overwritten: ANDed with the
    stored limbs in place, then XOR-folded over each query's rows.  A second
    run-sized array would double the retrieval's transient heap, and with it
    the page faults of every run."""
    if cols != stored.cols or queries.shape[1:] != stored.limbs.shape:
        raise LengthMismatch(
            f"stored {stored.rows} x {stored.cols} != queries of {cols} columns on limbs {queries.shape[1:]}"
        )
    np.bitwise_and(queries, stored.limbs, out=queries)
    return [BitVector(cols, word) for word in limbs_to_words(np.bitwise_xor.reduce(queries, axis=1))]


def decode_iteration(derived: SchemeDerived, iteration: int, response: BitVector) -> int:
    """Syndrome-decode one response vector into a b-bit word whose bit p is
    stripe p's bit, read at coordinate ``coords[iteration, p]``.

    Iteration a plants stripe p's bit at coordinate ``a + c`` for the p-th
    c of ``J_0``.  The response translated by -a, ``r'(j) = r(j + a)``,
    holds them at ``J_0`` itself, and its random part stays a codeword of
    the translation-invariant product code, which H' annihilates.  So
    ``H' r' = M_E x`` for the planted bits x, and ``x = M_E (H' r')``, since
    ``M_E`` is its own inverse: one product with the derived ``M_E H'``.
    An iteration that is not an integer raises :class:`InvalidInput`, and
    one outside ``0..S-1`` :class:`IndexError`.
    """
    if response.length != derived.n_s:
        raise LengthMismatch(f"{response.length} != {derived.n_s}")
    if not 0 <= whole_number(iteration, "iteration") < derived.s_iterations:
        raise IndexError(f"iteration {iteration} outside 0..{derived.s_iterations - 1}")
    schedule = derived.schedule
    back = [-x for x in schedule.iteration_shifts[iteration]]
    return derived.parity.mul_vector(BitVector(derived.n_s, translate(response.word, schedule.n, back))).word


def reconstruct_file(derived: SchemeDerived, recovered: list[int]) -> BitMatrix:
    """Rebuild the b x k_C file from the S decoded words, bit p of word i
    being stripe p's bit ``y = f . g`` at ``coords[i, p]``; a list of other
    than S words, or a word with a bit at or above b, raises
    :class:`~.gf2.LengthMismatch`.

    Stripe p, of shift c, holds its codeword ``u = f G_C`` on ``I_0 + c``.
    Translated by -c it is a codeword u' of C, read on ``I_0`` as y', bit p
    of each word in iteration order.  So ``u' = f' B_C`` with
    ``f' = y' M_C``: ``u' = y' (M_C B_C)``, the XOR of the rows of the
    derived matrix that those bits select.  Bit r of the file row, u at the
    RREF pivot ``P_r``, is bit ``P_r - c`` of u', which the derived
    ``readout[p, r]`` names: so u' is read where it stands and never
    translated back.  The XORs walk only the set bits of each word, adding
    its row to the u' of each stripe it names, and the readout is read as
    one list."""
    b = derived.b
    if len(recovered) != derived.s_iterations or any(word >> b for word in recovered):
        raise LengthMismatch(f"reconstruction takes {derived.s_iterations} words of {b} bits")
    codewords = [0] * b  # u' of each stripe
    for word, row in zip(recovered, derived.systematic.row_words):
        while word:
            low = word & -word
            codewords[low.bit_length() - 1] ^= row
            word ^= low
    readouts = derived.readout.tolist()
    words = [sum([(u >> q & 1) << r for r, q in enumerate(readout)]) for u, readout in zip(codewords, readouts)]
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


def _check_collusion_size(t: int, n_s: int) -> int:
    """``t`` as a Python int (:func:`.codes.whole_number`) once it lies in
    ``0..n_s``; otherwise raises :class:`InvalidInput`."""
    t = whole_number(t, "t")
    if not 0 <= t <= n_s:
        raise InvalidInput(f"t must lie in 0..{n_s}, got {t}")
    return t


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
    * the closed-form distance of ``D^perp``, for a code built as a family
      member (:attr:`.codes.LinearCode.member`): its dual is that member's
      dual.

    The last two take ``D^perp`` as the built dual member, once one product
    shows that it annihilates D and that the dimensions add up to the
    length, and otherwise raise :class:`ProtocolInvariantError`; a code not
    built as a member is eliminated for its dual.  A code none of the
    routes decides (a long code made any other way) raises
    :class:`TooLarge`.
    """
    return _privacy_verdict(retrieval_code, t)[0]


def _privacy_verdict(retrieval_code: LinearCode, t: int) -> tuple[bool, str]:
    """:func:`verify_privacy_rank`'s verdict and the route that decided it:
    ``exhaustive``, ``dual-distance`` or ``family``."""
    n_s = retrieval_code.length
    t = _check_collusion_size(t, n_s)
    if comb(n_s, t) <= EXHAUSTIVE_SUBSETS:
        cols = retrieval_code.column_words
        return all(_projection_rank(cols, subset) == t for subset in combinations(range(n_s), t)), "exhaustive"
    member = retrieval_code.member
    if member is None:
        dual = retrieval_code.dual()
    else:
        dual = build(member.dual)
        generator = retrieval_code.generator
        if generator.rows + dual.dimension != n_s or (generator @ dual.generator.transpose()).limbs.any():
            raise ProtocolInvariantError(f"{member.dual.name} is not the dual of the code built as {member.name}")
    if dual.dimension <= MAX_BRUTE_FORCE_DIM:
        return dual.dimension == 0 or dual.min_distance_bruteforce() > t, "dual-distance"
    if member is None:
        raise TooLarge(f"{n_s}-coordinate code outside the families: no exact privacy route for t = {t}")
    return member.dual.is_zero_code or min_distance_formula(member.dual) > t, "family"


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
    :func:`derive_scheme`, so a pair the scheme does not support raises as
    derivation does.
    """
    t = _check_collusion_size(t, config.storage.length)
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
        """:meth:`to_json` in pieces, so a writer need not hold the whole text,
        nor any iteration's lists but the one it writes.  Each iteration lists
        its coordinates ascending, ``"J"``, and in that order each with its
        stripe, ``"assignments"``.

        The payload is encoded first with no iterations.  The only text
        before its ``"iterations": []`` is the two member names, which cannot
        hold it, so its first match is that key.  The ``[]`` is then filled
        an iteration at a time, each encoded on its own by the same encoder
        and indented four more spaces, as the list's items at depth 2, so the
        text is the one the whole payload encodes to."""
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
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
            "iterations": [],
            "reconstructed_ok": self.reconstructed_ok,
            "achieved_rate": float(self.achieved_rate),
        }
        head, tail = encoder.encode(payload).split('"iterations": []', 1)
        yield head + '"iterations": ['
        for i, (row, response) in enumerate(zip(map(np.ndarray.tolist, self.schedule.coords), self.responses)):
            iteration = {
                "J": sorted(row),
                "assignments": sorted(([p, coord] for p, coord in enumerate(row)), key=lambda pair: pair[1]),
                "responses_hex": response.to_hex(),
            }
            yield ("," if i else "") + "\n    " + encoder.encode(iteration).replace("\n", "\n    ")
        yield ("\n  ]" if self.responses else "]") + tail + "\n"


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

    The stages run in order: :func:`encode_storage`, then, per run,
    :func:`gen_queries` and :func:`respond_all`, then per iteration
    :func:`decode_iteration`, and last :func:`reconstruct_file`.  The S
    iterations are cut into runs of consecutive iterations, each as long as
    :data:`MAX_BATCH_BITS` allows; the draws are the same one batch per
    iteration in order, however the runs fall.  A retrieval holds one run
    of queries at a time and keeps only the response vectors.  One
    :func:`~.gf2.take_bits` call first gathers the S*b planted bits, the
    demanded stripes' stored bits at every entry of ``coords``, in one
    ``ravel`` of it.  Each run's queries go straight into
    :func:`respond_all`, which folds them in place, so no second run-sized
    array is ever held and the queries are freed once the fold returns.
    Every iteration is then decoded on its own, and checks, in this order,
    that the response vector minus its planted bits lies in the product
    code, as a zero syndrome under ``M_E H'``, whose kernel the derivation
    proves is E, and that the decoded word equals them; the run's
    coordinate rows come out in one ``tolist``, and one pass over each
    iteration's set planted bits builds both the word they embed and the
    decoded word they should give.  A wrong decoded word names its
    iteration, its lowest wrong stripe and that stripe's coordinate.  Last,
    the achieved rate is read off what the retrieval produced: the rebuilt
    file's ``b*k_C`` bits over the summed lengths of the kept responses, the
    downloaded bits.  A failed check, or an achieved rate that strays from
    the derived one, raises :class:`ProtocolInvariantError`.
    """
    demand = whole_number(demand, "demand")
    if not 0 <= demand < config.files:
        raise InvalidInput("demand index out of range")
    derived = derive_scheme(config)
    _check_batch_size(derived, config.files)
    rng = philox_generator(config.seed)
    b, k_c, n_s = derived.b, derived.k_c, derived.n_s
    library = BitMatrix.from_limbs(draw_bit_limbs(rng, config.files, b, k_c), k_c)
    stored = encode_storage(derived, library)

    coords = derived.schedule.coords
    s_iterations = len(coords)
    first = derived.file_row(demand, 0)
    planted = take_bits(stored.limbs, np.tile(np.arange(first, first + b), s_iterations), coords.ravel())
    run = MAX_BATCH_BITS // _query_bits(derived, config.files)
    responses, recovered = [], []
    for start in range(0, s_iterations, run):
        iterations = range(start, min(start + run, s_iterations))
        answers = respond_all(stored, gen_queries(derived, config.files, demand, iterations, rng), n_s)
        rows = coords[iterations.start : iterations.stop].tolist()
        for it, response, row in zip(iterations, answers, rows):
            word = decode_iteration(derived, it, response)
            embed_word = expected = 0
            for p in compress(range(b), planted[it * b : (it + 1) * b]):
                embed_word |= 1 << row[p]
                expected |= 1 << p
            if derived.parity.mul_vector(BitVector(n_s, response.word ^ embed_word)).word:
                raise ProtocolInvariantError(f"iteration {it}: response residue left the product code")
            wrong = word ^ expected
            if wrong:
                p = (wrong & -wrong).bit_length() - 1
                raise ProtocolInvariantError(
                    f"iteration {it}: recovered bit of stripe {p} at coordinate {row[p]} is wrong"
                )
            responses.append(response)
            recovered.append(word)

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
