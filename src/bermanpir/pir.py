"""Star-product private information retrieval with Berman-family code pairs.

A scheme stores M files of b x k_C bits across ``n_s = n^m`` servers by
encoding each stripe with the storage code C: the stored matrix has one
codeword row per stripe, and server ``i`` holds its column ``i``.
Retrieval runs S iterations; in each, the client sends every server one
column of a query matrix ``Q = D_rand + E`` of the same shape, whose random
part has rows drawn uniformly from the retrieval code D and whose deliberate
part plants single bits of the demanded file's stripes.  Server ``i``
answers with the inner product of its two columns, so the whole response
vector is the XOR over rows r of ``stored_r & Q_r``.  Multiplying it by a
parity-check matrix H of ``C * D`` annihilates the random part and exposes
the planted codeword bits, which an invertible column selection of H then
recovers.  After all iterations each stripe holds an information set of C
and the file follows by inverting the corresponding generator columns.

The bulk work runs on NumPy limb arrays (see :mod:`.gf2`): the queries of a
run of consecutive iterations are one table product of their packed message
bits with D's generator, so its tables are built once per run, and each
iteration's response is one XOR reduction over the rows of ``stored & Q``.
The matrices the stages return keep those limbs and become Python integers
only where something reads their words; a retrieval itself reads the words
of the response vectors and the demanded file alone.
The column inverses that decoding and reconstruction need depend only on the
schedule, so each pair computes them once.

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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice
from math import comb, gcd

import numpy as np

from .berman import (
    BermanParams,
    CodeKind,
    build,
    check_digits,
    check_length,
    dimension_formula,
    min_distance_formula,
)
from .codes import MAX_BRUTE_FORCE_DIM, LinearCode, ProtocolInvariantError, TooLarge
from .gf2 import (
    BitMatrix,
    BitVector,
    LengthMismatch,
    draw_bit_bytes,
    draw_bit_limbs,
    flip_bits,
    invert_columns,
    limb_product,
    limbs_to_words,
    reduce_word,
    take_bits,
)
from .star import predict_star, star_codes


class UnsupportedPair(ValueError):
    """The storage/retrieval pair matches no supported scheme row."""


class ZeroRate(ValueError):
    """The product code fills the whole space, leaving nothing to retrieve."""


class ScheduleNotFound(RuntimeError):
    """No schedule: proved not to exist, or not found within the budget."""


class Incomplete(ValueError):
    """A stripe is missing recovered coordinates."""


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
            raise ValueError("need at least one file")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


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
class IterationPlan:
    """One iteration's recovered coordinates (ascending) and their stripes."""

    coords: tuple[int, ...]
    stripes: tuple[int, ...]

    def assignments(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.stripes, self.coords))


@dataclass(frozen=True)
class Schedule:
    """The same assignment seen both ways: per iteration, its plan; per
    stripe, its coordinates (ascending), an information set of C."""

    iterations: tuple[IterationPlan, ...]
    stripe_coords: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SchemeDerived:
    """Everything the storage/retrieval pair fixes; files and seed play no part."""

    n_s: int
    storage_code: LinearCode
    retrieval_code: LinearCode
    product_code: LinearCode
    parity: BitMatrix  # generator of (C*D)^perp, the syndrome map H
    k_c: int
    d_perp: int
    t: int
    r_st: Fraction
    r_pir: Fraction
    b: int
    s_iterations: int
    schedule: Schedule

    def file_row(self, demand: int, stripe: int) -> int:
        return demand * self.b + stripe

    @cached_property
    def iteration_inverses(self) -> tuple[BitMatrix, ...]:
        """Per iteration, the inverse of H's columns at its coordinates."""
        return tuple(invert_columns(self.parity, plan.coords) for plan in self.schedule.iterations)

    @cached_property
    def stripe_inverses(self) -> tuple[BitMatrix, ...]:
        """Per stripe, the inverse of the storage generator's columns at its
        scheduled coordinates."""
        g_c = self.storage_code.generator
        return tuple(invert_columns(g_c, coords) for coords in self.schedule.stripe_coords)


def derive_scheme(config: SchemeConfig) -> SchemeDerived:
    """The derivation of ``config``'s storage/retrieval pair, computed once
    per pair and shared by every run of it."""
    return _derive(config.storage, config.retrieval)


@lru_cache(maxsize=None)
def _derive(storage: BermanParams, retrieval: BermanParams) -> SchemeDerived:
    """Derive codes, rates, the syndrome map, and a feasible schedule.

    Refusals by name (unsupported pair, zero rate) come before the length
    guard, and both before any arithmetic on ``n^m``.  The product code is
    constructed outright and its dual dimension must match the case table's
    rate; stripes and iterations are the smallest integers making
    ``b * k_C = S * d_perp`` exact.
    """
    product = _product(storage, retrieval)
    check_length(storage)
    t, r_st, r_pir = _rates(storage, retrieval, product)
    c = build(storage)
    d = build(retrieval)
    n_s = c.length
    e = star_codes(c, d)
    e_dual = e.dual()
    d_perp = e_dual.dimension
    if Fraction(d_perp, n_s) != r_pir:
        raise ProtocolInvariantError("constructed product dimension disagrees with the case table")
    k_c = c.dimension
    g = gcd(d_perp, k_c)
    b = d_perp // g
    s_iterations = b * k_c // d_perp
    schedule = _solve_schedule(c.generator, e_dual.generator, b, k_c, d_perp, s_iterations)
    return SchemeDerived(
        n_s=n_s,
        storage_code=c,
        retrieval_code=d,
        product_code=e,
        parity=e_dual.generator,
        k_c=k_c,
        d_perp=d_perp,
        t=t,
        r_st=r_st,
        r_pir=r_pir,
        b=b,
        s_iterations=s_iterations,
        schedule=schedule,
    )


#: Exchange-graph arcs the augmenting-path phase may scan before it gives
#: up; listing the arcs into one iteration counts one per coordinate.
SCHEDULE_BUDGET = 1_000_000


def _set_bits(word: int) -> Iterator[int]:
    """The indices of ``word``'s set bits, lowest first."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def _pivots(words: Iterable[int], low: int) -> dict[int, int]:
    """Pivot dict of independent tagged column words (see :func:`_augment`)."""
    pivots: dict[int, int] = {}
    for w in words:
        w = reduce_word(w, pivots)
        if not w & low:
            raise ProtocolInvariantError("a schedule block holds dependent columns")
        pivots[w & -w] = w
    return pivots


def _solve_schedule(
    g_c: BitMatrix, h: BitMatrix, b: int, k_c: int, d_perp: int, s_iterations: int
) -> Schedule:
    """A schedule as a common independent set of two matroids (Edmonds, 1970).

    The ground set has one element (coordinate j, iteration it, stripe s) per
    triple.  M1 is M(H) on each iteration, with one parallel copy of column j
    per stripe; M2 is M(G_C) on each stripe, with one parallel copy per
    iteration.  A common independent set of size ``b * k_C = S * d_perp``
    gives every iteration an invertible column selection of H and every stripe
    an information set of C: a schedule.

    Greedy pass: slot ``p`` belongs to iteration ``p // d_perp`` and serves
    stripe ``p % b``, so stripes are served round-robin; it takes the first
    coordinate from ``p mod n_s`` onward that keeps both column sets
    independent, or stays empty.  Iterations are filled one after another,
    and bases only grow, so a coordinate found dependent stays dependent: the
    pass keeps, for the current iteration, each coordinate's H column reduced
    so far (resumed with :func:`.gf2.reduce_word`) and a mask of the
    coordinates not yet found dependent, and the same mask per stripe.  A
    slot scans only the coordinates open in both masks, and each test either
    fills the slot or closes a coordinate in one mask, so the pass makes at
    most ``(S + b) * n_s + b * k_C`` tests.  Empty slots are then filled by
    :func:`_augment`, or it raises ScheduleNotFound.  The schedule keeps the
    set both ways, per iteration and per stripe.
    """
    slots = b * k_c
    if s_iterations * d_perp != slots:
        raise ScheduleNotFound(
            f"no schedule exists: {b} stripes of {k_c} coordinates do not fill "
            f"{s_iterations} iterations of {d_perp}"
        )
    if h.rows > d_perp or g_c.rows > k_c:
        raise ValueError("H may have at most d_perp rows and G_C at most k_C rows")
    n_s = g_c.cols
    g_cols = g_c.transpose().row_words
    h_cols = h.transpose().row_words
    it_set: list[dict[int, int]] = [{} for _ in range(s_iterations)]  # coordinate -> stripe
    st_set: list[dict[int, int]] = [{} for _ in range(b)]  # coordinate -> iteration
    st_basis: list[dict[int, int]] = [{} for _ in range(b)]
    every = (1 << n_s) - 1
    st_open = [every] * b  # per stripe, the coordinates not yet dependent in it
    for p in range(slots):
        it, s = p // d_perp, p % b
        if p % d_perp == 0:  # a new iteration: empty basis, every coordinate open
            it_basis: dict[int, int] = {}
            h_red = list(h_cols)
            it_open = every
        start = p % n_s
        candidates = it_open & st_open[s]
        ahead = candidates >> start << start
        for j in chain(_set_bits(ahead), _set_bits(candidates ^ ahead)):
            w = h_red[j] = reduce_word(h_red[j], it_basis)
            if not w:
                it_open ^= 1 << j
                continue
            g = reduce_word(g_cols[j], st_basis[s])
            if not g:
                st_open[s] ^= 1 << j
                continue
            it_basis[w & -w] = w
            st_basis[s][g & -g] = g
            it_open ^= 1 << j
            st_open[s] ^= 1 << j
            it_set[it][j] = s
            st_set[s][j] = it
            break
    if sum(map(len, it_set)) < slots:
        _augment(g_cols, g_c.rows, h_cols, h.rows, k_c, d_perp, it_set, st_set)

    iterations = []
    for members in it_set:
        pairs = sorted(members.items())
        iterations.append(IterationPlan(tuple(c for c, _ in pairs), tuple(s for _, s in pairs)))
    return Schedule(tuple(iterations), tuple(tuple(sorted(members)) for members in st_set))


def _augment(
    g_cols: tuple[int, ...],
    g_top: int,
    h_cols: tuple[int, ...],
    h_top: int,
    k_c: int,
    d_perp: int,
    it_set: list[dict[int, int]],
    st_set: list[dict[int, int]],
) -> None:
    """Fill a partial schedule by matroid intersection, in place.

    ``g_cols`` and ``h_cols`` are the column words of G_C and H, whose row
    counts are ``g_top`` and ``h_top``.  ``it_set`` maps each iteration's
    coordinates to their stripes and ``st_set`` each stripe's coordinates to
    their iterations; together they are a common independent set (see
    :func:`_solve_schedule`).  While it is short of ``b * k_C`` elements, a
    breadth-first search finds a shortest path in the exchange graph from an
    element that M1 accepts to one that M2 accepts, and the set is swapped
    along it, growing by one.  When no path exists the set is a maximum
    common independent set, which proves that no schedule exists.  That
    proof, or scanning more than :data:`SCHEDULE_BUDGET` arcs, raises
    ScheduleNotFound, and its message says which of the two it was.
    """
    s_iterations, b = len(it_set), len(st_set)
    slots = b * k_c
    n_s = len(g_cols)
    h_low, g_low = (1 << h_top) - 1, (1 << g_top) - 1
    # Each column carries its coordinate as a tag bit above its own bits.
    # Reduced against a block's tagged columns, a dependent column leaves only
    # tags: its own and those of the block columns summing to it, which with
    # it form its fundamental circuit.
    h_cols = tuple(w | 1 << (h_top + j) for j, w in enumerate(h_cols))
    g_cols = tuple(w | 1 << (g_top + j) for j, w in enumerate(g_cols))
    it_basis = [_pivots((h_cols[j] for j in members), h_low) for members in it_set]
    st_basis = [_pivots((g_cols[j] for j in members), g_low) for members in st_set]

    # Per iteration until it changes: the coordinates whose column is free
    # in it, and for each member coordinate the coordinates whose circuit
    # holds it.  Per stripe until it changes: each coordinate's reduced column.
    it_arcs: list[tuple[list[int], dict[int, list[int]]] | None] = [None] * s_iterations
    st_reduced: list[dict[int, int]] = [{} for _ in range(b)]
    scanned = 0
    missing = slots - sum(map(len, it_set))

    def scan(arcs: int) -> None:
        nonlocal scanned
        scanned += arcs
        if scanned > SCHEDULE_BUDGET:
            raise ScheduleNotFound(
                f"schedule search scanned more than {SCHEDULE_BUDGET} exchange-graph arcs "
                f"with {missing} of {slots} slots still empty"
            )

    def iteration_arcs(it: int) -> tuple[list[int], dict[int, list[int]]]:
        if (arcs := it_arcs[it]) is None:
            free: list[int] = []
            holders: dict[int, list[int]] = {}
            for j in range(n_s):
                w = reduce_word(h_cols[j], it_basis[it])
                if w & h_low:
                    free.append(j)
                else:
                    for member in _set_bits(w >> h_top ^ 1 << j):
                        holders.setdefault(member, []).append(j)
            scan(n_s)
            arcs = it_arcs[it] = (free, holders)
        return arcs

    def stripe_reduced(s: int, j: int) -> int:
        if (w := st_reduced[s].get(j)) is None:
            w = st_reduced[s][j] = reduce_word(g_cols[j], st_basis[s])
        return w

    every_stripe = (1 << b) - 1
    while missing:
        short = sum(1 << s for s in range(b) if len(st_set[s]) < k_c)
        # An element (j, it, s) off the set has out-arcs that depend on
        # (j, s) alone, so the search keys it by (j, s) and records the
        # iteration it was reached through as part of its parent.  A sink is
        # taken when first reached, which keeps the path a shortest one.
        reached = [0] * n_s  # per coordinate, a mask of the stripes reached
        outer_parent: dict[tuple[int, int], tuple[int, tuple[int, int] | None]] = {}
        inner_parent: dict[tuple[int, int], tuple[int, int]] = {}

        def reach(
            j: int, fresh: int, it: int, y: tuple[int, int] | None, layer: list[tuple[int, int]]
        ) -> tuple[int, int] | None:
            reached[j] |= fresh
            for s in _set_bits(fresh):
                outer_parent[j, s] = (it, y)
                layer.append((j, s))
            # A sink: the lowest stripe short of k_C in which column j is free.
            for s in _set_bits(fresh & short):
                if stripe_reduced(s, j) & g_low:
                    return j, s
            return None

        frontier: list[tuple[int, int]] = []
        sink = None
        for it in range(s_iterations):
            if len(it_set[it]) < d_perp:
                for j in iteration_arcs(it)[0]:
                    fresh = every_stripe & ~reached[j]
                    if fresh and (sink := reach(j, fresh, it, None, frontier)):
                        break
                if sink:
                    break
        while frontier and not sink:
            inner: list[tuple[int, int]] = []  # set elements, as (coordinate, iteration)
            for j, s in frontier:
                circuit = stripe_reduced(s, j) >> g_top ^ 1 << j
                for member in _set_bits(circuit):
                    y = (member, st_set[s][member])
                    if y not in inner_parent:
                        inner_parent[y] = (j, s)
                        inner.append(y)
                scan(circuit.bit_count())
            frontier = []
            for member, it in inner:
                holders = iteration_arcs(it)[1].get(member, ())
                for j in holders:
                    fresh = every_stripe & ~reached[j]
                    if j == member:  # its copy in its own stripe is the element itself
                        fresh &= ~(1 << it_set[it][member])
                    if fresh and (sink := reach(j, fresh, it, (member, it), frontier)):
                        break
                if sink:
                    break
                scan(len(holders))
        if not sink:
            raise ScheduleNotFound(
                f"no schedule exists: at most {slots - missing} of {slots} slots can be filled "
                "(no augmenting path)"
            )
        added, dropped = [], []
        j, s = sink
        it, y = outer_parent[j, s]
        added.append((j, it, s))
        while y is not None:
            member, it = y
            dropped.append((member, it, it_set[it][member]))
            j, s = inner_parent[y]
            it, y = outer_parent[j, s]
            added.append((j, it, s))
        for j, it, s in dropped:
            del it_set[it][j], st_set[s][j]
        for j, it, s in added:
            it_set[it][j] = s
            st_set[s][j] = it
        for it in {it for _, it, _ in added}:
            it_basis[it] = _pivots((h_cols[j] for j in it_set[it]), h_low)
            it_arcs[it] = None
        for s in {s for _, _, s in added}:
            st_basis[s] = _pivots((g_cols[j] for j in st_set[s]), g_low)
            st_reduced[s] = {}
        missing -= 1


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
    (M*b, k_D), uint8)``.  These are consecutive calls, so
    :func:`~.gf2.draw_bit_bytes` draws the whole run's bits together from
    whole Philox outputs and packs each row's bits a byte at a time,
    straight into one array of table indexes, so the message bits are never
    held one per byte or packed into limbs.  The whole run is then one
    table product with the generator's limbs, so each of its tables is
    built once per run.  Last, for each assigned (stripe, coordinate)
    pair of each iteration, bit ``coordinate`` of the demanded file's stripe
    row of that iteration's query is flipped.  A run over
    :data:`MAX_BATCH_BITS` raises :class:`TooLarge` before the draw.
    """
    if not 0 <= demand < files:
        raise ValueError("demand index out of range")
    plans = [derived.schedule.iterations[it] for it in iterations]
    g_d = derived.retrieval_code.generator
    _check_batch_size(derived, files, len(plans))
    rows = files * derived.b
    messages = np.empty(((g_d.rows + 7) // 8, len(plans) * rows), dtype=np.uint8)
    draw_bit_bytes(rng, len(plans), rows, g_d.rows, messages.T)
    limbs = limb_product(messages, g_d.limbs)
    flip_bits(
        limbs,
        [i * rows + derived.file_row(demand, stripe) for i, plan in enumerate(plans) for stripe in plan.stripes],
        [coord for plan in plans for coord in plan.coords],
    )
    return BitMatrix.from_limbs(limbs, derived.n_s)


def respond_all(stored: BitMatrix, q: BitMatrix) -> BitVector:
    """Every server's answer.  Bit ``i`` is the inner product of stored
    column ``i`` and query column ``i``, so the whole vector is one parity
    fold over rows: the XOR of ``stored_r & q_r``, on limbs."""
    if (stored.rows, stored.cols) != (q.rows, q.cols):
        raise LengthMismatch(f"stored {stored.rows} x {stored.cols} != query {q.rows} x {q.cols}")
    folded = np.bitwise_xor.reduce(stored.limbs & q.limbs, axis=0)
    return BitVector(q.cols, limbs_to_words(folded[None])[0])


def decode_iteration(
    derived: SchemeDerived, iteration: int, response: BitVector
) -> tuple[tuple[int, int, int], ...]:
    """Syndrome-decode one response vector into (stripe, coordinate, bit).

    The parity map annihilates the random query contribution, so the
    syndrome equals ``H[:, J] x`` where x lists the planted codeword bits in
    ascending coordinate order; every iteration carries exactly d_perp
    coordinates, so the inverse of ``H[:, J]`` (computed once per pair)
    recovers x exactly.
    """
    if response.length != derived.n_s:
        raise LengthMismatch(f"{response.length} != {derived.n_s}")
    plan = derived.schedule.iterations[iteration]
    syndrome = derived.parity.mul_vector(response)
    bits = derived.iteration_inverses[iteration].mul_vector(syndrome)
    return tuple(
        (stripe, coord, bits.bit(pos))
        for pos, (stripe, coord) in enumerate(zip(plan.stripes, plan.coords))
    )


def reconstruct_file(
    derived: SchemeDerived, recovered: tuple[tuple[int, int, int], ...]
) -> BitMatrix:
    """Invert each stripe's generator columns to rebuild the b x k_C file.

    The scheduled coordinate sets reuse the pair's inverses; any other
    information set is inverted here."""
    per_stripe: dict[int, dict[int, int]] = {}
    for stripe, coord, bit in recovered:
        per_stripe.setdefault(stripe, {})[coord] = bit
    k_c = derived.k_c
    words = []
    for stripe in range(derived.b):
        got = per_stripe.get(stripe, {})
        if len(got) != k_c:
            raise Incomplete(f"stripe {stripe} has {len(got)} of {k_c} coordinates")
        coords = tuple(sorted(got))
        y = sum((got[c] & 1) << pos for pos, c in enumerate(coords))
        if coords == derived.schedule.stripe_coords[stripe]:
            inv = derived.stripe_inverses[stripe]
        else:
            inv = invert_columns(derived.storage_code.generator, coords)
        words.append(inv.left_mul(BitVector(k_c, y)).word)
    return BitMatrix(derived.b, k_c, tuple(words))


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
        cols = retrieval_code.generator.transpose().row_words
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
    cols = retrieval_code.generator.transpose().row_words
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
    (allowed while ``dim(D) * M <= 20``).
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
    embed = LinearCode(derived.n_s, derived.parity).information_set()[0]
    subset = _worst_case_columns(d, t, prefer=embed)
    restricted = d.generator.take_columns(subset)
    shift = 1 << subset.index(embed) if embed in subset else 0

    def distribution(demand: int) -> dict[tuple[int, ...], float]:
        counts: dict[tuple[int, ...], int] = {}
        total = 1 << (k_d * rows)
        for packed in range(total):
            key = []
            rest = packed
            for _ in range(rows):
                msg = rest & ((1 << k_d) - 1)
                rest >>= k_d
                key.append(restricted.left_mul(BitVector(k_d, msg)).word)
            key[demand] ^= shift
            key_t = tuple(key)
            counts[key_t] = counts.get(key_t, 0) + 1
        return {k: v / total for k, v in counts.items()}

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
class IterationRecord:
    plan: IterationPlan
    query: BitMatrix
    response: BitVector
    recovered: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Transcript:
    """Complete record of one simulated retrieval."""

    config: SchemeConfig
    demand: int
    t: int
    r_st: Fraction
    r_pir: Fraction
    b: int
    s_iterations: int
    iterations: tuple[IterationRecord, ...]
    recovered_file: BitMatrix
    stored_file: BitMatrix
    reconstructed_ok: bool
    downloaded_bits: int
    achieved_rate: Fraction

    def to_json(self) -> str:
        return "".join(self.iter_json())

    def iter_json(self) -> Iterator[str]:
        """:meth:`to_json` in pieces, so a writer need not hold the whole text."""
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
                    "J": list(rec.plan.coords),
                    "assignments": [list(pair) for pair in rec.plan.assignments()],
                    "responses_hex": rec.response.to_hex(),
                }
                for rec in self.iterations
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
    iteration in order, however the runs fall.  Each run reads its planted
    bits of the stored matrix with one gather.  Every iteration is still
    answered by :func:`respond_all` and decoded by :func:`decode_iteration`
    on its own, and checks that the response vector minus its planted
    contribution lies in the product code and that each recovered bit
    equals the stored one; a failure, or an achieved rate that strays from
    the derived one, raises :class:`ProtocolInvariantError`.
    """
    derived = derive_scheme(config)
    if not 0 <= demand < config.files:
        raise ValueError("demand index out of range")
    _check_batch_size(derived, config.files)
    rng = philox_generator(config.seed)
    b, k_c = derived.b, derived.k_c
    library = BitMatrix.from_limbs(draw_bit_limbs(rng, config.files, b, k_c), k_c)
    stored = encode_storage(derived, library)

    records = []
    recovered: list[tuple[int, int, int]] = []
    plans = derived.schedule.iterations
    rows = config.files * b
    run = MAX_BATCH_BITS // _query_bits(derived, config.files)
    for start in range(0, len(plans), run):
        iterations = range(start, min(start + run, len(plans)))
        queries = gen_queries(derived, config.files, demand, iterations, rng)
        planted = iter(
            take_bits(
                stored.limbs,
                [derived.file_row(demand, stripe) for it in iterations for stripe in plans[it].stripes],
                [coord for it in iterations for coord in plans[it].coords],
            )
        )
        for i, it in enumerate(iterations):
            plan = plans[it]
            query = BitMatrix.from_limbs(queries.limbs[i * rows : (i + 1) * rows], derived.n_s)
            response = respond_all(stored, query)
            got = decode_iteration(derived, it, response)
            recovered.extend(got)
            bits = list(islice(planted, len(plan.coords)))
            embed_word = sum(1 << coord for coord, bit in zip(plan.coords, bits) if bit)
            residue = BitVector(derived.n_s, response.word ^ embed_word)
            if not derived.product_code.contains(residue):
                raise ProtocolInvariantError(f"iteration {it}: response residue left the product code")
            for (stripe, coord, bit), want in zip(got, bits):
                if bit != want:
                    raise ProtocolInvariantError(
                        f"iteration {it}: recovered bit of stripe {stripe} at coordinate {coord} is wrong"
                    )
            records.append(IterationRecord(plan, query, response, got))

    rebuilt = reconstruct_file(derived, tuple(recovered))
    first = derived.file_row(demand, 0)
    demanded = BitMatrix.from_limbs(library.limbs[first : first + b], k_c)
    s_actual = len(derived.schedule.iterations)
    achieved = Fraction(derived.b * derived.k_c, s_actual * derived.n_s)
    if achieved != derived.r_pir:
        raise ProtocolInvariantError("achieved rate strayed from the derived rate")
    return Transcript(
        config=config,
        demand=demand,
        t=derived.t,
        r_st=derived.r_st,
        r_pir=derived.r_pir,
        b=derived.b,
        s_iterations=s_actual,
        iterations=tuple(records),
        recovered_file=rebuilt,
        stored_file=demanded,
        reconstructed_ok=rebuilt == demanded,
        downloaded_bits=s_actual * derived.n_s,
        achieved_rate=achieved,
    )
