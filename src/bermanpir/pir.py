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

The per-iteration bulk work runs on NumPy limb arrays (see :mod:`.gf2`): the
query batch is one table product of the packed message bits with D's
generator, and the response is one XOR reduction over the rows of
``stored & Q``.  Python
integers remain for the response vector, the matrices the stages return and
the transcript.  The column inverses that decoding and reconstruction need
depend only on the schedule, so each pair computes them once.

Collusion resistance: any t servers see t columns of Q, and those are
exactly uniform as long as every t-column projection of D is the full
space, which holds up to ``t = d_min(D^perp) - 1``.

All randomness flows from a single 64-bit seed through NumPy's Philox
counter-based generator (Philox 4x64 with 10 rounds); draw order is
documented in :func:`run_retrieval`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, gcd

import numpy as np

from .berman import BermanParams, CodeKind, build, min_distance_formula
from .codes import MAX_BRUTE_FORCE_DIM, LinearCode, ProtocolInvariantError, TooLarge
from .gf2 import (
    BitMatrix,
    BitVector,
    LengthMismatch,
    bits_to_limbs,
    flip_bits,
    invert_columns,
    limb_product,
    limbs_to_words,
    pack_bit_rows,
    reduce_word,
)
from .star import star_codes


class UnsupportedPair(ValueError):
    """The storage/retrieval pair matches no supported scheme row."""


class ZeroRate(ValueError):
    """The product code fills the whole space, leaving nothing to retrieve."""


class ScheduleNotFound(RuntimeError):
    """No schedule: proved not to exist, or not found within the budget."""


class Incomplete(ValueError):
    """A stripe is missing recovered coordinates."""


class ShapeMismatch(ValueError):
    """File matrices do not have the scheme's b x k_C shape."""


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


def closed_form_triple(storage: BermanParams, retrieval: BermanParams) -> tuple[int, Fraction, Fraction]:
    """(t, R_st, R_pir) for a supported pair, from the closed forms alone."""
    row = scheme_row(storage, retrieval)
    n, m = storage.n, storage.m
    n_s = n**m
    rc, rd = storage.r, retrieval.r

    def dim_sum(lo: int, hi: int) -> int:
        return sum(comb(m, i) * (n - 1) ** i for i in range(lo, hi + 1))

    r_st = Fraction(dim_sum(0, rc) if storage.kind is CodeKind.DUAL_BERMAN else dim_sum(rc + 1, m), n_s)
    if row == "dber-dber":
        r_pir = Fraction(dim_sum(rc + rd + 1, m), n_s)
        t = 2 ** (rd + 1) - 1
    elif row == "dber-ber":
        r_pir = Fraction(dim_sum(0, rd - rc), n_s)
        t = n ** (m - rd) - 1
    else:
        r_pir = Fraction(dim_sum(0, rc - rd), n_s)
        t = 2 ** (rd + 1) - 1
    if r_pir == 0:
        raise ZeroRate(f"{storage.name} * {retrieval.name} fills the whole space")
    return t, r_st, r_pir


@dataclass(frozen=True)
class IterationPlan:
    """One iteration's recovered coordinates (ascending) and their stripes."""

    coords: tuple[int, ...]
    stripes: tuple[int, ...]

    def assignments(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.stripes, self.coords))


@dataclass(frozen=True)
class Schedule:
    iterations: tuple[IterationPlan, ...]

    def stripe_coords(self, stripe: int) -> tuple[int, ...]:
        coords = [
            c
            for plan in self.iterations
            for s, c in zip(plan.stripes, plan.coords)
            if s == stripe
        ]
        return tuple(sorted(coords))


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
    def stripe_inverses(self) -> dict[tuple[int, ...], BitMatrix]:
        """The inverse of the storage generator's columns at each stripe's
        scheduled coordinates, keyed by those (ascending) coordinates."""
        g_c = self.storage_code.generator
        selections = map(self.schedule.stripe_coords, range(self.b))
        return {coords: invert_columns(g_c, coords) for coords in selections}


def derive_scheme(config: SchemeConfig) -> SchemeDerived:
    """The derivation of ``config``'s storage/retrieval pair, computed once
    per pair and shared by every run of it."""
    return _derive(config.storage, config.retrieval)


@lru_cache(maxsize=None)
def _derive(storage: BermanParams, retrieval: BermanParams) -> SchemeDerived:
    """Derive codes, rates, the syndrome map, and a feasible schedule.

    The product code is constructed outright (not assumed from the case
    table) and its dual dimension is required to match the closed-form
    rate; stripes and iterations are the smallest integers making
    ``b * k_C = S * d_perp`` exact.
    """
    t, r_st, r_pir = closed_form_triple(storage, retrieval)
    c = build(storage)
    d = build(retrieval)
    n_s = c.length
    e = star_codes(c, d)
    e_dual = e.dual()
    d_perp = e_dual.dimension
    if d_perp == 0:
        raise ZeroRate("the product code fills the whole space")
    if Fraction(d_perp, n_s) != r_pir:
        raise ProtocolInvariantError("constructed product dimension disagrees with the closed form")
    if Fraction(c.dimension, n_s) != r_st:
        raise ProtocolInvariantError("constructed storage dimension disagrees with the closed form")
    if t != min_distance_formula(retrieval.dual) - 1:
        raise ProtocolInvariantError("closed-form t disagrees with the retrieval code's dual distance")
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
    independent, or stays empty.  Empty slots are then filled by
    :func:`_augment`, or it raises ScheduleNotFound.
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
    it_basis: list[dict[int, int]] = [{} for _ in range(s_iterations)]
    st_basis: list[dict[int, int]] = [{} for _ in range(b)]
    ring = tuple(range(n_s)) * 2  # any rotation of the coordinates is one slice
    for p in range(slots):
        it, s = p // d_perp, p % b
        start = p % n_s
        for j in ring[start : start + n_s]:
            if j in it_set[it] or j in st_set[s]:
                continue
            h_red = reduce_word(h_cols[j], it_basis[it])
            if h_red:
                g_red = reduce_word(g_cols[j], st_basis[s])
                if g_red:
                    it_basis[it][h_red & -h_red] = h_red
                    st_basis[s][g_red & -g_red] = g_red
                    it_set[it][j] = s
                    st_set[s][j] = it
                    break
    if sum(map(len, it_set)) < slots:
        _augment(g_c, h, k_c, d_perp, it_set, st_set)

    iterations = []
    for members in it_set:
        pairs = sorted(members.items())
        iterations.append(IterationPlan(tuple(c for c, _ in pairs), tuple(s for _, s in pairs)))
    return Schedule(tuple(iterations))


def _augment(
    g_c: BitMatrix,
    h: BitMatrix,
    k_c: int,
    d_perp: int,
    it_set: list[dict[int, int]],
    st_set: list[dict[int, int]],
) -> None:
    """Fill a partial schedule by matroid intersection, in place.

    ``it_set`` maps each iteration's coordinates to their stripes and
    ``st_set`` each stripe's coordinates to their iterations; together they
    are a common independent set (see :func:`_solve_schedule`).  While it is
    short of ``b * k_C`` elements, a breadth-first search finds a shortest
    path in the exchange graph from an element that M1 accepts to one that M2
    accepts, and the set is swapped along it, growing by one.  When no path
    exists the set is a maximum common independent set, which proves that no
    schedule exists.  That proof, or scanning more than
    :data:`SCHEDULE_BUDGET` arcs, raises ScheduleNotFound, and its message
    says which of the two it was.
    """
    s_iterations, b = len(it_set), len(st_set)
    slots = b * k_c
    n_s = g_c.cols
    h_top, g_top = h.rows, g_c.rows
    h_low, g_low = (1 << h_top) - 1, (1 << g_top) - 1
    # Each column carries its coordinate as a tag bit above its own bits.
    # Reduced against a block's tagged columns, a dependent column leaves only
    # tags: its own and those of the block columns summing to it, which with
    # it form its fundamental circuit.
    h_cols = tuple(w | 1 << (h_top + j) for j, w in enumerate(h.transpose().row_words))
    g_cols = tuple(w | 1 << (g_top + j) for j, w in enumerate(g_c.transpose().row_words))
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
        # Sinks: per coordinate, the stripes short of k_C in which its
        # column is free.
        sinks = [0] * n_s
        for s in range(b):
            if len(st_set[s]) < k_c:
                for j in range(n_s):
                    if stripe_reduced(s, j) & g_low:
                        sinks[j] |= 1 << s
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
            hit = fresh & sinks[j]
            return (j, (hit & -hit).bit_length() - 1) if hit else None

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


def encode_storage(derived: SchemeDerived, files: list[BitMatrix]) -> BitMatrix:
    """The stored matrix: the stacked files times the storage generator.
    Row ``file_row(f, s)`` is stripe s of file f; server ``i`` holds column ``i``."""
    for f in files:
        if (f.rows, f.cols) != (derived.b, derived.k_c):
            raise ShapeMismatch(f"files must be {derived.b} x {derived.k_c} bit matrices")
    return BitMatrix.stack(files) @ derived.storage_code.generator


def gen_queries(
    derived: SchemeDerived, files: int, demand: int, iteration: int, rng: np.random.Generator
) -> BitMatrix:
    """The query matrix Q of one iteration; column i goes to server i.

    Every row starts as an independent uniform codeword of the retrieval
    code: one row-major batch of uniform message bits per call, packed to
    limbs and multiplied by the generator's limbs in one table product.
    Then, for each assigned (stripe, coordinate) pair of this iteration, bit
    ``coordinate`` of the demanded file's stripe row is flipped.
    """
    if not 0 <= demand < files:
        raise ValueError("demand index out of range")
    plan = derived.schedule.iterations[iteration]
    g_d = derived.retrieval_code.generator
    draw = rng.integers(0, 2, size=(files * derived.b, g_d.rows), dtype=np.uint8)
    limbs = limb_product(bits_to_limbs(draw), g_d.limbs)
    flip_bits(limbs, [derived.file_row(demand, stripe) for stripe in plan.stripes], plan.coords)
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
    rows = []
    for stripe in range(derived.b):
        got = per_stripe.get(stripe, {})
        if len(got) != derived.k_c:
            raise Incomplete(f"stripe {stripe} has {len(got)} of {derived.k_c} coordinates")
        coords = tuple(sorted(got))
        y = BitVector.from_bits(got[c] for c in coords)
        inv = derived.stripe_inverses.get(coords)
        if inv is None:
            inv = invert_columns(derived.storage_code.generator, coords)
        rows.append(inv.left_mul(y))
    return BitMatrix.from_rows(rows, derived.k_c)


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


def _coordinate_subsets(n_s: int, t: int, seed: int) -> Iterator[tuple[int, ...]]:
    """Every size-t coordinate subset when there are at most
    :data:`EXHAUSTIVE_SUBSETS` of them; otherwise 10 000 random subsets, each
    one sorted ``rng.choice`` draw from the seeded Philox stream."""
    if comb(n_s, t) <= EXHAUSTIVE_SUBSETS:
        return combinations(range(n_s), t)
    rng = philox_generator(seed)
    return (tuple(sorted(rng.choice(n_s, size=t, replace=False).tolist())) for _ in range(10_000))


def verify_privacy_rank(retrieval_code: LinearCode, t: int, *, seed: int = 0) -> bool:
    """True iff every checked t-column projection of the code is onto.

    Onto projections make the random query part uniform on the colluding
    coordinates, which is exactly the privacy condition.  Three routes: every
    coordinate subset while there are at most :data:`EXHAUSTIVE_SUBSETS`;
    else exactly from the dual distance (every t columns are independent iff
    ``d(D^perp) > t``) while ``dim D^perp`` is within the brute-force guard;
    else 10 000 random subsets drawn from ``seed``.
    """
    n_s = retrieval_code.length
    _check_collusion_size(t, n_s)
    if comb(n_s, t) > EXHAUSTIVE_SUBSETS:
        dual = retrieval_code.dual()
        if dual.dimension <= MAX_BRUTE_FORCE_DIM:
            return dual.dimension == 0 or dual.min_distance_bruteforce() > t
    cols = retrieval_code.generator.transpose().row_words
    return all(_projection_rank(cols, subset) == t for subset in _coordinate_subsets(n_s, t, seed))


def _worst_case_columns(retrieval_code: LinearCode, t: int, prefer: int, seed: int) -> tuple[int, ...]:
    """A size-t coordinate set minimizing the projection rank (worst case
    for privacy), preferring sets that contain the ``prefer`` coordinate."""
    cols = retrieval_code.generator.transpose().row_words
    return min(
        _coordinate_subsets(retrieval_code.length, t, seed),
        key=lambda subset: (_projection_rank(cols, subset), 0 if prefer in subset else 1, subset),
    )


def verify_privacy_empirical(config: SchemeConfig, t: int) -> float:
    """Max total-variation distance between restricted query distributions.

    Uses a cut-down instance with one stripe per file (the privacy argument
    is per-iteration and does not depend on the stripe count), a worst-case
    colluding set T of size t, and one embedded coordinate.  The query
    randomness is enumerated exhaustively (allowed while ``dim(D) * M <= 20``).
    The uniform distribution is included as a reference point, so a
    single-demand instance still measures deviation from uniformity.
    """
    _check_collusion_size(t, config.storage.length)
    c = build(config.storage)
    d = build(config.retrieval)
    rows = config.files
    if rows * t > 12:
        raise TooLarge("joint query alphabet exceeds the enumeration guard")
    info = star_codes(c, d).dual().information_set()
    if not info:
        raise ZeroRate("the product code fills the whole space")
    embed = info[0]
    subset = _worst_case_columns(d, t, prefer=embed, seed=config.seed)
    restricted = d.generator.take_columns(subset)
    k_d = d.dimension
    if k_d * rows > 20:
        raise TooLarge("query randomness exceeds the exhaustive enumeration guard")
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

    Draw order from the seeded Philox stream: first the M file matrices
    (row-major bits, one draw per file), then one query batch per iteration.
    The per-file draws stay separate calls: a uint8 draw buffers whole 32-bit
    words per call, so one draw of all M files would shift the stream.
    Every iteration checks that the response vector minus the embedded
    contribution lies in the product code and that each recovered bit
    equals the stored one; a failure, or an achieved rate that strays from
    the derived one, raises :class:`ProtocolInvariantError`.
    """
    derived = derive_scheme(config)
    if not 0 <= demand < config.files:
        raise ValueError("demand index out of range")
    rng = philox_generator(config.seed)
    b, k_c = derived.b, derived.k_c
    draws = [rng.integers(0, 2, size=(b, k_c), dtype=np.uint8) for _ in range(config.files)]
    words = pack_bit_rows(np.concatenate(draws))
    files = [BitMatrix(b, k_c, words[f * b : (f + 1) * b]) for f in range(config.files)]
    stored = encode_storage(derived, files)

    records = []
    recovered: list[tuple[int, int, int]] = []
    for it, plan in enumerate(derived.schedule.iterations):
        query = gen_queries(derived, config.files, demand, it, rng)
        response = respond_all(stored, query)
        got = decode_iteration(derived, it, response)
        recovered.extend(got)
        embed_word = 0
        for stripe, coord in zip(plan.stripes, plan.coords):
            if stored.entry(derived.file_row(demand, stripe), coord):
                embed_word |= 1 << coord
        residue = BitVector(derived.n_s, response.word ^ embed_word)
        if not derived.product_code.contains(residue):
            raise ProtocolInvariantError(f"iteration {it}: response residue left the product code")
        for stripe, coord, bit in got:
            if bit != stored.entry(derived.file_row(demand, stripe), coord):
                raise ProtocolInvariantError(
                    f"iteration {it}: recovered bit of stripe {stripe} at coordinate {coord} is wrong"
                )
        records.append(IterationRecord(plan, query, response, got))

    rebuilt = reconstruct_file(derived, tuple(recovered))
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
        stored_file=files[demand],
        reconstructed_ok=rebuilt == files[demand],
        downloaded_bits=s_actual * derived.n_s,
        achieved_rate=achieved,
    )
