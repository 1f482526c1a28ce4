"""Independent oracles shared by the test modules.

The staged constructions rebuild every standard basis vector of the full
space out of star products of family basis vectors, step by step, checking
each intermediate against its direct definition.  They deliberately avoid
the library's span machinery so that a passing run certifies the products
themselves, not just span bookkeeping.

The retrieval loop redoes one retrieval's queries and responses on Python
integers, one row at a time, from the documented Philox draw order.

The per-bit translation moves a word's set bits one at a time through a
permutation of the coordinate indices.

The per-row triple restates the paper's table rows as hand-written sums of
the dimension formula's terms, independent of the star-product case table.

The dimension sum and the distance bound restate the closed forms: one as a
sum of binomial terms, the other from the block recursion alone.

The verify-case loops redo the sweep's dimension, star and transitivity
cases without shared work: a fresh rank of the basis, a product formed for
every ordered pair, and one witness test per coordinate pair.  The
point-by-point Reed-Muller construction evaluates every monomial at every
coordinate tuple.

The nullspace scan tests every pivot row at every free column.

The packed-message privacy loop counts each demand's restricted query
distribution on its own, one row XOR per file row of every packed message
tuple.

The column scan and the row XOR are the bit loops that the transpose and
the vector-matrix product are checked against: a column gathered one row
bit at a time, and ``v @ M`` as the XOR of the rows of M that v selects.

The tuple basis forms the family basis one defining tuple at a time, by
``c_vector`` or ``d_vector``, from an enumeration of every coordinate tuple;
the library's one-pass basis is checked against it.  The self-inverse
product forms a member's generator that is the identity on W(p) as ``M @ B``,
the family basis times itself restricted to W(p), for the one that the
derivation reads off ``build``'s RREF to be checked against.

The remaining references are operations no command runs, kept here for the
tests that compare against them: the rank of a matrix, the coordinate index
of a tuple, the tuples in coordinate order, a tuple's weight and the partial
order on tuples, a code's projection and text form, and the paper's two
constructive star-product identities.

The child environment is the one every test that starts a fresh interpreter
gives it: this checkout's ``src`` importable, and every warning an error, as
``-W error`` makes it in the test process itself.
"""

import os
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, inf
from pathlib import Path

import numpy as np

from bermanpir import BitVector, berman, pir
from bermanpir.berman import CodeKind, c_vector, d_vector, index_to_tuple
from bermanpir.checks import VerifyCase
from bermanpir.codes import LinearCode, ProtocolInvariantError
from bermanpir.gf2 import BitMatrix, LengthMismatch, row_reduce
from bermanpir.pir import ZeroRate, derive_scheme, scheme_row
from bermanpir.star import star_vectors, verify_star_case


def child_env(*paths):
    """The environment of a fresh interpreter that imports ``paths``, then
    this checkout's ``src``, then the parent's ``PYTHONPATH``, and turns
    every warning into an error (``PYTHONWARNINGS=error``)."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [*map(str, paths), str(src), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), PYTHONWARNINGS="error")


class OverlappingSupport(ValueError):
    """The two index tuples share a nonzero position."""


class PreconditionViolated(ValueError):
    """The basis-identity preconditions do not hold."""


def rank(m):
    """The number of pivots of the matrix's reduced row-echelon form."""
    return len(row_reduce(m)[1])


def tuple_to_index(n, t):
    """Coordinate index of a tuple; the first component is most significant."""
    idx = 0
    for x in t:
        if not 0 <= x < n:
            raise ValueError("tuple component out of range")
        idx = idx * n + x
    return idx


def all_tuples(n, m):
    """All m-tuples over {0,...,n-1} in coordinate-index order."""
    return product(range(n), repeat=m)


def tuple_weight(t):
    """The number of nonzero components."""
    return sum(1 for x in t if x)


def defining_tuples(params):
    """(coordinate, tuple) of each tuple defining the family basis, in
    coordinate-index order: weight above r for Ber, at most r for DBer."""
    berman_kind = params.kind is CodeKind.BERMAN
    for index, t in enumerate(all_tuples(params.n, params.m)):
        if (tuple_weight(t) > params.r) is berman_kind:
            yield index, t


def tuple_basis(params):
    """(coordinate, word) of each family basis vector, formed one defining
    tuple at a time: c(t) for Ber, d(t) for DBer."""
    vector = c_vector if params.kind is CodeKind.BERMAN else d_vector
    return [(index, vector(params.n, params.m, t).word) for index, t in defining_tuples(params)]


def self_inverse_product(params):
    """W(p) and ``M @ B``: the family basis B, its words taken as rows, times
    M, B on W(p).  Since ``M @ M = I``, it is the generator of the member
    that is the identity on W(p)."""
    coords, words = berman.basis(params)
    rows = BitMatrix(len(words), params.length, words)
    return coords, rows.take_columns(coords) @ rows


def precedes(j, i):
    """True iff supp(j) is contained in supp(i) and j matches i there."""
    if len(j) != len(i):
        raise LengthMismatch("tuples of differing arity")
    return all(a == 0 or a == b for a, b in zip(j, i))


def project_columns(code, cols):
    """The code ``{c_T : c in C}`` on the (ascending) coordinate set T."""
    sel = sorted(set(cols))
    for j in sel:
        if not 0 <= j < code.length:
            raise IndexError("column out of range")
    return LinearCode.from_generator(code.generator.take_columns(sel))


def code_to_text(code):
    """A "length dim" header line, then the generator matrix text."""
    return f"{code.length} {code.dimension}\n" + code.generator.to_text()


def disjoint_support_product(n, m, j1, j2):
    """d(j1) * d(j2) for disjoint supports equals d(j1 + j2); returns it."""
    if any(a and b for a, b in zip(j1, j2)):
        raise OverlappingSupport("index tuples share a nonzero position")
    merged = tuple(a or b for a, b in zip(j1, j2))
    result = d_vector(n, m, merged)
    if result != star_vectors(d_vector(n, m, j1), d_vector(n, m, j2)):
        raise ProtocolInvariantError(f"d({j1}) * d({j2}) is not d({merged})")
    return result


def berman_basis_identity(n, m, j, k):
    """c(j - k) computed as c(j)*d(k) + c(j)*d(0), for a weight-1 k below j.

    The returned vector is checked against the direct construction of
    c(j') where j' is j with the k-supported component zeroed.
    """
    if tuple_weight(k) != 1 or not precedes(k, j):
        raise PreconditionViolated("need weight(k) = 1 and k below j")
    cj = c_vector(n, m, j)
    rhs = star_vectors(cj, d_vector(n, m, k)) ^ star_vectors(cj, d_vector(n, m, (0,) * m))
    j_prime = tuple(0 if k[l] else j[l] for l in range(m))
    if rhs != c_vector(n, m, j_prime):
        raise ProtocolInvariantError(f"c({j})*d({k}) + c({j})*d(0) is not c({j_prime})")
    return rhs


def per_row_triple(storage, retrieval):
    """(t, R_st, R_pir) from the published closed form of the pair's table
    row; refusals as :func:`bermanpir.pir.closed_form_triple` makes them."""
    row = scheme_row(storage, retrieval)
    n, m = storage.n, storage.m
    n_s = n**m
    rc, rd = storage.r, retrieval.r

    def dim_sum(lo, hi):
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


def dimension_by_binomials(params):
    """``sum(comb(m, w) * (n-1)^w)`` over the defining tuples' weights w."""
    n, m, r = params.n, params.m, params.r
    weights = range(r + 1, m + 1) if params.kind is CodeKind.BERMAN else range(r + 1)
    return sum(comb(m, w) * (n - 1) ** w for w in weights)


@lru_cache(maxsize=None)
def recursion_distance(kind, n, r, m):
    """Lower bound on the minimum distance from the block recursion that
    defines membership (``inf`` for the zero code).

    Ber: the n blocks lie in Ber(r-1, m-1) and their sum in Ber(r, m-1); a
    nonzero sum weighs at least d(r, m-1), and otherwise at least two blocks
    are nonzero, so ``d >= min(2 d(r-1, m-1), d(r, m-1))``.  DBer: the last
    block u lies in DBer(r, m-1) and every block minus u in DBer(r-1, m-1);
    all blocks equal to u weigh n wt(u), and otherwise one differs from u by
    a nonzero word, so ``d >= min(n d(r, m-1), d(r-1, m-1))``.
    """
    if kind is CodeKind.BERMAN:
        if r == m:
            return inf
        if r == 0:
            return 2
        return min(2 * recursion_distance(kind, n, r - 1, m - 1), recursion_distance(kind, n, r, m - 1))
    if r == m:
        return 1
    if r == 0:
        return n**m
    return min(n * recursion_distance(kind, n, r, m - 1), recursion_distance(kind, n, r - 1, m - 1))


def column_scan(m, j):
    """Column ``j`` of ``m`` packed over the row index, one row bit at a time."""
    word = 0
    for i, rw in enumerate(m.row_words):
        word |= (rw >> j & 1) << i
    return word


def row_xor(word, m):
    """``v @ m`` for the row vector v with packed bits ``word``: the XOR of
    the rows of ``m`` that its set bits select."""
    out = 0
    for i, rw in enumerate(m.row_words):
        if word >> i & 1:
            out ^= rw
    return out


def per_server_responses(stored, q):
    """Each server's answer on its own: bit i is the dot product of stored
    column i and query column i, each column gathered bit by bit."""
    word = 0
    for i in range(q.cols):
        word |= ((column_scan(stored, i) & column_scan(q, i)).bit_count() & 1) << i
    return BitVector(q.cols, word)


def random_bits(rng, rows, cols):
    """Row-major draw of ``rows`` words of ``cols`` fresh bits each, one
    ``int.from_bytes`` per packed row."""
    packed = np.packbits(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8), axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def row_table_product(a_words, b_words):
    """Rows of ``A @ B`` over GF(2), four Russians on Python integers: each
    8-row group of B tabulates its 256 XOR combinations, and each row of A
    XORs in one table entry per group."""
    tables = []
    for g in range(0, len(b_words), 8):
        table = [0]
        for rw in b_words[g : g + 8]:
            table += [x ^ rw for x in table]
        tables.append((g, table))
    out = []
    for rw in a_words:
        w = 0
        for g, table in tables:
            w ^= table[(rw >> g) & 0xFF]
        out.append(w)
    return out


def loop_retrieval(derived, files, seed, demand):
    """(demanded file words, per-iteration query words, per-iteration
    response words) of one retrieval: M file draws, then one message batch
    per iteration, each row times the generator, the planted bits flipped,
    and the response folded row by row."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    b, k_c = derived.b, derived.k_c
    file_words = [random_bits(rng, b, k_c) for _ in range(files)]
    stored = row_table_product([w for f in file_words for w in f], derived.storage_code.generator.row_words)
    g_d = derived.retrieval_code.generator
    queries, responses = [], []
    for row in derived.schedule.coords.tolist():
        q = row_table_product(random_bits(rng, files * b, g_d.rows), g_d.row_words)
        for stripe, coord in enumerate(row):
            q[demand * b + stripe] ^= 1 << coord
        response = 0
        for s_row, q_row in zip(stored, q):
            response ^= s_row & q_row
        queries.append(tuple(q))
        responses.append(response)
    return file_words[demand], queries, responses


def packed_message_privacy(config, t):
    """``pir.verify_privacy_empirical(config, t)``, with every demand's
    distribution counted over all packed message tuples: one :func:`row_xor`
    of the restricted generator per file row, the embedded bit XORed into
    the demanded row."""
    derived = derive_scheme(config)
    d = derived.retrieval_code
    embed = LinearCode.from_generator(derived.parity).information_set()[0]
    subset = pir._worst_case_columns(d, t, prefer=embed)
    restricted = d.generator.take_columns(subset)
    shift = 1 << subset.index(embed) if embed in subset else 0
    rows, k_d = config.files, restricted.rows
    total = 1 << (k_d * rows)
    mask = (1 << k_d) - 1
    dists = []
    for demand in range(rows):
        counts = {}
        for packed in range(total):
            key = [row_xor((packed >> (i * k_d)) & mask, restricted) for i in range(rows)]
            key[demand] ^= shift
            counts[tuple(key)] = counts.get(tuple(key), 0) + 1
        dists.append({key: c / total for key, c in counts.items()})
    outcomes = 1 << (rows * t)
    dists.append({tuple((w >> (i * t)) & ((1 << t) - 1) for i in range(rows)): 1 / outcomes for w in range(outcomes)})
    return max(
        0.5 * sum(abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in p.keys() | q.keys())
        for p, q in combinations(dists, 2)
    )


def per_bit_translation(word, n, shift):
    """``word`` translated by ``shift`` one set bit at a time: ``perm[i]`` is
    the index of tuple ``i`` moved by ``shift`` componentwise mod n, and the
    bit at coordinate ``i`` moves to ``perm[i]``."""
    perm = [0]
    for s in shift:  # most significant component first, as in tuple_to_index
        perm = [p * n + (x + s) % n for p in perm for x in range(n)]
    moved = 0
    while word:
        i = (word & -word).bit_length() - 1
        moved |= 1 << perm[i]
        word &= word - 1
    return moved


def loop_c_vector(n, m, t):
    """c(t) with one bit set per subset of t's support: the index of t with
    the other support positions zeroed."""
    supp = [l for l in range(m) if t[l]]
    word = 0
    for size in range(len(supp) + 1):
        for subset in combinations(supp, size):
            idx = 0
            for l in range(m):
                idx = idx * n + (t[l] if l in subset else 0)
            word |= 1 << idx
    return BitVector(n**m, word)


def loop_d_vector(n, m, t):
    """d(t) with one bit set per filling of t's zero positions."""
    free = [l for l in range(m) if t[l] == 0]
    word = 0
    for values in product(range(n), repeat=len(free)):
        fill = dict(zip(free, values))
        idx = 0
        for l in range(m):
            idx = idx * n + fill.get(l, t[l])
        word |= 1 << idx
    return BitVector(n**m, word)


def all_products_star(c, d):
    """C * D as the row reduction of every pairwise product of generator rows."""
    if c.dimension == 0 or d.dimension == 0:
        return LinearCode.zero(c.length)
    products = [gw & hw for gw in c.generator.row_words for hw in d.generator.row_words]
    return LinearCode.from_generator(BitMatrix(len(products), c.length, tuple(products)))


def nullspace_reference(m):
    """The nullspace basis with every pivot row tested at every free column."""
    rref, pivots = row_reduce(m)
    free = [c for c in range(m.cols) if c not in pivots]
    words = []
    for f in free:
        w = 1 << f
        for i, p in enumerate(pivots):
            if (rref.row_words[i] >> f) & 1:
                w |= 1 << p
        words.append(w)
    return BitMatrix(len(free), m.cols, tuple(words))


def exhaustive_span(length, vectors):
    """Every GF(2) combination of the vectors, as a set of packed words."""
    words = {0}
    for v in vectors:
        assert v.length == length
        words |= {w ^ v.word for w in words}
    return words


def staged_parity_products(n, m):
    """Standard basis from products of weight-m downward indicators (n >= 3).

    Step 0 produces the basis vector at the all-zero tuple from two
    componentwise-disagreeing full-weight indicators; step k produces every
    weight-k basis vector by subtracting the already-built strict
    predecessors from a product equal to c(v).
    """
    assert n >= 3
    built = {}
    size = n**m
    e0 = star_vectors(c_vector(n, m, (1,) * m), c_vector(n, m, (2,) * m))
    assert e0 == BitVector(size, 1)
    built[(0,) * m] = e0
    for k in range(1, m + 1):
        for v in all_tuples(n, m):
            if tuple_weight(v) != k:
                continue
            j = tuple(v[p] if v[p] else 1 for p in range(m))
            l = tuple(v[p] if v[p] else 2 for p in range(m))
            x = star_vectors(c_vector(n, m, j), c_vector(n, m, l))
            assert x == c_vector(n, m, v)
            acc = x
            supp = [p for p in range(m) if v[p]]
            for count in range(len(supp)):
                for subset in combinations(supp, count):
                    acc = acc ^ built[tuple(v[p] if p in subset else 0 for p in range(m))]
            assert acc == BitVector(size, 1 << tuple_to_index(n, v)), v
            built[v] = acc
    assert len(built) == size
    return built


def _between(lo, hi, m):
    """All tuples v with lo below v below hi (inclusive)."""
    free = [p for p in range(m) if hi[p] and not lo[p]]
    for count in range(len(free) + 1):
        for subset in combinations(free, count):
            yield tuple(hi[p] if (lo[p] or p in subset) else 0 for p in range(m))


def staged_mixed_products(n, m, r2):
    """Standard basis from c(weight >= r2) star d(weight <= r2) products.

    Step 0 covers weight r2 directly; the next steps walk the weights down
    to 0 and then up to m, each time cancelling previously built vectors
    out of a product that covers the order interval between the two index
    tuples.
    """
    assert 1 <= r2 <= m
    built = {}
    size = n**m
    for j in all_tuples(n, m):
        if tuple_weight(j) != r2:
            continue
        e = star_vectors(c_vector(n, m, j), d_vector(n, m, j))
        assert e == BitVector(size, 1 << tuple_to_index(n, j))
        built[j] = e
    for k in range(1, r2 + 1):
        for jp in all_tuples(n, m):
            if tuple_weight(jp) != r2 - k:
                continue
            j = list(jp)
            for p in range(m):
                if sum(1 for q in j if q) == r2:
                    break
                if j[p] == 0:
                    j[p] = 1
            j = tuple(j)
            assert tuple_weight(j) == r2 and precedes(jp, j)
            acc = star_vectors(c_vector(n, m, j), d_vector(n, m, jp))
            for v in _between(jp, j, m):
                if v != jp:
                    acc = acc ^ built[v]
            assert acc == BitVector(size, 1 << tuple_to_index(n, jp)), jp
            built[jp] = acc
    for l in range(1, m - r2 + 1):
        for j in all_tuples(n, m):
            if tuple_weight(j) != r2 + l:
                continue
            supp = [p for p in range(m) if j[p]]
            jp = tuple(j[p] if p in supp[:r2] else 0 for p in range(m))
            acc = star_vectors(c_vector(n, m, j), d_vector(n, m, jp))
            for v in _between(jp, j, m):
                if v != j:
                    acc = acc ^ built[v]
            assert acc == BitVector(size, 1 << tuple_to_index(n, j)), j
            built[j] = acc
    assert len(built) == size
    return built


def rank_dimension_case(p):
    """The dimension case from a fresh rank of the family basis, formed one
    tuple at a time."""
    words = [word for _, word in tuple_basis(p)]
    got = rank(BitMatrix(len(words), p.length, words)) if words else 0
    want = berman.dimension_formula(p)
    return VerifyCase(f"dimension {p.name}", got == want, f"rank {got}, formula {want}")


def unshared_star_case(p, q):
    """The star case with its own product for the ordered pair (p, q)."""
    res = verify_star_case(p, q)
    return VerifyCase(
        f"star {p.name} * {q.name}",
        res.verified,
        f"predicted {res.predicted_name}, product dim {res.product_dimension}",
        record={
            "lhs": p.name,
            "rhs": q.name,
            "predicted": res.predicted_name,
            "verified": res.verified,
            "dims": {
                "lhs": berman.dimension_formula(p),
                "rhs": berman.dimension_formula(q),
                "product": res.product_dimension,
            },
        },
    )


def all_pairs_transitivity_case(p):
    """The transitivity case with one witness test per coordinate pair."""
    for a in range(p.length):
        for b in range(p.length):
            if not berman.transitivity_witness(p, a, b):
                return VerifyCase(f"transitivity {p.name}", False, f"no witness maps {a} to {b}")
    return VerifyCase(f"transitivity {p.name}", True, "family: translation")


def pointwise_reed_muller(r, m):
    """RM(r, m) spanned by the monomials of degree <= r, each evaluated at
    every coordinate tuple of length m."""
    n_pts = 1 << m
    rows = []
    for deg in range(max(r, -1) + 1):
        for positions in combinations(range(m), deg):
            word = 0
            for idx in range(n_pts):
                point = index_to_tuple(2, m, idx)
                if all(point[p] == 1 for p in positions):
                    word |= 1 << idx
            rows.append(BitVector(n_pts, word))
    return LinearCode.from_spanning_set(n_pts, rows)
