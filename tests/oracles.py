"""Independent oracles shared by the test modules.

The staged constructions rebuild every standard basis vector of the full
space out of star products of family basis vectors, step by step, checking
each intermediate against its direct definition.  They deliberately avoid
the library's span machinery so that a passing run certifies the products
themselves, not just span bookkeeping.

The retrieval loop redoes one retrieval's queries and responses on Python
integers, one row at a time, from the documented Philox draw order.

The schedule finder decides a tiny scheduling instance by exhaustive search.
"""

from itertools import combinations, product

import numpy as np

from bermanpir import BitVector
from bermanpir.berman import (
    all_tuples,
    c_vector,
    d_vector,
    precedes,
    tuple_to_index,
    tuple_weight,
)
from bermanpir.star import star_vectors


def per_server_responses(stored, q):
    """Each server's answer on its own: bit i is the dot product of stored
    column i and query column i."""
    word = 0
    for i in range(q.cols):
        if stored.column(i).dot(q.column(i)):
            word |= 1 << i
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
    for plan in derived.schedule.iterations:
        q = row_table_product(random_bits(rng, files * b, g_d.rows), g_d.row_words)
        for stripe, coord in zip(plan.stripes, plan.coords):
            q[demand * b + stripe] ^= 1 << coord
        response = 0
        for s_row, q_row in zip(stored, q):
            response ^= s_row & q_row
        queries.append(tuple(q))
        responses.append(response)
    return file_words[demand], queries, responses


def column_rank(cols):
    """Rank over GF(2) of integer column words, by a basis keyed on the
    highest set bit."""
    basis = {}
    for w in cols:
        while w and w.bit_length() in basis:
            w ^= basis[w.bit_length()]
        if w:
            basis[w.bit_length()] = w
    return len(basis)


def brute_force_schedule(g_cols, h_cols, b, k_c, d_perp, s_iterations):
    """Some schedule of a tiny instance, or None when it has none.

    A schedule gives each of the ``s_iterations`` iterations ``d_perp``
    distinct coordinates with independent columns in ``h_cols``, each
    labelled with one of ``b`` stripes, so that every stripe ends with
    ``k_c`` coordinates whose ``g_cols`` are independent.  Every labelled
    iteration choice is listed, and iterations, being interchangeable, take
    choices in nondecreasing list order; a partial assignment that already
    breaks a stripe is dropped.  Returns per iteration its sorted
    (coordinate, stripe) pairs.
    """
    choices = [
        tuple(zip(coords, stripes))
        for coords in combinations(range(len(h_cols)), d_perp)
        if column_rank([h_cols[j] for j in coords]) == d_perp
        for stripes in product(range(b), repeat=d_perp)
    ]

    def extend(first, taken, per_stripe):
        if len(taken) == s_iterations:
            return taken
        for i in range(first, len(choices)):
            grown = [list(coords) for coords in per_stripe]
            for j, s in choices[i]:
                grown[s].append(j)
            if all(len(c) <= k_c and column_rank([g_cols[j] for j in c]) == len(c) for c in grown):
                found = extend(i, taken + [choices[i]], grown)
                if found is not None:
                    return found
        return None

    if s_iterations * d_perp != b * k_c:
        return None
    return extend(0, [], [[] for _ in range(b)])


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
    assert e0 == BitVector.unit(size, 0)
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
            assert acc == BitVector.unit(size, tuple_to_index(n, v)), v
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
        assert e == BitVector.unit(size, tuple_to_index(n, j))
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
            assert acc == BitVector.unit(size, tuple_to_index(n, jp)), jp
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
            assert acc == BitVector.unit(size, tuple_to_index(n, j)), j
            built[j] = acc
    assert len(built) == size
    return built
