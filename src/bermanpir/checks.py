"""Self-verification sweeps: every structural claim the library relies on,
run as an enumerable list of pass/fail cases.

Cases are evaluated one at a time in enumeration order, so reports are
stable.  Each case kind is one function of its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from . import berman, star
from .berman import BermanParams, CodeKind
from .codes import MAX_BRUTE_FORCE_DIM, InvalidInput, LinearCode, ProtocolInvariantError, TooLarge
from .star import star_pairs, verify_star_case


@dataclass(frozen=True)
class VerifyCase:
    name: str
    ok: bool
    detail: str = ""
    record: dict | None = None


#: Longest family member a sweep may build.  The sweep at ``n_max = 2,
#: m_max = 9`` (512 coordinates) takes about 1.2 s, 0.9 s of it in star
#: products; at ``m_max = 10``, with the guard lifted, it takes about 5.4 s,
#: 4.4 s of it in star products (two runs each, in-process in fresh
#: interpreters, on a 2-vCPU Linux host).
MAX_SWEEP_LENGTH = 512


def _dimension(p: BermanParams) -> VerifyCase:
    """:func:`.berman.build` checks the rank against the closed form, so its
    refusal is the failed case, with the refusal's text as the detail."""
    name = f"dimension {p.name}"
    try:
        got = berman.build(p).dimension
    except ProtocolInvariantError as exc:
        return VerifyCase(name, False, str(exc))
    return VerifyCase(name, True, f"rank {got}, formula {berman.dimension_formula(p)}")


def _distance(p: BermanParams) -> VerifyCase:
    got = berman.build(p).min_distance_bruteforce()
    want = berman.min_distance_formula(p)
    return VerifyCase(f"distance {p.name}", got == want, f"brute {got}, formula {want}")


def _containment(p: BermanParams) -> VerifyCase:
    """Ber(r) within Ber(r-1), and DBer(r-1) within DBer(r)."""
    lower = BermanParams(p.kind, p.n, p.m, p.r - 1)
    inner, outer = (p, lower) if p.kind is CodeKind.BERMAN else (lower, p)
    ok = berman.build(outer).contains_rows(berman.build(inner).generator)
    return VerifyCase(f"containment {inner.name} within {outer.name}", ok)


def _duality(p: BermanParams) -> VerifyCase:
    ok = berman.build(p).dual() == berman.build(p.dual)
    return VerifyCase(f"duality {p.name} vs {p.dual.name}", ok)


def _star(p: BermanParams, q: BermanParams, products: dict[frozenset[BermanParams], LinearCode]) -> VerifyCase:
    """The case of ``p * q``.  Each product is formed once per unordered
    pair: the first of its two ordered visits stores it in ``products`` and
    the second takes it out.  :func:`star_pairs` makes both visits within
    one (n, m) block, so ``products`` holds at most one block."""
    key = frozenset((p, q))
    product = products.pop(key, None)
    if product is None:
        product = star.star_codes(berman.build(p), berman.build(q))
        if p != q:
            products[key] = product
    res = verify_star_case(p, q, product)
    pred = res.predicted_name
    return VerifyCase(
        f"star {p.name} * {q.name}",
        res.verified,
        f"predicted {pred}, product dim {res.product_dimension}",
        record={
            "lhs": p.name,
            "rhs": q.name,
            "predicted": pred,
            "verified": res.verified,
            "dims": {
                "lhs": berman.dimension_formula(p),
                "rhs": berman.dimension_formula(q),
                "product": res.product_dimension,
            },
        },
    )


def _reed_muller(m: int, r: int) -> VerifyCase:
    dber = berman.build(BermanParams(CodeKind.DUAL_BERMAN, 2, m, r))
    ber = berman.build(BermanParams(CodeKind.BERMAN, 2, m, r))
    ok = dber == berman.reed_muller_code(r, m) and ber == berman.reed_muller_code(m - r - 1, m)
    return VerifyCase(f"reed-muller match n=2 r={r} m={m}", ok)


def _transitivity(p: BermanParams) -> VerifyCase:
    """The shift from coordinate 0 to b is b's own tuple, so testing the unit
    coordinates ``n^0 < n^1 < ... < n^(m-1)`` tests the translations that
    generate ``Z_n^m``.  Every coordinate below ``n^l`` is a sum of the first
    l units, so the first unit that fails is also the first failing
    coordinate."""
    name = f"transitivity {p.name}"
    for b in (p.n**level for level in range(p.m)):
        if not berman.transitivity_witness(p, 0, b):
            return VerifyCase(name, False, f"no witness maps 0 to {b}")
    return VerifyCase(name, True, "family: translation")


def _case_builders(n_max: int, m_max: int) -> list[Callable[[], VerifyCase]]:
    """Every case of the sweep, unevaluated, kind by kind.  A sweep whose
    longest member, of length ``n_max**m_max``, exceeds
    :data:`MAX_SWEEP_LENGTH` raises :class:`TooLarge` first
    (:func:`.berman.length_beyond`)."""
    if n_max < 2 or m_max < 1:
        raise InvalidInput(f"verify needs n_max >= 2 and m_max >= 1, got n_max={n_max}, m_max={m_max}")
    if berman.length_beyond(n_max, m_max, MAX_SWEEP_LENGTH):
        raise TooLarge(f"verify sweep up to length {n_max}^{m_max} exceeds the guard of {MAX_SWEEP_LENGTH}")
    members = [p for block in berman.families(n_max, m_max) for p in block]
    products: dict[frozenset[BermanParams], LinearCode] = {}
    return [
        *(partial(_dimension, p) for p in members),
        *(
            partial(_distance, p)
            for p in members
            if not p.is_zero_code and berman.dimension_formula(p) <= MAX_BRUTE_FORCE_DIM
        ),
        *(partial(_containment, p) for p in members if p.r > 0),
        *(partial(_duality, p) for p in members if p.kind is CodeKind.BERMAN),
        *(partial(_star, p, q, products) for p, q in star_pairs(n_max, m_max)),
        *(partial(_reed_muller, m, r) for m in range(1, m_max + 1) for r in range(m + 1)),
        *(partial(_transitivity, p) for p in members if p.length <= 9),
    ]


def iter_verification_cases(n_max: int, m_max: int) -> Iterator[VerifyCase]:
    """Evaluate every case, in enumeration order."""
    for make in _case_builders(n_max, m_max):
        yield make()
