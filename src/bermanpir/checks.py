"""Self-verification sweeps: every structural claim the library relies on,
run as an enumerable list of pass/fail cases.

Cases are evaluated one at a time in enumeration order, so reports are
stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import berman, star
from .berman import BermanParams, CodeKind, IndexTuple
from .codes import MAX_BRUTE_FORCE_DIM, LinearCode, TooLarge
from .star import star_pairs, verify_star_case


@dataclass(frozen=True)
class VerifyCase:
    name: str
    ok: bool
    detail: str = ""
    record: dict | None = None


def _family(n_max: int, m_max: int) -> Iterator[BermanParams]:
    for members in berman.families(n_max, m_max):
        yield from members


#: Longest family member a sweep may build.  The sweep at ``n_max = 2,
#: m_max = 9`` (512 coordinates) takes about 7 s on one core; at
#: ``m_max = 10`` it takes about 35 s, 30 s of it in star products.
MAX_SWEEP_LENGTH = 512


def _case_builders(n_max: int, m_max: int) -> list[Callable[[], VerifyCase]]:
    """Every case of the sweep, unevaluated.  A sweep whose longest member,
    of length ``n_max**m_max``, exceeds :data:`MAX_SWEEP_LENGTH` raises
    :class:`TooLarge` first, without forming the power once ``2**m_max``
    alone exceeds the guard."""
    if n_max < 2 or m_max < 1:
        raise ValueError(f"verify needs n_max >= 2 and m_max >= 1, got n_max={n_max}, m_max={m_max}")
    if m_max >= MAX_SWEEP_LENGTH.bit_length() or n_max**m_max > MAX_SWEEP_LENGTH:
        raise TooLarge(f"verify sweep up to length {n_max}^{m_max} exceeds the guard of {MAX_SWEEP_LENGTH}")
    builders: list[Callable[[], VerifyCase]] = []

    for params in _family(n_max, m_max):
        def dim_case(p=params) -> VerifyCase:
            got = berman.basis_span(p).dimension
            want = berman.dimension_formula(p)
            return VerifyCase(f"dimension {p.name}", got == want, f"rank {got}, formula {want}")

        builders.append(dim_case)

    for params in _family(n_max, m_max):
        if params.is_zero_code:
            continue
        if berman.dimension_formula(params) > MAX_BRUTE_FORCE_DIM:
            continue

        def dist_case(p=params) -> VerifyCase:
            got = berman.build(p).min_distance_bruteforce()
            want = berman.min_distance_formula(p)
            return VerifyCase(f"distance {p.name}", got == want, f"brute {got}, formula {want}")

        builders.append(dist_case)

    for params in _family(n_max, m_max):
        if params.r == 0:
            continue

        def contain_case(p=params) -> VerifyCase:
            inner, outer = (
                (p, BermanParams(p.kind, p.n, p.m, p.r - 1))
                if p.kind is CodeKind.BERMAN
                else (BermanParams(p.kind, p.n, p.m, p.r - 1), p)
            )
            outer_code = berman.build(outer)
            inner_code = berman.build(inner)
            ok = all(
                outer_code.contains(inner_code.generator.row(i))
                for i in range(inner_code.dimension)
            )
            return VerifyCase(f"containment {inner.name} within {outer.name}", ok)

        builders.append(contain_case)

    for params in _family(n_max, m_max):
        if params.kind is not CodeKind.BERMAN:
            continue

        def dual_case(p=params) -> VerifyCase:
            ok = berman.build(p).dual() == berman.build(p.dual)
            return VerifyCase(f"duality {p.name} vs {p.dual.name}", ok)

        builders.append(dual_case)

    # Each product is formed once per unordered pair: the first of its two
    # ordered visits stores it and the second takes it out.  star_pairs makes
    # both visits within one (n, m) block, so this holds at most one block.
    products: dict[frozenset[BermanParams], LinearCode] = {}

    for p, q in star_pairs(n_max, m_max):
        def star_case(pp=p, qq=q) -> VerifyCase:
            key = frozenset((pp, qq))
            product = products.pop(key, None)
            if product is None:
                product = star.star_codes(berman.build(pp), berman.build(qq))
                if pp != qq:
                    products[key] = product
            res = verify_star_case(pp, qq, product)
            pred = res.predicted_name
            return VerifyCase(
                f"star {pp.name} * {qq.name}",
                res.verified,
                f"predicted {pred}, product dim {res.product_dimension}",
                record={
                    "lhs": pp.name,
                    "rhs": qq.name,
                    "predicted": pred,
                    "verified": res.verified,
                    "dims": {
                        "lhs": berman.dimension_formula(pp),
                        "rhs": berman.dimension_formula(qq),
                        "product": res.product_dimension,
                    },
                },
            )

        builders.append(star_case)

    for m in range(1, m_max + 1):
        for r in range(m + 1):
            def rm_case(mm=m, rr=r) -> VerifyCase:
                dber = berman.build(BermanParams(CodeKind.DUAL_BERMAN, 2, mm, rr))
                rm = berman.reed_muller_code(rr, mm)
                ber = berman.build(BermanParams(CodeKind.BERMAN, 2, mm, rr))
                rm_dual = berman.reed_muller_code(mm - rr - 1, mm)
                ok = dber == rm and ber == rm_dual
                return VerifyCase(f"reed-muller match n=2 r={rr} m={mm}", ok)

            builders.append(rm_case)

    for params in _family(n_max, m_max):
        if params.length > 9:
            continue

        def trans_case(p=params) -> VerifyCase:
            # A witness depends only on the shift from a to b, so each shift is tested once.
            witnesses: dict[IndexTuple, str | None] = {}
            for a in range(p.length):
                for bcoord in range(p.length):
                    shift = berman.coordinate_shift(p.n, p.m, a, bcoord)
                    if shift not in witnesses:
                        witnesses[shift] = berman.transitivity_witness(p, a, bcoord)
                    if witnesses[shift] is None:
                        return VerifyCase(
                            f"transitivity {p.name}", False, f"no witness maps {a} to {bcoord}"
                        )
            return VerifyCase(f"transitivity {p.name}", True, f"family: {', '.join(sorted(set(witnesses.values())))}")

        builders.append(trans_case)

    return builders


def iter_verification_cases(n_max: int = 3, m_max: int = 3) -> Iterator[VerifyCase]:
    """Evaluate every case, in enumeration order."""
    for make in _case_builders(n_max, m_max):
        yield make()
