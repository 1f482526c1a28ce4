"""The verify sweep against loops that share no work between its cases, and
the whole sweep at its length guard."""

import hashlib
import json
import time
from dataclasses import astuple

import pytest

from bermanpir import berman, checks
from bermanpir.berman import BermanParams, families
from bermanpir.codes import LinearCode
from bermanpir.gf2 import BitVector
from bermanpir.star import star_pairs
from oracles import all_pairs_transitivity_case, rank_dimension_case, unshared_star_case

#: SHA-256 of the JSON list of [name, ok, detail] over the (2, 9) sweep.
GUARD_SWEEP_SHA256 = "0daf96b9f22da93d217b1eb91097004552b5e1bd752c7c8f97f864e274623fe3"


def oracle_cases(n_max, m_max):
    """The sweep's dimension, star and transitivity cases, by name, from the
    unshared loops."""
    members = [p for block in families(n_max, m_max) for p in block]
    cases = [rank_dimension_case(p) for p in members]
    cases += [unshared_star_case(p, q) for p, q in star_pairs(n_max, m_max)]
    cases += [all_pairs_transitivity_case(p) for p in members if p.length <= 9]
    return {case.name: case for case in cases}


class TestSharedWork:
    def test_matches_the_unshared_loops_on_the_5_3_sweep(self):
        want = oracle_cases(5, 3)
        got = [case for case in checks.iter_verification_cases(5, 3) if case.name in want]
        assert len(got) == len(want) == 72 + 460 + 36
        for case in got:
            assert astuple(case) == astuple(want[case.name]), case.name

    def test_failure_detail_of_a_code_without_translations(self, monkeypatch):
        # The span of the indicator of block 0 (coordinates 0, 1, 2) is kept
        # by the shifts (0, s) only, so the first pair it fails is 0 -> 3.
        broken = BermanParams.parse("Ber(3,1,2)")
        block = LinearCode.from_spanning_set(9, [BitVector(9, 0b111)])
        real = berman.build
        monkeypatch.setattr(berman, "build", lambda p: block if p == broken else real(p))
        got = {case.name: case for case in checks.iter_verification_cases(3, 2)}
        case = got[f"transitivity {broken.name}"]
        assert astuple(case) == astuple(all_pairs_transitivity_case(broken))
        assert (case.ok, case.detail) == (False, "no witness maps 0 to 3")
        others = [c for name, c in got.items() if name.startswith("transitivity") and c is not case]
        assert others and all(c.ok for c in others)


@pytest.mark.slow
def test_sweep_at_the_length_guard_passes():
    # n_max = 2, m_max = 9: the longest members have MAX_SWEEP_LENGTH = 512 coordinates.
    assert 2**9 == checks.MAX_SWEEP_LENGTH
    start = time.perf_counter()
    cases = list(checks.iter_verification_cases(2, 9))
    print(f"{len(cases)} cases in {time.perf_counter() - start:.1f} s")
    assert len(cases) == 1824
    assert [case.name for case in cases if not case.ok] == []
    # Every case's name, status and detail, "product dim" included, as first
    # recorded with all products reduced at once.
    listing = json.dumps([[case.name, case.ok, case.detail] for case in cases])
    assert hashlib.sha256(listing.encode()).hexdigest() == GUARD_SWEEP_SHA256
