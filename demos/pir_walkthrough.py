#!/usr/bin/env python3
"""A narrated end-to-end private retrieval on nine servers.

Storage code DBer(3,0,2) (every server holds one coordinate of each
stripe's codeword), retrieval code DBer(3,1,2), collusion resistance t=3.

Run: python3 demos/pir_walkthrough.py
"""

from bermanpir import (
    BermanParams,
    BitVector,
    SchemeConfig,
    derive_scheme,
    run_retrieval,
    verify_privacy_empirical,
    verify_privacy_rank,
)
from bermanpir.berman import translate

config = SchemeConfig(
    storage=BermanParams.parse("DBer(3,0,2)"),
    retrieval=BermanParams.parse("DBer(3,1,2)"),
    files=2,
    seed=1,
)

print("=== Scheme derivation ===")
derived = derive_scheme(config)
print(f"servers            n_s = {derived.n_s}")
print(f"storage dimension  k_C = {derived.k_c}   (storage rate {derived.r_st})")
print(f"product dual dim       = {derived.d_perp}  (retrieval rate {derived.r_pir})")
print(f"collusion          t   = {derived.t}")
print(f"stripes per file   b   = {derived.b}, iterations S = {derived.s_iterations}")
schedule = derived.schedule
print(f"iteration offsets  I_0 = W(C)      = {schedule.iteration_shifts}")
print(f"stripe offsets     J_0 = W(E^perp) = {schedule.stripe_shifts}")
print("per-iteration recovery plan (coordinate -> stripe), the offsets added componentwise mod n:")
for it, plan in enumerate(derived.schedule.iterations):
    pairs = ", ".join(f"{c}->s{s}" for s, c in plan.assignments())
    print(f"  iteration {it}: {pairs}")

print()
print("=== One full retrieval of file 0 ===")
transcript = run_retrieval(config, demand=0)
for it, rec in enumerate(transcript.iterations):
    print(f"iteration {it}:")
    print(f"  query column to server 0: {rec.query.column(0)}")
    print(f"  responses from all servers: {rec.response}")
    offset = schedule.iteration_shifts[it]
    back = BitVector(derived.n_s, translate(rec.response.word, schedule.n, [-x for x in offset]))
    print(f"  responses translated by -{offset}: {back}")
    print(f"  syndrome (M_E H') r', one planted bit per stripe: {derived.parity.mul_vector(back)}")
    print(f"  recovered (stripe, coordinate, bit): {rec.recovered}")
print("stored file 0:")
print(transcript.stored_file)
print("reconstructed file:")
print(transcript.recovered_file)
print(f"match: {transcript.reconstructed_ok}")
print(f"achieved rate {transcript.achieved_rate} over {transcript.downloaded_bits} downloaded bits")

print()
print("=== Privacy checks ===")
rank_ok = verify_privacy_rank(derived.retrieval_code, derived.t)
print(f"every {derived.t}-server projection of the retrieval code is onto: {rank_ok}")
tv = verify_privacy_empirical(config, derived.t)
print(f"exhaustive query-distribution distance across demands at t={derived.t}: {tv}")
tv_beyond = verify_privacy_empirical(config, derived.t + 1)
print(f"one server beyond the guarantee (t={derived.t + 1}): distance {tv_beyond}")
