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
from bermanpir.gf2 import draw_bit_limbs
from bermanpir.pir import decode_iteration, gen_queries, philox_generator

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
for it, row in enumerate(schedule.coords.tolist()):
    pairs = ", ".join(f"{c}->s{s}" for c, s in sorted(zip(row, range(derived.b))))
    print(f"  iteration {it}: {pairs}")

print()
print("=== One full retrieval of file 0 ===")
transcript = run_retrieval(config, demand=0)
# The transcript keeps only the responses; the queries are redrawn from the
# same seeded stream: the library first, then one batch per iteration.
rng = philox_generator(config.seed)
draw_bit_limbs(rng, config.files, derived.b, derived.k_c)
for it, response in enumerate(transcript.responses):
    query = gen_queries(derived, config.files, 0, range(it, it + 1), rng)
    print(f"iteration {it}:")
    print(f"  query column to server 0: {query.transpose().row(0)}")
    print(f"  responses from all servers: {response}")
    offset = schedule.iteration_shifts[it]
    back = BitVector(derived.n_s, translate(response.word, schedule.n, [-x for x in offset]))
    print(f"  responses translated by -{offset}: {back}")
    print(f"  syndrome (M_E H') r', one planted bit per stripe: {derived.parity.mul_vector(back)}")
    word = decode_iteration(derived, it, response)
    recovered = tuple(sorted(((p, c, word >> p & 1) for p, c in enumerate(schedule.coords[it].tolist())), key=lambda t: t[1]))
    print(f"  recovered (stripe, coordinate, bit): {recovered}")
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
