#!/usr/bin/env python3
"""Star products of the code families: predictions and verified spans.

Run: python3 demos/star_products.py
"""

from bermanpir import BermanParams, predict_star, star_codes, star_vectors, verify_star_case
from bermanpir.berman import build, c_vector, d_vector
from bermanpir.star import FULL_SPACE, star_pairs

print("=== Coordinatewise products of basis vectors ===")
a = c_vector(3, 2, (1, 2))
b = d_vector(3, 2, (1, 0))
print(f"  {a} * {b} = {star_vectors(a, b)}")

print()
print("=== The case table in action ===")
pairs = [
    ("DBer(3,0,2)", "DBer(3,1,2)"),
    ("Ber(3,1,2)", "DBer(3,1,2)"),
    ("Ber(3,0,2)", "Ber(3,0,2)"),
    ("Ber(2,1,3)", "DBer(2,2,3)"),
    ("DBer(2,1,3)", "DBer(2,1,3)"),
]
for left, right in pairs:
    p, q = BermanParams.parse(left), BermanParams.parse(right)
    predicted = predict_star(p, q)
    shown = predicted.name if isinstance(predicted, BermanParams) else predicted.value
    result = verify_star_case(p, q)
    print(f"  {left} * {right} -> {shown:>12}   span-verified: {result.verified}")

print()
print("=== Products really are spans of row products ===")
product = star_codes(build(BermanParams.parse("DBer(3,0,2)")), build(BermanParams.parse("DBer(3,1,2)")))
print(f"  dim(DBer(3,0,2) * DBer(3,1,2)) = {product.dimension}")

print()
print("=== Full sweep over n <= 4, m <= 3 ===")
total = verified = special = 0
for p, q in star_pairs(4, 3):
    res = verify_star_case(p, q)
    total += 1
    verified += res.verified
    special += res.predicted is FULL_SPACE
print(f"  {verified}/{total} predicted cases verified by span equality")
print(f"  {special} of them land on the full space")

print()
print("=== One regime stays deliberately unpredicted ===")
p = BermanParams.parse("DBer(3,2,3)")
print(f"  DBer(3,2,3) * DBer(3,2,3) -> {predict_star(p, p).value}")
observed = star_codes(build(p), build(p))
print(f"  (observed span dimension: {observed.dimension} of {observed.length})")
