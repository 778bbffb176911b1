"""
Hermitian metrics and their special conditions
==============================================

An invariant Hermitian metric is a positive matrix H in the generator
basis; its fundamental two-form is omega = i * sum H_jk a_j ^ ~a_k.
Various curvature-free "special metric" conditions are polynomial
identities in d, omega, and its powers, so they can be decided exactly.
"""

from fractions import Fraction

from nilcoh import (
    catalog_get,
    diagonal_metric,
    build_metric,
    check_condition,
    scan_diagonal_metrics,
    exnilp_lhs,
    fps_lhs,
)
from nilcoh.scalars import GaussianRational

iwasawa = catalog_get("iwasawa").spec
metric = diagonal_metric(iwasawa.n, [1, 1, 1])
print("omega =", metric.omega)
print("positive:", metric.is_positive())

# omega^n is a volume form (never zero for a positive metric):
print("omega^3 =", metric.wedge_power(3))

# The conditions form a ladder.  kahler (d omega = 0) is the strongest;
# gauduchon (del delbar omega^{n-1} = 0) is the weakest and holds for
# every invariant metric on a nilpotent structure.
for cond in ("kahler", "skt", "astheno", "gauduchon"):
    result = check_condition(iwasawa, metric, cond)
    print("%-10s %s" % (cond, result.holds))

# When a condition fails we get an exact witness: the nonzero form that
# should have vanished.
result = check_condition(iwasawa, metric, "astheno")
print("astheno witness: del delbar omega =", result.witness)

# pluriclosed:k interpolates, counting down from the top power:
# del delbar omega^(n-k) = 0.  So pluriclosed:1 is gauduchon,
# pluriclosed:2 is astheno, and k = n is trivially true.
print("pluriclosed:1 (= gauduchon):",
      check_condition(iwasawa, metric, "pluriclosed:1").holds)
print("pluriclosed:2 (= astheno)  :",
      check_condition(iwasawa, metric, "pluriclosed:2").holds)
print("pluriclosed:3 (degenerate) :",
      check_condition(iwasawa, metric, "pluriclosed:3").holds)

# ft_pair asks for a closed combination: d(omega^{n-1}) paired with the
# corresponding lower power.
result = check_condition(iwasawa, metric, "ft_pair")
print("ft_pair:", result.holds)

# The kodaira structure carries an SKT metric that is not Kahler:
kodaira = catalog_get("kodaira").spec
metric = diagonal_metric(kodaira.n)
print("\nkodaira skt    =", check_condition(kodaira, metric, "skt").holds)
print("kodaira kahler =", check_condition(kodaira, metric, "kahler").holds)

# Searching a grid of diagonal metrics for a condition:
hits = [
    diag
    for diag, result in scan_diagonal_metrics(kodaira, [1, 2], "skt")
    if result.holds
]
print("diagonal skt metrics on kodaira with entries in {1,2}:", len(hits), "of 4")

# Two closed-form families reduce the astheno / skt question to a single
# scalar.  exnilp_lhs covers extensions of an abelian core by one extra
# generator with d a_n = sum A_jk a_j^a_k + sum B_jk a_j^~a_k; the metric
# is identity, and the structure is astheno iff the scalar vanishes.
lhs = exnilp_lhs(3, {}, [[1, 1], [1, -1]])
print("\nexnilp_lhs(3, A=0, B=[[1,1],[1,-1]]) =", lhs, " (astheno iff 0)")

# Rank-one Hermitian B always lands on the zero set:
lhs = exnilp_lhs(3, {}, [[1, 1], [1, 1]])
print("exnilp_lhs(3, A=0, B=ones)          =", lhs)

# Gaussian-rational entries are fine; i is GaussianRational(0, 1).
i = GaussianRational(0, 1)
half = GaussianRational(Fraction(1, 2))
lhs = exnilp_lhs(3, {(1, 2): GaussianRational(1)}, [[i, half], [half, i]])
print("exnilp_lhs(3, A_{12}=1, B=[[i,1/2],[1/2,i]]) =", lhs)

# fps_lhs does the same for the five-parameter n = 3 family
# d a3 = A ~a1^a2 + B ~a2^a2 + C a1^~a1 + D a1^~a2 + E a1^a2,
# deciding skt for the identity metric.
print("\nfps_lhs(1,1,1,1,1) =", fps_lhs(1, 1, 1, 1, 1))
print("fps_lhs(0,2,i,0,0) =", fps_lhs(0, 2, i, 0, 0), " (on the zero set)")

# Non-diagonal metrics work too; build_metric validates Hermitian-ness.
H = [
    [GaussianRational(2), i],
    [-i, GaussianRational(2)],
]
metric = build_metric(kodaira.n, H)
print("\noff-diagonal metric positive:", metric.is_positive())
print("off-diagonal metric skt     :", check_condition(kodaira, metric, "skt").holds)
