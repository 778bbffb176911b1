"""
Obstruction tests: when can a structure NOT be astheno-Kahler?
==============================================================

Beyond checking one metric at a time, several invariant-level tests rule
out whole classes of metrics at once, or certify that a structure sits in
the small "gap" between having some special metric and having none.
"""

from nilcoh import (
    catalog_get,
    diagonal_metric,
    holomorphic_one_forms,
    jost_yau,
    gap_verdict,
    l_functional,
    torality_check,
    kunneth_check,
    obstruction_report,
    emit_report,
)
from nilcoh.reports import obstruction_json

iwasawa = catalog_get("iwasawa").spec
kodaira = catalog_get("kodaira").spec

# The space of holomorphic closed one-forms is the first invariant:
print("holomorphic one-forms on kodaira:",
      [str(f) for f in holomorphic_one_forms(kodaira)])

# Jost-Yau: on a structure carrying an astheno metric, every holomorphic
# one-form must be d-closed.  A non-closed one is a certificate that NO
# astheno metric exists.
result = jost_yau(iwasawa)
print("\niwasawa jost_yau passes:", result.passed)
print("  non-closed witness:", result.witness)
print("kodaira jost_yau passes:", jost_yau(kodaira).passed)

# gap_verdict compares h_aeppli(0,1) against h_bott_chern(0,1).  Gap 0
# happens exactly on tori (abelian structures), gap 1 is the normal
# non-abelian nilpotent case, and anything wider is excluded.
for key in ("torus(2)", "kodaira", "iwasawa"):
    gv = gap_verdict(catalog_get(key).spec)
    print("%-10s h_bc=%d h_a=%d gap=%d -> %s"
          % (key, gv.h01_bc, gv.h01_a, gv.gap, gv.verdict))

# The L-functional sends an Aeppli (0,1) representative to the volume
# coefficient of (del rep) ^ omega^{n-1} for a chosen Gauduchon metric.
# Nonzero values detect representatives invisible to Bott-Chern.
metric = diagonal_metric(kodaira.n)
lf = l_functional(kodaira, metric)
print("\nkodaira L values on aeppli (0,1) basis:",
      [str(v) for v in lf.values], " rank =", lf.rank)

# A structural identity ties three numbers together whenever an astheno
# metric exists: h_aeppli(0,1) = h_bott_chern(0,1) + rank(L).
report = obstruction_report(kodaira, metric)
print("exactness: h_a(0,1) = %d = h_bc(0,1) + l_rank = %d + %d"
      % (report.h01_a, report.h01_bc, report.l_rank))

# torality_check: a nilpotent structure with gap 0 must be abelian;
# "consistent" means no contradiction with that rule.
print("\nkodaira torality:", torality_check(kodaira))

# kunneth_check: Bott-Chern (0,1) is additive under direct sums, Aeppli
# is at least additive.
kr = kunneth_check(kodaira, catalog_get("torus(1)").spec)
print("kunneth bc: %d + %d -> %d (additive: %s)"
      % (kr.bc_left, kr.bc_right, kr.bc_sum, kr.bc_additive))
print("kunneth aeppli: %d + %d -> %d (superadditive: %s)"
      % (kr.aeppli_left, kr.aeppli_right, kr.aeppli_sum,
         kr.aeppli_superadditive))

# Everything above is bundled into one report with a canonical JSON
# rendering.  astheno_excluded being true means: stop looking, no
# invariant astheno metric can exist.
report = obstruction_report(iwasawa, diagonal_metric(iwasawa.n))
print("\nfull iwasawa report:")
print(emit_report({"verdicts": obstruction_json(report)}), end="")

# The nakamura structure is excluded for a different reason than the
# iwasawa one: its gap at (0,1) is already 2, before any metric enters.
nakamura = catalog_get("nakamura_ce").spec
report = obstruction_report(nakamura)
print("\nnakamura: astheno_excluded =", report.astheno_excluded,
      " excluded_by =", report.excluded_by,
      " (h_a - h_bc = %d)" % (report.h01_a - report.h01_bc))
