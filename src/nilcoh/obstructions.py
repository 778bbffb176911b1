"""Obstructions to special Hermitian metrics, computed at invariant level.

The headline numbers are the (0,1) dimensions: the natural inclusion of
Bott-Chern classes into Aeppli classes in bidegree (0,1) is always
injective here, so ``gap = h01_aeppli - h01_bott_chern >= 0``, and for the
structures this package targets a gap of 2 or more excludes astheno-Kahler
metrics ("excluded"), while 0 and 1 are compatible verdicts.

Individual tests:

* :func:`jost_yau` — holomorphic 1-forms (delbar-closed (1,0)-forms) must
  be d-closed in the presence of an astheno-Kahler metric; a non-closed
  one is a witness against existence.
* :func:`l_functional` — for a Gauduchon metric omega, pair each Aeppli
  (0,1) class {a} with the volume coefficient of ``del a ^ omega^(n-1)``;
  the values vanish on Bott-Chern classes, so the functional has rank 0 or
  1 and measures the (0,1) gap seen by the metric.
* :func:`torality_check` — for nilpotent specs, gap 0 forces all
  differentials to vanish; "violation" would mean an internal bug.
* :func:`kunneth_check` — on direct sums, Bott-Chern (0,1) dimensions add
  exactly and Aeppli (0,1) dimensions are at least additive.

Reports carry a validity flag: conclusions are manifold-level only for
``nilpotent_J`` specs; otherwise they describe the invariant complex alone
(``ce_only``).
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AlgebraSpec, d, del_, direct_sum, validate
from .cohomology import class_representatives, hodge_number
from .forms import BasisForm
from .metrics import MetricForm, check_condition

# witness: a holomorphic but non-closed 1-form, or None when the test passes
JostYauResult = namedtuple("JostYauResult", "passed witness")

# verdict: compatible_gap0 | compatible_gap1 | excluded
GapVerdict = namedtuple("GapVerdict", "h01_bc h01_a gap verdict")

# representatives: Aeppli (0,1) representatives; values: Gaussian
# rationals, one per representative; rank: 0 or 1
LFunctional = namedtuple("LFunctional", "representatives values rank")

KunnethResult = namedtuple(
    "KunnethResult",
    "bc_left bc_right bc_sum bc_additive aeppli_left aeppli_right aeppli_sum aeppli_superadditive",
)

# validity: nilpotent_J | ce_only; gauduchon is None without a metric, and
# l_rank and l_values are None unless the metric is Gauduchon
ObstructionReport = namedtuple(
    "ObstructionReport",
    "h01_bc h01_a gap gap_verdict jost_yau torality validity astheno_excluded "
    "excluded_by gauduchon l_rank l_values",
)


def holomorphic_one_forms(spec: AlgebraSpec):
    """Basis of delbar-closed (1,0)-forms, in canonical reduced form: the
    Dolbeault (1,0) representatives, as no delbar image lands in (1,0)."""
    return class_representatives(spec, "dolbeault", 1, 0)


def jost_yau(spec: AlgebraSpec) -> JostYauResult:
    """Fail (with witness) iff some holomorphic 1-form is not d-closed."""
    for phi in holomorphic_one_forms(spec):
        if d(spec, phi):
            return JostYauResult(passed=False, witness=phi)
    return JostYauResult(passed=True, witness=None)


def gap_verdict(spec: AlgebraSpec) -> GapVerdict:
    h_bc = hodge_number(spec, "bott_chern", 0, 1)
    h_a = hodge_number(spec, "aeppli", 0, 1)
    gap = h_a - h_bc
    if gap == 0:
        verdict = "compatible_gap0"
    elif gap == 1:
        verdict = "compatible_gap1"
    else:
        verdict = "excluded"
    return GapVerdict(h01_bc=h_bc, h01_a=h_a, gap=gap, verdict=verdict)


def l_functional(spec: AlgebraSpec, m: MetricForm) -> LFunctional:
    """Volume coefficient of ``del a ^ omega^(n-1)`` on Aeppli (0,1)
    representatives.  Requires omega to be Gauduchon (checked)."""
    if not check_condition(spec, m, "gauduchon").holds:
        raise ValueError("metric is not Gauduchon; the functional is not defined")
    return _l_functional(spec, m)


def _l_functional(spec: AlgebraSpec, m: MetricForm) -> LFunctional:
    """:func:`l_functional` for a metric already known to be Gauduchon."""
    volume = BasisForm(tuple(range(1, spec.n + 1)), tuple(range(1, spec.n + 1)))
    power = m.wedge_power(spec.n - 1)
    reps = class_representatives(spec, "aeppli", 0, 1)
    values = [
        (del_(spec, rep) ^ power).coefficient(volume) for rep in reps
    ]
    rank = 1 if any(values) else 0
    return LFunctional(representatives=reps, values=values, rank=rank)


def torality_check(spec: AlgebraSpec) -> str:
    """not_applicable unless nilpotent_J; otherwise gap 0 must mean all
    generator differentials vanish (abelian)."""
    if not validate(spec).nilpotent_J:
        return "not_applicable"
    gv = gap_verdict(spec)
    if gv.gap == 0 and not spec.is_abelian():
        return "violation"
    return "consistent"


def kunneth_check(a: AlgebraSpec, b: AlgebraSpec) -> KunnethResult:
    """Compare (0,1) dimensions of a direct sum against the summands."""
    total = direct_sum(a, b)
    bc_l = hodge_number(a, "bott_chern", 0, 1)
    bc_r = hodge_number(b, "bott_chern", 0, 1)
    bc_s = hodge_number(total, "bott_chern", 0, 1)
    a_l = hodge_number(a, "aeppli", 0, 1)
    a_r = hodge_number(b, "aeppli", 0, 1)
    a_s = hodge_number(total, "aeppli", 0, 1)
    return KunnethResult(
        bc_left=bc_l,
        bc_right=bc_r,
        bc_sum=bc_s,
        bc_additive=(bc_s == bc_l + bc_r),
        aeppli_left=a_l,
        aeppli_right=a_r,
        aeppli_sum=a_s,
        aeppli_superadditive=(a_s >= a_l + a_r),
    )


def obstruction_report(spec: AlgebraSpec, metric: MetricForm | None = None) -> ObstructionReport:
    """Assemble all obstruction data for one spec (NotAComplex unless d.d = 0).

    With a metric: the Gauduchon condition is checked first and the L
    functional only computed when it holds (otherwise l_rank is omitted).
    """
    report = validate(spec)
    gv = gap_verdict(spec)
    jy = jost_yau(spec)
    excluded_by = []
    if gv.verdict == "excluded":
        excluded_by.append("gap")
    if not jy.passed:
        excluded_by.append("jost_yau")
    torality = torality_check(spec)
    gauduchon = l_rank = l_values = None
    if metric is not None:
        gauduchon = check_condition(spec, metric, "gauduchon").holds
        if gauduchon:
            lf = _l_functional(spec, metric)
            l_rank, l_values = lf.rank, lf.values
    return ObstructionReport(
        h01_bc=gv.h01_bc,
        h01_a=gv.h01_a,
        gap=gv.gap,
        gap_verdict=gv.verdict,
        jost_yau=jy,
        torality=torality,
        validity=report.validity,
        astheno_excluded=bool(excluded_by),
        excluded_by=excluded_by,
        gauduchon=gauduchon,
        l_rank=l_rank,
        l_values=l_values,
    )
