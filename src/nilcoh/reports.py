"""Deterministic JSON reports.

One stable schema, fields absent when not computed::

    {
      "name": ..., "n": ...,
      "valid": {"jacobi_ok": bool, "failures": [{"generator": i, "value": [...]}]},
      "nilpotent_J": bool,
      "filtration": [d1, d2, ...],
      "hodge": {"bc": [[...]], "aeppli": [[...]], "dolbeault": [[...]], "derham": [...]},
      "verdicts": {...}
    }

Rationals render as strings like ``"3"`` or ``"-1/2"``; Gaussian rationals
as ``{"re": "...", "im": "..."}``; forms as ordered term lists.  Emission
is byte-deterministic: key order is fixed by construction and no floats
appear anywhere.
"""

from __future__ import annotations

import json

from .algebra import AlgebraSpec, ValidationReport
from .cohomology import THEORY_TABLE
from .forms import Form
from .metrics import CheckResult
from .obstructions import ObstructionReport
from .scalars import GaussianRational


def scalar_json(z: GaussianRational) -> dict:
    return {"re": str(z.re), "im": str(z.im)}


def form_json(f: Form) -> list:
    return [
        {"coeff": scalar_json(c), "monomial": str(bf)} for bf, c in f.terms()
    ]


def validation_json(report: ValidationReport) -> dict:
    return {
        "valid": {
            "jacobi_ok": report.jacobi_ok,
            "failures": [
                {"generator": i, "value": form_json(f)}
                for i, f in report.failing_generators
            ],
        },
        "nilpotent_J": report.nilpotent_J,
        "filtration": list(report.filtration),
    }


def hodge_json(tables, betti=None) -> dict:
    """``tables``: iterable of HodgeTable, each under its theory's JSON key
    in ``THEORY_TABLE`` (bott_chern -> bc)."""
    out = {}
    for table in tables:
        out[THEORY_TABLE[table.theory][0]] = [list(row) for row in table.entries]
    if betti is not None:
        out["derham"] = list(betti)
    return out


def check_json(result: CheckResult) -> dict:
    return {
        "condition": result.condition,
        "holds": result.holds,
        "witness": form_json(result.witness),
    }


def obstruction_json(report: ObstructionReport) -> dict:
    out = {
        "h01_bc": report.h01_bc,
        "h01_a": report.h01_a,
        "gap": report.gap,
        "gap_verdict": report.gap_verdict,
        "jost_yau": {
            "status": "pass" if report.jost_yau.passed else "fail",
        },
        "torality": report.torality,
        "validity": report.validity,
        "astheno_excluded": report.astheno_excluded,
        "excluded_by": list(report.excluded_by),
    }
    if report.jost_yau.witness is not None:
        out["jost_yau"]["witness"] = form_json(report.jost_yau.witness)
    if report.gauduchon is not None:
        out["gauduchon"] = report.gauduchon
    if report.l_rank is not None:
        out["l_rank"] = report.l_rank
        out["l_values"] = [scalar_json(v) for v in report.l_values]
    return out


def emit_report(payload: dict) -> str:
    """Serialize a report payload to canonical JSON text (2-space indent,
    fixed key order, trailing newline)."""
    return json.dumps(payload, indent=2, ensure_ascii=True) + "\n"


def spec_header(spec: AlgebraSpec) -> dict:
    return {"name": spec.name, "n": spec.n}
