"""Exact cohomology and metric-condition computations for Lie algebras
with invariant complex structures.

Everything is computed over the Gaussian rationals: no floating point
enters any verdict.  Structures are described by the differentials of the
(1,0) generators (structure files, see :mod:`nilcoh.dsl`), and the package
computes Dolbeault / conjugate-Dolbeault / Bott-Chern / Aeppli / de Rham
dimensions, checks metric conditions (Kahler, Gauduchon, SKT,
astheno-Kahler, generalized pluriclosed), and runs obstruction tests for
the existence of special metrics.
"""

from .algebra import AlgebraSpec, NotAComplex, ValidationReport, d, del_, delbar, deldelbar, direct_sum, validate
from .catalog import CatalogEntry, CatalogKeyError, Fixture, catalog_get, catalog_list, run_suite
from .cohomology import (
    THEORIES,
    HodgeTable,
    class_representatives,
    derham_betti,
    hodge_number,
    hodge_table,
    natural_map_rank,
)
from .dsl import (
    StructureSyntaxError,
    format_structure_file,
    parse_structure_file,
    read_structure_file,
)
from .forms import BasisForm, Form, alpha, alphabar, conjugate, wedge
from .linalg import IndexedMatrix, kernel_basis, rank, span_basis, subquotient_dim
from .metrics import (
    CheckResult,
    MetricForm,
    build_metric,
    check_condition,
    diagonal_metric,
    exnilp_lhs,
    fps_lhs,
    scan_diagonal_metrics,
)
from .obstructions import (
    GapVerdict,
    JostYauResult,
    KunnethResult,
    LFunctional,
    ObstructionReport,
    gap_verdict,
    holomorphic_one_forms,
    jost_yau,
    kunneth_check,
    l_functional,
    obstruction_report,
    torality_check,
)
from .reports import emit_report
from .scalars import GaussianRational, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "BasisForm",
    "CatalogEntry",
    "CatalogKeyError",
    "CheckResult",
    "Fixture",
    "Form",
    "GapVerdict",
    "GaussianRational",
    "HodgeTable",
    "IndexedMatrix",
    "JostYauResult",
    "KunnethResult",
    "LFunctional",
    "MetricForm",
    "NotAComplex",
    "ObstructionReport",
    "StructureSyntaxError",
    "THEORIES",
    "ValidationReport",
    "alpha",
    "alphabar",
    "build_metric",
    "catalog_get",
    "catalog_list",
    "check_condition",
    "class_representatives",
    "conjugate",
    "d",
    "del_",
    "delbar",
    "deldelbar",
    "derham_betti",
    "diagonal_metric",
    "direct_sum",
    "emit_report",
    "exnilp_lhs",
    "format_structure_file",
    "fps_lhs",
    "gap_verdict",
    "hodge_number",
    "hodge_table",
    "holomorphic_one_forms",
    "jost_yau",
    "kernel_basis",
    "kunneth_check",
    "l_functional",
    "natural_map_rank",
    "obstruction_report",
    "parse_scalar",
    "parse_structure_file",
    "rank",
    "read_structure_file",
    "run_suite",
    "scan_diagonal_metrics",
    "span_basis",
    "subquotient_dim",
    "torality_check",
    "validate",
    "wedge",
]
