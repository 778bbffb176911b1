"""Outside-in tracing of nilcoh's public functions.

:func:`install` replaces each traced function by a wrapper in every
``nilcoh.*`` namespace that holds it (so ``cohomology.rank`` and
``linalg.rank`` both go through the wrapper), and wraps two methods on
their classes.  No file of the program changes.

A span is ``[name, start, end, parent, job, bookkeeping]``: ``parent`` is
the index of the enclosing span in the same job (-1 at the top) and
``bookkeeping`` the seconds the wrapper spent counting after the call
returned.  Counting runs outside [start, end] and is charged to no layer,
so a layer's self time is ``end - start`` minus the full footprint
(``end - start + bookkeeping``) of its children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _nnz(m):
    return sum(1 for row in m.entries for x in row if x)


class Tracer:
    """Spans and counters of the job running in this process."""

    def __init__(self):
        self.reset(None)

    def reset(self, job):
        self.job = job
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)
        self.built = {}  # id -> matrix returned by a build; holding it keeps ids unique
        self.ranked = set()  # contents of matrices ranked so far

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            # Read the clock first: a garbage collection triggered by the
            # span's own allocation then lands inside the span, not between spans.
            span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.job, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if count is not None:
                count(self, args, out)
                span[5] = perf_counter() - span[2]
            return out

        return functools.wraps(fn)(traced)

    # -- counters, each run after the traced call returned ------------------

    def _count_build(self, prefix, out):
        if id(out) in self.built:
            return
        self.built[id(out)] = out
        self.counters[prefix + ".builds"] += 1
        self.counters[prefix + ".cells"] += out.nrows * out.ncols
        self.counters[prefix + ".nnz"] += _nnz(out)

    def count_operator(self, args, out):
        self._count_build("cohomology.operator_matrix", out)

    def count_d_matrix(self, args, out):
        self._count_build("cohomology.d_matrix", out)

    def count_matmul(self, args, out):
        a, b = args
        self.counters["linalg.matmul.cell_ops"] += a.nrows * a.ncols * b.ncols
        col_nnz = [0] * a.ncols
        for row in a.entries:
            for k, x in enumerate(row):
                if x:
                    col_nnz[k] += 1
        self.counters["linalg.matmul.useful_ops"] += sum(
            col_nnz[k] * sum(1 for x in row if x) for k, row in enumerate(b.entries)
        )

    def count_rank(self, args, out):
        m = args[0]
        self.counters["linalg.rank.cells"] += m.nrows * m.ncols
        self.counters["linalg.rank.nnz"] += _nnz(m)
        key = (m.rows, m.cols, m.entries)
        if key in self.ranked:
            self.counters["linalg.rank.repeats"] += 1
        else:
            self.ranked.add(key)

    def count_kernel(self, args, out):
        m = args[0]
        self.counters["linalg.kernel_basis.cells"] += m.nrows * m.ncols

    def count_emit(self, args, out):
        self.counters["reports.emit_report.bytes"] += len(out)

    def count_suite(self, args, out):
        self.counters["catalog.fixtures_checked"] += sum(
            len(entry["fixtures"]) for entry in out[1]["entries"]
        )


# (module, attribute, layer name, counter) for module-level functions.
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("dsl", "read_structure_file", "dsl.read_structure_file", None),
    ("algebra", "validate", "algebra.validate", None),
    ("algebra", "nilpotency_filtration", "algebra.nilpotency_filtration", None),
    ("algebra", "d", "algebra.diff", None),
    ("algebra", "del_", "algebra.diff", None),
    ("algebra", "delbar", "algebra.diff", None),
    ("algebra", "deldelbar", "algebra.diff", None),
    ("cohomology", "operator_matrix", "cohomology.operator_matrix", Tracer.count_operator),
    ("cohomology", "d_matrix", "cohomology.d_matrix", Tracer.count_d_matrix),
    ("cohomology", "hodge_number", "cohomology.hodge_number", None),
    ("cohomology", "class_representatives", "cohomology.class_representatives", None),
    ("linalg", "rank", "linalg.rank", Tracer.count_rank),
    ("linalg", "kernel_basis", "linalg.kernel_basis", Tracer.count_kernel),
    ("linalg", "span_basis", "linalg.span_basis", None),
    ("linalg", "greedy_complement", "linalg.greedy_complement", None),
    ("linalg", "subquotient_dim", "linalg.subquotient_dim", None),
    ("metrics", "check_condition", "metrics.check_condition", None),
    ("obstructions", "obstruction_report", "obstructions.obstruction_report", None),
    ("obstructions", "l_functional", "obstructions.l_functional", None),
    ("reports", "emit_report", "reports.emit_report", Tracer.count_emit),
    ("catalog", "run_suite", "catalog.run_suite", Tracer.count_suite),
)

# (module, class, method, layer name, counter) for methods, wrapped on the class.
METHODS = (
    ("linalg", "IndexedMatrix", "__matmul__", "linalg.matmul", Tracer.count_matmul),
    ("metrics", "MetricForm", "wedge_power", "metrics.wedge_power", None),
    ("metrics", "MetricForm", "is_positive", "metrics.is_positive", None),
)


def install(tracer: Tracer):
    """Wrap every traced function and method.  nilcoh must already be
    imported, so that every namespace holding a traced name exists."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "nilcoh" or name.startswith("nilcoh."))
    }
    for modname, attr, layer, count in FUNCTIONS:
        original = getattr(modules["nilcoh." + modname], attr)
        wrapper = tracer.wrap(layer, original, count)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for modname, clsname, attr, layer, count in METHODS:
        cls = getattr(modules["nilcoh." + modname], clsname)
        setattr(cls, attr, tracer.wrap(layer, getattr(cls, attr), count))


def self_times(spans):
    """Self seconds per span, in span order (one job's spans)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1] + s[5]
    return own
