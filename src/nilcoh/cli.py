"""Command-line interface.

Exit codes: 0 success, 1 a verdict-style check failed (structure invalid,
metric condition fails, obstruction excludes, suite mismatch), 2 usage or
parse errors.  Output is deterministic JSON on stdout by default; --pretty
switches the table and catalog commands to aligned text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import ValidationReport, direct_sum, jacobi_failures, validate
from .catalog import CatalogKeyError, catalog_get, catalog_list, run_suite
from .cohomology import THEORY_TABLE, derham_betti, hodge_table
from .dsl import StructureSyntaxError, format_structure_file, read_structure_file
from .metrics import MetricForm, build_metric, check_condition, diagonal_metric
from .obstructions import obstruction_report
from .reports import (
    check_json,
    emit_report,
    hodge_json,
    obstruction_json,
    spec_header,
    validation_json,
)
from .scalars import GaussianRational, parse_rational

# each theory by its JSON key and by its own name, and the de Rham betti numbers
_THEORY_ALIASES = {
    name: theory for theory, (key, _, _) in THEORY_TABLE.items() for name in (key, theory)
}
_THEORY_ALIASES["derham"] = "derham"


def _fail_usage(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _read_hmatrix(path: str):
    """The rows of H from a JSON file {"H": [[{"re": .., "im": ..}, ...], ...]};
    a malformed file raises ValueError naming the offending place."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None
    rows = payload.get("H") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('%s: expected {"H": [[{"re": .., "im": ..}, ...], ...]}' % path)
    H = []
    for i, row in enumerate(rows):
        H.append([])
        for j, cell in enumerate(row):
            try:
                # a JSON integer or a string "p" or "p/q" as in structure files;
                # a JSON float (or bool) is no exact scalar: 0.1 is not 1/10
                parts = (cell["re"], cell.get("im", "0"))
                H[-1].append(
                    GaussianRational(*(x if type(x) is int else parse_rational(x) for x in parts))
                )
            except (KeyError, TypeError, ValueError):
                raise ValueError(
                    '%s: H[%d][%d] is not a scalar {"re": p/q, "im": p/q}: %s'
                    % (path, i, j, json.dumps(cell))
                ) from None
    return H


def _metric_from_args(args, n: int) -> MetricForm:
    if getattr(args, "hmatrix", None):
        return build_metric(n, _read_hmatrix(args.hmatrix))
    if getattr(args, "diag", None):
        # the grammar of --hmatrix cells, ASCII p or p/q, so both metric inputs agree
        return diagonal_metric(n, [parse_rational(part) for part in args.diag.split(",")])
    return diagonal_metric(n)


def _refuse_invalid(spec) -> bool:
    """True when ``spec`` fails the Jacobi check, after printing its
    validation payload (the command then exits 1); False otherwise.  Only
    d.d on the generators is checked, not the nilpotency flag."""
    failing = jacobi_failures(spec)
    if not failing:
        return False
    payload = spec_header(spec)
    report = ValidationReport(jacobi_ok=False, failing_generators=failing)
    payload.update(validation_json(report))
    sys.stdout.write(emit_report(payload))
    return True


def _cmd_validate(args) -> int:
    spec = read_structure_file(args.file)
    report = validate(spec)
    payload = spec_header(spec)
    payload.update(validation_json(report))
    sys.stdout.write(emit_report(payload))
    return 0 if report.jacobi_ok else 1


def _pretty_table(name, n, entries):
    width = max(5, max(len(str(v)) for row in entries for v in row) + 2)
    lines = ["%s hodge numbers (rows p = 0..%d, columns q = 0..%d)" % (name, n, n)]
    header = "p\\q".ljust(6) + "".join(str(q).rjust(width) for q in range(n + 1))
    lines.append(header)
    for p, row in enumerate(entries):
        lines.append(str(p).ljust(6) + "".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    theory = _THEORY_ALIASES.get(args.theory)
    if theory is None:
        return _fail_usage(
            "unknown theory %r (choose from %s)"
            % (args.theory, ", ".join(sorted(_THEORY_ALIASES)))
        )
    spec = read_structure_file(args.file)
    if _refuse_invalid(spec):
        return 1
    payload = spec_header(spec)
    if theory == "derham":
        betti = derham_betti(spec)
        if args.pretty:
            sys.stdout.write(
                "de Rham betti numbers b_0..b_%d: %s\n"
                % (2 * spec.n, " ".join(str(b) for b in betti))
            )
            return 0
        payload["hodge"] = hodge_json([], betti=betti)
        sys.stdout.write(emit_report(payload))
        return 0
    table = hodge_table(spec, theory)
    if args.pretty:
        sys.stdout.write(_pretty_table(theory, spec.n, table.entries))
        return 0
    payload["hodge"] = hodge_json([table])
    payload["validity"] = table.validity
    sys.stdout.write(emit_report(payload))
    return 0


def _cmd_metric(args) -> int:
    spec = read_structure_file(args.file)
    metric = _metric_from_args(args, spec.n)
    result = check_condition(spec, metric, args.check)
    # refused only after --check is read, so a malformed option exits 2
    if _refuse_invalid(spec):
        return 1
    verdict = check_json(result)
    verdict["positive"] = metric.is_positive()
    payload = spec_header(spec)
    payload["verdicts"] = {"metric": verdict}
    sys.stdout.write(emit_report(payload))
    return 0 if result.holds else 1


def _cmd_obstruct(args) -> int:
    spec = read_structure_file(args.file)
    metric = None
    if getattr(args, "diag", None) or getattr(args, "hmatrix", None):
        metric = _metric_from_args(args, spec.n)
    # refused only after the metric is read, so a malformed option exits 2
    if _refuse_invalid(spec):
        return 1
    report = obstruction_report(spec, metric)
    verdicts = obstruction_json(report)
    if metric is not None:
        verdicts["metric_positive"] = metric.is_positive()
    payload = spec_header(spec)
    payload["verdicts"] = verdicts
    sys.stdout.write(emit_report(payload))
    return 1 if report.astheno_excluded else 0


def _cmd_product(args) -> int:
    left = read_structure_file(args.file1)
    right = read_structure_file(args.file2)
    text = format_structure_file(direct_sum(left, right))
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError:
            return _fail_usage("cannot write %s" % args.output)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        keys = catalog_list()
        if args.pretty:
            sys.stdout.write("".join(k + "\n" for k in keys))
        else:
            sys.stdout.write(emit_report({"keys": keys}))
        return 0
    if args.action == "show":
        if not args.keys:
            return _fail_usage("catalog show needs a KEY")
        if len(args.keys) > 1:
            return _fail_usage("catalog show takes one KEY, got %d" % len(args.keys))
        entry = catalog_get(args.keys[0])
        payload = {
            "key": entry.key,
            "algebra": entry.spec.name,
            "n": entry.spec.n,
            "structure": format_structure_file(entry.spec).splitlines(),
            "notes": entry.notes,
            "fixtures": [
                {"name": fx.name, "provenance": fx.provenance, "expected": fx.expected}
                for fx in entry.fixtures
            ],
        }
        sys.stdout.write(emit_report(payload))
        return 0
    if args.action == "suite":
        keys = args.keys or None
        ok, summary = run_suite(keys)
        if args.pretty:
            for item in summary["entries"]:
                flag = "ok" if item["ok"] else "FAIL"
                sys.stdout.write("%-28s %s\n" % (item["key"], flag))
                if not item["ok"]:
                    for fx in item["fixtures"]:
                        if not fx["ok"]:
                            sys.stdout.write(
                                "    %s: expected %r, computed %r\n"
                                % (fx["name"], fx["expected"], fx["computed"])
                            )
            sys.stdout.write("suite: %s\n" % ("ok" if ok else "FAIL"))
        else:
            sys.stdout.write(emit_report(summary))
        return 0 if ok else 1
    return _fail_usage("unknown catalog action %r" % args.action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcoh",
        description="Exact cohomology and metric-condition computations for "
        "structure files of Lie algebras with invariant complex structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check d^2 = 0 and the nilpotency flag")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("table", help="print a hodge-number table")
    p.add_argument("file")
    p.add_argument(
        "--theory",
        default="bc",
        help="bc | aeppli | dolbeault | conj_dolbeault | derham",
    )
    p.add_argument("--pretty", action="store_true", help="aligned text table")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("metric", help="check a metric condition")
    p.add_argument("file")
    p.add_argument("--diag", help="comma-separated diagonal entries, e.g. 1,2,1")
    p.add_argument("--hmatrix", help='JSON file {"H": [[{"re","im"}, ...], ...]}')
    p.add_argument(
        "--check",
        required=True,
        help="kahler | gauduchon | skt | astheno | pluriclosed:K | ftpair",
    )
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("obstruct", help="run the obstruction battery")
    p.add_argument("file")
    p.add_argument("--diag", help="diagonal metric for the L functional")
    p.add_argument("--hmatrix", help="Hermitian matrix JSON for the L functional")
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("product", help="write the direct-sum structure file")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("catalog", help="list / show / suite over worked examples")
    p.add_argument("action", choices=["list", "show", "suite"])
    p.add_argument("keys", nargs="*", help="catalog key(s)")
    p.add_argument("--pretty", action="store_true", help="plain-text output")
    p.set_defaults(func=_cmd_catalog)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except StructureSyntaxError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        # an input file that is missing, a directory, unreadable, ...
        if exc.filename is None:
            raise
        print("cannot read %s" % exc.filename, file=sys.stderr)
        return 2
    except CatalogKeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
