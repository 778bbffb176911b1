"""Command-line interface.

:func:`main` returns an exit code for every input and raises no
``SystemExit``: 0 success, 1 a verdict-style check failed (structure
invalid, metric condition fails, obstruction excludes, suite mismatch), 2 a
usage or parse error, with ``usage: ...`` and one error line on stderr for
a malformed command line.  Output is deterministic JSON on stdout by
default; --pretty switches the table and catalog commands to aligned text.

One table, ``_COMMANDS``, lists each command's handler, summary, positional
names and options, and ``_parse`` reads a command line against it.  An
option is spelled in full as ``--name VALUE`` or ``--name=VALUE``, or
``-o VALUE`` for ``product``; its value is the next token even when that
starts with "-".  ``--`` ends the options, and ``-h``/``--help`` prints the
usage text generated from the table.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .algebra import NotAComplex, direct_sum, validate
from .catalog import CatalogKeyError, catalog_get, catalog_list, run_suite
from .cohomology import THEORY_TABLE, derham_betti, hodge_table
from .dsl import StructureSyntaxError, format_structure_file, read_structure_file
from .metrics import MetricForm, check_condition, diagonal_metric
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
    name: theory for theory, (key, *_) in THEORY_TABLE.items() for name in (key, theory)
}
_THEORY_ALIASES["derham"] = "derham"


def _fail_usage(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _read_hmatrix(path: str, n: int) -> MetricForm:
    """The metric of the ASCII JSON file {"H": [[{"re": .., "im": ..}, ...], ...]},
    whose H must be n x n; a wrong-size H is refused before any cell is read.
    A malformed file raises ValueError with a message that starts with the
    path and names the offending place."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # bytes.decode, unlike a text-mode open, looks up no codec module; a
        # str keeps json.loads from reading UTF-16 or UTF-32 as JSON
        payload = json.loads(data.decode("ascii"))
    except RecursionError:
        raise ValueError("%s: JSON nested too deeply" % path) from None
    except ValueError as exc:  # a byte that is not ASCII, or no JSON text
        raise ValueError("%s: %s" % (path, exc)) from None
    rows = payload.get("H") if isinstance(payload, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('%s: expected {"H": [[{"re": .., "im": ..}, ...], ...]}' % path)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("%s: H must be a square matrix" % path)
    if len(rows) != n:
        raise ValueError(
            "%s: H is %dx%d but the spec has dimension %d" % (path, len(rows), len(rows), n)
        )
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
    try:
        return MetricForm(H)
    except ValueError as exc:  # not Hermitian
        raise ValueError("%s: %s" % (path, exc)) from None


def _metric_from_args(args, n: int) -> MetricForm:
    if args.hmatrix is not None:
        if args.diag is not None:
            raise ValueError("--diag and --hmatrix exclude each other")
        return _read_hmatrix(args.hmatrix, n)
    if args.diag is not None:
        # the grammar of --hmatrix cells, ASCII p or p/q, so both metric inputs agree
        return diagonal_metric(n, [parse_rational(part) for part in args.diag.split(",")])
    return diagonal_metric(n)


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
    verdict = check_json(result)
    verdict["positive"] = metric.is_positive()
    payload = spec_header(spec)
    payload["verdicts"] = {"metric": verdict}
    sys.stdout.write(emit_report(payload))
    return 0 if result.holds else 1


def _cmd_obstruct(args) -> int:
    spec = read_structure_file(args.file)
    metric = None
    if args.diag is not None or args.hmatrix is not None:
        metric = _metric_from_args(args, spec.n)
    report = obstruction_report(spec, metric)
    verdicts = obstruction_json(report)
    if metric is not None:
        verdicts["metric_positive"] = metric.is_positive()
    payload = spec_header(spec)
    payload["verdicts"] = verdicts
    sys.stdout.write(emit_report(payload))
    return 1 if report.astheno_excluded else 0


def _cmd_product(args) -> int:
    specs = []
    for path in (args.file1, args.file2):
        try:
            specs.append(read_structure_file(path))
        except StructureSyntaxError as exc:
            # of two input files, name the one at fault
            print("parse error: %s: %s" % (path, exc), file=sys.stderr)
            return 2
    text = format_structure_file(direct_sum(*specs))
    if args.output is not None:
        try:
            with open(args.output, "wb") as fh:
                fh.write(text.encode("ascii"))
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


# Each command: its handler, a one-line summary, its positional names (a trailing
# "*" lets the last take any number of tokens, as a list) and its options.
# An option maps its spelling to the attribute it sets and that attribute's
# default: False marks a flag, _REQUIRED an option that must be given, and
# any other default is the value of an option left out.
_REQUIRED = object()
_COMMANDS = {
    "validate": (_cmd_validate, "check d^2 = 0 and the nilpotency flag", ("file",), {}),
    "table": (
        _cmd_table,
        "print a hodge-number table; THEORY: bc, aeppli, dolbeault, conj_dolbeault, derham",
        ("file",),
        {"--theory": ("theory", "bc"), "--pretty": ("pretty", False)},
    ),
    "metric": (
        _cmd_metric,
        "check a metric condition; CHECK: kahler, gauduchon, skt, astheno, pluriclosed:K, ft_pair",
        ("file",),
        {"--check": ("check", _REQUIRED), "--diag": ("diag", None), "--hmatrix": ("hmatrix", None)},
    ),
    "obstruct": (
        _cmd_obstruct,
        "run the obstruction battery, with the L functional of a DIAG or HMATRIX metric",
        ("file",),
        {"--diag": ("diag", None), "--hmatrix": ("hmatrix", None)},
    ),
    "product": (
        _cmd_product,
        "write the direct-sum structure file to OUTPUT (default stdout)",
        ("file1", "file2"),
        {"-o": ("output", None), "--output": ("output", None)},
    ),
    "catalog": (
        _cmd_catalog,
        "ACTION is list, show KEY, or suite [KEYS...] to recheck the worked examples",
        ("action", "keys*"),
        {"--pretty": ("pretty", False)},
    ),
}
_HELP = ("-h", "--help")


def _usage(name=None) -> str:
    """The usage line of a command, or of the program."""
    if name is None:
        return "usage: nilcoh {%s} ..." % ",".join(_COMMANDS)
    _, _, positional, options = _COMMANDS[name]
    words = ["[%s...]" % p[:-1].upper() if p.endswith("*") else p.upper() for p in positional]
    for spelling, (attr, default) in options.items():
        word = spelling if default is False else "%s %s" % (spelling, attr.upper())
        words.append(word if default is _REQUIRED else "[%s]" % word)
    return "usage: nilcoh %s %s" % (name, " ".join(words))


def _cmd_help(args) -> int:
    for name in [args.command] if args.command else _COMMANDS:
        sys.stdout.write("%s\n    %s\n" % (_usage(name), _COMMANDS[name][1]))
    return 0


def _is_option(token: str) -> bool:
    """True for a token led by "-", unless it is "-" alone, a negative
    number such as -2 or -.5, or a text with a space: those are values."""
    number = token[1:].replace(".", "", 1)
    negative = number.isdecimal() and token[-1] != "."
    return token[:1] == "-" and len(token) > 1 and " " not in token and not negative


def _parse(argv):
    """The namespace of a command line, whose ``func`` runs it, or the usage
    message of a malformed one.  An option reads ``--name VALUE``,
    ``--name=VALUE`` or ``-o VALUE``, its value the next token whatever it
    starts with; ``--`` ends the options, and ``-h``/``--help`` before it
    asks for help even after a mistake."""
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in _HELP:
            return SimpleNamespace(func=_cmd_help, command=None)
        problem = "unknown command %.60r" % argv[0] if argv else "a command is required"
        return "%s\nerror: %s" % (_usage(), problem)
    name = argv[0]
    func, _, positional, options = _COMMANDS[name]
    args = SimpleNamespace(func=func, command=name)
    args.__dict__.update(options.values())  # (attribute, default) pairs
    values, problems = [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            values.extend(tokens)  # every later token is positional
        elif not _is_option(token):
            values.append(token)
        elif token in _HELP:
            return SimpleNamespace(func=_cmd_help, command=name)
        else:
            spelling, eq, value = token.partition("=") if token[:2] == "--" else (token, "", "")
            attr, default = options.get(spelling, (None, None))
            if attr is None:
                problems.append("unrecognized option %.60r" % token)
            elif default is False:
                setattr(args, attr, True)
                if eq:
                    problems.append("option %s takes no value" % spelling)
            else:
                setattr(args, attr, value if eq else next(tokens, None))
                if getattr(args, attr) is None:
                    problems.append("option %s needs a value" % spelling)
    problems += [
        "option %s is required" % spelling
        for spelling, (attr, default) in options.items()
        if getattr(args, attr) is _REQUIRED
    ]
    repeat = positional[-1].endswith("*")
    fixed = positional[:-1] if repeat else positional
    if len(values) < len(fixed):
        problems.append("%s is missing" % fixed[len(values)].upper())
    elif len(values) > len(fixed) and not repeat:
        problems.append("unexpected argument %.60r" % values[len(fixed)])
    if problems:
        return "%s\nerror: %s" % (_usage(name), problems[0])
    args.__dict__.update(zip(fixed, values))
    if repeat:
        setattr(args, positional[-1][:-1], values[len(fixed):])
    return args


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code, 0, 1 or 2."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(args, str):
        return _fail_usage(args)
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
    except NotAComplex as exc:
        payload = spec_header(exc.spec)
        payload.update(validation_json(validate(exc.spec)))
        sys.stdout.write(emit_report(payload))
        return 1
    except (ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
