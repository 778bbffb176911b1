"""Property-based fuzzing of the command line and the structure-file format.

The exit-code contract (0 success, 1 a verdict-style failure, 2 usage or
parse error) must hold for every input, so no exception may escape
``cli.main``.  Structure files are drawn from the file grammar at n <= 3:
mixed bidegrees, repeated factors and zero scalars, and in half of them one
mistake the parser must refuse ((0,2) and out-of-range factors, malformed
scalars, conjugate or duplicate left-hand sides, a broken header).
``--hmatrix`` files are drawn from malformed JSON, and command lines from
token lists of commands, option names, ``--name=VALUE`` forms, ``--``, stray
tokens and values led by a dash.  The runs are derandomized, so every run
checks the same examples.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilcoh.catalog import iwasawa_spec, kodaira_spec, torus_spec
from nilcoh.cli import main
from nilcoh.dsl import StructureSyntaxError, format_structure_file, parse_structure_file

FUZZ = settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCALARS = ["1", "-1", "2i", "-1/2", "1+i", "1/2-3/4i", "i", "-i", "0", "0/3", "0+0i"]
# Each line is refused wherever it is inserted (before the header, the
# header check refuses it instead).
MISTAKES = [
    "d a1 = (1) * ~a1 ^ ~a1",
    "d a1 = (1) * a1 ^ a9",
    "d a1 = (1) * a0 ^ a1",
    "d a1 = (1/0) * a1 ^ ~a1",
    "d a1 = (x) * a1 ^ ~a1",
    "d a1 = () * a1 ^ ~a1",
    "d a1 = (1.5) * a1 ^ ~a1",
    "d ~a1 = (1) * a1 ^ ~a1",
    "d a1 =",
    "d a1 = (1) * a1",
    "d a1 = (1) * a1 ^ ~a1 +",
    "dim",
    "algebra again dim 2",
]

COMMANDS = [
    ["validate"],
    ["table", "--theory", "bc"],
    ["table", "--theory", "aeppli"],
    ["table", "--theory", "dolbeault"],
    ["table", "--theory", "conj_dolbeault"],
    ["table", "--theory", "derham"],
    ["table", "--theory", "bc", "--pretty"],
    ["obstruct"],
    ["obstruct", "--diag", "1,2,1"],
    ["metric", "--check", "kahler"],
    ["metric", "--check", "gauduchon"],
    ["metric", "--check", "skt"],
    ["metric", "--check", "astheno"],
    ["metric", "--check", "pluriclosed:1"],
    ["metric", "--check", "ftpair"],
    ["product"],
]
JSON_COMMANDS = {"validate", "table", "obstruct", "metric"}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def structure_texts(draw):
    """A structure file of the grammar; half of them carry one mistake."""
    n = draw(st.integers(1, 3))
    index = st.integers(1, n)
    factors = st.sampled_from([("", ""), ("", "~"), ("~", "")])

    def term():
        (x, y), i, j = draw(factors), draw(index), draw(index)
        return "(%s) * %sa%d ^ %sa%d" % (draw(st.sampled_from(SCALARS)), x, i, y, j)

    lines = ["algebra fz dim %d" % n]
    for i in draw(st.lists(index, unique=True, max_size=n)):
        terms = [term() for _ in range(draw(st.integers(1, 3)))]
        lines.append("d a%d = %s" % (i, " + ".join(terms)))
    extra = draw(st.sampled_from(["", "  # note"] + [None] * 3))
    if extra is not None:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        mistake = draw(st.sampled_from(MISTAKES + [None, "dim 0"]))
        if mistake is None:
            del lines[0]  # the first d-line, if any, meets the header check
        elif mistake == "dim 0":
            lines[0] = "algebra fz dim 0"
        else:
            lines.insert(draw(st.integers(0, len(lines))), mistake)
    return "\n".join(lines) + "\n"


@FUZZ
@given(text=structure_texts(), command=st.sampled_from(COMMANDS))
def test_cli_exit_codes_on_grammar_shaped_structures(text, command):
    try:
        spec = parse_structure_file(text)
    except StructureSyntaxError:
        spec = None
    else:
        canonical = format_structure_file(spec)
        again = parse_structure_file(canonical)
        assert again == spec
        assert format_structure_file(again) == canonical

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.alg")
        Path(path).write_text(text, encoding="ascii")
        files = [path, path] if command[0] == "product" else [path]
        code, out, err = run(command[:1] + files + command[1:])

    assert code in (0, 1, 2)
    if spec is None:
        assert code == 2 and out == "" and err
    if code == 2:
        assert out == ""
    elif command[0] in JSON_COMMANDS and "--pretty" not in command:
        json.loads(out)


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 0.5]),
    st.sampled_from(["1", "-1/2", "3/4", "1/0", "x", "", "1e999", "9" * 5000]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
CELLS = st.one_of(
    st.fixed_dictionaries({"re": JSON_SCALARS}, optional={"im": JSON_SCALARS}),
    JSON_VALUES,
)
HMATRIX_TEXTS = st.one_of(
    st.builds(
        lambda rows: json.dumps({"H": rows}),
        st.lists(st.lists(CELLS, min_size=1, max_size=2), max_size=2),
    ),
    st.builds(json.dumps, JSON_VALUES),
    st.text(max_size=20),
)


@FUZZ
@given(
    hmatrix=HMATRIX_TEXTS,
    spec=st.sampled_from([torus_spec(1), kodaira_spec()]),
    command=st.sampled_from([["metric", "--check", "skt"], ["metric", "--check", "gauduchon"], ["obstruct"]]),
)
def test_cli_exit_codes_on_malformed_hmatrix(hmatrix, spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.alg"
        path.write_text(format_structure_file(spec), encoding="ascii")
        hpath = Path(tmp) / "H.json"
        hpath.write_text(hmatrix, encoding="utf-8")
        code, out, err = run(command[:1] + [str(path), "--hmatrix", str(hpath)] + command[1:])

    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err
    else:
        json.loads(out)


# spec.alg and H.json name a structure file and a metric file in the working directory
ARGV_TOKENS = st.one_of(
    st.sampled_from(
        ["validate", "table", "metric", "obstruct", "product", "catalog", "list", "show", "suite",
         "kodaira", "torus(1)", "spec.alg", "H.json", "out.alg",
         "--theory", "--theory=bc", "--theory=derham", "bc", "aeppli", "--pretty", "--pretty=1",
         "--check", "--check=skt", "skt", "pluriclosed:1", "--diag", "--diag=1,1", "--diag=",
         "1,1", "-1,2", "--hmatrix", "--hmatrix=H.json", "-o", "--output", "--output=out.alg",
         "--", "-", "-1", "-.5", "-x", "--bogus", "--the", "", "-h", "--help"]
    ),
    st.text(alphabet="-=a1 ,", max_size=5),
)
HEADS = [
    ["validate", "spec.alg"], ["table", "spec.alg"], ["metric", "spec.alg"], ["obstruct", "spec.alg"],
    ["product", "spec.alg", "spec.alg"], ["catalog", "list"], ["catalog", "show", "torus(1)"],
    ["catalog", "suite", "kodaira"],
]
OPTIONS = [
    ["--theory", "aeppli"], ["--theory=bc"], ["--pretty"], ["--check", "skt"], ["--check=gauduchon"],
    ["--diag", "1,2,1"], ["--diag", "-1,2,1"], ["--diag=1/2,1,1"], ["--hmatrix", "H.json"], ["-o", "out.alg"],
    ["--output=out.alg"], ["--"],
]
ARGVS = st.one_of(
    st.lists(ARGV_TOKENS, max_size=7),
    # a command and its positionals, then options and stray tokens
    st.builds(
        lambda head, options, stray: head + [token for option in options for token in option] + stray,
        st.sampled_from(HEADS),
        st.lists(st.sampled_from(OPTIONS), max_size=2),
        st.lists(ARGV_TOKENS, max_size=1),
    ),
)


@FUZZ
@given(argv=ARGVS)
def test_cli_exit_codes_on_argument_lists(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "spec.alg").write_text(format_structure_file(iwasawa_spec()), encoding="ascii")
        H = [[{"re": (2, 1, 1)[i] if i == j else 0} for j in range(3)] for i in range(3)]  # diag(2, 1, 1)
        Path(tmp, "H.json").write_text(json.dumps({"H": H}), encoding="ascii")
        os.chdir(tmp)  # and -o writes its relative paths here
        try:
            code, out, err = run(argv)
        except SystemExit as exc:
            raise AssertionError("main raised SystemExit(%r)" % exc.code) from None
        finally:
            os.chdir(cwd)

    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err
