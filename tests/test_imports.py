"""Every module of the package uses each name it imports, imports only
at module level, uses no floating point and leaves the rational kernel
and span views to outside callers; importing the command line loads none
of the heavy introspection modules and no argument-parsing library, and
running a command imports no further module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import nilcoh

PACKAGE = Path(nilcoh.__file__).resolve().parent


def unused_imports(source: str) -> list:
    """Names bound by import statements in ``source`` that no expression
    reads (``__future__`` imports excepted)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def nested_imports(source: str) -> list:
    """Line numbers of import statements inside a function or class body."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        {
            inner.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, scopes)
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        }
    )


FLOAT_MATH = {"sqrt", "log", "log2", "exp"}


def float_uses(source: str) -> list:
    """Line numbers of float and complex literals, ``float`` (called or
    read anywhere but as a type that ``isinstance`` refuses) and the
    ``math`` functions sqrt, log, log2 and exp."""
    tree = ast.parse(source)
    refused = {
        id(node)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "isinstance"
        and len(call.args) == 2
        for node in ast.walk(call.args[1])
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name) and node.id == "float" and id(node) not in refused)
        or (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "math"
            and any(alias.name in FLOAT_MATH for alias in node.names)
        )
    )


def test_float_uses_are_found():
    source = (
        "import math\nfrom math import gcd, log2\n"
        "x = 0.5\ny = float(3)\nz = math.sqrt(2) + math.isqrt(2)\n"
        "ok = isinstance(x, (bool, float))\nw = 2j\nt = (float,)\n"
    )
    assert float_uses(source) == [2, 3, 4, 5, 7, 8]


def test_no_module_uses_floating_point():
    found = {
        p.name: lines
        for p in sorted(PACKAGE.glob("*.py"))
        if (lines := float_uses(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import comb, gcd as g\n"
        "print(json.dumps(comb(4, 2)))\n"
    )
    assert unused_imports(source) == [(3, "os"), (4, "g")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {
        p.name: unused
        for p in modules
        if (unused := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}


RATIONAL_VIEWS = {"kernel_basis", "span_basis"}


def rational_view_uses(source: str) -> list:
    """Line numbers where ``source`` imports or reads an attribute named
    ``kernel_basis`` or ``span_basis``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (
            isinstance(node, ast.ImportFrom)
            and any(alias.name in RATIONAL_VIEWS for alias in node.names)
        )
        or (isinstance(node, ast.Attribute) and node.attr in RATIONAL_VIEWS)
    )


def test_rational_view_uses_are_found():
    source = (
        "from .linalg import rank, kernel_basis\nfrom . import linalg\n"
        "x = linalg.span_basis\nfrom .linalg import _kernel_vectors\n"
    )
    assert rational_view_uses(source) == [1, 3]


def test_rational_views_stay_at_the_edge():
    """The rational ``kernel_basis`` and ``span_basis`` are for callers
    outside the package: inside it, only ``linalg`` defines them and the
    package ``__init__`` re-exports them."""
    found = {
        p.name: lines
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name not in ("linalg.py", "__init__.py")
        and (lines := rational_view_uses(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def cache_reads(source: str) -> list:
    """Names of the top-level functions of ``source`` that read an
    attribute ``_caches`` (None for a read outside any of them)."""
    tree = ast.parse(source)
    owner = {
        id(inner): node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
    }
    return sorted(
        {
            owner.get(id(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_caches"
        },
        key=str,
    )


def test_cache_reads_are_found():
    source = (
        "def f(spec):\n    return spec._caches\n"
        "def g(spec):\n    def h():\n        return spec._caches.get(1)\n"
        "x = s._caches\n"
    )
    assert cache_reads(source) == [None, "f", "g"]


def test_only_one_helper_reads_the_spec_caches():
    """Every per-spec memo goes through ``algebra._per_spec``: no other
    function of the package reads a spec's ``_caches``."""
    found = {
        p.name: names
        for p in sorted(PACKAGE.glob("*.py"))
        if (names := cache_reads(p.read_text(encoding="utf-8")))
    }
    assert found == {"algebra.py": ["_per_spec"]}


def jacobi_uses(source: str) -> tuple:
    """``(names, raises)``: the line numbers where ``source`` names
    ``jacobi_failures`` (imported, read or defined), and those of the
    ``raise`` statements that build the Jacobi refusal: a ``NotAComplex``
    or an error whose message mentions the Jacobi check."""
    tree = ast.parse(source)
    names = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "jacobi_failures")
        or (isinstance(node, ast.Attribute) and node.attr == "jacobi_failures")
        or (isinstance(node, ast.FunctionDef) and node.name == "jacobi_failures")
        or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "jacobi_failures" for alias in node.names)
        )
    )
    raises = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(
            (isinstance(inner, ast.Name) and inner.id == "NotAComplex")
            or (isinstance(inner, ast.Constant) and "Jacobi" in str(inner.value))
            for inner in ast.walk(node.exc)
        )
    )
    return names, raises


def test_jacobi_uses_are_found():
    source = (
        "from .algebra import jacobi_failures\n"
        "def f(spec):\n    if algebra.jacobi_failures(spec):\n"
        "        raise ValueError('spec fails the Jacobi check')\n"
        "    raise NotAComplex(spec)\n"
        "raise ValueError('other')\n"
    )
    assert jacobi_uses(source) == ([1, 3], [4, 5])


def test_one_module_decides_whether_a_spec_is_a_complex():
    """Only ``algebra`` runs the Jacobi check, and one ``raise`` in the
    package refuses a spec that fails it: the gate ``require_complex``."""
    found = {
        p.name: uses
        for p in sorted(PACKAGE.glob("*.py"))
        if any(uses := jacobi_uses(p.read_text(encoding="utf-8")))
    }
    assert list(found) == ["algebra.py"]
    names, raises = found["algebra.py"]
    assert names and len(raises) == 1


def test_nested_imports_are_found():
    source = (
        "import json\n"
        "def f():\n    from math import comb\n    return comb(2, 1)\n"
        "class C:\n    import os\n    def g(self):\n        if True:\n"
        "            import sys\n"
    )
    assert nested_imports(source) == [3, 6, 9]


def test_no_module_imports_inside_a_function_or_class():
    found = {
        p.name: lines
        for p in sorted(PACKAGE.glob("*.py"))
        if (lines := nested_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def modules_loaded_by_cli_import(names: list) -> list:
    """Those of ``names`` in ``sys.modules`` after a fresh interpreter
    imports ``nilcoh.cli``."""
    code = "import json, sys, nilcoh.cli; print(json.dumps(sorted(set(%r) & set(sys.modules))))" % names
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    # -S: startup hooks of installed packages may load these modules themselves
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def test_cli_import_loads_no_introspection_modules():
    assert modules_loaded_by_cli_import(["dataclasses", "inspect", "ast", "dis", "tokenize"]) == []


def test_cli_import_loads_no_argument_parser():
    """The command line reads its arguments against its own table: the
    import loads neither ``argparse`` nor the ``gettext`` and ``locale``
    modules that ``argparse`` pulls in."""
    assert modules_loaded_by_cli_import(["argparse", "gettext", "locale"]) == []


COMMANDS_SCRIPT = """
import contextlib, io, json, sys
from nilcoh.cli import _THEORY_ALIASES, main

paths = dict(zip(["FILE", "H", "OUT"], sys.argv[1:]))
jobs = (
    [["validate", "FILE"]]
    + [["table", "FILE", "--theory", theory] for theory in sorted(_THEORY_ALIASES)]
    + [
        ["metric", "FILE", "--hmatrix", "H", "--check", "skt"],
        ["metric", "FILE", "--diag", "1,2,1", "--check", "skt"],
        ["obstruct", "FILE", "--hmatrix", "H"],
        ["product", "FILE", "FILE", "-o", "OUT"],
        ["catalog", "list"],
        ["catalog", "show", "iwasawa"],
        ["catalog", "suite"],
    ]
)
added = {}
for argv in jobs:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([paths.get(word, word) for word in argv])
    added[" ".join(argv)] = (code, sorted(set(sys.modules) - before))
print(json.dumps(added))
"""


def test_no_command_imports_a_module_at_run_time(tmp_path):
    """After ``import nilcoh.cli``, no command adds a module to
    ``sys.modules``: not even the codec module that a text-mode ``open``
    with an encoding other than the start-up ones looks up."""
    alg = tmp_path / "iw.alg"
    alg.write_text("algebra iw dim 3\nd a3 = (-1) * a1 ^ a2\n", encoding="ascii")
    hmatrix = tmp_path / "H.json"
    hmatrix.write_text(
        json.dumps({"H": [[{"re": int(j == k)} for k in range(3)] for j in range(3)]}), encoding="ascii"
    )
    argv = [str(alg), str(hmatrix), str(tmp_path / "out.alg")]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", COMMANDS_SCRIPT, *argv],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    added = json.loads(out)
    assert {job: code for job, (code, _) in added.items() if code not in (0, 1)} == {}
    assert {job: modules for job, (_, modules) in added.items() if modules} == {}
