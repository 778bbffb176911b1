"""Line-oriented structure-equation files.

Grammar (``#`` starts a comment, blank lines ignored)::

    algebra <ident> dim <n>
    d a<i> = <term> { + <term> }

    term   := ( <scalar> ) * <factor> ^ <factor>
    factor := a<j> | ~a<j>
    scalar := <rat> | <rat>i | <rat>+<rat>i | <rat>-<rat>i     (rat = p or p/q)

Each term has exactly two factors.  Terms may mix factor order freely and
are sign-normalized into canonical monomials, but a term with two
anti-holomorphic factors (bidegree (0,2)) is rejected: such a differential
is incompatible with an integrable complex structure.  Omitted d-lines mean
``d a_i = 0``.  Generators are 1-based and must stay within ``dim``, which
runs from 1 to ``algebra.MAX_DIM`` (64); a header outside that range is
refused at the column of its dimension.  Numbers are ASCII digits only.

Example (complex Heisenberg structure)::

    algebra iwasawa dim 3
    d a3 = (-1) * a1 ^ a2
"""

from __future__ import annotations

import re as _re

from .algebra import MAX_DIM, NAME_RE, AlgebraSpec, parse_dimension
from .forms import BasisForm, Form, wedge_basis
from .scalars import parse_scalar

_INT_RE = _re.compile(r"\d+", _re.ASCII)
_GEN_RE = _re.compile(r"a(\d+)", _re.ASCII)
_BOM = "\ufeff"  # decoding as utf-8-sig would import a codec module on each run


class StructureSyntaxError(Exception):
    """Parse failure with 1-based line and column position."""

    def __init__(self, message, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.reason = message


class _LineScanner:
    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message, col=None):
        raise StructureSyntaxError(
            message, self.lineno, (self.pos if col is None else col) + 1
        )

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str, what=None):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error("expected %r" % (what or literal))
        self.pos += len(literal)

    def match_re(self, regex, what):
        self.skip_ws()
        m = regex.match(self.text, self.pos)
        if m is None:
            self.error("expected %s" % what)
        self.pos = m.end()
        return m

    def keyword(self, word):
        self.skip_ws()
        m = NAME_RE.match(self.text, self.pos)
        if m is None or m.group(0) != word:
            self.error("expected keyword %r" % word)
        self.pos = m.end()


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_factor(sc: _LineScanner, n: int):
    """Returns (is_anti, index)."""
    sc.skip_ws()
    is_anti = False
    if sc.peek() == "~":
        sc.expect("~")
        is_anti = True
    col = sc.pos
    digits = sc.match_re(_GEN_RE, "generator like a2 or ~a2").group(1).lstrip("0")
    # an index with more digits than MAX_DIM is out of range: refused here,
    # int() never sees thousands of digits
    if len(digits) > len(str(MAX_DIM)):
        sc.error("generator index of %d digits out of range 1..%d" % (len(digits), n), col)
    idx = int(digits or "0")
    if not 1 <= idx <= n:
        sc.error("generator index %d out of range 1..%d" % (idx, n), col)
    return is_anti, idx


def _parse_term(sc: _LineScanner, n: int):
    """The term as one (monomial, coefficient) pair; a repeated factor
    gives a zero coefficient, which :class:`Form` drops."""
    sc.skip_ws()
    term_col = sc.pos
    sc.expect("(", "a parenthesized scalar")
    close = sc.text.find(")", sc.pos)
    if close < 0:
        sc.error("unterminated scalar: missing ')'")
    raw = sc.text[sc.pos : close]
    try:
        coeff = parse_scalar(raw)
    except ValueError:
        raise StructureSyntaxError(
            "malformed scalar %.60r" % raw.strip(), sc.lineno, sc.pos + 1
        ) from None
    sc.pos = close + 1
    sc.expect("*")
    first = _parse_factor(sc, n)
    sc.expect("^")
    second = _parse_factor(sc, n)
    if first[0] and second[0]:
        raise StructureSyntaxError(
            "term of bidegree (0,2): both factors are anti-holomorphic",
            sc.lineno,
            term_col + 1,
        )
    x, y = (BasisForm((), (j,)) if anti else BasisForm((j,), ()) for anti, j in (first, second))
    sign, bf = wedge_basis(x, y)
    return bf, sign * coeff


def parse_structure_file(text: str) -> AlgebraSpec:
    """Parse the contents of a structure file into an AlgebraSpec."""
    header = None
    name = ""
    n = 0
    d_forms: dict[int, Form] = {}
    d_lines: dict[int, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _strip_comment(rawline)
        if not line.strip():
            continue
        sc = _LineScanner(line, lineno)
        if header is None:
            sc.keyword("algebra")
            name = sc.match_re(NAME_RE, "algebra name").group(0)
            sc.keyword("dim")
            digits = sc.match_re(_INT_RE, "dimension")
            try:
                n = parse_dimension(digits.group(0))
            except ValueError as exc:
                sc.error(str(exc), digits.start())
            if not sc.at_end():
                sc.error("unexpected text after header")
            header = (name, n)
            continue
        sc.keyword("d")
        gen_col = sc.pos
        is_anti, idx = _parse_factor(sc, n)
        if is_anti:
            raise StructureSyntaxError(
                "left-hand side must be a holomorphic generator",
                lineno,
                gen_col + 1,
            )
        if idx in d_lines:
            raise StructureSyntaxError(
                "duplicate d-line for a%d (first at line %d)"
                % (idx, d_lines[idx]),
                lineno,
                gen_col + 1,
            )
        d_lines[idx] = lineno
        sc.expect("=")
        terms = [_parse_term(sc, n)]
        while not sc.at_end():
            sc.expect("+", "'+' between terms")
            terms.append(_parse_term(sc, n))
        d_forms[idx] = Form(terms)
    if header is None:
        raise StructureSyntaxError("missing 'algebra <name> dim <n>' header", 1, 1)
    d_generators = [d_forms.get(i, Form()) for i in range(1, n + 1)]
    return AlgebraSpec(name, n, d_generators)


def read_structure_file(path) -> AlgebraSpec:
    """Parse the UTF-8 structure file at ``path``, less one leading
    byte-order mark; a byte that is not UTF-8 is a StructureSyntaxError
    at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines of the text before the bad byte, numbered as the parser numbers them
        lines = (data[: exc.start].decode("utf-8").removeprefix(_BOM) + "?").splitlines()
        raise StructureSyntaxError(
            "byte 0x%02x is not UTF-8" % data[exc.start], len(lines), len(lines[-1])
        ) from None
    return parse_structure_file(text.removeprefix(_BOM))


def format_structure_file(spec: AlgebraSpec) -> str:
    """Canonical text for a spec; parsing it back gives an equal spec."""
    lines = ["algebra %s dim %d" % (spec.name, spec.n)]
    for i in range(1, spec.n + 1):
        f = spec.d_alpha(i)
        if f.is_zero():
            continue
        terms = " + ".join("(%s) * %s" % (c, bf) for bf, c in f.terms())
        lines.append("d a%d = %s" % (i, terms))
    return "\n".join(lines) + "\n"
