"""Structure-file parsing, error reporting, and canonical serialization."""

import random
from fractions import Fraction

import pytest

from nilcoh.algebra import MAX_DIM, AlgebraSpec
from nilcoh.catalog import exnilp_spec, fps_spec, iwasawa_spec, kodaira_spec, torus_spec
from nilcoh.dsl import (
    StructureSyntaxError,
    format_structure_file,
    parse_structure_file,
    read_structure_file,
)
from nilcoh.forms import Form, alpha, alphabar
from nilcoh.scalars import GaussianRational


def test_minimal_file():
    spec = parse_structure_file("algebra torus1 dim 1\n")
    assert spec.name == "torus1" and spec.n == 1
    assert spec.d_alpha(1).is_zero()


def test_iwasawa_file():
    spec = parse_structure_file("algebra iwasawa dim 3\nd a3 = (-1)*a1^a2\n")
    assert spec.d_alpha(1).is_zero() and spec.d_alpha(2).is_zero()
    assert spec.d_alpha(3) == -(alpha(1) ^ alpha(2))


def test_whitespace_comments_and_blank_lines():
    text = """
    # a structure with decoration
    algebra   fancy   dim 3

    d a3 = ( -1 ) * a1 ^ a2 + (1/2-3i) * a1 ^ ~a2   # trailing comment

    # done
    """
    spec = parse_structure_file(text)
    want = -(alpha(1) ^ alpha(2)) + GaussianRational(Fraction(1, 2), -3) * (
        alpha(1) ^ alphabar(2)
    )
    assert spec.d_alpha(3) == want


def test_anti_holomorphic_first_factor_is_normalized():
    spec = parse_structure_file("algebra t dim 2\nd a2 = (2i) * ~a1 ^ a1\n")
    assert spec.d_alpha(2) == GaussianRational(0, -2) * (alpha(1) ^ alphabar(1))


def test_repeated_monomials_accumulate():
    spec = parse_structure_file(
        "algebra t dim 2\nd a2 = (1) * a1^~a1 + (2i) * a1^~a1\n"
    )
    assert spec.d_alpha(2) == GaussianRational(1, 2) * (alpha(1) ^ alphabar(1))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("dim 2\n", "algebra"),
        ("algebra t dim 0\n", "dim"),
        ("algebra t dim 2\nd a3 = (1)*a1^a2\n", "range"),
        ("algebra t dim 3\nd a3 = (1)*a1^a4\n", "range"),
        ("algebra t dim 2\nd ~a2 = (1)*a1^~a1\n", "left-hand"),
        ("algebra t dim 2\nd a2 = (1)*~a1^~a2\n", "(0,2)"),
        ("algebra t dim 2\nd a2 = (1)*a1\n", "expected '^'"),
        ("algebra t dim 2\nd a2 = 1*a1^a2\n", "parenthesized scalar"),
        ("algebra t dim 2\nd a2 = (1)*a1^a2 junk\n", "between terms"),
        ("algebra t dim 2\nd a2 = (1)*a1^a2\nd a2 = (1)*a1^a2\n", "duplicate"),
        ("algebra t dim 2\nwat a2 = (1)*a1^a2\n", "d"),
        ("algebra t dim x\n", "dim"),
        # numbers are ASCII digits only
        ("algebra t dim \u0663\n", "expected dimension"),
        ("algebra t dim 3\nd a\u0663 = (1)*a1^a2\n", "expected generator"),
        ("algebra t dim 3\nd a3 = (1)*a1^a\u0662\n", "expected generator"),
        ("algebra t dim 3\nd a3 = (\u0661)*a1^a2\n", "malformed scalar"),
        ("algebra t dim 3\nd a3 = (1/\u0662)*a1^a2\n", "malformed scalar"),
    ],
)
def test_rejects_bad_input(text, fragment):
    with pytest.raises(StructureSyntaxError) as err:
        parse_structure_file(text)
    assert fragment.lower() in str(err.value).lower()


def test_error_carries_position():
    with pytest.raises(StructureSyntaxError) as err:
        parse_structure_file("algebra t dim 2\nd a2 = (1)*~a1^~a2\n")
    assert err.value.line == 2
    assert err.value.col >= 1


def test_dimension_beyond_the_limit_is_refused_at_its_column():
    assert parse_structure_file("algebra x dim %d\n" % MAX_DIM).n == MAX_DIM
    # leading zeros do not count towards the length
    assert parse_structure_file("algebra x dim %s\n" % ("0" * 5000 + "2")).n == 2
    too_big = ("algebra x dim %d\n" % (MAX_DIM + 1), "algebra x dim 200000  # comment\n")
    # 5,000 digits, past int()'s own limit on digit strings, meet the same message
    for text in too_big + ("algebra x dim %s\n" % ("7" * 5000),):
        with pytest.raises(StructureSyntaxError, match="exceeds the limit %d" % MAX_DIM) as err:
            parse_structure_file(text)
        assert (err.value.line, err.value.col) == (1, 15)
    with pytest.raises(StructureSyntaxError, match="positive") as err:
        parse_structure_file("algebra x   dim 0\n")
    assert err.value.col == 17


def test_long_generator_index_is_out_of_range_at_its_column():
    text = "algebra x dim 3\nd a3 = (1) * a1 ^ a%s\n" % ("1" * 5000)
    with pytest.raises(StructureSyntaxError, match="of 5000 digits out of range 1..3") as err:
        parse_structure_file(text)
    assert (err.value.line, err.value.col) == (2, 19)
    with pytest.raises(StructureSyntaxError, match="generator index 65 out of range 1..3"):
        parse_structure_file("algebra x dim 3\nd a3 = (1) * a1 ^ a65\n")
    # leading zeros do not count towards the length
    spec = parse_structure_file("algebra x dim 3\nd a0003 = (1) * a0001 ^ a002\n")
    assert spec.d_alpha(3) == alpha(1) ^ alpha(2)


def test_round_trip_fixed_specs():
    for spec in (
        torus_spec(3),
        iwasawa_spec(),
        kodaira_spec(),
        fps_spec(*(GaussianRational(k) for k in (1, 2, 3, 4, 5))),
    ):
        text = format_structure_file(spec)
        again = parse_structure_file(text)
        assert again == spec
        assert format_structure_file(again) == text


@pytest.mark.parametrize("name", ["my spec", ""])
def test_a_spec_name_outside_the_header_grammar_is_refused(name):
    with pytest.raises(ValueError, match="not an identifier"):
        AlgebraSpec(name, 2, [Form(), Form()])


def test_round_trip_random_specs():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = n - 1
        A = [
            [
                GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                if i < j
                else GaussianRational(0)
                for j in range(m)
            ]
            for i in range(m)
        ]
        B = [
            [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(m)]
            for _ in range(m)
        ]
        spec = exnilp_spec(n, A, B)
        text = format_structure_file(spec)
        assert parse_structure_file(text) == spec


def test_read_structure_file(tmp_path):
    path = tmp_path / "iw.alg"
    path.write_text(format_structure_file(iwasawa_spec()), encoding="ascii")
    assert read_structure_file(str(path)) == iwasawa_spec()


def test_read_structure_file_with_a_utf8_comment(tmp_path):
    path = tmp_path / "iw.alg"
    path.write_text("algebra iwasawa dim 3  # caf\u00e9\nd a3 = (-1)*a1^a2\n", encoding="utf-8")
    assert read_structure_file(str(path)) == iwasawa_spec()


def test_read_structure_file_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "iw.alg"
    data = format_structure_file(iwasawa_spec()).encode("ascii")
    path.write_bytes(b"\xef\xbb\xbf" + data)
    assert read_structure_file(str(path)) == iwasawa_spec()
    # one mark only: a second is the first character of the text
    path.write_bytes(b"\xef\xbb\xbf" * 2 + data)
    with pytest.raises(StructureSyntaxError, match="expected keyword 'algebra'"):
        read_structure_file(str(path))


@pytest.mark.parametrize(
    "data, line, col",
    [
        (b"algebra t dim 2\n# caf\xff\n", 2, 6),
        # \r\n and \r end a line as they do for the parser
        (b"algebra t dim 2\r\n\rd a2 = (1)*a1^~a1 # \xc3(\n", 3, 21),
        (b"\xef\xbb\xbfalgebra t dim 2 # \xe2\x82", 1, 19),  # cut off at the end
    ],
    ids=["comment", "crlf-and-cr", "cut-off"],
)
def test_a_byte_that_is_not_utf8_is_a_syntax_error(tmp_path, data, line, col):
    path = tmp_path / "bad.alg"
    path.write_bytes(data)
    with pytest.raises(StructureSyntaxError, match="is not UTF-8") as err:
        read_structure_file(str(path))
    assert (err.value.line, err.value.col) == (line, col)


def test_zero_lines_are_omitted_in_output():
    text = format_structure_file(torus_spec(2))
    assert text == "algebra torus2 dim 2\n"
