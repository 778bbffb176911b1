"""End-to-end command-line behavior: output shapes, exit codes, determinism."""

import json
import time

import pytest

from nilcoh.algebra import MAX_DIM
from nilcoh.catalog import iwasawa_spec, kodaira_spec, nakamura_ce_spec, torus_spec
from nilcoh.cli import _THEORY_ALIASES, main
from nilcoh.dsl import format_structure_file, parse_structure_file
from nilcoh.metrics import CONDITIONS


@pytest.fixture
def files(tmp_path):
    paths = {}
    for spec in (iwasawa_spec(), kodaira_spec(), torus_spec(1), torus_spec(2), nakamura_ce_spec()):
        p = tmp_path / (spec.name + ".alg")
        p.write_text(format_structure_file(spec), encoding="ascii")
        paths[spec.name] = str(p)
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad dim 2\nd a2 = (1)*a1^~a2\n", encoding="ascii")
    paths["bad"] = str(bad)
    syntax = tmp_path / "syntax.alg"
    syntax.write_text("algebra broken dim 2\nd a2 = 1*a1\n", encoding="ascii")
    paths["syntax"] = str(syntax)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_valid(files, capsys):
    code, out, _ = run(capsys, ["validate", files["iwasawa"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "iwasawa"
    assert payload["n"] == 3
    assert payload["valid"]["jacobi_ok"] is True
    assert payload["nilpotent_J"] is True
    assert payload["filtration"] == [4, 6]


def test_validate_invalid_exits_one(files, capsys):
    code, out, _ = run(capsys, ["validate", files["bad"]])
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"]["jacobi_ok"] is False
    assert payload["valid"]["failures"][0]["generator"] == 2
    assert payload["filtration"] == []


def test_validate_syntax_error_exits_two(files, capsys):
    code, out, err = run(capsys, ["validate", files["syntax"]])
    assert code == 2
    assert "line 2" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, ["validate", "/no/such/file.alg"])
    assert code == 2
    assert "cannot read" in err


def test_table_json(files, capsys):
    code, out, _ = run(capsys, ["table", files["iwasawa"], "--theory", "bc"])
    assert code == 0
    payload = json.loads(out)
    assert payload["hodge"]["bc"][0][1] == 2
    assert payload["validity"] == "nilpotent_J"

    code, out, _ = run(capsys, ["table", files["kodaira"], "--theory", "aeppli"])
    assert json.loads(out)["hodge"]["aeppli"][0][1] == 2

    code, out, _ = run(capsys, ["table", files["iwasawa"], "--theory", "derham"])
    assert json.loads(out)["hodge"]["derham"] == [1, 4, 8, 10, 8, 4, 1]


def test_table_pretty(files, capsys):
    code, out, _ = run(capsys, ["table", files["iwasawa"], "--theory", "bc", "--pretty"])
    assert code == 0
    assert "p\\q" in out and "bott_chern" in out


def test_table_unknown_theory_exits_two(files, capsys):
    code, _, err = run(capsys, ["table", files["iwasawa"], "--theory", "wat"])
    assert code == 2
    assert "unknown theory" in err


def test_table_ce_only_validity(files, capsys):
    code, out, _ = run(capsys, ["table", files["nakamura_ce"], "--theory", "bc"])
    assert code == 0
    assert json.loads(out)["validity"] == "ce_only"


def test_metric_check_pass_and_fail(files, capsys):
    code, out, _ = run(capsys, ["metric", files["kodaira"], "--check", "skt"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["metric"]["holds"] is True
    assert payload["verdicts"]["metric"]["positive"] is True

    code, out, _ = run(capsys, ["metric", files["iwasawa"], "--check", "astheno"])
    assert code == 1
    payload = json.loads(out)
    w = payload["verdicts"]["metric"]["witness"]
    assert w[0]["monomial"] == "a1^a2^~a1^~a2"
    assert w[0]["coeff"] == {"re": "0", "im": "-1"}


def test_metric_diag_and_hmatrix(files, capsys, tmp_path):
    code, out, _ = run(
        capsys, ["metric", files["iwasawa"], "--diag", "1,2,1", "--check", "gauduchon"]
    )
    assert code == 0

    hpath = tmp_path / "H.json"
    hpath.write_text(
        json.dumps(
            {
                "H": [
                    [{"re": "2", "im": "0"}, {"re": "0", "im": "1"}],
                    [{"re": "0", "im": "-1"}, {"re": "1", "im": "0"}],
                ]
            }
        ),
        encoding="ascii",
    )
    code, out, _ = run(
        capsys, ["metric", files["kodaira"], "--hmatrix", str(hpath), "--check", "skt"]
    )
    assert code == 0
    assert json.loads(out)["verdicts"]["metric"]["positive"] is True


def test_metric_bad_diag_exits_two(files, capsys):
    code, _, err = run(
        capsys, ["metric", files["iwasawa"], "--diag", "1,2i,1", "--check", "skt"]
    )
    assert code == 2


@pytest.mark.parametrize("diag", ["1,1+0i,1", " 1,1,1", "1,1, 1", "0.5,1,1", "1,1/0,1"])
def test_diag_entries_take_the_hmatrix_grammar(files, capsys, diag):
    # --diag entries are read as --hmatrix cells are: ASCII p or p/q only
    code, out, err = run(capsys, ["metric", files["iwasawa"], "--diag", diag, "--check", "skt"])
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("diag", ["1,2,1", "1/2,1,1", "2/4,01,+1"])
def test_diag_of_ascii_rationals_is_read(files, capsys, diag):
    argv = ["metric", files["iwasawa"], "--diag", diag, "--check", "gauduchon"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["verdicts"]["metric"]["positive"] is True


@pytest.mark.parametrize(
    "argv, text",
    [
        (["catalog", "show", "fps_skt(1,2,3,4,%s)" % ("x" * 5000)], ""),
        (["validate", "FILE"], "algebra long dim 2\nd a2 = (1%s) * a1 ^ ~a1\n" % ("x" * 5000)),
        (["validate", "FILE"], "algebra long dim 2\nd a2 = (%s) * a1 ^ ~a1\n" % ("7" * 5000)),
        (["metric", "FILE", "--diag", "1x" + "0" * 5000, "--check", "skt"], "algebra long dim 1\n"),
    ],
    ids=["catalog-key", "structure-file", "structure-file-digits", "diag"],
)
def test_a_long_scalar_is_quoted_short(tmp_path, capsys, argv, text):
    path = tmp_path / "long.alg"
    path.write_text(text, encoding="ascii")
    code, out, err = run(capsys, [str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (2, "")
    assert 0 < len(err.encode()) < 300


def test_zero_denominator_coefficient_exits_two(tmp_path, capsys):
    path = tmp_path / "zero.alg"
    path.write_text("algebra zero dim 2\nd a2 = (1/0) * a1 ^ ~a1\n", encoding="ascii")
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert out == ""
    assert "line 2, col 9" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"H": [[1]]},
        [1, 2],
        {"H": [[{"re": "1/0"}]]},
        {"H": [[{"re": 0.5}]]},
        {"H": [[{"re": True}]]},
        {"H": [[{"re": "1", "im": 1.5}]]},
        # strings take the structure-file syntax p or p/q, nothing Fraction() reads
        {"H": [[{"re": "1e10000000"}]]},
        {"H": [[{"re": "0.5"}]]},
        {"H": [[{"re": "1e3"}]]},
        {"H": [[{"re": "1_000"}]]},
        {"H": [[{"re": " 1"}]]},
        {"H": [[{"re": "\u0662"}]]},
        '{"H": %s%s}' % ("[" * 1000, "]" * 1000),  # JSON text nested beyond json.load
        # the file must be ASCII JSON text
        pytest.param(b'{"H": [[{"re": "1"}]', id="cut-off"),
        pytest.param('{"H": [[{"re": "1", "note": "é"}]]}'.encode("utf-8"), id="utf-8"),
        pytest.param(b'{"H": [[{"re": "1", "note": "\xff"}]]}', id="byte-ff"),
        pytest.param(b'\xef\xbb\xbf{"H": [[{"re": "1"}]]}', id="utf-8-bom"),
        pytest.param('{"H": [[{"re": "1"}]]}'.encode("utf-16"), id="utf-16"),
        pytest.param('{"H": [[{"re": "1"}]]}'.encode("utf-16-le"), id="utf-16-le"),
        pytest.param('{"H": [[{"re": "1"}]]}'.encode("utf-32"), id="utf-32"),
    ],
)
def test_malformed_hmatrix_exits_two(files, capsys, tmp_path, payload):
    hpath = tmp_path / "H.json"
    if isinstance(payload, bytes):
        hpath.write_bytes(payload)
    else:
        hpath.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="ascii")
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["metric", files["torus1"], "--hmatrix", str(hpath), "--check", "skt"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert str(hpath) in err
    if isinstance(payload, dict):
        assert "H[0][0]" in err


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[{"re": 1}] * 500] * 500, "H is 500x500 but the spec has dimension 3"),
        # the shape is checked before any cell, even a malformed one
        ([[{"re": 0.5}] * 2] * 3, "H must be a square matrix"),
        (
            [[{"re": 1}, {"re": 1}, {"re": 0}], [{"re": 0}, {"re": 1}, {"re": 0}], [{"re": 0}, {"re": 0}, {"re": 1}]],
            "H is not Hermitian at entry (1, 2)",
        ),
    ],
    ids=["500x500", "3x2-bad-cells", "not-hermitian"],
)
def test_hmatrix_shape_is_refused_before_its_cells(files, capsys, tmp_path, rows, message):
    hpath = tmp_path / "H.json"
    hpath.write_text(json.dumps({"H": rows}), encoding="ascii")
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["metric", files["iwasawa"], "--hmatrix", str(hpath), "--check", "skt"]
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: %s: %s\n" % (hpath, message))


@pytest.mark.parametrize(
    "k", ["-3", "0", "4", "\u0662", "0_2", "+2", " 2", "9" * 5000, "", "64", "65"]
)
def test_pluriclosed_out_of_range_exits_two(files, capsys, k):
    code, out, err = run(
        capsys, ["metric", files["iwasawa"], "--check", "pluriclosed:" + k]
    )
    assert code == 2
    assert out == ""
    assert "1..3" in err


def test_metric_pluriclosed_alias(files, capsys):
    code, out, _ = run(
        capsys, ["metric", files["iwasawa"], "--check", "pluriclosed:1"]
    )
    assert code == 0


def test_obstruct_iwasawa(files, capsys):
    code, out, _ = run(capsys, ["obstruct", files["iwasawa"], "--diag", "1,1,1"])
    assert code == 1
    v = json.loads(out)["verdicts"]
    assert v["h01_bc"] == 2 and v["h01_a"] == 3 and v["gap"] == 1
    assert v["jost_yau"]["status"] == "fail"
    assert v["jost_yau"]["witness"][0]["monomial"] == "a3"
    assert v["astheno_excluded"] is True
    assert v["gauduchon"] is True
    assert v["metric_positive"] is True


@pytest.fixture
def nonjacobi(tmp_path):
    """A structure file whose d fails d.d = 0 on a2."""
    path = tmp_path / "nonjacobi.alg"
    path.write_text(
        "algebra nonjacobi dim 3\nd a2 = (1) * a1 ^ ~a3\nd a3 = (1) * a1 ^ a2\n",
        encoding="ascii",
    )
    return str(path)


@pytest.mark.parametrize("metric", [[], ["--diag", "1,1,1"]])
def test_obstruct_on_a_jacobi_failure_exits_one_like_table(nonjacobi, capsys, metric):
    table_code, table_out, _ = run(capsys, ["table", nonjacobi])
    code, out, err = run(capsys, ["obstruct", nonjacobi] + metric)
    assert table_code == 1 and code == 1
    assert out == table_out and err == ""
    payload = json.loads(out)
    assert payload["valid"]["jacobi_ok"] is False
    assert [f["generator"] for f in payload["valid"]["failures"]] == [2]


@pytest.mark.parametrize(
    "check",
    [
        ["gauduchon"],
        ["astheno", "--diag", "1,2,1"],
        ["pluriclosed:1"],
        ["pluriclosed:3"],  # exponent 0: true without computing, refused all the same
        ["ft_pair"],
        ["kahler"],
    ],
)
def test_metric_on_a_jacobi_failure_exits_one_like_table(nonjacobi, capsys, check):
    table_code, table_out, _ = run(capsys, ["table", nonjacobi])
    code, out, err = run(capsys, ["metric", nonjacobi, "--check"] + check)
    assert table_code == 1 and code == 1
    assert out == table_out and err == ""


@pytest.mark.parametrize("pretty", [[], ["--pretty"]])
@pytest.mark.parametrize("theory", sorted(_THEORY_ALIASES))
def test_table_of_every_theory_on_a_jacobi_failure_exits_one(nonjacobi, capsys, theory, pretty):
    default = run(capsys, ["table", nonjacobi])
    assert run(capsys, ["table", nonjacobi, "--theory", theory] + pretty) == default
    assert default[0] == 1 and default[2] == ""


@pytest.mark.parametrize(
    "options",
    [["--check", "bogus"], ["--check", "pluriclosed:4"], ["--check", "skt", "--diag", "1,2i,1"]],
)
def test_metric_usage_error_on_a_jacobi_failure_exits_two(nonjacobi, capsys, options):
    code, out, err = run(capsys, ["metric", nonjacobi] + options)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "options, message",
    [(["--diag", "1,2i,1"], "error: "), (["--hmatrix", "/no/such/h.json"], "cannot read ")],
)
def test_obstruct_usage_error_on_a_jacobi_failure_exits_two(nonjacobi, capsys, options, message):
    code, out, err = run(capsys, ["obstruct", nonjacobi] + options)
    assert code == 2 and out == "" and err.startswith(message)


@pytest.mark.parametrize("command", [["obstruct"], ["table"], ["obstruct", "--diag", "1,1,1"]])
def test_jacobi_check_runs_once_per_job(files, capsys, monkeypatch, command):
    # the check differentiates each of the n generator differentials once
    import nilcoh.algebra

    checked = []
    d = nilcoh.algebra.d
    monkeypatch.setattr(nilcoh.algebra, "d", lambda spec, x: checked.append(x) or d(spec, x))
    code, _, _ = run(capsys, command[:1] + [files["iwasawa"]] + command[1:])
    assert code in (0, 1)
    assert checked == list(iwasawa_spec().d_generators)


def test_obstruct_without_metric(files, capsys):
    code, out, _ = run(capsys, ["obstruct", files["torus2"]])
    assert code == 0
    v = json.loads(out)["verdicts"]
    assert v["gap"] == 0 and v["astheno_excluded"] is False
    assert "gauduchon" not in v and "l_rank" not in v


def test_product_round_trip(files, capsys, tmp_path):
    out_path = tmp_path / "prod.alg"
    code, _, _ = run(
        capsys,
        ["product", files["kodaira"], files["torus1"], "-o", str(out_path)],
    )
    assert code == 0
    spec = parse_structure_file(out_path.read_text(encoding="ascii"))
    assert spec.n == 3
    assert spec.name == "kodaira_x_torus1"

    # stdout mode emits the same text
    code, out, _ = run(capsys, ["product", files["kodaira"], files["torus1"]])
    assert out == out_path.read_text(encoding="ascii")


@pytest.mark.parametrize("where", ["directory", "missing"])
def test_unreadable_inputs_exit_two(files, capsys, tmp_path, where):
    path = str(tmp_path if where == "directory" else tmp_path / "missing.json")
    for argv in (
        ["table", path],
        ["metric", files["iwasawa"], "--hmatrix", path, "--check", "skt"],
        ["product", files["kodaira"], path],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", "cannot read %s\n" % path)


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_product_output_exits_two(files, capsys, tmp_path, where):
    path = str(tmp_path if where == "directory" else tmp_path / "missing" / "x.nc")
    code, out, err = run(capsys, ["product", files["kodaira"], files["torus1"], "-o", path])
    assert (code, out, err) == (2, "", "cannot write %s\n" % path)


@pytest.mark.parametrize("option", [["-o", ""], ["--output", ""], ["--output="]])
def test_an_empty_output_path_is_refused(files, capsys, option):
    code, out, err = run(capsys, ["product", files["kodaira"], files["torus1"]] + option)
    assert (code, out, err) == (2, "", "cannot write \n")


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, ["catalog", "list"])
    assert code == 0
    keys = json.loads(out)["keys"]
    assert "iwasawa" in keys

    code, out, _ = run(capsys, ["catalog", "show", "kodaira"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["structure"][0] == "algebra kodaira dim 2"
    assert any(fx["name"] == "skt_identity" for fx in payload["fixtures"])


def test_catalog_show_unknown_exits_two(capsys):
    code, _, err = run(capsys, ["catalog", "show", "nope"])
    assert code == 2
    assert "iwasawa" in err  # the message lists what exists


def test_catalog_show_refuses_a_second_key(capsys):
    code, out, err = run(capsys, ["catalog", "show", "kodaira", "iwasawa"])
    assert code == 2 and out == ""
    assert err == "catalog show takes one KEY, got 2\n"


@pytest.mark.parametrize("action", ["show", "suite"])
def test_catalog_malformed_parametrized_key_exits_two(capsys, action):
    code, out, err = run(capsys, ["catalog", action, "exnilp(4,A={(1,2):1},B=0)"])
    assert code == 2 and out == ""
    assert err == "matrix literal must look like [[...],[...]] or 0\n"


@pytest.mark.parametrize("action", ["show", "suite"])
@pytest.mark.parametrize(
    "key, refusal",
    [
        ("torus(3,4)", "torus wants one dimension"),
        ("exnilp_ones(3,4)", "exnilp_ones wants one dimension"),
        ("fps_skt(0,1,-1,1,1,0)", "fps_skt wants five scalars"),
        ("exnilp(3,A=0,B=0,A=0)", "exnilp wants (n, A=..., B=...)"),
        ("product(kodaira,torus(1),torus(1))", "product wants two catalog keys"),
    ],
)
def test_catalog_family_with_an_extra_argument_exits_two(capsys, action, key, refusal):
    code, out, err = run(capsys, ["catalog", action, key])
    assert (code, out, err) == (2, "", refusal + "\n")


def test_metric_help_lists_every_condition(capsys):
    _, out, _ = run(capsys, ["metric", "--help"])
    names = out.split("CHECK: ", 1)[1].split("\n", 1)[0].split(", ")
    assert sorted(names) == sorted([*CONDITIONS, "pluriclosed:K"])


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "show", "torus(%d)" % (MAX_DIM + 1)],
        ["catalog", "show", "exnilp_ones(%d)" % (MAX_DIM + 1)],
        ["catalog", "suite", "exnilp(%d,A=0,B=0)" % (MAX_DIM + 1)],
    ],
)
def test_catalog_dimension_beyond_the_limit_exits_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.endswith(": dimension n = %d exceeds the limit %d\n" % (MAX_DIM + 1, MAX_DIM))


@pytest.mark.parametrize("depth", [MAX_DIM, 600])
def test_catalog_product_nested_beyond_the_limit_exits_two(capsys, depth):
    key = "torus(1)"
    for _ in range(depth):
        key = "product(%s,torus(1))" % key
    code, out, err = run(capsys, ["catalog", "show", key])
    assert code == 2 and out == ""
    assert err == "a product of %d factors exceeds the dimension limit %d\n" % (depth + 1, MAX_DIM)


def test_validate_dimension_beyond_the_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "big.alg"
    path.write_text("algebra x dim %d\n" % (MAX_DIM + 1), encoding="ascii")
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2 and out == ""
    assert err == "parse error: line 1, col 15: dimension n = %d exceeds the limit %d\n" % (
        MAX_DIM + 1,
        MAX_DIM,
    )


def test_validate_a_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.alg"
    path.write_bytes(b"algebra iwasawa dim 3\n# caf\xe9\nd a3 = (-1)*a1^a2\n")
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out, err) == (2, "", "parse error: line 2, col 6: byte 0xe9 is not UTF-8\n")


def test_validate_reads_past_a_byte_order_mark(files, tmp_path, capsys):
    path = tmp_path / "bom.alg"
    with open(files["iwasawa"], "rb") as fh:
        path.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert run(capsys, ["validate", str(path)]) == run(capsys, ["validate", files["iwasawa"]])


@pytest.mark.parametrize("order", ["bad first", "bad second"])
def test_product_names_the_file_that_fails_to_parse(files, capsys, order):
    bad = files["syntax"]
    _, _, err = run(capsys, ["validate", bad])
    assert err == "parse error: line 2, col 8: expected 'a parenthesized scalar'\n"
    inputs = [bad, files["kodaira"]] if order == "bad first" else [files["kodaira"], bad]
    code, out, err = run(capsys, ["product", *inputs])
    assert (code, out, err) == (
        2,
        "",
        "parse error: %s: line 2, col 8: expected 'a parenthesized scalar'\n" % bad,
    )


def test_validate_at_the_dimension_limit(tmp_path, capsys):
    path = tmp_path / "top.alg"
    path.write_text("algebra x dim %d\nd a%d = (1) * a1 ^ a2\n" % (MAX_DIM, MAX_DIM), encoding="ascii")
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 0
    assert json.loads(out)["filtration"] == [2 * MAX_DIM - 2, 2 * MAX_DIM]


def test_catalog_suite_subset(capsys):
    code, out, _ = run(capsys, ["catalog", "suite", "kodaira", "torus(1)"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [e["key"] for e in payload["entries"]] == ["kodaira", "torus(1)"]


def test_byte_determinism(files, capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, ["obstruct", files["iwasawa"], "--diag", "1,1,1"])
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, ["table", files["iwasawa"], "--theory", "bc"])
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope"],
        ["validate"],
        ["validate", "FILE", "FILE"],
        ["metric", "FILE"],
        ["metric", "FILE", "--check"],
        ["table", "FILE", "--bogus"],
        ["table", "FILE", "--pretty=1"],
        ["catalog", "frob"],
        ["catalog"],
        ["product", "FILE"],
        ["table", "FILE", "--the", "bc"],  # an option is spelled in full
        ["product", "FILE", "FILE", "-oOUT"],  # -o takes its value as the next token only
        ["product", "FILE", "FILE", "-o=OUT"],
        ["table", "FILE", "--bogus", "--theory"],
    ],
)
def test_usage_errors_exit_two(files, capsys, tmp_path, argv):
    # OUT names a path under tmp_path, so a wrongly accepted -o writes nothing elsewhere
    argv = [files["iwasawa"] if a == "FILE" else a.replace("OUT", str(tmp_path / "out")) for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    if argv[:2] != ["catalog", "frob"]:  # the action is checked by the catalog command
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("usage: nilcoh") and lines[1].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [[]] + [[command] for command in ("validate", "table", "metric", "obstruct", "product", "catalog")]
    + [["table", "FILE", "--bogus"], ["metric", "FILE", "--diag", "1,1,1"], ["catalog", "frob"]],
)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero(files, capsys, argv, flag):
    argv = [files["iwasawa"] if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, argv + [flag])
    assert (code, err) == (0, "")
    assert out.startswith("usage: nilcoh %s " % (argv[0] if argv else "validate"))


def test_help_lists_every_command(capsys):
    _, out, _ = run(capsys, ["--help"])
    usages = [line for line in out.splitlines() if line.startswith("usage: ")]
    assert usages == [
        "usage: nilcoh validate FILE",
        "usage: nilcoh table FILE [--theory THEORY] [--pretty]",
        "usage: nilcoh metric FILE --check CHECK [--diag DIAG] [--hmatrix HMATRIX]",
        "usage: nilcoh obstruct FILE [--diag DIAG] [--hmatrix HMATRIX]",
        "usage: nilcoh product FILE1 FILE2 [-o OUTPUT] [--output OUTPUT]",
        "usage: nilcoh catalog ACTION [KEYS...] [--pretty]",
    ]


def test_catalog_options_may_precede_the_keys(capsys):
    before = run(capsys, ["catalog", "suite", "--pretty", "kodaira"])
    after = run(capsys, ["catalog", "suite", "kodaira", "--pretty"])
    assert before == after and before[0] == 0 and before[1].startswith("kodaira ")


@pytest.mark.parametrize("theory", ["bc", "aeppli", "derham"])
def test_option_value_after_an_equals_sign(files, capsys, theory):
    joined = run(capsys, ["table", files["iwasawa"], "--theory=" + theory])
    apart = run(capsys, ["table", files["iwasawa"], "--theory", theory])
    assert joined == apart and joined[0] == 0


def test_option_value_may_start_with_a_dash(files, capsys):
    code, out, _ = run(capsys, ["metric", files["iwasawa"], "--check", "gauduchon", "--diag", "-1,1,1"])
    assert code in (0, 1) and json.loads(out)["verdicts"]["metric"]["positive"] is False
    code, out, err = run(capsys, ["table", files["iwasawa"], "--theory", "-h"])
    assert (code, out) == (2, "") and "unknown theory '-h'" in err


def test_double_dash_ends_the_options(files, capsys, tmp_path):
    code, out, _ = run(capsys, ["catalog", "suite", "--", "kodaira"])
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, err = run(capsys, ["validate", "--", "-x"])
    assert (code, out, err) == (2, "", "cannot read -x\n")
    out_path = tmp_path / "prod.alg"
    code, _, _ = run(capsys, ["product", "-o", str(out_path), "--", files["kodaira"], files["torus1"]])
    assert code == 0 and out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["metric", "FILE", "--check", "kahler", "--diag", ""],
        ["metric", "FILE", "--check", "kahler", "--diag="],
        ["metric", "FILE", "--check", "kahler", "--hmatrix", ""],
        ["obstruct", "FILE", "--diag", ""],
        ["obstruct", "FILE", "--hmatrix="],
    ],
)
def test_an_empty_metric_option_is_refused(files, capsys, argv):
    code, out, err = run(capsys, [files["iwasawa"] if a == "FILE" else a for a in argv])
    assert (code, out) == (2, "") and err


@pytest.mark.parametrize("command", [["metric", "--check", "skt"], ["obstruct"]])
def test_diag_and_hmatrix_exclude_each_other(files, capsys, tmp_path, command):
    hpath = tmp_path / "H.json"
    hpath.write_text(json.dumps({"H": [[{"re": 1}, {"re": 0}], [{"re": 0}, {"re": 1}]]}), encoding="ascii")
    argv = command[:1] + [files["kodaira"]] + command[1:]
    assert run(capsys, argv + ["--hmatrix", str(hpath)])[0] in (0, 1)
    code, out, err = run(capsys, argv + ["--diag", "1,1", "--hmatrix", str(hpath)])
    assert (code, out, err) == (2, "", "error: --diag and --hmatrix exclude each other\n")


def test_main_compiles_no_regex_after_a_warm_up(files, capsys, monkeypatch, tmp_path):
    """A command line compiles no regular expression and looks none up in
    the ``re`` cache: every pattern is compiled once, at import."""
    import re

    hpath = tmp_path / "H.json"
    hpath.write_text(json.dumps({"H": [[{"re": "2"}, {"re": "0", "im": "1/2"}], [{"re": "0", "im": "-1/2"}, {"re": 1}]]}), encoding="ascii")
    jobs = [
        ["metric", files["kodaira"], "--hmatrix", str(hpath), "--check", "skt"],
        ["table", files["iwasawa"], "--theory", "aeppli"],
    ]
    for argv in jobs:
        assert run(capsys, argv)[0] == 0
    calls = []
    compile_ = re._compile
    monkeypatch.setattr(re, "_compile", lambda *a: calls.append(a) or compile_(*a))
    for argv in jobs:
        assert run(capsys, argv)[0] == 0
    assert calls == []
