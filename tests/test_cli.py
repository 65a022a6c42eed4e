"""CLI tests: exit codes, report schemas, round-trips, mutation detection."""

import csv
import dataclasses
import io
import json

import pytest

from permpoly import SparsePoly, make_field
from permpoly import cli
from permpoly import families as fam
from permpoly import reproduce as rep
from permpoly.cli import UsageError, canonical_json, parse_element, parse_poly
from permpoly.selftest import run_selftest


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# value parsing
# --------------------------------------------------------------------------

def test_parse_element_forms():
    ctx = make_field(2, 6)
    assert parse_element(ctx, "0") == 0
    assert parse_element(ctx, "13") == 13
    assert parse_element(ctx, "g") == ctx.generator
    assert parse_element(ctx, "g^7") == ctx.pow(ctx.generator, 7)
    with pytest.raises(UsageError):
        parse_element(ctx, "64")
    with pytest.raises(UsageError):
        parse_element(ctx, "h^2")


def test_parse_poly_forms():
    ctx = make_field(2, 4)
    p = parse_poly(ctx, "x^2+x")
    assert p.term_pairs() == ((1, 1), (1, 2))
    p = parse_poly(ctx, "g^3*x^5 + g*x + 1")
    assert p.term_pairs() == ((1, 0), (ctx.generator, 1), (ctx.pow(ctx.generator, 3), 5))
    assert parse_poly(ctx, "7").term_pairs() == ((7, 0),)
    with pytest.raises(UsageError):
        parse_poly(ctx, "x^-1")
    with pytest.raises(UsageError):
        parse_poly(ctx, "x2")


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_parallelism_flag_removed_exit3(capsys):
    # scans are sequential; the flag now reads as an unknown family parameter
    code, out, err = run_cli(capsys, "verify", "--family", "F4", "--m", "5",
                             "--b", "1", "--parallelism", "2")
    assert code == 3
    assert out == ""
    assert err == "permpoly: F4: unknown parameter --parallelism\n"
    code, out, err = run_cli(capsys, "reproduce", "--parallelism", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("permpoly: unexpected arguments") and "Traceback" not in err
    with pytest.raises(ValueError):
        rep.run_all(workers=2)


def test_verify_f5_example_exit0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "F5",
                           "--m", "3", "--r", "4", "--i", "3", "--b", "g^7")
    assert code == 0
    assert "permutation: True" in out


def test_verify_zero_scalar_exit3(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "F1",
                           "--m", "2", "--delta", "g", "--c", "0")
    assert code == 3
    assert "nonzero" in err


def test_verify_non_permutation_exit1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "F4", "--m", "2",
                           "--b", "1")
    assert code == 1
    assert "permutation: False" in out
    assert "collision witness" in out


def test_verify_unknown_family_and_param(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "F99", "--m", "2")
    assert code == 3
    code, _, err = run_cli(capsys, "verify", "--family", "F5", "--m", "3",
                           "--r", "4", "--i", "3", "--b", "g^7", "--bogus", "1")
    assert code == 3
    assert "bogus" in err


@pytest.mark.parametrize("spelling", [
    ("--param", "c=1", "--param", "c=2"),
    ("--c", "1", "--c", "2"),
    ("--c=1", "--c=2"),
])
def test_verify_repeated_param_exit3(capsys, spelling):
    # a parameter named twice is refused, whichever spelling names it
    code, out, err = run_cli(capsys, "verify", "--family", "F3", "--param", "m=4", *spelling)
    assert code == 3
    assert out == ""
    assert err == "permpoly: parameter 'c' given more than once\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "F6", "--q", "2147483647", "--case", "power", "--i", "1",
     "--delta", "0", "--c", "1"),
    ("verify", "--family", "F7", "--q", "2147483647", "--case", "power", "--i", "1",
     "--delta", "0", "--c", "1"),
    ("verify", "--family", "F12", "--p", "2305843009213693951", "--k", "2",
     "--step", "1", "--sign", "minus", "--g", "x", "--c", "1", "--delta", "0"),
])
def test_verify_huge_shape_exit3(capsys, argv):
    # refused by size before any factoring or primality test of the shape
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("permpoly: SizeLimitExceeded:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("args,err_line", [
    (("--family", "F6", "--q", "4", "--case", "power", "--i", "1", "--u", "x",
      "--delta", "0", "--c", "1"), "F6: case 'power' takes no 'u'"),
    (("--family", "F7", "--q", "3", "--case", "sum", "--u", "x", "--i", "5",
      "--delta", "0", "--c", "1"), "F7: case 'sum' takes no 'i'"),
])
def test_parameter_unused_by_case_exit3(capsys, command, args, err_line):
    code, out, err = run_cli(capsys, command, *args)
    assert code == 3
    assert out == ""
    assert err == f"permpoly: {err_line}\n"


def test_verify_missing_shape(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "F5",
                           "--r", "4", "--i", "3", "--b", "g^7")
    assert code == 3
    assert "--m" in err


def test_verify_json_schema_and_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "F5", "--m", "3",
                           "--r", "4", "--i", "3", "--b", "g^7",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"tool-version", "command", "family", "anchor", "field",
                        "params", "condition", "oracle"}
    assert doc["field"] == {"p": 2, "k": 6,
                            "modulus-coeffs": [1, 1, 0, 0, 0, 0, 1],
                            "generator-rep": 2}
    assert doc["params"]["b"] == {"rep": 6, "gen-power": 7}
    assert doc["oracle"]["is-permutation"] is True
    assert doc["oracle"]["evaluations"] == 64
    assert all({"clause", "pass", "witness"} == set(c) for c in doc["condition"])
    assert canonical_json(doc) == out  # byte-identical round trip


def test_verify_param_flag_syntax(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--family", "F5", "--m", "3",
                             "--param", "r=4", "--param", "i=3",
                             "--param", "b=g^7", "--output", "json")
    code2, out2, _ = run_cli(capsys, "verify", "--family", "F5", "--m=3",
                             "--r=4", "--i=3", "--b=g^7", "--output", "json")
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1["oracle"].pop("elapsed-ms")
    d2["oracle"].pop("elapsed-ms")
    assert d1 == d2


# --------------------------------------------------------------------------
# enumerate
# --------------------------------------------------------------------------

def test_enumerate_f4_no_disagreements(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "F4", "--m", "2",
                           "--disagreements-only")
    assert code == 0
    assert "# rows: 0" in out


def test_enumerate_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--family", "F5", "--m", "3",
                           "--r", "4", "--i", "3", "--output", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert header[:3] == ["family", "p", "k"]
    assert "difference-coprime" in header and "agree" in header
    assert len(body) == 63
    cond_i, oracle_i = header.index("condition"), header.index("oracle")
    assert sum(1 for row in body if row[cond_i] == "pass") == 6
    # the gate is sufficient, not an iff: pass must imply perm, never the converse
    assert all(row[oracle_i] == "perm" for row in body if row[cond_i] == "pass")


def test_enumerate_cap_exit3(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--family", "F11", "--m", "2",
                           "--r", "4", "--s", "3", "--cap", "100")
    assert code == 3
    assert "cap" in err
    # nothing swept: the one all-fixed assignment counts 1 against the cap
    code, out, err = run_cli(capsys, "enumerate", "--family", "F4", "--m", "1",
                             "--b", "1", "--cap", "0")
    assert code == 3 and "cap" in err and out == ""


# --------------------------------------------------------------------------
# list / reproduce / selftest
# --------------------------------------------------------------------------

def test_list_families(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for i in range(1, 13):
        assert f"F{i} " in out or f"F{i}\n" in out
    code, out, _ = run_cli(capsys, "list", "--output", "json")
    doc = json.loads(out)
    assert [f["id"] for f in doc["families"]] == [f"F{i}" for i in range(1, 13)]


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "F5", "--m", "3", "--r", "4", "--i", "3", "--b", "g^7",
     "--output", "csv"),
    ("list", "--output", "csv"),
    ("reproduce", "--output", "csv"),
    ("selftest", "--output", "human"),
    ("selftest", "--output", "json"),
    ("selftest", "--output", "csv"),
])
def test_unimplemented_output_format_exit3(capsys, argv):
    # each command accepts only the formats it renders; csv is enumerate's alone
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "--output" in err and "Traceback" not in err


def _fake_criterion(cid, passed):
    def fn(state):
        return rep.CriterionResult(cid, "Fx", "fake", passed, {"n": 1}, [], 0.1)
    return fn


def test_reproduce_exit_codes(capsys, monkeypatch):
    monkeypatch.setattr(rep, "CRITERIA", {1: _fake_criterion(1, True)})
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    assert "PASS" in out
    monkeypatch.setattr(rep, "CRITERIA", {1: _fake_criterion(1, True),
                                          2: _fake_criterion(2, False)})
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run_cli(capsys, "reproduce", "--output", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert [c["id"] for c in doc["criteria"]] == [1, 2]


def test_mutation_in_f3_builder_is_caught(monkeypatch):
    # off-by-one in the middle exponent must fail the F3 regression, naming F3
    spec = fam.REGISTRY["F3"]

    def broken_form(ctx, p):
        poly = spec.form(ctx, p)
        pairs = [(c, e + 1 if e == 91 else e) for c, e in poly.term_pairs()]
        return SparsePoly(ctx, pairs)

    monkeypatch.setitem(fam.REGISTRY, "F3",
                        dataclasses.replace(spec, form=broken_form))
    results = rep.run_all(only=[2])
    assert len(results) == 1
    assert results[0].family == "F3"
    assert not results[0].passed


def test_mutation_in_f3_gate_count_is_caught(monkeypatch):
    # a gate that drops one admissible c leaves 118 bijections: the expected
    # count of 119 must still fail the F3 regression
    spec = fam.REGISTRY["F3"]

    def strict(ctx, p):
        report = spec.condition(ctx, p)
        return fam.ConditionReport(report.clauses + (fam.Clause("drop", p["c"] != 1),))

    monkeypatch.setitem(fam.REGISTRY, "F3", dataclasses.replace(spec, condition=strict))
    (result,) = rep.run_all(only=[2])
    assert result.counts == {"admissible": 118, "bijective": 118}
    assert not result.passed
    assert result.details == ["expected 119 admissible c, found 118"]


def test_selftest_passes():
    buf = io.StringIO()
    assert run_selftest(buf) is True
    assert "selftest PASS" in buf.getvalue()


def test_cli_selftest_exit0(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest PASS" in out


def test_usage_error_on_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 3


def test_verify_f12_with_poly_and_field_shape_flags(capsys):
    # --p must not collide with --param prefix matching
    code, out, _ = run_cli(capsys, "verify", "--family", "F12", "--p", "2",
                           "--k", "3", "--step", "1", "--sign", "minus",
                           "--g", "x^2+x", "--c", "1", "--delta", "g^3")
    assert code in (0, 1)
    assert "permutation:" in out


def test_verify_f6_with_poly_param(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "F6", "--q", "4",
                           "--case", "sum", "--u", "g^5*x^3+x+g^2",
                           "--delta", "g^9", "--c", "g^21")
    assert code == 0
    assert "permutation: True" in out


def test_internal_error_exit2(capsys, monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli.fam, "check", boom)
    code, _, err = run_cli(capsys, "verify", "--family", "F5", "--m", "3",
                           "--r", "4", "--i", "3", "--b", "g^7")
    assert code == 2
    assert "internal error" in err
