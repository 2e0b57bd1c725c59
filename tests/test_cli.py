"""End-to-end tests for the command-line front end."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from monoval import cli
from monoval.coeff import GroundField, ParseError, Tower
from monoval.errors import (InconclusiveError, InternalError,
                             StructureError)
from monoval.hahn import APFamily, FiniteTerms, HahnStream

SPECS = Path(cli.__file__).parent / "specs"
GOLDEN = Path(__file__).parent / "golden"
EXAMPLE = str(SPECS / "example_f5.vspec")
STARVED = str(SPECS / "example_starved.vspec")
PURITY = str(SPECS / "purity_quadratic.vspec")

QUW = Tower(GroundField.rationals(), ("u", "w"))
F5U3 = Tower(GroundField.prime(5), ("u3",))


# ------------------------------------------------------- spec files

def test_canonical_file_round_trips_byte_identical():
    text = Path(EXAMPLE).read_text()
    assert cli.serialize_spec(cli.parse_spec(text)) == text


def test_serializer_idempotent_on_shipped_files():
    for path in (EXAMPLE, STARVED, PURITY):
        once = cli.serialize_spec(cli.parse_spec(Path(path).read_text()))
        assert cli.serialize_spec(cli.parse_spec(once)) == once


def test_spec_file_rejects():
    good = Path(EXAMPLE).read_text()
    for bad in (
        good.replace("rank 3", "rank three"),
        good.replace("field prime 5", "field complex"),
        good + "image X1 = terms[(0,0,2): 1]\n",      # duplicate image
        good + "image X9 = terms[(0,0,2): 1]\n",      # undeclared var
        good.replace("image X3", "shimmer X3"),       # unknown section
        good.replace("image X3 = terms[(0,0,1): u3]\n", ""),
        good.replace("symbols u3", "symbols u3\nbudgets max_stepz=2"),
    ):
        with pytest.raises(ParseError):
            cli.parse_spec(bad)


# -------------------------------------------------- stream grammar

def test_stream_grammar_round_trips():
    for text in (
        "terms[(0,0,1): 1]",
        "terms[(0,0,1): 1, (0,1,0): u]",
        "terms[(0,0,1): -1, (0,1,0): 1/2]",
        "family[start=(0,0,1), step=(0,0,1), coeff=i, i=1..inf]",
        "family[start=(0,0,1), step=(0,1,0), coeff=2*i^2*u^(3*i), i=1..inf]",
        "family[start=(1,0,0), step=(1,0,0), coeff=(u + 1)^i, i=1..inf]",
        "family[start=(0,0,2), step=(0,0,1), coeff=w*i, i=1..inf]",
        "family[start=(0,0,1), step=(0,0,1), coeff=i, i=1..inf]"
        " + terms[(0,1,0): 1]",
    ):
        assert cli.format_stream(cli.parse_stream(text, QUW, 3)) == text


def test_family_ratio_format_parse_round_trips():
    # format_stream writes a ratio that is not a bare symbol power as
    # (r)^i; the parser must split such a factor at its last top-level ^
    tower = Tower(GroundField.prime(5), ("u3",))
    for ratio, text in (("3*u3^2", "(3*u3^2)^i"), ("u3+1", "(u3 + 1)^i")):
        fam = APFamily((0, 0, 1), (0, 0, 1), tower.from_int(2), 1,
                       tower.parse(ratio), None)
        out = cli.format_stream(HahnStream((fam,)))
        assert out.endswith("coeff=2*i*%s, i=1..inf]" % text)
        back = cli.parse_stream(out, tower, 3)
        assert back.segments == (fam,)
        assert cli.format_stream(back) == out


def test_bounded_family_expands_to_terms():
    stream = cli.parse_stream(
        "family[start=(0,1), step=(0,1), coeff=i, i=1..3]", QUW, 2)
    assert isinstance(stream.segments[0], FiniteTerms)
    assert cli.format_stream(stream) == \
        "terms[(0,1): 1, (0,2): 2, (0,3): 3]"


def test_stream_grammar_rejects():
    for bad in (
        "terms[(0,0): 1]",                                  # wrong rank
        "terms[(0,0,1): 0]",                                # zero coeff
        "terms[(0,0,1): 1, (0,0,1): 2]",                    # duplicate
        "family[start=(0,0,1), coeff=i, step=(0,0,1), i=1..inf]",
        "family[start=(0,0,1), step=(0,0,0), coeff=i, i=1..inf]",
        "family[start=(0,0,1), step=(0,0,1), coeff=i, i=2..inf]",
        "garbage",
    ):
        with pytest.raises(ParseError):
            cli.parse_stream(bad, QUW, 3)


# ----------------------------------------------------------- basis

def test_basis_reports_monoidal_reading(capsys):
    assert cli.main(["basis", EXAMPLE]) == 0
    out = capsys.readouterr().out
    assert "X4 -> Y4*Y1^2" in out
    assert "(0,0,1)" in out


def test_basis_already_a_basis(tmp_path, capsys):
    path = tmp_path / "identity.vspec"
    path.write_text(
        "field rationals\nrank 3\nvars X1 X2 X3\n"
        "image X1 = terms[(1,0,0): 1]\n"
        "image X2 = terms[(0,1,0): 1]\n"
        "image X3 = terms[(0,0,1): 1]\n")
    assert cli.main(["basis", str(path)]) == 0
    assert "already a basis" in capsys.readouterr().out


def test_basis_rejects_zero_image(tmp_path, capsys):
    path = tmp_path / "zero.vspec"
    path.write_text(
        "field rationals\nrank 2\nvars X1 X2\n"
        "image X1 = terms[(1,0): 1]\nimage X2 = terms[]\n")
    assert cli.main(["basis", str(path)]) == 4
    assert "zero" in capsys.readouterr().err


def test_basis_json(capsys):
    assert cli.main(["basis", EXAMPLE, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "values": [[0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, 3]],
        "basis": {"rows": [[0, 0, 1]], "pivots": [1], "pivot_cols": [2]},
        "ops": [{"var": "X4", "partner": "X1", "q": 2,
                 "reading": "X4 -> Y4*Y1^2"}],
        "already_basis": False}


# ----------------------------------------------------------- value

def test_value_checkpoints(capsys):
    for expr, want in (
        ("X2 - X1", "(0,0,2)"),
        ("X1", "(0,0,1)"),
        ("0", "infinity"),
        ("X2 - X1 - 2*X1^2", "(0,0,3)"),
        ("X3 - u3*X1", "infinity"),
        ("X1^2*X4", "(0,0,5)"),
    ):
        assert cli.main(["value", EXAMPLE, expr]) == 0
        assert capsys.readouterr().out.strip() == want


def test_value_json(capsys):
    assert cli.main(["value", EXAMPLE, "X2 - X1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == \
        {"expr": "X2 - X1", "value": [0, 0, 2]}


def test_value_past_the_lex_ceiling_is_inconclusive(capsys):
    args = ["value", EXAMPLE, "X2 - X1", "--lex-ceiling", "(0,0,1)"]
    reason = "lex ceiling exceeded: term (0, 0, 2) > lex_ceiling (0, 0, 1)"
    assert cli.main(args + ["--json"]) == 3
    assert json.loads(capsys.readouterr().out) == \
        {"expr": "X2 - X1", "value": "inconclusive", "reason": reason}
    assert cli.main(args) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("inconclusive\n", "  %s\n" % reason)


def test_value_of_a_zero_image(tmp_path, capsys):
    # the zero image has value infinity but no inverse: exit 4 with the
    # message `basis` gives, not a traceback
    path = tmp_path / "zero.vspec"
    path.write_text(
        "field rationals\nrank 1\nvars X1 X2\nsymbols u\n"
        "image X1 = terms[(1): 1]\nimage X2 = terms[]\n")
    assert cli.main(["value", str(path), "X2"]) == 0
    assert capsys.readouterr().out == "infinity\n"
    for expr in ("X2^-1", "X1 + X1^2*X2^-1"):
        assert cli.main(["value", str(path), expr]) == 4
        assert capsys.readouterr().err == (
            "purity/dimension error: image of X2 is zero; values must be "
            "lex-positive\n")
    assert cli.main(["basis", str(path)]) == 4
    assert "image of X2 is zero; " in capsys.readouterr().err


def test_value_bad_expressions_exit_2(capsys):
    for expr in ("X2 +", "X9", "X1/(X1 + X2)", "X1/(u3 + X1)", ""):
        assert cli.main(["value", EXAMPLE, expr]) == 2
        capsys.readouterr()


def test_value_reduces_the_expression_first(capsys):
    # the quotient is X1 + X2, whose leading terms do not cancel
    assert cli.main(["value", EXAMPLE, "(X1^2 - X2^2)/(X1 - X2)"]) == 0
    assert capsys.readouterr().out == "(0,0,1)\n"


def test_value_coefficient_with_a_symbol_denominator():
    names = ("X1", "X2", "X3", "X4")
    assert cli.parse_poly("X3/(u3+1)", F5U3, names) == \
        {(0, 0, 1, 0): F5U3.parse("1/(u3 + 1)")}


def _random_coefficient(rng, tower):
    c = tower.from_int(rng.choice((1, 1, 2, -1, 3)))
    for name in tower.symbols:
        c = c * tower.gen(name) ** rng.randint(-2, 2)
    if rng.random() < 0.4:
        c = c + tower.from_int(rng.randint(1, 4))
    if rng.random() < 0.3:
        c = c / (tower.gen(rng.choice(tower.symbols)) + 1)
    if tower.ground.p is None and rng.random() < 0.3:
        c = c / 2
    return c


@pytest.mark.parametrize("tower", [F5U3, QUW], ids=["F5(u3)", "Q(u,w)"])
def test_poly_text_parses_back(tower):
    names = ("X1", "X2", "X3")
    rng = random.Random(8026)
    for _ in range(60):
        poly = {}
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randint(-2, 3) for _ in names)
            poly[exps] = _random_coefficient(rng, tower)
        poly = {e: c for e, c in poly.items() if not c.is_zero}
        text = cli._poly_text(names, poly)
        assert cli.parse_poly(text, tower, names) == poly, text


def test_symbol_named_like_a_variable_exits_2(tmp_path, capsys):
    path = tmp_path / "clash.vspec"
    path.write_text(Path(EXAMPLE).read_text().replace("symbols u3",
                                                      "symbols X3"))
    with pytest.raises(ParseError, match="also a variable"):
        cli.load_spec(str(path))
    assert cli.main(["monomialize", str(path)]) == 2
    assert "also a variable" in capsys.readouterr().err


# ----------------------------------------------------------- budgets

_BAD_BUDGETS = [("max_steps", -1), ("max_terms", 0), ("trunc_degree", 0)]


@pytest.mark.parametrize("key, bad",
                         _BAD_BUDGETS + [("trials", 0), ("trials", -5)])
def test_out_of_range_budget_flag_exits_2(key, bad, capsys):
    flag = "--" + key.replace("_", "-")
    assert cli.main(["verify", EXAMPLE, flag, str(bad)]) == 2
    assert "%s must be at least" % key in capsys.readouterr().err


@pytest.mark.parametrize("key, bad", _BAD_BUDGETS)
def test_out_of_range_budget_line_exits_2(key, bad, tmp_path, capsys):
    path = tmp_path / "budget.vspec"
    path.write_text(Path(EXAMPLE).read_text().replace(
        "symbols u3", "symbols u3\nbudgets %s=%d" % (key, bad)))
    assert cli.main(["verify", str(path)]) == 2
    assert "%s must be at least" % key in capsys.readouterr().err


# ----------------------------------------------------- monomialize

def test_monomialize_json_matches_golden(capsys):
    assert cli.main(["monomialize", EXAMPLE, "--json"]) == 0
    golden = (GOLDEN / "example_f5_monomialize.json").read_text()
    assert capsys.readouterr().out == golden


def test_monomialize_text_report(capsys):
    assert cli.main(["monomialize", EXAMPLE]) == 0
    out = capsys.readouterr().out
    assert "monoidal X4 -> Y4*Y1^2" in out
    assert "X3/X1 -> u3" in out
    assert "X2 -> (0,1,0)" in out
    assert "X4 -> (1,0,0)" in out


def test_text_report_maps_representative_to_its_residue(tmp_path, capsys):
    # the residue of X2/X1 is 1/u, not u: the report must not claim
    # an equation between the symbol and the representative
    path = tmp_path / "inverse.vspec"
    path.write_text(
        "field rationals\nrank 1\nvars X1 X2\nsymbols u\n"
        "image X1 = terms[(1): 1]\nimage X2 = terms[(1): 1/u]\n")
    assert cli.main(["monomialize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  X2/X1 -> 1/u\n" in out
    assert "u = X2/X1" not in out
    assert cli.main(["monomialize", "--json", str(path)]) == 0
    residue, = json.loads(capsys.readouterr().out)["residues"]
    assert residue["alpha"] == "1/u"


# ----------------------------------------------------- error paths

def test_starved_run_exits_inconclusive(capsys):
    assert cli.main(["monomialize", STARVED]) == 3
    err = capsys.readouterr().err
    assert "pseudo-convergent prefix" in err
    assert "(0,0,1)" in err and "(0,0,2)" in err


def test_starved_prefix_tracks_max_steps(capsys):
    assert cli.main(["monomialize", STARVED, "--max-steps", "3"]) == 3
    err = capsys.readouterr().err
    prefix = [line for line in err.splitlines()
              if line.startswith("  (")]
    assert len(prefix) == 3


def test_budget_stop_names_the_budget_and_prints_no_prefix(capsys):
    assert cli.main(["monomialize", EXAMPLE, "--lex-ceiling",
                     "(0,0,0)"]) == 3
    assert capsys.readouterr().err == (
        "inconclusive: lex ceiling exceeded: term (0, 0, 1) > "
        "lex_ceiling (0, 0, 0)\n"
        "budget lex_ceiling: raise it with --lex-ceiling\n")


def test_starved_stop_names_the_flag_that_raises_its_budget(capsys):
    assert cli.main(["monomialize", STARVED]) == 3
    assert capsys.readouterr().err == (
        "inconclusive: X2: no family matched after 2 subtractions "
        "(max_steps 2)\n"
        "budget max_steps: raise it with --max-steps\n"
        "pseudo-convergent prefix:\n"
        "  (0,0,1)\n"
        "  (0,0,2)\n")


@pytest.mark.parametrize("budget,advice", [
    ("max_steps", "raise it with --max-steps"),
    ("max_terms", "raise it with --max-terms"),
    ("work", "raise it with --max-terms"),
    ("lex_ceiling", "raise it with --lex-ceiling"),
    ("certificate", "no flag reaches it"),
])
def test_every_budget_stop_names_its_flag(budget, advice, monkeypatch,
                                          capsys):
    def stop(args):
        raise InconclusiveError("stopped", detail={"budget": budget,
                                                   "used": 1, "limit": 0})

    monkeypatch.setattr(cli, "cmd_monomialize", stop)
    assert cli.main(["monomialize", EXAMPLE]) == 3
    assert capsys.readouterr().err == (
        "inconclusive: stopped\nbudget %s: %s\n" % (budget, advice))


_CHAIN = ("field rationals\nrank 2\nvars X1 X2 X3\nsymbols u\n"
          "image X1 = terms[(0,1): 1]\nimage X2 = terms[(1,0): 1]\n"
          "image X3 = family[start=(0,1), step=(0,1), coeff=1, i=1..inf]"
          " + %s\n")


@pytest.mark.parametrize("tail,log,residue", [
    # Z3 = X3 - X1/(1-X1) - X2: a limit step, then a finite one
    ("terms[(1,0): 1, (1,1): u]",
     "family[start=(1,0,0), step=(1,0,0), coeff=1, i=1..inf] "
     "+ 1*Y^(0,1,0)", "X3/(X1*X2) -> u"),
    # Z3 = X3 - X1/(1-X1) - X2*2X1/(1-2X1): two limit steps
    ("family[start=(1,1), step=(0,1), coeff=2^i, i=1..inf] "
     "+ terms[(2,0): u]",
     "family[start=(1,0,0), step=(1,0,0), coeff=1, i=1..inf] "
     "+ family[start=(1,1,0), step=(1,0,0), coeff=(2)^i, i=1..inf]",
     "X3/X2^2 -> u"),
], ids=["terms-after-limit", "two-limits"])
def test_omega_k_correction_chain_exits_0(tail, log, residue, tmp_path,
                                          capsys):
    # a correction chain of order type omega*k is one coordinate change
    # that lists its summands in the order they were found
    spec = tmp_path / "chain.vspec"
    spec.write_text(_CHAIN % tail)
    assert cli.main(["monomialize", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "transform log:\n  coordinate change X3 = Z + %s\nvalue" % log \
        in out
    assert "residues (1):\n  %s\n" % residue in out
    assert cli.main(["verify", str(spec)]) == 0
    assert capsys.readouterr().out == \
        "checked 195 polynomials: 0 mismatches, 0 inconclusive\n"


def test_coordinate_change_json_lists_terms_then_families(tmp_path,
                                                          capsys):
    spec = tmp_path / "chain.vspec"
    spec.write_text(_CHAIN % "terms[(1,0): 1, (1,1): u]")
    assert cli.main(["monomialize", "--json", str(spec)]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["log"]
    assert entry == {
        "kind": "coordinate_change", "var": "X3",
        "terms": [{"alpha": "1", "R": [0, 1, 0]}],
        "tail": "family[start=(1,0,0), step=(1,0,0), coeff=1, i=1..inf]"}


def test_internal_fault_exits_5_not_4(monkeypatch, capsys):
    # a broken invariant is a fault of the program, not a purity verdict
    def fault(spec):
        raise InternalError("restart made no progress")

    monkeypatch.setattr(cli, "monomialize", fault)
    assert cli.main(["monomialize", EXAMPLE]) == 5
    assert capsys.readouterr().err == \
        "internal error: restart made no progress\n"
    assert not issubclass(InternalError, StructureError)


def test_purity_exits_4(capsys):
    assert cli.main(["monomialize", PURITY]) == 4
    assert "residue" in capsys.readouterr().err


def test_file_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.vspec"
    bad.write_text("field prime 5\nrank oops\n")
    assert cli.main(["basis", str(bad)]) == 2
    assert cli.main(["basis", str(tmp_path / "missing.vspec")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------- verify

def test_verify_command(capsys):
    assert cli.main(["verify", EXAMPLE, "--trials", "20",
                     "--seed", "11"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_at_a_large_trunc_degree(capsys):
    assert cli.main(["verify", EXAMPLE, "--trunc-degree", "1500",
                     "--trials", "2"]) == 0
    assert capsys.readouterr().out == \
        "checked 2 polynomials: 0 mismatches, 0 inconclusive\n"


@pytest.mark.parametrize("seed", [1, 7])
def test_verify_json_matches_golden(seed, capsys):
    assert cli.main(["verify", EXAMPLE, "--json", "--seed", str(seed)]) == 0
    golden = (GOLDEN / ("example_f5_verify_seed%d.json" % seed)).read_text()
    assert capsys.readouterr().out == golden


def test_parse_errors_give_an_offset_only_into_an_expression(capsys):
    assert cli.main(["verify", EXAMPLE, "--trials", "0"]) == 2
    assert capsys.readouterr().err == \
        "parse error: trials must be at least 1, got 0\n"
    assert cli.main(["value", EXAMPLE, "X1 + @"]) == 2
    assert capsys.readouterr().err == \
        "parse error: unexpected character '@' (at offset 5)\n"


# ----------------------------------------------------- entry point

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "monoval.cli", "value", EXAMPLE, "X1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(0,0,1)"


# ------------------------------------------------ sympy stays unloaded

_RUN_IN_CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
from monoval import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"runs": runs, "modules": sorted(sys.modules),
                  "added": sorted(set(sys.modules) - before)}))
"""


def _run_in_child(commands):
    """Run `cli.main` on each argv list in one fresh interpreter; return
    the (code, stdout, stderr) triples, the set of modules loaded and
    the set of those that importing and running monoval added."""
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_IN_CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["runs"], set(result["modules"]), set(result["added"])


def test_shipped_commands_do_not_import_sympy():
    # the same commands also load every module of the package: a module
    # that none of them loads is an orphan
    commands = [["monomialize", "--json", EXAMPLE]]
    commands += [["verify", EXAMPLE, "--seed", seed] for seed in "137"]
    commands += [["value", EXAMPLE, "X2 - X1"],
                 ["monomialize", STARVED],
                 ["monomialize", PURITY]]
    runs, loaded, added = _run_in_child(commands)
    assert [code for code, _, _ in runs] == [0, 0, 0, 0, 0, 3, 4]
    golden = (GOLDEN / "example_f5_monomialize.json").read_text()
    assert runs[0][1] == golden
    assert all(out.startswith("checked ") and " 0 mismatches" in out
               for _, out, _ in runs[1:4])
    assert runs[4][1] == "(0,0,2)\n"
    assert "sympy" not in loaded
    # records are plain classes: no per-process dataclass code generation
    assert not {"dataclasses", "inspect"} & added
    package = {"monoval"} | {"monoval." + path.stem
                             for path in SPECS.parent.glob("*.py")
                             if path.stem != "__init__"}
    assert {m for m in loaded if m.split(".")[0] == "monoval"} == package


def test_fraction_coefficient_loads_sympy_on_demand(tmp_path):
    # a coefficient with a non-monomial denominator is the one route
    # that needs sympy's FracField; it must still be found and give the
    # same answers as the monomial coefficient u3 it replaces
    old, new = "terms[(0,0,1): u3]", "terms[(0,0,1): u3/(u3 + 1)]"
    text = Path(EXAMPLE).read_text()
    assert text.count(old) == 1
    spec = tmp_path / "example_f5_fraction.vspec"
    spec.write_text(text.replace(old, new.replace(" ", "")))
    runs, loaded, _ = _run_in_child([
        ["monomialize", "--json", str(spec)],
        ["verify", str(spec), "--seed", "1"]])
    assert "sympy" in loaded
    golden = (GOLDEN / "example_f5_monomialize.json").read_text()
    want = golden.replace(old, new).replace('"alpha": "u3"',
                                            '"alpha": "u3/(u3 + 1)"')
    assert want != golden
    assert runs[0] == [0, want, ""]
    assert runs[1] == [
        0, "checked 176 polynomials: 0 mismatches, 0 inconclusive\n", ""]
