"""Command-line surface: DSL parsing, evaluation, formatting, verbs, verify.

Frozen expectations:
  * grammar is left-associative; "X[2,*]" fails at byte offset 4
  * fuse -p 3 "X[2,+]*X[3,+]"  ->  2*X[1,-] + 2*X[2,+]
  * fuse -p 2 "M[3,1]*M[3,1]"  ->  M[5,1]
  * the index letter p resolves to the -p value
  * jw, braid-check, fpdim and twists print exactly their frozen text
  * exit codes: 0 ok, 1 verification failure, 2 usage/parse trouble
  * the argparse tree is built once per process, and a call after any
    other prints what it prints in a fresh process
"""

import contextlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import ribbonkit
from ribbonkit import checks, cli, fusion
from ribbonkit.cyclo import field
from ribbonkit.cli import (
    MAX_DEPTH,
    MAX_PARENS,
    DSLSyntaxError,
    EvalError,
    build_parser,
    evaluate,
    format_combination,
    main,
    parse,
    print_expression,
    random_expression,
    twist_table_json,
)
from ribbonkit.ribbon import wp_twists


# -- parser -------------------------------------------------------------------


def test_parse_product():
    ast = parse("X[2,+] * X[3,+]")
    assert ast == ("mul", ("atom", "X", (2, 1)), ("atom", "X", (3, 1)))


def test_parse_left_associative():
    v = ("atom", "V", (2,))
    assert parse("V[2]*V[2]*V[2]") == ("mul", ("mul", v, v), v)
    assert parse("V[2]+V[2]+V[2]") == ("add", ("add", v, v), v)


def test_parse_atoms():
    assert parse("chi") == ("atom", "chi", ())
    assert parse("M[-1,2]") == ("atom", "M", (-1, 2))
    assert parse("L[1,2]") == ("atom", "L", (1, 2))
    assert parse("X[p,+]") == ("atom", "X", ("p", 1))
    assert parse("7") == ("int", 7)


def test_parse_precedence_and_parens():
    got = parse("2*V[2] + V[1]")
    assert got[0] == "add" and got[1][0] == "mul"
    got = parse("2*(V[2] + V[1])")
    assert got[0] == "mul" and got[2][0] == "add"


def test_parse_sign_slot_error_offset():
    with pytest.raises(DSLSyntaxError) as err:
        parse("X[2,*]")
    assert err.value.offset == 4


def test_parse_truncated_input():
    with pytest.raises(DSLSyntaxError):
        parse("V[2] +")
    with pytest.raises(DSLSyntaxError):
        parse("")
    with pytest.raises(DSLSyntaxError):
        parse("V[2] V[3]")


def test_print_round_trip_frozen():
    for text in [
        "X[2,+]*X[3,+]",
        "V[2]*V[2]*V[2]",
        "2*chi + V[2] - 3*M[-1,2]",
        "2*(V[2] + V[1])*chi",
        "V[2] - (V[1] - V[2])",
        "X[p,+]",
    ]:
        ast = parse(text)
        assert parse(print_expression(ast)) == ast


def test_random_round_trip():
    rng = random.Random(20260822)
    for _ in range(300):
        ast = random_expression(rng)
        assert parse(print_expression(ast)) == ast


# -- evaluation ---------------------------------------------------------------


def test_evaluate_wp_product():
    got = evaluate(parse("X[2,+]*X[3,+]"), p=3)
    assert got == Counter({(1, -1): 2, (2, 1): 2})


def test_evaluate_scalar_and_unit():
    assert evaluate(parse("1*X[2,+]"), p=3) == Counter({(2, 1): 1})
    assert evaluate(parse("X[2,+] + 1"), p=3) == Counter(
        {(2, 1): 1, (1, 1): 1}
    )


def test_evaluate_singlet():
    got = evaluate(parse("M[3,1]*M[3,1]"), p=2, rmax=8)
    assert got == Counter({(5, 1): 1})


def test_evaluate_uq_atoms():
    assert evaluate(parse("chi*V[2]"), p=3) == Counter({(2, 1): 1})
    assert evaluate(parse("chi*chi"), p=3) == Counter({(1, 0): 1})
    assert evaluate(parse("V[2]*V[2] - V[1]"), p=3) == Counter({(3, 0): 1})


def test_evaluate_p_binding():
    assert evaluate(parse("X[p,+]"), p=5) == Counter({(5, 1): 1})


def test_evaluate_vir():
    got = evaluate(parse("L[2,1]*L[2,1]"), p=3, rmax=8)
    assert got == Counter({(1, 1): 1, (3, 1): 1})


def test_evaluate_errors():
    with pytest.raises(EvalError):
        evaluate(parse("V[2]*X[1,+]"), p=3)  # mixed families
    with pytest.raises(EvalError):
        evaluate(parse("V[9]"), p=3)  # outside the label range
    with pytest.raises(EvalError):
        evaluate(parse("2"), p=3)  # no atoms, no ring
    with pytest.raises(EvalError):
        evaluate(parse("M[3,1]*M[3,1]"), p=2, rmax=3)  # leaves the window


def test_evaluate_reassociation_agrees():
    rng = random.Random(7)
    labels = ["X[1,+]", "X[1,-]", "X[2,+]", "X[2,-]", "X[3,+]", "X[3,-]"]
    for _ in range(25):
        picks = [rng.choice(labels) for _ in range(3)]
        a = evaluate(parse(f"({picks[0]}*{picks[1]})*{picks[2]}"), p=3)
        b = evaluate(parse(f"{picks[0]}*({picks[1]}*{picks[2]})"), p=3)
        assert a == b


# test-only copies of the hand-written evaluation loops that fusion.linear
# and Counter.update/subtract replaced


def _loop_add_into(acc: dict, combo: dict, scale: int):
    for lab, mult in combo.items():
        acc[lab] = acc.get(lab, 0) + scale * mult
    return acc


def _loop_eval(node, ring, p):
    kind = node[0]
    if kind == "int":
        return {ring.unit: node[1]}
    if kind == "atom":
        return {cli._atom_label(node, ring, p): 1}
    left = _loop_eval(node[1], ring, p)
    right = _loop_eval(node[2], ring, p)
    if kind == "add":
        return _loop_add_into(dict(left), right, 1)
    if kind == "sub":
        return _loop_add_into(dict(left), right, -1)
    out: dict = {}
    for la, ca in left.items():
        for lb, cb in right.items():
            _loop_add_into(out, ring.product(la, lb), ca * cb)
    return out


def _outcome(evaluator, node, p, rmax):
    try:
        combo = evaluator(node, p, rmax)
    except ValueError as err:
        return type(err).__name__, str(err)
    return "ok", list(combo.items())


_LOOP_RINGS = {
    "uq": lambda p, rmax: fusion.uq_ring(p),
    "wp": lambda p, rmax: fusion.wp_ring(p),
    "vir": fusion.vir_ring,
    "singlet": fusion.singlet_ring,
}


def _loop_evaluate(node, p, rmax):
    ring = _LOOP_RINGS[cli.expression_family(node)](p, rmax)
    try:
        combo = _loop_eval(node, ring, p)
    except fusion.TruncationOverflow as err:
        raise EvalError(str(err)) from err
    return Counter({lab: mult for lab, mult in combo.items() if mult})


def _one_family(node, letter: str):
    # the same tree with every atom moved into the family of letter, so
    # that products and window refusals occur, not only mixed-ring ones
    if node[0] == "int":
        return node
    if node[0] != "atom":
        return (node[0], _one_family(node[1], letter),
                _one_family(node[2], letter))
    r, s = ([v if isinstance(v, int) else 2 for v in node[2]] + [1, 1])[:2]
    if letter == "V":
        return ("atom", "V", (abs(r) % 5 + 1,))
    if letter == "X":
        return ("atom", "X", (abs(r) % 5 + 1, 1 if s % 2 else -1))
    if letter == "L":
        return ("atom", "L", (abs(r) % 4 + 1, s % 4 + 1))
    return ("atom", "M", (r % 7 - 3, s % 4 + 1))


def test_evaluate_matches_the_loop():
    # the same Counter, key order included, or the same refusal text, on
    # random expressions at p <= 7 and windows <= 6
    rng = random.Random(15)
    seen = Counter()
    for _ in range(400):
        node = random_expression(rng)
        for tree in (node, *(_one_family(node, x) for x in "VXLM")):
            p, rmax = rng.randint(2, 7), rng.randint(1, 6)
            want = _outcome(_loop_evaluate, tree, p, rmax)
            assert _outcome(evaluate, tree, p, rmax) == want, (tree, p, rmax)
            seen["ok" if want[0] == "ok" else
                 "window" if "r_max" in want[1] else "other"] += 1
    assert min(seen["ok"], seen["window"], seen["other"]) >= 100, seen


def test_fuse_refuses_a_zero_multiple_outside_the_window(capsys):
    # a product is formed even where its multiplicity is zero
    argv = ["fuse", "-p", "2", "--rmax", "3", "(M[3,1]-M[3,1])*M[3,1]"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: label (5, 1) outside the r_max=3 window"]


# -- formatting ---------------------------------------------------------------


def test_format_combination_wp():
    got = format_combination(Counter({(1, -1): 2, (2, 1): 2}), "wp")
    assert got == "2*X[1,-] + 2*X[2,+]"
    assert format_combination(Counter({(5, 1): 1}), "singlet") == "M[5,1]"


def test_format_combination_uq():
    got = format_combination(Counter({(1, 1): 2, (2, 0): 1}), "uq")
    assert got == "2*chi + V[2]"
    assert format_combination(Counter({(2, 1): 3}), "uq") == "3*chi*V[2]"
    assert format_combination(Counter(), "uq") == "0"


def test_format_combination_negative():
    got = format_combination(Counter({(1, 0): 2, (2, 0): -1}), "uq")
    assert got == "2*V[1] - V[2]"
    got = format_combination(Counter({(2, 0): -2}), "uq")
    assert got == "0 - 2*V[2]"
    # every formatted combination re-parses and re-evaluates to itself
    back = evaluate(parse(got), p=3)
    assert back == Counter({(2, 0): -2})


def test_twist_table_json():
    j = twist_table_json(wp_twists(2))
    assert j["field"] == "cyclotomic(N=8)"
    entries = {tuple(lab): val for lab, val in j["theta"]}
    assert entries[(1, 1)] == "1"


# -- command verbs ------------------------------------------------------------


def test_cmd_fuse(capsys):
    assert main(["fuse", "-p", "3", "X[2,+]*X[3,+]"]) == 0
    assert capsys.readouterr().out.strip() == "2*X[1,-] + 2*X[2,+]"
    assert main(["fuse", "-p", "2", "M[3,1]*M[3,1]"]) == 0
    assert capsys.readouterr().out.strip() == "M[5,1]"


def test_cmd_fuse_json(capsys):
    assert main(["fuse", "-p", "3", "--format", "json", "X[2,+]*X[2,+]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verb"] == "fuse"
    assert payload["p"] == 3
    assert payload["pretty"] == "X[1,+] + X[3,+]"
    assert [[1, 1], 1] in payload["result"]


def test_cmd_fuse_errors(capsys):
    assert main(["fuse", "-p", "3", "X[2,*]"]) == 2
    err = capsys.readouterr().err
    assert "offset 4" in err
    assert main(["fuse", "-p", "3", "V[9]"]) == 2
    assert main(["fuse", "-p", "2", "--rmax", "3", "M[3,1]*M[3,1]"]) == 2


def _no_window(self):
    raise AssertionError("the whole window was built")


def test_cmd_fuse_checks_atoms_without_the_window(capsys, monkeypatch):
    # atoms are checked by the ring's bounds, never against a label set
    monkeypatch.setattr(fusion.TruncatedRing, "labels", property(_no_window))
    assert main(["fuse", "-p", "3", "L[2,1]*L[2,1]"]) == 0
    assert capsys.readouterr().out == "L[1,1] + L[3,1]\n"
    assert main(["fuse", "-p", "3", "M[-2,3]*M[3,1]"]) == 0
    assert capsys.readouterr().out == "M[0,3]\n"
    assert main(["fuse", "-p", "4", "--rmax", "8", "L[9,1]*L[1,1]"]) == 2
    assert capsys.readouterr() == (
        "", "error: label L[9,1] is not in the p=4 ring\n")
    # 2*10**8 + 1 first indices: the atom check reads only the bounds
    big = "M[100000000,1]*M[100000000,1]"
    assert main(["fuse", "-p", "2", big, "--rmax", "100000000"]) == 2
    assert capsys.readouterr() == (
        "", "error: label (199999999, 1) outside the r_max=100000000 "
        "window\n")


def _no_ring(p):
    raise AssertionError("a product table was built")


def test_cmd_fuse_refuses_atoms_before_the_ring(capsys, monkeypatch):
    # atoms of the finite rings are checked against the label bijection,
    # and evaluation reaches an atom before any product that reads it, so
    # an atom outside the ring is refused before a product table exists
    monkeypatch.setattr(cli, "uq_ring", _no_ring)
    monkeypatch.setattr(cli, "wp_ring", _no_ring)
    for expr, atom in (("V[31]*V[1]", "V[31]"),
                       ("X[2,+]*X[31,-]", "X[31,-]"),
                       ("2 + chi*V[0]", "V[0]")):
        assert main(["fuse", "-p", "30", expr]) == 2
        assert capsys.readouterr() == (
            "", f"error: label {atom} is not in the p=30 ring\n")
    # atoms inside the ring still reach the product table in a product
    with pytest.raises(AssertionError, match="product table"):
        main(["fuse", "-p", "30", "V[30]*V[1]"])
    with pytest.raises(AssertionError, match="product table"):
        main(["fuse", "-p", "30", "X[30,+] + X[1,-]*2"])


def test_cmd_fuse_sums_without_the_ring(capsys, monkeypatch):
    # a sum reads only the labels and the unit: no product table is built,
    # and the lines are those that the ring route printed
    monkeypatch.setattr(cli, "uq_ring", _no_ring)
    monkeypatch.setattr(cli, "wp_ring", _no_ring)
    for expr, line in (("V[2] + chi", "chi + V[2]"),
                       ("2 - V[30] + chi", "2*V[1] + chi - V[30]"),
                       ("X[2,+] + X[1,-] - 3", "X[1,-] - 3*X[1,+] + X[2,+]"),
                       ("(X[30,-] - 1) - X[30,-]", "0 - X[1,+]")):
        assert main(["fuse", "-p", "30", expr]) == 0
        assert capsys.readouterr() == (line + "\n", "")
    assert main(["fuse", "-p", "30", "V[31] + chi"]) == 2
    assert capsys.readouterr() == (
        "", "error: label V[31] is not in the p=30 ring\n")


def test_evaluate_builds_a_finite_ring_at_most_once(monkeypatch):
    # the product table is built at the first product and serves the rest;
    # a sum builds none
    built = []

    def counted(real):
        def build(p):
            built.append(real.__name__)
            return real(p)
        return build

    monkeypatch.setattr(cli, "uq_ring", counted(fusion.uq_ring))
    monkeypatch.setattr(cli, "wp_ring", counted(fusion.wp_ring))
    for text, rings in (("(V[2]+chi)*V[3]*V[2]", ["uq_ring"]),
                        ("(X[2,+]+X[1,-])*X[3,+]*X[2,+]", ["wp_ring"]),
                        ("V[2] + chi - 3", []),
                        ("X[2,+] + X[1,-] - 3", [])):
        built.clear()
        node = parse(text)
        assert evaluate(node, 5) == _loop_evaluate(node, 5, None)
        assert built == rings, text


def _readme_examples():
    # (argv, output lines) of each `$ ribbonkit ...` example in README's sh
    # blocks; a block whose output is elided with `...` is left out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = block.splitlines()
        if "..." in lines:
            continue
        for line in lines:
            if line.startswith("$ ribbonkit "):
                examples.append((shlex.split(line)[2:], []))
            elif line and examples and not line.startswith("$"):
                examples[-1][1].append(line)
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert README_EXAMPLES


@pytest.mark.parametrize("argv, lines", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples(capsys, argv, lines):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_cmd_fuse_range(capsys):
    assert main(["fuse", "-p", "2..3", "V[2]*V[2]"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["p=2: 2*V[1] + 2*chi", "p=3: V[1] + V[3]"]


def test_cmd_jw(capsys):
    assert main(["jw", "-p", "5", "-n", "3"]) == 0
    assert capsys.readouterr().out == (
        "p=5: jw(3) terms=5 idempotent=yes hooks-killed=yes markov=-1\n")
    assert main(["jw", "-p", "3", "-n", "3"]) == 2


def test_cmd_jw_line_at_n_9(capsys):
    # one idempotency route at every n: jw(9) reads like jw(3), in text
    # and in JSON
    assert main(["jw", "-p", "10", "-n", "9"]) == 0
    assert capsys.readouterr().out == (
        "p=10: jw(9) terms=4862 idempotent=yes hooks-killed=yes markov=0\n")
    assert main(["jw", "-p", "10", "-n", "9", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verb": "jw", "p": 10, "n": 9, "terms": 4862, "idempotent": True,
        "hooks_killed": True, "markov": "0"}


# verb: (argv after the p range, attribute of cli, spoil of its p=3 result,
# a text that only the p=3 row prints)
_BROKEN_AT_3 = {
    "jw": (["-n", "1"], "jw_problems",
           lambda r: (["jw(1) is not idempotent"],
                      (r[1][0], False, r[1][2], r[1][3])), "idempotent=NO"),
    "braid-check": ([], "hexagon_solutions",
                    lambda r: (False, "three solutions", r[2][:3]),
                    "solutions=3"),
    "fpdim": ([], "category_dimension",
              lambda r: (False, "routes disagree", (r[2][0], r[2][1] + 1)),
              "routes disagree"),
    "twists": ([], "twists_match",
               lambda r: (False, "mismatch at [(1, 1)]", r[2]), "agrees: NO"),
    "verify": (["--suite", "fpdim"], None, None, "[fail] p=3 fpdim.category"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("verb", list(_BROKEN_AT_3))
def test_cmd_reports_every_p(capsys, monkeypatch, verb, fmt):
    # a failure at one p of the range is counted, not an early return: the
    # run exits 1 and still prints every p, in order
    rest, attr, spoil, marker = _BROKEN_AT_3[verb]
    if attr is None:
        real = checks.CHECKS["fpdim.category"]
        monkeypatch.setitem(checks.CHECKS, "fpdim.category", lambda p, env: (
            (False, "spoiled at p=3") if p == 3 else real(p, env)))
    else:
        real = getattr(cli, attr)

        def broken(arg, *more):
            out = real(arg, *more)
            return spoil(out) if getattr(arg, "p", arg) == 3 else out

        monkeypatch.setattr(cli, attr, broken)
    assert main([verb, "-p", "2..4", "--format", fmt] + rest) == 1
    lines = capsys.readouterr().out.splitlines()
    if fmt == "json":
        rows = [json.loads(line) for line in lines]
        ps = [row["p"] for row in rows]
        # the failing row carries its details; a passing row has no
        # "problems" key at all
        if verb == "verify":
            failing = [row["p"] for row in rows if row["status"] == "fail"]
        else:
            failing = [row["p"] for row in rows if "problems" in row]
            assert all(row["problems"] for row in rows if "problems" in row)
        assert failing == [3]
    else:
        ps = [int(re.search(r"p=(\d+)", line).group(1)) for line in lines]
        assert [p for p, line in zip(ps, lines) if marker in line] == [3]
    # verify and twists may give one p several lines, all together
    assert [p for p, _ in itertools.groupby(ps)] == [2, 3, 4]


def _closure_plus_one(real):
    def spoiled(ctx, n):
        e, idempotent, alive, closure = real(ctx, n)
        return e, idempotent, alive, closure + 1
    return spoiled


# attribute of checks, spoil of it given the real one, the suite whose row
# must fail, and the verb argv that must fail with it
_SPOILED_INPUTS = {
    "hexagon": ("hexagon_winners",
                lambda real: lambda ctx: [ctx.root(j) for j in range(4)],
                "braiding", ["braid-check", "-p", "3"]),
    "fpdim": ("fpdim_category", lambda real: lambda ring, classes: 5,
              "fpdim", ["fpdim", "-p", "3"]),
    "jw closure": ("jw_audit", _closure_plus_one,
                   "jw", ["jw", "-p", "5", "-n", "3"]),
}


@pytest.mark.parametrize("case", list(_SPOILED_INPUTS))
def test_verb_and_row_fail_together(capsys, monkeypatch, case):
    # one input spoiled inside checks fails the row and the verb of the same
    # statement, and the verb's text carries the failing row's detail
    attr, spoil, suite, argv = _SPOILED_INPUTS[case]
    monkeypatch.setattr(checks, attr, spoil(getattr(checks, attr)))
    assert main(["verify", "--suite", suite, "-p", argv[2],
                 "--format", "json"]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    parts = {part for row in rows if row["status"] == "fail"
             for part in row["detail"].split("; ")}
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert any(f"({part})" in out for part in parts), (parts, out)


def test_cmd_braid_check(capsys):
    assert main(["braid-check", "-p", "4"]) == 0
    assert capsys.readouterr().out == (
        "p=4: hexagon solutions=4 (expected 4) yang-baxter=yes "
        "inverse-pairs=yes\n")


def test_cmd_fpdim(capsys):
    assert main(["fpdim", "-p", "2..5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["p=2: 16", "p=3: 54", "p=4: 128", "p=5: 250"]


def test_cmd_twists(capsys):
    assert main(["twists", "-p", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "p=2 X[1,-]: 1",
        "p=2 X[1,+]: 1",
        "p=2 X[2,-]: z^3",
        "p=2 X[2,+]: -z^3",
        "p=2 module route (inverse twists) agrees: yes",
    ]
    assert main(["twists", "-p", "2", "--format", "json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "field", "theta", "verb", "p", "module_route_agrees"]


def test_cmd_muger(capsys):
    assert main(["muger", "-p", "3"]) == 0
    out = capsys.readouterr().out
    assert "X[1,+]" in out and "M[3,1]" in out


def test_cmd_phase(capsys):
    assert main(["phase", "-p", "2", "0", "0", "1/2"]) == 0
    want = str(field(2).root(2))
    assert capsys.readouterr().out.strip() == want
    assert main(["phase", "-p", "2", "--squared", "0", "0", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == str(field(2).root(4))
    assert main(["phase", "-p", "2", "0", "0", "1/3"]) == 2


@pytest.mark.parametrize("weights", [
    ["-1/2", "0", "0"], ["--", "-1/2", "0", "0"], ["-0.5", "0", "0"],
])
def test_cmd_phase_negative_weight(capsys, weights):
    # a negative fraction is a weight, not an option, with or without "--"
    assert main(["phase", "-p", "3"] + weights) == 0
    assert capsys.readouterr() == ("z^3\n", "")


def test_module_entry_point_quiet_stderr():
    # `python -m ribbonkit.cli` runs the front end without a runpy warning
    env = dict(os.environ,
               PYTHONPATH=str(Path(ribbonkit.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ribbonkit.cli", "fpdim", "-p", "2"],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == b"p=2: 16\n"
    assert proc.stderr == b""


_STDLIB_ONLY = """
import sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "ribbonkit" and top not in sys.stdlib_module_names:
            raise ModuleNotFoundError(f"No module named {name!r}")

sys.meta_path.insert(0, StdlibOnly())
from ribbonkit.cli import main
assert main(["fpdim", "-p", "2..4"]) == 0
assert main(["fuse", "-p", "3", "X[2,+]*X[3,+]"]) == 0
"""


def test_runs_on_the_standard_library_alone():
    # the package has no runtime dependency: with every import outside the
    # standard library refused, the exact routes, the power iteration behind
    # the integer characters included, still run
    env = dict(os.environ,
               PYTHONPATH=str(Path(ribbonkit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _STDLIB_ONLY],
                          capture_output=True, env=env, timeout=120)
    assert proc.stderr == b""
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines() == [
        "p=2: 16", "p=3: 54", "p=4: 128", "2*X[1,-] + 2*X[2,+]"]


def test_cmd_usage(capsys):
    assert main([]) == 2
    assert main(["fuse", "-p", "1", "V[1]"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def _refusal_id(value):
    # a row is named by its message without the "argument <name>: " that
    # argparse puts before it
    if isinstance(value, str):
        return re.sub(r"^error: (argument \S+: )?", "", value)
    return None


@pytest.mark.parametrize("argv, line", [
    (["phase", "-p", "3", "1/0", "0", "0"],
     "error: argument h: invalid conformal weight '1/0'"),
    (["phase", "-p", "3", "0", "x/2", "0"],
     "error: argument h: invalid conformal weight 'x/2'"),
    (["fuse", "-p", "3", "--rmax", "0", "M[1,1]"],
     "error: argument --rmax: window must be >= 1, got 0"),
    (["fuse", "-p", "3", "--rmax", "-2", "M[1,1]"],
     "error: argument --rmax: window must be >= 1, got -2"),
    (["verify", "-p", "3", "--suite", "phase", "--rmax", "2"],
     "error: argument --rmax: window must be >= 3, got 2"),
    (["verify", "-p", "3", "--suite", "modularity", "--rmax", "1"],
     "error: argument --rmax: window must be >= 3, got 1"),
    # at window 1 the Muger scan skips nearly every pair as an overflow
    (["muger", "-p", "3", "--rmax", "1"],
     "error: argument --rmax: window must be >= 2, got 1"),
    ([], "error: the following arguments are required: verb"),
    (["phase", "-p", "2", "1", "2"],
     "error: the following arguments are required: h"),
    (["phase", "-p", "3", "--bogus", "0", "0", "0"],
     "error: unrecognized arguments: --bogus"),
    (["phase", "-p", "3", "-1/0", "0", "0"],
     "error: argument h: invalid conformal weight '-1/0'"),
    (["fpdim", "-p", "2.."],
     "error: -p must be an integer P or a range A..B, got '2..'"),
    (["fpdim", "-p", "x"],
     "error: -p must be an integer P or a range A..B, got 'x'"),
    (["fpdim", "-p", "..5"],
     "error: -p must be an integer P or a range A..B, got '..5'"),
    (["fpdim", "-p", "5..3"],
     "error: p range '5..3' must satisfy 2 <= first <= last"),
    # a verb takes only the options it reads
    (["twists", "-p", "3", "--rmax", "3"],
     "error: unrecognized arguments: --rmax 3"),
], ids=_refusal_id)
def test_cmd_malformed_argument(capsys, argv, line):
    # refused before any work: exit 2, one stderr line and no usage block
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [line]


def test_cmd_unknown_choice(capsys):
    # the list of choices after the message is worded differently across
    # Python versions, so only the start of the one line is fixed
    assert main(["verify", "--suite", "nope"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: argument --suite: invalid choice: 'nope'")


@pytest.mark.parametrize("expr, message", [
    pytest.param("(" * 3000 + "X[1,+]" + ")" * 3000,
     f"parentheses nested deeper than {MAX_PARENS} at offset {MAX_PARENS}",
     id="3000-parentheses"),
    # a flat sum parses to a left-deep tree; the refusal names the operator
    # that would make it MAX_DEPTH + 1 levels deep
    pytest.param("+".join(["X[1,+]"] * 3000),
                 f"expression nested deeper than {MAX_DEPTH} levels "
                 f"at offset {7 * MAX_DEPTH - 1}", id="3000-term-sum"),
])
def test_cmd_fuse_too_deep(capsys, expr, message):
    assert main(["fuse", "-p", "3", expr]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {message}"]


def test_cmd_fuse_deep_within_limits(capsys):
    assert main(["fuse", "-p", "3", "+".join(["X[1,+]"] * 400)]) == 0
    assert capsys.readouterr().out.strip() == "400*X[1,+]"
    # both limits reached at once still fit inside the recursion limit
    chain = "+".join(["X[1,+]"] * MAX_DEPTH)
    expr = "(" * MAX_PARENS + chain + ")" * MAX_PARENS
    assert main(["fuse", "-p", "3", "--format", "json", expr]) == 0
    assert json.loads(capsys.readouterr().out)["pretty"] == (
        f"{MAX_DEPTH}*X[1,+]")


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_cmd_closed_pipe_exits_quietly(unbuffered):
    # `ribbonkit fpdim -p 2..6 | head -0`: the reader is gone before the
    # first line, whether output is flushed per line or once at the end
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(ribbonkit.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from ribbonkit.cli import main; sys.exit(main())",
         "fpdim", "-p", "2..6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_cmd_huge_range_streams():
    # the p range is walked, never listed: with p up to 10**30 the first row
    # comes out at once, and the run ends quietly when the reader goes away
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(ribbonkit.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ribbonkit.cli", "fpdim", "-p",
         f"2..{10 ** 30}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert (first, err) == (b"p=2: 16\n", b"")


@pytest.mark.parametrize("argv, message", [
    (["--triples", "-5", "--roundtrips", "-3"], "count must be >= 0, got -5"),
    (["--roundtrips", "-3"], "count must be >= 0, got -3"),
    (["--triples", "x"], "invalid count 'x'"),
])
def test_verify_negative_counts(capsys, argv, message):
    base = ["verify", "--suite", "properties", "-p", "3"]
    assert main(base + argv) == 2
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and errors[0].endswith(message)
    assert "Traceback" not in captured.err and "[pass]" not in captured.out


# -- verify -------------------------------------------------------------------


def test_verify_window_three_accepted(capsys):
    # the lower side of this limit is in test_cmd_malformed_argument
    argv = ["verify", "-p", "2..3", "--rmax", "3"]
    assert main(argv + ["--suite", "phase"]) == 0
    assert main(argv + ["--suite", "modularity"]) == 0
    out = capsys.readouterr().out
    assert "phase.linking" in out and "modularity.singlet_center" in out
    assert "[fail]" not in out
    # muger takes any window from 2 up, the other verbs any window from 1
    assert main(["muger", "-p", "3", "--rmax", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "p=3 wp: X[1,+]"


def test_verify_single_suite(capsys):
    assert main(["verify", "-p", "2", "--suite", "fpdim"]) == 0
    out = capsys.readouterr().out
    assert "fpdim" in out and "pass" in out


def test_verify_json_lines(capsys):
    assert main(
        ["verify", "-p", "2..3", "--suite", "twists", "--format", "json"]
    ) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert lines
    for line in lines:
        payload = json.loads(line)
        assert set(payload) >= {"check", "p", "status", "detail"}
        assert payload["status"] == "pass"
        assert payload["p"] in (2, 3)


def test_verify_braiding_suite(capsys):
    assert main(["verify", "-p", "3", "--suite", "braiding"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "fail" not in out


def test_verify_properties_smoke(capsys):
    # trimmed triple count keeps this a smoke test; acceptance runs it full
    assert main(
        ["verify", "-p", "2", "--suite", "properties", "--seed", "11",
         "--triples", "50", "--roundtrips", "50"]
    ) == 0
    capsys.readouterr()


# -- pinned outputs -----------------------------------------------------------

_EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_pinned_outputs_replay():
    # every request pinned in bench/expected.json, keyed by its argv joined
    # with spaces, prints the same again: session requests byte for byte
    # with their exit codes, verify runs row for row without elapsed times
    pinned = json.loads(_EXPECTED.read_text())
    assert len(pinned["session"]) == 321 and len(pinned["verify"]) == 2
    for key, want in pinned["session"].items():
        got = _main_output(key.split(" "))
        assert got == (want["exit"], want["stdout"], want["stderr"]), key
    for key, want in pinned["verify"].items():
        code, out, err = _main_output(key.split(" "))
        rows = [json.loads(line) for line in out.splitlines()]
        for row in rows:
            row.pop("elapsed", None)
        assert (code, err, rows) == (0, "", want), key


# -- one parser per process ---------------------------------------------------

VERBS = ("fuse", "jw", "braid-check", "fpdim", "twists", "muger", "phase",
         "verify")

_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from ribbonkit.cli import build_parser, main
built_at_import = build_parser.cache_info().misses
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"built_at_import": built_at_import, "runs": runs,
                  "builds": build_parser.cache_info().misses}))
"""


def _in_one_process(*argvs):
    """Run the argvs in order through main in one fresh interpreter; returns
    its report: builds before the first call and after the last, and
    [exit code, stdout, stderr] per call.  Help is wrapped at 80 columns
    whatever terminal the tests run in."""
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(ribbonkit.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IN_ONE_PROCESS, json.dumps(argvs)],
        capture_output=True, env=env, timeout=120, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    return json.loads(proc.stdout)


def _no_elapsed(run):
    code, out, err = run
    return [code, re.sub(r"\(\d+\.\d+s\)", "(elapsed)", out), err]


def test_parser_built_once_per_process():
    for argv in (["fpdim", "-p", "2"], ["nonsense"], ["fuse", "-h"]):
        main(argv)
    assert build_parser.cache_info().misses == 1
    report = _in_one_process(*[["fpdim", "-p", "2"], ["-h"], []] * 3)
    assert report["built_at_import"] == 0  # import time does not pay for it
    assert report["builds"] == 1
    assert [code for code, _, _ in report["runs"]] == [0, 0, 2] * 3


@pytest.mark.parametrize("first, second", [
    (["phase", "-p", "2", "--squared", "0", "0", "1/2"],
     ["phase", "-p", "2", "0", "0", "1/2"]),
    (["verify", "--suite", "jw", "-p", "2"],
     ["verify", "--suite", "braiding", "-p", "2"]),
    # at window 3 M[3,1]*M[3,1] overflows; at the default window it is M[5,1]
    (["fuse", "--rmax", "3", "-p", "2", "M[2,1]*M[2,1]"],
     ["fuse", "-p", "2", "M[3,1]*M[3,1]"]),
    (["fuse", "-p", "1", "V[1]"], ["fuse", "-p", "3", "X[2,+]*X[3,+]"]),
    (["-h"], ["fuse", "-p", "3", "X[2,+]*X[3,+]"]),
], ids=["phase-squared", "verify-suite", "fuse-window", "fuse-refused",
        "help"])
def test_reused_parser_leaks_nothing(first, second):
    # the second call prints what it prints in a fresh process
    report = _in_one_process(first, second)
    alone = _in_one_process(second)["runs"][0]
    assert _no_elapsed(report["runs"][1]) == _no_elapsed(alone)
    assert alone[0] == 0 and alone[2] == ""
    assert report["builds"] == 1


def test_help_text_same_on_every_call():
    argvs = [["-h"]] + [[verb, "-h"] for verb in VERBS]
    runs = _in_one_process(*argvs, *argvs)["runs"]
    assert runs[:len(argvs)] == runs[len(argvs):]
    for (code, out, err), argv in zip(runs, argvs * 2):
        assert code == 0 and err == ""
        assert out.startswith(f"usage: {' '.join(['ribbonkit'] + argv[:-1])}")


# -- CLI fuzzer ---------------------------------------------------------------

# every size stays small: p <= 5, n <= 4, windows <= 6, and verify runs one
# cheap suite with no random triples or round trips
_CHEAP_SUITES = ("fpdim", "braiding", "jw", "twists", "phase", "grring")
_CHECK_VERBS = {"verify", "jw", "braid-check", "fpdim", "twists"}


def _small_ints(lo, hi):
    return st.integers(lo, hi).map(str)


# each generator mixes well-formed values with junk, so that the verbs run
# as often as argparse and the range parser refuse
_P = st.one_of(
    _small_ints(2, 5),
    st.tuples(st.integers(2, 5), st.integers(2, 5)).map(
        lambda ends: f"{min(ends)}..{max(ends)}"),
    st.sampled_from(["1", "2..1", "x", "2..", "..3", "", "-1", "0..4"]),
)
_INDEX = _small_ints(-2, 6) | st.just("p")
_ATOM = st.one_of(
    st.just("chi"),
    _small_ints(0, 3),
    _INDEX.map(lambda s: f"V[{s}]"),
    st.tuples(_INDEX, st.sampled_from("+-")).map(
        lambda idx: f"X[{idx[0]},{idx[1]}]"),
    st.tuples(st.sampled_from("LM"), _INDEX, _INDEX).map(
        lambda idx: f"{idx[0]}[{idx[1]},{idx[2]}]"),
)
_DSL = st.one_of(
    st.recursive(_ATOM, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        inner.map(lambda e: f"({e})")), max_leaves=4),
    st.text(alphabet="VXLMchi[],+-*()0123456789p", max_size=24),
)
_WEIGHT = st.one_of(
    st.tuples(st.integers(-1, 8), st.sampled_from([1, 2, 2, 3, 4])).map(
        lambda nd: f"{nd[0]}/{nd[1]}"),
    st.sampled_from(["0", "1/3", "1/0", "x", "-1/4", ""]),
)
_OPTION = st.one_of(
    st.tuples(st.just("--rmax"), _small_ints(-1, 6)),
    st.tuples(st.just("--seed"), _small_ints(-2, 9)),
    st.tuples(st.just("--format"), st.sampled_from(["text", "json"])),
    st.sampled_from([("--rmax", "x"), ("--format", "xml"), ("-n", "2"),
                     ("--squared",), ("--bogus",), ("extra",)]),
)


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(VERBS + ("nonsense", "-h", "")))
    argv = [verb]
    if draw(st.integers(0, 9)):
        argv += ["-p", draw(_P)]
    if verb == "fuse":
        argv.append(draw(_DSL))
    elif verb == "jw":
        argv += ["-n", draw(_small_ints(1, 4) | st.sampled_from(["0", "x"]))]
    elif verb == "phase":
        count = draw(st.sampled_from([3, 3, 3, 2, 4]))
        argv += draw(st.lists(_WEIGHT, min_size=count, max_size=count))
        if draw(st.booleans()):
            argv.append("--squared")
    argv += [tok for opt in draw(st.lists(_OPTION, max_size=2)) for tok in opt]
    if verb == "verify":
        argv += ["--suite", draw(st.sampled_from(_CHEAP_SUITES)),
                 "--triples", "0", "--roundtrips", "0"]
    return argv


@given(argv=_argv())
@example(argv=["fpdim", "-p", "1"])
@example(argv=["verify", "-p", "2..1", "--suite", "jw", "--triples", "0",
               "--roundtrips", "0"])
@example(argv=["jw", "-p", "x", "-n", "2"])
@example(argv=["fuse", "-p", "2..", "V[2]*V[2]"])
def test_cli_fuzz(argv):
    # every input ends in exit 0, 1 or 2 without a traceback; exit 2 is one
    # "error:" line, and exit 1 (a failed verification) comes only from the
    # verbs that verify
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    if code == 1:
        assert argv[0] in _CHECK_VERBS
