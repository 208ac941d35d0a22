"""Command-line front end.

A small expression language drives the fusion rings:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := INT | atom | '(' expr ')'
    atom   := V[s] | chi | X[s,+] | X[s,-] | L[r,s] | M[r,s] | 1

Atoms from one family fix the ring (V/chi the module side, X the recursion
side, L and M the two truncated windows); the letter p in an index slot
resolves to the -p value.  Integer literals act as multiples of the unit.
Parentheses nest at most MAX_PARENS deep and the expression tree is at most
MAX_DEPTH levels deep; deeper input is a syntax error, not a crash.

Verbs: fuse, jw, braid-check, fpdim, twists, muger, phase, verify.  The
checks behind verify come from ribbonkit.checks.  A check verb (jw,
braid-check, fpdim, twists) runs the check rows of its own name and
renders their data: its verdict is theirs, and the detail of a failing row
is appended to its text.  Each verb is a generator over the p range that
yields report rows (ok, payload, text); main alone prints them, one row
per line (payload as one JSON object under --format json, text
otherwise), and sets the exit code: 0 on success, 1 when a row is not ok
(a verification failed), 2 for usage or parse trouble.  -p takes one value
or an inclusive range A..B, walked as a range and never listed, so a huge
range streams.  The argparse tree is built once per process, on the first
main call, and every later call reuses it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

from .cyclo import field
from .fusion import (
    DEFAULT_RMAX, TruncationOverflow, linear, singlet_ring, uq_labels,
    uq_ring, vir_ring, wp_labels, wp_ring,
)
from .ribbon import (
    muger_candidates, singlet_twists, voa_monodromy_phase, wp_twists,
)
from .checks import (
    SUITES, category_dimension, hexagon_solutions, inverse_pairs, jw_problems,
    run_checks, twists_match, yang_baxter,
)


class DSLSyntaxError(ValueError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ValueError):
    """Well-formed expression that cannot be evaluated in the chosen ring."""


# -- tokens and parsing -------------------------------------------------------

_SYMBOLS = "+-*()[],"

# Every parenthesis level costs the parser three Python frames and every
# tree level costs each tree walk (evaluation, printing) one, so both limits
# keep well inside the default recursion limit of 1000.
MAX_PARENS = 200
MAX_DEPTH = 500


def _tokenize(text: str) -> list:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            out.append((ch, ch, i))
            i += 1
        else:
            raise DSLSyntaxError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


class _Parser:
    """Recursive descent; expr/term/factor return (node, tree depth)."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.parens = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.take()
        if tok[0] != kind:
            raise DSLSyntaxError(f"expected {what}", tok[2])
        return tok

    @staticmethod
    def join(kind: str, left, right, off: int):
        depth = 1 + max(left[1], right[1])
        if depth > MAX_DEPTH:
            raise DSLSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", off)
        return (kind, left[0], right[0]), depth

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, off = self.take()
            kind = "add" if op == "+" else "sub"
            node = self.join(kind, node, self.term(), off)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            off = self.take()[2]
            node = self.join("mul", node, self.factor(), off)
        return node

    def factor(self):
        kind, value, off = self.take()
        if kind == "int":
            return ("int", value), 1
        if kind == "(":
            self.parens += 1
            if self.parens > MAX_PARENS:
                raise DSLSyntaxError(
                    f"parentheses nested deeper than {MAX_PARENS}", off)
            node = self.expr()
            self.expect(")", "')'")
            self.parens -= 1
            return node
        if kind == "name":
            return self.atom(value, off), 1
        raise DSLSyntaxError("expected a number, an atom, or '('", off)

    def atom(self, name: str, off: int):
        if name == "chi":
            return ("atom", "chi", ())
        if name == "V":
            self.expect("[", "'['")
            s = self.index()
            self.expect("]", "']'")
            return ("atom", "V", (s,))
        if name == "X":
            self.expect("[", "'['")
            s = self.index()
            self.expect(",", "','")
            tok = self.take()
            if tok[0] not in ("+", "-"):
                raise DSLSyntaxError("expected '+' or '-'", tok[2])
            self.expect("]", "']'")
            return ("atom", "X", (s, 1 if tok[0] == "+" else -1))
        if name in ("L", "M"):
            self.expect("[", "'['")
            r = self.index()
            self.expect(",", "','")
            s = self.index()
            self.expect("]", "']'")
            return ("atom", name, (r, s))
        raise DSLSyntaxError(f"unknown atom {name!r}", off)

    def index(self):
        tok = self.take()
        if tok[0] == "int":
            return tok[1]
        if tok[0] == "-":
            return -self.expect("int", "a number")[1]
        if tok[0] == "name" and tok[1] == "p":
            return "p"
        raise DSLSyntaxError("expected an index", tok[2])


def parse(text: str):
    """Text -> AST of ('int', n) / ('atom', family, indices) / binary nodes."""
    parser = _Parser(text)
    node, _ = parser.expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise DSLSyntaxError("trailing input", tok[2])
    return node


def _written_label(node) -> tuple:
    """The label of an atom node as written, an index 'p' kept: chi is
    (1, 1), V[s] is (s, 0), and X, L and M carry their indices."""
    _, family, idx = node
    if family == "chi":
        return (1, 1)
    if family == "V":
        return (idx[0], 0)
    return idx


def _atom_str(node) -> str:
    return label_str(_written_label(node), _FAMILY_OF[node[1]])


def print_expression(node) -> str:
    """Canonical text for an AST; parse(print_expression(t)) == t."""
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "atom":
        return _atom_str(node)
    left = print_expression(node[1])
    right = print_expression(node[2])
    if kind == "mul":
        # the grammar is left-associative, so only the right operand ever
        # needs parentheses to survive a round trip
        if node[1][0] in ("add", "sub"):
            left = f"({left})"
        if node[2][0] in ("add", "sub", "mul"):
            right = f"({right})"
        return f"{left}*{right}"
    if node[2][0] in ("add", "sub"):
        right = f"({right})"
    return f"{left} {'+' if kind == 'add' else '-'} {right}"


def random_expression(rng: random.Random, depth: int = 0):
    """Random well-formed AST, used by the round-trip property suite."""
    if depth >= 4 or rng.random() < 0.35:
        pick = rng.randrange(6)
        if pick == 0:
            return ("int", rng.randrange(10))
        if pick == 1:
            return ("atom", "chi", ())
        if pick == 2:
            return ("atom", "V", (rng.randrange(1, 10),))
        if pick == 3:
            return ("atom", "X", (rng.randrange(1, 10),
                                  rng.choice((1, -1))))
        if pick == 4:
            return ("atom", "L", (rng.randrange(1, 9), rng.randrange(1, 9)))
        first = "p" if rng.random() < 0.2 else rng.randrange(-8, 9)
        return ("atom", "M", (first, rng.randrange(1, 9)))
    op = rng.choice(("add", "sub", "mul"))
    return (op, random_expression(rng, depth + 1),
            random_expression(rng, depth + 1))


# -- evaluation ---------------------------------------------------------------

_FAMILY_OF = {"V": "uq", "chi": "uq", "X": "wp", "L": "vir", "M": "singlet"}


def _atoms(node, acc: list) -> list:
    """acc extended by the atom nodes of an AST, left to right."""
    if node[0] == "atom":
        acc.append(node)
    elif node[0] in ("add", "sub", "mul"):
        _atoms(node[1], acc)
        _atoms(node[2], acc)
    return acc


def expression_family(node) -> str:
    fams = {_FAMILY_OF[atom[1]] for atom in _atoms(node, [])}
    if not fams:
        raise EvalError("expression has no atoms, so no ring is determined")
    if len(fams) > 1:
        raise EvalError(
            f"atoms from different rings in one expression: {sorted(fams)}"
        )
    return fams.pop()


def _ring_view(family: str, p: int, rmax) -> tuple:
    """(labels, unit, product) of the family's ring at p: all that _eval
    reads of it.

    A truncated window is its own view.  A finite ring's labels are
    uq_labels(p) or wp_labels(p), and its unit is V[1] = (1, 0) or X[1,+]
    = (1, 1); its product table is built at the first product only, so a
    sum builds none.
    """
    if family in ("vir", "singlet"):
        ring = (vir_ring if family == "vir" else singlet_ring)(p, rmax)
        return ring, ring.unit, ring.product
    if family == "uq":
        labels, unit = uq_labels(p), (1, 0)
    else:
        labels, unit = wp_labels(p), (1, 1)
    ring = cache(lambda: (uq_ring if family == "uq" else wp_ring)(p))
    return labels, unit, lambda a, b: ring().product(a, b)


def _atom_label(node, labels, p: int):
    """The label of an atom node, refused unless it is in labels."""
    lab = tuple(p if v == "p" else v for v in _written_label(node))
    if lab not in labels:
        raise EvalError(f"label {_atom_str(node)} is not in the p={p} ring")
    return lab


def _eval(node, view, p) -> dict:
    labels, unit, product = view
    kind = node[0]
    if kind == "int":
        return {unit: node[1]}
    if kind == "atom":
        return {_atom_label(node, labels, p): 1}
    left = _eval(node[1], view, p)
    right = _eval(node[2], view, p)
    if kind == "mul":
        # bilinear: linear in the pair of factors, every pair formed
        pairs = {(la, lb): ca * cb for la, ca in left.items()
                 for lb, cb in right.items()}
        return linear(lambda pair: product(*pair), pairs)
    out = Counter(left)
    if kind == "add":
        out.update(right)
    else:
        out.subtract(right)
    return out


def evaluate(node, p: int, rmax=DEFAULT_RMAX) -> Counter:
    """Evaluate an AST in the ring its atoms determine; Counter by label.

    Subtraction may leave negative multiplicities; zero entries are
    dropped.  Window overflow in a truncated ring surfaces as EvalError.
    """
    view = _ring_view(expression_family(node), p, rmax)
    try:
        combo = _eval(node, view, p)
    except TruncationOverflow as err:
        raise EvalError(str(err)) from err
    return Counter({lab: mult for lab, mult in combo.items() if mult})


def label_str(lab, family: str) -> str:
    if family == "uq":
        s, eps = lab
        if eps:
            return "chi" if s == 1 else f"chi*V[{s}]"
        return f"V[{s}]"
    if family == "wp":
        return f"X[{lab[0]},{'+' if lab[1] > 0 else '-'}]"
    letter = "L" if family == "vir" else "M"
    return f"{letter}[{lab[0]},{lab[1]}]"


def format_combination(combo, family: str) -> str:
    items = sorted((lab, mult) for lab, mult in dict(combo).items() if mult)
    if not items:
        return "0"
    parts = []
    for lab, mult in items:
        name = label_str(lab, family)
        text = name if abs(mult) == 1 else f"{abs(mult)}*{name}"
        if not parts:
            parts.append(text if mult > 0 else f"0 - {text}")
        else:
            parts.append(f"{'+' if mult > 0 else '-'} {text}")
    return " ".join(parts)


def _combo_json(combo) -> list:
    return [[list(lab), mult] for lab, mult in sorted(dict(combo).items())]


def twist_table_json(table) -> dict:
    return {
        "field": table.ctx.header(),
        "theta": [[list(lab), str(value)]
                  for lab, value in sorted(table.theta.items(), key=str)],
    }


# -- command verbs ------------------------------------------------------------
#
# Row generators (see the module docstring); work that does not depend on p
# is done once, before the first row.


def _cmd_fuse(args, ps):
    node = parse(args.expr)
    family = expression_family(node)
    for p in ps:
        combo = evaluate(node, p, args.rmax)
        pretty = format_combination(combo, family)
        yield True, {
            "verb": "fuse", "p": p, "expr": print_expression(node),
            "ring": family, "result": _combo_json(combo), "pretty": pretty,
        }, f"p={p}: {pretty}" if ps[-1] > ps[0] else pretty


def _cmd_jw(args, ps):
    for p in ps:
        problems, (e, idem, alive, closure) = jw_problems(field(p), args.n)
        hooks = not alive
        yield not problems, {
            "verb": "jw", "p": p, "n": args.n, "terms": len(e.terms),
            "idempotent": idem, "hooks_killed": hooks,
            "markov": str(closure),
        }, (f"p={p}: jw({args.n}) terms={len(e.terms)} "
            f"idempotent={'yes' if idem else 'NO'} "
            f"hooks-killed={'yes' if hooks else 'NO'} markov={closure}"
            + "".join(f" ({line})" for line in problems))


def _cmd_braid_check(args, ps):
    for p in ps:
        rows = hexagon_solutions(p), yang_baxter(p), inverse_pairs(p)
        winners, yb, inverse_ok = rows[0][2], rows[1][0], rows[2][0]
        yield all(row[0] for row in rows), {
            "verb": "braid-check", "p": p, "hexagon_solutions": len(winners),
            "yang_baxter": yb, "inverse_pairs": inverse_ok,
        }, (f"p={p}: hexagon solutions={len(winners)} (expected 4) "
            f"yang-baxter={'yes' if yb else 'NO'} "
            f"inverse-pairs={'yes' if inverse_ok else 'NO'}"
            + "".join(f" ({row[1]})" for row in rows if not row[0]))


def _cmd_fpdim(args, ps):
    for p in ps:
        ok, detail, (du, dw) = category_dimension(p)
        yield ok, {
            "verb": "fpdim", "p": p, "module_route": str(du),
            "recursion_route": str(dw), "agree": ok,
        }, f"p={p}: {du}" + ("" if ok else f" ({detail})")


def _cmd_twists(args, ps):
    for p in ps:
        agree, detail, table = twists_match(p)
        lines = [f"p={p} {label_str(lab, 'wp')}: {table.theta[lab]}"
                 for lab in sorted(table.theta)]
        lines.append(f"p={p} module route (inverse twists) agrees: "
                     + ("yes" if agree else f"NO ({detail})"))
        yield agree, {**twist_table_json(table), "verb": "twists", "p": p,
                      "module_route_agrees": agree}, "\n".join(lines)


def _cmd_muger(args, ps):
    for p in ps:
        wp_cands = sorted(muger_candidates(wp_ring(p), wp_twists(p)))
        ring = singlet_ring(p, args.rmax)
        s_cands = sorted(
            muger_candidates(ring, singlet_twists(p, args.rmax))
        )
        yield True, {
            "verb": "muger", "p": p,
            "wp": [list(lab) for lab in wp_cands],
            "singlet": [list(lab) for lab in s_cands],
        }, (f"p={p} wp: " + " ".join(label_str(c, "wp") for c in wp_cands)
            + f"\np={p} singlet: "
            + " ".join(label_str(c, "singlet") for c in s_cands))


def _cmd_phase(args, ps):
    hs = args.h
    for p in ps:
        value = voa_monodromy_phase(p, hs[0], hs[1], hs[2],
                                    squared=args.squared)
        yield True, {
            "verb": "phase", "p": p, "h": [str(h) for h in hs],
            "squared": args.squared, "value": str(value),
        }, f"p={p}: {value}" if ps[-1] > ps[0] else str(value)


def _cmd_verify(args, ps):
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    names = [name for suite in suites for name in SUITES[suite]]
    share = ps.stop - ps.start
    opts = {
        "rmax": args.rmax,
        "seed": args.seed,
        "triples": -(-args.triples // share),
        "roundtrips": -(-args.roundtrips // share),
    }
    for p in ps:
        for res in run_checks(p, names, opts):
            yield res["status"] == "pass", res, (
                f"[{res['status']}] p={res['p']} {res['check']}: "
                f"{res['detail']} ({res['elapsed']:.2f}s)")


# -- argument handling --------------------------------------------------------


def _parse_prange(text: str) -> range:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise ValueError(
            f"-p must be an integer P or a range A..B, got {text!r}"
        ) from None
    if lo < 2 or hi < lo:
        raise ValueError(
            f"p range {text!r} must satisfy 2 <= first <= last"
        )
    return range(lo, hi + 1)


def _weight(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid conformal weight {text!r}") from None


def _int_at_least(what: str, least: int):
    """An argparse type: an int >= least, or a one-line refusal."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {what} {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {least}, got {value}")
        return value

    return convert


_window = _int_at_least("window", 1)
# phase.linking multiplies labels with first index 3, so its window must
# reach 3; below that the check (and at window 1 the singlet center scan)
# would fail on the input, not on the mathematics
_verify_window = _int_at_least("window", 3)
# at window 1 nearly every singlet pair overflows and is skipped, so nothing
# refutes M[-1,p] and the Muger scan would list it as transparent
_muger_window = _int_at_least("window", 2)
_count = _int_at_least("count", 0)


# argparse reads a token that starts with "-" as an option unless it matches
# this; no option here looks like a number, so a negative fraction such as a
# conformal weight -1/2 is then a positional, as -1 and -0.5 already are
_NEGATIVE_NUMBER = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


class _ArgParser(argparse.ArgumentParser):
    """argparse that refuses with one stderr line, ``error: <message>``,
    and exit 2, and reads negative fractions as numbers; add_subparsers
    builds the verbs' parsers with this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it.

    Nothing in it depends on the call: the defaults are immutable, the type
    converters pure, parse_args returns a fresh Namespace, and help and
    errors go to the current sys.stdout/sys.stderr when printed.
    """
    top = _ArgParser(
        prog="ribbonkit",
        description="exact fusion, braiding, and modularity calculations",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def verb(name: str, run, help: str):
        # run is the verb's row generator; no option has dest "run"
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("-p", required=True, metavar="P[..Q]",
                        help="parameter p >= 2, or an inclusive range A..B")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    def window(sp, least):
        sp.add_argument("--rmax", type=least, default=DEFAULT_RMAX,
                        help="truncation window for the infinite families")

    sp = verb("fuse", _cmd_fuse, "evaluate a fusion expression")
    window(sp, _window)
    sp.add_argument("expr")
    sp = verb("jw", _cmd_jw, "audit one projector")
    sp.add_argument("-n", type=int, required=True)
    verb("braid-check", _cmd_braid_check,
         "hexagon scan, braid relation, inverses")
    verb("fpdim", _cmd_fpdim, "category dimension, both routes")
    verb("twists", _cmd_twists, "twist table with cross-check")
    sp = verb("muger", _cmd_muger, "transparent-object candidates")
    window(sp, _muger_window)
    sp = verb("phase", _cmd_phase, "monodromy phase from three weights")
    sp.add_argument("--squared", action="store_true")
    sp.add_argument("h", nargs=3, type=_weight,
                    help="three conformal weights as fractions")
    sp = verb("verify", _cmd_verify, "run a verification suite")
    window(sp, _verify_window)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--suite", default="all",
                    choices=sorted(SUITES) + ["all"])
    sp.add_argument("--triples", type=_count, default=10000,
                    help="random associativity triples, total across -p")
    sp.add_argument("--roundtrips", type=_count, default=1000,
                    help="random DSL round trips, total across -p")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code == 0 else 2
    try:
        failed = False
        for ok, payload, text in args.run(args, _parse_prange(args.p)):
            print(json.dumps(payload) if args.format == "json" else text)
            failed |= not ok
        sys.stdout.flush()
        return 1 if failed else 0
    except BrokenPipeError:
        # the reader went away (``| head``); the output is no longer wanted,
        # and what is still buffered goes to devnull so the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ValueError as err:  # every refusal of the DSL and the library
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
