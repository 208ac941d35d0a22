"""Benchmark workloads: the requests each sends and how outputs are checked.

Every request is an argv for ``ribbonkit.cli.main``.  Inputs depend only
on the workload name and the seed.

* ``jw-p7``: ``verify --suite jw -p 7``, the Wenzl recursion for n=1..6 with
  idempotence, hook killing and Markov closures.  It is the Tier-1 hot
  path: degree-12 field products and diagram composition.  fusion and
  ribbon stay idle, so a change there should not move it.
* ``twists-p16``: ``verify --suite twists -p 16``, inverse twists on 32
  modules checked against the closed-form table.  The same field layer at
  degree 32, heavy on inverses; the diagram layer stays idle.
* ``session``: 150 calculator requests in one process, caches kept across
  requests as in a library session.  Per p in 2..10: ten ``fuse`` requests
  over all four rings, and one each of ``fpdim``, ``twists``, ``muger``,
  ``phase``, ``braid-check`` and a small ``jw``; plus six documented usage
  errors (two non-integral phase exponents, four labels outside a ring).
  The seed picks operands, the p of each usage error, and the order.  The
  (verb, p) mix is fixed so that total work hardly depends on the seed.
  It is the only workload that reaches fusion, ribbon, the DSL and cache
  reuse across p.

Outputs are checked three ways: verify checks must pass; printed values,
minus elapsed times, must equal ``expected.json``, captured from the
package by ``capture_expected.py``; and closed forms computed here (2p^3
for fpdim, four hexagon solutions, the Mueger candidate sets, and
dimension conservation in ``fuse``).
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# window of the truncated families; passed explicitly so RIBBONKIT_RMAX in
# the environment cannot change the inputs
RMAX = 8

VERIFY = {
    "jw-p7": ("jw", 7),
    "twists-p16": ("twists", 16),
}
WORKLOADS = tuple(VERIFY) + ("session",)


def verify_argv(workload: str, seed: int) -> list:
    suite, p = VERIFY[workload]
    return ["verify", "--suite", suite, "-p", str(p), "--seed", str(seed),
            "--format", "json"]


# -- session request pools ----------------------------------------------------
#
# Each pool is a pure function of p, so capture_expected.py can record the
# output of every request a seed could draw.  Pools are lists of option
# groups and a seed picks one option per group; the options of a group are
# alike in shape (number of atoms and terms), so the mix of work, and with
# it the latency percentiles, hardly depend on the seed.


def _fuse_argv(p: int, expr: str) -> list:
    return ["fuse", "-p", str(p), "--rmax", str(RMAX), expr]


def _cap(s: int, p: int) -> int:
    return max(1, min(s, p))


def fuse_groups(family: str, p: int) -> list:
    a, b, h, q = _cap(2, p), _cap(3, p), _cap(p // 2 + 1, p), _cap(p - 1, p)
    if family == "uq":
        return [(f"V[{a}]*V[{p}]", f"V[{p}]*V[{p}]"),
                (f"chi*V[{a}]*V[{h}]", f"V[{b}]*chi*V[{q}]"),
                (f"(V[{p}]+chi)*V[{a}]", f"(V[{h}]+V[{b}])*V[{a}]")]
    if family == "wp":
        return [(f"X[{a},+]*X[{p},-]", f"X[{p},+]*X[{p},+]"),
                (f"X[1,-]*X[{a},+]*X[{h},-]", f"X[{b},-]*X[{q},-]*X[1,+]"),
                (f"(X[{p},-]+X[1,+])*X[{a},+]",
                 f"(X[{h},+]+X[{b},+])*X[{a},-]")]
    if family == "vir":
        return [(f"L[2,1]*L[3,{p}]", f"L[1,{p}]*L[2,{a}]"),
                (f"L[3,{h}]*L[4,1]", f"L[2,{p}]*L[2,{b}]")]
    return [(f"M[2,1]*M[-3,{p}]", f"M[1,{p}]*M[1,{p}]"),
            (f"M[-2,{a}]*M[4,{h}]", f"M[3,{b}]*M[-1,{p}]")]


def phase_options(p: int) -> tuple:
    # exponents 2p*(h3 - h1 - h2) are integers, so each lands in the field
    n = 2 * p
    return (["0", "0", f"3/{n}"], [f"1/{n}", "0", "0"],
            [f"1/{p}", f"1/{n}", f"5/{n}"],
            ["0", f"1/{4 * p}", f"3/{4 * p}", "--squared"])


def refusals(p: int) -> list:
    # documented usage errors: a phase exponent that is not an integer (the
    # value leaves the field), or a label outside the ring
    return [
        ["phase", "-p", str(p), f"1/{4 * p}", "0", "0"],
        ["phase", "-p", str(p), "0", "0", f"3/{8 * p}"],
        _fuse_argv(p, f"V[{p + 1}]*V[1]"),
        _fuse_argv(p, f"X[{p + 2},+]*X[1,+]"),
        _fuse_argv(p, f"L[{RMAX + 1},1]*L[1,1]"),
        _fuse_argv(p, f"M[{-RMAX - 1},1]*M[1,1]"),
    ]


SESSION_PS = range(2, 11)
FAMILIES = ("uq", "wp", "vir", "singlet")


def _requests_at(p: int, choose) -> list:
    """The requests at one p; choose(group) returns the options to send."""
    out = [_fuse_argv(p, expr) for family in FAMILIES
           for group in fuse_groups(family, p) for expr in choose(group)]
    out += [["fpdim", "-p", str(p)], ["twists", "-p", str(p)],
            ["muger", "-p", str(p), "--rmax", str(RMAX)],
            ["braid-check", "-p", str(p)]]
    out += [["phase", "-p", str(p)] + h for h in choose(phase_options(p))]
    jw_ns = sorted({min(2, p - 1), min(3, p - 1)})
    out += [["jw", "-p", str(p), "-n", str(n)] for n in choose(jw_ns)]
    return out


def catalog() -> list:
    """Every session request any seed can draw."""
    out = []
    for p in SESSION_PS:
        out += _requests_at(p, list) + refusals(p)
    return [argv + ["--format", "json"] for argv in out]


def session_argvs(seed: int) -> list:
    rng = random.Random(f"session:{seed}")
    out = []
    for p in SESSION_PS:
        out += _requests_at(p, lambda group: [rng.choice(group)])
    # one usage error of each kind, each at a p the seed picks
    for k in range(len(refusals(2))):
        out.append(refusals(rng.choice(SESSION_PS))[k])
    rng.shuffle(out)
    return [argv + ["--format", "json"] for argv in out]


def argvs(workload: str, seed: int) -> list:
    if workload == "session":
        return session_argvs(seed)
    return [verify_argv(workload, seed)]


# -- checking -----------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def request_key(argv: list) -> str:
    return " ".join(argv)


def verify_key(workload: str) -> str:
    # --seed does not reach the jw and twists suites, so one capture serves
    # every seed
    return request_key(verify_argv(workload, 0))


def strip_elapsed(stdout: str) -> list:
    rows = []
    for line in stdout.splitlines():
        row = json.loads(line)
        row.pop("elapsed", None)
        rows.append(row)
    return rows


def check_verify(workload: str, code: int, out: str, err: str,
                 expected: dict) -> tuple[int, list]:
    """(checks attempted, one problem per failed check) for a verify run."""
    want = expected["verify"][verify_key(workload)]
    try:
        rows = strip_elapsed(out)
    except ValueError:
        rows = []
    problems = []
    for i in range(max(len(rows), len(want))):
        got = rows[i] if i < len(rows) else None
        exp = want[i] if i < len(want) else None
        if got is None or got.get("status") != "pass" or got != exp:
            status = "missing" if got is None else got.get("status")
            problems.append(f"{(got or exp).get('check')}: {status}"
                            + ("" if got == exp else ", not as expected"))
    if not problems and (code != 0 or err):
        problems.append(f"{workload}: exit {code}, stderr {err[:80]!r}")
    return max(len(rows), len(want), 1), problems


_ATOM_DIM = [
    (re.compile(r"V\[(\d+)\]"), lambda m: m.group(1)),
    (re.compile(r"X\[(\d+),[+-]\]"), lambda m: m.group(1)),
    (re.compile(r"L\[(\d+),(\d+)\]"),
     lambda m: str(int(m.group(1)) * int(m.group(2)))),
    (re.compile(r"M\[-?\d+,(\d+)\]"), lambda m: m.group(1)),
    (re.compile(r"chi"), lambda m: "1"),
]


def expression_dim(expr: str) -> int:
    """Total dimension of a fuse expression, from the dims of its atoms.

    dim V[s] = dim chi*V[s] = dim X[s,+-] = s, dim L[r,s] = r*s and
    dim M[r,s] = s; sums and products of expressions add and multiply.
    """
    text = expr
    for pattern, dim in _ATOM_DIM:
        text = pattern.sub(dim, text)
    if not re.fullmatch(r"[0-9+*()]+", text):
        raise ValueError(f"cannot take the dimension of {expr!r}")
    return eval(text, {"__builtins__": {}})  # digits, + * ( ) only


def label_dim(ring: str, lab: list) -> int:
    if ring == "vir":
        return lab[0] * lab[1]
    if ring == "singlet":
        return lab[1]
    return lab[0]


def _closed_form(argv: list, payload: dict) -> list:
    verb, p = argv[0], int(argv[2])
    problems = []
    if verb == "fuse":
        got = sum(mult * label_dim(payload["ring"], lab)
                  for lab, mult in payload["result"])
        want = expression_dim(argv[-3])
        if got != want:
            problems.append(f"dimension {got} != {want}")
    elif verb == "fpdim":
        want = str(2 * p ** 3)
        if not (payload["module_route"] == payload["recursion_route"]
                == want):
            problems.append(f"fpdim != 2p^3 = {want}")
    elif verb == "braid-check":
        if not (payload["hexagon_solutions"] == 4 and payload["yang_baxter"]
                and payload["inverse_pairs"]):
            problems.append("braid-check closed form")
    elif verb == "muger":
        singlet = [[r, 1] for r in range(-RMAX, RMAX + 1) if r % 2]
        if payload["wp"] != [[1, 1]] or payload["singlet"] != singlet:
            problems.append("muger candidates")
    elif verb == "twists":
        if not payload["module_route_agrees"]:
            problems.append("twist routes disagree")
    elif verb == "jw":
        if not (payload["idempotent"] and payload["hooks_killed"]):
            problems.append("jw projector audit")
    return problems


def is_refusal(argv: list) -> bool:
    return argv[:-2] in refusals(int(argv[2]))


def check_request(argv: list, code: int, out: str, err: str,
                  expected: dict) -> list:
    """Problems with one session request; empty when it is correct."""
    key = request_key(argv)
    want = expected["session"].get(key)
    if want is None:
        return [f"{key}: no expected output"]
    problems = []
    if is_refusal(argv):
        lines = err.splitlines()
        if code != 2 or out or len(lines) != 1 or "Traceback" in err:
            problems.append(f"refusal exit {code}, stderr {err[:80]!r}")
    elif code != 0 or err:
        problems.append(f"exit {code}, stderr {err[:80]!r}")
    else:
        try:
            problems += _closed_form(argv, json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    if [code, out, err] != [want["exit"], want["stdout"], want["stderr"]]:
        problems.append("output differs from expected.json")
    return [f"{key}: {text}" for text in problems]
