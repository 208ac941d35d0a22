"""Verification checks: one implementation per verified statement.

Each check takes (p, env) and returns (ok, detail); CHECKS maps the dotted
name of its report row ("jw.projectors", "twists.match_under_iso", ...) to
it, and SUITES groups the names by their prefix, in registration order.
`verify`, the check verbs and the acceptance gate all run these functions.
Each check forms its verdict and its detail itself, from values the lower
layers return; no layer below hands it a report to decode.  env holds the
run options (rmax, seed, triples, roundtrips) and one seeded rng per p,
shared by the randomized properties checks in a fixed draw order.

The check verbs (jw, braid-check, fpdim, twists) take their verdict from
the rows of the same name, which are public functions here; a row whose
data a verb prints returns that data after (ok, detail), and _timed reads
the first two.  jw_problems(ctx, n) is jw.projectors at one n.  So a verb
fails exactly when one of its rows does.  jw_audit proves idempotency by
the hook certificate alone, at every n.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from collections import Counter
from fractions import Fraction
from functools import cache, partial

from .cyclo import field, inv, qint
from .tldiag import (
    all_diagrams, braiding_candidates, cap, check_hexagon, check_yang_baxter,
    compose, cup, flip, flip_diagram, from_diagram, hexagon_holds,
    hexagon_rows, hook, identity, jones_wenzl, markov_close,
    tensor as tl_tensor,
)
from .qrep import (
    Matrix, braiding, certify_simple, check_module, chi_module, selfdual_V,
    simple_L, simple_V, tensor, tl_to_matrix, twist_inverse, uq_classes,
    uq_module, vir_module,
)
from .fusion import (
    associative, conformal_weight, fpdim_category, fpdim_object,
    induction_F, induction_I, induction_Iprime, iso_T_labels, linear, push,
    ring_map_witness, singlet_ring, uq_labels, uq_projective_classes, uq_ring,
    vir_ring, wp_projective_classes, wp_ring,
)
from .ribbon import (
    monodromy, muger_candidates, singlet_twists, uq_twists,
    voa_monodromy_phase, wp_twists,
)

CHECKS: dict = {}


def check(name: str):
    """Register a check function under its report-row name."""

    def register(fn):
        CHECKS[name] = fn
        return fn

    return register


def _timed(name: str, p: int, fn) -> dict:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()[:2]
    except Exception as err:  # a crash counts as a failed check
        where = traceback.extract_tb(err.__traceback__)[-1]
        ok, detail = False, (f"{type(err).__name__} at "
                             f"{os.path.basename(where.filename)}:"
                             f"{where.lineno}: {err}")
    return {
        "check": name, "p": p, "status": "pass" if ok else "fail",
        "detail": detail, "elapsed": round(time.perf_counter() - t0, 4),
    }


def run_checks(p: int, names, opts: dict):
    """Run the named checks at one p, in order; yield one report row each."""
    env = dict(opts, rng=random.Random(f"{opts['seed']}:{p}:properties"))
    for name in names:
        yield _timed(name, p, partial(CHECKS[name], p, env))


# -- data shared with the check verbs -----------------------------------------


def jw_audit(ctx, n: int):
    """(projector, idempotent, indices of the hooks it does not kill,
    Markov closure) for jw(n).

    A hook h is killed when h.e and e.h both vanish (x.y is compose(x, y)).
    Only h.s is composed, for each s in sides.  The flip reverses products
    and fixes h, so e.h = flip(h.flip(e)), which vanishes exactly when
    h.flip(e) does.  sides is (e,) when e equals its flip, as jw(n) does,
    read term by term without building the mirror; otherwise it is
    (e, flip(e)).

    Idempotency is the hook certificate: e is idempotent when its identity
    coefficient is 1 and it kills every hook, because every other basis
    diagram is a product of hooks (Jones normal form), so e.e = e.id = e.
    """
    e = jones_wenzl(ctx, n)
    mirrored = all(e.terms.get(flip_diagram(d)) == c
                   for d, c in e.terms.items())
    sides = (e,) if mirrored else (e, flip(e))
    # every side is composed, so each hook costs len(sides) products
    alive = [i for i in range(1, n) if not all(
        [compose(hook(ctx, n, i), s).is_zero() for s in sides])]
    ident, = identity(ctx, n).terms
    return e, not alive and e.terms.get(ident) == 1, alive, markov_close(e)


def hexagon_winners(ctx) -> list:
    """Units a with a f + a^{-1} id solving the hexagon, over all 4p roots.

    Each unit a = zeta^j is tested on the hexagon's coefficient rows
    (tldiag.hexagon_rows) with a^2 = zeta^{2j}, ab = 1, b^2 = zeta^{-2j}:
    no inverse and no morphism per unit.  check_hexagon is the direct route.
    """
    rows = hexagon_rows(ctx)
    one = ctx.one()
    return [ctx.root(j) for j in range(ctx.N)
            if hexagon_holds(rows, ctx.root(2 * j), one, ctx.root(-2 * j))]


def jw_problems(ctx, n: int):
    """(problems, jw_audit(ctx, n)): what jw.projectors finds wrong with
    jw(n), an empty list when nothing is."""
    audit = jw_audit(ctx, n)
    _, idempotent, alive, closure = audit
    problems = []
    # with every hook killed, e.e = c e for the identity coefficient c,
    # so a failed certificate proves a nonzero e is not idempotent;
    # with a hook alive, the row names the hook and says no more
    if not idempotent and not alive:
        problems.append(f"jw({n}) is not idempotent")
    problems += [f"jw({n}) does not kill hook {i}" for i in alive]
    # at n = p - 1 this asks for the vanishing top closure: [p] = 0
    want = qint(ctx, n + 1) if n % 2 == 0 else -qint(ctx, n + 1)
    if closure != want:
        problems.append(f"jw({n}) has closure {closure}, expected {want}")
    return problems, audit


# -- the checks, registered in suite order ------------------------------------


@check("fpdim.category")
def category_dimension(p, env=None):
    """Both routes give the category dimension 2p^3; data (du, dw)."""
    du = fpdim_category(uq_ring(p), uq_projective_classes(p))
    dw = fpdim_category(wp_ring(p), wp_projective_classes(p))
    want = 2 * p ** 3
    return du == dw == want, (
        f"module route {du}, recursion route {dw}, expected {want}"
    ), (du, dw)


@check("fpdim.simples")
def _fpdim_simples(p, env):
    ring = uq_ring(p)
    for s, e in uq_labels(p):
        dim = fpdim_object(ring, (s, e))
        if dim != s:
            return False, f"simple ({s},{e}) got {dim}"
    return True, "every simple has exact integer dimension s"


@check("fpdim.simple_certificates")
def _fpdim_simple_certificates(p, env):
    # the premise behind the 2p labels of uq_ring and module_twist_scalar:
    # each label's module is simple, and its one class is the label itself
    ctx = field(p)
    labels = uq_labels(p)
    for lab in labels:
        module = uq_module(ctx, lab)
        if not certify_simple(module):
            return False, f"label {lab}: the simplicity certificate refuses"
        classes = uq_classes(module)
        if classes != Counter({lab: 1}):
            return False, f"label {lab}: classes {dict(classes)}"
    if certify_simple(tensor(simple_V(ctx, p), simple_V(ctx, 2))):
        return False, "negative control: V_p (x) V_2 is certified simple"
    return True, (f"all {len(labels)} labels certified simple, each its own "
                  "class; V_p (x) V_2 refused")


@check("fusion.associativity")
def _fusion_associativity(p, env):
    bad = (uq_ring(p).check_associativity()
           + wp_ring(p).check_associativity())
    return not bad, (
        f"all {2 * (2 * p) ** 3} triples across both rings"
        if not bad else f"{len(bad)} violations, first {bad[0]}"
    )


@check("fusion.iso_T")
def _fusion_isomorphism(p, env):
    witness = ring_map_witness(uq_ring(p), wp_ring(p), iso_T_labels(p))
    return witness is None, (
        "label bijection is a ring isomorphism on all pairs"
        if witness is None else f"witness {witness}")


@check("fusion.duality_pattern")
def _fusion_duality_pattern(p, env):
    # the delta rule N_{ab}^unit = delta_{a,b} fails exactly where classical
    # folding feeds the unit: the two Steinberg pairs, and chi-mixed pairs
    # whose classical range reaches p+1 with the right parity; each such
    # product holds the unit twice
    want = {((p, 0), (p, 0)), ((p, 1), (p, 1))}
    want.update(((s1, e), (s2, 1 - e))
                for s1 in range(1, p + 1) for s2 in range(1, p + 1)
                for e in (0, 1)
                if s1 + s2 >= p + 2 and (s1 + s2 - p) % 2 == 0)
    assign = iso_T_labels(p)
    for name, ring, expected in (
            ("uq_ring", uq_ring(p), want),
            ("wp_ring", wp_ring(p),
             {(assign[a], assign[b]) for a, b in want})):
        bad = ring.check_duality()
        missing = sorted(expected.difference(bad))
        extra = sorted(set(bad) - expected)
        if missing:
            return False, f"{name}: missing violation at {missing[0]}"
        if extra:
            return False, f"{name}: extra violation at {extra[0]}"
        for a, b in bad:
            n = ring.constants[(a, b)].get(ring.unit, 0)
            if n != 2:
                return False, f"{name}: unit multiplicity {n} at {(a, b)}"
    return True, (f"delta rule fails on exactly the {len(want)} Steinberg "
                  "and chi-mixed pairs of both rings, unit twice in each")


@check("fusion.truncated_closed_form")
def _fusion_truncated_closed_form(p, env):
    # both routes are commutative by construction (the series and the
    # convolution are symmetric in their operands), so unordered pairs do
    rmax = env["rmax"]
    pairs = 0
    for ring in (vir_ring(p, rmax), singlet_ring(p, rmax)):
        labels = ring.labels
        for i, a in enumerate(labels):
            for b in labels[i:]:
                if not ring.fits(a, b):
                    continue
                got, want = ring.product(a, b), ring.character_product(a, b)
                if got != want:
                    return False, (f"{ring.kind} {a}*{b}: closed form "
                                   f"{dict(got)}, character route "
                                   f"{dict(want)}")
                pairs += 1
    return True, (f"closed form equals the character route on all {pairs} "
                  f"in-window unordered pairs of window {rmax}, both kinds")


@check("braiding.hexagon")
def hexagon_solutions(p, env=None):
    """The hexagon scan finds exactly +-q^(+-1/2); data the winners."""
    ctx = field(p)
    winners = hexagon_winners(ctx)
    zh, q = ctx.qhalf(), ctx.q()
    ok = (len(winners) == 4
          and set(winners) == {zh, inv(zh), -zh, -inv(zh)}
          and all(a * a in (q, inv(q)) for a in winners))
    detail = f"{len(winners)} hexagon solutions among {ctx.N} scanned units"
    if not ok:
        found = ", ".join(map(str, winners))
        detail = (f"hexagon solutions [{found}] among {ctx.N} scanned "
                  "units, expected the four +-q^(+-1/2)")
    return ok, detail, winners


@check("braiding.yang_baxter")
def yang_baxter(p, env=None):
    """Each candidate satisfies the braid relation and the direct hexagon."""
    cands = braiding_candidates(field(p))
    if not all(check_yang_baxter(c) for c in cands):
        return False, "a candidate breaks the braid relation"
    if not all(check_hexagon(c) for c in cands):
        return False, "a candidate breaks the hexagon"
    return True, "all four candidates satisfy the braid relation"


@check("braiding.inverse_pairs")
def inverse_pairs(p, env=None):
    """Candidates 0,1 and 2,3 are mutually inverse braidings."""
    cands = braiding_candidates(field(p))
    ident = identity(cands[0].ctx, 2)
    bad = [(i, j) for i, j in ((0, 1), (1, 0), (2, 3), (3, 2))
           if compose(cands[i], cands[j]) != ident]
    return not bad, (
        "candidates pair into mutually inverse braidings" if not bad else
        "; ".join(f"candidate {i} composed with candidate {j} is not the "
                  "identity" for i, j in bad))


@check("braiding.rmatrix")
def _braiding_rmatrix(p, env):
    ctx = field(p)
    v = simple_V(ctx, 2)
    if braiding(v, v) != tl_to_matrix(ctx, braiding_candidates(ctx)[0]):
        return False, "R-matrix braiding on V[2] differs from the candidate"
    coev, ev = selfdual_V(ctx)
    dim = ev.mul(coev).entry(0, 0)
    q = ctx.q()
    if dim != -(q + inv(q)):
        return False, f"intrinsic dimension of V[2] is {dim}"
    return True, ("R-matrix braiding on V[2] equals zeta^{1/2} f + "
                  "zeta^{-1/2} id entrywise; intrinsic dimension -(q+q^{-1})")


@check("jw.projectors")
def _jw_projectors(p, env):
    ctx = field(p)
    problems = [line for n in range(1, p) for line in jw_problems(ctx, n)[0]]
    return not problems, ("; ".join(problems) if problems else
                          f"n=1..{p - 1}: idempotent, hook-killing, "
                          "alternating closures, vanishing top closure")


@check("twists.match_under_iso")
def twists_match(p, env=None):
    """The inverse module twists equal the recursion-side table under the
    label bijection; data that table."""
    table = wp_twists(p)
    module = uq_twists(p)
    bad = [a for a, b in iso_T_labels(p).items()
           if module.theta[a] != table.theta[b]]
    return not bad, (
        "inverse module twists equal the recursion-side table "
        "under the label bijection" if not bad else f"mismatch at {bad}"
    ), table


@check("twists.two_dim_value")
def _twists_two_dim(p, env):
    ctx = field(p)
    value = wp_twists(p).theta[(2, 1)]
    return value == -ctx.root(3), f"theta at (2,+) is {value}"


@check("modularity.wp_center")
def _modularity_wp_center(p, env):
    ctx = field(p)
    ring, table = wp_ring(p), wp_twists(p)
    cands = muger_candidates(ring, table)
    detail = (f"transparent candidates {sorted(cands)} (unit only means "
              "a trivial center)")
    if cands != {(1, 1)}:
        return False, detail
    # witness spectra: X[2,+] against the sign object, and against itself
    spec = monodromy(ring, table, (2, 1), (1, -1))
    if spec.multiset() != Counter({-ctx.one(): 1}):
        return False, f"spectrum of (2,1)x(1,-1) is {spec.multiset()}"
    spec = monodromy(ring, table, (2, 1), (2, 1))
    if p == 2:
        ok = spec.multiset() == Counter({ctx.root(-6): 4})
    else:
        ok = (spec.multiset() == Counter({ctx.root(-6): 1,
                                          ctx.root(2): 1})
              and spec.by_factor()[(1, 1)] == ctx.root(-6))
    if not ok:
        return False, f"spectrum of (2,1)x(2,1) is {spec.multiset()}"
    return True, detail


@check("modularity.singlet_center")
def _modularity_singlet_center(p, env):
    rmax = env["rmax"]
    cands = muger_candidates(singlet_ring(p, rmax), singlet_twists(p, rmax))
    # every odd first index of the requested window, with s = 1
    want = {(r, 1) for r in range(-rmax, rmax + 1) if r % 2}
    if cands != want:
        return False, (f"transparent candidates missing {sorted(want - cands)}"
                       f", extra {sorted(cands - want)}")
    return True, (
        f"{len(cands)} transparent candidates, all odd first index, "
        "a properly degenerate center"
    )


@check("modularity.quantum_order")
def _modularity_quantum_order(p, env):
    # intrinsic dimensions by d_r = d_2 d_{r-1} - d_{r-2} from d_0 = 0,
    # d_1 = 1, against the closed form (-1)^(r-1) [r]
    ctx = field(p)
    one = ctx.one()
    d2 = -qint(ctx, 2)
    prev, dim = ctx.zero(), one
    for r in range(1, p + 1):
        if r > 1:
            prev, dim = dim, d2 * dim - prev
        if dim != (qint(ctx, r) if r % 2 else -qint(ctx, r)):
            return False, ("dimension recursion leaves the closed form "
                           f"at r={r}")
    if not dim.is_zero():
        return False, f"top dimension d_{p} is {dim}, not 0"
    q2 = ctx.root(4)
    order, power = None, one
    for m in range(1, 4 * p + 1):
        power = power * q2
        if power == one:
            order = m
            break
    if order != p:
        return False, f"ord(q^2)={order}, expected {p}"
    return True, (
        "dimension recursion closed form, vanishing top dimension, "
        f"ord(q^2)={order}"
    )


@check("phase.channels")
def _phase_channels(p, env):
    ctx = field(p)
    h12 = conformal_weight(p, 1, 2)
    got = voa_monodromy_phase(p, h12, h12, Fraction(0))
    sq = voa_monodromy_phase(p, h12, h12, Fraction(0), squared=True)
    channels = [("vacuum", got, -ctx.root(-3)),
                ("squared vacuum", sq, ctx.root(-6)),
                ("vacuum phase squared", got * got, ctx.root(-6))]
    if p > 2:
        h13 = conformal_weight(p, 1, 3)
        channels.append(("adjacent h_{1,3}",
                         voa_monodromy_phase(p, h12, h12, h13),
                         ctx.root(1)))
    for name, value, want in channels:
        if value != want:
            return False, f"{name} channel gives {value}, expected {want}"
    return True, "vacuum and adjacent channels match the exact roots"


@check("phase.linking")
def _phase_linking(p, env):
    rmax = env["rmax"]
    ring = singlet_ring(p, rmax)
    table = singlet_twists(p, rmax)
    pairs = [((3, 1), (1, 2)), ((2, 1), (1, 1)), ((-1, 2), (3, 1))]
    for x, y in pairs:
        spec = monodromy(ring, table, x, y)
        for z, eig in spec.by_factor().items():
            want = voa_monodromy_phase(
                p, conformal_weight(p, *x), conformal_weight(p, *y),
                conformal_weight(p, *z), squared=True)
            if eig != want:
                return False, f"factor {z} of {x}*{y} disagrees"
    return True, ("balancing monodromy equals the squared phase on "
                  "every composition factor")


def iso_K_witness(p: int, r_max: int):
    """The truncated Virasoro ring of window r_max against the module side,
    or None when they agree.

    Four steps, in order: the vacuum label is neutral; first-column
    products follow the classical composition rule; restriction of each
    explicit module L(r-1) (x) V_s through the label bijection is r copies
    of the sign-alternating image F(r, s); and the vacuum projective cover
    class 2[L_{1,1}] + [L_{2,p-1}] has the four-term image.  The witness
    is (step, label or pair, what that step computed) for the first
    failing step.
    """
    ring = vir_ring(p, r_max)
    ctx = field(p)
    assign = iso_T_labels(p)

    for lab in ring.labels:
        got = ring.product(ring.unit, lab)
        if got != Counter({lab: 1}):
            return ("unit row", lab, dict(got))

    for r in range(1, r_max + 1):
        for rp in range(1, r_max + 2 - r):
            want = Counter(
                {(rr, 1): 1 for rr in range(abs(r - rp) + 1, r + rp, 2)}
            )
            got = ring.product((r, 1), (rp, 1))
            if got != want:
                return ("first-column product", ((r, 1), (rp, 1)), dict(got))

    for r in range(1, r_max + 1):
        for s in range(1, p + 1):
            pushed = push(assign, uq_classes(vir_module(ctx, (r, s))))
            if pushed != induction_F((r, s)):
                return ("restriction route", (r, s), dict(pushed))

    vac_cover = Counter({(1, 1): 2, (2, p - 1): 1})
    image = linear(induction_F, vac_cover)
    if image != Counter({(1, 1): 2, (p - 1, -1): 2}):
        return ("vacuum-cover image", dict(vac_cover), dict(image))
    return None


@check("grring.iso_K")
def _grring_iso_K(p, env):
    witness = iso_K_witness(p, 6)
    return witness is None, (
        "window products, restriction route, and the four-term "
        "vacuum-cover image all agree" if witness is None else
        "{} fails at {}: got {}".format(*witness))


@check("grring.composition")
def _grring_composition(p, env):
    for r in range(1, 7):
        for s in range(1, p + 1):
            got = linear(induction_Iprime, induction_I((r, s), r_max=8))
            if got != induction_F((r, s)):
                return False, f"composite differs at ({r},{s})"
    return True, "second induction after first equals the direct map"


def _random_trunc_label(rng, kind: str, p: int):
    # triple products add the first indices, with a spill of at most one
    # per multiplication, so these bounds keep everything inside window 12
    if kind == "vir":
        return (rng.randint(1, 3), rng.randint(1, p))
    return (rng.randint(-2, 2), rng.randint(1, p))


@check("properties.truncated_associativity")
def _truncated_associativity(p, env):
    rng = env["rng"]
    total = env["triples"]
    window = max(12, env["rmax"])
    # each distinct product is computed once per run of this check
    products = {"vir": cache(vir_ring(p, window).product),
                "singlet": cache(singlet_ring(p, window).product)}
    for k in range(total):
        kind = "vir" if k % 2 == 0 else "singlet"
        a, b, c = (_random_trunc_label(rng, kind, p) for _ in range(3))
        if not associative(products[kind], a, b, c):
            return False, f"{kind} triple {a},{b},{c} breaks"
    return True, f"{total} random in-window triples in both truncations"


@check("properties.tl_words")
def _tl_words(p, env):
    rng = env["rng"]
    ctx = field(p)
    lhs = compose(tl_tensor(cup(ctx), identity(ctx, 1)),
                  tl_tensor(identity(ctx, 1), cap(ctx)))
    rhs = compose(tl_tensor(identity(ctx, 1), cup(ctx)),
                  tl_tensor(cap(ctx), identity(ctx, 1)))
    if lhs != identity(ctx, 1) or rhs != identity(ctx, 1):
        return False, "a snake identity breaks"
    for _ in range(10):
        n = rng.choice((1, 2, 3))
        m = rng.choice((n % 2, n % 2 + 2)) or 2
        k = rng.choice((m % 2, m % 2 + 2)) or 2
        d1 = rng.choice(all_diagrams(n, m))
        d2 = rng.choice(all_diagrams(m, k))
        f = from_diagram(ctx, d1)
        g = from_diagram(ctx, d2)
        word = compose(f, g)
        if tl_to_matrix(ctx, word) != tl_to_matrix(ctx, g).mul(
                tl_to_matrix(ctx, f)):
            return False, f"functor breaks on a {n}->{m}->{k} word"
    return True, "snake identities and 10 random composition words"


@check("properties.module_relations")
def _module_relations(p, env):
    ctx = field(p)
    mods = [simple_V(ctx, s) for s in range(1, p + 1)]
    mods.append(chi_module(ctx))
    mods.append(simple_L(ctx, 1))
    mods.append(tensor(simple_V(ctx, 2), simple_V(ctx, 2)))
    for m in mods:
        problems = check_module(m)
        if problems:
            return False, problems[0]
    return True, f"{len(mods)} modules pass the relation audit"


@check("properties.balancing")
def _balancing(p, env):
    ctx = field(p)
    pairs = [(f"V_{a} (x) V_{b}", simple_V(ctx, a), simple_V(ctx, b))
             for a in range(1, p + 1) for b in range(a, p + 1)
             if a * b <= 12]
    pairs.append(("chi (x) V_2", chi_module(ctx), simple_V(ctx, 2)))
    for name, m, n in pairs:
        c2 = braiding(n, m).mul(braiding(m, n))
        lhs = c2.mul(twist_inverse(tensor(m, n)))
        rhs = Matrix.kron(twist_inverse(m), twist_inverse(n))
        if lhs != rhs:
            return False, f"balancing identity breaks on {name}"
    return True, f"balancing identity on {len(pairs)} products of dim <= 12"


@check("properties.dsl_roundtrip")
def _dsl_roundtrip(p, env):
    # the expression language belongs to the front end, which imports this
    # module; importing it here, when the check runs, keeps loading one-way
    from .cli import parse, print_expression, random_expression

    rng = env["rng"]
    total = env["roundtrips"]
    for _ in range(total):
        ast = random_expression(rng)
        if parse(print_expression(ast)) != ast:
            return False, f"round trip breaks on {ast!r}"
    return True, f"{total} random print/parse round trips"


SUITES: dict = {}
for _name in CHECKS:
    SUITES.setdefault(_name.split(".")[0], []).append(_name)
