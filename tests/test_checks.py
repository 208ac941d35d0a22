"""The check registry: failed rows carry a witness, crashed rows say where.

Each mutation test runs one registered check as is, then again with one of
its inputs broken by monkeypatch, and asserts that the broken run fails
with a detail that names what went wrong instead of repeating the pass
text.

Frozen expectations of the rows that compute their verdict in the registry:
  * d(X_r^+) = (-1)^(r-1)[r] from the recursion, vanishing at r = p;
    ord(q^2) = p
  * braiding.rmatrix: braiding(V_2, V_2) is the functor image of the
    +zeta^{1/2} candidate, and ev.coev = -(q+q^{-1}), which is -1 at p = 3
  * properties.balancing: c_{N,M} c_{M,N} theta^-1(M (x) N) =
    theta^-1(M) (x) theta^-1(N), which a doubled braiding breaks first on
    V_1 (x) V_1, and a braiding doubled on V_2 (x) V_3 alone breaks there
  * fpdim.simple_certificates: the module of each of the 2p labels is
    certified simple and is its own single class; V_p (x) V_2 is refused
  * grring.iso_K at window 6: unit row, first-column products M_{r,1}
    M_{r',1} = sum of M_{t,1}, restriction of L(r-1) (x) V_s equal to
    F(L_{r,s}), and the vacuum cover 2[L_{1,1}] + [L_{2,p-1}] going to
    2 X1+ + 2 X_{p-1}^-
"""

from collections import Counter

import pytest

from ribbonkit import checks, fusion, tldiag
from ribbonkit.checks import CHECKS, iso_K_witness, run_checks
from ribbonkit.cyclo import field, inv
from ribbonkit.tldiag import (
    cap, check_hexagon, compose, cup, flip, flip_diagram, hook, identity,
    tensor as tl_tensor,
)
from ribbonkit.qrep import simple_V, tensor

ALL_P = [2, 3, 4, 5, 6, 7]
P = 3
ENV = {"rmax": 4}


def _fail_detail(monkeypatch, name, target, attr, value) -> str:
    ok, pass_text = CHECKS[name](P, ENV)[:2]
    assert ok
    monkeypatch.setattr(target, attr, value)
    ok, detail = CHECKS[name](P, ENV)[:2]
    assert not ok and detail != pass_text
    return detail


def test_hexagon_names_the_winners(monkeypatch):
    # every scanned unit passes a per-unit verdict that accepts everything
    detail = _fail_detail(monkeypatch, "braiding.hexagon", checks,
                          "hexagon_holds", lambda rows, aa, ab, bb: True)
    found = detail.split("[")[1].split("]")[0].split(", ")
    assert found == [str(field(P).root(j)) for j in range(4 * P)]


@pytest.mark.parametrize("p", range(2, 11))
def test_hexagon_winners_match_the_direct_scan(p):
    # the expanded hexagon against check_hexagon on a f + a^{-1} id, for
    # every unit a
    ctx = field(p)
    f = compose(cap(ctx), cup(ctx))
    ident = identity(ctx, 2)
    direct = [ctx.root(j) for j in range(ctx.N)
              if check_hexagon(ctx.root(j) * f + inv(ctx.root(j)) * ident)]
    assert checks.hexagon_winners(ctx) == direct
    assert len(direct) == 4


def test_hexagon_winners_compose_once_per_field(monkeypatch):
    # the scan builds no morphism per unit: four compositions build the
    # rows, whatever p, and check_hexagon is never called
    def refuse(c):
        raise AssertionError("check_hexagon called")

    calls = []

    def counted(f, g):
        calls.append(1)
        return compose(f, g)

    monkeypatch.setattr(checks, "check_hexagon", refuse)
    monkeypatch.setattr(tldiag, "compose", counted)
    counts = []
    for p in range(2, 11):
        tldiag.hexagon_rows.cache_clear()
        calls.clear()
        assert len(checks.hexagon_winners(field(p))) == 4
        counts.append(len(calls))
    assert counts == [4] * 9


def test_inverse_pairs_names_the_pair(monkeypatch):
    real = checks.braiding_candidates

    def doubled(ctx):
        c0, _, c2, c3 = real(ctx)
        return [c0, c0, c2, c3]

    detail = _fail_detail(monkeypatch, "braiding.inverse_pairs", checks,
                          "braiding_candidates", doubled)
    assert detail == (
        "candidate 0 composed with candidate 1 is not the identity; "
        "candidate 1 composed with candidate 0 is not the identity")


def test_rmatrix_names_the_braiding(monkeypatch):
    real = checks.braiding
    detail = _fail_detail(monkeypatch, "braiding.rmatrix", checks, "braiding",
                          lambda m, n: real(m, n).scale(-m.ctx.one()))
    assert detail == "R-matrix braiding on V[2] differs from the candidate"


def test_rmatrix_names_the_intrinsic_dimension(monkeypatch):
    # a doubled coevaluation leaves the braiding clause passing
    real = checks.selfdual_V

    def doubled(ctx):
        coev, ev = real(ctx)
        return coev.scale(ctx.rational(2)), ev

    detail = _fail_detail(monkeypatch, "braiding.rmatrix", checks,
                          "selfdual_V", doubled)
    assert detail == "intrinsic dimension of V[2] is -2"


def test_balancing_names_the_identity(monkeypatch):
    real = checks.braiding
    detail = _fail_detail(monkeypatch, "properties.balancing", checks,
                          "braiding",
                          lambda m, n: real(m, n).scale(m.ctx.rational(2)))
    assert detail == "balancing identity breaks on V_1 (x) V_1"


def test_balancing_names_the_first_failing_pair(monkeypatch):
    # only V_2 (x) V_3 is broken: both of its braidings are doubled
    real = checks.braiding

    def doubled(m, n):
        c = real(m, n)
        if {m.dimension, n.dimension} == {2, 3}:
            return c.scale(m.ctx.rational(2))
        return c

    detail = _fail_detail(monkeypatch, "properties.balancing", checks,
                          "braiding", doubled)
    assert detail == "balancing identity breaks on V_2 (x) V_3"


def test_phase_channels_names_the_channel(monkeypatch):
    real = checks.voa_monodromy_phase

    def flipped(p, h1, h2, h3, squared=False):
        value = real(p, h1, h2, h3, squared=squared)
        return -value if h3 else value

    detail = _fail_detail(monkeypatch, "phase.channels", checks,
                          "voa_monodromy_phase", flipped)
    root = field(P).root(1)
    assert detail == (f"adjacent h_{{1,3}} channel gives {-root}, "
                      f"expected {root}")


def test_singlet_center_names_missing_and_extra(monkeypatch):
    real = checks.muger_candidates

    def shifted(ring, table):
        return real(ring, table) - {(1, 1)} | {(2, 1)}

    detail = _fail_detail(monkeypatch, "modularity.singlet_center", checks,
                          "muger_candidates", shifted)
    assert detail == "transparent candidates missing [(1, 1)], extra [(2, 1)]"


def test_quantum_order_names_false_fields(monkeypatch):
    real = checks.qint

    def off_by_one(ctx, n):
        return real(ctx, n) + ctx.one() if n == 3 else real(ctx, n)

    detail = _fail_detail(monkeypatch, "modularity.quantum_order", checks,
                          "qint", off_by_one)
    assert detail == "dimension recursion leaves the closed form at r=3"


def test_grring_iso_K_names_the_step(monkeypatch):
    real = checks.induction_F

    def doubled(lab):
        return real(lab) + real(lab) if lab == (3, 1) else real(lab)

    detail = _fail_detail(monkeypatch, "grring.iso_K", checks,
                          "induction_F", doubled)
    assert detail == "restriction route fails at (3, 1): got {(1, 1): 3}"


def test_simple_certificates_name_the_label(monkeypatch):
    # one label's module replaced by the projective V_p (x) V_2
    real = checks.uq_module

    def swapped(ctx, lab):
        if lab == (2, 1):
            return tensor(simple_V(ctx, ctx.p), simple_V(ctx, 2))
        return real(ctx, lab)

    detail = _fail_detail(monkeypatch, "fpdim.simple_certificates", checks,
                          "uq_module", swapped)
    assert detail == "label (2, 1): the simplicity certificate refuses"


def test_simple_certificates_name_the_negative_control(monkeypatch):
    detail = _fail_detail(monkeypatch, "fpdim.simple_certificates", checks,
                          "certify_simple", lambda module: True)
    assert detail == "negative control: V_p (x) V_2 is certified simple"


@pytest.mark.parametrize("p", ALL_P)
def test_quantum_order_row(p, monkeypatch):
    # the recursion meets the closed form up to the top r = p, so a
    # nonzero [p] is caught there; at p = 2 the top is d_2 = -[2] itself,
    # the closed form holds by construction and the Steinberg clause
    # refuses instead
    row = CHECKS["modularity.quantum_order"]
    ok, detail = row(p, {})
    assert ok and detail.endswith(f"ord(q^2)={p}")
    real = checks.qint

    def off_by_one(ctx, n):
        return real(ctx, n) + ctx.one() if n == p else real(ctx, n)

    monkeypatch.setattr(checks, "qint", off_by_one)
    want = ("top dimension d_2 is -1, not 0" if p == 2 else
            f"dimension recursion leaves the closed form at r={p}")
    assert row(p, {}) == (False, want)


def test_quantum_order_p4_example(monkeypatch):
    # the recursion's d_3 at p = 4 is q^2 + 1 + q^-2: with [3] written
    # out so, the row still passes
    ctx = field(4)
    q = ctx.q()
    d3 = q * q + ctx.one() + (q * q).inv()
    real = checks.qint
    monkeypatch.setattr(checks, "qint",
                        lambda c, n: d3 if n == 3 else real(c, n))
    assert CHECKS["modularity.quantum_order"](4, {})[0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_grring_iso_K_witnesses(p, monkeypatch):
    # criterion 9 runs the row as is; here each step gets one broken
    # input and must come back as the witness with its label or pair,
    # which the row's detail spells out at its window 6
    product, induce = fusion.TruncatedRing.product, checks.induction_F

    def extra_product(pair):
        def mutated(self, a, b):
            out = Counter(product(self, a, b))
            if (a, b) == pair:
                out[(1, 1)] += 1
            return out
        return mutated

    def extra_image(lab0):
        return lambda lab: induce(lab) + Counter({(1, 1): int(lab == lab0)})

    cases = [
        ((fusion.TruncatedRing, "product", extra_product(((1, 1), (1, p)))),
         6, ("unit row", (1, p), {(1, p): 1, (1, 1): 1})),
        ((fusion.TruncatedRing, "product", extra_product(((2, 1), (2, 1)))),
         6, ("first-column product", ((2, 1), (2, 1)),
             {(1, 1): 2, (3, 1): 1})),
        ((checks, "induction_F", extra_image((3, 1))),
         6, ("restriction route", (3, 1), {(1, 1): 3})),
        # at window 1 only r = 1 is restricted, so the cover's (2, p-1)
        # image reaches the last step unchecked
        ((checks, "induction_F", extra_image((2, p - 1))),
         1, ("vacuum-cover image", {(1, 1): 2, (2, p - 1): 1},
             {(1, 1): 3, (p - 1, -1): 2})),
    ]
    for patch, r_max, want in cases:
        with monkeypatch.context() as m:
            m.setattr(*patch)
            got = iso_K_witness(p, r_max)
            assert got == want
            if r_max == 6:
                assert CHECKS["grring.iso_K"](p, {}) == (
                    False, "{} fails at {}: got {}".format(*got))


def test_jw_hook_certificate_negative_controls(monkeypatch):
    # jw_audit derives idempotency from the identity coefficient and the
    # hooks instead of squaring: a jw(9) with one coefficient changed must
    # fail it, and so must 2 jw(9), which still kills every hook
    ctx, n = field(10), 9
    real_compose = checks.compose
    squares = []

    def counted(f, g):
        squares.append(f is g)
        return real_compose(f, g)

    monkeypatch.setattr(checks, "compose", counted)
    e, idempotent, alive, _ = checks.jw_audit(ctx, n)
    assert idempotent and not alive and not any(squares)
    ident, = identity(ctx, n).terms
    other = next(d for d in e.terms if d != ident)
    bumped = tldiag.TLMorphism(ctx, n, n,
                               {**e.terms, other: e.terms[other] + 1})
    for broken in (bumped, e * 2):
        monkeypatch.setattr(checks, "jones_wenzl", lambda c, m: broken)
        _, idempotent, alive, _ = checks.jw_audit(ctx, n)
        assert not idempotent
        assert (alive == []) == (broken == e * 2)
    # the row names the broken projector: 2 jw(7) kills every hook, so
    # e.e = 2e != e, and the row says it is not idempotent
    real_jw = tldiag.jones_wenzl
    doubled = 2 * real_jw(field(8), 7)
    monkeypatch.setattr(checks, "jones_wenzl", lambda c, m: (
        doubled if m == 7 else real_jw(c, m)))
    assert CHECKS["jw.projectors"](8, ENV) == (
        False, "jw(7) is not idempotent")


def test_jw_row_checks_the_top_closure_by_the_closed_form(monkeypatch):
    # at n = p - 1 the alternating closure (-1)^n [n+1] is [p] = 0, so the
    # one comparison per n also asks for a vanishing top closure: a closure
    # spoiled at jw(4) alone fails the p = 5 row, which names jw(4)
    real = checks.jw_audit

    def spoiled(ctx, n):
        e, idempotent, alive, closure = real(ctx, n)
        return e, idempotent, alive, closure + 1 if n == 4 else closure

    assert CHECKS["jw.projectors"](5, ENV)[0]
    monkeypatch.setattr(checks, "jw_audit", spoiled)
    assert CHECKS["jw.projectors"](5, ENV) == (
        False, "jw(4) has closure 1, expected 0")


def test_jw_row_names_a_live_hook_without_an_idempotency_claim(monkeypatch):
    # with a hook alive the certificate proves nothing either way, so the
    # row names the hook and does not say "is not idempotent"
    ctx, n = field(7), 6
    e = _jw_variants(ctx, n)["one-sided"]
    alive = _two_sided_alive(e)
    assert alive
    real_jw = tldiag.jones_wenzl
    monkeypatch.setattr(checks, "jones_wenzl", lambda c, m: (
        e if m == n else real_jw(c, m)))
    ok, detail = CHECKS["jw.projectors"](7, ENV)
    assert not ok
    assert "is not idempotent" not in detail
    assert detail.startswith("; ".join(
        f"jw(6) does not kill hook {i}" for i in alive)), detail


def _two_sided_alive(e):
    """Reference: the hooks that e does not kill, each composed with e on
    both sides."""
    n = e.bottom_count
    return [i for i in range(1, n)
            if not (compose(hook(e.ctx, n, i), e).is_zero()
                    and compose(e, hook(e.ctx, n, i)).is_zero())]


def _jw_variants(ctx, n):
    """jw(n) and broken copies: doubled, bumped on a diagram its flip moves
    and on one it fixes, and plus a term that one hook kills on one side
    only (jw' = jw(n-1) x id against E_{n-1}, in either order)."""
    e = tldiag.jones_wenzl(ctx, n)
    ident, = identity(ctx, n).terms

    def bumped(mirror):
        d = next(d for d in e.terms
                 if d != ident and (flip_diagram(d) == d) == mirror)
        return tldiag.TLMorphism(ctx, n, n, {**e.terms, d: e.terms[d] + 1})

    prev = tl_tensor(tldiag.jones_wenzl(ctx, n - 1), identity(ctx, 1))
    last = hook(ctx, n, n - 1)
    return {"jw": e, "doubled": 2 * e, "bumped": bumped(False),
            "bumped self-flip": bumped(True),
            "one-sided": e + compose(prev, last),
            "other-sided": e + compose(last, prev)}


@pytest.mark.parametrize("p, n", [(7, 6), (8, 5)])
def test_jw_audit_alive_matches_two_sided_reference(monkeypatch, p, n):
    ctx = field(p)
    variants = _jw_variants(ctx, n)
    # the last two variants make some hook alive on one side only, so a
    # kill on the composed side must not hide it
    for name in ("one-sided", "other-sided"):
        e = variants[name]
        assert any(compose(hook(ctx, n, i), e).is_zero()
                   != compose(e, hook(ctx, n, i)).is_zero()
                   for i in range(1, n)), name
    for name, e in variants.items():
        monkeypatch.setattr(checks, "jones_wenzl", lambda c, m: e)
        _, _, alive, _ = checks.jw_audit(ctx, n)
        assert alive == _two_sided_alive(e), name
        assert (alive == []) == (name in ("jw", "doubled")), name


@pytest.mark.parametrize("p, n", [(7, 6), (10, 9)])
def test_jw_audit_composes_each_hook_once_on_a_mirrored_projector(
        monkeypatch, p, n):
    # n - 1 hook products when e equals its flip; 2(n - 1) otherwise,
    # h.e and h.flip(e) per hook; no other product at any n
    ctx = field(p)
    e = tldiag.jones_wenzl(ctx, n)
    bumped = _jw_variants(ctx, n)["bumped"]
    assert flip(e) == e and flip(bumped) != bumped
    hooks = [hook(ctx, n, i) for i in range(1, n)]
    real_compose = checks.compose
    for broken, want in ((e, n - 1), (bumped, 2 * (n - 1))):
        calls = []

        def counted(f, g):
            calls.append(f in hooks)
            return real_compose(f, g)

        monkeypatch.setattr(checks, "compose", counted)
        monkeypatch.setattr(checks, "jones_wenzl", lambda c, m: broken)
        checks.jw_audit(ctx, n)
        assert calls == [True] * want


@pytest.mark.parametrize("p", range(2, 10))
def test_jw_certificate_implies_the_square(monkeypatch, p):
    # differential: the hook certificate against the direct square e.e == e,
    # on jw(n) and its broken copies for every n < p; jw(n) passes both,
    # 2 jw(n) fails both, and no copy passes the certificate alone
    ctx = field(p)
    for n in range(1, p):
        e = tldiag.jones_wenzl(ctx, n)
        variants = (_jw_variants(ctx, n) if n >= 3
                    else {"jw": e, "doubled": 2 * e})
        for name, v in variants.items():
            monkeypatch.setattr(checks, "jones_wenzl", lambda c, m: v)
            _, certified, _, _ = checks.jw_audit(ctx, n)
            squared = compose(v, v) == v
            assert squared or not certified, (n, name)
            if name == "jw":
                assert certified and squared, n
            if name == "doubled":
                assert not certified and not squared, n


@pytest.mark.parametrize("p", ALL_P)
def test_pass_details(p):
    # the run options carry no functions: properties.dsl_roundtrip
    # reaches the expression language itself
    names = ["modularity.quantum_order", "grring.iso_K",
             "grring.composition", "properties.dsl_roundtrip"]
    opts = {"rmax": 6, "seed": 0, "triples": 0, "roundtrips": 25}
    got = [(row["status"], row["detail"])
           for row in run_checks(p, names, opts)]
    assert got == [
        ("pass", "dimension recursion closed form, vanishing top "
                 f"dimension, ord(q^2)={p}"),
        ("pass", "window products, restriction route, and the four-term "
                 "vacuum-cover image all agree"),
        ("pass", "second induction after first equals the direct map"),
        ("pass", "25 random print/parse round trips"),
    ]


def test_crashed_row_names_type_and_location(monkeypatch):
    def explode(p, env):
        return {}["missing"]

    monkeypatch.setitem(CHECKS, "demo.explode", explode)
    (row,) = run_checks(2, ["demo.explode"], {"seed": 0})
    line = explode.__code__.co_firstlineno + 1
    assert row["status"] == "fail"
    assert row["detail"] == f"KeyError at test_checks.py:{line}: 'missing'"


def test_duality_pattern_names_missing_and_extra(monkeypatch):
    # on the module ring the first violation in scan order goes missing;
    # on the recursion ring one unit pair is added
    real = fusion.FusionRing.check_duality

    def dropped(ring):
        bad = real(ring)
        return bad[1:] if ring.unit == (1, 0) else bad

    def added(ring):
        bad = real(ring)
        return bad + [((1, 1), (1, 1))] if ring.unit == (1, 1) else bad

    with monkeypatch.context() as m:
        detail = _fail_detail(m, "fusion.duality_pattern",
                              fusion.FusionRing, "check_duality", dropped)
    assert detail == "uq_ring: missing violation at ((2, 0), (3, 1))"
    detail = _fail_detail(monkeypatch, "fusion.duality_pattern",
                          fusion.FusionRing, "check_duality", added)
    assert detail == "wp_ring: extra violation at ((1, 1), (1, 1))"
