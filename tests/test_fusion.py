"""Fusion rings: the module-oracle ring, the generator-recursion ring, their
isomorphism, Frobenius-Perron data, and the truncated Virasoro/singlet rings
with induction maps.

Frozen expectations, derived before implementation:
  * uq side (labels (s, parity)):
      V2.V2 at p=2      -> 2.unit + 2.chi
      V2.Vs (1<s<p)     -> V_{s-1} + V_{s+1}
      V3.V3 at p=3      -> 2.unit + 2.chiV2 + V3
      V2.Vp             -> 2.chiV1 + 2.V_{p-1}
  * wp side (labels (s, sign)), built only from the generator recursion:
      X2+.Xp+  -> 2.X1- + 2.X_{p-1}+
      X1-.X1-  -> X1+
      X3+.X3+ at p=3 -> 2.X2- + 2.X1+ + X3+   (matches the uq image)
  * FPdim(V_s) = FPdim(X_s^{±}) = s, category total 2p^3
  * strict duality N_{ij}^{unit} = delta_{i,j*} fails exactly on the
    Steinberg pairs (V_p, V_p), (chiV_p, chiV_p), plus the mixed pairs at
    p = 2; it holds everywhere else
  * h_{r,s} = ((rp-s)^2 - (p-1)^2)/4p; h_{1,2} = 3/4p - 1/2; h_{2,1}|p=2 = 1
  * F(L_{r,s}) = r.X_s^{eps(r)}, I(L_{3,1}) = {M_{3,1}, M_{1,1}, M_{-1,1}},
    I'(M_{1,2}) = X2+, I'.I = F, M_{r,1}.M_{r',1} = M_{r+r'-1,1}
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from ribbonkit import checks, fusion
from ribbonkit.checks import CHECKS
from ribbonkit.cyclo import field, qfact, qint
from ribbonkit.qrep import (
    decompose_character,
    peel_strings,
    restrict_classes,
    simple_V,
    string_weights,
    tensor,
    uq_classes,
    uq_module,
)
from ribbonkit.tldiag import jones_wenzl
from ribbonkit.fusion import (
    ConvergenceError,
    FusionRing,
    NegativityError,
    TruncationOverflow,
    conformal_weight,
    fpdim_category,
    fpdim_object,
    induction_F,
    induction_I,
    induction_Iprime,
    iso_T_labels,
    push,
    ring_map_witness,
    singlet_ring,
    uq_labels,
    uq_projective_classes,
    uq_ring,
    vir_ring,
    wp_labels,
    wp_projective_classes,
    wp_ring,
)

ALL_P = [2, 3, 4, 5, 6, 7]


def _z2_constants(changes):
    # the constants of toy_z2_ring, each pair in changes replaced by its
    # row, or dropped where the row is None
    consts = {
        ("1", "1"): {"1": 1}, ("1", "g"): {"g": 1},
        ("g", "1"): {"g": 1}, ("g", "g"): {"1": 1},
    }
    for pair, row in changes.items():
        if row is None:
            del consts[pair]
        else:
            consts[pair] = row
    return consts


def toy_z2_ring():
    return FusionRing(["1", "g"], "1", _z2_constants({}))


# -- uq ring from the module oracle ------------------------------------------


def test_uq_ring_basics():
    ring = uq_ring(3)
    assert len(ring.labels) == 6
    assert ring.unit == (1, 0)
    assert ring.product((1, 1), (1, 1)) == Counter({(1, 0): 1})
    assert ring.product((2, 0), (2, 0)) == Counter({(1, 0): 1, (3, 0): 1})
    assert ring.product((2, 0), (3, 0)) == Counter({(1, 1): 2, (2, 0): 2})
    assert ring.product((3, 0), (3, 0)) == Counter(
        {(1, 0): 2, (2, 1): 2, (3, 0): 1}
    )


def test_uq_ring_boundary_p2():
    ring = uq_ring(2)
    assert ring.product((2, 0), (2, 0)) == Counter({(1, 0): 2, (1, 1): 2})
    assert ring.product((2, 1), (2, 1)) == Counter({(1, 0): 2, (1, 1): 2})


@pytest.mark.parametrize("p", ALL_P)
def test_uq_ring_generic_rules(p):
    ring = uq_ring(p)
    for s in range(2, p):
        assert ring.product((2, 0), (s, 0)) == Counter(
            {(s - 1, 0): 1, (s + 1, 0): 1}
        )
    assert ring.product((2, 0), (p, 0)) == Counter(
        {(1, 1): 2, (p - 1, 0): 2}
    )
    # chi twists commute through products
    for s in range(1, p + 1):
        lhs = ring.product((1, 1), (s, 0))
        assert lhs == Counter({(s, 1): 1})


@pytest.mark.parametrize("p", range(2, 13))
def test_uq_ring_constants_match_ordered_pair_loop(p):
    # each unordered pair is decomposed once; the dict handed to FusionRing
    # must equal the one that decomposes every ordered pair, key order and
    # the order of each entry included
    seen = []

    def capture(labels, unit, constants):
        seen.append(constants)
        return FusionRing(labels, unit, constants)

    with mock.patch.object(fusion, "FusionRing", capture):
        fusion.uq_ring.__wrapped__(p)
    got, = seen
    labels = [(s, eps) for s in range(1, p + 1) for eps in (0, 1)]
    wts = {(s, eps): Counter(string_weights(p, eps, s)) for s, eps in labels}
    ref = {}
    for a in labels:
        for b in labels:
            ref[(a, b)] = dict(
                restrict_classes(p, fusion._convolve(wts[a], wts[b])))
    assert [(key, list(row.items())) for key, row in got.items()] == \
        [(key, list(row.items())) for key, row in ref.items()]
    for a, b in got:
        assert a == b or got[(a, b)] is not got[(b, a)]


@pytest.mark.parametrize("p", [2, 3, 4])
def test_uq_ring_associative_all_triples(p):
    ring = uq_ring(p)
    assert ring.check_associativity() == []


@pytest.mark.parametrize("p", [5, 6, 7])
def test_uq_ring_associative_sampled(p):
    ring = uq_ring(p)
    rng = random.Random(7 * p)
    triples = [
        tuple(rng.choice(ring.labels) for _ in range(3)) for _ in range(40)
    ]
    assert all(fusion.associative(ring.product, a, b, c)
               for a, b, c in triples)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_uq_duality_pattern(p):
    # the strict delta rule fails exactly where classical folding feeds the
    # unit: equal Steinberg pairs, and chi-mixed pairs whose classical range
    # reaches p+1 with the right parity
    ring = uq_ring(p)
    expected_bad = {((p, 0), (p, 0)), ((p, 1), (p, 1))}
    for s1 in range(1, p + 1):
        for s2 in range(1, p + 1):
            if s1 + s2 >= p + 2 and (s1 + s2 - p) % 2 == 0:
                for e in (0, 1):
                    expected_bad.add(((s1, e), (s2, 1 - e)))
    assert set(ring.check_duality()) == expected_bad
    for a, b in expected_bad:
        assert ring.product(a, b)[ring.unit] == 2


# -- wp ring from the generator recursion ------------------------------------


def test_wp_ring_basics():
    ring = wp_ring(3)
    assert len(ring.labels) == 6
    assert ring.unit == (1, 1)
    assert ring.product((1, -1), (1, -1)) == Counter({(1, 1): 1})
    assert ring.product((2, 1), (3, 1)) == Counter({(1, -1): 2, (2, 1): 2})
    assert ring.product((3, 1), (3, 1)) == Counter(
        {(2, -1): 2, (1, 1): 2, (3, 1): 1}
    )


@pytest.mark.parametrize("p", ALL_P)
def test_wp_ring_stated_rules(p):
    ring = wp_ring(p)
    for s in range(2, p):
        for eps in (1, -1):
            assert ring.product((2, 1), (s, eps)) == Counter(
                {(s - 1, eps): 1, (s + 1, eps): 1}
            )
    for eps in (1, -1):
        assert ring.product((2, 1), (p, eps)) == Counter(
            {(1, -eps): 2, (p - 1, eps): 2}
        )
        for s in range(1, p + 1):
            assert ring.product((1, -1), (s, eps)) == Counter({(s, -eps): 1})


@pytest.mark.parametrize("p", [2, 3, 4])
def test_wp_ring_associative_all_triples(p):
    assert wp_ring(p).check_associativity() == []


# -- one linear extension, one associativity test ----------------------------
#
# The loops below are test-only copies of the hand-written loops that
# fusion.linear and fusion.associative replaced; the library must agree with
# them violation for violation, in order.


def _loop_product_combo(ring, x, y) -> Counter:
    out = Counter()
    for a, ma in x.items():
        for b, mb in y.items():
            for k, n in ring.constants[(a, b)].items():
                out[k] += ma * mb * n
    return +out


def _loop_check_associativity(ring) -> list:
    bad = []
    for a, b, c in itertools.product(ring.labels, repeat=3):
        left = _loop_product_combo(ring, ring.constants[(a, b)],
                                   Counter({c: 1}))
        right = _loop_product_combo(ring, Counter({a: 1}),
                                    ring.constants[(b, c)])
        if left != right:
            bad.append((a, b, c))
    return bad


def _loop_truncated_associativity(p, env):
    rng = env["rng"]
    total = env["triples"]
    window = max(12, env["rmax"])
    products = {"vir": cache(vir_ring(p, window).product),
                "singlet": cache(singlet_ring(p, window).product)}
    for k in range(total):
        kind = "vir" if k % 2 == 0 else "singlet"
        prod = products[kind]
        a, b, c = (checks._random_trunc_label(rng, kind, p) for _ in range(3))
        left, right = Counter(), Counter()
        for lab, mult in prod(a, b).items():
            for z, n in prod(lab, c).items():
                left[z] += mult * n
        for lab, mult in prod(b, c).items():
            for z, n in prod(a, lab).items():
                right[z] += mult * n
        if +left != +right:
            return False, f"{kind} triple {a},{b},{c} breaks"
    return True, f"{total} random in-window triples in both truncations"


def test_linear_visits_every_entry():
    # zero and negative multiplicities are visited too, in order, and the
    # images are read, never modified
    seen = []
    images = {"a": {"x": 1, "y": 2}, "b": {"y": 1}, "c": {"z": 5}}

    def f(lab):
        seen.append(lab)
        return images[lab]

    got = fusion.linear(f, {"a": 2, "b": -3, "c": 0})
    assert seen == ["a", "b", "c"]
    assert list(got.items()) == [("x", 2), ("y", 1), ("z", 0)]
    assert images["a"] == {"x": 1, "y": 2}


@pytest.mark.parametrize("p", [2, 3])
def test_associativity_matches_the_loop_on_a_planted_ring(p):
    # one bumped constant, built as in test_check_iso_negative_control
    wp = wp_ring(p)
    consts = {pair: dict(wp.product(*pair)) for pair in wp.constants}
    consts[((2, 1), (2, 1))][(1, 1)] += 1
    mutated = FusionRing(wp.labels, wp.unit, consts)
    bad = mutated.check_associativity()
    assert bad and bad == _loop_check_associativity(mutated)
    assert wp.check_associativity() == _loop_check_associativity(wp) == []


@pytest.mark.parametrize("p", [2, 3])
def test_truncated_associativity_names_the_loop_triple(p, monkeypatch):
    # a closed form that gains one unit on one pair breaks a few triples;
    # the row and the loop draw the same triples and stop at the same one
    product = fusion.TruncatedRing.product

    def planted(self, a, b):
        out = Counter(product(self, a, b))
        if (a, b) == ((2, 1), (2, p)):
            out[(1, 1)] += 1
        return out

    def env():
        return {"rng": random.Random(f"5:{p}:properties"), "triples": 2000,
                "rmax": 8}

    row = CHECKS["properties.truncated_associativity"]
    assert row(p, env()) == _loop_truncated_associativity(p, env())
    monkeypatch.setattr(fusion.TruncatedRing, "product", planted)
    got = row(p, env())
    assert not got[0], got
    assert got == _loop_truncated_associativity(p, env())


# -- the isomorphism T -------------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_check_iso_T(p):
    # criterion 2 runs the clean check; here each law gets one planted
    # fault at this p and must come back as the witness
    assign = iso_T_labels(p)
    uq, wp = uq_ring(p), wp_ring(p)

    doubled = dict(assign)
    doubled[(p, 1)] = doubled[(p, 0)]
    assert ring_map_witness(uq, wp, doubled) == (
        "not a bijection onto the target basis", None, None)

    swapped = dict(assign)
    swapped[(1, 0)], swapped[(1, 1)] = swapped[(1, 1)], swapped[(1, 0)]
    assert ring_map_witness(uq, wp, swapped) == (
        "unit is not preserved", None, None)

    last = list(uq.constants)[-1]
    image = (assign[last[0]], assign[last[1]])
    consts = {pair: dict(wp.product(*pair)) for pair in wp.constants}
    consts[image][wp.unit] = consts[image].get(wp.unit, 0) + 1
    bumped = FusionRing(wp.labels, wp.unit, consts)
    assert ring_map_witness(uq, bumped, assign) == (
        last, push(assign, uq.product(*last)), Counter(consts[image]))


@pytest.mark.parametrize("fault", ["missing label", "foreign label"])
def test_ring_map_witness_malformed_assignment(fault):
    # an assignment that does not cover the source labels, or that leaves
    # the target labels, is no bijection: a witness, never an exception
    assign = iso_T_labels(2)
    if fault == "missing label":
        del assign[(2, 1)]
    else:
        assign[(2, 1)] = (3, -1)
    assert ring_map_witness(uq_ring(2), wp_ring(2), assign) == (
        "not a bijection onto the target basis", None, None)


@pytest.mark.parametrize("p", [8, 13, 20])
def test_recursion_ring_matches_module_ring(p):
    # past the acceptance range: the integer recursion ring against the
    # module-side ring, and both certified characters against s
    witness = ring_map_witness(uq_ring(p), wp_ring(p), iso_T_labels(p))
    assert witness is None, witness
    for ring in (uq_ring(p), wp_ring(p)):
        assert fusion._fp_character(ring) == {
            lab: lab[0] for lab in ring.labels}


def test_memos_are_shared():
    # a repeat call hands back the memoised object itself; the inverse is
    # keyed by value, so an equal element built afresh finds it too
    ctx = field(7)
    assert qint(ctx, 3) is qint(ctx, 3)
    assert qfact(ctx, 5) is qfact(ctx, 5)
    assert (qint(ctx, 3) + 1).inv() is (qint(ctx, 3) + 1).inv()
    assert jones_wenzl(ctx, 4) is jones_wenzl(ctx, 4)
    assert uq_ring(7) is uq_ring(7)
    assert wp_ring(7) is wp_ring(7)
    for ring in (uq_ring(7), wp_ring(7)):
        char = fusion._fp_character(ring)
        assert char is not None and fusion._fp_character(ring) is char
    # qfact builds [n]! from the memoised [n-1]!; compare with the product
    # [1][2]...[n] taken afresh
    for p in range(2, 10):
        ctx = field(p)
        want = ctx.one()
        for n in range(p + 1):
            if n:
                want = want * qint(ctx, n)
            assert qfact(ctx, n) == want


@pytest.mark.parametrize("p", range(2, 13))
def test_label_lists_are_the_ring_labels(p):
    # one label list per side, in ring order, and the bijection pairs
    # place i with place i
    uq, wp = uq_labels(p), wp_labels(p)
    assert uq == list(uq_ring(p).labels) and wp == list(wp_ring(p).labels)
    assert len(uq) == len(wp) == 2 * p
    assign = iso_T_labels(p)
    assert list(assign) == uq
    assert [assign[a] for a in uq] == wp


def test_iso_T_is_label_map():
    assign = iso_T_labels(3)
    assert assign[(2, 0)] == (2, 1)
    assert assign[(2, 1)] == (2, -1)
    assert assign[(1, 0)] == (1, 1)
    assert len(assign) == len(set(assign.values())) == 6
    assert ring_map_witness(uq_ring(3), wp_ring(3), assign) is None


def test_check_iso_negative_control():
    # bump one non-unit constant; the morphism check must name the bad pair
    uq = uq_ring(2)
    wp = wp_ring(2)
    consts = {
        pair: dict(wp.product(*pair)) for pair in wp.constants
    }
    consts[((2, 1), (2, 1))][(1, 1)] += 1
    mutated = FusionRing(wp.labels, wp.unit, consts)
    witness = ring_map_witness(uq, mutated, iso_T_labels(2))
    assert witness is not None
    assert witness[0] == ((2, 0), (2, 0))


# -- Frobenius-Perron data ---------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_fpdim_simple_labels(p):
    uq = uq_ring(p)
    for s in range(1, p + 1):
        for eps in (0, 1):
            dim = fpdim_object(uq, (s, eps))
            assert type(dim) is int and dim == s
    assert fpdim_object(uq, uq.unit) == 1
    wp = wp_ring(p)
    assert fpdim_object(wp, (2, 1)) == 2


def test_fpdim_combination():
    uq = uq_ring(3)
    assert fpdim_object(uq, Counter({(3, 0): 2, (1, 1): 1})) == 7


@pytest.mark.parametrize("p", ALL_P)
def test_fpdim_category_value(p):
    uq = fpdim_category(uq_ring(p), uq_projective_classes(p))
    wp = fpdim_category(wp_ring(p), wp_projective_classes(p))
    assert uq == wp == 2 * p ** 3


def test_fpdim_toy_ring():
    ring = toy_z2_ring()
    assert ring.check_associativity() == []
    assert ring.check_duality() == []
    assert fpdim_object(ring, "g") == 1
    assert fpdim_category(ring, {lab: Counter({lab: 1}) for lab in ring.labels}) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_projective_classes_derived_from_oracle(p):
    # composition-factor bookkeeping: V_p (x) V_s is projective, and its
    # class is exactly the sum over P_c for c = p-s+1, p-s+3, ... below p,
    # plus the Steinberg cover when s is odd; dimensions tie out to p*s
    ctx = field(p)
    pclasses = uq_projective_classes(p)
    for s in range(1, p + 1):
        observed = uq_classes(tensor(simple_V(ctx, p), simple_V(ctx, s)))
        expected = Counter()
        dim = 0
        for c in range(p - s + 1, p, 2):
            expected.update(pclasses[(c, 0)])
            dim += 2 * p
        if s % 2 == 1:
            expected.update(pclasses[(p, 0)])
            dim += p
        assert observed == expected
        assert dim == p * s


@pytest.mark.parametrize("p", range(2, 13))
def test_wp_projective_classes_match_the_typed_table(p):
    # the recursion-side cover table as it was typed before it became the
    # image of the module-side table: same keys in the same order
    typed = {}
    for s in range(1, p + 1):
        for eps in (1, -1):
            if s == p:
                typed[(s, eps)] = Counter({(p, eps): 1})
            else:
                typed[(s, eps)] = Counter({(s, eps): 2, (p - s, -eps): 2})
    got = wp_projective_classes(p)
    assert list(got) == list(typed)
    assert got == typed


def test_projective_classes_shape():
    pc = uq_projective_classes(5)
    assert pc[(5, 0)] == Counter({(5, 0): 1})
    assert pc[(2, 0)] == Counter({(2, 0): 2, (3, 1): 2})
    assert pc[(2, 1)] == Counter({(2, 1): 2, (3, 0): 2})
    wc = wp_projective_classes(5)
    assert wc[(2, 1)] == Counter({(2, 1): 2, (3, -1): 2})


@pytest.mark.parametrize("p", [2, 3])
def test_uq_ring_matches_module_route(p):
    # ring constants from character arithmetic equal the explicit tensor route
    ctx = field(p)
    ring = uq_ring(p)
    reps = {lab: uq_module(ctx, lab) for lab in ring.labels}
    for a in ring.labels:
        for b in ring.labels:
            assert ring.product(a, b) == uq_classes(tensor(reps[a], reps[b]))


def test_fpdim_golden_ring():
    # the Perron eigenvalue is the golden ratio: no integer character, so
    # every dimension is refused rather than answered in floating point
    consts = {
        ("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
        ("t", "1"): {"t": 1}, ("t", "t"): {"1": 1, "t": 1},
    }
    ring = FusionRing(["1", "t"], "1", consts)
    assert fusion._fp_character(ring) is None
    with pytest.raises(ValueError,
                       match="no integral Frobenius-Perron character"):
        fpdim_object(ring, "t")


def test_fpdim_unsettled_perron_vector():
    # x * x = 0: the total multiplication is a Jordan block, power iteration
    # creeps towards its eigenvector too slowly to settle, and that means no
    # character, so dimensions are refused rather than raising from _perron
    consts = {
        ("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
        ("x", "1"): {"x": 1}, ("x", "x"): {},
    }
    ring = FusionRing(["1", "x"], "1", consts)
    with pytest.raises(ConvergenceError, match="within 10000 steps"):
        fusion._perron(ring)
    assert fusion._fp_character(ring) is None
    with pytest.raises(ValueError,
                       match="no integral Frobenius-Perron character"):
        fpdim_object(ring, "x")


GG = ("g", "g")


def test_negative_constant_rejected():
    with pytest.raises(NegativityError):
        FusionRing(["1", "g"], "1", _z2_constants({GG: {"1": -1}}))


@pytest.mark.parametrize("labels, unit, changes, error, message", [
    (["1", "g", "g"], "1", {}, ValueError, "duplicate labels"),
    (["1", "g"], "h", {}, ValueError, "unit is not a label"),
    (["1", "g"], "1", {GG: None}, ValueError, "missing product 'g' * 'g'"),
    (["1", "g"], "1", {GG: {"h": 1}}, ValueError,
     "unknown label 'h' in a product"),
    (["1", "g"], "1", {GG: {"1": Fraction(1, 2)}}, NegativityError,
     "constant N['g','g']^'1' = 1/2"),
    (["1", "g"], "1", {("1", "g"): {"g": 2}}, ValueError,
     "unit does not act trivially on 'g'"),
], ids=["duplicate", "unit", "missing", "unknown", "fractional", "unit_row"])
def test_constructor_refusals(labels, unit, changes, error, message):
    with pytest.raises(error) as err:
        FusionRing(labels, unit, _z2_constants(changes))
    assert type(err.value) is error and str(err.value) == message


# -- conformal weights and truncated rings -----------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_conformal_weights(p):
    assert conformal_weight(p, 1, 1) == 0
    assert conformal_weight(p, 1, 2) == Fraction(3, 4 * p) - Fraction(1, 2)
    vl = [(lab, conformal_weight(p, *lab)) for lab in vir_ring(p, 4).labels]
    assert ((1, 1), Fraction(0)) in vl
    assert len(vl) == 4 * p


def test_conformal_weight_example_p2():
    assert conformal_weight(2, 2, 1) == 1


def test_vir_labels_and_overflow():
    ring = vir_ring(3, r_max=4)
    assert ring.unit == (1, 1)
    assert ring.product((1, 1), (3, 2)) == Counter({(3, 2): 1})
    with pytest.raises(TruncationOverflow):
        ring.product((4, 1), (4, 1))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vir_classical_row(p):
    # first-column labels fuse by classical Clebsch-Gordan
    ring = vir_ring(p, r_max=8)
    for r in range(1, 4):
        for rp in range(1, 4):
            got = ring.product((r, 1), (rp, 1))
            want = Counter(
                {(rr, 1): 1 for rr in range(abs(r - rp) + 1, r + rp, 2)}
            )
            assert got == want


def test_vir_mixed_product():
    # L_{2,1} . L_{1,2} at p=3: characters multiply to L_{2,2}
    ring = vir_ring(3, r_max=6)
    assert ring.product((2, 1), (1, 2)) == Counter({(2, 2): 1})


def test_singlet_ring_invertibles():
    ring = singlet_ring(3, r_max=8)
    assert ring.product((3, 1), (3, 1)) == Counter({(5, 1): 1})
    assert ring.product((-1, 1), (3, 1)) == Counter({(1, 1): 1})
    assert ring.product((3, 1), (1, 2)) == Counter({(3, 2): 1})
    with pytest.raises(TruncationOverflow):
        ring.product((8, 1), (3, 1))


def test_singlet_labels_range():
    labs = [(lab, conformal_weight(2, *lab))
            for lab in singlet_ring(2, 3).labels]
    rs = {r for (r, s), _h in labs}
    assert rs == {-3, -2, -1, 0, 1, 2, 3}
    assert ((1, 1), Fraction(0)) in labs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_singlet_nonunit_column_product(p):
    # M_{1,s} squares pick up the full inner fusion range
    ring = singlet_ring(p, r_max=8)
    if p == 2:
        # the top of the convolved character sits in an atypical block
        assert ring.product((1, 2), (1, 2)) == Counter(
            {(2, 1): 1, (1, 1): 2, (0, 1): 1}
        )
    else:
        assert ring.product((1, 2), (1, 2)) == Counter(
            {(1, 1): 1, (1, 3): 1}
        )


def _clebsch_gordan_strings(p, a, b):
    # product of strings (t, s) (t', s'): the sl(2) series k in s (x) s',
    # shifted by (t + t')p; a k past p splits into three strings
    (t, s), (u, v) = a, b
    out = Counter()
    for k in range(abs(s - v) + 1, s + v, 2):
        if k <= p:
            out[(t + u, k)] += 1
        else:
            out[(t + u + 1, k - p)] += 1
            out[(t + u, 2 * p - k)] += 1
            out[(t + u - 1, k - p)] += 1
    return out


def _series_labels(kind, p, a, b):
    # every label of a * b, with no window.  A singlet label (r, s) is the
    # string (r - 1, s); Virasoro labels add the sl(2) series in r, each
    # term the string series at that r, with no (0, k-p) block at r = 1
    (r, s), (r2, s2) = a, b
    if kind == "singlet":
        strings = _clebsch_gordan_strings(p, (r - 1, s), (r2 - 1, s2))
        return Counter({(t + 1, k): m for (t, k), m in strings.items()})
    out = Counter()
    for rr in range(abs(r - r2) + 1, r + r2, 2):
        for lab, m in _clebsch_gordan_strings(p, (rr, s), (0, s2)).items():
            if lab[0] > 0:
                out[lab] += m
    return out


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
def test_singlet_product_matches_closed_form(p):
    # an oracle independent of the character peel; label (r, s) is the
    # string (r - 1, s)
    ring = singlet_ring(p, r_max=4)
    for a in ring.labels:
        for b in ring.labels:
            strings = _clebsch_gordan_strings(
                p, (a[0] - 1, a[1]), (b[0] - 1, b[1]))
            want = Counter({(t + 1, s): m for (t, s), m in strings.items()})
            if all(abs(r) <= 4 for r, _s in want):
                assert ring.product(a, b) == want, (a, b)
            else:
                with pytest.raises(TruncationOverflow):
                    ring.product(a, b)


def _character_route(ring, a, b):
    # the whole product character, peeled, then the window checked label by
    # label in peel order: ("ok", Counter) or ("overflow", message)
    p, r_max = ring.p, ring.r_max
    conv = fusion._convolve(ring._weights(a), ring._weights(b))
    if ring.kind == "vir":
        dec = decompose_character(p, conv)
        assert not any(chi for _r, _s, chi in dec)
        out = Counter({(r + 1, s): m for (r, s, _chi), m in dec.items()})
    else:
        out = Counter({(t + 1, s): m
                       for (t, s), m in peel_strings(p, conv).items()})
    lo = 1 if ring.kind == "vir" else -r_max
    for lab in out:
        if not lo <= lab[0] <= r_max:
            return "overflow", f"label {lab} outside the r_max={r_max} window"
    return "ok", out


def _no_character(*_args):
    raise AssertionError("an overflowing product built its character")


@pytest.mark.parametrize("kind", ["vir", "singlet"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_truncated_product_matches_character_route(kind, p, monkeypatch):
    # the refusal from the input labels alone, before any convolution,
    # names the same label as the window check after the full peel
    for r_max in (2, 3, 5):
        ring = fusion.TruncatedRing(p, r_max, kind)
        for a in ring.labels:
            for b in ring.labels:
                want, detail = _character_route(ring, a, b)
                if want == "ok":
                    got = ring.product(a, b)
                    assert list(got.items()) == list(detail.items()), (a, b)
                    continue
                with monkeypatch.context() as patch:
                    patch.setattr(fusion, "_convolve", _no_character)
                    with pytest.raises(TruncationOverflow) as err:
                        ring.product(a, b)
                assert str(err.value) == detail, (r_max, a, b)


def _outcome(route, a, b):
    # ("ok", items in key order) or ("overflow", refusal text)
    try:
        return "ok", list(route(a, b).items())
    except TruncationOverflow as err:
        return "overflow", str(err)


@pytest.mark.parametrize("kind", ["vir", "singlet"])
@pytest.mark.parametrize("p, r_max", [(4, 8), (8, 8), (11, 8), (20, 3)])
def test_closed_form_matches_character_routes(kind, p, r_max):
    # the closed form against the library's character route and the
    # test-local one: values, key order and refusal text.  The character
    # routes are commutative by construction, so they run once per
    # unordered pair; the closed form runs on both orders
    ring = fusion.TruncatedRing(p, r_max, kind)
    labels = ring.labels
    for i, a in enumerate(labels):
        for b in labels[i:]:
            want, detail = _character_route(ring, a, b)
            want = (want, list(detail.items()) if want == "ok" else detail)
            assert _outcome(ring.product, a, b) == want, (a, b)
            assert _outcome(ring.product, b, a) == want, (b, a)
            assert _outcome(ring.character_product, a, b) == want, (a, b)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_truncated_closed_form_row(p):
    ok, detail = CHECKS["fusion.truncated_closed_form"](p, {"rmax": 8})
    pairs = 0
    for kind in ("vir", "singlet"):
        ring = fusion.TruncatedRing(p, 8, kind)
        labels = ring.labels
        pairs += sum(_character_route(ring, a, b)[0] == "ok"
                     for i, a in enumerate(labels) for b in labels[i:])
    assert ok, detail
    assert detail == (f"closed form equals the character route on all "
                      f"{pairs} in-window unordered pairs of window 8, "
                      "both kinds")


def _drop_top_spill(only=None):
    # a closed form that loses the (t+1, k-p) block of the top k > p of the
    # series at the top t, on every pair or on the one pair given
    product = fusion.TruncatedRing.product

    def planted(self, a, b):
        out = Counter(product(self, a, b))
        (r, s), (r2, s2) = a, b
        k = s + s2 - 1
        if k > self.p and only in (None, (a, b)):
            out[(r + r2, k - self.p)] -= 1
        return +out
    return planted


@pytest.mark.parametrize("p", [2, 3, 5])
def test_truncated_closed_form_row_names_the_pair(p, monkeypatch):
    row = CHECKS["fusion.truncated_closed_form"]
    # on every pair: the first Virasoro pair with s + s' > p + 1 in scan
    # order comes back
    with monkeypatch.context() as m:
        m.setattr(fusion.TruncatedRing, "product", _drop_top_spill())
        ok, detail = row(p, {"rmax": 8})
    assert not ok
    assert detail.startswith(f"vir (1, 2)*(1, {p}): closed form "), detail
    # on one singlet pair alone: that pair, with both results
    pair = ((-1, p), (2, p))
    ring = singlet_ring(p, 8)
    planted = _drop_top_spill(only=pair)
    want = (False, (f"singlet (-1, {p})*(2, {p}): closed form "
                    f"{dict(planted(ring, *pair))}, character route "
                    f"{dict(ring.character_product(*pair))}"))
    with monkeypatch.context() as m:
        m.setattr(fusion.TruncatedRing, "product", planted)
        assert row(p, {"rmax": 8}) == want


@pytest.mark.parametrize("kind", ["vir", "singlet"])
@pytest.mark.parametrize("p", ALL_P)
def test_fits_is_the_refusal(kind, p):
    for r_max in range(1, 6):
        ring = fusion.TruncatedRing(p, r_max, kind)
        for a in ring.labels:
            for b in ring.labels:
                try:
                    ring.product(a, b)
                    refused = False
                except TruncationOverflow:
                    refused = True
                assert ring.fits(a, b) is not refused, (r_max, a, b)


@pytest.mark.parametrize("kind", ["vir", "singlet"])
@pytest.mark.parametrize("p", range(2, 11))
def test_fits_matches_the_series(kind, p):
    # fits against the series itself: true exactly when every label of
    # a * b lies in the window.  A pair of window w lies in every larger
    # window, so each pair's series is built once, at the largest
    rings = [fusion.TruncatedRing(p, w, kind) for w in range(1, 9)]
    for a in rings[-1].labels:
        for b in rings[-1].labels:
            rs = [r for r, _s in _series_labels(kind, p, a, b)]
            for ring in rings:
                w = ring.r_max
                if max(abs(a[0]), abs(b[0])) > w:
                    continue
                lo = 1 if kind == "vir" else -w
                inside = lo <= min(rs) and max(rs) <= w
                assert ring.fits(a, b) is inside, (w, a, b)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vir_product_matches_the_series(p):
    # the Virasoro half of the test-local series is the product wherever
    # it fits (test_singlet_product_matches_closed_form has the singlet)
    ring = vir_ring(p, r_max=4)
    for a in ring.labels:
        for b in ring.labels:
            if ring.fits(a, b):
                want = _series_labels("vir", p, a, b)
                assert ring.product(a, b) == want, (a, b)


@pytest.mark.parametrize("a, name", [((10**6, 1), (1999999, 1)),
                                     ((10**6, 2), (2000000, 1))])
def test_refusal_builds_the_top_block_only(a, name):
    # the full series in r has 10**6 blocks; a refusal builds only the top
    ring = vir_ring(2, 10**6)
    start = time.perf_counter()
    with pytest.raises(TruncationOverflow) as err:
        ring.product(a, a)
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == f"label {name} outside the r_max=1000000 window"


@pytest.mark.parametrize("kind", ["vir", "singlet"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_character_product_refuses_before_convolving(kind, p, monkeypatch):
    for r_max in (2, 3):
        ring = fusion.TruncatedRing(p, r_max, kind)
        refused = [(a, b, _character_route(ring, a, b)[1])
                   for a in ring.labels for b in ring.labels
                   if not ring.fits(a, b)]
        assert refused
        with monkeypatch.context() as patch:
            patch.setattr(fusion, "_convolve", _no_character)
            for a, b, text in refused:
                with pytest.raises(TruncationOverflow) as err:
                    ring.character_product(a, b)
                assert str(err.value) == text, (r_max, a, b)


def test_label_membership():
    ring = uq_ring(3)
    assert (3, 1) in ring and (4, 0) not in ring and "x" not in ring
    for kind in ("vir", "singlet"):
        ring = fusion.TruncatedRing(3, 2, kind)
        grid = [(r, s) for r in range(-4, 5) for s in range(-1, 6)]
        assert [lab for lab in grid if lab in ring] == sorted(ring.labels)


def test_finite_rings_fit_everywhere():
    rings = [toy_z2_ring()] + [f(p) for p in (2, 3, 5) for f in (uq_ring,
                                                                  wp_ring)]
    for ring in rings:
        assert all(ring.fits(a, b) is True for a, b in ring.constants)


# -- induction maps ----------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_induction_F(p):
    assert induction_F((1, 1)) == Counter({(1, 1): 1})
    assert induction_F((2, p - 1)) == Counter({(p - 1, -1): 2})
    assert induction_F((3, 1)) == Counter({(1, 1): 3})


def test_induction_I_examples():
    assert induction_I((3, 1), r_max=8) == Counter(
        {(3, 1): 1, (1, 1): 1, (-1, 1): 1}
    )
    assert induction_I((1, 2), r_max=8) == Counter({(1, 2): 1})
    with pytest.raises(TruncationOverflow):
        induction_I((3, 1), r_max=2)


def test_induction_Iprime_examples():
    assert induction_Iprime((1, 2)) == Counter({(2, 1): 1})
    assert induction_Iprime((-1, 1)) == Counter({(1, 1): 1})
    assert induction_Iprime((2, 1)) == Counter({(1, -1): 1})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_parity_consistency(p):
    # F(L_{r,1}).F(L_{r',1}) lands on the sign of eps(r+r'-1)
    wp = wp_ring(p)
    for r in range(1, 5):
        for rp in range(1, 5):
            fa = induction_F((r, 1))
            fb = induction_F((rp, 1))
            prod = Counter()
            for a, ma in fa.items():
                for b, mb in fb.items():
                    for c, mc in wp.product(a, b).items():
                        prod[c] += ma * mb * mc
            eps = 1 if (r + rp - 1) % 2 else -1
            assert all(lab[1] == eps for lab in prod)


# -- randomized properties ---------------------------------


@given(data=st.data(), p=st.sampled_from([2, 3, 5]))
def test_vir_associativity_random(data, p):
    ring = vir_ring(p, r_max=12)
    rs = st.integers(min_value=1, max_value=2)
    ss = st.integers(min_value=1, max_value=p)
    a = (data.draw(rs), data.draw(ss))
    b = (data.draw(rs), data.draw(ss))
    c = (data.draw(rs), data.draw(ss))
    left = Counter()
    for lab, mult in ring.product(a, b).items():
        for lab2, m2 in ring.product(lab, c).items():
            left[lab2] += mult * m2
    right = Counter()
    for lab, mult in ring.product(b, c).items():
        for lab2, m2 in ring.product(a, lab).items():
            right[lab2] += mult * m2
    assert left == right


@given(data=st.data(), p=st.sampled_from([2, 3]))
def test_singlet_associativity_random(data, p):
    ring = singlet_ring(p, r_max=12)
    rs = st.integers(min_value=-2, max_value=3)
    ss = st.integers(min_value=1, max_value=p)
    a = (data.draw(rs), data.draw(ss))
    b = (data.draw(rs), data.draw(ss))
    c = (data.draw(rs), data.draw(ss))
    left = Counter()
    for lab, mult in ring.product(a, b).items():
        for lab2, m2 in ring.product(lab, c).items():
            left[lab2] += mult * m2
    right = Counter()
    for lab, mult in ring.product(b, c).items():
        for lab2, m2 in ring.product(a, lab).items():
            right[lab2] += mult * m2
    assert left == right
