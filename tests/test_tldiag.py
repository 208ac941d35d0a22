"""Temperley-Lieb diagram category at d = -(zeta + zeta^{-1}).

Frozen expectations: Catalan diagram counts, the jw(2) closed form
id - d^{-1}*(cup.cap), signed quantum-integer Markov closures, and the
four-element braiding solution set with its paired-inverse identity.
The hexagon identity used throughout is
    (c x 1).(1 x c).(coev x 1) = (1 x coev)
whose span reduction is a*b = 1 and a^2 + b^2 + d*a*b = 0; the four exact
solutions are a = +-zeta^{+-1/2}, b = a^{-1}.

Composition through link states and tensor of diagrams are checked against
test-only copies of an older node-tuple walker and index remap: exhaustively
on small boundaries, and on random morphisms and the Jones-Wenzl products
against a term-by-term sum, through both summation paths of compose (packed
integer sums, and field sums) and with coefficients up to 2^64 over rational
denominators.  The single-clasp jones_wenzl is checked coefficient by
coefficient against the Wenzl recursion, and the link-state walk of
markov_close against the closing rainbows composed out.  The flip is
checked against the reversed circular word, which reflects a diagram top
to bottom, and as an anti-involution that fixes every hook and jw(n).
"""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from ribbonkit import tldiag
from ribbonkit.cyclo import CycNumber, FieldContext, field, inv, qint
from ribbonkit.tldiag import (
    BoundaryMismatch,
    QuantumOrderError,
    TLDiagram,
    TLMorphism,
    all_diagrams,
    braiding_candidates,
    cap,
    check_hexagon,
    check_yang_baxter,
    compose,
    cup,
    flip,
    flip_diagram,
    from_diagram,
    hexagon_holds,
    hexagon_rows,
    hook,
    identity,
    jones_wenzl,
    loop_value,
    markov_close,
    tensor,
)

ALL_P = [2, 3, 4, 5, 6, 7]
CATALAN = [1, 1, 2, 5, 14, 42, 132]


def roots(ctx):
    """Strategy: a root of unity zeta^k."""
    return st.integers(min_value=0, max_value=ctx.N - 1).map(ctx.root)


def wide_coefficients(ctx):
    """Strategy: a root of unity, or power-basis coefficients that are
    integers or fractions of either sign, numerators and denominators up to
    2^64, often zero."""
    big = 2**64
    entry = st.one_of(
        st.just(0),
        st.integers(-big, big),
        st.fractions(min_value=-big, max_value=big, max_denominator=big),
    )
    dense = st.lists(entry, min_size=ctx.degree, max_size=ctx.degree).map(
        lambda cs: CycNumber(ctx, cs))
    return st.one_of(roots(ctx), dense)


def morphisms(ctx, n, m, max_terms=3, coeffs=roots):
    """Strategy: random morphism n -> m, by default with root-of-unity
    coefficients."""
    diags = all_diagrams(n, m)
    coeff = coeffs(ctx)
    term = st.tuples(st.sampled_from(diags), coeff)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: sum(
            (from_diagram(ctx, d) * c for d, c in ts),
            TLMorphism.zero(ctx, n, m),
        )
    )


# -- diagrams ----------------------------------------------------------------


def test_diagram_validity():
    TLDiagram(2, 2, [(0, 3), (1, 2)])  # identity on 2 strands
    TLDiagram(2, 2, [(0, 1), (2, 3)])  # cap-cup
    with pytest.raises(ValueError):
        TLDiagram(2, 2, [(0, 2), (1, 3)])  # crossing
    with pytest.raises(ValueError):
        TLDiagram(1, 2, [(0, 1)])  # odd total / not a perfect matching
    with pytest.raises(ValueError):
        TLDiagram(2, 2, [(0, 1), (0, 3)])  # repeated endpoint


def test_diagram_serialization():
    d = TLDiagram(3, 3, [(0, 1), (2, 3), (4, 5)])
    assert str(d) == "TL(3->3){(0,1)(2,3)(4,5)}"
    assert d == TLDiagram(3, 3, [(4, 5), (2, 3), (1, 0)])


@pytest.mark.parametrize("n", range(7))
def test_catalan_counts(n):
    assert len(all_diagrams(0, 2 * n)) == CATALAN[n]
    assert len(all_diagrams(n, n)) == CATALAN[n]


# -- composition and tensor --------------------------------------------------


def test_loop_rule():
    ctx = field(3)
    d = loop_value(ctx)
    q = ctx.q()
    assert d == -(q + inv(q))
    # cup then cap closes one loop on the empty diagram
    closed = compose(cup(ctx), cap(ctx))
    assert closed == TLMorphism.zero(ctx, 0, 0) + d * identity(ctx, 0)
    # f.f = d*f for f = cup.cap on two strands
    f = compose(cap(ctx), cup(ctx))
    assert compose(f, f) == d * f


@pytest.mark.parametrize("p", [2, 3, 5])
def test_identity_neutral(p):
    ctx = field(p)
    f = compose(cap(ctx), cup(ctx))
    assert compose(identity(ctx, 2), f) == f
    assert compose(f, identity(ctx, 2)) == f


def test_boundary_mismatch():
    ctx = field(2)
    with pytest.raises(BoundaryMismatch):
        compose(cup(ctx), identity(ctx, 3))


def test_tensor_basics():
    ctx = field(3)
    assert tensor(identity(ctx, 1), identity(ctx, 1)) == identity(ctx, 2)
    t = tensor(cup(ctx), cap(ctx))
    assert t.bottom_count == 2 and t.top_count == 2
    assert len(t.terms) == 1
    z = TLMorphism.zero(ctx, 1, 1)
    assert tensor(cup(ctx), z) == TLMorphism.zero(ctx, 1, 3)
    assert len(tensor(cup(ctx), cup(ctx)).terms) == 1


def test_snake_identities():
    for p in ALL_P:
        ctx = field(p)
        lhs = compose(tensor(cup(ctx), identity(ctx, 1)),
                      tensor(identity(ctx, 1), cap(ctx)))
        rhs = compose(tensor(identity(ctx, 1), cup(ctx)),
                      tensor(cap(ctx), identity(ctx, 1)))
        assert lhs == identity(ctx, 1)
        assert rhs == identity(ctx, 1)


# -- Jones-Wenzl -------------------------------------------------------------


def test_jw1_is_identity():
    ctx = field(5)
    assert jones_wenzl(ctx, 1) == identity(ctx, 1)


def test_jw2_closed_form():
    ctx = field(3)
    f = compose(cap(ctx), cup(ctx))
    expected = identity(ctx, 2) - inv(loop_value(ctx)) * f
    assert jones_wenzl(ctx, 2) == expected


@pytest.mark.parametrize("p", ALL_P)
def test_jw_idempotent_and_hook_killing(p):
    ctx = field(p)
    for n in range(1, p):
        jw = jones_wenzl(ctx, n)
        assert compose(jw, jw) == jw
        for i in range(1, n):
            e = hook(ctx, n, i)
            assert compose(jw, e).is_zero()
            assert compose(e, jw).is_zero()


def _wenzl_reference(ctx, top):
    """[jw(1), ..., jw(top)] by the Wenzl recursion, with jw' = jw(n-1) x id:
        jw(n) = jw' + ([n-1]/[n]) * jw' . E_{n-1} . jw'"""
    out = [identity(ctx, 1)]
    for n in range(2, top + 1):
        prev = tensor(out[-1], identity(ctx, 1))
        corr = compose(compose(prev, hook(ctx, n, n - 1)), prev)
        out.append(prev + (qint(ctx, n - 1) / qint(ctx, n)) * corr)
    return out


@pytest.mark.parametrize("p", range(2, 10))
def test_single_clasp_matches_wenzl_recursion(p):
    # coefficient by coefficient, on every diagram, for n <= 8
    ctx = field(p)
    for n, want in enumerate(_wenzl_reference(ctx, min(8, p - 1)), 1):
        assert jones_wenzl(ctx, n).terms == want.terms


def _composed_hook(ctx, n, i):
    """E_i on n strands as cup.cap tensored with identities on either side."""
    out = compose(cap(ctx), cup(ctx))
    if i > 1:
        out = tensor(identity(ctx, i - 1), out)
    if i < n - 1:
        out = tensor(out, identity(ctx, n - i - 1))
    return out


def test_hook_matches_the_composed_hook():
    # equal morphisms, and equal link states, which the trusted constructor
    # behind hook does not check
    ctx = field(5)
    for n in range(2, 12):
        for i in range(1, n):
            got, want = hook(ctx, n, i), _composed_hook(ctx, n, i)
            assert got == want, (n, i)
            assert [d.links for d in got.terms] == [
                d.links for d in want.terms]
            assert [TLDiagram(n, n, d.pairs).links for d in got.terms] == [
                d.links for d in got.terms]
    for n, i in ((2, 0), (2, 2), (5, 5), (1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            hook(ctx, n, i)


def _reversed_word(d):
    """d reflected top to bottom through the public constructor: on the
    circular word the reflection reverses the points, x -> n + m - 1 - x."""
    last = d.bottom_count + d.top_count - 1
    return TLDiagram(d.top_count, d.bottom_count,
                     [(last - a, last - b) for a, b in d.pairs])


def test_flip_matches_the_reversed_word():
    # every diagram with up to 8 boundary points, square or not
    for n in range(9):
        for m in range(9 - n):
            for d in all_diagrams(n, m):
                got = flip_diagram(d)
                assert got.links == _reversed_word(d).links, d
                assert (got.bottom_count, got.top_count) == (m, n)
                assert flip_diagram(got).links == d.links


@given(data=st.data(), p=st.sampled_from([3, 5, 7]))
def test_flip_is_an_anti_involution(data, p):
    # n -> m -> k with n, m, k drawn from 0..4: non-square shapes included
    f, g = data.draw(_composable(p, coeffs=wide_coefficients))
    assert flip(flip(f)) == f
    assert (flip(f).bottom_count, flip(f).top_count) == (
        f.top_count, f.bottom_count)
    assert flip(compose(f, g)) == compose(flip(g), flip(f))


def test_flip_fixes_every_hook():
    ctx = field(5)
    for n in range(2, 12):
        for i in range(1, n):
            assert flip(hook(ctx, n, i)) == hook(ctx, n, i), (n, i)


@pytest.mark.parametrize("p", range(2, 10))
def test_flip_fixes_jones_wenzl(p):
    ctx = field(p)
    for n in range(1, p):
        e = jones_wenzl(ctx, n)
        assert flip(e) == e, n


@pytest.mark.parametrize("p", ALL_P)
def test_jw_out_of_range(p):
    ctx = field(p)
    with pytest.raises(QuantumOrderError):
        jones_wenzl(ctx, p)


def test_jw_memo_is_keyed_by_context():
    # a context built directly, not interned by field(), shares p with
    # field(5) but not its projectors: composing them would mix contexts
    jones_wenzl(field(5), 3)
    c = FieldContext(5)
    jw = jones_wenzl(c, 3)
    assert jw.ctx is c
    assert compose(jw, identity(c, 3)) == jw


# -- Markov closure ----------------------------------------------------------


def test_markov_basics():
    ctx = field(4)
    assert markov_close(identity(ctx, 0)) == ctx.one()
    assert markov_close(identity(ctx, 1)) == loop_value(ctx)
    assert markov_close(identity(ctx, 2)) == loop_value(ctx) ** 2
    # closing the single cup-cap diagram yields one loop
    f = compose(cap(ctx), cup(ctx))
    assert markov_close(f) == loop_value(ctx)


def _rainbow_closure(f):
    """The Markov closure composed out: f x id_n between n nested cups
    below and n nested caps above; the coefficient of the empty diagram."""
    ctx, n = f.ctx, f.bottom_count
    arcs = [(i, 2 * n - 1 - i) for i in range(n)]
    cups = from_diagram(ctx, TLDiagram(0, 2 * n, arcs))
    caps = from_diagram(ctx, TLDiagram(2 * n, 0, arcs))
    closed = compose(compose(cups, tensor(f, identity(ctx, n))), caps)
    return closed.terms.get(TLDiagram(0, 0, []), ctx.zero())


@pytest.mark.parametrize("n", range(7))
def test_closure_walk_matches_rainbows_on_every_diagram(n):
    # at p = 7 the powers of d are distinct, so equal values mean equal
    # loop counts
    ctx = field(7)
    powers = [loop_value(ctx) ** k for k in range(n + 1)]
    assert len(set(powers)) == n + 1
    for d in all_diagrams(n, n):
        f = from_diagram(ctx, d)
        assert markov_close(f) == _rainbow_closure(f)
        assert markov_close(f) == powers[tldiag._closure_loops(*d.links)]


@pytest.mark.parametrize("p", range(2, 11))
def test_closure_walk_matches_rainbows_on_projectors(p):
    ctx = field(p)
    for n in range(1, p):
        jw = jones_wenzl(ctx, n)
        assert markov_close(jw) == _rainbow_closure(jw)


@pytest.mark.parametrize("p", ALL_P)
def test_markov_jw_signed_dimensions(p):
    ctx = field(p)
    for n in range(1, p):
        val = markov_close(jones_wenzl(ctx, n))
        assert val == (-1) ** n * qint(ctx, n + 1)
    assert markov_close(jones_wenzl(ctx, p - 1)).is_zero()


# -- braiding classification -------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_braiding_candidates_structure(p):
    ctx = field(p)
    cands = braiding_candidates(ctx)
    f = compose(cap(ctx), cup(ctx))
    zh = ctx.qhalf()
    first = zh * f + inv(zh) * identity(ctx, 2)
    second = inv(zh) * f + zh * identity(ctx, 2)
    assert cands == [first, second, -first, -second]


@pytest.mark.parametrize("p", ALL_P)
def test_candidates_satisfy_hexagon_and_yb(p):
    ctx = field(p)
    for c in braiding_candidates(ctx):
        assert check_hexagon(c)
        assert check_yang_baxter(c)


@pytest.mark.parametrize("p", ALL_P)
def test_paired_inverse(p):
    ctx = field(p)
    c0, c1, c2, c3 = braiding_candidates(ctx)
    assert compose(c1, c0) == identity(ctx, 2)
    assert compose(c0, c1) == identity(ctx, 2)
    assert compose(c2, c3) == identity(ctx, 2)


@pytest.mark.parametrize("p", ALL_P)
def test_hexagon_negative_controls(p):
    ctx = field(p)
    assert not check_hexagon(identity(ctx, 2))
    assert not check_hexagon(compose(cap(ctx), cup(ctx)))


def test_yang_baxter_cases():
    # braid words E1.E2.E1 = E1 and E2.E1.E2 = E2 differ, so c = cup.cap
    # fails the equation; so does id + f away from d = -2
    ctx = field(3)
    f = compose(cap(ctx), cup(ctx))
    e1 = hook(ctx, 3, 1)
    e2 = hook(ctx, 3, 2)
    one1 = identity(ctx, 1)
    lhs = compose(compose(tensor(f, one1), tensor(one1, f)), tensor(f, one1))
    rhs = compose(compose(tensor(one1, f), tensor(f, one1)), tensor(one1, f))
    assert lhs == e1 and rhs == e2 and e1 != e2
    assert not check_yang_baxter(f)
    assert not check_yang_baxter(identity(ctx, 2) + f)


@pytest.mark.parametrize("p", ALL_P)
def test_hexagon_solution_set_is_exactly_four(p):
    # scan a over all roots of unity in the field, b = a^{-1}; the hexagon
    # must hold exactly for a in {+-zeta^{1/2}, +-zeta^{-1/2}}
    ctx = field(p)
    f = compose(cap(ctx), cup(ctx))
    ident = identity(ctx, 2)
    winners = set()
    for j in range(ctx.N):
        a = ctx.root(j)
        c = a * f + inv(a) * ident
        if check_hexagon(c):
            winners.add(a)
    zh = ctx.qhalf()
    assert winners == {zh, inv(zh), -zh, -inv(zh)}
    # ab != 1 never solves it, even for otherwise-valid a
    bad = zh * f + zh * ident
    assert not check_hexagon(bad)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_hexagon_rows_match_check_hexagon(p):
    # the expansion a^2 X + ab Y + b^2 S = R against the direct hexagon on
    # a f + b id, for every pair of units: exactly the four pairs with
    # ab = 1 and a = +-zeta^{+-1/2} hold, so b != a^{-1} always fails
    ctx = field(p)
    f = compose(cap(ctx), cup(ctx))
    ident = identity(ctx, 2)
    rows = hexagon_rows(ctx)
    held = []
    for a, b in itertools.product(map(ctx.root, range(ctx.N)), repeat=2):
        direct = check_hexagon(a * f + b * ident)
        assert hexagon_holds(rows, a * a, a * b, b * b) == direct
        if direct:
            held.append((a, b))
    zh = ctx.qhalf()
    assert sorted(held, key=str) == sorted(
        [(a, inv(a)) for a in (zh, inv(zh), -zh, -inv(zh))], key=str)


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_idempotent_form_of_first_candidate(p):
    # for d != 0: zeta^{1/2} f + zeta^{-1/2} = -zeta^{3/2} e1 + zeta^{-1/2} e3
    ctx = field(p)
    f = compose(cap(ctx), cup(ctx))
    d = loop_value(ctx)
    e1 = inv(d) * f
    e3 = identity(ctx, 2) - e1
    assert compose(e1, e1) == e1
    assert compose(e3, e3) == e3
    zh = ctx.qhalf()
    c0 = braiding_candidates(ctx)[0]
    assert c0 == (-(zh**3)) * e1 + inv(zh) * e3


# -- property suites ---------------------------------------------------------


@given(data=st.data(), p=st.sampled_from([2, 3, 5]))
def test_compose_associative(data, p):
    ctx = field(p)
    fm = data.draw(morphisms(ctx, 2, 2))
    gm = data.draw(morphisms(ctx, 2, 0))
    hm = data.draw(morphisms(ctx, 0, 2))
    assert compose(compose(fm, gm), hm) == compose(fm, compose(gm, hm))


@given(data=st.data(), p=st.sampled_from([2, 3]))
def test_tensor_functorial(data, p):
    ctx = field(p)
    f = data.draw(morphisms(ctx, 1, 3))
    fp = data.draw(morphisms(ctx, 3, 1))
    g = data.draw(morphisms(ctx, 2, 2))
    gp = data.draw(morphisms(ctx, 2, 2))
    lhs = compose(tensor(f, g), tensor(fp, gp))
    rhs = tensor(compose(f, fp), compose(g, gp))
    assert lhs == rhs


@given(data=st.data(), p=st.sampled_from([2, 3, 5]))
def test_compose_bilinear(data, p):
    ctx = field(p)
    f = data.draw(morphisms(ctx, 2, 2))
    g = data.draw(morphisms(ctx, 2, 2))
    h = data.draw(morphisms(ctx, 2, 2))
    assert compose(f + g, h) == compose(f, h) + compose(g, h)
    assert compose(h, f + g) == compose(h, f) + compose(h, g)


# -- composition against the node-tuple reference walker ---------------------


def _reference_compose(d1, d2):
    """Stack d1 then d2 by walking ("a"|"b", index) nodes; (pairs, loops).

    An older node-tuple walker, kept as the independent reference.
    Interface positions: d1 top index n+t sits at physical position m-1-t,
    which is glued to d2 bottom index m-1-t.
    """
    n, m, k = d1.bottom_count, d1.top_count, d2.top_count
    p1, p2 = {}, {}
    for table, d in ((p1, d1), (p2, d2)):
        for a, b in d.pairs:
            table[a] = b
            table[b] = a

    def glue(node):
        side, idx = node
        return ("b" if side == "a" else "a", n + m - 1 - idx)

    def is_internal(node):
        side, idx = node
        return idx >= n if side == "a" else idx < m

    def final_index(node):
        side, idx = node
        return idx if side == "a" else n + (idx - m)

    def pair_step(node):
        side, idx = node
        return (side, (p1 if side == "a" else p2)[idx])

    visited = set()
    pairs = []
    externals = [("a", i) for i in range(n)] + [("b", m + t) for t in range(k)]
    for start in externals:
        if start in visited:
            continue
        visited.add(start)
        cur = pair_step(start)
        while is_internal(cur):
            visited.add(cur)
            crossed = glue(cur)
            visited.add(crossed)
            cur = pair_step(crossed)
        visited.add(cur)
        pairs.append((final_index(start), final_index(cur)))
    loops = 0
    for idx in range(m):
        node = ("b", idx)
        if node in visited:
            continue
        loops += 1
        cur = node
        while cur not in visited:
            visited.add(cur)
            mate = pair_step(cur)
            visited.add(mate)
            cur = glue(mate)
    return pairs, loops


def _reference_tensor(d1, d2):
    n1, m1 = d1.bottom_count, d1.top_count
    n2, m2 = d2.bottom_count, d2.top_count

    def remap1(i):
        return i if i < n1 else (n1 + n2 + m2) + (i - n1)

    def remap2(i):
        return (n1 + i) if i < n2 else (n1 + n2) + (i - n2)

    pairs = [(remap1(a), remap1(b)) for a, b in d1.pairs]
    pairs += [(remap2(a), remap2(b)) for a, b in d2.pairs]
    return TLDiagram(n1 + n2, m1 + m2, pairs)


def _reference_compose_morphisms(f, g):
    """compose by adding c1 * c2 * d**loops term by term, pair by pair."""
    ctx = f.ctx
    d = loop_value(ctx)
    terms = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            pairs, loops = _reference_compose(d1, d2)
            nd = TLDiagram(f.bottom_count, g.top_count, pairs)
            coeff = c1 * c2 * d**loops
            terms[nd] = terms[nd] + coeff if nd in terms else coeff
    return TLMorphism(ctx, f.bottom_count, g.top_count, terms)


def _same_diagram(got, want):
    assert got == want
    assert got.pairs == want.pairs
    assert got.links == want.links
    assert hash(got) == hash(want)


def _link_state_route(d1, d2):
    """d1.d2 through link states: the result diagram and its loop count."""
    loops, down, up = tldiag._middle(d1.links[1], d2.links[0])
    links = (tldiag._cap(d1.links[0], down), tldiag._cap(d2.links[1], up))
    return tldiag._trusted_diagram(links), loops


def test_link_state_route_exhaustive():
    # every composable pair with n + m + k <= 10
    count = 0
    for n, m, k in itertools.product(range(11), repeat=3):
        if n + m + k > 10 or (n + m) % 2 or (m + k) % 2:
            continue
        for d1 in all_diagrams(n, m):
            for d2 in all_diagrams(m, k):
                got, loops = _link_state_route(d1, d2)
                ref_pairs, ref_loops = _reference_compose(d1, d2)
                assert loops == ref_loops, (d1, d2)
                _same_diagram(got, TLDiagram(n, k, ref_pairs))
                count += 1
    assert count == 5291


def test_link_states_round_trip_through_pairs():
    for n, m in itertools.product(range(13), repeat=2):
        if n + m > 12 or (n + m) % 2:
            continue
        for d in all_diagrams(n, m):
            assert tldiag._pairs(*d.links) == d.pairs, d
            assert TLDiagram(n, m, d.pairs).links == d.links, d


def test_tensor_diagrams_exhaustive():
    for n1, m1, n2, m2 in itertools.product(range(4), repeat=4):
        if (n1 + m1) % 2 or (n2 + m2) % 2:
            continue
        for d1 in all_diagrams(n1, m1):
            for d2 in all_diagrams(n2, m2):
                _same_diagram(tldiag._tensor_diagrams(d1, d2),
                              _reference_tensor(d1, d2))


@st.composite
def _composable(draw, p, max_terms=6, coeffs=roots):
    ctx = field(p)
    m = draw(st.integers(0, 4))
    n = draw(st.sampled_from([x for x in range(5) if (x + m) % 2 == 0]))
    k = draw(st.sampled_from([x for x in range(5) if (x + m) % 2 == 0]))
    f = draw(morphisms(ctx, n, m, max_terms=max_terms, coeffs=coeffs))
    g = draw(morphisms(ctx, m, k, max_terms=max_terms, coeffs=coeffs))
    return f, g


@st.composite
def _cancelling(draw, p):
    """Composable f, g with wide coefficients where, when the shapes allow
    it, two term pairs land on one (result diagram, loop count) with
    opposite products: f has x at d1 and -x at d2, and d1.e equals d2.e
    for a term e of g."""
    ctx = field(p)
    f, g = draw(_composable(p, max_terms=14, coeffs=wide_coefficients))
    e = draw(st.sampled_from(all_diagrams(g.bottom_count, g.top_count)))
    d1 = draw(st.sampled_from(all_diagrams(f.bottom_count, f.top_count)))
    key = _reference_compose(d1, e)
    twins = [d for d in all_diagrams(f.bottom_count, f.top_count)
             if d != d1 and _reference_compose(d, e) == key]
    if not twins:
        return f, g
    fterms, gterms = dict(f.terms), dict(g.terms)
    x = fterms.setdefault(d1, draw(wide_coefficients(ctx)))
    fterms[draw(st.sampled_from(twins))] = -x
    gterms.setdefault(e, draw(wide_coefficients(ctx)))
    return (TLMorphism(ctx, f.bottom_count, f.top_count, fterms),
            TLMorphism(ctx, g.bottom_count, g.top_count, gterms))


def _both_paths(f, g):
    """compose(f, g) with packed sums for every product, then with field
    sums for every product."""
    out = []
    for min_pairs in (1, float("inf")):
        with mock.patch.object(tldiag, "_PACKED_MIN_PAIRS", min_pairs):
            out.append(compose(f, g))
    return out


@st.composite
def _one_term_and_many(draw, p):
    """Endomorphisms of 5 strands: one with a single term and a wide
    coefficient, one with a term count at or next to _PACKED_MIN_PAIRS (42
    diagrams to draw from) and root-of-unity coefficients."""
    ctx = field(p)
    diags = all_diagrams(5, 5)
    wide = wide_coefficients(ctx).filter(lambda c: not c.is_zero())
    one = TLMorphism(ctx, 5, 5, {draw(st.sampled_from(diags)): draw(wide)})
    count = draw(st.sampled_from([tldiag._PACKED_MIN_PAIRS + k
                                  for k in (-1, 0, 1)]))
    many = draw(st.permutations(diags))[:count]
    exps = draw(st.lists(st.integers(0, ctx.N - 1), min_size=count,
                         max_size=count))
    return one, TLMorphism(ctx, 5, 5, {d: ctx.root(k)
                                       for d, k in zip(many, exps)})


# no shrink phase: shrinking 14-term morphisms against the slow reference
# turns a wrong compose into a failure that takes most of a minute
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data(), p=st.sampled_from([3, 5, 7, 8, 9, 16]))
def test_compose_matches_term_by_term_reference(data, p):
    # dense reduction rows at p = 7 and 9, Phi = z^n + 1 at p = 8 and 16
    f, g = data.draw(_cancelling(p))
    want = _reference_compose_morphisms(f, g)
    for got in _both_paths(f, g):
        assert got == want
        assert list(got.terms) == list(want.terms)  # same first-seen order
        assert not any(c.is_zero() for c in got.terms.values())
        for d in got.terms:
            _same_diagram(d, TLDiagram(d.bottom_count, d.top_count, d.pairs))
    # a one-term operand on either side is a scalar and is never packed,
    # however many terms the other has
    one, many = data.draw(_one_term_and_many(p))
    for f, g in ((one, many), (many, one)):
        want = _reference_compose_morphisms(f, g)
        with mock.patch.object(tldiag, "pack",
                               side_effect=AssertionError("packed")):
            got = compose(f, g)
        assert got == want
        assert list(got.terms) == list(want.terms)


@pytest.mark.parametrize("p", [6, 7, 8])
def test_compose_on_jones_wenzl_shapes(p):
    # the products of the jw row, the single-clasp build and the Wenzl
    # reference: jw(n) squared, jw(n) against each hook on either side,
    # word.E_k and jw'.X_n, prev.E and (prev.E).prev; dense reduction rows
    # at p = 6 and 7, Phi = z^16 + 1 at p = 8
    ctx = field(p)
    products = []
    for n in range(2, 6):
        jw = jones_wenzl(ctx, n)
        prev = tensor(jones_wenzl(ctx, n - 1), identity(ctx, 1))
        clasp = word = identity(ctx, n)
        for k in range(n - 1, 0, -1):
            products.append((word, hook(ctx, n, k)))
            word = compose(word, hook(ctx, n, k))
            clasp = clasp + word * (qint(ctx, k) / qint(ctx, n))
        step = compose(prev, hook(ctx, n, n - 1))
        products += [(prev, clasp), (jw, jw), (prev, hook(ctx, n, n - 1)),
                     (step, prev)]
        for i in range(1, n):
            products += [(jw, hook(ctx, n, i)), (hook(ctx, n, i), jw)]
    if p == 7:
        # 132 x 132 terms, where many g terms share a column
        products.append((jones_wenzl(ctx, 6), jones_wenzl(ctx, 6)))
    for f, g in products:
        want = _reference_compose_morphisms(f, g)
        for got in _both_paths(f, g):
            assert got == want
            assert list(got.terms) == list(want.terms)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_compose_with_a_hook_multiplies_only_loop_keys(i):
    # the hook's coefficient is one, so a loop-free key costs no field
    # product and a key with a loop costs one, by d
    ctx = field(7)
    jw, e = jones_wenzl(ctx, 5), hook(ctx, 5, i)
    mul = CycNumber.__mul__
    for f, g in ((e, jw), (jw, e)):
        pairs_loops = [_reference_compose(d1, d2)
                       for d1 in f.terms for d2 in g.terms]
        loop_keys = {(TLDiagram(5, 5, pairs), loops)
                     for pairs, loops in pairs_loops if loops}
        assert loop_keys
        calls = []

        def counted(x, y):
            calls.append(1)
            return mul(x, y)

        with mock.patch.object(CycNumber, "__mul__", counted):
            got = compose(f, g)
        assert len(calls) == len(loop_keys)
        assert got == _reference_compose_morphisms(f, g)


def test_compose_prunes_cancelled_groups_and_empty_operands():
    ctx = field(7)
    x = CycNumber(ctx, [Fraction(-2**64, 3), 5] + [0] * (ctx.degree - 2))
    # d1.e and d2.e are one diagram with one loop, d3.e the same diagram
    # with none: the loop group cancels, the diagram stays
    d1 = TLDiagram(4, 4, [(0, 1), (2, 3), (4, 7), (5, 6)])
    d2 = TLDiagram(4, 4, [(0, 1), (2, 5), (3, 4), (6, 7)])
    d3 = TLDiagram(4, 4, [(0, 7), (1, 6), (2, 5), (3, 4)])
    e = from_diagram(ctx, TLDiagram(4, 0, [(0, 1), (2, 3)]))
    f = TLMorphism(ctx, 4, 4, {d1: x, d2: -x, d3: x})
    zero_f, zero_e = TLMorphism.zero(ctx, 4, 4), TLMorphism.zero(ctx, 4, 0)
    for got in _both_paths(f, e):
        assert got == compose(from_diagram(ctx, d3), e) * x
        assert len(got.terms) == 1
    for got in _both_paths(f - from_diagram(ctx, d3) * x, e):
        assert got.is_zero()
    for got in _both_paths(zero_f, e) + _both_paths(f, zero_e):
        assert got.is_zero() and (got.bottom_count, got.top_count) == (4, 0)
    # e1 and e2 make one column (one loop, one result diagram) against d1's
    # top state, and their coefficients cancel: that column's sum is zero,
    # its key is pruned, and d2's products, where they differ, stay in order
    e1 = TLDiagram(4, 4, [(0, 5), (1, 2), (3, 4), (6, 7)])
    e2 = TLDiagram(4, 4, [(0, 7), (1, 2), (3, 6), (4, 5)])
    top = d1.links[1]
    assert tldiag._column(top, *e1.links) == tldiag._column(top, *e2.links)
    cancelled, loops = _reference_compose(d1, e1)
    assert loops == 1
    f = TLMorphism(ctx, 4, 4, {d1: x, d2: ctx.root(3)})
    g = TLMorphism(ctx, 4, 4, {e1: x, e2: -x})
    want = _reference_compose_morphisms(f, g)
    assert len(want.terms) == 2
    for got in _both_paths(f, g):
        assert got == want
        assert list(got.terms) == list(want.terms)
        assert TLDiagram(4, 4, cancelled) not in got.terms


@pytest.mark.parametrize("p", [7, 8])
def test_compose_packed_width_on_equal_large_coefficients(p):
    # all 42 diagrams 5 -> 5 with one coefficient whose power-basis entries
    # all equal 2^64 - 1: every product digit has the same sign, and the
    # 1764 pairs pile up on few result diagrams
    ctx = field(p)
    c = CycNumber(ctx, [2**64 - 1] * ctx.degree)
    e = TLMorphism(ctx, 5, 5, {d: c for d in all_diagrams(5, 5)})
    got = compose(e, e)
    want = _reference_compose_morphisms(e, e)
    assert got == want
    assert list(got.terms) == list(want.terms)


@given(data=st.data(), p=st.sampled_from([3, 5, 7]))
def test_trusted_diagrams_are_canonical(data, p):
    f, g = data.draw(_composable(p))
    for result in (compose(f, g), tensor(f, g), tensor(g, f)):
        for d in result.terms:
            _same_diagram(d, TLDiagram(d.bottom_count, d.top_count, d.pairs))
