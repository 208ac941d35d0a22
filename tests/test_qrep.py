"""Weight modules for quantum SL(2) at q = zeta: simples, tensor products,
R-matrix braiding, inverse ribbon twist, self-duality data, and the
brute-force decomposition oracle.

Frozen expectations, derived ahead of the implementation:
  * braiding on the standard module V (basis v_+ = index 0 at weight +1,
    v_- = index 1 at weight -1):
        v_+ (x) v_+  ->  zeta^{-1/2} v_+ (x) v_+
        v_+ (x) v_-  ->  zeta^{1/2} v_- (x) v_+
        v_- (x) v_+  ->  zeta^{1/2} v_+ (x) v_- - zeta^{1/2}(zeta - zeta^{-1}) v_- (x) v_+
        v_- (x) v_-  ->  zeta^{-1/2} v_- (x) v_-
  * twist inverse on V is the scalar -q^{3/2}; on the unit it is 1
  * ev.coev = -(zeta + zeta^{-1})
  * decompositions: V2 (x) Vs = Vs-1 + Vs+1 (1 < s < p); at p = 2,
    V2 (x) V2 has u_q classes {1, 1, chi, chi}; L1 (x) L1 = L0 + L2
  * the functor images of the closing arcs and of jw(n) (x) id compose to
    the Markov closure (-1)^n [n+1], vanishing at n = p-1
  * the module of a label: uq_module (1, 1) is chi, vir_module (1, 1) the
    vacuum
"""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from ribbonkit.cyclo import ContextMismatch, FieldContext, field, inv, qfact, qint
from ribbonkit import checks, qrep, tldiag
from ribbonkit.qrep import (
    InconsistentCharacter,
    Matrix,
    WeightModule,
    _echelon_add,
    _kernel,
    _op_powers,
    braiding,
    certify_simple,
    check_module,
    chi_module,
    decompose_character,
    module_map,
    peel_strings,
    restrict_classes,
    selfdual_V,
    simple_L,
    simple_V,
    string_weights,
    tensor,
    tl_to_matrix,
    twist_inverse,
    uq_classes,
    uq_module,
    vir_module,
)

ALL_P = [2, 3, 4, 5, 6, 7]


# -- simples -----------------------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_simple_V_shape(p):
    ctx = field(p)
    for s in range(1, p + 1):
        m = simple_V(ctx, s)
        assert m.dimension == s
        assert list(m.weights) == [s - 1 - 2 * j for j in range(s)]
    assert list(simple_V(ctx, 2).weights) == [1, -1]
    with pytest.raises(ValueError):
        simple_V(ctx, p + 1)
    with pytest.raises(ValueError):
        simple_V(ctx, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_simple_L_shape(p):
    ctx = field(p)
    m0 = simple_L(ctx, 0)
    assert m0.dimension == 1 and list(m0.weights) == [0]
    m1 = simple_L(ctx, 1)
    assert m1.dimension == 2
    assert list(m1.weights) == [p, -p]
    assert m1.E.is_zero() and m1.F.is_zero()
    assert not m1.Ep.is_zero() and not m1.Fp.is_zero()


@pytest.mark.parametrize("p", ALL_P)
def test_relations_on_all_small_modules(p):
    ctx = field(p)
    mods = [simple_V(ctx, s) for s in range(1, p + 1)]
    mods += [simple_L(ctx, r) for r in range(0, 3)]
    mods.append(chi_module(ctx))
    for m in mods:
        assert check_module(m) == []


def test_planted_long_string_fails_nilpotency():
    # E along a string of p+1 weights: E^p is the nonzero corner entry, and
    # the powers still run to index p although none of them vanishes
    ctx = field(3)
    p = ctx.p
    e = Matrix(ctx, p + 1, p + 1, {(j - 1, j): ctx.one() for j in range(1, p + 1)})
    z = Matrix(ctx, p + 1, p + 1)
    m = WeightModule(ctx, range(2 * p, -1, -2), e, z, z, z)
    powers = _op_powers(m.E, p)
    assert len(powers) == p + 1
    assert powers[p] == Matrix(ctx, p + 1, p + 1, {(0, p): ctx.one()})
    assert "E^p is nonzero" in check_module(m)
    assert "F^p is nonzero" not in check_module(m)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_op_powers_stop_at_zero(p):
    # the powers of a nilpotent operator past the first zero are zero, and
    # there are still top + 1 of them
    ctx = field(p)
    e = simple_V(ctx, 2).E
    powers = _op_powers(e, p)
    assert len(powers) == p + 1
    assert powers[:2] == [Matrix.identity(ctx, 2), e]
    assert all(x.is_zero() for x in powers[2:])
    assert _op_powers(e, 0) == [Matrix.identity(ctx, 2)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_label_catalogue(p):
    # (1, 1) is chi in the small quantum group family and the vacuum in
    # the Virasoro family
    ctx = field(p)
    assert uq_module(ctx, (1, 1)).weights == (p,)
    assert vir_module(ctx, (1, 1)).weights == (0,)
    for s in range(1, p + 1):
        assert uq_module(ctx, (s, 0)).weights == simple_V(ctx, s).weights
        assert uq_module(ctx, (s, 1)).dimension == s
        for r in range(1, 4):
            assert vir_module(ctx, (r, s)).dimension == r * s


@pytest.mark.parametrize("p", [2, 3])
def test_relations_on_tensor_modules(p):
    ctx = field(p)
    pool = [simple_V(ctx, 2), simple_V(ctx, p), simple_L(ctx, 1), chi_module(ctx)]
    for a in pool:
        for b in pool:
            assert check_module(tensor(a, b)) == []


# -- exact linear algebra ----------------------------------------------------


LINALG_P = [2, 3, 5, 8]


def _random_element(rng, ctx, zero_share=0.0):
    """A sum of one to three c * zeta^k with small rational c: zero with
    probability zero_share, and never zero otherwise."""
    if rng.random() < zero_share:
        return ctx.zero()
    while True:
        x = ctx.zero()
        for _ in range(rng.randint(1, 3)):
            c = ctx.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            x = x + c * ctx.root(rng.randrange(ctx.N))
        if not x.is_zero():
            return x


@st.composite
def _invertible(draw, ctx, max_dim=6, min_dim=1):
    """P.L.D.U: a row permutation, unit lower and upper triangular matrices
    whose entries are zero half the time (so pivots are often missing), and
    a diagonal without zeros.  Entries come from a drawn seed: one draw per
    matrix keeps hypothesis fast."""
    n = draw(st.integers(min_dim, max_dim))
    perm = draw(st.permutations(range(n)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    one = ctx.one()
    lower = {(i, i): one for i in range(n)}
    upper = dict(lower)
    for i in range(n):
        for j in range(i):
            lower[(i, j)] = _random_element(rng, ctx, zero_share=0.5)
            upper[(j, i)] = _random_element(rng, ctx, zero_share=0.5)
    diag = [_random_element(rng, ctx) for _ in range(n)]
    return reduce(Matrix.mul, [
        Matrix(ctx, n, n, {(i, perm[i]): one for i in range(n)}),
        Matrix(ctx, n, n, lower),
        Matrix.diagonal(ctx, diag),
        Matrix(ctx, n, n, upper),
    ])


def _dense(mat):
    return [[mat.entry(i, j) for j in range(mat.cols)]
            for i in range(mat.rows)]


def _dot(ctx, row, vec):
    return sum((a * b for a, b in zip(row, vec)), ctx.zero())


def _sparse(row):
    return {j: v for j, v in enumerate(row) if not v.is_zero()}


def _reduce(rows):
    pivots: dict = {}
    for row in rows:
        _echelon_add(pivots, _sparse(row))
    return pivots


@pytest.mark.parametrize("p", LINALG_P)
@given(data=st.data())
def test_sub_is_add_of_the_negative(p, data):
    # sub negates entry by entry; the field product by -1 gives the same
    ctx = field(p)
    a = data.draw(_invertible(ctx, 4))
    b = data.draw(_invertible(ctx, a.rows, min_dim=a.rows))
    assert a.sub(b) == a.add(b.scale(-ctx.one()))
    assert a.sub(a).is_zero()


@pytest.mark.parametrize("p", LINALG_P)
@given(data=st.data())
def test_nullspace_dimension_and_kernel(p, data):
    # k rows of an invertible matrix span k coordinates; combinations of
    # them (zero rows included) add nothing, wherever they are shuffled in
    ctx = field(p)
    a = data.draw(_invertible(ctx))
    dim = a.rows
    k = data.draw(st.integers(0, dim))
    span = _dense(a)[:k]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    extra = []
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = [_random_element(rng, ctx, zero_share=0.5) for _ in span]
        extra.append([_dot(ctx, coeffs, col) for col in zip(*span)]
                     if span else [ctx.zero()] * dim)
    rows = data.draw(st.permutations(span + extra))
    kernel = _kernel(_reduce(rows), dim, ctx.one())
    assert len(kernel) == dim - k
    for vec in kernel:
        assert all(sum((row[j] * v for j, v in vec.items()),
                       ctx.zero()).is_zero() for row in rows)


# The dense Gauss-Jordan route the sparse echelon form replaced, kept here
# as the reference it must agree with entry for entry.


def _dense_row_reduce(rows, ncols):
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        hit = next(
            (r for r in range(top, len(rows)) if not rows[r][col].is_zero()),
            None,
        )
        if hit is None:
            continue
        rows[top], rows[hit] = rows[hit], rows[top]
        lead = rows[top][col]
        if lead != lead.ctx.one():  # rows reduced before lead with one
            scale = inv(lead)
            rows[top] = [x * scale for x in rows[top]]
        for r in range(len(rows)):
            if r == top or rows[r][col].is_zero():
                continue
            factor = rows[r][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return pivots


def _dense_nullspace(rows, dim, ctx):
    work = list(rows)
    pivots = _dense_row_reduce(work, dim)
    kernel = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [ctx.zero()] * dim
        vec[free] = ctx.one()
        for row, pc in zip(work, pivots):
            vec[pc] = -row[free]
        kernel.append(vec)
    return kernel


def _dense_certify_simple(m):
    ctx = m.ctx

    def dense_rows(mat):
        rows = [[ctx.zero()] * mat.cols for _ in range(mat.rows)]
        for (i, j), v in mat.data.items():
            rows[i][j] = v
        return rows

    def apply(mat, vec):
        out = [ctx.zero()] * mat.rows
        for (i, j), v in mat.data.items():
            if not vec[j].is_zero():
                out[i] = out[i] + v * vec[j]
        return out

    kernel = _dense_nullspace(dense_rows(m.E) + dense_rows(m.Ep),
                              m.dimension, ctx)
    if len(kernel) != 1:
        return False
    basis = [kernel[0]]
    frontier = [kernel[0]]
    while frontier:
        nxt = []
        for vec in frontier:
            for op in (m.F, m.Fp):
                img = apply(op, vec)
                rank = len(basis)
                basis.append(img)
                del basis[len(_dense_row_reduce(basis, m.dimension)):]
                if len(basis) > rank:
                    nxt.append(img)
        frontier = nxt
    return len(basis) == m.dimension


@pytest.mark.parametrize("p", LINALG_P)
@given(data=st.data())
def test_echelon_matches_dense_gauss_jordan(p, data):
    # a reduced echelon form is unique: the sparse one grown row by row has
    # the dense route's pivot columns and pivot rows, and the same kernel,
    # on systems with zero, repeated and dependent rows
    ctx = field(p)
    ncols = data.draw(st.integers(1, 7))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(data.draw(st.integers(0, 8))):
        kind = rng.choice(["zero", "repeat", "combination", "random"])
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([ctx.zero()] * ncols)
        elif kind == "repeat":
            rows.append(list(rng.choice(rows)))
        elif kind == "combination":
            coeffs = [_random_element(rng, ctx, zero_share=0.5) for _ in rows]
            rows.append([_dot(ctx, coeffs, col) for col in zip(*rows)])
        else:
            rows.append([_random_element(rng, ctx, zero_share=0.5)
                         for _ in range(ncols)])
    dense = [list(row) for row in rows]
    dense_pivots = _dense_row_reduce(dense, ncols)
    pivots: dict = {}
    independent = [_echelon_add(pivots, _sparse(row)) for row in rows]
    assert sorted(pivots) == dense_pivots
    assert sum(independent) == len(dense_pivots)
    for col, row in zip(dense_pivots, dense):
        assert [pivots[col].get(j, ctx.zero()) for j in range(ncols)] == row
    assert _kernel(pivots, ncols, ctx.one()) == [
        _sparse(vec) for vec in _dense_nullspace(rows, ncols, ctx)]


# -- tensor ------------------------------------------------------------------


def test_tensor_weights():
    ctx = field(3)
    t = tensor(simple_V(ctx, 2), simple_V(ctx, 2))
    assert t.dimension == 4
    assert Counter(t.weights) == Counter({2: 1, 0: 2, -2: 1})


@pytest.mark.parametrize("p", [2, 5])
def test_tensor_unit_neutral(p):
    ctx = field(p)
    one = simple_V(ctx, 1)
    m = simple_V(ctx, min(3, p))
    for t in (tensor(one, m), tensor(m, one)):
        assert t.dimension == m.dimension
        assert tuple(t.weights) == tuple(m.weights)
        assert t.E == m.E and t.F == m.F and t.Ep == m.Ep and t.Fp == m.Fp


# -- decomposition oracle ----------------------------------------------------


def _factors(m):
    # composition factors (r, s, chi) of a module, from its character
    return decompose_character(m.ctx.p, Counter(m.weights))


def _factor_classes(p, weights):
    # the factor route to the small quantum group classes: L(r) (x) chi^c
    # (x) V_s restricts to r + 1 copies of the class (s, (r + c) mod 2)
    out = Counter()
    for (r, s, c), mult in decompose_character(p, weights).items():
        out[(s, (r + c) % 2)] += mult * (r + 1)
    return out


@pytest.mark.parametrize("p", range(2, 13))
def test_restrict_classes_matches_factor_route(p):
    # the classes read off the peeled strings against the factor route, on
    # every pair product of the 2p simples and on explicit modules
    ctx = field(p)
    labels = [(s, e) for s in range(1, p + 1) for e in (0, 1)]
    chars = [Counter(uq_module(ctx, lab).weights) for lab in labels]
    chars += [Counter(w1 + w2 for w1 in string_weights(p, ea, sa)
                      for w2 in string_weights(p, eb, sb))
              for sa, ea in labels for sb, eb in labels]
    chars += [Counter(vir_module(ctx, (r, s)).weights)
              for r in range(1, 7) for s in range(1, p + 1)]
    chars += [Counter(tensor(simple_V(ctx, a), simple_V(ctx, b)).weights)
              for a in range(1, p + 1) for b in range(1, p + 1)]
    for char in chars:
        assert restrict_classes(p, char) == _factor_classes(p, char)
    for m in (uq_module(ctx, lab) for lab in labels):
        assert uq_classes(m) == _factor_classes(p, Counter(m.weights))


def test_decompose_generic_rule():
    for p in [3, 4, 5, 7]:
        ctx = field(p)
        v2 = simple_V(ctx, 2)
        for s in range(2, p):
            out = _factors(tensor(v2, simple_V(ctx, s)))
            assert out == Counter({(0, s - 1, 0): 1, (0, s + 1, 0): 1})


def test_decompose_boundary_p2():
    ctx = field(2)
    t = tensor(simple_V(ctx, 2), simple_V(ctx, 2))
    assert _factors(t) == Counter({(0, 1, 0): 2, (1, 1, 0): 1})
    # u_q restriction: classes {1, 1, chi, chi}
    assert uq_classes(t) == Counter({(1, 0): 2, (1, 1): 2})


def test_decompose_frobenius_classical():
    ctx = field(3)
    t = tensor(simple_L(ctx, 1), simple_L(ctx, 1))
    assert _factors(t) == Counter({(0, 1, 0): 1, (2, 1, 0): 1})


def test_decompose_chi_squared():
    ctx = field(3)
    t = tensor(chi_module(ctx), chi_module(ctx))
    assert _factors(t) == Counter({(0, 1, 0): 1})
    assert uq_classes(t) == Counter({(1, 0): 1})


def test_decompose_chi_twist():
    ctx = field(3)
    t = uq_module(ctx, (2, 1))
    assert _factors(t) == Counter({(0, 2, 1): 1})
    assert uq_classes(t) == Counter({(2, 1): 1})


def test_decompose_inconsistent_raises():
    ctx = field(3)
    z = Matrix(ctx, 1, 1)
    bad = WeightModule(ctx, (1,), z, z, z, z)
    with pytest.raises(InconsistentCharacter):
        _factors(bad)


def test_decompose_mixed_product_single_factor():
    # L(r) (x) V_s has a single composition factor
    for p in [2, 3, 5]:
        ctx = field(p)
        for r in range(0, 3):
            for s in range(1, p + 1):
                t = vir_module(ctx, (r + 1, s))
                assert _factors(t) == Counter({(r, s, 0): 1})


@given(data=st.data(), p=st.integers(min_value=2, max_value=7))
def test_peel_strings_round_trip(data, p):
    # any multiset of strings is recovered from its character
    strings = Counter(data.draw(st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(1, p)),
        st.integers(1, 3), min_size=1, max_size=8)))
    char = Counter()
    for (t, s), mult in strings.items():
        for w in string_weights(p, t, s):
            char[w] += mult
    assert peel_strings(p, char) == strings
    # one copy fewer leaves a character only when it was a whole
    # one-weight string (t, 1); any other dropped copy has no splitting
    droppable = [w for w in char if w % p or (w // p, 1) not in strings]
    assume(droppable)
    char[data.draw(st.sampled_from(sorted(droppable)))] -= 1
    with pytest.raises(InconsistentCharacter):
        peel_strings(p, char)


@given(data=st.data(), p=st.integers(min_value=2, max_value=7))
def test_decompose_character_round_trip(data, p):
    # label (r, s, chi) is the run of strings (chi + r - 2j, s), j <= r;
    # runs with shared tops and uneven counts test the batched assembly
    labels = Counter(data.draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(1, p), st.integers(0, 1)),
        st.integers(1, 3), min_size=1, max_size=8)))
    char = Counter()
    for (r, s, chi), mult in labels.items():
        for j in range(r + 1):
            for w in string_weights(p, chi + r - 2 * j, s):
                char[w] += mult
    assert decompose_character(p, char) == labels


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_certify_simple_tensor_products(p):
    # L(r-1) (x) V_s is simple: unique singular vector generating everything
    ctx = field(p)
    for r in range(1, 4):
        for s in range(1, p + 1):
            assert certify_simple(vir_module(ctx, (r, s)))
    # negative control: V2 (x) V2 is never simple
    assert not certify_simple(tensor(simple_V(ctx, 2), simple_V(ctx, 2)))


def _span_short_module():
    # p = 2, weights (2, 0), E = e01 and every other operator zero: the
    # only singular vector spans a line that F and Fp cannot leave
    ctx = field(2)
    z = Matrix(ctx, 2, 2)
    e = Matrix(ctx, 2, 2, {(0, 1): ctx.one()})
    return WeightModule(ctx, (2, 0), e, z, z, z)


def test_certify_simple_refuses_orbit_short_of_module():
    # a relation-clean module with a one-dimensional kernel whose orbit
    # does not span: the certificate must fail at the span test
    m = _span_short_module()
    assert check_module(m) == []
    assert len(_kernel(_reduce(_dense(m.E) + _dense(m.Ep)), 2,
                       m.ctx.one())) == 1
    assert not certify_simple(m)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_certify_simple_matches_dense_certificate(p):
    ctx = field(p)
    mods = [vir_module(ctx, (r, s))
            for r in range(1, 4) for s in range(1, p + 1)]
    mods += [uq_module(ctx, (s, 1)) for s in range(1, p + 1)]
    mods += [tensor(simple_V(ctx, a), simple_V(ctx, b))
             for a in range(1, p + 1) for b in range(1, p + 1)]
    if p == 2:
        mods.append(_span_short_module())
    for m in mods:
        assert certify_simple(m) == _dense_certify_simple(m), m


# -- braiding ----------------------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_braiding_on_standard_module(p):
    ctx = field(p)
    v = simple_V(ctx, 2)
    c = braiding(v, v)
    zh = ctx.qhalf()
    z = ctx.q()
    # basis order 00, 01, 10, 11; map applies to column index
    expected = {
        (0, 0): inv(zh),
        (3, 3): inv(zh),
        (1, 2): zh,           # v-+ -> zeta^{1/2} v+-
        (2, 1): zh,           # v+- -> zeta^{1/2} v-+
        (2, 2): -(zh * (z - inv(z))),
    }
    assert c == Matrix(ctx, 4, 4, expected)


@pytest.mark.parametrize("p", ALL_P)
def test_braiding_equals_tl_form(p):
    # c_{V,V} = zeta^{1/2} f_V + zeta^{-1/2} id with f_V = coev.ev
    ctx = field(p)
    v = simple_V(ctx, 2)
    coev, ev = selfdual_V(ctx)
    f_v = coev.mul(ev)
    zh = ctx.qhalf()
    expected = f_v.scale(zh).add(Matrix.identity(ctx, 4).scale(inv(zh)))
    assert braiding(v, v) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_braiding_is_module_map(p):
    ctx = field(p)
    pool = [
        (simple_V(ctx, 2), simple_V(ctx, 2)),
        (simple_V(ctx, 2), simple_V(ctx, p)),
        (simple_L(ctx, 1), simple_V(ctx, 2)),
        (simple_L(ctx, 1), simple_L(ctx, 1)),
        (chi_module(ctx), simple_V(ctx, 2)),
    ]
    for m, n in pool:
        bm = braiding(m, n)  # module_map verifies the intertwining
        assert bm.cols == m.dimension * n.dimension


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_image_has_symmetric_braiding(p):
    # squared braiding with L(2k) is the identity
    ctx = field(p)
    for other in (simple_V(ctx, 2), simple_V(ctx, p), simple_L(ctx, 2)):
        m = simple_L(ctx, 2)
        c1 = braiding(m, other)
        c2 = braiding(other, m)
        assert c2.mul(c1) == Matrix.identity(ctx, m.dimension * other.dimension)
    # chi-parity control: L(1) against V2 squares to -1
    m = simple_L(ctx, 1)
    v = simple_V(ctx, 2)
    sq = braiding(v, m).mul(braiding(m, v))
    assert sq == Matrix.identity(ctx, 4).scale(-ctx.one())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_braiding_hexagon(p):
    ctx = field(p)
    v2 = simple_V(ctx, 2)
    triples = [(v2, v2, v2)]
    if p >= 3:
        triples.append((v2, simple_V(ctx, 3), v2))
    for m, n, w in triples:
        lhs = braiding(tensor(m, n), w)
        rhs = Matrix.kron(braiding(m, w), Matrix.identity(ctx, n.dimension)).mul(
            Matrix.kron(Matrix.identity(ctx, m.dimension), braiding(n, w))
        )
        assert lhs == rhs


# -- twist -------------------------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_twist_inverse_scalars(p):
    ctx = field(p)
    q = ctx.q()
    tv = twist_inverse(simple_V(ctx, 2))
    assert tv == Matrix.identity(ctx, 2).scale(-(ctx.qhalf() ** 3))
    assert twist_inverse(simple_V(ctx, 1)) == Matrix.identity(ctx, 1)
    assert (-(ctx.qhalf() ** 3)) == -(q * ctx.qhalf())


# -- fast paths against the term-by-term constructions ----------------------


def _all_powers(op, top):
    # every power up to top, zero or not
    out = [Matrix.identity(op.ctx, op.rows)]
    for _ in range(top):
        out.append(op.mul(out[-1]))
    return out


def _reference_divided(m, powers, generator, k):
    if k == 0:
        return Matrix.identity(m.ctx, m.dimension)
    if k == m.ctx.p:
        return generator
    return powers[k].scale(inv(qfact(m.ctx, k)))


def _kpow(m, t):
    ctx = m.ctx
    return Matrix.diagonal(ctx, [ctx.root(2 * t * w) for w in m.weights])


def _reference_generators(m, n):
    """E, F, Ep and Fp of m (x) n: E = E (x) 1 + K (x) E and F = F (x) K^-1
    + 1 (x) F written out, and every divided-power term of the coproduct of
    Ep and Fp built on both sides before the zero terms are dropped."""
    ctx = m.ctx
    p = ctx.p
    dim = m.dimension * n.dimension
    e = Matrix.kron(m.E, Matrix.identity(ctx, n.dimension)).add(
        Matrix.kron(_kpow(m, 1), n.E))
    f = Matrix.kron(m.F, _kpow(n, -1)).add(
        Matrix.kron(Matrix.identity(ctx, m.dimension), n.F))
    me, ne = _all_powers(m.E, p - 1), _all_powers(n.E, p - 1)
    mf, nf = _all_powers(m.F, p - 1), _all_powers(n.F, p - 1)
    ep = Matrix(ctx, dim, dim)
    fp = Matrix(ctx, dim, dim)
    for k in range(p + 1):
        left = _reference_divided(m, me, m.Ep, k).mul(_kpow(m, p - k))
        right = _reference_divided(n, ne, n.Ep, p - k)
        if not (left.is_zero() or right.is_zero()):
            ep = ep.add(
                Matrix.kron(left, right).scale(ctx.root(2 * k * (p - k))))
        left = _reference_divided(m, mf, m.Fp, k)
        right = _kpow(n, -k).mul(_reference_divided(n, nf, n.Fp, p - k))
        if not (left.is_zero() or right.is_zero()):
            fp = fp.add(
                Matrix.kron(left, right).scale(ctx.root(-2 * k * (p - k))))
    return e, f, ep, fp


def _reference_twist_inverse(m):
    """The inverse twist matrix with every power to p-1, the coefficients
    (q^2-1)^j/[j]! rebuilt per call and one root per matrix entry."""
    ctx = m.ctx
    p = ctx.p
    q = ctx.q()
    epow, fpow = _all_powers(m.E, p - 1), _all_powers(m.F, p - 1)
    acc = {}
    gpow = ctx.one()
    for j in range(p):
        fe = fpow[j].mul(epow[j])
        coef = gpow * inv(qfact(ctx, j))
        for (i, k), v in fe.data.items():
            lam = m.weights[k]
            root = ctx.root(2 * p * lam + lam * lam + j * (j + 1)
                            + 2 * (j + 1) * lam)
            term = root * coef * v
            cur = acc.get((i, k))
            acc[(i, k)] = term if cur is None else cur + term
        gpow = gpow * (q * q - ctx.one())
    return Matrix(ctx, m.dimension, m.dimension, acc)


def _reference_braiding(m, n):
    """The braiding matrix entry by entry, no module_map: for each basis
    pair v_i (x) w_k and each j, the columns of E^j and F^j that it hits
    are multiplied out and summed into the entries of w (x) v."""
    ctx = m.ctx
    p = ctx.p
    dm, dn = m.dimension, n.dimension

    def by_column(mats):
        out = []
        for mat in mats:
            cols = {}
            for (i, j), v in mat.data.items():
                cols.setdefault(j, []).append((i, v))
            out.append(cols)
        return out

    e_cols = by_column(_all_powers(m.E, p - 1))
    f_cols = by_column(_all_powers(n.F, p - 1))
    q = ctx.q()
    # c_j = q^{-j(j-1)/2} (q^{-1}-q)^j / [j]!
    coef = [ctx.root(-j * (j - 1)) * (inv(q) - q) ** j * inv(qfact(ctx, j))
            for j in range(p)]
    acc = {}
    for i in range(dm):
        lam = m.weights[i]
        for k in range(dn):
            pref = ctx.root(-lam * n.weights[k])
            for j in range(p):
                ehits = e_cols[j].get(i)
                fhits = f_cols[j].get(k)
                if not ehits or not fhits:
                    continue
                cj = pref * coef[j]
                for a, fv in fhits:
                    for b, ev_ in ehits:
                        key = (a * dm + b, i * dn + k)
                        term = cj * fv * ev_
                        cur = acc.get(key)
                        acc[key] = term if cur is None else cur + term
    return Matrix(ctx, dm * dn, dm * dn, acc)


@pytest.mark.parametrize("p", [2, 3, 5, 8])
def test_braiding_matches_reference_kernel(p):
    # module_map cannot tell a module map from a scalar multiple of it, so
    # the entries themselves are compared
    ctx = field(p)
    v2 = simple_V(ctx, 2)
    pool = [simple_V(ctx, s) for s in range(1, p + 1)]
    pool += [chi_module(ctx), simple_L(ctx, 1), simple_L(ctx, 2),
             tensor(chi_module(ctx), v2), tensor(v2, v2)]
    for m in pool:
        for n in pool:
            if m.dimension * n.dimension <= 4 * p:
                assert braiding(m, n) == _reference_braiding(m, n), (m, n)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8])
def test_tensor_divided_powers_match_reference(p):
    # all four generators of the product.  V2 (x) Vp has the Ep terms with
    # 0 < i < p at every p; beyond the simples, factors that are products
    # themselves: L(1) (x) V2 carries both E and Ep, V2 (x) (V2 (x) V2) has
    # weight multiplicities above one, and chi (x) (Vp (x) V2) has a right
    # factor with a Jordan block
    ctx = field(p)
    chi = chi_module(ctx)
    v2, vp = simple_V(ctx, 2), simple_V(ctx, p)
    lv = tensor(simple_L(ctx, 1), v2)
    pairs = [(chi, simple_V(ctx, s)) for s in (1, 2, p)]
    pairs += [(v2, vp), (vp, v2)]
    for r in (1, 2):
        ell = simple_L(ctx, r)
        pairs += [(ell, v2), (v2, ell), (ell, vp), (vp, ell),
                  (chi, ell), (ell, chi), (ell, simple_L(ctx, 1))]
    pairs += [(lv, v2), (v2, lv), (lv, chi), (chi, lv),
              (v2, tensor(v2, v2)), (chi, tensor(vp, v2))]
    for m, n in pairs:
        prod = tensor(m, n)
        assert [prod.E, prod.F, prod.Ep, prod.Fp] == list(
            _reference_generators(m, n)), (m, n)
    # the Frobenius part survives only where a factor carries one
    assert not tensor(simple_L(ctx, 1), simple_V(ctx, 2)).Ep.is_zero()
    assert tensor(chi, simple_V(ctx, p)).Ep.is_zero()


def test_simples_build_their_generators_without_matrix_products():
    # E, F, Ep and Fp of every uq_module, chi (x) V_s included: X^1 is read
    # off the power list, chi's vanishing E and F need no power of V_s, and
    # a K-factor scales entries, so no Matrix.mul runs
    mods = [uq_module(field(p), (s, e))
            for p in range(2, 17) for s in range(1, p + 1) for e in (0, 1)]
    with mock.patch.object(Matrix, "mul",
                           side_effect=AssertionError("Matrix.mul")):
        for m in mods:
            for name in ("E", "F", "Ep", "Fp"):
                getattr(m, name)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8, 16])
def test_twist_inverse_matches_reference(p):
    # p = 16 is the benchmarked one.  Beyond the simples: V2^(x)3 (weight
    # multiplicities above one), the projective chi (x) (Vp (x) V2) (a
    # Jordan block) and L(2) (x) Vp, whose weight span exceeds 2(p-1), so
    # the depth stops at p-1, not at half the span.  Up to p = 8 also
    # V2^(x)4 (multiplicity 6) and V4 (x) V4 (multiplicity 4)
    ctx = field(p)
    v2, vp = simple_V(ctx, 2), simple_V(ctx, p)
    mods = [uq_module(ctx, (s, e)) for s in range(1, p + 1) for e in (0, 1)]
    mods += [tensor(v2, v2), tensor(v2, vp), vir_module(ctx, (2, 2)),
             tensor(v2, tensor(v2, v2)),
             tensor(chi_module(ctx), tensor(vp, v2)),
             vir_module(ctx, (3, p))]
    if p <= 8:
        mods.append(tensor(v2, tensor(v2, tensor(v2, v2))))
        if p >= 4:
            mods.append(tensor(simple_V(ctx, 4), simple_V(ctx, 4)))
    for m in mods:
        assert twist_inverse(m) == _reference_twist_inverse(m)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8])
def test_twist_inverse_builds_no_operator_powers(p):
    # the nested form reads E and F once and builds no power of them;
    # the Ep and Fp thunks of a tensor product do build powers, so every
    # operator is materialised before the patch
    ctx = field(p)
    mods = [uq_module(ctx, (s, e)) for s in range(1, p + 1) for e in (0, 1)]
    for m in mods:
        for name in ("E", "F", "Ep", "Fp"):
            getattr(m, name)
    with mock.patch.object(qrep, "_op_powers",
                           side_effect=AssertionError("operator powers")):
        for m in mods:
            twist_inverse(m)


@pytest.mark.parametrize("p", [2, 5, 8])
def test_twist_inverse_builds_no_matrix_product(p):
    # the levels are dicts and the sandwich F X E a table, so with
    # module_map passing its matrix through, no Matrix.mul runs at all
    ctx = field(p)
    v2 = simple_V(ctx, 2)
    mods = [uq_module(ctx, (s, e)) for s in range(1, p + 1) for e in (0, 1)]
    mods.append(tensor(v2, tensor(v2, v2)))
    expected = [twist_inverse(m) for m in mods]
    with mock.patch.object(qrep, "module_map", lambda dom, cod, x: x), \
            mock.patch.object(Matrix, "mul",
                              side_effect=AssertionError("Matrix.mul")):
        assert [twist_inverse(m) for m in mods] == expected


@pytest.mark.parametrize("p", [2, 5, 8, 16])
def test_twist_inverse_certifies_simples_without_products(p):
    # on a simple the inverse twist is a scalar, which module_map certifies
    # by the diagonal rule: with module_map live, no Matrix.mul runs
    ctx = field(p)
    mods = [uq_module(ctx, (s, e)) for s in range(1, p + 1) for e in (0, 1)]
    with mock.patch.object(Matrix, "mul",
                           side_effect=AssertionError("Matrix.mul")):
        for m in mods:
            twist_inverse(m)


@pytest.mark.parametrize("p", range(2, 17))
def test_inverse_factorial_table(p):
    # the table read by _divided and _twist_coefs, from one inverse,
    # against one inverse per factorial
    ctx = field(p)
    g = ctx.q() * ctx.q() - 1
    inverses = tuple(inv(qfact(ctx, j)) for j in range(p))
    assert qrep._inverse_qfacts(ctx) == inverses
    assert qrep._twist_coefs(ctx) == tuple(
        g**j * x for j, x in enumerate(inverses))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_balancing_identity(p):
    # c^2 . thetainv(M x N) = thetainv(M) x thetainv(N), total dim <= 12
    ctx = field(p)
    pairs = [
        (simple_V(ctx, 2), simple_V(ctx, 2)),
        (simple_V(ctx, 2), simple_V(ctx, p)),
        (simple_V(ctx, 2), simple_L(ctx, 1)),
        (chi_module(ctx), simple_V(ctx, 2)),
        (simple_L(ctx, 1), simple_L(ctx, 1)),
    ]
    for m, n in pairs:
        if m.dimension * n.dimension > 12:
            continue
        c2 = braiding(n, m).mul(braiding(m, n))
        lhs = c2.mul(twist_inverse(tensor(m, n)))
        rhs = Matrix.kron(twist_inverse(m), twist_inverse(n))
        assert lhs == rhs


# -- self-duality and the diagram functor ------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_selfduality(p):
    ctx = field(p)
    coev, ev = selfdual_V(ctx)
    z = ctx.q()
    loop = ev.mul(coev)
    assert (loop.rows, loop.cols) == (1, 1)
    assert loop.entry(0, 0) == -(z + inv(z))
    # snake identities
    id2 = Matrix.identity(ctx, 2)
    left = Matrix.kron(ev, id2).mul(Matrix.kron(id2, coev))
    right = Matrix.kron(id2, ev).mul(Matrix.kron(coev, id2))
    assert left == id2 and right == id2


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_functor_base_cases(p):
    # coev(1) = zeta^{-1/2} v+ (x) v- - zeta^{1/2} v- (x) v+ and the
    # matching evaluation, typed out
    ctx = field(p)
    zh = ctx.qhalf()
    coev = Matrix(ctx, 4, 1, {(1, 0): inv(zh), (2, 0): -zh})
    ev = Matrix(ctx, 1, 4, {(0, 1): -inv(zh), (0, 2): zh})
    assert tl_to_matrix(ctx, tldiag.cup(ctx)) == coev
    assert tl_to_matrix(ctx, tldiag.cap(ctx)) == ev
    assert tl_to_matrix(ctx, tldiag.identity(ctx, 3)) == Matrix.identity(ctx, 8)
    f_tl = tldiag.compose(tldiag.cap(ctx), tldiag.cup(ctx))
    assert tl_to_matrix(ctx, f_tl) == coev.mul(ev)


def _rainbow(ctx, n, as_top):
    """n nested cups (0 -> 2n), or n nested caps (2n -> 0)."""
    pairs = [(i, 2 * n - 1 - i) for i in range(n)]
    d = (tldiag.TLDiagram(0, 2 * n, pairs) if as_top
         else tldiag.TLDiagram(2 * n, 0, pairs))
    return tldiag.from_diagram(ctx, d)


@pytest.mark.parametrize("p", ALL_P)
def test_quantum_trace_matches_markov(p):
    # the closure of jw(n) by nested arcs, mapped piece by piece: the
    # functor images of the arcs around e (x) id give the 1x1 quantum
    # trace of the idempotent e, which must be the diagram-side closure
    ctx = field(p)
    for n in range(1, p):
        jw = tldiag.jones_wenzl(ctx, n)
        e = tl_to_matrix(ctx, jw)
        assert e.mul(e) == e
        cups = tl_to_matrix(ctx, _rainbow(ctx, n, as_top=True))
        caps = tl_to_matrix(ctx, _rainbow(ctx, n, as_top=False))
        closed = caps.mul(
            Matrix.kron(e, Matrix.identity(ctx, 1 << n)).mul(cups))
        assert (closed.rows, closed.cols) == (1, 1)
        assert closed.entry(0, 0) == tldiag.markov_close(jw)
    # vanishing quantum dimension at the top projector
    assert closed.is_zero()


@pytest.mark.parametrize("p", ALL_P)
def test_functor_injective_on_two_strand_hom(p):
    # images of the two diagram generators stay linearly independent
    ctx = field(p)
    f_v = tl_to_matrix(ctx, tldiag.hook(ctx, 2, 1))
    ident = Matrix.identity(ctx, 4)
    for scalar_entry in (f_v.entry(0, 0), f_v.entry(1, 1)):
        assert f_v != ident.scale(scalar_entry)
    assert not f_v.is_zero()


def _reference_tl_to_matrix(ctx, mor):
    """The functor arc by arc: each state's value is multiplied by the field
    weight of every arc it crosses."""
    n, m = mor.bottom_count, mor.top_count
    zh = ctx.qhalf()
    ev_val = {(0, 1): -inv(zh), (1, 0): zh}
    coev_val = {(0, 1): inv(zh), (1, 0): -zh}
    acc: dict = {}
    for diag, coeff in mor.terms.items():
        arcs = []
        for x, y in diag.pairs:
            if y < n:
                arcs.append(("ev", x, y))
            elif x >= n:
                arcs.append(("coev", m - 1 - (y - n), m - 1 - (x - n)))
            else:
                arcs.append(("thru", x, m - 1 - (y - n)))
        states = [(0, 0, coeff)]  # packed bottom bits, top bits, value
        for kind, aa, bb in arcs:
            nxt = []
            for bot, top, val in states:
                if kind == "thru":
                    nxt.append((bot, top, val))
                    nxt.append((bot | 1 << (n - 1 - aa),
                                top | 1 << (m - 1 - bb), val))
                elif kind == "ev":
                    for (u, w), factor in ev_val.items():
                        nxt.append((
                            bot | u << (n - 1 - aa) | w << (n - 1 - bb),
                            top, val * factor,
                        ))
                else:
                    for (u, w), factor in coev_val.items():
                        nxt.append((
                            bot,
                            top | u << (m - 1 - aa) | w << (m - 1 - bb),
                            val * factor,
                        ))
            states = nxt
        for bot, top, val in states:
            cur = acc.get((top, bot))
            acc[(top, bot)] = val if cur is None else cur + val
    return Matrix(ctx, 1 << m, 1 << n, acc)


@pytest.mark.parametrize("p", LINALG_P)
def test_functor_matches_per_arc_reference(p):
    # every diagram of Hom(n, m), n + m <= 8, alone and all together
    ctx = field(p)
    rng = random.Random(p)
    for n in range(9):
        for m in range(n % 2, 9 - n, 2):
            terms = {d: _random_element(rng, ctx)
                     for d in tldiag.all_diagrams(n, m)}
            mors = [tldiag.TLMorphism(ctx, n, m, {d: c})
                    for d, c in terms.items()]
            mors.append(tldiag.TLMorphism(ctx, n, m, terms))
            for mor in mors:
                assert tl_to_matrix(ctx, mor) == _reference_tl_to_matrix(
                    ctx, mor)


@pytest.mark.parametrize("p", [5, 6, 7])
def test_diagram_layer_runs_on_link_states_alone(p):
    # the endpoint pairs are derived for printing only: with tldiag._pairs
    # refusing, the Jones-Wenzl recursion and its audit, tensor and the
    # functor still run.  The references read pairs, so they are computed
    # outside the patch.
    ctx = FieldContext(p)  # not interned by field(), so jones_wenzl starts cold
    rng = random.Random(p)
    mors = [tldiag.TLMorphism(ctx, n, m, {d: _random_element(rng, ctx)
                                          for d in tldiag.all_diagrams(n, m)})
            for n in range(7) for m in range(n % 2, 7 - n, 2)]
    want = [_reference_tl_to_matrix(ctx, mor) for mor in mors]
    with mock.patch.object(tldiag, "_pairs",
                           side_effect=AssertionError("pairs read")):
        projectors = [tldiag.jones_wenzl(ctx, n) for n in range(1, p)]
        for n in range(1, p):
            _, idempotent, alive, closure = checks.jw_audit(ctx, n)
            assert idempotent and not alive
            assert closure == (-1) ** n * qint(ctx, n + 1)
        images = [tl_to_matrix(ctx, mor) for mor in mors + projectors]
        assert images[:len(mors)] == want
        for f, g in zip(mors, mors[1:]):
            assert tl_to_matrix(ctx, tldiag.tensor(f, g)) == Matrix.kron(
                tl_to_matrix(ctx, f), tl_to_matrix(ctx, g))
    for e, image in zip(projectors, images[len(mors):]):
        assert image == _reference_tl_to_matrix(ctx, e)


@given(data=st.data(), p=st.sampled_from([2, 3]))
def test_functoriality_random_words(data, p):
    # matrix of a composite equals the product of matrices
    ctx = field(p)
    parity = data.draw(st.sampled_from([0, 1]))
    sizes = data.draw(
        st.lists(st.sampled_from([parity, parity + 2]), min_size=3, max_size=4)
    )
    comp_tl = None
    comp_mat = None
    for a, b in zip(sizes, sizes[1:]):
        d = data.draw(st.sampled_from(tldiag.all_diagrams(a, b)))
        mor = tldiag.from_diagram(ctx, d)
        mat = tl_to_matrix(ctx, mor)
        if comp_tl is None:
            comp_tl, comp_mat = mor, mat
        else:
            comp_tl = tldiag.compose(comp_tl, mor)
            comp_mat = mat.mul(comp_mat)
    assert tl_to_matrix(ctx, comp_tl) == comp_mat


# -- maps ---------------------------------------------------------------------


def test_module_map_verification():
    ctx = field(3)
    v2 = simple_V(ctx, 2)
    with pytest.raises(ValueError):
        module_map(v2, v2, Matrix(ctx, 2, 2, {(0, 1): ctx.one()}))
    ident = Matrix.identity(ctx, 2)
    assert module_map(v2, v2, ident) is ident


def _direct_sum(m, n):
    """m (+) n, every operator block diagonal."""
    ctx, d = m.ctx, m.dimension
    dim = d + n.dimension

    def block(name):
        data = dict(getattr(m, name).data)
        data.update({(i + d, j + d): v
                     for (i, j), v in getattr(n, name).data.items()})
        return Matrix(ctx, dim, dim, data)

    return WeightModule(ctx, m.weights + n.weights,
                        *(block(name) for name in ("E", "F", "Ep", "Fp")))


@pytest.mark.parametrize("p", range(2, 9))
def test_module_map_diagonal_rule_matches_products(p):
    # the product-free verdict on a diagonal endomorphism against the
    # products D X and X D, generator by generator: scalars (zero too),
    # random diagonals whose entries repeat or are missing, and, on
    # V2 (+) Vp, diagonals constant on each summand, which are module
    # maps without being scalars
    rng = random.Random(p)
    ctx = field(p)
    v2, vp = simple_V(ctx, 2), simple_V(ctx, p)
    mods = [(uq_module(ctx, (s, e)), None)
            for s in range(1, p + 1) for e in (0, 1)]
    mods += [(tensor(v2, v2), None), (tensor(vp, v2), None),
             (_direct_sum(v2, vp), (2, p))]
    values = [ctx.zero(), ctx.one(), ctx.rational(2), ctx.q()]
    for m, blocks in mods:
        dim = m.dimension
        diags = [[v] * dim for v in values]
        diags += [[rng.choice(values) for _ in range(dim)] for _ in range(8)]
        if blocks:
            diags += [[v for size in blocks
                       for v in [rng.choice(values)] * size]
                      for _ in range(8)]
        for entries in diags:
            d = Matrix.diagonal(ctx, entries)
            failing = [name for name in ("E", "F", "Ep", "Fp")
                       if getattr(m, name).mul(d) != d.mul(getattr(m, name))]
            if not failing:
                assert module_map(m, m, d) is d
                continue
            with pytest.raises(ValueError) as info:
                module_map(m, m, d)
            assert str(info.value) == f"map fails to intertwine {failing[0]}"


@pytest.mark.parametrize("matrix, exc, message", [
    (lambda ctx: Matrix.identity(field(2), 2), ContextMismatch,
     "map pieces from different field contexts"),
    (lambda ctx: Matrix(ctx, 2, 1), ValueError,
     "matrix shape does not match domain/codomain"),
    (lambda ctx: Matrix(ctx, 2, 2, {(0, 1): ctx.one()}), ValueError,
     "entry (0,1) breaks K-equivariance"),
    (lambda ctx: Matrix.diagonal(ctx, [ctx.one(), ctx.rational(2)]),
     ValueError, "map fails to intertwine E"),
], ids=["mixed contexts", "wrong shape", "K break", "E not intertwined"])
def test_module_map_refusals(matrix, exc, message):
    ctx = field(3)
    v2 = simple_V(ctx, 2)
    with pytest.raises(exc) as info:
        module_map(v2, v2, matrix(ctx))
    assert type(info.value) is exc and str(info.value) == message
