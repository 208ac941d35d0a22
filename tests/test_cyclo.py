"""Exact cyclotomic arithmetic: constructors, field axioms, quantum integers,
serialization, and the reporting-only complex embedding.

Expected values below were frozen ahead of the implementation: root orders
and quantum-integer identities follow from zeta_N = e^{2*pi*i/N} with N = 4p,
and the embedding cross-checks use the independent evaluation of cosines.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ribbonkit.cyclo import (
    ContextMismatch,
    CycNumber,
    FieldContext,
    embed_complex,
    field,
    inv,
    pack,
    parse_cyc,
    qfact,
    qint,
    unpack_sum,
)

ALL_P = [2, 3, 4, 5, 6, 7]

# Euler phi of 4p for p = 2..7, i.e. the field degree.
EXPECTED_DEGREE = {2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 12}

# Minimal polynomials of zeta_{4p}, ascending coefficients, frozen from the
# standard cyclotomic factorizations of x^N - 1.
EXPECTED_PHI = {
    2: [1, 0, 0, 0, 1],                                # x^4 + 1
    3: [1, 0, -1, 0, 1],                               # x^4 - x^2 + 1
    7: [1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1],     # x^12 - x^10 + ... + 1
}


def elements(ctx, max_den=4):
    """Strategy: CycNumber with small rational coefficients."""
    coeff = st.fractions(
        min_value=-3, max_value=3, max_denominator=max_den
    )
    return st.lists(coeff, min_size=ctx.degree, max_size=ctx.degree).map(
        lambda cs: CycNumber(ctx, cs)
    )


@pytest.mark.parametrize("p", ALL_P)
def test_context_basic(p):
    ctx = field(p)
    assert ctx.p == p
    assert ctx.N == 4 * p
    assert ctx.degree == EXPECTED_DEGREE[p]
    poly = list(ctx.minimal_polynomial)
    assert len(poly) == ctx.degree + 1
    assert poly[-1] == 1  # monic
    if p in EXPECTED_PHI:
        assert poly == EXPECTED_PHI[p]


@pytest.mark.parametrize("p", ALL_P)
def test_minimal_polynomial_divides_x_N_minus_1(p):
    ctx = field(p)
    # zeta^N reduces to 1, and synthetic check: root(1)**N == one
    assert ctx.root(1) ** ctx.N == ctx.one()


def test_make_root_specials():
    assert field(3).root(0) == field(3).one()
    assert field(3).root(12) == field(3).one()  # zeta_12^12 = 1
    assert field(2).root(4) == -field(2).one()  # zeta_8^4 = -1


@pytest.mark.parametrize("p", ALL_P)
def test_root_orders(p):
    ctx = field(p)
    z = ctx.root(1)
    one = ctx.one()
    # zeta_N has exact order N
    assert z ** ctx.N == one
    for k in range(1, ctx.N):
        assert z**k != one
    # q = zeta^2 has order 2p, q^2 has order p
    q = ctx.q()
    assert q ** (2 * p) == one
    assert all(q**k != one for k in range(1, 2 * p))
    q2 = q * q
    assert q2**p == one
    assert all(q2**k != one for k in range(1, p))


@pytest.mark.parametrize("p", ALL_P)
def test_arith_specials(p):
    ctx = field(p)
    z = ctx.root(1)
    one = ctx.one()
    assert z * inv(z) == one
    # q^p = -1 for every p
    assert (ctx.q() ** p + one).is_zero()
    # the square-root branch: qhalf * qhalf = q
    assert ctx.qhalf() * ctx.qhalf() == ctx.q()
    assert -(-one) == one


def test_inv_zero_raises():
    ctx = field(2)
    with pytest.raises(ZeroDivisionError):
        inv(ctx.zero())


def test_context_mismatch_raises():
    a = field(2).one()
    b = field(3).one()
    with pytest.raises(ContextMismatch):
        a + b


@pytest.mark.parametrize("p", ALL_P)
def test_qint_specials(p):
    ctx = field(p)
    assert qint(ctx, 1) == ctx.one()
    assert qint(ctx, 0).is_zero()
    assert qint(ctx, p).is_zero()
    # [n + p] = -[n]
    assert qint(ctx, 1 + p) == -qint(ctx, 1)
    # [2] = q + q^{-1}
    q = ctx.q()
    assert qint(ctx, 2) == q + inv(q)


@pytest.mark.parametrize("p", range(2, 25))
def test_qint_is_the_quotient(monkeypatch, p):
    # the root sum against the quotient it replaces, at every residue of n
    # mod 2p and past it; the context is fresh, so qint's memo is cold and
    # every value below is summed under the patch, which refuses any power
    # or inverse
    ctx = FieldContext(p)
    q = ctx.q()
    want = {n: (q**n - q**-n) / (q - q**-1) for n in range(-3 * p, 3 * p + 1)}

    def refuse(*args):
        raise AssertionError("qint took a power or an inverse")

    monkeypatch.setattr(CycNumber, "inv", refuse)
    monkeypatch.setattr(CycNumber, "__pow__", refuse)
    assert {n: qint(ctx, n) for n in want} == want


def test_qint_p3_value():
    ctx = field(3)
    q = ctx.q()
    assert qint(ctx, 2) == q + q**-1


@pytest.mark.parametrize("p", [5, 7])
def test_qfact_qbinom(p):
    ctx = field(p)
    assert qfact(ctx, 0) == ctx.one()
    assert qfact(ctx, 3) == qint(ctx, 1) * qint(ctx, 2) * qint(ctx, 3)


def test_embed_specials():
    assert embed_complex(field(3).one()) == pytest.approx(1.0 + 0.0j)
    # p = 2: q = e^{i*pi/2} = i
    assert embed_complex(field(2).q()) == pytest.approx(1j, abs=1e-12)
    # p = 3: q + q^{-1} = 2*cos(pi/3) = 1.0, checked against the cosine
    val = embed_complex(field(3).q() + inv(field(3).q()))
    assert val == pytest.approx(2 * math.cos(math.pi / 3), abs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", ALL_P)
def test_embed_is_hom(p):
    ctx = field(p)
    z = embed_complex(ctx.root(1))
    assert z == pytest.approx(cmath.exp(2j * cmath.pi / ctx.N), abs=1e-12)
    a = ctx.root(3) + ctx.rational(Fraction(1, 2))
    b = ctx.root(1) - ctx.rational(2)
    assert embed_complex(a * b) == pytest.approx(
        embed_complex(a) * embed_complex(b), abs=1e-9
    )


def test_serialization_text():
    ctx = field(2)
    a = CycNumber(ctx, [Fraction(0), Fraction(-1), Fraction(0), Fraction(1, 2)])
    assert str(a) == "1/2*z^3 - z"
    assert ctx.header() == "cyclotomic(N=8)"
    assert parse_cyc(ctx, str(a)) == a
    assert str(ctx.zero()) == "0"
    assert str(ctx.one()) == "1"
    assert str(-ctx.one()) == "-1"


@given(data=st.data(), p=st.sampled_from([2, 3, 5]))
def test_ring_axioms(data, p):
    ctx = field(p)
    a = data.draw(elements(ctx))
    b = data.draw(elements(ctx))
    c = data.draw(elements(ctx))
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a + (-a) == ctx.zero()


@given(data=st.data(), p=st.sampled_from([2, 3, 5]))
def test_field_inverse(data, p):
    ctx = field(p)
    a = data.draw(elements(ctx))
    if a.is_zero():
        return
    assert a * inv(a) == ctx.one()


@given(data=st.data(), p=st.sampled_from([2, 3, 7]))
def test_is_zero_matches_embedding(data, p):
    # sanity cross-check only; the embedding is never a decision procedure
    ctx = field(p)
    a = data.draw(elements(ctx))
    assert a.is_zero() == (abs(embed_complex(a)) < 1e-9)


@given(data=st.data(), p=st.sampled_from([2, 5]))
def test_serialization_round_trip(data, p):
    ctx = field(p)
    a = data.draw(elements(ctx))
    assert parse_cyc(ctx, str(a)) == a


# -- differential test against a Fraction reference ---------------------------
#
# The reference is the schoolbook Fraction-tuple arithmetic the field used to
# run on: a full product, reduction by dense Fraction rows of x^{degree+j}
# mod Phi, and the extended Euclid over Q[x]. It never touches the integer
# numerator/denominator form under test.


def _ref_rows(ctx):
    n = ctx.degree
    top = [Fraction(-c) for c in ctx.minimal_polynomial[:n]]
    rows = [top]
    for _ in range(n - 2):
        prev = rows[-1]
        carry = prev[-1]
        nxt = [Fraction(0)] + prev[:-1]
        if carry:
            nxt = [nxt[i] + carry * top[i] for i in range(n)]
        rows.append(nxt)
    return rows


def ref_mul(ctx, a, b):
    n = ctx.degree
    out = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    base = out[:n]
    for j, row in enumerate(_ref_rows(ctx)):
        c = out[n + j]
        base = [base[i] + c * row[i] for i in range(n)]
    return tuple(base)


def ref_inv(ctx, a):
    def trim(xs):
        while len(xs) > 1 and xs[-1] == 0:
            xs.pop()
        return xs

    def pdiv(a, b):
        a = a[:]
        db = len(b) - 1
        q = [Fraction(0)] * max(len(a) - db, 1)
        for k in range(len(a) - 1, db - 1, -1):
            if a[k]:
                c = a[k] / b[-1]
                q[k - db] = c
                for j in range(db + 1):
                    a[k - db + j] -= c * b[j]
        return q, trim(a)

    def sub_prod(a, q, b):
        out = list(a) + [Fraction(0)] * max(0, len(q) + len(b) - 1 - len(a))
        for i, x in enumerate(q):
            for j, y in enumerate(b):
                out[i + j] -= x * y
        return trim(out)

    r0 = [Fraction(c) for c in ctx.minimal_polynomial]
    r1 = trim(list(a))
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while not (len(r1) == 1 and r1[0] == 0):
        q, r = pdiv(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, sub_prod(t0, q, t1)
    assert len(r0) == 1 and r0[0] != 0
    assert len(t0) <= ctx.degree
    out = [c / r0[0] for c in t0]
    return tuple(out + [Fraction(0)] * (ctx.degree - len(out)))


def coeff_lists(ctx, max_den=4):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=max_den)
    return st.lists(coeff, min_size=ctx.degree, max_size=ctx.degree)


def assert_normalised(x):
    assert len(x.num) == x.ctx.degree
    assert all(isinstance(c, int) for c in x.num)
    assert isinstance(x.den, int) and x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.den == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 13, 16]))
def test_matches_fraction_reference(data, p):
    ctx = field(p)
    fa = tuple(data.draw(coeff_lists(ctx)))
    fb = tuple(data.draw(coeff_lists(ctx)))
    s = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    a, b = CycNumber(ctx, fa), CycNumber(ctx, fb)
    assert a.coeffs == fa
    results = [
        (a + b, tuple(x + y for x, y in zip(fa, fb))),
        (a - b, tuple(x - y for x, y in zip(fa, fb))),
        (a * b, ref_mul(ctx, fa, fb)),
        (a * s, tuple(x * s for x in fa)),
    ]
    if any(fa):
        results.append((a.inv(), ref_inv(ctx, fa)))
    for got, want in results:
        assert got.coeffs == want
        assert hash(got) == hash((p, want))
        assert_normalised(got)
        assert parse_cyc(ctx, str(got)) == got
    for x in (a, b):
        assert_normalised(x)
        assert hash(x) == hash((p, x.coeffs))
        if x.den == 1:
            assert hash(x) == hash((p, x.num))
    scale = (1 + sum(map(abs, fa))) * (1 + sum(map(abs, fb)))
    assert cmath.isclose(embed_complex(a * b),
                         embed_complex(a) * embed_complex(b),
                         rel_tol=1e-9, abs_tol=1e-9 * float(scale))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p", [3, 5, 7, 8, 9, 16])
def test_packed_sum_at_width_bound(p, sign):
    # three equal operands on each side, every coefficient (2^64 - 1) or
    # (2^64 - 1)/2: all nine products land on the middle digit with
    # 9 * degree * (2^64 - 1)^2, which is more than half of 2^(w-1) because
    # 9 * degree is never a power of two, so a digit one bit narrower
    # overflows; the sum is checked against the Fraction reference
    ctx = field(p)
    m = 2**64 - 1
    x = CycNumber(ctx, [sign * m] * ctx.degree)
    y = CycNumber(ctx, [Fraction(m, 2)] * ctx.degree)
    left, right, layout = pack(ctx, [x] * 3, [y] * 3)
    got = unpack_sum(ctx, sum(a * b for a in left for b in right), layout)
    assert got.coeffs == tuple(9 * c for c in ref_mul(ctx, x.coeffs, y.coeffs))
    assert_normalised(got)
    assert unpack_sum(ctx, 0, layout) == ctx.zero()
