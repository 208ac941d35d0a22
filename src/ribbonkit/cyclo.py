"""Exact arithmetic in the cyclotomic field Q(zeta_N) with N = 4p.

Elements are residues in the power basis 1, z, ..., z^{phi(N)-1} modulo the
minimal polynomial Phi_N(z). A residue is stored as a tuple of integer
numerators over one positive common denominator, in lowest terms (the nf_elem
form of FLINT/Antic). Phi_N is monic, so reduction is integer arithmetic and
rationals appear only at the API edges: constructor input, rational(), the
Fraction view `coeffs`, str/parse_cyc and embed_complex. Inverses come from
an extended Euclid over Z[x]. Every memo here (fields, Phi_n, q-integers,
q-factorials, inverses) is a functools.cache.

For sums of many products (diagram composition) pack and unpack_sum use
Kronecker substitution: an operand's numerators become the base-2^w digits
of one int, so a polynomial product is one int product and a sum of them
is reduced once. The packed form exists only inside such a sum: callers
multiply and add the ints they are handed and never read a digit, and the
layout is private to this module.

The distinguished roots are q = zeta_N^2 (so q = e^{pi*i/p} under the
reporting embedding) and the square-root branch q^{1/2} = zeta_N.

No floating point participates in any decision: equality is coefficient
equality of fully reduced residues. embed_complex is reporting-only.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add as _add, neg as _neg, sub as _sub
from typing import Iterable, Sequence


class ContextMismatch(ValueError):
    """Operands belong to different field contexts."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic integer polynomial; exact integer arithmetic."""
    num = list(num)
    dd = len(den) - 1
    assert den[-1] == 1
    quot = [0] * max(len(num) - dd, 0)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            quot[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    return quot, _trim(num)


def _trim(a: list[int]) -> list[int]:
    """Drop zero top-degree coefficients in place, keeping at least one."""
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


@cache
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Phi_n as ascending integer coefficients, by exact division of x^n - 1
    by the product of Phi_d over proper divisors d."""
    num = [-1] + [0] * (n - 1) + [1]
    den: list[int] = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, _cyclotomic_poly(d))
    quot, rem = _poly_divmod_monic(num, den)
    assert rem == [0], f"Phi_{n} division not exact"
    return tuple(quot)


# ---------------------------------------------------------------------------


class FieldContext:
    """Q(zeta_{4p}): minimal polynomial, reduction data, cached root powers
    and their exponent index.

    Instances are immutable and interned per p via field(p). The memos
    keyed by a context (qint, _inverse, tldiag.jones_wenzl) are
    functools caches holding its exact values.
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        self.p = p
        self.N = 4 * p
        self.minimal_polynomial: tuple[int, ...] = _cyclotomic_poly(self.N)
        self.degree = n = len(self.minimal_polynomial) - 1
        # row j holds x^{degree+j} mod Phi as its nonzero (index, integer)
        # pairs, enough rows to reduce any product of two residues (top
        # power 2*degree - 2)
        top = [-c for c in self.minimal_polynomial[:n]]

        def times_z(cur: list[int]) -> list[int]:
            carry = cur[-1]
            nxt = [0] + cur[:-1]
            if carry:
                nxt = [a + carry * b for a, b in zip(nxt, top)]
            return nxt

        rows = [top]
        for _ in range(n - 2):
            rows.append(times_z(rows[-1]))
        self._reduction = tuple(
            tuple((i, c) for i, c in enumerate(row) if c) for row in rows
        )
        # all N powers of zeta as reduced residues
        powers = []
        cur = [1] + [0] * (n - 1)
        for _ in range(self.N):
            powers.append(_make(self, tuple(cur), 1))
            cur = times_z(cur)
        self._root_powers = tuple(powers)
        self._root_index = {z: k for k, z in enumerate(powers)}

    # -- constructors

    def zero(self) -> "CycNumber":
        return _make(self, (0,) * self.degree, 1)

    def one(self) -> "CycNumber":
        return self._root_powers[0]

    def rational(self, x) -> "CycNumber":
        f = Fraction(x)
        return _make(self, (f.numerator,) + (0,) * (self.degree - 1),
                     f.denominator)

    def root(self, k: int) -> "CycNumber":
        """zeta_N^k, k taken mod N."""
        return self._root_powers[k % self.N]

    def root_exponent(self, x: "CycNumber") -> int | None:
        """k in 0..N-1 with x == zeta_N^k, or None when x is not an N-th
        root of unity."""
        return self._root_index.get(x)

    def q(self) -> "CycNumber":
        return self.root(2)

    def qhalf(self) -> "CycNumber":
        return self.root(1)

    def header(self) -> str:
        return f"cyclotomic(N={self.N})"

    def __repr__(self):
        return f"FieldContext(p={self.p})"


@cache
def field(p: int) -> FieldContext:
    return FieldContext(p)


def _split(coeffs: list[Fraction]) -> tuple[tuple[int, ...], int]:
    """Fractions -> (integer numerators, least common denominator); the
    result is in lowest terms because each Fraction is."""
    den = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


class CycNumber:
    """A residue in Q[z]/(Phi_{4p}(z)), always fully reduced.

    num holds `degree` integers and den > 0 with gcd(den, *num) == 1; zero
    has den == 1. That form is unique, so equality compares it directly.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldContext, coeffs: Iterable):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > ctx.degree:
            if len(cs) > 2 * ctx.degree - 1:
                raise ValueError("coefficient list too long to reduce in one pass")
            cs = list(_reduced(ctx, cs))
        cs += [Fraction(0)] * (ctx.degree - len(cs))
        self.ctx = ctx
        self.num, self.den = _split(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- predicates

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.ctx is not self.ctx:
                raise ContextMismatch(
                    f"mixed contexts p={self.ctx.p} and p={other.ctx.p}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _normalised(self.ctx, tuple(map(_add, self.num, o.num)), da)
        return _normalised(
            self.ctx, tuple([a * db + b * da for a, b in zip(self.num, o.num)]),
            da * db,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _normalised(self.ctx, tuple(map(_sub, self.num, o.num)), da)
        return _normalised(
            self.ctx, tuple([a * db - b * da for a, b in zip(self.num, o.num)]),
            da * db,
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(self.ctx, tuple(map(_neg, self.num)), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return _normalised(self.ctx, tuple([a * k for a in self.num]),
                               self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        n = ctx.degree
        out = [0] * (2 * n - 1)
        bs = [(j, b) for j, b in enumerate(o.num) if b]
        for i, a in enumerate(self.num):
            if a:
                for j, b in bs:
                    out[i + j] += a * b
        return _normalised(ctx, _reduced(ctx, out), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inv()
        n = abs(n)
        result = self.ctx.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inv(self) -> "CycNumber":
        """Multiplicative inverse, memoised per field context."""
        return _inverse(self.ctx, self.num, self.den)

    # -- equality / hashing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.rational(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        if other.ctx is not self.ctx:
            return False
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # the hash of (p, coefficients as Fractions), which for den == 1 is
        # the hash of (p, num): set and dict order stay as they were
        if self.den == 1:
            return hash((self.ctx.p, self.num))
        return hash((self.ctx.p, self.coeffs))

    # -- serialization

    def __str__(self):
        terms = []
        coeffs = self.coeffs
        for k in range(self.ctx.degree - 1, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"<cyc p={self.ctx.p}: {self}>"


def _make(ctx: FieldContext, num: tuple[int, ...], den: int) -> CycNumber:
    """Trusted constructor: num reduced, of full length, already in lowest
    terms over den > 0."""
    out = object.__new__(CycNumber)
    out.ctx = ctx
    out.num = num
    out.den = den
    return out


def _normalised(ctx: FieldContext, num: tuple[int, ...], den: int) -> CycNumber:
    """Trusted constructor: num reduced and of full length, den > 0; divides
    out the common content (nothing to do when den == 1)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return _make(ctx, num, den)


def _reduced(ctx: FieldContext, out: list) -> tuple:
    """At most 2*degree - 1 coefficients (ints or Fractions) reduced mod
    Phi_N to `degree` of them."""
    base = out[:ctx.degree]
    for row, c in zip(ctx._reduction, out[ctx.degree:]):
        if c:
            for i, r in row:
                base[i] += c * r
    return tuple(base)


# -- packed sums of products (Kronecker substitution)


def pack(ctx: FieldContext, left: Sequence[CycNumber],
         right: Sequence[CycNumber]) -> tuple[list[int], list[int], tuple]:
    """Pack two operand lists for sums of products a*b, a from left and b
    from right; returns (left packed, right packed, layout).

    Each side is brought to one common denominator, and each numerator
    vector becomes one int whose base-2^w digits are its coefficients,
    signed. The product of two packed ints is the packed product
    polynomial, and a sum of such products is the packed sum. w is
    bits(max|a|) + bits(max|b|) + bits(pairs * degree) + 1, so every digit
    of a sum over at most len(left) * len(right) pairs stays below 2^(w-1)
    in magnitude and no digit carries into the next. Only unpack_sum reads
    the layout.
    """
    lnums, lden, ltop = _common(left)
    rnums, rden, rtop = _common(right)
    summands = len(left) * len(right) * ctx.degree
    w = ltop.bit_length() + rtop.bit_length() + summands.bit_length() + 1
    # half in every digit of a product, so that unpack_sum reads each
    # digit as a plain w-bit field
    half = 1 << (w - 1)
    bias = half * (((1 << (w * (2 * ctx.degree - 1))) - 1) // ((1 << w) - 1))
    return _packed(lnums, w), _packed(rnums, w), (w, lden * rden, bias)


def _common(xs: Sequence[CycNumber]) -> tuple[list[tuple[int, ...]], int, int]:
    """Numerators over one common denominator, that denominator, and the
    largest coefficient magnitude."""
    den = lcm(*[x.den for x in xs])
    nums = [x.num if x.den == den else tuple([c * (den // x.den) for c in x.num])
            for x in xs]
    top = max(max(map(max, nums), default=0), -min(map(min, nums), default=0))
    return nums, den, top


def _packed(nums: list[tuple[int, ...]], w: int) -> list[int]:
    out = []
    for v in nums:
        acc = 0
        for c in reversed(v):
            acc = (acc << w) + c
        out.append(acc)
    return out


def unpack_sum(ctx: FieldContext, packed: int, layout: tuple) -> CycNumber:
    """The field element of a sum of packed products: the signed digits
    read once, one reduction mod Phi_N, over the product of the two
    common denominators."""
    w, den, bias = layout
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    packed += bias
    out = [((packed >> s) & mask) - half
           for s in range(0, w * (2 * ctx.degree - 1), w)]
    return _normalised(ctx, _reduced(ctx, out), den)


@cache
def _inverse(ctx: FieldContext, num: tuple[int, ...], den: int) -> CycNumber:
    """Extended Euclid against Phi_N over Z[x], by pseudo-division.

    Each pair (r, t) keeps t * num == r (mod Phi); a pseudo-division step
    scales by the divisor's leading coefficient so everything stays
    integral, and the joint content of (r, t) is divided out each round.
    The last remainder is a nonzero constant c, since Phi_N is
    irreducible, so 1/(num/den) = den * t / c.
    """
    if not any(num):
        raise ZeroDivisionError("inverse of zero cyclotomic element")
    r0, t0 = list(ctx.minimal_polynomial), [0]
    r1, t1 = _trim(list(num)), [1]
    while len(r1) > 1:
        lead, d = r1[-1], len(r1) - 1
        r, t = r0, t0
        while len(r) > d:
            c, s = r[-1], len(r) - 1 - d
            r = [lead * x for x in r]
            for j, y in enumerate(r1):
                r[s + j] -= c * y
            t = [lead * x for x in t] + [0] * (s + len(t1) - len(t))
            for j, y in enumerate(t1):
                t[s + j] -= c * y
            _trim(r)
        _trim(t)
        g = gcd(*r, *t)
        r0, t0 = r1, t1
        r1, t1 = [x // g for x in r], [x // g for x in t]
    c = r1[0]
    assert c != 0, "Phi_N is irreducible, so the gcd is a unit"
    scale = den if c > 0 else -den
    out = [x * scale for x in t1] + [0] * (ctx.degree - len(t1))
    return _normalised(ctx, tuple(out), abs(c))


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?\*?(?:(?P<var>z)(?:\^(?P<pow>\d+))?)?$"
)


def parse_cyc(ctx: FieldContext, text: str) -> CycNumber:
    """Inverse of str(): parse '1/2*z^3 - z' style polynomials in z."""
    s = text.strip()
    if s == "0":
        return ctx.zero()
    s = s.replace(" - ", " + -")
    coeffs = [Fraction(0)] * ctx.degree
    for part in s.split(" + "):
        part = part.strip()
        sign = 1
        if part.startswith("-"):
            sign = -1
            part = part[1:]
        m = _TERM_RE.match(part)
        if m is None or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse cyclotomic term {part!r}")
        c = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("var") is None:
            k = 0
        elif m.group("pow") is None:
            k = 1
        else:
            k = int(m.group("pow"))
        if k >= ctx.degree:
            raise ValueError(f"power z^{k} out of range for degree {ctx.degree}")
        coeffs[k] += sign * c
    return CycNumber(ctx, coeffs)


# ---------------------------------------------------------------------------
# free-function aliases for the method API


def inv(a: CycNumber) -> CycNumber:
    return a.inv()


@cache
def qint(ctx: FieldContext, n: int) -> CycNumber:
    """[n] = (q^n - q^{-n})/(q - q^{-1})."""
    q = ctx.q()
    return (q**n - q**-n) / (q - q**-1)


@cache
def qfact(ctx: FieldContext, n: int) -> CycNumber:
    """[n]! = [1][2]...[n]."""
    if n < 1:
        return ctx.one()
    return qfact(ctx, n - 1) * qint(ctx, n)


def embed_complex(a: CycNumber) -> complex:
    """Numerical image under zeta_N -> e^{2*pi*i/N}; reporting only."""
    z = cmath.exp(2j * cmath.pi / a.ctx.N)
    out = 0j
    for c in reversed(a.coeffs):
        out = out * z + complex(c)
    return out
