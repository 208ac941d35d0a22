"""Temperley-Lieb diagram category TL(d) at d = -(zeta + zeta^{-1}).

Diagrams are non-crossing perfect matchings on one circular boundary word:
bottom points 0..n-1 left to right, then top points n..n+m-1 right to left.
With that convention planarity is the balanced-bracket condition on the
linear word, and diagram equality is structural equality of sorted pairs.

Each diagram also keeps its partner array: partner[i] is the mate of
endpoint i.  Composition is pure combinatorics, independent of p: one walk
over the two partner arrays, with plain ints and a list of visited interface
points, gives the result's partner array and its closed loop count.
Composing or tensoring planar matchings always gives a planar matching, so
those results are built by a module-private constructor that skips the
checks of the public one but stores the same canonical pairs and hash.

Morphisms are finite CycNumber-linear combinations of diagrams; composition
stacks diagrams and converts every closed loop into a factor d.  The
coefficient products are summed per (result diagram, loop count) group, and
each group's sum is reduced and multiplied by d**loops once.  From
_PACKED_MIN_PAIRS term pairs on, a group's sum is a sum of packed integer
products (cyclo.pack, cyclo.unpack_sum), so a term pair costs one integer
product instead of a field multiply; a product with a one-term operand
multiplies pair by pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .cyclo import CycNumber, FieldContext, inv, pack, qint, unpack_sum

# compose sums packed products (cyclo.pack) from this many term pairs on.
# Below it, packing both operands and unpacking each group costs more than
# multiplying pair by pair: measured on Jones-Wenzl terms at p = 5, 7 and 10,
# a 4x3-term product is faster pair by pair and a 4x4-term one packed.  A
# one-term operand stays pair by pair at any size: its pairs almost never
# share a group, so there is no sum to pack (a 42x1-term hook product at
# p=7 on a 2-core Xeon: 555 us pair by pair, 738 us packed).
_PACKED_MIN_PAIRS = 16


class BoundaryMismatch(ValueError):
    """Boundary counts do not line up for the attempted operation."""


class QuantumOrderError(ValueError):
    """A required quantum integer vanishes at this root of unity."""


class TLDiagram:
    """A planar perfect matching between n bottom and m top points.

    pairs is canonicalized to a lexicographically sorted tuple of sorted
    pairs, so equality and hashing are structural; partner[i] is the mate
    of endpoint i.
    """

    __slots__ = ("bottom_count", "top_count", "pairs", "partner", "_hash")

    def __init__(self, bottom_count: int, top_count: int, pairs: Iterable):
        n, m = bottom_count, top_count
        if n < 0 or m < 0 or (n + m) % 2:
            raise ValueError(f"invalid boundary counts ({n}, {m})")
        norm = tuple(sorted(tuple(sorted(pr)) for pr in pairs))
        partner = [-1] * (n + m)
        for a, b in norm:
            if a == b or not (0 <= a < n + m) or not (0 <= b < n + m):
                raise ValueError(f"endpoint pair ({a},{b}) out of range")
            if partner[a] >= 0 or partner[b] >= 0:
                raise ValueError(f"repeated endpoint in {norm}")
            partner[a] = b
            partner[b] = a
        if -1 in partner:
            raise ValueError("pairing is not a perfect matching")
        # planarity: balanced brackets on the linear word
        stack: list[int] = []
        for t in range(n + m):
            u = partner[t]
            if u > t:
                stack.append(t)
            else:
                if not stack or stack[-1] != u:
                    raise ValueError(f"pairing {norm} is not planar")
                stack.pop()
        _fill(self, n, m, norm, tuple(partner))

    def __setattr__(self, *a):
        raise AttributeError("TLDiagram is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TLDiagram)
            and self.bottom_count == other.bottom_count
            and self.top_count == other.top_count
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        body = "".join(f"({a},{b})" for a, b in self.pairs)
        return f"TL({self.bottom_count}->{self.top_count}){{{body}}}"

    __repr__ = __str__


def _fill(d: TLDiagram, n: int, m: int, pairs: tuple, partner: tuple) -> None:
    object.__setattr__(d, "bottom_count", n)
    object.__setattr__(d, "top_count", m)
    object.__setattr__(d, "pairs", pairs)
    object.__setattr__(d, "partner", partner)
    object.__setattr__(d, "_hash", hash((n, m, pairs)))


def _trusted_diagram(n: int, m: int, partner: tuple) -> TLDiagram:
    """The diagram with this partner array, which must be a planar matching.

    Only for results of composition and tensor; pairs come out sorted
    because each is listed at its smaller endpoint, in endpoint order.
    """
    d = object.__new__(TLDiagram)
    pairs = tuple([(a, b) for a, b in enumerate(partner) if a < b])
    _fill(d, n, m, pairs, partner)
    return d


def _compose_partners(d1: TLDiagram, d2: TLDiagram) -> tuple[tuple, int]:
    """Stack d1 (n->m) then d2 (m->k); the result's partner array and loops.

    Interface point j (0 <= j < m) is d2 bottom index j, glued to d1 top
    index n+m-1-j.  Result indices are d1 bottoms 0..n-1, then d2 tops
    m..m+k-1 shifted down to n..n+k-1.
    """
    n, m = d1.bottom_count, d1.top_count
    p1, p2 = d1.partner, d2.partner
    shift = n - m
    last = n + m - 1
    out = [-1] * (n + d2.top_count)
    seen = [False] * m
    # strands with a d1 bottom end; j is a d1 index until it leaves d1
    for start in range(n):
        if out[start] >= 0:
            continue
        j = p1[start]
        while j >= n:
            j = last - j
            seen[j] = True
            j = p2[j]
            if j >= m:
                j += shift
                break
            seen[j] = True
            j = p1[last - j]
        out[start] = j
        out[j] = start
    # the strands left join two d2 tops; j is a d2 index
    for start in range(n, len(out)):
        if out[start] >= 0:
            continue
        j = p2[start - shift]
        while j < m:
            seen[j] = True
            j = last - p1[last - j]
            seen[j] = True
            j = p2[j]
        j += shift
        out[start] = j
        out[j] = start
    # every interface point not on a strand lies on a closed loop
    loops = 0
    for j in range(m):
        if seen[j]:
            continue
        loops += 1
        while not seen[j]:
            seen[j] = True
            j = p2[j]
            seen[j] = True
            j = last - p1[last - j]
    return tuple(out), loops


def _tensor_diagrams(d1: TLDiagram, d2: TLDiagram) -> TLDiagram:
    """d1 on the left of d2.

    Bottoms keep d1 then d2 order; top indices count from the right, so d2
    tops come first.  Every d2 index i becomes n1 + i, and d1 tops shift
    past all n2 + m2 indices of d2.
    """
    n1, m1 = d1.bottom_count, d1.top_count
    n2, m2 = d2.bottom_count, d2.top_count
    width = n2 + m2
    left = [j if j < n1 else j + width for j in d1.partner]
    partner = left[:n1] + [n1 + j for j in d2.partner] + left[n1:]
    return _trusted_diagram(n1 + n2, m1 + m2, tuple(partner))


class TLMorphism:
    """CycNumber-linear combination of diagrams with fixed boundary counts."""

    __slots__ = ("ctx", "bottom_count", "top_count", "terms")

    def __init__(self, ctx: FieldContext, bottom_count: int, top_count: int, terms=None):
        self.ctx = ctx
        self.bottom_count = bottom_count
        self.top_count = top_count
        pruned: dict[TLDiagram, CycNumber] = {}
        for d, c in (terms or {}).items():
            if d.bottom_count != bottom_count or d.top_count != top_count:
                raise BoundaryMismatch(
                    f"diagram {d} does not fit morphism ({bottom_count}->{top_count})"
                )
            if not c.is_zero():
                pruned[d] = c
        self.terms = pruned

    @classmethod
    def zero(cls, ctx: FieldContext, n: int, m: int) -> "TLMorphism":
        return cls(ctx, n, m, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_like(self, other: "TLMorphism"):
        if (
            other.ctx is not self.ctx
            or other.bottom_count != self.bottom_count
            or other.top_count != self.top_count
        ):
            raise BoundaryMismatch("morphism shapes or contexts differ")

    def __add__(self, other):
        if not isinstance(other, TLMorphism):
            return NotImplemented
        self._require_like(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms[d] + c if d in terms else c
        return TLMorphism(self.ctx, self.bottom_count, self.top_count, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TLMorphism(
            self.ctx,
            self.bottom_count,
            self.top_count,
            {d: -c for d, c in self.terms.items()},
        )

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            scalar = self.ctx.rational(scalar)
        if not isinstance(scalar, CycNumber):
            return NotImplemented
        return TLMorphism(
            self.ctx,
            self.bottom_count,
            self.top_count,
            {d: c * scalar for d, c in self.terms.items()},
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TLMorphism):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and self.bottom_count == other.bottom_count
            and self.top_count == other.top_count
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (
                self.ctx.p,
                self.bottom_count,
                self.top_count,
                frozenset(self.terms.items()),
            )
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms, key=lambda d: d.pairs):
            parts.append(f"({self.terms[d]})*{d}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# constructors


def from_diagram(ctx: FieldContext, d: TLDiagram) -> TLMorphism:
    return TLMorphism(ctx, d.bottom_count, d.top_count, {d: ctx.one()})


def identity(ctx: FieldContext, n: int) -> TLMorphism:
    d = TLDiagram(n, n, [(i, n + (n - 1 - i)) for i in range(n)])
    return from_diagram(ctx, d)


def cup(ctx: FieldContext) -> TLMorphism:
    return from_diagram(ctx, TLDiagram(0, 2, [(0, 1)]))


def cap(ctx: FieldContext) -> TLMorphism:
    return from_diagram(ctx, TLDiagram(2, 0, [(0, 1)]))


def loop_value(ctx: FieldContext) -> CycNumber:
    q = ctx.q()
    return -(q + inv(q))


def hook(ctx: FieldContext, n: int, i: int) -> TLMorphism:
    """E_i on n strands (1 <= i <= n-1): cup.cap acting on strands i, i+1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"hook index {i} out of range for {n} strands")
    f2 = compose(cap(ctx), cup(ctx))
    out = tensor(identity(ctx, i - 1), f2) if i > 1 else f2
    if i < n - 1:
        out = tensor(out, identity(ctx, n - i - 1))
    return out


def all_diagrams(n: int, m: int) -> list[TLDiagram]:
    """Every planar matching in Hom([n], [m]); Catalan((n+m)/2) of them."""
    total = n + m
    if total % 2:
        return []

    def matchings(points: Sequence[int]):
        if not points:
            yield []
            return
        first = points[0]
        for j in range(1, len(points), 2):
            inner = points[1:j]
            outer = points[j + 1:]
            for mi in matchings(inner):
                for mo in matchings(outer):
                    yield [(first, points[j])] + mi + mo

    return [TLDiagram(n, m, pr) for pr in matchings(list(range(total)))]


# ---------------------------------------------------------------------------
# operations


def compose(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Diagrammatic order: f acts first, g second; f: n->m, g: m->k.

    Below _PACKED_MIN_PAIRS term pairs, or when either operand has one
    term, each c1*c2 is a field multiply; otherwise both coefficient lists
    are packed once, a pair adds one integer product to its group, and a
    group is unpacked once.  Result terms keep the order in which their
    diagrams first appear over the pairs (f's terms outer, g's inner); zero
    coefficients are dropped.
    """
    if f.ctx is not g.ctx:
        raise BoundaryMismatch("mixed field contexts")
    if f.top_count != g.bottom_count:
        raise BoundaryMismatch(
            f"cannot compose ({f.bottom_count}->{f.top_count}) "
            f"with ({g.bottom_count}->{g.top_count})"
        )
    ctx = f.ctx
    # sum c1*c2 per (result partner array, loop count); d**loops once each
    groups: dict[tuple, CycNumber] = {}
    nf, ng = len(f.terms), len(g.terms)
    if min(nf, ng) <= 1 or nf * ng < _PACKED_MIN_PAIRS:
        for d1, c1 in f.terms.items():
            for d2, c2 in g.terms.items():
                key = _compose_partners(d1, d2)
                coeff = c1 * c2
                groups[key] = groups[key] + coeff if key in groups else coeff
    else:
        fs, gs, layout = pack(ctx, list(f.terms.values()), list(g.terms.values()))
        packed: dict[tuple, int] = {}
        for d1, a in zip(f.terms, fs):
            for d2, b in zip(g.terms, gs):
                key = _compose_partners(d1, d2)
                packed[key] = packed.get(key, 0) + a * b
        for key, ab in packed.items():
            groups[key] = unpack_sum(ctx, ab, layout)
    d_pow: list[CycNumber] = []  # d**1, d**2, ... as far as loops reach
    summed: dict[tuple, CycNumber] = {}
    for (partner, loops), coeff in groups.items():
        if loops:
            if not d_pow:
                d_pow.append(loop_value(ctx))
            while len(d_pow) < loops:
                d_pow.append(d_pow[-1] * d_pow[0])
            coeff = coeff * d_pow[loops - 1]
        if partner in summed:
            coeff = summed[partner] + coeff
        summed[partner] = coeff
    n, k = f.bottom_count, g.top_count
    terms = {_trusted_diagram(n, k, pr): c for pr, c in summed.items()}
    return TLMorphism(ctx, n, k, terms)


def tensor(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    if f.ctx is not g.ctx:
        raise BoundaryMismatch("mixed field contexts")
    ctx = f.ctx
    n = f.bottom_count + g.bottom_count
    m = f.top_count + g.top_count
    terms: dict[TLDiagram, CycNumber] = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            nd = _tensor_diagrams(d1, d2)
            coeff = c1 * c2
            terms[nd] = terms[nd] + coeff if nd in terms else coeff
    return TLMorphism(ctx, n, m, terms)


@cache
def jones_wenzl(ctx: FieldContext, n: int) -> TLMorphism:
    """The n-strand Jones-Wenzl idempotent, for 1 <= n <= p-1.

    Wenzl recursion in the loop-value convention: with jw' = jw(n-1) x id,
        jw(n) = jw' + ([n-1]/[n]) * jw' . E_{n-1} . jw'
    (the coefficient sign follows the Chebyshev-in-d normalization, which is
    the one making jw(2) = id - d^{-1} cup.cap idempotent).  Memoised per
    context and n, so jw(n) reuses jw(n-1).
    """
    if n < 1:
        raise ValueError("strand count must be >= 1")
    if n > ctx.p - 1:
        raise QuantumOrderError(
            f"[{min(n, ctx.p)}] = 0 at p={ctx.p}; jones_wenzl needs n <= p-1"
        )
    if n == 1:
        return identity(ctx, 1)
    prev = tensor(jones_wenzl(ctx, n - 1), identity(ctx, 1))
    coeff = qint(ctx, n - 1) / qint(ctx, n)
    corr = compose(compose(prev, hook(ctx, n, n - 1)), prev)
    return prev + coeff * corr


def _rainbow(ctx: FieldContext, n: int, as_top: bool) -> TLMorphism:
    pairs = [(i, 2 * n - 1 - i) for i in range(n)]
    d = TLDiagram(0, 2 * n, pairs) if as_top else TLDiagram(2 * n, 0, pairs)
    return from_diagram(ctx, d)


def markov_close(f: TLMorphism) -> CycNumber:
    """Close all strands of an endomorphism with nested arcs; the scalar."""
    if f.bottom_count != f.top_count:
        raise BoundaryMismatch("markov_close needs an endomorphism")
    ctx = f.ctx
    n = f.bottom_count
    if n == 0:
        return f.terms.get(TLDiagram(0, 0, []), ctx.zero())
    closed = compose(
        compose(_rainbow(ctx, n, as_top=True), tensor(f, identity(ctx, n))),
        _rainbow(ctx, n, as_top=False),
    )
    return closed.terms.get(TLDiagram(0, 0, []), ctx.zero())


def braiding_candidates(ctx: FieldContext) -> list[TLMorphism]:
    """The four hexagon solutions in span{f, id}, +zeta^{1/2} variant first."""
    f = compose(cap(ctx), cup(ctx))
    ident = identity(ctx, 2)
    zh = ctx.qhalf()
    c_plus = zh * f + inv(zh) * ident
    c_minus = inv(zh) * f + zh * ident
    return [c_plus, c_minus, -c_plus, -c_minus]


def check_hexagon(c: TLMorphism) -> bool:
    """Exact TL_3 identity (c x 1).(1 x c).(coev x 1) = (1 x coev)."""
    if c.bottom_count != 2 or c.top_count != 2:
        raise BoundaryMismatch("hexagon check needs an endomorphism of [2]")
    ctx = c.ctx
    one1 = identity(ctx, 1)
    start = tensor(cup(ctx), one1)  # [1] -> [3]
    lhs = compose(compose(start, tensor(one1, c)), tensor(c, one1))
    rhs = tensor(one1, cup(ctx))
    return lhs == rhs


def check_yang_baxter(c: TLMorphism) -> bool:
    if c.bottom_count != 2 or c.top_count != 2:
        raise BoundaryMismatch("Yang-Baxter check needs an endomorphism of [2]")
    ctx = c.ctx
    one1 = identity(ctx, 1)
    c1 = tensor(c, one1)
    c2 = tensor(one1, c)
    lhs = compose(compose(c1, c2), c1)
    rhs = compose(compose(c2, c1), c2)
    return lhs == rhs
