"""Temperley-Lieb diagram category TL(d) at d = -(zeta + zeta^{-1}).

Diagrams are non-crossing perfect matchings on one circular boundary word:
bottom points 0..n-1 left to right, then top points n..n+m-1 right to left.
With that convention planarity is the balanced-bracket condition on the
linear word.  Only the public constructor and the derived pairs read that
word: a diagram is stored as its two link states, the cellular
factorisation of TL diagrams (Graham-Lehrer): per side a tuple over its
positions, left to right, holding the mate's position on that side, or -1
for a through strand; the k-th -1 of one side joins the k-th -1 of the
other.  Equality and hashing read the link states.

Composition is pure combinatorics, independent of p.  d1.d2 depends only on
bottom(d1), top(d2) and the middle of top(d1) against bottom(d2): one walk
over the interface points that counts the closed loops and tells which
through strands it joins in pairs.  Walking the middle and joining through
strands within a state are functools.cache memos keyed by link-state
tuples, so each runs once per distinct argument, not once per term pair.
Composing or tensoring planar matchings always gives a planar matching, so
those results, and the hooks, are built from their link states by a
module-private constructor that skips the checks of the public one.  So
are flips: reflecting a diagram top to bottom swaps its two link states,
and flip, the anti-involution of the category that this induces on
morphisms, reverses composition and fixes every hook and jw(n).

Morphisms are finite CycNumber-linear combinations of diagrams; composition
stacks diagrams and converts every closed loop into a factor d.  Since
d1.d2 depends only on d1's bottom state and on the column that d2 makes
against d1's top state, compose sums the second operand's coefficients per
column first and then costs one coefficient product per (f term, distinct
column of its top state), not one per term pair.  The products are summed
per (result diagram, loop count) key, and each key's sum is reduced and
multiplied by d**loops once.  From _PACKED_MIN_PAIRS term pairs on, those
sums are sums of packed integers (cyclo.pack, cyclo.unpack_sum), so a
product is one integer product instead of a field multiply.  A one-term
operand's coefficient is a scalar: the other operand's coefficients are
only added, and each key's sum is multiplied once by scalar * d**loops, or
not at all where that factor is one.

The Markov closure joins top position i to bottom position i of an
endomorphism; a functools.cache walk over a diagram's two link states
counts the loops of its closure, so markov_close sums the coefficients per
loop count and multiplies each sum once by d**loops, composing nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .cyclo import CycNumber, FieldContext, inv, pack, qint, unpack_sum

# compose sums packed integers (cyclo.pack) from this many term pairs on,
# and field elements below it, where packing both operands and unpacking
# each key's sum costs more than it saves.  The gate counts term pairs,
# although a product costs one multiply per (f term, distinct column of
# its top state).  Measured when each term pair still cost one multiply,
# on Jones-Wenzl terms (the first a against the last b of jw(4) at p=5, of
# jw(5) at p=7 and 10; packed faster in k of 15 interleaved rounds on a
# 2-core Xeon): at p=5, 4x3 pairs 0/15 and 4x4 14/15; at p=7 and 10 the
# crossover lies between 16 and 25 pairs, 4x4 3/15 and 2/15, 4x5 8/15 and
# 11/15, 5x5 9/15 and 10/15, 6x6 13/15 and 15/15; no single constant above
# 16 wins at all three p.  A one-term operand is never packed at any size:
# its coefficient is a scalar applied once per key, and the other
# operand's coefficients are only added, so there is no product to pack.
_PACKED_MIN_PAIRS = 16


class BoundaryMismatch(ValueError):
    """Boundary counts do not line up for the attempted operation."""


class QuantumOrderError(ValueError):
    """A required quantum integer vanishes at this root of unity."""


class TLDiagram:
    """A planar perfect matching between n bottom and m top points.

    links is the (bottom, top) pair of link states and the only stored
    form; pairs, the lexicographically sorted tuple of sorted endpoint
    pairs on the circular word, is derived from it on each read.
    """

    __slots__ = ("bottom_count", "top_count", "links", "_hash")

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
        _fill(self, _link_states(n, m, partner))

    def __setattr__(self, *a):
        raise AttributeError("TLDiagram is immutable")

    @property
    def pairs(self) -> tuple:
        return _pairs(*self.links)

    def __eq__(self, other):
        return isinstance(other, TLDiagram) and self.links == other.links

    def __hash__(self):
        return self._hash

    def __str__(self):
        body = "".join(f"({a},{b})" for a, b in self.pairs)
        return f"TL({self.bottom_count}->{self.top_count}){{{body}}}"

    __repr__ = __str__


def _fill(d: TLDiagram, links: tuple) -> None:
    object.__setattr__(d, "bottom_count", len(links[0]))
    object.__setattr__(d, "top_count", len(links[1]))
    object.__setattr__(d, "links", links)
    object.__setattr__(d, "_hash", hash(links))


def _trusted_diagram(links: tuple) -> TLDiagram:
    """The diagram with these (bottom, top) link states; only for link
    states that are planar by construction: results of composition and
    tensor, the hooks and flipped diagrams."""
    d = object.__new__(TLDiagram)
    _fill(d, links)
    return d


def _link_states(n: int, m: int, partner: Sequence[int]) -> tuple:
    """(bottom, top) link states of the diagram with this partner array."""
    last = n + m - 1
    bottom = tuple([j if j < n else -1 for j in partner[:n]])
    top = tuple([last - j if j >= n else -1 for j in reversed(partner[n:])])
    return bottom, top


def _pairs(bottom: tuple, top: tuple) -> tuple:
    """Sorted endpoint pairs of the diagram with these link states; they
    come out sorted because each is listed at its smaller endpoint."""
    last = len(bottom) + len(top) - 1
    partner = list(bottom) + [last - x if x >= 0 else -1 for x in reversed(top)]
    # through strands nest on the linear word: the k-th end joins the k-th
    # from the last
    ends = [i for i, x in enumerate(partner) if x < 0]
    for i, j in zip(ends, reversed(ends)):
        partner[i] = j
    return tuple([(a, b) for a, b in enumerate(partner) if a < b])


@cache
def _middle(top: tuple, bottom: tuple) -> tuple:
    """Glue top state of d1 to bottom state of d2 at the m interface points.

    Returns (loops, down, up): down[a] is the d1 through strand that d1
    through strand a is joined to, or -1 when a runs on into a through
    strand of d2; up likewise for the through strands of d2.  The strands
    that run through keep their order, so they need no record.
    """
    m = len(top)
    ends1 = [j for j in range(m) if top[j] < 0]
    ends2 = [j for j in range(m) if bottom[j] < 0]
    down, up = [-1] * len(ends1), [-1] * len(ends2)
    seen = [False] * m
    # arcs alternate: from a d1 end the next arc is d2's, from a d2 end d1's
    for ends, first, second, joins in ((ends1, bottom, top, down),
                                       (ends2, top, bottom, up)):
        for a, j in enumerate(ends):
            if seen[j]:
                continue
            while True:
                seen[j] = True
                j = first[j]
                if j < 0:
                    break
                seen[j] = True
                if second[j] < 0:
                    b = ends.index(j)
                    joins[a], joins[b] = b, a
                    break
                j = second[j]
    loops = 0
    for j in range(m):
        if not seen[j]:
            loops += 1
            while not seen[j]:
                seen[j] = True
                j = top[j]
                seen[j] = True
                j = bottom[j]
    return loops, tuple(down), tuple(up)


@cache
def _cap(state: tuple, joins: tuple) -> tuple:
    """state with through strand a joined to strand joins[a] where >= 0."""
    ends = [i for i, x in enumerate(state) if x < 0]
    out = list(state)
    for a, b in enumerate(joins):
        if b >= 0:
            out[ends[a]] = ends[b]
    return tuple(out)


def _column(top: tuple, bottom: tuple, g_top: tuple) -> tuple:
    """What d1.d2 keeps of d2 given d1's top state: (down joins, loops,
    result top state)."""
    loops, down, up = _middle(top, bottom)
    return down, loops, _cap(g_top, up)


def _tensor_diagrams(d1: TLDiagram, d2: TLDiagram) -> TLDiagram:
    """d1 on the left of d2: on each side d2's link state follows d1's,
    its mates shifted past d1's positions."""
    return _trusted_diagram(tuple(
        [s1 + tuple([x + len(s1) if x >= 0 else -1 for x in s2])
         for s1, s2 in zip(d1.links, d2.links)]))


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


@cache
def loop_value(ctx: FieldContext) -> CycNumber:
    """d = -(q + q^{-1}), once per context: compose multiplies by its powers."""
    q = ctx.q()
    return -(q + inv(q))


@cache
def _loop_power(ctx: FieldContext, k: int) -> CycNumber:
    """d**k, once per context and k: compose and markov_close share it."""
    return loop_value(ctx) ** k


def hook(ctx: FieldContext, n: int, i: int) -> TLMorphism:
    """E_i on n strands (1 <= i <= n-1): cup.cap acting on strands i, i+1.

    Built from its link states: positions i-1 and i are mates on both
    sides, and every other strand runs through.
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"hook index {i} out of range for {n} strands")
    state = (-1,) * (i - 1) + (i, i - 1) + (-1,) * (n - i - 1)
    return from_diagram(ctx, _trusted_diagram((state, state)))


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

    A product d1.d2 depends only on d1's bottom state and on the column
    (joins among f's through strands, loops, result top state) that d2
    makes against d1's top state.  So for each distinct top state of f, g's
    coefficients are first summed per column, and each distinct (f bottom
    state, column) resolves once to a (result diagram, loop count) key: an
    f term costs one coefficient product per distinct column of its top
    state, not one per g term.  A top state's column sums are dropped
    after its last f term.  From _PACKED_MIN_PAIRS term pairs on, both
    coefficient lists are packed once, the column sums and key sums are
    integer sums and a key's sum is unpacked once; otherwise they are field
    sums.  When either operand has one term, its coefficient is a scalar:
    the other operand's coefficients are only added, and each key's sum is
    multiplied once by scalar * d**loops, not at all where that factor is
    one.  Key ids are handed out in pair order (f's terms outer, g's
    inner), so result terms keep the order in which their diagrams first
    appear; zero coefficients are dropped.
    """
    if f.ctx is not g.ctx:
        raise BoundaryMismatch("mixed field contexts")
    if f.top_count != g.bottom_count:
        raise BoundaryMismatch(
            f"cannot compose ({f.bottom_count}->{f.top_count}) "
            f"with ({g.bottom_count}->{g.top_count})"
        )
    ctx = f.ctx
    fs, gs = list(f.terms.values()), list(g.terms.values())
    one_f, one_g = len(fs) == 1, len(fs) != 1 and len(gs) == 1
    scalar = fs[0] if one_f else gs[0] if one_g else None
    if scalar == 1:
        scalar = None  # None: no factor besides d**loops
    packed = not (one_f or one_g) and len(fs) * len(gs) >= _PACKED_MIN_PAIRS
    if packed:
        fs, gs, layout = pack(ctx, fs, gs)
    g_terms = list(zip([d.links for d in g.terms], gs))
    last = {d1.links[1]: i for i, d1 in enumerate(f.terms)}
    cols: dict[tuple, int] = {}  # _column value -> column id
    columns: list[tuple] = []  # column id -> _column value
    sums: dict[tuple, dict] = {}  # f top state -> {column id: sum of g's}
    # sum the products per (result links, loops), the sums indexed by key id
    keys: dict[tuple, int] = {}
    known: dict[tuple, dict] = {}  # f bottom state -> {column id: key id}
    acc: list = []
    for i, (d1, a) in enumerate(zip(f.terms, fs)):
        bottom, top = d1.links
        row = sums.get(top)
        if row is None:
            row = sums[top] = {}
            for (gb, gt), b in g_terms:
                col = _column(top, gb, gt)
                c = cols.get(col)
                if c is None:
                    c = cols[col] = len(columns)
                    columns.append(col)
                row[c] = row[c] + b if c in row else b
        if last[top] == i:
            del sums[top]
        seen = known.setdefault(bottom, {})
        for c, s in row.items():
            t = a if one_g else s if one_f else a * s
            k = seen.get(c)
            if k is None:
                down, loops, res_top = columns[c]
                key = (_cap(bottom, down), res_top), loops
                k = seen[c] = keys.setdefault(key, len(keys))
                if k == len(acc):
                    acc.append(t)
                    continue
            acc[k] += t
    factors = {0: scalar}  # loops -> scalar * d**loops, None for one
    summed: dict[tuple, CycNumber] = {}
    for (res, loops), coeff in zip(keys, acc):
        if packed:
            coeff = unpack_sum(ctx, coeff, layout)
        if loops not in factors:
            d_loops = _loop_power(ctx, loops)
            factors[loops] = d_loops if scalar is None else scalar * d_loops
        if factors[loops] is not None:
            coeff = coeff * factors[loops]
        summed[res] = summed[res] + coeff if res in summed else coeff
    terms = {_trusted_diagram(res): c for res, c in summed.items()}
    return TLMorphism(ctx, f.bottom_count, g.top_count, terms)


def flip_diagram(d: TLDiagram) -> TLDiagram:
    """d reflected top to bottom: its two link states swapped."""
    return _trusted_diagram(d.links[::-1])


def flip(f: TLMorphism) -> TLMorphism:
    """f reflected top to bottom, an m -> n morphism for f: n -> m, with
    the same coefficients; flip(compose(f, g)) = compose(flip(g), flip(f))."""
    return TLMorphism(f.ctx, f.top_count, f.bottom_count,
                      {flip_diagram(d): c for d, c in f.terms.items()})


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

    Single-clasp expansion (Morrison, arXiv:1503.00384; cf. Frenkel-
    Khovanov 1997): with jw' = jw(n-1) x id,
        jw(n) = jw' . X_n,  X_n = id + sum_{k=1}^{n-1} ([k]/[n]) W_k
    where W_k = E_{n-1} . E_{n-2} ... E_k in diagrammatic order, a single
    diagram.  It is the Wenzl step jw(n) = jw' + ([n-1]/[n]) jw'.E_{n-1}.jw'
    (the coefficient sign follows the Chebyshev-in-d normalization, which
    makes jw(2) = id - d^{-1} cup.cap idempotent) with the right-hand jw'
    expanded by the same step down to jw(1): each jw(m) x id^{n-m} commutes
    past E_j for j > m and is absorbed into the left jw', and the
    coefficients [m-1]/[m] telescope to [k]/[n].  So the build composes jw'
    with an n-term factor, never two large morphisms.  Memoised per context
    and n, so jw(n) reuses jw(n-1).
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
    clasp = word = identity(ctx, n)
    inv_n = inv(qint(ctx, n))
    for k in range(n - 1, 0, -1):
        word = compose(word, hook(ctx, n, k))
        clasp = clasp + word * (qint(ctx, k) * inv_n)
    return compose(prev, clasp)


@cache
def _closure_loops(bottom: tuple, top: tuple) -> int:
    """Loops of the Markov closure of the n -> n diagram with these link
    states, which joins top position i to bottom position i."""
    n = len(bottom)
    # points: bottom i is i, top i is n + i
    mate = list(bottom) + [n + x if x >= 0 else -1 for x in top]
    ends = [i for i, x in enumerate(mate) if x < 0]
    half = len(ends) // 2
    for a, b in zip(ends[:half], ends[half:]):
        mate[a], mate[b] = b, a
    seen = [False] * (2 * n)
    loops = 0
    # every loop alternates diagram arcs with closing arcs, so it meets
    # the bottom row
    for j in range(n):
        if seen[j]:
            continue
        loops += 1
        while not seen[j]:
            seen[j] = True
            j = mate[j]
            seen[j] = True
            j = j - n if j >= n else j + n
    return loops


def markov_close(f: TLMorphism) -> CycNumber:
    """Close all strands of an endomorphism with nested arcs; the scalar.

    The coefficients are summed by the closure's loop count, and each sum
    is multiplied once by d**loops.
    """
    if f.bottom_count != f.top_count:
        raise BoundaryMismatch("markov_close needs an endomorphism")
    ctx = f.ctx
    sums: dict[int, CycNumber] = {}
    for d, c in f.terms.items():
        loops = _closure_loops(*d.links)
        sums[loops] = sums[loops] + c if loops in sums else c
    total = ctx.zero()
    for loops, s in sums.items():
        total = total + (s * _loop_power(ctx, loops) if loops else s)
    return total


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


@cache
def hexagon_rows(ctx: FieldContext) -> tuple:
    """The hexagon of check_hexagon for c = a f + b id (f = cap.cup) as
    coefficient rows, built once per context with four compositions.

    The left side start.(1 x c).(c x 1) is bilinear in c, so it is
    a^2 X + ab Y + b^2 S with X = start.(1 x f).(f x 1),
    Y = start.(1 x f) + start.(f x 1) and S = start.  One row
    (X_d, Y_d, S_d, R_d) per diagram d of TL(1->3), R = 1 x cup.
    """
    one1 = identity(ctx, 1)
    f = compose(cap(ctx), cup(ctx))
    start = tensor(cup(ctx), one1)
    left = compose(start, tensor(one1, f))
    parts = (compose(left, tensor(f, one1)),
             left + compose(start, tensor(f, one1)),
             start, tensor(one1, cup(ctx)))
    zero = ctx.zero()
    return tuple(tuple(m.terms.get(d, zero) for m in parts)
                 for d in all_diagrams(1, 3))


def hexagon_holds(rows: tuple, aa: CycNumber, ab: CycNumber,
                  bb: CycNumber) -> bool:
    """Whether c = a f + b id solves the hexagon, from hexagon_rows and the
    three products aa = a^2, ab = a b, bb = b^2."""
    return all(aa * x + ab * y + bb * s == r for x, y, s, r in rows)


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
