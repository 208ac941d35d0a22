"""Fusion rings on both sides of the correspondence.

The module-oracle ring (labels (s, parity), constants the classes of
tensor products, read off the peeled strings of their characters) and the
generator-recursion ring (labels (s, sign), constants from the Chebyshev
rules alone) are built by disjoint code paths on purpose: the ring
isomorphism between them is a checked statement, not a construction.
Each side's 2p labels are listed once (uq_labels, wp_labels), and the
projective-cover table is typed once, on the module side.

Also here: Frobenius-Perron data, the truncated Virasoro / singlet character
rings and the induction maps between them.  Every label of both finite rings
is self-dual, and every Frobenius-Perron dimension is an integer, as for any
finite-dimensional Hopf algebra: the integer character is read off the
Perron vector of one pure-Python power iteration, _perron, and certified by
exact arithmetic.  A ring without such a character is refused, never
answered in floating point.  This layer reads the weight characters of
qrep, never its module operators; the cross-check of the truncated
Virasoro ring against explicit modules is the registered check grring.iso_K.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import product as iproduct

from .qrep import (
    decompose_character,
    peel_strings,
    restrict_classes,
    string_weights,
)


class NegativityError(ValueError):
    """A structure constant came out negative or non-integral."""


class TruncationOverflow(ValueError):
    """An operation needs a label beyond the configured truncation window."""


class ConvergenceError(RuntimeError):
    """Power iteration failed to settle within the iteration cap."""


# truncation window of the infinite label families unless one is given
DEFAULT_RMAX = 8

# power-iteration steps before _perron gives up
_PERRON_MAX_ITER = 10000


# -- based rings with nonnegative integer constants ---------------------------


def linear(f, combo) -> Counter:
    """The linear extension of f to a Z-combination: sum of mult * f(lab).

    Every entry of combo is visited in order, zero and negative
    multiplicities included, so f refuses a label whatever its multiplicity.
    f(lab) is any mapping label -> int and is never modified.
    """
    out = Counter()
    get = out.get  # a miss costs no __missing__ call
    for lab, mult in combo.items():
        for k, n in f(lab).items():
            out[k] = get(k, 0) + mult * n
    return out


def associative(product, a, b, c) -> bool:
    """Whether (ab)c == a(bc), as positive parts, for product(x, y) -> combo."""
    return (+linear(lambda k: product(k, c), product(a, b))
            == +linear(partial(product, a), product(b, c)))


def push(assign, combo) -> Counter:
    """combo relabelled through assign: the sum of mult * assign[lab]."""
    return linear(lambda lab: {assign[lab]: 1}, combo)


class FusionRing:
    """Finite based ring on self-dual labels: labels, unit, sparse constants.

    constants maps (a, b) to {k: N_{ab}^k}.  The constructor enforces the
    structural axioms that hold for every ring in this package (complete
    product table, nonnegative integer constants, unit row and column).
    Associativity and the strict duality pairing are separate checks: the
    latter genuinely fails on Steinberg-boundary pairs of the module rings,
    so it reports violations instead of raising.
    """

    def __init__(self, labels, unit, constants):
        self.labels = tuple(labels)
        self._universe = universe = frozenset(self.labels)
        if len(universe) != len(self.labels):
            raise ValueError("duplicate labels")
        if unit not in universe:
            raise ValueError("unit is not a label")
        self.unit = unit
        self.constants = {}
        for a in self.labels:
            for b in self.labels:
                row = constants.get((a, b))
                if row is None:
                    raise ValueError(f"missing product {a!r} * {b!r}")
                clean = Counter()
                for k, n in row.items():
                    if k not in universe:
                        raise ValueError(f"unknown label {k!r} in a product")
                    if n != int(n) or n < 0:
                        raise NegativityError(
                            f"constant N[{a!r},{b!r}]^{k!r} = {n}"
                        )
                    if n:
                        clean[k] = int(n)
                self.constants[(a, b)] = clean
        for a in self.labels:
            if self.constants[(self.unit, a)] != Counter({a: 1}) or \
                    self.constants[(a, self.unit)] != Counter({a: 1}):
                raise ValueError(f"unit does not act trivially on {a!r}")

    def __contains__(self, lab) -> bool:
        return lab in self._universe

    def product(self, a, b) -> Counter:
        return Counter(self.constants[(a, b)])

    def fits(self, a, b) -> bool:
        """Every product of a finite ring is defined (cf. TruncatedRing)."""
        return True

    def check_associativity(self) -> list:
        """Triples (a, b, c) with (ab)c != a(bc); empty means associative."""
        constants = self.constants

        def lookup(x, y):
            return constants[(x, y)]

        return [(a, b, c) for a, b, c in iproduct(self.labels, repeat=3)
                if not associative(lookup, a, b, c)]

    def check_duality(self) -> list:
        """Pairs (a, b) violating N_{ab}^{unit} = delta_{a, b}, the delta
        rule for self-dual labels.

        The delta rule is an axiom for semisimple fusion rings only; the
        composition-factor rings here break it exactly where projective
        covers are larger than their simples.
        """
        return [(a, b) for a in self.labels for b in self.labels
                if self.constants[(a, b)].get(self.unit, 0) != int(a == b)]


def ring_map_witness(source, target, assign):
    """Why the label assignment source -> target is not a ring isomorphism,
    or None when it is one: a basis bijection, unit to unit, and
    multiplicative on every pair of source labels.

    The witness is ((a, b), pushed, direct) for the first pair where the
    two routes disagree; bijection and unit failures put a description in
    the first slot.  An assignment that misses a source label or reaches a
    non-target label is not a bijection.
    """
    if set(assign) != set(source.labels) or \
            set(assign.values()) != set(target.labels):
        return ("not a bijection onto the target basis", None, None)
    if assign[source.unit] != target.unit:
        return ("unit is not preserved", None, None)
    for (a, b), row in source.constants.items():
        pushed = push(assign, row)
        direct = target.constants[(assign[a], assign[b])]
        if pushed != direct:
            return ((a, b), pushed, Counter(direct))
    return None


# -- the module-oracle ring ---------------------------------------------------

def uq_labels(p: int) -> list:
    """The 2p simple labels (s, eps) in ring order; eps = 1 is chi (x) V_s."""
    return [(s, eps) for s in range(1, p + 1) for eps in (0, 1)]


def wp_labels(p: int) -> list:
    """The 2p labels (s, sign) of the recursion ring, in uq_labels' order."""
    return [(s, eps) for s in range(1, p + 1) for eps in (1, -1)]


def _convolve(wa: Counter, wb: Counter) -> Counter:
    conv = Counter()
    for w1, c1 in wa.items():
        for w2, c2 in wb.items():
            conv[w1 + w2] += c1 * c2
    return conv


@cache
def uq_ring(p: int) -> FusionRing:
    """Grothendieck ring of the 2p simple weight modules at level p.

    Constants are the classes of pairwise tensor products, read off the
    peeled strings of their characters; every label is self-dual.
    """
    labels = uq_labels(p)
    # chi shifts every weight of V_s by p: the string (eps, s)
    wts = {(s, eps): Counter(string_weights(p, eps, s)) for s, eps in labels}
    constants = {}
    for a in labels:
        for b in labels:
            # the character product is commutative by construction:
            # _convolve(wb, wa) is the same multiset as _convolve(wa, wb),
            # and the peel is deterministic in it, so
            # (b, a) repeats (a, b) entry for entry and in the same order.
            # Nothing here assumes a property of the category.
            done = constants.get((b, a))
            if done is None:
                done = restrict_classes(p, _convolve(wts[a], wts[b]))
            constants[(a, b)] = dict(done)
    return FusionRing(labels, (1, 0), constants)


# -- the generator-recursion ring ---------------------------------------------


def _apply(cols, v) -> list:
    """The matrix with sparse columns cols (dicts row -> entry) times v."""
    out = [0] * len(v)
    for vj, col in zip(v, cols):
        if vj:
            for i, c in col.items():
                out[i] += c * vj
    return out


@cache
def wp_ring(p: int) -> FusionRing:
    """Ring on labels (s, sign) generated by (2, +) and (1, -).

    Built with no module input at all: the two generator columns seed
    multiplication matrices, every other basis class is the Chebyshev
    polynomial U_{s-1} of the degree-two generator (twisted by the sign
    swap), and constants are read off the resulting operators.  Negative
    or fractional entries would abort the build.
    """
    labels = wp_labels(p)
    idx = {lab: i for i, lab in enumerate(labels)}
    n = 2 * p

    # integer columns of the generators: (2, +) takes (s, eps) to
    # (s - 1, eps) + (s + 1, eps), and the Steinberg label (p, eps) to
    # 2 (p - 1, eps) + 2 (1, -eps); (1, -) flips the sign
    gen2 = []
    for s, eps in labels:
        nbrs = [(1, -eps), (p - 1, eps)] if s == p else \
            [(s + 1, eps), (s - 1, eps)]
        gen2.append({idx[lab]: 2 if s == p else 1
                     for lab in nbrs if lab in idx})
    gen1 = [{idx[(s, -eps)]: 1} for s, eps in labels]
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    if any(_apply(gen1, _apply(gen2, e)) != _apply(gen2, _apply(gen1, e))
           for e in basis):
        raise NegativityError("generator operators fail to commute")

    # column b of the operator of (s, +) is U_{s-1}(X) e_b, by
    # U_s = X U_{s-1} - U_{s-2} from U_{-1} = 0, U_0 = 1; (s, -) flips it
    cols = {}
    for b, e in zip(labels, basis):
        prev, cur = [0] * n, e
        for s in range(1, p + 1):
            if s > 1:
                prev, cur = cur, [x - y for x, y in
                                  zip(_apply(gen2, cur), prev)]
            cols[((s, 1), b)] = cur
            cols[((s, -1), b)] = _apply(gen1, cur)

    constants = {}
    for a in labels:
        for b in labels:
            constants[(a, b)] = {labels[k]: c
                                 for k, c in enumerate(cols[(a, b)]) if c}
    return FusionRing(labels, (1, 1), constants)


def iso_T_labels(p: int) -> dict:
    """(s, e) -> (s, 1 - 2e): place i of uq_labels to place i of wp_labels."""
    return {(s, e): (s, 1 - 2 * e) for (s, e) in uq_labels(p)}


# -- Frobenius-Perron dimensions ----------------------------------------------


def _perron(ring):
    """The unit Perron vector of the total left multiplication (by the sum
    of all labels), by power iteration from the all-ones vector: stops below
    max-norm residual 1e-10 and raises ConvergenceError after
    _PERRON_MAX_ITER steps.  No image is zero: the unit acts trivially."""
    pos = {lab: i for i, lab in enumerate(ring.labels)}
    cols = [Counter() for _ in ring.labels]
    for a in ring.labels:
        for b in ring.labels:
            for k, c in ring.constants[(a, b)].items():
                cols[pos[b]][pos[k]] += c
    image = _apply(cols, [1.0] * len(cols))
    for _ in range(_PERRON_MAX_ITER):
        norm = math.hypot(*image)
        w = [x / norm for x in image]
        image = _apply(cols, w)
        lam = sum(x * y for x, y in zip(w, image))
        if max(abs(y - lam * x) for x, y in zip(w, image)) < 1e-10:
            return w
    raise ConvergenceError(
        f"power iteration did not reach 1e-10 within {_PERRON_MAX_ITER} steps"
    )


@cache
def _fp_character(ring):
    """Positive character label -> int, or None when not integral.

    Candidate values are read off the ring constants against the Perron
    vector of the total left multiplication (_perron); the certificate is
    an exact integer re-check of every product relation, so a returned
    character is proven, not numerical."""
    try:
        vec = _perron(ring)
    except ConvergenceError:
        return None
    anchor = max(range(len(vec)), key=vec.__getitem__)
    top = ring.labels[anchor]
    candidate = {}
    for a in ring.labels:
        lam = sum(ring.constants[(a, b)].get(top, 0) * x
                  for b, x in zip(ring.labels, vec)) / vec[anchor]
        rounded = round(lam)
        if abs(lam - rounded) > 1e-6 or rounded < 1:
            return None
        candidate[a] = rounded
    # at (unit, unit) this forces candidate[unit] = candidate[unit]^2 = 1
    for (a, b), row in ring.constants.items():
        if sum(n * candidate[k] for k, n in row.items()) != \
                candidate[a] * candidate[b]:
            return None
    return candidate


def fpdim_object(ring, x) -> int:
    """Frobenius-Perron dimension of a label or Z+-combination of labels,
    read off the ring's certified integer character.

    A ring without one is refused with ValueError: the rings of this
    package come from a finite-dimensional Hopf algebra, whose
    Frobenius-Perron dimensions are integers.
    """
    combo = Counter(x) if isinstance(x, (dict, Counter)) else Counter({x: 1})
    for lab in combo:
        if lab not in ring:
            raise ValueError(f"{lab!r} is not a label of this ring")
    char = _fp_character(ring)
    if char is None:
        raise ValueError(
            "this ring has no integral Frobenius-Perron character")
    return sum(char[lab] * mult for lab, mult in combo.items())


def fpdim_category(ring, projective_classes) -> int:
    """Sum of FPdim(P_i) * FPdim(x_i) over all simple labels i.

    projective_classes maps each label to the class of its projective
    cover as a Z+-combination of labels.
    """
    return sum(fpdim_object(ring, projective_classes[lab])
               * fpdim_object(ring, lab) for lab in ring.labels)


def uq_projective_classes(p: int) -> dict:
    """Classes of projective covers: [P_s] = 2[V_s] + 2[chi V_{p-s}] for
    s < p, Steinberg its own cover; chi twists act on the whole table."""
    out = {}
    for s, eps in uq_labels(p):
        if s == p:
            out[(s, eps)] = Counter({(p, eps): 1})
        else:
            out[(s, eps)] = Counter({(s, eps): 2, (p - s, 1 - eps): 2})
    return out


def wp_projective_classes(p: int) -> dict:
    """uq_projective_classes, labels and classes carried by iso_T_labels."""
    assign = iso_T_labels(p)
    return {assign[a]: push(assign, c)
            for a, c in uq_projective_classes(p).items()}


# -- truncated character rings ------------------------------------------------


def conformal_weight(p: int, r: int, s: int) -> Fraction:
    return Fraction((r * p - s) ** 2 - (p - 1) ** 2, 4 * p)


class TruncatedRing:
    """Products on a truncated label window, in closed form.

    kind "vir": labels (r, s), r >= 1, each the symmetric block of strings
    (t, s) at t = -(r-1), ..., r-1.  kind "singlet": labels (r, s), r any
    integer, each the single string (r-1, s).  product multiplies labels by
    the Clebsch-Gordan series; character_product convolves the weight
    characters and peels the result, the route the closed form is checked
    against (checks: fusion.truncated_closed_form).  Any label outside the
    window, as input or output, raises TruncationOverflow.

    The series is the one window rule: fits bounds its first indices, and
    a pair that does not fit is refused from the series' top block, which
    holds the first out-of-window label in peel order.
    """

    def __init__(self, p: int, r_max: int, kind: str):
        if kind not in ("vir", "singlet"):
            raise ValueError(f"unknown ring kind {kind!r}")
        self.p = p
        self.r_max = r_max
        self.kind = kind
        self.unit = (1, 1)
        self._r_min = 1 if kind == "vir" else -r_max

    @property
    def labels(self):
        return tuple((r, s) for r in range(self._r_min, self.r_max + 1)
                     for s in range(1, self.p + 1))

    def __contains__(self, lab) -> bool:
        r, s = lab
        return self._r_min <= r <= self.r_max and 1 <= s <= self.p

    def _check_label(self, lab):
        r, s = lab
        if not 1 <= s <= self.p:
            raise ValueError(f"inner index {s} outside 1..{self.p}")
        if not self._r_min <= r <= self.r_max:
            raise TruncationOverflow(
                f"label {lab} outside the r_max={self.r_max} window"
            )

    def fits(self, a, b) -> bool:
        """Whether a * b stays inside the window, from the labels alone.

        The series' first indices span top = r+r'-1, widened by one on
        each side when some k of the inner series passes p (s+s' > p+1,
        spill); both ends occur.  The Virasoro kind stays at r >= 1.
        """
        (r, s), (r2, s2) = a, b
        top = r + r2 - 1
        spill = s + s2 > self.p + 1
        return top + spill <= self.r_max and (
            self.kind == "vir" or top - spill >= -self.r_max)

    def product(self, a, b) -> dict:
        """a * b from the Clebsch-Gordan series, keyed in peel order.

        Singlet: (r,s)(r',s') gives, at t = r+r'-1 and for each k of the
        series, (t, k) when k <= p, else (t+1, k-p), (t, 2p-k), (t-1, k-p).
        Virasoro: the same for each t = |r-r'|+1, ..., r+r'-1 of the sl(2)
        series in r, with no (0, k-p) block at t = 1.  The keys come in the
        character route's order, the descending top weight (r-1)p + s-1
        of each string: (r, s) descending, and for the Virasoro kind
        grouped by s, each group ranked by its highest block.  A pair that
        does not fit builds the top block t = r+r'-1 alone: its first key
        is the first label past the window, and the check on each output
        label refuses it.
        """
        self._check_label(a)
        self._check_label(b)
        (r, s), (r2, s2) = a, b
        p = self.p
        vir = self.kind == "vir"
        if vir and self.fits(a, b):
            ts = range(abs(r - r2) + 1, r + r2, 2)
        else:
            ts = (r + r2 - 1,)
        ks = range(abs(s - s2) + 1, s + s2, 2)
        out = {}
        get = out.get
        for t in ts:
            for k in ks:
                if k <= p:
                    out[(t, k)] = get((t, k), 0) + 1
                else:
                    for lab in ((t + 1, k - p), (t, 2 * p - k)):
                        out[lab] = get(lab, 0) + 1
                    if t > 1 or not vir:
                        out[(t - 1, k - p)] = get((t - 1, k - p), 0) + 1
        if vir:
            top = {}
            for t, k in out:
                top[k] = max(top.get(k, t), t)
            order = sorted(out, key=lambda lab: (top[lab[1]], lab[1], lab[0]),
                           reverse=True)
        else:
            order = sorted(out, reverse=True)
        for lab in order:
            self._check_label(lab)
        return {lab: out[lab] for lab in order}

    def _weights(self, lab) -> Counter:
        r, s = lab
        ts = range(-(r - 1), r, 2) if self.kind == "vir" else (r - 1,)
        return Counter(w for t in ts for w in string_weights(self.p, t, s))

    def character_product(self, a, b) -> Counter:
        """a * b by convolving the two weight characters and peeling."""
        self._check_label(a)
        self._check_label(b)
        if not self.fits(a, b):
            self.product(a, b)  # refuses before any convolution
        conv = _convolve(self._weights(a), self._weights(b))
        out = Counter()
        if self.kind == "vir":
            for (r, s, chi), mult in decompose_character(self.p, conv).items():
                if chi:
                    raise NegativityError(
                        f"product {a} * {b} left the symmetric-block span"
                    )
                out[(r + 1, s)] += mult
        else:
            for (t, s), mult in peel_strings(self.p, conv).items():
                out[(t + 1, s)] += mult
        for lab in out:
            self._check_label(lab)
        return out


def vir_ring(p: int, r_max: int = DEFAULT_RMAX) -> TruncatedRing:
    return TruncatedRing(p, r_max, "vir")


def singlet_ring(p: int, r_max: int = DEFAULT_RMAX) -> TruncatedRing:
    return TruncatedRing(p, r_max, "singlet")


# -- induction maps -----------------------------------------------------------


def _eps(r: int) -> int:
    # alternating sign, +1 on odd r
    return 1 if r % 2 else -1


def induction_F(lab) -> Counter:
    """Image of a Virasoro label in the (s, sign) ring: r copies of
    X_s with the alternating sign of r."""
    r, s = lab
    return Counter({(s, _eps(r)): r})


def induction_I(lab, r_max: int = DEFAULT_RMAX) -> Counter:
    """Image of a Virasoro label in the singlet window: one term for each
    j in r, r-2, ..., -r+2."""
    r, s = lab
    out = Counter()
    for j in range(r, -r, -2):
        if abs(j) > r_max:
            raise TruncationOverflow(
                f"induction of {lab} needs label ({j}, {s}) past r_max={r_max}"
            )
        out[(j, s)] += 1
    return out


def induction_Iprime(lab) -> Counter:
    """Image of a singlet label in the (s, sign) ring."""
    r, s = lab
    return Counter({(s, _eps(r)): 1})
