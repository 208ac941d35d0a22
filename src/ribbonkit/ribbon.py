"""Ribbon data on top of the fusion rings.

Twist tables are exact roots of unity in the ambient cyclotomic field,
keyed by labels alone and held as exponents mod 4p; building one builds
no ring.  Monodromy (the square of the braiding) is evaluated on
composition factors through the balancing identity
theta_Z / (theta_X * theta_Y), which on exponents is e_Z - e_X - e_Y mod 4p:
integer arithmetic, with no field multiply or inverse, and the Muger scan
reads that congruence without building a spectrum.  That is all the
center and modularity arguments need; no matrices on non-semisimple
products are involved.  Phase arithmetic for the vertex-algebra side picks
the branch that writes e^(pi i Delta) as an integer power of the primitive
4p-th root.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .cyclo import field
from .fusion import DEFAULT_RMAX, conformal_weight, singlet_ring, uq_labels
from .qrep import Matrix, twist_inverse, uq_module


class NonScalarTwist(RuntimeError):
    """The twist operator on a supposed simple is not a scalar matrix."""


class NonRepresentablePhase(ValueError):
    """The requested phase does not lie in Q(zeta_4p)."""


class TwistTable:
    """Assignment label -> twist, a 4p-th root of unity; the labels are the
    keys of theta.

    exponent maps each label to k in 0..4p-1 with theta = zeta_4p^k, read
    once here; a scalar that is not such a root raises ValueError naming
    its label.  theta keeps the scalars as given, the view for printing
    and for comparing tables.  Checks theta(unit) = 1.
    """

    def __init__(self, theta, unit):
        ctx = next(iter(theta.values())).ctx
        exponent = {}
        for lab, value in theta.items():
            k = ctx.root_exponent(value)
            if k is None:
                raise ValueError(
                    f"theta at {lab!r} is not a {ctx.N}-th root of unity"
                )
            exponent[lab] = k
        if exponent.get(unit) != 0:
            raise ValueError("theta(unit) must be 1")
        self.ctx = ctx
        self.theta = dict(theta)
        self.exponent = exponent


class MonodromySpectrum:
    """Eigenvalues of the double braiding on X (x) Y, listed per factor."""

    def __init__(self, entries):
        self.entries = list(entries)  # (factor label, eigenvalue, mult)

    def multiset(self) -> Counter:
        out = Counter()
        for _, eig, mult in self.entries:
            out[eig] += mult
        return out

    def by_factor(self) -> dict:
        return {lab: eig for lab, eig, _ in self.entries}


# -- twist tables -------------------------------------------------------------


def wp_twists(p: int) -> TwistTable:
    """Exact twists of the 2p simples on the recursion side.

    The plus family alternates sign under z^(s^2-1); the minus family
    carries the extra constant -z^(3p^2), the exact form of -e^(3 pi i p/2).
    """
    ctx = field(p)
    theta = {}
    for s in range(1, p + 1):
        base = ctx.root(s * s - 1)
        theta[(s, 1)] = base if s % 2 else -base
        theta[(s, -1)] = -ctx.root(3 * p * p) * base
    return TwistTable(theta, (1, 1))


def module_twist_scalar(mat: Matrix):
    """Extract c from c * identity, or refuse."""
    n = mat.rows
    if (mat.cols != n or len(mat.data) != n
            or any(i != j for i, j in mat.data)):
        raise NonScalarTwist("twist matrix is not diagonal")
    value = mat.entry(0, 0)
    for i in range(n):
        if mat.entry(i, i) != value:
            raise NonScalarTwist("twist matrix has distinct eigenvalues")
    return value


def uq_twists(p: int) -> TwistTable:
    """Inverse twist scalars on the module side, computed from the operators.

    Each simple gets theta^-1 by applying the inverse twist operator and
    extracting the scalar; a non-scalar result would mean the module was
    not simple and raises.
    """
    ctx = field(p)
    theta = {lab: module_twist_scalar(twist_inverse(uq_module(ctx, lab)))
             for lab in uq_labels(p)}
    return TwistTable(theta, (1, 0))


def singlet_twists(p: int, r_max: int = DEFAULT_RMAX) -> TwistTable:
    """theta(M_{r,s}) = e^(2 pi i h_{r,s}), exact in the field."""
    ring = singlet_ring(p, r_max)
    ctx = field(p)
    theta = {}
    for lab in ring.labels:
        h = conformal_weight(p, *lab)
        exponent = h * 4 * p
        if exponent.denominator != 1:
            raise NonRepresentablePhase(f"h = {h} leaves the field")
        theta[lab] = ctx.root(int(exponent))
    return TwistTable(theta, ring.unit)


# -- monodromy ----------------------------------------------------------------


def monodromy(ring, twists: TwistTable, x, y) -> MonodromySpectrum:
    """Balancing eigenvalues of c^2 on the factors of x (x) y, each
    zeta_4p^(e_z - e_x - e_y) on the twist exponents."""
    exponent, root = twists.exponent, twists.ctx.root
    base = exponent[x] + exponent[y]
    entries = [(z, root(exponent[z] - base), mult)
               for z, mult in sorted(ring.product(x, y).items(), key=str)]
    return MonodromySpectrum(entries)


def muger_candidates(ring, twists: TwistTable) -> set:
    """Labels whose monodromy against every simple is trivial.

    A necessary condition for transparency.  By the balancing identity
    the monodromy on x (x) y is trivial exactly when every factor z of the
    product has e_z = e_x + e_y mod 4p on the twist exponents, so the scan
    compares integers and stops at the first refuting x.  On truncated
    rings, pairs whose product leaves the window (ring.fits is false) are
    skipped: they can neither confirm nor refute a candidate inside the
    truncation.
    """
    exponent, n = twists.exponent, twists.ctx.N
    labels = ring.labels
    return {y for y in labels
            if all((exponent[z] - exponent[x] - exponent[y]) % n == 0
                   for x in labels if ring.fits(x, y)
                   for z in ring.product(x, y))}


# -- phase arithmetic ---------------------------------------------------------


def voa_monodromy_phase(p: int, h1: Fraction, h2: Fraction, h3: Fraction,
                        squared: bool = False):
    """e^(pi i Delta) for Delta = h3 - h1 - h2, or its square.

    The branch writes the phase as zeta_4p to an integer power: 2p*Delta
    for a single application, 4p*Delta for the full monodromy.  A phase
    whose exponent is not integral does not live in the field and raises.
    """
    delta = Fraction(h3) - Fraction(h1) - Fraction(h2)
    scale = 4 * p if squared else 2 * p
    exponent = delta * scale
    if exponent.denominator != 1:
        raise NonRepresentablePhase(
            f"exponent {exponent} of the primitive root is not integral"
        )
    return field(p).root(int(exponent))
