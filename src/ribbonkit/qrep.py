"""Weight modules for restricted quantum sl(2) at a 2p-th root of unity.

Weights are integers counting half-root units, so the Cartan element acts on
a weight-lambda vector by q^lambda and E/F shift weights by +-2.  The
divided-power generators Ep/Fp shift by +-2p and carry the Frobenius part of
the theory.  Operators are sparse matrices over the exact cyclotomic field;
everything here is exact, nothing is numeric.

A product module is built by one rule: E, F, Ep and Fp of m (x) n are the
coproduct of the divided power X^(k), for X = E or F and k = 1 or p, written
once in _coproduct, and each stays a thunk until it is read.

A map between modules is a plain Matrix: module_map certifies it (field,
shape, K-equivariance, and intertwining E, F, Ep, Fp) and hands it back.

The module of a label is built here and nowhere else: uq_module gives the
simple V_s or chi (x) V_s of the small quantum group label (s, eps), and
vir_module the module L(r-1) (x) V_s of the Virasoro label (r, s).  They
are two functions because (1, 1) names chi in one family and the vacuum in
the other.

One sparse reduced echelon form, grown a row at a time by _echelon_add,
backs the kernel and the span test of the simplicity certificate, which
the row fpdim.simple_certificates runs on every uq_module; a row there is
a dict column -> nonzero value.

The module also hosts the diagram-to-matrix functor, whose arc weights are
+-zeta^{+-1}, so a basis state carries one integer exponent of zeta.  The
duality of the standard module V_2 is read through it: selfdual_V takes the
images of cup and cap as coevaluation and evaluation, and module_map
certifies them.  The module hosts, too, a character based splitting oracle
used by the fusion rings.  A character there is a Counter weight ->
multiplicity, string_weights is the one definition of a p-shifted string,
and the peel is one descending pass over the weights.  A peeled string
(t, s) is the small quantum group class (s, t mod 2).
"""

from collections import Counter
from functools import cache, partial

from .cyclo import ContextMismatch, CycNumber, FieldContext, inv, qfact, qint
from . import tldiag


class InconsistentCharacter(ValueError):
    """Weight multiset cannot be split into standard characters."""


# -- sparse exact matrices ---------------------------------------------------


class Matrix:
    """Sparse matrix with entries in one cyclotomic context.

    Only nonzero entries are stored; all arithmetic is exact.  Instances are
    treated as immutable values.
    """

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldContext, rows: int, cols: int, data=None):
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        clean = {}
        if data:
            for (i, j), val in data.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
                if not val.is_zero():
                    clean[(i, j)] = val
        self.data = clean

    @classmethod
    def identity(cls, ctx, n):
        one = ctx.one()
        return cls(ctx, n, n, {(i, i): one for i in range(n)})

    @classmethod
    def diagonal(cls, ctx, values):
        values = list(values)
        n = len(values)
        return cls(ctx, n, n, {(i, i): v for i, v in enumerate(values)})

    def entry(self, i, j) -> CycNumber:
        return self.data.get((i, j), self.ctx.zero())

    def is_zero(self) -> bool:
        return not self.data

    def add(self, other: "Matrix") -> "Matrix":
        self._compat(other, same_shape=True)
        acc = dict(self.data)
        for key, v in other.data.items():
            cur = acc.get(key)
            acc[key] = v if cur is None else cur + v
        return Matrix(self.ctx, self.rows, self.cols, acc)

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(Matrix(self.ctx, other.rows, other.cols,
                               {key: -v for key, v in other.data.items()}))

    def scale(self, scalar: CycNumber) -> "Matrix":
        if scalar.is_zero():
            return Matrix(self.ctx, self.rows, self.cols)
        return Matrix(
            self.ctx, self.rows, self.cols,
            {key: scalar * v for key, v in self.data.items()},
        )

    def mul(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        by_row: dict = {}
        for (j, l), v in other.data.items():
            by_row.setdefault(j, []).append((l, v))
        acc: dict = {}
        for (i, j), u in self.data.items():
            hits = by_row.get(j)
            if not hits:
                continue
            for l, v in hits:
                key = (i, l)
                term = u * v
                cur = acc.get(key)
                acc[key] = term if cur is None else cur + term
        return Matrix(self.ctx, self.rows, other.cols, acc)

    @staticmethod
    def kron(a: "Matrix", b: "Matrix") -> "Matrix":
        a._compat(b)
        acc = {}
        for (ia, ja), va in a.data.items():
            for (ib, jb), vb in b.data.items():
                acc[(ia * b.rows + ib, ja * b.cols + jb)] = va * vb
        return Matrix(a.ctx, a.rows * b.rows, a.cols * b.cols, acc)

    def _compat(self, other, same_shape=False):
        if self.ctx is not other.ctx:
            raise ContextMismatch("matrices from different field contexts")
        if same_shape and (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={len(self.data)})"


# -- modules and maps --------------------------------------------------------

class WeightModule:
    """Finite-dimensional weight module with sparse operator actions.

    Operators may be passed as matrices or as zero-argument thunks; thunks
    are materialized (and shift-validated) on first access.  Certifying a
    map reads all four operators, but character-level work reads the
    weights alone: the restriction route of grring.iso_K takes uq_classes
    of each L(r-1) (x) V_s and builds none of their operators.
    """

    __slots__ = ("ctx", "weights", "dimension", "_ops")

    def __init__(self, ctx, weights, E, F, Ep, Fp):
        self.ctx = ctx
        self.weights = tuple(map(int, weights))
        self.dimension = len(self.weights)
        self._ops = {"E": E, "F": F, "Ep": Ep, "Fp": Fp}
        for name, op in self._ops.items():
            if isinstance(op, Matrix):
                self._check_op(name, op)

    def _check_op(self, name, op):
        if op.ctx is not self.ctx:
            raise ContextMismatch(f"{name} lives in the wrong field")
        if (op.rows, op.cols) != (self.dimension, self.dimension):
            raise ValueError(f"{name} has the wrong shape")
        d = {"E": 2, "F": -2, "Ep": 2 * self.ctx.p, "Fp": -2 * self.ctx.p}[name]
        for (i, j) in op.data:
            if self.weights[i] != self.weights[j] + d:
                raise ValueError(
                    f"{name} entry ({i},{j}) breaks the weight shift {d:+d}"
                )

    def _get(self, name):
        op = self._ops[name]
        if not isinstance(op, Matrix):
            op = op()
            self._check_op(name, op)
            self._ops[name] = op
        return op

    E = property(lambda self: self._get("E"))
    F = property(lambda self: self._get("F"))
    Ep = property(lambda self: self._get("Ep"))
    Fp = property(lambda self: self._get("Fp"))

    def __repr__(self):
        return f"WeightModule(dim={self.dimension}, p={self.ctx.p})"


def module_map(domain, codomain, matrix) -> Matrix:
    """matrix, certified as a module map domain -> codomain: it must share
    their field, have their shape, respect K and intertwine E, F, Ep, Fp."""
    if domain.ctx is not codomain.ctx or matrix.ctx is not domain.ctx:
        raise ContextMismatch("map pieces from different field contexts")
    if (matrix.rows, matrix.cols) != (codomain.dimension, domain.dimension):
        raise ValueError("matrix shape does not match domain/codomain")
    period = 2 * domain.ctx.p  # q has order 2p, so K only sees weights mod 2p
    for (i, j) in matrix.data:
        if (codomain.weights[i] - domain.weights[j]) % period:
            raise ValueError(f"entry ({i},{j}) breaks K-equivariance")
    for name in ("E", "F", "Ep", "Fp"):
        left = getattr(codomain, name).mul(matrix)
        right = matrix.mul(getattr(domain, name))
        if left != right:
            raise ValueError(f"map fails to intertwine {name}")
    return matrix


def check_module(m: WeightModule) -> list:
    """Relation audit: [E,F] commutator and nilpotency.  Weight shifts need
    no audit: WeightModule refuses an operator that breaks one.

    Returns a list of violation messages, empty when everything holds.
    """
    out = []
    ctx = m.ctx
    p = ctx.p
    comm = m.E.mul(m.F).sub(m.F.mul(m.E))
    target = Matrix.diagonal(ctx, [qint(ctx, w) for w in m.weights])
    if comm != target:
        out.append("[E,F] differs from the weight diagonal")
    if not _op_powers(m.E, p)[p].is_zero():
        out.append("E^p is nonzero")
    if not _op_powers(m.F, p)[p].is_zero():
        out.append("F^p is nonzero")
    return out


# -- standard modules --------------------------------------------------------


def simple_V(ctx: FieldContext, s: int) -> WeightModule:
    """The s-dimensional simple with highest weight s-1; requires 1 <= s <= p."""
    if not 1 <= s <= ctx.p:
        raise ValueError(f"s={s} outside 1..{ctx.p}")
    weights = tuple(string_weights(ctx.p, 0, s))
    e = {(j - 1, j): qint(ctx, s - j) for j in range(1, s)}
    f = {(j + 1, j): qint(ctx, j + 1) for j in range(s - 1)}
    z = Matrix(ctx, s, s)
    return WeightModule(ctx, weights, Matrix(ctx, s, s, e),
                        Matrix(ctx, s, s, f), z, z)


def simple_L(ctx: FieldContext, r: int) -> WeightModule:
    """The (r+1)-dimensional Frobenius simple on the p-dilated weight string."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = r + 1
    weights = tuple((r - 2 * j) * ctx.p for j in range(n))
    ep = {(j - 1, j): ctx.rational(r - j + 1) for j in range(1, n)}
    fp = {(j + 1, j): ctx.rational(j + 1) for j in range(n - 1)}
    z = Matrix(ctx, n, n)
    return WeightModule(ctx, weights, z, z, Matrix(ctx, n, n, ep),
                        Matrix(ctx, n, n, fp))


def chi_module(ctx: FieldContext) -> WeightModule:
    """One-dimensional module concentrated in weight p; all operators vanish."""
    z = Matrix(ctx, 1, 1)
    return WeightModule(ctx, (ctx.p,), z, z, z, z)


# -- tensor products ---------------------------------------------------------


def _kscaled(op: Matrix, weights, axis: int, t: int, c: int) -> Matrix:
    """q^c K^t op (axis 0, weights of op's rows) or q^c op K^t (axis 1,
    weights of its columns): K^t is diagonal, q^{tw} at weight w, so this
    scales op's entries and runs no matrix product."""
    if not t:
        return op
    ctx = op.ctx
    return Matrix(ctx, op.rows, op.cols, {
        rc: v * ctx.root(2 * (t * weights[rc[axis]] + c))
        for rc, v in op.data.items()})


def _op_powers(op: Matrix, top: int) -> list:
    """[op^0, ..., op^top]; op^1 is op itself, multiplying stops at the
    first zero power, and every later entry is that same zero matrix."""
    out = [Matrix.identity(op.ctx, op.rows), op][:top + 1]
    while len(out) <= top and not out[-1].is_zero():
        out.append(op.mul(out[-1]))
    out += [out[-1]] * (top + 1 - len(out))
    return out


def _divided(m: WeightModule, powers, name: str, k: int) -> Matrix:
    # X^{(k)} for X = E or F: the stored generator Xp at k = p, else X^k/[k]!
    if k == m.ctx.p:
        return getattr(m, name + "p")
    if k <= 1:
        return powers[k]
    return powers[k].scale(inv(qfact(m.ctx, k)))


def _coproduct(m: WeightModule, n: WeightModule, name: str,
               k: int) -> Matrix:
    """X^{(k)} on m (x) n, for X = E or F and k = 1 or p:
        Delta(E^{(k)}) = sum_{i+j=k} q^{ij} E^{(i)} K^j (x) E^{(j)},
        Delta(F^{(k)}) = sum_{i+j=k} q^{-ij} F^{(i)} (x) K^{-i} F^{(j)},
    which at k = 1 read E (x) 1 + K (x) E and F (x) K^-1 + 1 (x) F.
    m's divided powers are built first; n's only up to the largest j < p
    that a nonzero left factor needs, so a factor whose X vanishes (chi)
    costs no power of the other."""
    p = m.ctx.p
    mpow = _op_powers(getattr(m, name), min(k, p - 1))
    lefts = [(i, _divided(m, mpow, name, i)) for i in range(k + 1)]
    lefts = [(i, left) for i, left in lefts if not left.is_zero()]
    need = max((k - i for i, _ in lefts if k - i < p), default=0)
    npow = _op_powers(getattr(n, name), need)
    dim = m.dimension * n.dimension
    out = Matrix(m.ctx, dim, dim)
    for i, left in lefts:
        j = k - i
        right = _divided(n, npow, name, j)
        if right.is_zero():
            continue
        # the q^{+-ij} rides on the K-factor; where that is K^0, ij = 0 too
        if name == "E":
            left = _kscaled(left, m.weights, 1, j, i * j)
        else:
            right = _kscaled(right, n.weights, 0, -i, -i * j)
        out = out.add(Matrix.kron(left, right))
    return out


def tensor(m: WeightModule, n: WeightModule) -> WeightModule:
    """Product module: each of E, F, Ep and Fp is the one coproduct rule
    _coproduct at k = 1 or p.  Only the weights are computed here; each
    operator is built on first access, so a product whose character alone
    is read (uq_classes) costs its weights alone."""
    if m.ctx is not n.ctx:
        raise ContextMismatch("tensor factors from different field contexts")
    weights = tuple(wm + wn for wm in m.weights for wn in n.weights)
    ops = [partial(_coproduct, m, n, name, k)
           for k in (1, m.ctx.p) for name in ("E", "F")]
    return WeightModule(m.ctx, weights, *ops)


# -- the module of a label --------------------------------------------------


def uq_module(ctx: FieldContext, lab) -> WeightModule:
    """The simple of the small quantum group at label (s, eps): V_s for
    eps = 0, chi (x) V_s for eps = 1."""
    s, eps = lab
    v = simple_V(ctx, s)
    return tensor(chi_module(ctx), v) if eps else v


def vir_module(ctx: FieldContext, lab) -> WeightModule:
    """The module L(r-1) (x) V_s of the Virasoro label (r, s)."""
    r, s = lab
    return tensor(simple_L(ctx, r - 1), simple_V(ctx, s))


# -- braiding and twist ------------------------------------------------------


@cache
def _twist_coefs(ctx: FieldContext) -> tuple:
    """(q^2-1)^j / [j]! for j < p, the sum coefficients of the inverse twist."""
    q = ctx.q()
    coef = []
    gpow = ctx.one()
    for j in range(ctx.p):
        coef.append(gpow * inv(qfact(ctx, j)))
        gpow = gpow * (q * q - ctx.one())
    return tuple(coef)


@cache
def _twist_term(ctx: FieldContext, j: int, e: int) -> CycNumber:
    """zeta4p^e (q^2-1)^j / [j]!, with e already reduced mod 4p."""
    return ctx.root(e) * _twist_coefs(ctx)[j]


def braiding(m: WeightModule, n: WeightModule) -> Matrix:
    """The braiding tensor(m,n) -> tensor(n,m), the R-matrix sum
    sum_j c_j F^j (x) E^j after the phased flip v@w -> zeta^{-lam.mu} w@v,
    with c_j = q^{-j(j-1)/2} (q^{-1}-q)^j / [j]! = (-1)^j q^{-j(j+1)/2}
    (q^2-1)^j / [j]!, a twist term.  The matrix is certified by module_map,
    which pins the coproduct/R-matrix conventions."""
    if m.ctx is not n.ctx:
        raise ContextMismatch("braiding inputs from different field contexts")
    ctx = m.ctx
    dm, dn = m.dimension, n.dimension
    flip = Matrix(ctx, dm * dn, dm * dn, {
        (k * dm + i, i * dn + k): ctx.root(-lam * mu)
        for i, lam in enumerate(m.weights)
        for k, mu in enumerate(n.weights)})
    total = Matrix(ctx, dm * dn, dm * dn)
    for j, (e, f) in enumerate(zip(_op_powers(m.E, ctx.p - 1),
                                   _op_powers(n.F, ctx.p - 1))):
        if e.is_zero() or f.is_zero():  # so is every later term
            break
        c = _twist_term(ctx, j, (2 * ctx.p * j - j * (j + 1)) % ctx.N)
        total = total.add(Matrix.kron(f, e).scale(c))
    return module_map(tensor(m, n), tensor(n, m), total.mul(flip))


def twist_inverse(m: WeightModule) -> Matrix:
    """Inverse ribbon twist acting on m:
    w -> (-1)^lam zeta4p^{lam^2} sum_j zeta4p^{j(j+1)} q^{(j+1)lam}
         ((q^2-1)^j/[j]!) F^j E^j w   (lam the weight of w).

    E^j carries weight lam to mu = lam + 2j, so the scalar of the j-th term
    moves past E^j: the sum is sum_j F^j D_j E^j with D_j diagonal, holding
    the j-th scalar of lam = mu - 2j at each weight mu whose lam is a weight
    of m.  E^j vanishes once 2j exceeds the weight span, so j stops at
    top = min(p-1, span/2).  Horner's rule evaluates it innermost first:
    X_top = D_top, X_j = D_j + F X_{j+1} E, and the twist is X_0; no power
    of E or F is built.

    The sandwich X -> F X E is tabulated per call: the entry (a, b) of X
    feeds the entries (d, c) with the weight F[d,a] E[b,c], computed once
    for the first level whose X holds (a, b).  So each Horner term costs one
    field product, and the levels are plain dicts; one Matrix, the result,
    goes to module_map, which certifies it.  A weight space of multiplicity
    k costs k^4 products per level this way, against 2k^3 for two matrix
    products; the simples have k = 1, and the products that the checks
    twist have k <= 3."""
    ctx = m.ctx
    p = ctx.p
    weights = m.weights
    present = set(weights)
    top = min(p - 1, (max(weights, default=0) - min(weights, default=0)) // 2)
    f_cols: dict = {}
    for (d, a), v in m.F.data.items():
        f_cols.setdefault(a, []).append((d, v))
    e_rows: dict = {}
    for (b, c), v in m.E.data.items():
        e_rows.setdefault(b, []).append((c, v))
    sandwich: dict = {}  # (a, b) -> [((d, c), F[d,a] E[b,c]), ...]
    x: dict = {}
    for j in range(top, -1, -1):
        acc = {}
        for r, mu in enumerate(weights):
            lam = mu - 2 * j
            if lam in present:
                # (-1)^lam = zeta4p^{2p lam}; q^{(j+1)lam} = zeta4p^{2(j+1)lam}
                e = 2 * p * lam + lam * lam + j * (j + 1) + 2 * (j + 1) * lam
                acc[(r, r)] = _twist_term(ctx, j, e % ctx.N)
        for key, u in x.items():
            hits = sandwich.get(key)
            if hits is None:
                a, b = key
                hits = sandwich[key] = [
                    ((d, c), fv * ev)
                    for d, fv in f_cols.get(a, ()) for c, ev in e_rows.get(b, ())]
            for out, g in hits:
                term = u * g
                cur = acc.get(out)
                acc[out] = term if cur is None else cur + term
        x = acc
    n = m.dimension
    return module_map(m, m, Matrix(ctx, n, n, x))


# -- the diagram functor and the self-duality of the standard module ---------


def tl_to_matrix(ctx: FieldContext, mor: "tldiag.TLMorphism") -> Matrix:
    """Evaluate a diagram morphism on tensor powers of the standard module.

    Strand indices are bits (0 = highest weight vector), big-endian by
    left-to-right position on each side, read from the diagram's link
    states: caps from the bottom state, cups from the top state, and the
    k-th through strand of one side joins the k-th of the other.  Raising
    the right end of a cap weighs -zeta^{-1} and its left end zeta; for a
    cup these are zeta^{-1} and -zeta.  So a state carries one zeta
    exponent (each cup or cap adds its weight's, through-strands add none
    and pass the index on) and meets the diagram coefficient once.
    """
    n, m = mor.bottom_count, mor.top_count
    two_p = 2 * ctx.p  # -1 = zeta^{2p}, so a sign is an exponent shift
    acc: dict = {}
    for diag, coeff in mor.terms.items():
        below, above = diag.links
        # each arc offers two (bottom bits, top bits, zeta exponent) choices
        arcs = [((1 << (n - 1 - y), 0, two_p - 1), (1 << (n - 1 - x), 0, 1))
                for x, y in enumerate(below) if y > x]
        arcs += [((0, 1 << (m - 1 - y), -1), (0, 1 << (m - 1 - x), two_p + 1))
                 for x, y in enumerate(above) if y > x]
        # through strands, k-th to k-th: both ends 0 or both ends 1
        through = zip([x for x, y in enumerate(below) if y < 0],
                      [x for x, y in enumerate(above) if y < 0])
        arcs += [((0, 0, 0), (1 << (n - 1 - x), 1 << (m - 1 - y), 0))
                 for x, y in through]
        states = [(0, 0, 0)]  # packed bottom bits, top bits, zeta exponent
        for arc in arcs:
            states = [(bot | b, top | t, k + e)
                      for bot, top, k in states for b, t, e in arc]
        for bot, top, k in states:
            val = coeff * ctx.root(k)
            cur = acc.get((top, bot))
            acc[(top, bot)] = val if cur is None else cur + val
    return Matrix(ctx, 1 << m, 1 << n, acc)


def selfdual_V(ctx: FieldContext):
    """Coevaluation and evaluation of the self-dual standard module V_2:
    the functor's images of cup and cap, each certified as a module map."""
    vv = tensor(simple_V(ctx, 2), simple_V(ctx, 2))
    unit = simple_V(ctx, 1)
    return (module_map(unit, vv, tl_to_matrix(ctx, tldiag.cup(ctx))),
            module_map(vv, unit, tl_to_matrix(ctx, tldiag.cap(ctx))))


# -- composition factors by character arithmetic -----------------------------


def string_weights(p: int, t: int, s: int) -> range:
    """Weights of the string (t, s), V_s shifted by t*p, top weight first."""
    return range(t * p + s - 1, t * p - s, -2)


def peel_strings(p: int, weights: Counter) -> Counter:
    """Split a weight Counter (weight -> count) into p-shifted strings (t, s).

    Peeling from the top weight is forced: s is pinned by the residue mod p,
    so the splitting is unique.  One descending pass over the distinct
    weights takes all c copies of the string topped by w at once.  Raises
    InconsistentCharacter when no splitting exists.
    """
    remaining = Counter(weights)
    strings: Counter = Counter()
    for w in sorted(remaining, reverse=True):
        c = remaining[w]
        if c <= 0:
            continue
        s = (w % p) + 1
        t = (w - (s - 1)) // p
        for ww in string_weights(p, t, s):
            if remaining[ww] < c:
                raise InconsistentCharacter(
                    f"missing weight {ww} while peeling the string at {w}"
                )
            remaining[ww] -= c
        strings[(t, s)] = c
    return strings


def decompose_character(p: int, weights: Counter) -> Counter:
    """Split a weight Counter (weight -> count) into simple characters.

    Peels highest-weight strings (each the character of a p-shifted simple),
    then assembles, per inner label s, maximal evenly spaced runs of shifts
    into labels (r, s, chi): chi^chi @ L(r) @ V_s, normalized so chi is 0/1,
    in one descending pass that takes each run min(count along it) times.
    Raises InconsistentCharacter when the multiset admits no such splitting.
    """
    by_s: dict = {}
    for (t, s), mult in peel_strings(p, weights).items():
        by_s.setdefault(s, Counter())[t] += mult

    out = Counter()
    for s, shifts in by_s.items():
        for t0 in sorted(shifts, reverse=True):
            while shifts[t0] > 0:
                run = [t0]
                while shifts.get(run[-1] - 2, 0) > 0:
                    run.append(run[-1] - 2)
                mult = min(shifts[t] for t in run)
                for t in run:
                    shifts[t] -= mult
                r = len(run) - 1
                out[(r, s, (t0 - r) % 2)] += mult
    return out


def restrict_classes(p: int, weights: Counter) -> Counter:
    """Classes (s, parity) over the small quantum group of a weight Counter:
    a peeled string (t, s) is V_s shifted by t*p, and K sees weights mod 2p,
    so its class is (s, t mod 2)."""
    out = Counter()
    for (t, s), mult in peel_strings(p, weights).items():
        out[(s, t % 2)] += mult
    return out


def uq_classes(m: WeightModule) -> Counter:
    """Restriction to the small quantum group: classes (s, parity)."""
    return restrict_classes(m.ctx.p, Counter(m.weights))


# -- simplicity certificates -------------------------------------------------


def _echelon_add(pivots: dict, row: dict) -> bool:
    """Add a sparse row to the reduced echelon form pivots, a dict pivot
    column -> row with a one there and zeros at the other pivot columns.

    The row is reduced by the pivot rows; a nonzero remainder is scaled to
    a leading one at its first column, that column is cleared from the
    other pivot rows, and the remainder joins them.  Returns whether the
    row was independent.  The reduced form of a span is unique, so the
    order the rows come in does not change it.
    """
    def subtract(target, c, source):  # target -= c * source, zeros dropped
        for j, v in source.items():
            x = target[j] - c * v if j in target else -(c * v)
            if x.is_zero():
                del target[j]
            else:
                target[j] = x

    row = dict(row)
    # a pivot row is zero at the other pivot columns, so these stay put
    for col in [j for j in row if j in pivots]:
        subtract(row, row[col], pivots[col])
    if not row:
        return False
    lead = min(row)
    scale = inv(row[lead])
    row = {j: v * scale for j, v in row.items()}
    for prow in pivots.values():
        if lead in prow:
            subtract(prow, prow[lead], row)
    pivots[lead] = row
    return True


def _kernel(pivots: dict, dim: int, one) -> list:
    """Kernel of the rows reduced into pivots: for each free column f, the
    sparse vector with one at f and -row[f] at the pivot column of row."""
    return [{f: one, **{c: -row[f] for c, row in pivots.items() if f in row}}
            for f in range(dim) if f not in pivots]


def certify_simple(m: WeightModule) -> bool:
    """Certificate that m has no proper graded submodule: the stacked raising
    operators must have a one-dimensional kernel whose orbit under the
    lowering operators spans the whole module.  The kernel is read off the
    reduced rows of E and Ep; an image under F or Fp joins the orbit when
    it is independent of the orbit's reduced form."""
    ctx, dim = m.ctx, m.dimension
    rows: dict = {}
    for k, op in enumerate((m.E, m.Ep)):
        for (i, j), v in op.data.items():
            rows.setdefault((k, i), {})[j] = v
    pivots: dict = {}
    for row in rows.values():
        _echelon_add(pivots, row)
    kernel = _kernel(pivots, dim, ctx.one())
    if len(kernel) != 1:
        return False
    orbit: dict = {}
    # breadth first: the images of each new vector join the queue being read
    queue = [Matrix(ctx, dim, 1, {(j, 0): v for j, v in kernel[0].items()})]
    for vec in queue:
        if _echelon_add(orbit, {i: v for (i, _), v in vec.data.items()}):
            queue += (m.F.mul(vec), m.Fp.mul(vec))
    return len(orbit) == dim
