"""Twist tables, monodromy spectra, center detection, and phase arithmetic.

Frozen expectations, derived before implementation:
  * theta(X_s^+) = (-1)^(s-1) z^(s^2-1), theta(X_s^-) = -z^(3p^2) z^(s^2-1)
    with z the primitive 4p-th root; at p=2 this makes theta(X_1^-) = 1
  * the inverse twist on V_2 is -q^(3/2); the full inverse table on the
    module side equals the wp table under the label bijection
  * monodromy(X2+, X1-) = {-1}; for p > 2, monodromy(X2+, X2+) =
    {q^-3 on the unit channel, q on the X3+ channel}
  * Muger candidates: {X1+} for the wp ring, {M_{r,1} : r odd} truncated,
    everything for a symmetric toy table
  * e^(pi i (1 - 3/2p)) = -q^(-3/2), e^(pi i / 2p) = q^(1/2),
    squared unit-channel phase q^(-3); the singlet channel
    M_{3,1} x M_{1,2} -> M_{3,2} has Delta = -1, full monodromy 1
"""

import cmath

import pytest
from collections import Counter
from fractions import Fraction

from ribbonkit import cyclo, fusion, ribbon
from ribbonkit.checks import CHECKS, iso_K_witness, twists_match
from ribbonkit.cyclo import embed_complex, field, parse_cyc
from ribbonkit.fusion import (
    TruncationOverflow, conformal_weight, singlet_ring, uq_ring, wp_ring,
)
from ribbonkit.qrep import Matrix, simple_V, tensor, twist_inverse
from ribbonkit.ribbon import (
    NonRepresentablePhase,
    NonScalarTwist,
    TwistTable,
    module_twist_scalar,
    monodromy,
    muger_candidates,
    singlet_twists,
    uq_twists,
    voa_monodromy_phase,
    wp_twists,
)

ALL_P = [2, 3, 4, 5, 6, 7]


# -- twist tables -------------------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_wp_twist_values(p):
    ctx = field(p)
    table = wp_twists(p)
    assert table.theta[(1, 1)] == ctx.one()
    assert table.theta[(2, 1)] == -ctx.root(3)
    for s in range(1, p + 1):
        base = ctx.root(s * s - 1)
        plus = base if s % 2 else -base
        assert table.theta[(s, 1)] == plus
        assert table.theta[(s, -1)] == -ctx.root(3 * p * p) * base


def test_wp_twist_p2_negative_sector():
    # -e^(3 pi i) evaluates to +1
    ctx = field(2)
    assert wp_twists(2).theta[(1, -1)] == ctx.one()


@pytest.mark.parametrize("p", [2, 3])
def test_wp_twist_numeric_crosscheck(p):
    table = wp_twists(p)
    for s in range(1, p + 1):
        want = -cmath.exp(3j * cmath.pi * p / 2) * cmath.exp(
            1j * cmath.pi * (s * s - 1) / (2 * p)
        )
        got = embed_complex(table.theta[(s, -1)])
        assert abs(got - want) < 1e-9


@pytest.mark.parametrize("p", ALL_P)
def test_uq_inverse_twist_values(p):
    ctx = field(p)
    table = uq_twists(p)
    assert table.theta[(1, 0)] == ctx.one()
    assert table.theta[(2, 0)] == -ctx.root(3)


@pytest.mark.parametrize("p", ALL_P)
def test_twist_tables_match_under_T(p):
    # the ribbon-matching statement: inverse module twists transported by
    # the label bijection reproduce the recursion-side table exactly
    inv_table = uq_twists(p)
    wp_table = wp_twists(p)
    for s in range(1, p + 1):
        assert inv_table.theta[(s, 0)] == wp_table.theta[(s, 1)]
        assert inv_table.theta[(s, 1)] == wp_table.theta[(s, -1)]


@pytest.mark.parametrize("p", [2, 5])
def test_label_routes_build_no_ring(p):
    # the twist tables, their comparison under the label bijection and the
    # restriction route read labels only: with both finite-ring memos
    # emptied, none of them builds uq_ring or wp_ring
    uq_ring.cache_clear()
    wp_ring.cache_clear()
    assert twists_match(p)[0]
    wp_twists(p)
    uq_twists(p)
    assert iso_K_witness(p, 6) is None
    assert uq_ring.cache_info().misses == 0
    assert wp_ring.cache_info().misses == 0


def test_uq_twists_inverts_once(monkeypatch):
    # [n] is a sum of roots and every 1/[j]! comes from the one inverse of
    # [p-1]!, so in a fresh field, whose memos are all cold, the whole
    # table misses the inverse memo at most once
    monkeypatch.setattr(ribbon, "field", cyclo.FieldContext)
    before = cyclo._inverse.cache_info().misses
    uq_twists(11)
    assert cyclo._inverse.cache_info().misses - before <= 1


def test_module_twist_scalar_rejects_mixed_module():
    ctx = field(3)
    v2 = simple_V(ctx, 2)
    with pytest.raises(NonScalarTwist):
        module_twist_scalar(twist_inverse(tensor(v2, v2)))


@pytest.mark.parametrize("entries", [
    {(0, 1): 1, (1, 0): 1},
    {(0, 0): 1, (0, 1): 1},
], ids=["antidiagonal", "diagonal and off-diagonal"])
def test_module_twist_scalar_refuses_off_diagonal(entries):
    # as many nonzero entries as rows, but not all on the diagonal
    ctx = field(3)
    mat = Matrix(ctx, 2, 2, {k: ctx.rational(v) for k, v in entries.items()})
    with pytest.raises(NonScalarTwist, match="twist matrix is not diagonal"):
        module_twist_scalar(mat)


def test_twist_table_unit_guard():
    ctx = field(2)
    bad = dict.fromkeys(wp_twists(2).theta, ctx.one())
    bad[(1, 1)] = -ctx.one()
    with pytest.raises(ValueError, match=r"theta\(unit\) must be 1"):
        TwistTable(bad, (1, 1))
    # a table without its unit is refused the same way
    del bad[(1, 1)]
    with pytest.raises(ValueError, match=r"theta\(unit\) must be 1"):
        TwistTable(bad, (1, 1))


@pytest.mark.parametrize("value", ["2", "z + 1", "0"])
def test_twist_table_refuses_non_root(value):
    # a scalar off the 4p-th roots has no exponent: refused by label
    ctx = field(2)
    theta = dict.fromkeys(wp_twists(2).theta, ctx.one())
    theta[(2, -1)] = parse_cyc(ctx, value)
    with pytest.raises(ValueError, match=r"theta at \(2, -1\) is not a "
                                         r"8-th root of unity"):
        TwistTable(theta, (1, 1))


@pytest.mark.parametrize("p", [3, 5])
def test_twist_exponents_read_the_roots(p):
    ctx = field(p)
    for table in (wp_twists(p), singlet_twists(p, r_max=4)):
        for lab, value in table.theta.items():
            assert 0 <= table.exponent[lab] < 4 * p
            assert ctx.root(table.exponent[lab]) == value


@pytest.mark.parametrize("p", [2, 3, 5])
def test_twists_are_roots_of_unity(p):
    one = field(p).one()
    for table in (wp_twists(p), uq_twists(p)):
        for value in table.theta.values():
            assert value ** (8 * p) == one
    stable = singlet_twists(p, r_max=4)
    for value in stable.theta.values():
        assert value ** (8 * p) == one


# -- monodromy spectra --------------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_monodromy_x2_x1minus(p):
    ctx = field(p)
    ring = wp_ring(p)
    spec = monodromy(ring, wp_twists(p), (2, 1), (1, -1))
    assert spec.multiset() == Counter({-ctx.one(): 1})


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_monodromy_x2_x2(p):
    ctx = field(p)
    ring = wp_ring(p)
    spec = monodromy(ring, wp_twists(p), (2, 1), (2, 1))
    assert spec.multiset() == Counter(
        {ctx.root(-6): 1, ctx.root(2): 1}
    )
    # unit-channel corestriction
    assert spec.by_factor()[(1, 1)] == ctx.root(-6)


def test_monodromy_x2_x2_p2_degenerate():
    # at p=2 both channels collapse onto q^-3 = q = i
    ctx = field(2)
    spec = monodromy(wp_ring(2), wp_twists(2), (2, 1), (2, 1))
    assert spec.multiset() == Counter({ctx.root(-6): 4})


@pytest.mark.parametrize("p", [2, 3])
def test_monodromy_unit_trivial(p):
    ring = wp_ring(p)
    table = wp_twists(p)
    one = field(p).one()
    for lab in ring.labels:
        spec = monodromy(ring, table, ring.unit, lab)
        assert set(spec.multiset()) == {one}


def test_monodromy_symmetry():
    ring = wp_ring(3)
    table = wp_twists(3)
    for x in ring.labels:
        for y in ring.labels:
            left = monodromy(ring, table, x, y)
            right = monodromy(ring, table, y, x)
            assert left.multiset() == right.multiset()


@pytest.mark.parametrize("p", ALL_P)
def test_monodromy_matches_field_route(p):
    # exponent arithmetic against theta_z * (theta_x * theta_y)^-1 in the
    # field, on every pair whose product stays in the window
    tables = [(wp_ring(p), wp_twists(p)),
              (uq_ring(p), uq_twists(p)),
              (singlet_ring(p, r_max=4), singlet_twists(p, r_max=4))]
    for ring, table in tables:
        theta = table.theta
        for x in ring.labels:
            for y in ring.labels:
                try:
                    spec = monodromy(ring, table, x, y)
                except TruncationOverflow:
                    continue
                denom = (theta[x] * theta[y]).inv()
                want = [(z, theta[z] * denom, mult) for z, mult in
                        sorted(ring.product(x, y).items(), key=str)]
                assert spec.entries == want, (x, y)


def test_monodromy_matches_phase_arithmetic():
    # balancing on a single-string singlet product is the squared phase
    p = 3
    ring = singlet_ring(p, r_max=8)
    table = singlet_twists(p, r_max=8)
    for a, b in [((3, 1), (1, 2)), ((2, 1), (1, 1)), ((-1, 2), (3, 1))]:
        prod = ring.product(a, b)
        spec = monodromy(ring, table, a, b)
        for z, mult in prod.items():
            phase = voa_monodromy_phase(
                p,
                conformal_weight(p, *a),
                conformal_weight(p, *b),
                conformal_weight(p, *z),
                squared=True,
            )
            assert spec.by_factor()[z] == phase


# -- Muger center candidates --------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_muger_wp(p):
    assert muger_candidates(wp_ring(p), wp_twists(p)) == {(1, 1)}


@pytest.mark.parametrize("p", [2, 3])
def test_muger_singlet(p):
    ring = singlet_ring(p, r_max=6)
    table = singlet_twists(p, r_max=6)
    got = muger_candidates(ring, table)
    assert got == {(r, 1) for r in (-5, -3, -1, 1, 3, 5)}


def _muger_by_eigenvalues(ring, twists):
    # the scan as it was before the congruence: build each fitting pair's
    # monodromy spectrum and compare every eigenvalue with one
    one = twists.ctx.one()
    labels = ring.labels
    out = set()
    for y in labels:
        central = True
        for x in labels:
            if not ring.fits(x, y):
                continue
            spec = monodromy(ring, twists, x, y)
            if any(eig != one for _, eig, _ in spec.entries):
                central = False
                break
        if central:
            out.add(y)
    return out


@pytest.mark.parametrize("p", range(2, 9))
def test_muger_congruence_matches_eigenvalues_wp(p):
    ring, table = wp_ring(p), wp_twists(p)
    assert muger_candidates(ring, table) == _muger_by_eigenvalues(ring, table)


@pytest.mark.parametrize("p", range(2, 7))
def test_muger_congruence_matches_eigenvalues_singlet(p):
    for r_max in range(2, 9):
        ring, table = singlet_ring(p, r_max), singlet_twists(p, r_max)
        assert muger_candidates(ring, table) == \
            _muger_by_eigenvalues(ring, table), r_max


def _window_only(product):
    # a product that fails the test on any pair the window refuses, so a
    # scan that still asked for one (and caught the refusal) shows up
    def guarded(self, a, b):
        assert self.fits(a, b), f"scan asked for {a} * {b}"
        return product(self, a, b)
    return guarded


@pytest.mark.parametrize("p", ALL_P)
def test_muger_scan_asks_only_fitting_pairs(p, monkeypatch):
    monkeypatch.setattr(fusion.TruncatedRing, "product",
                        _window_only(fusion.TruncatedRing.product))
    ring = singlet_ring(p, r_max=6)
    got = muger_candidates(ring, singlet_twists(p, r_max=6))
    assert got == {(r, 1) for r in (-5, -3, -1, 1, 3, 5)}
    ok, detail = CHECKS["modularity.singlet_center"](p, {"rmax": 8})
    assert ok, detail


def test_muger_toy_all_central():
    from ribbonkit.fusion import FusionRing

    consts = {
        ("1", "1"): {"1": 1}, ("1", "g"): {"g": 1},
        ("g", "1"): {"g": 1}, ("g", "g"): {"1": 1},
    }
    ring = FusionRing(["1", "g"], "1", consts)
    ctx = field(2)
    table = TwistTable(dict.fromkeys(ring.labels, ctx.one()), ring.unit)
    assert muger_candidates(ring, table) == {"1", "g"}


# -- phase arithmetic ---------------------------------------------------------


@pytest.mark.parametrize("p", ALL_P)
def test_voa_phase_unit_channel(p):
    ctx = field(p)
    h2 = conformal_weight(p, 1, 2)
    got = voa_monodromy_phase(p, h2, h2, Fraction(0))
    assert got == -ctx.root(-3)
    squared = voa_monodromy_phase(p, h2, h2, Fraction(0), squared=True)
    assert squared == ctx.root(-6)
    assert squared == got * got


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_voa_phase_x3_channel(p):
    ctx = field(p)
    h2 = conformal_weight(p, 1, 2)
    h3 = conformal_weight(p, 1, 3)
    assert voa_monodromy_phase(p, h2, h2, h3) == ctx.root(1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_voa_phase_singlet_channel(p):
    ctx = field(p)
    h31 = conformal_weight(p, 3, 1)
    h12 = conformal_weight(p, 1, 2)
    h32 = conformal_weight(p, 3, 2)
    assert h32 - h31 - h12 == -1
    assert voa_monodromy_phase(p, h31, h12, h32) == -ctx.one()
    assert voa_monodromy_phase(p, h31, h12, h32, squared=True) == ctx.one()


def test_voa_phase_non_representable():
    with pytest.raises(NonRepresentablePhase):
        voa_monodromy_phase(3, Fraction(0), Fraction(0), Fraction(1, 24))
