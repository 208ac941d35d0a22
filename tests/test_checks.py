"""The check registry: failed rows carry a witness, crashed rows say where.

Each mutation test runs one registered check as is, then again with one of
its inputs broken by monkeypatch, and asserts that the broken run fails
with a detail that names what went wrong instead of repeating the pass
text.
"""

from ribbonkit import checks, fusion, ribbon
from ribbonkit.checks import CHECKS, run_checks
from ribbonkit.cyclo import field, make_root

P = 3
ENV = {"rmax": 4}


def _fail_detail(monkeypatch, name, target, attr, value) -> str:
    ok, pass_text = CHECKS[name](P, ENV)
    assert ok
    monkeypatch.setattr(target, attr, value)
    ok, detail = CHECKS[name](P, ENV)
    assert not ok and detail != pass_text
    return detail


def test_hexagon_names_the_winners(monkeypatch):
    # every scanned unit passes a hexagon that accepts everything
    detail = _fail_detail(monkeypatch, "braiding.hexagon", checks,
                          "check_hexagon", lambda morphism: True)
    found = detail.split("[")[1].split("]")[0].split(", ")
    assert found == [str(field(P).root(j)) for j in range(4 * P)]


def test_inverse_pairs_names_the_pair(monkeypatch):
    real = checks.braiding_candidates

    def doubled(ctx):
        c0, _, c2, c3 = real(ctx)
        return [c0, c0, c2, c3]

    detail = _fail_detail(monkeypatch, "braiding.inverse_pairs", checks,
                          "braiding_candidates", doubled)
    assert detail == (
        "candidate 0 composed with candidate 1 is not the identity; "
        "candidate 1 composed with candidate 0 is not the identity")


def test_phase_channels_names_the_channel(monkeypatch):
    real = checks.voa_monodromy_phase

    def flipped(p, h1, h2, h3, squared=False):
        value = real(p, h1, h2, h3, squared=squared)
        return -value if h3 else value

    detail = _fail_detail(monkeypatch, "phase.channels", checks,
                          "voa_monodromy_phase", flipped)
    root = make_root(field(P), 1)
    assert detail == (f"adjacent h_{{1,3}} channel gives {-root}, "
                      f"expected {root}")


def test_singlet_center_names_missing_and_extra(monkeypatch):
    real = checks.muger_candidates

    def shifted(ring, table):
        return real(ring, table) - {(1, 1)} | {(2, 1)}

    detail = _fail_detail(monkeypatch, "modularity.singlet_center", checks,
                          "muger_candidates", shifted)
    assert detail == "transparent candidates missing [(1, 1)], extra [(2, 1)]"


def test_quantum_order_names_false_fields(monkeypatch):
    real = ribbon.qint

    def off_by_one(ctx, n):
        return real(ctx, n) + ctx.one() if n == 3 else real(ctx, n)

    detail = _fail_detail(monkeypatch, "modularity.quantum_order", ribbon,
                          "qint", off_by_one)
    assert detail == "false report fields: closed_form"


def test_grring_iso_K_names_the_step(monkeypatch):
    real = fusion.induction_F

    def doubled(p, lab):
        return real(p, lab) + real(p, lab) if lab == (3, 1) else real(p, lab)

    detail = _fail_detail(monkeypatch, "grring.iso_K", fusion,
                          "induction_F", doubled)
    assert detail == "restriction route fails at (3, 1): got {(1, 1): 3}"


def test_crashed_row_names_type_and_location(monkeypatch):
    def explode(p, env):
        return {}["missing"]

    monkeypatch.setitem(CHECKS, "demo.explode", explode)
    (row,) = run_checks(2, ["demo.explode"], {"seed": 0})
    line = explode.__code__.co_firstlineno + 1
    assert row["status"] == "fail"
    assert row["detail"] == f"KeyError at test_checks.py:{line}: 'missing'"


def test_duality_pattern_names_missing_and_extra(monkeypatch):
    # on the module ring the first violation in scan order goes missing;
    # on the recursion ring one unit pair is added
    real = fusion.FusionRing.check_duality

    def dropped(ring):
        bad = real(ring)
        return bad[1:] if ring.unit == (1, 0) else bad

    def added(ring):
        bad = real(ring)
        return bad + [((1, 1), (1, 1))] if ring.unit == (1, 1) else bad

    with monkeypatch.context() as m:
        detail = _fail_detail(m, "fusion.duality_pattern",
                              fusion.FusionRing, "check_duality", dropped)
    assert detail == "uq_ring: missing violation at ((2, 0), (3, 1))"
    detail = _fail_detail(monkeypatch, "fusion.duality_pattern",
                          fusion.FusionRing, "check_duality", added)
    assert detail == "wp_ring: extra violation at ((1, 1), (1, 1))"
