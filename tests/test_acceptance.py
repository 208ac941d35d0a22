"""Acceptance gate: one test per criterion, p in {2,...,7} throughout.

Every criterion runs named checks from the registry in ribbonkit.checks,
the same functions `ribbonkit verify` runs, and asserts that each passes
and that exactly the listed checks ran.  Every assertion inside a check is
exact field or integer arithmetic; the terminal summary hook in conftest.py
prints one PASS/FAIL line per criterion.  Randomized clauses run at full
scale in criterion 10 (10^4 associativity triples, 10^3 DSL round trips,
totals across the p range), so this module dominates the suite's runtime
budget.
"""

from ribbonkit.checks import run_checks
from ribbonkit.fusion import DEFAULT_RMAX

ALL_P = [2, 3, 4, 5, 6, 7]


def _all_pass(names, rmax=DEFAULT_RMAX, seed=0, triples=0, roundtrips=0):
    opts = {"rmax": rmax, "seed": seed, "triples": triples,
            "roundtrips": roundtrips}
    for p in ALL_P:
        rows = list(run_checks(p, names, opts))
        assert [row["check"] for row in rows] == names
        for row in rows:
            assert row["status"] == "pass", (p, row["check"], row["detail"])


def test_criterion_1():
    # category dimension 2p^3 from projective covers, on both constructions
    _all_pass(["fpdim.category"])


def test_criterion_2():
    # the label bijection is a ring isomorphism, checked on all (2p)^2
    # pairs of labels; the two sides are built by independent routes
    # (characters against integer Chebyshev recursion)
    _all_pass(["fusion.iso_T"])


def test_criterion_3():
    # scanning a over every root of unity with b = a^{-1}, the hexagon
    # holds exactly four times, with a^2 in {q, q^{-1}}, and the four
    # candidates pair into mutually inverse braidings
    _all_pass(["braiding.hexagon", "braiding.inverse_pairs"])


def test_criterion_4():
    # the R-matrix braiding on the standard module equals the diagram-side
    # candidate zeta^{1/2} f + zeta^{-1/2} id entry by entry, and the
    # intrinsic dimension of the module is -(q + q^{-1})
    _all_pass(["braiding.rmatrix"])


def test_criterion_5():
    # projector audit for 1 <= n <= p-1: idempotent, kills every hook,
    # closure (-1)^n [n+1], and the top closure vanishes
    _all_pass(["jw.projectors"])


def test_criterion_6():
    # only the unit is transparent on the recursion side, and the witness
    # monodromy spectra carry the expected eigenvalues
    _all_pass(["modularity.wp_center"])


def test_criterion_7():
    # the inverse twists computed from the module operators coincide with
    # the recursion-side table under the label bijection (which sends
    # (2,0) to (2,+)), and the table assigns -q^{3/2} to (2,+)
    _all_pass(["twists.match_under_iso", "twists.two_dim_value"])


def test_criterion_8():
    # weight-difference phases: the vacuum channel gives -q^{-3/2}, the
    # adjacent channel q^{1/2} for p > 2, and the square is q^{-3}
    _all_pass(["phase.channels"])


def test_criterion_9():
    # window isomorphism with the four-term image of the vacuum cover,
    # composite induction, and the odd-index transparent candidates of
    # the window-6 singlet ring
    _all_pass(["grring.iso_K", "grring.composition",
               "modularity.singlet_center"], rmax=6)


def test_criterion_10():
    # full-scale property suites: exhaustive associativity on the finite
    # rings, 10^4 random in-window triples and 10^3 DSL round trips in
    # total across p, diagram functoriality and snake words, module
    # relation audits, the balancing identity through dimension 12, and
    # the braid relation and the hexagon on all four candidates
    # per-p shares rounded up, so the totals reach 10^4 and 10^3
    triples_per_p = -(-10000 // len(ALL_P))
    roundtrips_per_p = -(-1000 // len(ALL_P))
    _all_pass(["fusion.associativity",
               "braiding.yang_baxter",
               "properties.truncated_associativity",
               "properties.tl_words",
               "properties.module_relations",
               "properties.balancing",
               "properties.dsl_roundtrip"],
              seed=2026, triples=triples_per_p, roundtrips=roundtrips_per_p)
