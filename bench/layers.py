"""Which ribbonkit functions the traced run wraps, and the per-layer metrics.

Layers, bottom to top: cyclo (field arithmetic), tldiag (diagram algebra),
qrep (exact matrices and modules), fusion (rings), ribbon (twists,
monodromy, Mueger tests) and cli (the DSL and verbs).  ``cyclo.inv`` is
counted once, at the ``CycNumber.inv`` boundary: the module-level ``inv()``
only forwards to it and is left unwrapped.

A "monomial" operand is a unit root power +-zeta^k, found by value, which
is the case a rotation fast path would serve.
"""

from __future__ import annotations

from tracer import Tracer

# (name, unit) in the order the traced run prints them
PER_LAYER = [
    ("cyclo.mul.calls", "count"),
    ("cyclo.mul.self_s", "s"),
    ("cyclo.mul.monomial_share", "ratio"),
    ("cyclo.inv.calls", "count"),
    ("cyclo.inv.self_s", "s"),
    ("cyclo.inv.distinct_share", "ratio"),
    ("cyclo.inv.monomial_share", "ratio"),
    ("cyclo.add.self_s", "s"),
    ("cyclo.field.build_s", "s"),
    ("tldiag.compose.calls", "count"),
    ("tldiag.compose.self_s", "s"),
    ("tldiag.compose.term_pairs", "count"),
    ("tldiag.peak_terms", "count"),
    ("tldiag.jones_wenzl.self_s", "s"),
    ("tldiag.tensor.self_s", "s"),
    ("qrep.matrix_mul.calls", "count"),
    ("qrep.matrix_mul.self_s", "s"),
    ("qrep.matrix_mul.nnz_out", "count"),
    ("qrep.twist_inverse.self_s", "s"),
    ("qrep.braiding.self_s", "s"),
    ("qrep.peel_strings.calls", "count"),
    ("qrep.peel_strings.self_s", "s"),
    ("qrep.decompose_character.self_s", "s"),
    ("fusion.ring_build.calls", "count"),
    ("fusion.ring_build.self_s", "s"),
    ("fusion.trunc_product.calls", "count"),
    ("fusion.trunc_product.self_s", "s"),
    ("fusion.trunc_product.overflow_share", "ratio"),
    ("fusion.fpdim.self_s", "s"),
    ("ribbon.monodromy.calls", "count"),
    ("ribbon.monodromy.self_s", "s"),
    ("ribbon.muger.self_s", "s"),
    ("ribbon.uq_twists.self_s", "s"),
    ("cli.parse.calls", "count"),
    ("cli.parse.self_s", "s"),
    ("cli.evaluate.self_s", "s"),
    ("cli.glue_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# per-layer metrics that are exact counts, compared by the repeat check
COUNT_METRICS = [name for name, unit in PER_LAYER
                 if unit == "count" or name.endswith("_share")]


def _share(part, whole):
    return part / whole if whole else 0.0


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported ribbonkit package."""
    from ribbonkit import cli, cyclo, fusion, qrep, ribbon, tldiag

    counts, peaks, distinct = tracer.counts, tracer.peaks, tracer.distinct
    roots: dict = {}

    def is_monomial(x) -> bool:
        if isinstance(x, int):
            return x in (1, -1)
        if not isinstance(x, cyclo.CycNumber):
            return False
        ctx = x.ctx
        units = roots.get(ctx)
        if units is None:
            units = roots[ctx] = {ctx.root(k) for k in range(ctx.N)}
        return x in units

    def mul_probe(args, result, exc):
        if is_monomial(args[0]) or is_monomial(args[1]):
            counts["cyclo.mul.monomial"] += 1

    def inv_probe(args, result, exc):
        x = args[0]
        distinct["cyclo.inv"].add(x)
        if is_monomial(x):
            counts["cyclo.inv.monomial"] += 1

    def terms_peak(result):
        if result is not None and len(result.terms) > peaks["tldiag.terms"]:
            peaks["tldiag.terms"] = len(result.terms)

    def compose_probe(args, result, exc):
        counts["tldiag.compose.term_pairs"] += (len(args[0].terms)
                                                * len(args[1].terms))
        terms_peak(result)

    def morphism_probe(args, result, exc):
        terms_peak(result)

    def matrix_probe(args, result, exc):
        if result is not None:
            counts["qrep.matrix_mul.nnz_out"] += len(result.data)

    def trunc_probe(args, result, exc):
        if isinstance(exc, fusion.TruncationOverflow):
            counts["fusion.trunc_product.overflow"] += 1

    tracer.install_method("cyclo.mul", cyclo.CycNumber, "__mul__", mul_probe)
    tracer.install_method("cyclo.inv", cyclo.CycNumber, "inv", inv_probe)
    tracer.install_method("cyclo.add", cyclo.CycNumber, "__add__")
    tracer.install_method("cyclo.add", cyclo.CycNumber, "__sub__")
    tracer.install_method("cyclo.field.build", cyclo.FieldContext,
                          "__init__")
    tracer.install_function("tldiag.compose", tldiag.compose, compose_probe)
    tracer.install_function("tldiag.jones_wenzl", tldiag.jones_wenzl,
                            morphism_probe)
    tracer.install_function("tldiag.tensor", tldiag.tensor, morphism_probe)
    tracer.install_method("qrep.matrix_mul", qrep.Matrix, "mul",
                          matrix_probe)
    for name in ("twist_inverse", "braiding", "peel_strings",
                 "decompose_character"):
        tracer.install_function(f"qrep.{name}", getattr(qrep, name))
    tracer.install_function("fusion.ring_build", fusion.uq_ring)
    tracer.install_function("fusion.ring_build", fusion.wp_ring)
    tracer.install_method("fusion.trunc_product", fusion.TruncatedRing,
                          "product", trunc_probe)
    tracer.install_function("fusion.fpdim", fusion.fpdim_object)
    tracer.install_function("fusion.fpdim", fusion.fpdim_category)
    tracer.install_function("ribbon.monodromy", ribbon.monodromy)
    tracer.install_function("ribbon.muger", ribbon.muger_candidates)
    tracer.install_function("ribbon.uq_twists", ribbon.uq_twists)
    tracer.install_function("cli.parse", cli.parse)
    tracer.install_function("cli.evaluate", cli.evaluate)
    tracer.install_function("cli.main", cli.main)


def metrics(tracer: Tracer, speed: float) -> tuple[dict, dict]:
    """Per-layer metric values (all but the overhead ratio), and totals.

    Times are scaled by ``speed``, the pass's mean speed relative to the
    reference (speed.py), so that they add up to the normalised run_s;
    the totals stay in program seconds.
    """
    summary = tracer.summarize()
    calls, self_s = summary["calls"], summary["self_s"]
    counts = tracer.counts
    out = {}
    for name, _ in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(stem, 0)
        elif field == "self_s":
            out[name] = self_s.get(stem, 0.0)
    out["cyclo.mul.monomial_share"] = _share(
        counts["cyclo.mul.monomial"], calls.get("cyclo.mul", 0))
    out["cyclo.inv.distinct_share"] = _share(
        len(tracer.distinct["cyclo.inv"]), calls.get("cyclo.inv", 0))
    out["cyclo.inv.monomial_share"] = _share(
        counts["cyclo.inv.monomial"], calls.get("cyclo.inv", 0))
    out["cyclo.field.build_s"] = self_s.get("cyclo.field.build", 0.0)
    out["tldiag.compose.term_pairs"] = int(
        counts["tldiag.compose.term_pairs"])
    out["tldiag.peak_terms"] = tracer.peaks["tldiag.terms"]
    out["qrep.matrix_mul.nnz_out"] = int(counts["qrep.matrix_mul.nnz_out"])
    out["fusion.trunc_product.overflow_share"] = _share(
        counts["fusion.trunc_product.overflow"],
        calls.get("fusion.trunc_product", 0))
    out["cli.glue_s"] = self_s.get("cli.main", 0.0)
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] *= speed
    totals = {
        "spans": summary["spans"],
        "root_s": summary["root_s"],
        "self_total_s": sum(self_s.values()),
    }
    return out, totals
