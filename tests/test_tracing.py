"""The benchmark's tracer (perfbench/tracing.py) wraps package attributes by
name; this fails when a refactor removes or renames one of them."""

import importlib.util
import sys
from pathlib import Path

import mzsv
import mzsv.cli  # noqa: F401  (the benchmark worker imports it too)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_on_every_name_and_uninstalls(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, mzsv)
        patched = list(tracer._patched)
        assert patched
        assert all(_current(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.uninstall()
    assert all(_current(owner, attr) is orig for owner, attr, orig in patched)


def test_worker_facts_resolve():
    # perfbench/worker.py reports the mpmath build through mzsv.context
    assert mzsv.context.mpmath.__version__
    assert mzsv.context.mpmath.libmp.BACKEND


def test_tracer_counts_alternating_kernel_work(monkeypatch):
    # the tracer reads the kernels' t0/t1 by position (args[7]/args[8] of
    # nested_chain_advance, args[6]/args[7] of weighted_chain_advance); an
    # alternating run must count terms x levels like any other
    tracing = _load_tracing(monkeypatch)
    runs = [
        (lambda ctx: mzsv.series.alt_mzsv(mzsv.Index((1, 2)), ctx), 2),
        (lambda ctx: mzsv.series.weighted_product_series_ex(3, 2, True, ctx), 3 + 1),
    ]
    for evaluate, levels in runs:
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer, mzsv)
            ev = evaluate(mzsv.PrecisionContext(30))
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer)
        assert metrics["kernels.term_levels"] == ev.diagnostics.terms_used * levels


def test_tracer_counts_fractional_and_ratio_chains(monkeypatch):
    # chains whose kernel arguments carry exact fractional shifts (a, k, b)
    # and ratio factors (A, L): the tracer still reads the level count and
    # t0/t1 by position
    tracing = _load_tracing(monkeypatch)
    hg = mzsv.hypergeom
    runs = [
        # one level: 1/(t+1)^3 times the ratio (1.3)_t / (0.7)_{t+1}
        (lambda ctx: hg.specialized_lhs("a4", "1.3", 2, ctx), 1),
        # one level 1/(t+3/5)^4, alternating
        (lambda ctx: hg.specialized_lhs("a1", "0.6", 2, ctx), 1),
        # a ratio level with 1/(t+3/5), then 1/(t+3/5)^2
        (lambda ctx: hg.specialized_rhs("a1", "0.6", 2, ctx), 2),
    ]
    for evaluate, levels in runs:
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer, mzsv)
            ev = evaluate(mzsv.PrecisionContext(30))
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer)
        assert metrics["kernels.term_levels"] == ev.diagnostics.terms_used * levels


def test_traced_checkpoint_layers_see_every_checkpoint(monkeypatch):
    # the tracer times the checkpoint glue under chains.tail_correction and
    # tailcalc.eval_at: every checkpoint of a run must go through both names,
    # one tail correction per kernel advance, on a fresh context (a memo hit
    # advances nothing)
    tracing = _load_tracing(monkeypatch)
    hg, series = mzsv.hypergeom, mzsv.series
    runs = [
        lambda ctx: series.mzsv(mzsv.Index((1, 2)), ctx),
        lambda ctx: series.alt_mzsv(mzsv.Index((2,)), ctx),
        lambda ctx: hg.specialized_rhs("a1", "0.6", 2, ctx),
        lambda ctx: series.weighted_product_series_ex(2, 2, False, ctx),
    ]
    for evaluate in runs:
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer, mzsv)
            evaluate(mzsv.PrecisionContext(30))
        finally:
            tracer.uninstall()
        aggs = tracer.aggs
        advances = aggs["chains.advance_to"].calls
        assert advances >= 2
        assert aggs["chains.tail_correction"].calls == advances
        assert aggs["tailcalc.eval_at"].calls >= 1


def test_tracer_wraps_every_public_tail_method(monkeypatch):
    # tail work outside a wrapped TailCalc method would be timed as
    # chains.tail_correction instead of tailcalc.self_s
    tracing = _load_tracing(monkeypatch)
    public = {name for name, value in vars(mzsv.tailcalc.TailCalc).items()
              if callable(value) and not name.startswith("_")}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, mzsv)
        wrapped = {attr for owner, attr, _ in tracer._patched
                   if owner is mzsv.tailcalc.TailCalc}
    finally:
        tracer.uninstall()
    assert public and public <= wrapped


def test_traced_registry_pass_makes_the_tail_calls_it_should(monkeypatch):
    # a 30-digit verify all --r 0..3: power weights go through pow_weight's
    # passes, so mul is left with the products of a ratio shape and a tail.
    # Its 63 ratio shapes have 35 distinct shift lists, which reduce (shared
    # shifts cancelled, integer-step pairs peeled into power passes) to 31
    # distinct forms; 13 of those telescope completely and the other 18
    # leave 12 distinct remainders, so only 12 run the general recurrence.
    # The 16 harmonic-product evaluators share their segment tails T_0..T_r
    # per (p, sign) on the context, so they take 16 sumtail calls, not 40
    tracing = _load_tracing(monkeypatch)
    recurrences = []
    recurrence = mzsv.tailcalc.TailCalc._ratio_shape
    monkeypatch.setattr(mzsv.tailcalc.TailCalc, "_ratio_shape",
                        lambda self, ns, ds: recurrences.append(ns) or recurrence(self, ns, ds))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, mzsv)
        mzsv.identities.verify_suite("*", {"r": [0, 1, 2, 3]}, mzsv.PrecisionContext(30))
    finally:
        tracer.uninstall()
    calls = {name: tracer.aggs[name].calls
             for name in ("tailcalc.mul", "tailcalc.sumtail", "tailcalc.ratio_asymptotics")}
    assert calls == {"tailcalc.mul": 23, "tailcalc.sumtail": 217,
                     "tailcalc.ratio_asymptotics": 63}
    assert len(recurrences) == 12
