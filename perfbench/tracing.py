"""Per-layer tracing from outside the program.

The tracer replaces public callables at the module or class attribute each
caller looks up (``mzsv.chains.nested_chain_advance``, not
``mzsv.kernels.nested_chain_advance``, because ``chains`` binds the kernel at
import) with a wrapper that records a nested span. Nothing in the package
changes; ``uninstall`` puts every original back.

Spans live in memory as tuples and are written once, after the timed pass.
A span's self time is its duration minus the durations of its direct child
spans, so every nanosecond of a traced pass lands in exactly one layer (or
in the benchmark's own code when no span is open).
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns


class _Agg:
    __slots__ = ("calls", "self_ns", "counts")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.counts = {}


class Tracer:
    """Span recorder with wrappers installed on the package's call sites."""

    def __init__(self, clock=None):
        self.clock = clock          # ItemClock: names the request a span serves
        self.spans = []             # (span_id, parent_id, name, item, start_ns, end_ns)
        self.aggs = {}
        self._stack = []            # [name, start_ns, child_ns, span_id]
        self._next_id = 1
        self._patched = []
        self.distinct_series = set()
        self.series_calls = 0

    # -- recording -----------------------------------------------------------
    def _exit(self, frame, end):
        name, start, child, span_id = frame
        dur = end - start
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        agg = self._agg(name)
        agg.calls += 1
        agg.self_ns += dur - child
        item = self.clock.current if self.clock is not None else -1
        self.spans.append((span_id, parent[3] if parent else 0, name, item,
                           start, end))

    def _agg(self, name):
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
        return agg

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a span-recording wrapper.

        count(agg, args, kwargs, result) may add work counts to agg.counts;
        it runs inside the span, so its cost lands in the layer it counts.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0, 0, tracer._next_id]
            tracer._next_id += 1
            tracer._stack.append(frame)
            frame[1] = _now()
            try:
                result = orig(*args, **kwargs)
                if count is not None:
                    count(tracer._agg(name), args, kwargs, result)
            finally:
                end = _now()
                tracer._stack.pop()
                tracer._exit(frame, end)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write_spans(self, path):
        """Write the span list as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, item, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "item": item,
                                     "start_ns": start, "end_ns": end}))
                fh.write("\n")


def wrapper_cost_ns(n=20000):
    """Measured cost of one span (wrapper enter plus exit, and a work count)
    around a no-op."""
    class Box:
        @staticmethod
        def noop():
            return None

    bare = Box.noop
    t0 = _now()
    for _ in range(n):
        bare()
    t_bare = _now() - t0
    probe = Tracer()
    probe.wrap(Box, "noop", "probe",
               lambda agg, args, kwargs, result: _add(agg, "calls", 1))
    wrapped = Box.noop
    t0 = _now()
    for _ in range(n):
        wrapped()
    t_wrapped = _now() - t0
    probe.uninstall()
    return max(0.0, (t_wrapped - t_bare) / n)


# -- counters -----------------------------------------------------------------

def _add(agg, key, value):
    agg.counts[key] = agg.counts.get(key, 0) + value


def _count_nested(agg, args, kwargs, result):
    # nested_chain_advance(level_pows, lr, rn, rd, S, pvals, rvals, t0, t1,
    # ...): one term-level per level per t
    _add(agg, "term_levels", (args[8] - args[7]) * len(args[0]))


def _count_weighted(agg, args, kwargs, result):
    # weighted_chain_advance(r, p, S, svals, tvals, accbox, t0, t1, ...):
    # r + 1 harmonic prefix levels per t
    _add(agg, "term_levels", (args[7] - args[6]) * (args[0] + 1))


def _count_sumtail(agg, args, kwargs, result):
    _add(agg, "coeffs", len(args[1].coeffs))


def _count_run(agg, args, kwargs, result):
    # ChainEvaluator.run(self, tol, ...) -> (value, info)
    info = result[1]
    _add(agg, "terms", int(info["terms"]))
    tol = args[1] if len(args) > 1 else kwargs["tol"]
    if 2 * float(info["estimate"]) >= float(tol):
        _add(agg, "relaxed", 1)


def _count_pfq(agg, args, kwargs, result):
    _add(agg, "terms", int(result.diagnostics.terms_used))


def _series_key(name, args, kwargs):
    parts = [name]
    for a in list(args) + [kwargs.get("tol")]:
        if hasattr(a, "working_digits"):        # PrecisionContext
            parts.append(("ctx", a.digits, str(a.tol), a.max_terms))
        elif hasattr(a, "parts"):               # Index
            parts.append(tuple(a.parts))
        else:
            parts.append(str(a))
    return tuple(parts)


# -- installation ---------------------------------------------------------------

def install(tracer, mzsv):
    """Wrap every traced call site of the package; returns the tracer."""
    chains, tailcalc, series = mzsv.chains, mzsv.tailcalc, mzsv.series
    hypergeom, numerics = mzsv.hypergeom, mzsv.numerics
    finite_sums, identities, cli = mzsv.finite_sums, mzsv.identities, mzsv.cli
    w = tracer.wrap

    # kernels: bound into chains at import
    w(chains, "nested_chain_advance", "kernels.nested_chain_advance", _count_nested)
    w(chains, "weighted_chain_advance", "kernels.weighted_chain_advance",
      _count_weighted)

    # tail algebra: methods resolve through the class
    w(tailcalc.TailCalc, "sumtail", "tailcalc.sumtail", _count_sumtail)
    for meth in ("mul", "eval_at", "ratio_asymptotics", "pow_weight", "add",
                 "scale", "const"):
        w(tailcalc.TailCalc, meth, f"tailcalc.{meth}")
    # bound into series and numerics at import; hypergeom imports it from
    # tailcalc at call time
    for mod in (series, numerics, tailcalc):
        w(mod, "power_sum_tail", "tailcalc.power_sum_tail")

    # adaptive chain evaluation
    for cls in (chains.ChainEvaluator, chains.WeightedChainEvaluator):
        w(cls, "run", "chains.run", _count_run)
        w(cls, "advance_to", "chains.advance_to")
        w(cls, "tail_correction", "chains.tail_correction")

    # series evaluators, as identities calls them (series.<name>)
    for fn in ("mzv", "mzsv", "alt_mzsv", "weighted_product_series_ex", "zeta",
               "eta_shifted_ex"):
        def count_series(agg, args, kwargs, result, _fn=fn):
            tracer.series_calls += 1
            tracer.distinct_series.add(_series_key(_fn, args, kwargs))
        w(series, fn, "series.evaluate", count_series)

    # hypergeometric layer; pfq_ex is looked up as a global inside hypergeom
    w(hypergeom, "pfq_ex", "hypergeom.pfq", _count_pfq)
    for fn in ("kr_rhs_i", "kr_rhs_ii"):
        w(hypergeom, fn, "hypergeom.kr_rhs")
    for fn in ("kr_lhs_i", "kr_lhs_ii", "specialized_lhs", "specialized_rhs"):
        w(hypergeom, fn, "hypergeom.other")

    # numerics: gamma and the averaging windows are bound into their callers
    for mod in (hypergeom, numerics):
        w(mod, "gamma", "numerics.gamma")
    for mod in (chains, hypergeom, numerics):
        w(mod, "_iterated_means", "numerics.iterated_means")
    w(identities, "derivative_at", "numerics.derivative_at")

    # finite sums, as identities and the workloads call them
    for fn in ("star_sum", "strict_sum", "pochhammer",
               "dr_inv_pochhammer_2minus_at1", "dr_ratio_at1_forms"):
        w(finite_sums, fn, "finite_sums.call")

    # glue
    w(identities, "verify", "identities.verify")
    w(identities, "verify_suite", "identities.verify_suite")
    w(cli, "build_report", "cli.build_report")
    return tracer


def _spans(aggs, key):
    """Aggregates of span `key`, or of every span under `key` if it ends in '.'."""
    if key.endswith("."):
        return [a for n, a in aggs.items() if n.startswith(key)]
    return [aggs[key]] if key in aggs else []


def _self_s(aggs, key):
    return sum(a.self_ns for a in _spans(aggs, key)) / 1e9


def _calls(aggs, key):
    return sum(a.calls for a in _spans(aggs, key))


def _count(aggs, key, counter):
    return sum(a.counts.get(counter, 0) for a in _spans(aggs, key))


def layer_metrics(tracer):
    """Per-layer metrics (name -> value) from one traced pass."""
    a = tracer.aggs
    kernel_s = _self_s(a, "kernels.")
    term_levels = _count(a, "kernels.", "term_levels")
    calls = tracer.series_calls
    return {
        "kernels.calls": _calls(a, "kernels."),
        "kernels.term_levels": term_levels,
        "kernels.self_s": kernel_s,
        "kernels.ns_per_term_level": kernel_s * 1e9 / term_levels if term_levels else 0.0,
        "tailcalc.sumtail.calls": _calls(a, "tailcalc.sumtail"),
        "tailcalc.sumtail.coeffs": _count(a, "tailcalc.sumtail", "coeffs"),
        "tailcalc.sumtail.self_s": _self_s(a, "tailcalc.sumtail"),
        "tailcalc.mul.self_s": _self_s(a, "tailcalc.mul"),
        "tailcalc.eval_at.self_s": _self_s(a, "tailcalc.eval_at"),
        "tailcalc.ratio_asymptotics.self_s": _self_s(a, "tailcalc.ratio_asymptotics"),
        "tailcalc.self_s": _self_s(a, "tailcalc."),
        "chains.evals": _calls(a, "chains.run"),
        "chains.checkpoints": _calls(a, "chains.advance_to"),
        "chains.terms": _count(a, "chains.run", "terms"),
        "chains.relaxed": _count(a, "chains.run", "relaxed"),
        "chains.tail_correction.self_s": _self_s(a, "chains.tail_correction"),
        "chains.self_s": _self_s(a, "chains."),
        "series.calls": calls,
        "series.distinct_ratio": len(tracer.distinct_series) / calls if calls else 0.0,
        "hypergeom.pfq.calls": _calls(a, "hypergeom.pfq"),
        "hypergeom.pfq.terms": _count(a, "hypergeom.pfq", "terms"),
        "hypergeom.pfq.self_s": _self_s(a, "hypergeom.pfq"),
        "hypergeom.kr_rhs.self_s": _self_s(a, "hypergeom.kr_rhs"),
        "hypergeom.self_s": _self_s(a, "hypergeom."),
        "numerics.gamma.calls": _calls(a, "numerics.gamma"),
        "numerics.gamma.self_s": _self_s(a, "numerics.gamma"),
        "numerics.iterated_means.self_s": _self_s(a, "numerics.iterated_means"),
        "numerics.self_s": _self_s(a, "numerics."),
        "finite_sums.self_s": _self_s(a, "finite_sums."),
        "identities.verify.self_s": _self_s(a, "identities.verify"),
        "cli.build_report.self_s": _self_s(a, "cli.build_report"),
        "trace.spans": len(tracer.spans),
    }


# Counts that must repeat exactly across runs with one seed.
EXACT_COUNTS = ("kernels.calls", "kernels.term_levels", "tailcalc.sumtail.calls",
                "tailcalc.sumtail.coeffs", "chains.evals", "chains.checkpoints",
                "chains.terms", "chains.relaxed", "series.calls",
                "hypergeom.pfq.calls", "hypergeom.pfq.terms",
                "numerics.gamma.calls", "trace.spans")
