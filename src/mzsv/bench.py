"""Summation-strategy benchmark.

The truncation suite runs a fixed workload set under each applicable
strategy (direct stagnation, analytic tail correction, alternating
acceleration) and reports terms used, wall time, and the achieved error
against a double-precision-digits reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from .chains import ChainEvaluator, Level, Pow
from .context import PrecisionContext
from .errors import ConvergenceError
from .hypergeom import specialized_lhs

CSV_HEADER = "workload,strategy,terms,elapsed_ms,abs_err"


@dataclass
class BenchRow:
    workload: str
    strategy: str
    terms: int
    elapsed_ms: float
    abs_err: object  # mpf
    met_tol: bool

    def csv_fields(self, mp):
        return (self.workload, self.strategy, str(self.terms),
                f"{self.elapsed_ms:.3f}", mp.nstr(self.abs_err, 6))


def _star_chain(parts, alternating=False):
    """Workload: the zeta-star chain of `parts`, summed under one strategy."""
    def run(ctx, tol, strategy):
        chain = ChainEvaluator(ctx, [Level(pows=(Pow(k),)) for k in parts],
                               t_start=1, alternating=alternating)
        val, info = chain.run(tol, corrections=(strategy == "tail_corrected"))
        return val, info["terms"]
    return run


def _special_lhs_a1(ctx, tol, strategy):
    ev = specialized_lhs("a1", "1.3", 2, ctx, tol=tol)
    return ev.value.mpf, ev.diagnostics.terms_used


# (name, run(ctx, tol, strategy) -> (value_mpf, terms), strategies); every
# run builds fresh state
_WORKLOADS = (
    ("mzsv(1,2)", _star_chain((1, 2)), ("direct", "tail_corrected")),
    ("mzsv(2,2,2)", _star_chain((2, 2, 2)), ("direct", "tail_corrected")),
    ("alt_mzsv(1,2)", _star_chain((1, 2), alternating=True),
     ("alternating_accelerated",)),
    ("special_lhs(a1,1.3,2)", _special_lhs_a1, ("alternating_accelerated",)),
)


def run_truncation_suite(digits: int, tol, max_terms: int = 32_000_000) -> List[BenchRow]:
    """Compare summation strategies on the fixed workloads at one tolerance."""
    ctx = PrecisionContext(digits=digits, max_terms=max_terms)
    ref_ctx = PrecisionContext(digits=2 * digits, max_terms=4 * max_terms)
    mp = ctx.mp
    tolm = mp.mpf(tol)
    rows: List[BenchRow] = []
    for name, run, strategies in _WORKLOADS:
        ref_tol = ref_ctx.mp.mpf(tol) * ref_ctx.mp.mpf("1e-6")
        ref_strategy = ("alternating_accelerated"
                        if "alternating_accelerated" in strategies
                        else "tail_corrected")
        ref_val, _ = run(ref_ctx, ref_tol, ref_strategy)
        reference = mp.mpf(ref_val)
        for strategy in strategies:
            start = time.perf_counter()
            try:
                val, terms = run(ctx, tolm, strategy)
                err = abs(val - reference)
                met = err <= tolm
            except ConvergenceError:
                val, terms, err, met = mp.nan, max_terms, mp.inf, False
            elapsed = (time.perf_counter() - start) * 1000
            rows.append(BenchRow(name, strategy, terms, elapsed, err, met))
    return rows


def format_table(rows: List[BenchRow], mp) -> str:
    lines = [f"{'workload':26s} {'strategy':26s} {'terms':>10s} "
             f"{'elapsed_ms':>12s} {'abs_err':>12s} met_tol"]
    for r in rows:
        lines.append(f"{r.workload:26s} {r.strategy:26s} {r.terms:>10d} "
                     f"{r.elapsed_ms:>12.3f} {mp.nstr(r.abs_err, 4):>12s} "
                     f"{'yes' if r.met_tol else 'NO'}")
    return "\n".join(lines)
