"""Command-line surface: eval, verify, list, bench.

Exit codes: 0 success / all verified, 1 verification failure, 2 usage or
domain error, 3 convergence failure. All numeric output is plain decimal
text (no exponent notation below 10^6), so reports diff cleanly.

The default precision comes from MZSV_DEFAULT_PREC (decimal digits) and is
overridden by --prec.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import __version__, bench, finite_sums, hypergeom, identities, series
from .context import PrecisionContext
from .errors import (ConditionError, ConfigurationError, ConvergenceError,
                     DomainError, MzsvError, ParseError)
from .indices import parse_index
from .numerics import gamma

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3

EVAL_KINDS = ("zeta", "eta", "mzv", "mzsv", "alt-mzsv", "finite-strict",
              "finite-star", "pochhammer", "gamma", "pfq", "kr-rhs-i",
              "kr-rhs-ii", "special-lhs", "special-rhs")


def _default_prec() -> int:
    env = os.environ.get("MZSV_DEFAULT_PREC")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(
                f"MZSV_DEFAULT_PREC={env!r} is not an integer")
    return 30


def _context(args) -> PrecisionContext:
    digits = args.prec if args.prec else _default_prec()
    tol = getattr(args, "tol", None)
    return PrecisionContext(digits=digits, tol=tol)


def _parse_reals(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_int_range(text: str) -> List[int]:
    """'1..4' -> [1,2,3,4]; '1,3,5' -> [1,3,5]; '2' -> [2]."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mzsv",
        description="High-precision evaluation and verification workbench for "
                    "multiple zeta-star values, Euler sums and hypergeometric "
                    "identities.")
    ap.add_argument("--version", action="version", version=f"mzsv {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one quantity")
    pe.add_argument("kind", choices=EVAL_KINDS)
    pe.add_argument("args", nargs="*",
                    help="positional arguments (index text or numbers)")
    pe.add_argument("--prec", type=int, default=0, help="output decimal digits")
    pe.add_argument("--m", type=int, default=None, help="finite-sum bound")
    pe.add_argument("--s", type=int, default=None)
    pe.add_argument("--r", type=int, default=None)
    pe.add_argument("--alpha", default=None)
    pe.add_argument("--z", type=int, default=None, choices=(1, -1))
    pe.add_argument("--upper", default=None, help="comma-separated upper parameters")
    pe.add_argument("--lower", default=None, help="comma-separated lower parameters")
    pe.add_argument("--a", default=None)
    pe.add_argument("--b", default=None, help="comma-separated list")
    pe.add_argument("--c", default=None, help="comma-separated list")
    pe.add_argument("--c0", default=None)

    pv = sub.add_parser("verify", help="verify identities on a parameter grid")
    pv.add_argument("target", help="identity id, glob pattern, or 'all'")
    pv.add_argument("--s", default=None, help="range like 1..4 or list 1,2")
    pv.add_argument("--r", default=None)
    pv.add_argument("--m", default=None)
    pv.add_argument("--alpha", default=None, help="comma-separated values")
    pv.add_argument("--variant", default=None, help="comma-separated variants")
    pv.add_argument("--prec", type=int, default=0)
    pv.add_argument("--tol", default="1e-9",
                    help="verification tolerance (default 1e-9)")
    pv.add_argument("--json", dest="json_path", default=None,
                    help="write the full report to this path")

    sub.add_parser("list", help="list the identity registry")

    pb = sub.add_parser("bench", help="benchmark summation strategies")
    pb.add_argument("--suite", choices=("truncation",),
                    default="truncation")
    pb.add_argument("--prec", type=int, default=0)
    pb.add_argument("--tol", default="1e-5")
    pb.add_argument("--csv", dest="csv_path", default=None)
    return ap


# -- eval -------------------------------------------------------------------------

def _require(args_list, n, usage):
    if len(args_list) != n:
        raise ParseError(f"expected {usage}")
    return args_list


def cmd_eval(args) -> int:
    ctx = _context(args)
    kind = args.kind
    pos = args.args
    if kind == "zeta":
        (k,) = _require(pos, 1, "eval zeta K")
        value = series.zeta(ctx.real(k), ctx)
    elif kind == "eta":
        (k,) = _require(pos, 1, "eval eta K")
        value = series.eta_shifted(int(k), ctx)
    elif kind in ("mzv", "mzsv", "alt-mzsv"):
        (text,) = _require(pos, 1, f"eval {kind} INDEX")
        ix = parse_index(text)
        fn = {"mzv": series.mzv, "mzsv": series.mzsv,
              "alt-mzsv": series.alt_mzsv}[kind]
        value = fn(ix, ctx).value
    elif kind in ("finite-strict", "finite-star"):
        (text,) = _require(pos, 1, f"eval {kind} INDEX --m M")
        if args.m is None:
            raise ParseError("finite sums need --m")
        ix = parse_index(text)
        fn = finite_sums.strict_sum if kind == "finite-strict" else finite_sums.star_sum
        value = fn(ix, args.m, ctx)
    elif kind == "pochhammer":
        a, m = _require(pos, 2, "eval pochhammer A M")
        value = finite_sums.pochhammer(a, int(m), ctx)
    elif kind == "gamma":
        (x,) = _require(pos, 1, "eval gamma X")
        value = gamma(x, ctx)
    elif kind == "pfq":
        if not args.upper or not args.lower or args.z is None:
            raise ParseError("eval pfq needs --upper, --lower and --z")
        value = hypergeom.pfq(_parse_reals(args.upper), _parse_reals(args.lower),
                              args.z, ctx)
    elif kind in ("kr-rhs-i", "kr-rhs-ii"):
        if args.s is None or args.a is None or not args.b or not args.c:
            raise ParseError(f"eval {kind} needs --s, --a, --b and --c")
        if kind == "kr-rhs-i":
            params = hypergeom.KRParamsI(s=args.s, a=args.a,
                                         b=tuple(_parse_reals(args.b)),
                                         c=tuple(_parse_reals(args.c)))
            value = hypergeom.kr_rhs_i(params, ctx).value
        else:
            if args.c0 is None:
                raise ParseError("eval kr-rhs-ii needs --c0")
            params = hypergeom.KRParamsII(s=args.s, a=args.a, c0=args.c0,
                                          b=tuple(_parse_reals(args.b)),
                                          c=tuple(_parse_reals(args.c)))
            value = hypergeom.kr_rhs_ii(params, ctx).value
    else:  # special-lhs / special-rhs
        (case,) = _require(pos, 1, f"eval {kind} CASE --alpha A --s S")
        if args.alpha is None or args.s is None:
            raise ParseError(f"eval {kind} needs --alpha and --s")
        fn = (hypergeom.specialized_lhs if kind == "special-lhs"
              else hypergeom.specialized_rhs)
        value = fn(case.lower(), args.alpha, args.s, ctx,
                   relax=identities.RELAX).value
    print(value.decimal(ctx.digits))
    return EXIT_OK


# -- verify -----------------------------------------------------------------------

def _result_record(res, ctx) -> dict:
    record = {
        "id": res.id,
        "params": {k: (v if isinstance(v, int) else str(v))
                   for k, v in res.params.items()},
        "lhs": res.lhs_value.decimal(),
        "rhs": res.rhs_value.decimal(),
        "abs_diff": res.abs_diff.decimal(),
        "tolerance": res.tolerance.decimal(),
        "pass": bool(res.passed),
        "terms_used": max(res.lhs_diag.terms_used, res.rhs_diag.terms_used),
        "tail_correction": (res.lhs_diag.tail_correction
                            + res.rhs_diag.tail_correction).decimal(),
        "elapsed_ms": f"{res.elapsed_s * 1000:.3f}",
    }
    if res.error:
        record["error"] = res.error
    return record


def build_report(results, ctx) -> dict:
    passed = sum(1 for r in results if r.passed)
    return {
        "tool": {"name": "mzsv", "version": __version__},
        "context": {"digits": ctx.digits, "tol": ctx.mp.nstr(ctx.tol, 3)},
        "results": [_result_record(r, ctx) for r in results],
        "summary": {"total": len(results), "passed": passed,
                    "failed": len(results) - passed},
    }


def _params_text(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(params.items())) or "-"


def cmd_verify(args) -> int:
    ctx = _context(args)
    grid = {}
    for name in ("s", "r", "m"):
        raw = getattr(args, name)
        if raw is not None:
            grid[name] = _parse_int_range(raw)
    if args.alpha is not None:
        grid["alpha"] = _parse_reals(args.alpha)
    if args.variant is not None:
        grid["variant"] = _parse_reals(args.variant)
    target = args.target
    pattern = "*" if target == "all" else target
    if target != "all" and not any(ch in target for ch in "*?["):
        identities.get_identity(target)  # unknown id -> usage error
    results = identities.verify_suite(pattern, grid or None, ctx)
    mp = ctx.mp
    print(f"{'identity':22s} {'params':28s} {'|lhs-rhs|':>12s} "
          f"{'tolerance':>12s} {'ms':>9s} status")
    for r in results:
        status = "PASS" if r.passed else ("ERROR" if r.error else "FAIL")
        print(f"{r.id:22s} {_params_text(r.params):28s} "
              f"{mp.nstr(r.abs_diff.mpf, 4):>12s} "
              f"{mp.nstr(r.tolerance.mpf, 4):>12s} "
              f"{r.elapsed_s * 1000:>9.1f} {status}"
              + (f"  ({r.error})" if r.error else ""))
    passed = sum(1 for r in results if r.passed)
    print(f"summary: {passed}/{len(results)} passed")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(build_report(results, ctx), fh, indent=2)
        print(f"report written to {args.json_path}")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY_FAILED


def cmd_list(_args) -> int:
    for desc in identities.list_identities():
        print(f"{desc.id:22s} | {desc.anchor:34s} | {desc.schema_text():44s} "
              f"| grid: {desc.grid_text()}")
    return EXIT_OK


def cmd_bench(args) -> int:
    digits = args.prec if args.prec else _default_prec()
    ctx_mp = PrecisionContext(digits=digits).mp
    rows = bench.run_truncation_suite(digits, args.tol)
    print(bench.format_table(rows, ctx_mp))
    if args.csv_path:
        import csv as csv_mod
        with open(args.csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv_mod.writer(fh)
            writer.writerow(bench.CSV_HEADER.split(","))
            for r in rows:
                writer.writerow(r.csv_fields(ctx_mp))
        print(f"csv written to {args.csv_path}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"eval": cmd_eval, "verify": cmd_verify,
                   "list": cmd_list, "bench": cmd_bench}[args.command]
        return handler(args)
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ParseError, DomainError, ConfigurationError, ConditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MzsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
