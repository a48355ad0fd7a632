"""Command-line surface: eval, verify, list, bench.

Exit codes: 0 success / all verified, 1 verification failure, 2 usage or
domain error, 3 convergence failure. All numeric output is plain decimal
text (no exponent notation below 10^6), so reports diff cleanly.

The default precision comes from MZSV_DEFAULT_PREC (decimal digits) and is
overridden by --prec.

Each command imports the layers it runs, so that ``eval finite-star`` does
not load the series, hypergeometric or identity layers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from typing import List, Optional

from . import __version__, finite_sums
from .context import EXPONENT_MAX, PrecisionContext, _echo
from .errors import ConfigurationError, ConvergenceError, MzsvError, ParseError
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
    digits = args.prec if args.prec is not None else _default_prec()
    tol = getattr(args, "tol", None)
    if tol is None and args.command == "verify":
        tol = f"1e-{digits - 5}"  # five digits below the output precision
    return PrecisionContext(digits=digits, tol=tol)


def _parse_reals(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{_echo(text)} is not an integer") from None


def _parse_int_range(text: str) -> List[int]:
    """'1..4' -> [1,2,3,4]; '1,3,5' -> [1,3,5]; '2' -> [2]; never empty."""
    text = text.strip()
    if ".." in text:
        lo, hi = (_parse_int(x) for x in text.split("..", 1))
        if hi - lo >= EXPONENT_MAX:  # before the list is built
            raise ConfigurationError(f"range {_echo(text)} has more than {EXPONENT_MAX} values")
        values = list(range(lo, hi + 1))
    else:
        values = [_parse_int(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ConfigurationError(f"range {_echo(text)} is empty")
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mzsv",
        description="High-precision evaluation and verification workbench for "
                    "multiple zeta-star values, Euler sums and hypergeometric "
                    "identities.")
    ap.add_argument("--version", action="version", version=f"mzsv {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one quantity")
    # argparse reads "-1/3" or "-1e-5" as an option unless it matches this
    # pattern; no eval option starts with a digit, so any such word is a number
    pe._negative_number_matcher = re.compile(r"-\.?\d")
    pe.add_argument("kind", choices=EVAL_KINDS)
    pe.add_argument("args", nargs="*",
                    help="positional arguments (index text or numbers)")
    pe.add_argument("--prec", type=int, default=None, help="output decimal digits")
    pe.add_argument("--m", type=int, default=None, help="finite-sum bound")
    pe.add_argument("--s", type=int, default=None)
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
    pv.add_argument("--prec", type=int, default=None)
    pv.add_argument("--tol", default=None,
                    help="verification tolerance (default 10^-(digits-5), "
                         "1e-25 at 30 digits)")
    pv.add_argument("--json", dest="json_path", default=None,
                    help="write the full report to this path")

    sub.add_parser("list", help="list the identity registry")

    pb = sub.add_parser("bench", help="benchmark summation strategies")
    pb.add_argument("--suite", choices=("truncation",),
                    default="truncation")
    pb.add_argument("--prec", type=int, default=None)
    pb.add_argument("--tol", default="1e-5")
    pb.add_argument("--csv", dest="csv_path", default=None)
    return ap


# -- eval -------------------------------------------------------------------------

def _require(args_list, n, usage):
    if len(args_list) != n:
        raise ParseError(f"expected {usage}")
    return args_list


def _open_output(path: str, newline: Optional[str] = None):
    """Open an output file before the run, so that an unwritable path is a
    usage error at once, not a traceback after the whole run."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_eval(args) -> int:
    ctx = _context(args)
    kind = args.kind
    pos = args.args
    if kind == "zeta":
        from . import series
        (k,) = _require(pos, 1, "eval zeta K")
        value = series.zeta(ctx.real(k), ctx)
    elif kind == "eta":
        from . import series
        (k,) = _require(pos, 1, "eval eta K")
        value = series.eta_shifted(_parse_int(k), ctx)
    elif kind in ("mzv", "mzsv", "alt-mzsv"):
        from . import series
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
        value = finite_sums.pochhammer(a, _parse_int(m), ctx)
    elif kind == "gamma":
        (x,) = _require(pos, 1, "eval gamma X")
        value = gamma(x, ctx)
    elif kind == "pfq":
        from . import hypergeom
        if not args.upper or not args.lower or args.z is None:
            raise ParseError("eval pfq needs --upper, --lower and --z")
        value = hypergeom.pfq(_parse_reals(args.upper), _parse_reals(args.lower),
                              args.z, ctx)
    elif kind in ("kr-rhs-i", "kr-rhs-ii"):
        from . import hypergeom
        ii = kind == "kr-rhs-ii"
        if (args.s is None or args.a is None or not args.b or not args.c
                or ii and args.c0 is None):
            raise ParseError(f"eval {kind} needs --s, --a, --b, --c"
                             + (" and --c0" if ii else ""))
        cls, extra = ((hypergeom.KRParamsII, {"c0": args.c0}) if ii
                      else (hypergeom.KRParamsI, {}))
        params = cls(s=args.s, a=args.a, b=tuple(_parse_reals(args.b)),
                     c=tuple(_parse_reals(args.c)), **extra)
        value = getattr(hypergeom, kind.replace("-", "_"))(params, ctx).value
    else:  # special-lhs / special-rhs
        from . import hypergeom
        (case,) = _require(pos, 1, f"eval {kind} CASE --alpha A --s S")
        if args.alpha is None or args.s is None:
            raise ParseError(f"eval {kind} needs --alpha and --s")
        fn = (hypergeom.specialized_lhs if kind == "special-lhs"
              else hypergeom.specialized_rhs)
        value = fn(case.lower(), args.alpha, args.s, ctx).value
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


def cmd_verify(args) -> int:
    from . import identities
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
    with (_open_output(args.json_path) if args.json_path is not None
          else contextlib.nullcontext()) as fh:
        results = identities.verify_suite(pattern, grid or None, ctx)
        passed = _print_results(results, ctx)
        if fh is not None:
            json.dump(build_report(results, ctx), fh, indent=2)
    if fh is not None:
        print(f"report written to {args.json_path}")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY_FAILED


def _print_results(results, ctx) -> int:
    """Print the verification table and summary; returns the pass count."""
    from .identities import params_text
    mp = ctx.mp
    print(f"{'identity':22s} {'params':28s} {'|lhs-rhs|':>12s} "
          f"{'tolerance':>12s} {'ms':>9s} status")
    for r in results:
        status = "PASS" if r.passed else ("ERROR" if r.error else "FAIL")
        print(f"{r.id:22s} {params_text(r.params):28s} "
              f"{mp.nstr(r.abs_diff.mpf, 4):>12s} "
              f"{mp.nstr(r.tolerance.mpf, 4):>12s} "
              f"{r.elapsed_s * 1000:>9.1f} {status}"
              + (f"  ({r.error})" if r.error else ""))
    passed = sum(1 for r in results if r.passed)
    print(f"summary: {passed}/{len(results)} passed")
    return passed


def cmd_list(_args) -> int:
    from . import identities
    for desc in identities.list_identities():
        print(f"{desc.id:22s} | {desc.anchor:34s} | {desc.schema_text():44s} "
              f"| grid: {desc.grid_text()}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench
    digits = args.prec if args.prec is not None else _default_prec()
    # the context checks --tol before any run
    ctx_mp = PrecisionContext(digits=digits, tol=args.tol).mp
    with (_open_output(args.csv_path, newline="") if args.csv_path is not None
          else contextlib.nullcontext()) as fh:
        rows = bench.run_truncation_suite(digits, args.tol)
        print(bench.format_table(rows, ctx_mp))
        if fh is not None:
            import csv as csv_mod
            writer = csv_mod.writer(fh)
            writer.writerow(bench.CSV_HEADER.split(","))
            for r in rows:
                writer.writerow(r.csv_fields(ctx_mp))
    if fh is not None:
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
    except MzsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
