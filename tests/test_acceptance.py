"""Acceptance gate: one test per criterion, each printing a PASS line per
checked case at its stated tolerance. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from pathlib import Path

import pytest

from mzsv import (Index, PrecisionContext, cli, coarsenings, compositions,
                  mzsv, mzv, verify, zeta)
from mzsv import chains
from mzsv.chains import first_checkpoint

from test_series import _admissible_small, _brute_partial, _tail_bound

DATA = Path(__file__).resolve().parent / "data"


def _report(criterion: str, detail: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: the two known families at 1e-12, each case < 5 s ---------------

def test_criterion_01_remark1():
    ctx = PrecisionContext(digits=30, tol=1e-13)
    for ident in ("remark1_even", "remark1_odd"):
        for s in range(1, 6):
            t0 = time.perf_counter()
            res = verify(ident, {"s": s}, ctx)
            dt = time.perf_counter() - t0
            ok = res.passed and res.abs_diff.mpf <= 1e-12 and dt < 5.0
            _report("criterion 1", f"{ident}(s={s}) |diff|="
                    f"{ctx.mp.nstr(res.abs_diff.mpf, 3)} in {dt:.2f}s", ok)


# -- criterion 2: odd-zeta identity at 1e-10, s=1 at 1e-12 ------------------------

def test_criterion_02_eq1():
    ctx = PrecisionContext(digits=30, tol=1e-11)
    for s in range(1, 5):
        res = verify("eq1", {"s": s}, ctx)
        bound = 1e-12 if s == 1 else 1e-10
        ok = res.passed and res.abs_diff.mpf <= bound
        _report("criterion 2", f"eq1(s={s}) |diff|="
                f"{ctx.mp.nstr(res.abs_diff.mpf, 3)} <= {bound}", ok)
    res = verify("eq1", {"s": 1}, ctx)
    want = 3 * zeta(3, ctx).mpf
    _report("criterion 2", "eq1(s=1) reproduces 3*zeta(3)",
            abs(res.lhs_value.mpf - want) <= 1e-12
            and abs(res.rhs_value.mpf - want) <= 1e-12)


# -- criterion 3: cyclic-sum example at 1e-10 + joint consistency ------------------

def test_criterion_03_a2_cyclic():
    ctx = PrecisionContext(digits=30, tol=1e-11)
    for s in range(2, 6):
        res = verify("a2_cyclic", {"s": s}, ctx)
        ok = res.passed and res.abs_diff.mpf <= 1e-10
        _report("criterion 3", f"a2_cyclic(s={s}) |diff|="
                f"{ctx.mp.nstr(res.abs_diff.mpf, 3)}", ok)
    v13 = mzsv(Index((1, 3)), ctx).value.mpf
    want = ctx.mp.mpf(5) / 4 * zeta(4, ctx).mpf
    _report("criterion 3", "zeta-star(1,3) = (5/4) zeta(4) [joint with "
            "remark1_even(2)]", abs(v13 - want) <= 1e-10)


# -- criterion 4: the four specialized identities over the alpha grid --------------

def test_criterion_04_specialized():
    ctx = PrecisionContext(digits=30, tol=1e-10)
    smin = {"a1_specialized": 1, "a2_specialized": 2,
            "a3_specialized": 2, "a4_specialized": 1}
    for ident, lo in smin.items():
        for s in range(lo, 4):
            for alpha in ("0.6", "1.0", "1.3"):
                res = verify(ident, {"s": s, "alpha": alpha}, ctx)
                ok = res.passed and res.abs_diff.mpf <= 1e-9
                _report("criterion 4", f"{ident}(alpha={alpha}, s={s}) "
                        f"|diff|={ctx.mp.nstr(res.abs_diff.mpf, 3)}", ok)


# -- criterion 5: derivative closed forms at 50 digits ------------------------------

def test_criterion_05_derivative_closed_forms():
    ctx = PrecisionContext(digits=50, tol=1e-40)
    rel_bound = ctx.mp.mpf("1e-35")
    for m in range(0, 16):
        for r in range(0, 5):
            for ident in ("eq2_check", "eq5_check"):
                res = verify(ident, {"m": m, "r": r}, ctx)
                scale = max(abs(res.rhs_value.mpf), ctx.mp.mpf("1e-30"))
                ok = res.passed and res.abs_diff.mpf / scale <= rel_bound
                assert ok, (ident, m, r, res.abs_diff.mpf)
    print("[criterion 5] PASS: eq2_check and eq5_check, m <= 15, r <= 4, "
          "relative error <= 1e-35")
    res = verify("a1_prefactor_derivative", {}, ctx)
    _report("criterion 5", "prefactor derivative = -1 +/- 1e-40",
            res.passed and res.abs_diff.mpf <= ctx.mp.mpf("1e-40"))


# -- criterion 6: the harmonic-product identities and their expansions ---------------

def test_criterion_06_eq3_eq4_expansions():
    ctx = PrecisionContext(digits=30, tol=1e-10)
    for r in range(0, 4):
        for s in (2, 3):
            res = verify("eq3", {"r": r, "s": s}, ctx)
            _report("criterion 6", f"eq3(r={r},s={s}) |diff|="
                    f"{ctx.mp.nstr(res.abs_diff.mpf, 3)}",
                    res.passed and res.abs_diff.mpf <= 1e-9)
        for s in (1, 2):
            res = verify("eq4", {"r": r, "s": s}, ctx)
            _report("criterion 6", f"eq4(r={r},s={s}) |diff|="
                    f"{ctx.mp.nstr(res.abs_diff.mpf, 3)}",
                    res.passed and res.abs_diff.mpf <= 1e-9)
    for k in range(4):
        for s in (2, 3):
            res = verify(f"eq3_expansion_r{k}", {"s": s}, ctx)
            _report("criterion 6", f"eq3_expansion_r{k}(s={s})",
                    res.passed and res.abs_diff.mpf <= 1e-9)
        for s in (1, 2):
            res = verify(f"eq4_expansion_r{k}", {"s": s}, ctx)
            _report("criterion 6", f"eq4_expansion_r{k}(s={s})",
                    res.passed and res.abs_diff.mpf <= 1e-9)


# -- criterion 7: the strict-sum form and the two-one rewrites -----------------------

def test_criterion_07_addendum_two_one():
    ctx = PrecisionContext(digits=30, tol=1e-10)
    for r in range(0, 5):
        for s in (2, 3):
            res = verify("addendum_mzv_form", {"r": r, "s": s}, ctx)
            _report("criterion 7", f"addendum_mzv_form(r={r},s={s})",
                    res.passed and res.abs_diff.mpf <= 1e-9)
            res = verify("two_one_eq3", {"r": r, "s": s}, ctx)
            _report("criterion 7", f"two_one_eq3(r={r},s={s})",
                    res.passed and res.abs_diff.mpf <= 1e-9)
        for s in (1, 2):
            res = verify("two_one_eq4", {"r": r, "s": s}, ctx)
            _report("criterion 7", f"two_one_eq4(r={r},s={s})",
                    res.passed and res.abs_diff.mpf <= 1e-9)


# -- criterion 8: the hypergeometric identities on generic and collapsed sets --------

def test_criterion_08_theoremA():
    ctx = PrecisionContext(digits=30, tol=1e-9)
    grids = [("theoremA_i", v, a, 1) for v in ("a1", "a4")
             for a in ("0.6", "1.0", "1.3")]
    grids += [("theoremA_i", "generic", "1.0", 1)]
    grids += [("theoremA_ii", v, a, 2) for v in ("a2", "a3")
              for a in ("0.6", "1.0", "1.3")]
    grids += [("theoremA_ii", "generic", "1.0", 1)]
    for ident, variant, alpha, s in grids:
        res = verify(ident, {"variant": variant, "alpha": alpha, "s": s}, ctx)
        _report("criterion 8", f"{ident}({variant}, alpha={alpha}, s={s}) "
                f"|diff|={ctx.mp.nstr(res.abs_diff.mpf, 3)}",
                res.passed and res.abs_diff.mpf <= 1e-8)


# -- criterion 9: structural property suites ------------------------------------------

def test_criterion_09_property_suites():
    import math

    ctx = PrecisionContext(digits=30, tol=1e-12)
    # counting laws
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert len(compositions(n, k)) == math.comb(n - 1, k - 1)
    print("[criterion 9] PASS: composition counting law, n <= 12")
    cache = {}

    def cached_mzv(parts):
        if parts not in cache:
            cache[parts] = mzv(Index(parts), ctx).value
        return cache[parts]

    failures = 0
    checked = 0
    for parts in _admissible_small(7, 7):
        ix = Index(parts)
        cs = coarsenings(ix)
        assert len(cs) == 2 ** (ix.depth - 1)
        total = ctx.zero()
        for c in cs:
            total = total + cached_mzv(c.parts)
        star = mzsv(ix, ctx).value
        checked += 1
        if abs((star - total).mpf) > 10 * ctx.tol * len(cs):
            failures += 1
    _report("criterion 9", f"coarsening identity on {checked} indices of "
            "weight <= 7", failures == 0)
    failures = 0
    for parts in _admissible_small(5, 3):
        bound = _tail_bound(ctx, parts, 2000)
        for fn, strict in ((mzv, True), (mzsv, False)):
            val = fn(Index(parts), ctx).value.mpf
            ref = _brute_partial(ctx, parts, 2000, strict)
            if abs(val - ref) > bound:
                failures += 1
    _report("criterion 9", "brute-force oracle equivalence, weight <= 5, "
            "depth <= 3", failures == 0)


# -- criterion 10: the full registry run ------------------------------------------------

def test_criterion_10_verify_all(tmp_path, monkeypatch):
    # every series run of the pass, with its sign and where it stopped
    runs = []
    run = chains._run_evaluator

    def recorded(ev, tol, corrections, what):
        E, info = run(ev, tol, corrections, what)
        runs.append((ev.alternating, info["terms"]))
        return E, info

    monkeypatch.setattr(chains, "_run_evaluator", recorded)
    path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = cli.main(["verify", "all", "--prec", "30", "--tol", "1e-9",
                     "--json", str(path)])
    dt = time.perf_counter() - t0
    _report("criterion 10", f"`verify all` exit code 0 in {dt:.1f}s "
            "(< 600s)", code == 0 and dt < 600)
    import json

    report = json.loads(path.read_text())
    _report("criterion 10", "report records no failures",
            report["summary"]["failed"] == 0
            and report["summary"]["total"] >= 26)
    # every value and verdict as pinned; terms_used, tail_correction,
    # abs_diff and timings move with legitimate algorithm changes
    keys = ("id", "params", "lhs", "rhs", "pass")
    got = [{k: r[k] for k in keys} for r in report["results"]]
    pinned = json.loads((DATA / "verify_all_30d.json").read_text())
    changed = [(p["id"], p["params"]) for g, p in zip(got, pinned) if g != p]
    _report("criterion 10", f"{len(got)} records against {len(pinned)} pinned, "
            f"{len(changed)} changed {changed[:3]}",
            len(got) == len(pinned) and not changed)
    # every series side settles at the second checkpoint of its sign,
    # M0 + ceil(M0/8) with M0 = first_checkpoint(ctx, alternating): a plain
    # and an alternating run start from their own expansion plans
    import math

    ctx = PrecisionContext(digits=30)
    M1 = {}
    for alternating in (False, True):
        M0 = first_checkpoint(ctx, alternating)
        M1[alternating] = M0 + math.ceil(M0 / 8)
    later = sorted({run for run in runs if run[1] != M1[run[0]]})
    _report("criterion 10", f"{len(runs)} series runs stop at M = {M1[False]} "
            f"(plain) or {M1[True]} (alternating), other (alternating, M) "
            f"{later}", bool(runs) and not later)
    later = sorted({r["terms_used"] for r in report["results"]} - {0, *M1.values()})
    _report("criterion 10", f"every series side stops at M = {M1[False]} or "
            f"{M1[True]}, other term counts {later}", not later)


def test_criterion_10_verify_all_100_digits(tmp_path):
    # the whole registry at 100 digits and the default tolerance 1e-95:
    # every value and verdict as pinned
    import json

    path = tmp_path / "report.json"
    code = cli.main(["verify", "all", "--prec", "100", "--json", str(path)])
    keys = ("id", "params", "lhs", "rhs", "pass")
    got = [{k: r[k] for k in keys} for r in json.loads(path.read_text())["results"]]
    pinned = json.loads((DATA / "verify_all_100d.json").read_text())
    changed = [(p["id"], p["params"]) for g, p in zip(got, pinned) if g != p]
    _report("criterion 10", f"{len(got)} records at 100 digits against "
            f"{len(pinned)} pinned, {len(changed)} changed {changed[:3]}",
            code == 0 and len(got) == len(pinned) and not changed)


@pytest.mark.parametrize("argv", [["eq4_expansion_r3", "--s", "1"],
                                  ["eq4_expansion_r2", "--s", "1"],
                                  ["two_one_eq4", "--r", "2", "--s", "1"]],
                         ids=lambda argv: argv[0])
def test_criterion_10_alternating_items_at_100_digits(tmp_path, argv):
    # the alternating (Boole-tailed) sides that hold the fewest digits at
    # 100 digits; their rendered values and verdicts as pinned
    import json

    path = tmp_path / "report.json"
    code = cli.main(["verify", *argv, "--prec", "100", "--json", str(path)])
    keys = ("id", "params", "lhs", "rhs", "pass")
    got = [{k: r[k] for k in keys} for r in json.loads(path.read_text())["results"]]
    pinned = json.loads((DATA / "verify_100d_alternating.json").read_text())
    want = [p for p in pinned if p["id"] == argv[0]]
    _report("criterion 10", f"{argv[0]} at 100 digits as pinned",
            code == 0 and len(want) == 1 and got == want)


@pytest.mark.parametrize("id_", ["eq2_check", "a1_prefactor_derivative"])
def test_criterion_10_derivative_items_at_200_digits(tmp_path, id_):
    # the derivative_at sides, whose raised precision is tightest at high
    # digits; their rendered values and verdicts as pinned
    import json

    path = tmp_path / "report.json"
    code = cli.main(["verify", id_, "--prec", "200", "--json", str(path)])
    keys = ("id", "params", "lhs", "rhs", "pass")
    got = [{k: r[k] for k in keys} for r in json.loads(path.read_text())["results"]]
    pinned = json.loads((DATA / "verify_200d_derivatives.json").read_text())
    want = [p for p in pinned if p["id"] == id_]
    changed = [p["params"] for g, p in zip(got, want) if g != p]
    _report("criterion 10", f"{id_} at 200 digits: {len(got)} records against "
            f"{len(want)} pinned, {len(changed)} changed {changed[:3]}",
            code == 0 and len(got) == len(want) > 0 and not changed)


# -- criterion 11: the full registry at the context's default tolerance ------------

def test_criterion_11_verify_all_default_tol(tmp_path):
    # no --tol: verify takes 10^-(digits-5), 1e-25 at 30 digits
    path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code = cli.main(["verify", "all", "--prec", "30", "--json", str(path)])
    dt = time.perf_counter() - t0
    import json

    report = json.loads(path.read_text())
    summary = report["summary"]
    _report("criterion 11", f"`verify all` at tol {report['context']['tol']}: "
            f"{summary['passed']}/{summary['total']} in {dt:.1f}s",
            code == 0 and report["context"]["tol"] == "1.0e-25"
            and summary["passed"] == summary["total"] == 220)
