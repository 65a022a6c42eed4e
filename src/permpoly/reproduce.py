"""The machine-checked regression suite behind ``permpoly reproduce``.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
prints one line per criterion and the acceptance tests assert on the same
results.  Expected values are exact (set equalities and counts); elapsed
times are reported but never asserted.

Criteria 6 and 8 encode their sources' worked examples verbatim.  Exhaustive
verification shows both contain defects (an inconsistent trace gate and a
garbled displayed polynomial); those criteria report the witnesses and fail
honestly rather than being patched.  See the test suite for the repaired
predicates that do match the oracle.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field as dc_field

from . import families as fam
from . import solvers
from .errors import HypothesisUnmet
from .field import SparsePoly, make_field
from .oracle import is_permutation, zieve_verdict

SEED = 0x5EED


@dataclass
class CriterionResult:
    cid: int
    family: str
    description: str
    passed: bool
    counts: dict
    details: list[str]
    elapsed_ms: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        counts = " ".join(f"{k}={v}" for k, v in self.counts.items())
        extra = f" [{'; '.join(self.details)}]" if self.details else ""
        return f"[{self.cid:2d}] {status}  {self.family:<9} {self.description} ({counts}){extra}"


@dataclass
class RunState:
    """Shared across criteria; criterion 12 consumes the verified instances."""
    instances: list = dc_field(default_factory=list)  # (label, SparsePoly, verdict)

    def record(self, label: str, poly: SparsePoly, verdict: bool):
        self.instances.append((label, poly, verdict))


def _result(cid, family, description, passed, counts, details, start):
    return CriterionResult(cid, family, description, passed, counts,
                           details, (time.perf_counter() - start) * 1000.0)


# ---------------------------------------------------------------------------

def criterion_1(state: RunState) -> CriterionResult:
    """F2 over GF(512): bijective for all seven base-subfield scalars."""
    start = time.perf_counter()
    ctx = fam.family_ctx("F2", {"m": 3})
    cs = sorted(ctx.subgroup_reps(7))
    details = []
    ok = len(cs) == 7
    verified = 0
    for c in cs:
        params = {"m": 3, "c": c}
        if not fam.check("F2", params, ctx=ctx).passed:
            ok = False
            details.append(f"condition fails for c rep {c}")
            continue
        poly = fam.build("F2", params, ctx=ctx)
        rep = is_permutation(poly, ctx)
        state.record(f"F2 c={c}", poly, rep.is_permutation)
        if rep.is_permutation:
            verified += 1
        else:
            ok = False
            details.append(f"c rep {c}: collision {rep.witness}")
    return _result(1, "F2", "x^520 + x^65 + c*x over GF(512), c in GF(8)*",
                   ok and verified == 7, {"scalars": len(cs), "bijective": verified},
                   details, start)


def criterion_2(state: RunState) -> CriterionResult:
    """F3 over GF(256): exactly 119 admissible c, each bijective."""
    start = time.perf_counter()
    ctx = fam.family_ctx("F3", {"m": 4})
    passing = []
    for params, rep in fam.enumerate_instances("F3", {"m": 4}):
        if rep.passed:
            passing.append(params)
    details = []
    verified = 0
    for params in passing:
        poly = fam.build("F3", params, ctx=ctx)
        rep = is_permutation(poly, ctx)
        state.record(f"F3 c={params['c']}", poly, rep.is_permutation)
        if rep.is_permutation:
            verified += 1
        else:
            details.append(f"c rep {params['c']}: collision {rep.witness}")
    ok = len(passing) == 119 and verified == len(passing)
    if len(passing) != 119:
        details.append(f"expected 119 admissible c, found {len(passing)}")
    return _result(2, "F3", "c*x + x^91 + c^16*x^1456 over GF(256)",
                   ok, {"admissible": len(passing), "bijective": verified},
                   details, start)


def criterion_3(state: RunState) -> CriterionResult:
    """F4 iff: condition verdict equals oracle verdict for every b (m=1,2)."""
    start = time.perf_counter()
    disagreements = []
    total = 0
    for m in (1, 2):
        ctx = fam.family_ctx("F4", {"m": m})
        for params, rep in fam.enumerate_instances("F4", {"m": m}):
            total += 1
            poly = fam.build("F4", params, ctx=ctx)
            verdict = is_permutation(poly, ctx).is_permutation
            state.record(f"F4 m={m} b={params['b']}", poly, verdict)
            if rep.passed != verdict:
                disagreements.append(f"m={m} b rep {params['b']}: "
                                     f"condition={rep.passed} oracle={verdict}")
    return _result(3, "F4", "binomial iff-condition vs oracle, all b over GF(4), GF(16)",
                   not disagreements, {"assignments": total,
                                       "disagreements": len(disagreements)},
                   disagreements, start)


def criterion_4(state: RunState) -> CriterionResult:
    """F5 over GF(64): admissible set is exactly the 6 order-9 non-cubes."""
    start = time.perf_counter()
    ctx = fam.family_ctx("F5", {"m": 3})
    fixed = {"m": 3, "r": 4, "i": 3}
    passing = {p["b"] for p, rep in fam.enumerate_instances("F5", fixed) if rep.passed}
    expected = set(ctx.subgroup_reps(9)) - set(ctx.subgroup_reps(3))
    details = []
    ok = passing == expected
    if not ok:
        details.append(f"admissible set mismatch: {sorted(passing)} vs {sorted(expected)}")
    verified = 0
    for b in sorted(passing):
        poly = fam.build("F5", dict(fixed, b=b), ctx=ctx)
        rep = is_permutation(poly, ctx)
        state.record(f"F5 b={b}", poly, rep.is_permutation)
        if rep.is_permutation:
            verified += 1
        else:
            ok = False
            details.append(f"b rep {b}: collision {rep.witness}")
    # negative control: b = 1 must fail the condition and the oracle
    neg = fam.check("F5", dict(fixed, b=1), ctx=ctx)
    poly1 = fam.build("F5", dict(fixed, b=1), ctx=ctx)
    neg_oracle = is_permutation(poly1, ctx).is_permutation
    state.record("F5 b=1", poly1, neg_oracle)
    if neg.passed or neg_oracle:
        ok = False
        details.append(f"negative control b=1: condition={neg.passed} oracle={neg_oracle}")
    return _result(4, "F5", "x^25 + b*x^4 over GF(64): b^9=1, b^3!=1 exactly",
                   ok, {"admissible": len(passing), "bijective": verified},
                   details, start)


def criterion_5(state: RunState) -> CriterionResult:
    """F8 over GF(256), delta = g: every gate-passing a gives a bijection."""
    start = time.perf_counter()
    ctx = fam.family_ctx("F8", {"m": 4})
    fixed = {"m": 4, "r": 4, "s": 3, "delta": ctx.generator}
    details = []
    passing = verified = 0
    for params, rep in fam.enumerate_instances("F8", fixed):
        if not rep.passed:
            continue
        passing += 1
        vr = is_permutation(fam.evaluator("F8", params, ctx=ctx), ctx)
        state.record(f"F8 a={params['a']}", fam.build("F8", params, ctx=ctx),
                     vr.is_permutation)
        if vr.is_permutation:
            verified += 1
        else:
            details.append(f"a rep {params['a']}: collision {vr.witness}")
    ok = passing > 0 and verified == passing
    return _result(5, "F8", "x^4*(x^45 + a*x^15 + g)^17 over GF(256), all 256 a",
                   ok, {"admissible": passing, "bijective": verified}, details, start)


def criterion_6(state: RunState) -> CriterionResult:
    """F9 over GF(256), delta = g^85: gate-passing a in GF(16)* all bijective.

    Encodes the published gate verbatim; exhaustive verification rejects two
    of the six gate-passing values, so this criterion fails with witnesses.
    """
    start = time.perf_counter()
    ctx = fam.family_ctx("F9", {"m": 4})
    delta = ctx.pow(ctx.generator, 85)
    fixed = {"m": 4, "r": 4, "s": 3, "delta": delta}
    details = []
    passing = verified = 0
    for a in sorted(ctx.subgroup_reps(15)):
        params = dict(fixed, a=a)
        if not fam.check("F9", params, ctx=ctx).passed:
            continue
        passing += 1
        vr = is_permutation(fam.evaluator("F9", params, ctx=ctx), ctx)
        state.record(f"F9 a={a}", fam.build("F9", params, ctx=ctx),
                     vr.is_permutation)
        if vr.is_permutation:
            verified += 1
        else:
            details.append(f"gate passes but not bijective: a = g^{ctx.dlog(a)}"
                           f" (rep {a}), collision {vr.witness}")
    ok = passing > 0 and verified == passing
    return _result(6, "F9", "x^4*(x^136 + a*x^17 + g^85)^45 over GF(256), a in GF(16)*",
                   ok, {"gate-passing": passing, "bijective": verified}, details, start)


def criterion_7(state: RunState) -> CriterionResult:
    """F10 over GF(512), b = 1: every gate-passing a gives a bijection."""
    start = time.perf_counter()
    ctx = fam.family_ctx("F10", {"m": 3})
    fixed = {"m": 3, "r": 4, "s": 3, "b": 1}
    details = []
    passing = verified = 0
    for params, rep in fam.enumerate_instances("F10", fixed):
        if not rep.passed:
            continue
        passing += 1
        vr = is_permutation(fam.evaluator("F10", params, ctx=ctx), ctx)
        state.record(f"F10 a={params['a']}", fam.build("F10", params, ctx=ctx),
                     vr.is_permutation)
        if vr.is_permutation:
            verified += 1
        else:
            details.append(f"a rep {params['a']}: collision {vr.witness}")
    ok = passing > 0 and verified == passing
    return _result(7, "F10", "x^4*(x^56 + a*x^7 + 1)^219 over GF(512), all 511 a",
                   ok, {"admissible": passing, "bijective": verified}, details, start)


def criterion_8(state: RunState) -> CriterionResult:
    """F11 example set over GF(64) plus its displayed polynomial.

    The admissible set (cube-coprimality clause excluded, as documented)
    must equal {g^21, g^42}: it does.  The displayed polynomial
    x^6*(x^48 + x^12 + a*x)^63 must then be a bijection for both: it is not
    (it collapses to x^6 on the unit group and gcd(6, 63) = 3), so this
    criterion fails with witnesses.  The registry-shape polynomial
    x^4*(x^48 + x^12 + a*x^3)^63 is bijective for both values.
    """
    start = time.perf_counter()
    ctx = fam.family_ctx("F11", {"m": 2})
    fixed = {"m": 2, "r": 4, "s": 3, "b": 1, "delta": 0}
    passing = sorted(p["a"] for p, rep in fam.enumerate_instances("F11", fixed)
                     if rep.passed_except("three-coprime"))
    expected = sorted((ctx.pow(ctx.generator, 21), ctx.pow(ctx.generator, 42)))
    details = []
    ok = passing == expected
    if not ok:
        details.append(f"admissible set {passing} != expected {expected}")
    verified = 0
    for a in passing:
        inner = SparsePoly(ctx, [(1, 48), (1, 12), (a, 1)])
        poly = inner.pow_charp(63).shift_x(6)
        vr = is_permutation(poly, ctx)
        state.record(f"F11-display a={a}", poly, vr.is_permutation)
        if vr.is_permutation:
            verified += 1
        else:
            ok = False
            details.append(f"displayed x^6*(x^48+x^12+a*x)^63 not bijective for "
                           f"a = g^{ctx.dlog(a)}: collision {vr.witness}")
    return _result(8, "F11", "admissible set {g^21, g^42} and displayed polynomial "
                   "over GF(64)", ok,
                   {"admissible": len(passing), "display-bijective": verified},
                   details, start)


def criterion_9(state: RunState) -> CriterionResult:
    """F1 / F6 / F7 sweeps: always bijective across shifts and scalars."""
    start = time.perf_counter()
    rng = random.Random(SEED)
    details = []
    checked = failed = 0

    def run(fid, ctx, params):
        nonlocal checked, failed
        checked += 1
        f = fam.evaluator(fid, params, ctx=ctx)
        vr = is_permutation(f, ctx)
        if not vr.is_permutation:
            failed += 1
            if len(details) < 8:
                details.append(f"{fid} {params}: collision {vr.witness}")

    for m in (1, 2, 3):
        ctx = fam.family_ctx("F1", {"m": m})
        deltas = (range(ctx.order) if m <= 2
                  else [rng.randrange(ctx.order) for _ in range(64)])
        scalars = sorted(ctx.subgroup_reps((1 << m) - 1)) if m > 1 else [1]
        for delta in deltas:
            for c in scalars:
                run("F1", ctx, {"m": m, "delta": delta, "c": c})

    for q in (2, 3, 4):
        ctx = fam.family_ctx("F6", {"q": q})
        e = round(math.log(q, ctx.p))
        scalars = [r for r in ctx.subfield_reps(e) if r]
        for _ in range(20):
            u = SparsePoly(ctx, [(rng.randrange(ctx.order), d) for d in range(6)])
            deltas = [rng.randrange(ctx.order) for _ in range(20)]
            for delta in deltas:
                for c in scalars:
                    run("F6", ctx, {"q": q, "case": "sum", "u": u,
                                    "delta": delta, "c": c})

    for q in (2, 3):
        ctx = fam.family_ctx("F7", {"q": q})
        e = round(math.log(q, ctx.p))
        scalars = [r for r in ctx.subfield_reps(e) if r]
        for _ in range(20):
            u = SparsePoly(ctx, [(rng.randrange(ctx.order), d) for d in range(6)])
            deltas = [rng.randrange(ctx.order) for _ in range(20)]
            for delta in deltas:
                for c in scalars:
                    run("F7", ctx, {"q": q, "case": "sum", "u": u,
                                    "delta": delta, "c": c})

    return _result(9, "F1/F6/F7", "shift-composition sweeps always bijective",
                   failed == 0, {"instances": checked, "failures": failed},
                   details, start)


def criterion_10(state: RunState) -> CriterionResult:
    """Transform equivalence: f_delta permutes for all delta iff h permutes."""
    start = time.perf_counter()
    rng = random.Random(SEED + 10)
    details = []
    checked = bad = 0
    for p, k in ((2, 3), (2, 4)):
        ctx = make_field(p, k)
        ctx.ensure_tables()
        for _ in range(100):
            g = SparsePoly(ctx, [(rng.randrange(ctx.order), d)
                                 for d in range(ctx.order // 2)])
            for sign in ("minus", "plus"):
                checked += 1
                family, h = fam.transform_pair(g, 1, 1, sign)
                right = is_permutation(h, ctx).is_permutation
                left = True
                for delta in range(ctx.order):
                    if not is_permutation(family.map(delta), ctx).is_permutation:
                        left = False
                        break
                if left != right:
                    bad += 1
                    if len(details) < 5:
                        details.append(f"GF({p}^{k}) {sign} g={g.term_pairs()}: "
                                       f"all-delta={left} h={right}")
    return _result(10, "F12", "delta-family vs companion equivalence, 100 random g "
                   "per field, both signs", bad == 0,
                   {"pairs": checked, "counterexamples": bad}, details, start)


# ---------------------------------------------------------------------------
# criterion 11: solver sweeps against brute force
# ---------------------------------------------------------------------------

def _brute_quad(ctx, u, v):
    return sorted(x for x in range(ctx.order)
                  if ctx.add(ctx.add(ctx.mul(x, x), ctx.mul(u, x)), v) == 0)


def _sweep_quad(ctx):
    bad = 0
    for u in range(ctx.order):
        for v in range(ctx.order):
            rep = solvers.quad_char2_roots(ctx.elem(u), ctx.elem(v))
            if sorted(rep.root_reps()) != _brute_quad(ctx, u, v):
                bad += 1
    return ctx.order * ctx.order, bad


def _sweep_circle(ctx, m):
    Q = 1 << m
    mu = set(ctx.subgroup_reps(Q + 1))
    kinds = {0: solvers.RootKind.NO_ROOT, 1: solvers.RootKind.UNIQUE,
             2: solvers.RootKind.TWO_ROOTS}
    checked = bad = 0
    for a in range(1, ctx.order):
        for b in range(1, ctx.order):
            try:
                rep = solvers.unit_circle_quad(ctx.elem(a), ctx.elem(b), m)
            except HypothesisUnmet:
                continue
            checked += 1
            brute = sorted(x for x in mu
                           if ctx.add(ctx.add(ctx.mul(x, x), ctx.mul(a, x)), b) == 0)
            if sorted(rep.root_reps()) != brute or rep.kind is not kinds[len(brute)]:
                bad += 1
    return checked, bad


def _sweep_affine(ctx, m):
    Q = 1 << m
    checked = bad = 0
    for a in range(1, ctx.order):
        for b in range(1, ctx.order):
            rep = solvers.affine_frobenius_roots(ctx.elem(a), ctx.elem(b), m)
            brute = sorted(x for x in range(ctx.order)
                           if ctx.add(ctx.add(ctx.pow(x, Q), ctx.mul(a, x)), b) == 0)
            checked += 1
            if sorted(rep.root_reps()) != brute:
                bad += 1
            elif rep.kind is solvers.RootKind.UNIQUE and len(brute) != 1:
                bad += 1
            elif rep.kind is solvers.RootKind.SUBFIELD_MANY and len(brute) != Q:
                bad += 1
    return checked, bad


def _sweep_linearized(ctx, m):
    Q = 1 << m
    checked = bad = 0
    for a in range(1, ctx.order):
        for b in range(1, ctx.order):
            pred = solvers.linearized_bijective(ctx.elem(a), ctx.elem(b), m)
            kernel = sum(1 for x in range(ctx.order)
                         if ctx.add(ctx.add(ctx.mul(a, x), ctx.mul(b, ctx.pow(x, Q))),
                                    ctx.pow(x, Q * Q)) == 0)
            checked += 1
            if pred != (kernel == 1):
                bad += 1
    return checked, bad


def criterion_11(state: RunState) -> CriterionResult:
    """All four solvers vs brute-force enumeration: zero disagreements."""
    start = time.perf_counter()
    f8 = make_field(2, 3)
    f16 = make_field(2, 4)
    f64 = make_field(2, 6)
    for ctx in (f8, f16, f64):
        ctx.ensure_tables()
    counts = {}
    bad_total = 0
    details = []

    plan = [("quad", _sweep_quad, [(f8,), (f16,), (f64,)]),
            ("circle", _sweep_circle, [(f16, 2), (f64, 3)]),
            ("affine", _sweep_affine, [(f8, 1), (f64, 2)]),
            ("linearized", _sweep_linearized, [(f8, 1), (f64, 2)])]
    for name, fn, runs in plan:
        checked = bad = 0
        for args in runs:
            c, b = fn(*args)
            checked += c
            bad += b
        counts[name] = checked
        if bad:
            bad_total += bad
            details.append(f"{name}: {bad} disagreements")
    return _result(11, "solvers", "exhaustive solver-vs-enumeration sweeps",
                   bad_total == 0, counts, details, start)


def criterion_12(state: RunState) -> CriterionResult:
    """Split-criterion consistency over every instance verified above."""
    start = time.perf_counter()
    details = []
    bad = 0
    for label, poly, verdict in state.instances:
        split_verdict, info = zieve_verdict(poly)
        if split_verdict != verdict:
            bad += 1
            if len(details) < 5:
                details.append(f"{label}: split={split_verdict} oracle={verdict} ({info})")
    return _result(12, "oracle", "x^r*h(x^t) split test agrees with direct verdicts",
                   bad == 0 and bool(state.instances),
                   {"instances": len(state.instances), "disagreements": bad},
                   details, start)


CRITERIA = {1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
            5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
            9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12}


def run_all(workers: int = 1, only=None) -> list[CriterionResult]:
    """Run the regression suite in order; ``only`` limits the criteria ids.

    Criterion 12 piggybacks on 1..8: requesting it implies running them.
    Scans are sequential; ``workers`` is kept for callers that pass 1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    ids = sorted(only) if only else sorted(CRITERIA)
    if 12 in ids:
        ids = sorted(set(ids) | set(range(1, 9)))
    state = RunState()
    results = []
    wanted = set(only) if only else set(CRITERIA)
    for cid in ids:
        res = CRITERIA[cid](state)
        if cid in wanted:
            results.append(res)
    return results
