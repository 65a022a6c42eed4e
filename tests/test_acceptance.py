"""Acceptance regression suite: one test per criterion, exact expectations.

The twelve criteria run once (module scope) through the same code path as
``permpoly reproduce``; each test prints its pass/fail line and asserts the
criterion's exact outcome.

Criteria 6 and 8 encode worked examples whose statements are false, and
``reproduce`` reports them as FAIL with witnesses.  Their tests pin that
outcome in full: the counts, ``passed is False``, the exponents the details
name, and image counts recomputed by square-and-multiply over the table-free
shift-and-add ``helpers.raw_mul`` (no ``ctx.pow``, registry evaluator or
oracle).  They fail if either criterion is re-encoded to pass or stops
finding its defect.

- Criterion 6: for x in GF(256)*, x^136 is the square root of x^17 in GF(16),
  so the inner value lies in GF(16) and its 45th power is 0 or 1; f is x^4
  off the zeros of a*z^2 + z + delta, a bijection iff trace(a*delta) = 1.
- Criterion 8: on GF(64)* the 63rd power is 0 or 1, so f is x^6 or 0, and
  gcd(6, 63) = 3 makes it at least 3-to-1 on the unit group.

The companion tests underneath pin the repaired facts (the product-trace gate
for F9 and the registry-shape polynomial for F11), so every mathematical claim
that is actually true stays machine-checked.
"""

import math
import re

import pytest

from permpoly import FieldCtx, SparsePoly, is_permutation
from permpoly import families as fam
from permpoly import reproduce
from permpoly.reproduce import run_all

from helpers import raw_mul, raw_pow


@pytest.fixture(scope="module")
def results():
    out = {r.cid: r for r in run_all()}
    print()
    for cid in sorted(out):
        print(out[cid].line())
    return out


def _assert_criterion(results, cid, expect_pass=True, **expected_counts):
    r = results[cid]
    print(r.line())
    for key, val in expected_counts.items():
        assert r.counts.get(key) == val, f"criterion {cid}: {key}={r.counts.get(key)}"
    if expect_pass:
        assert r.passed, f"criterion {cid} failed: {r.details}"
    else:
        assert r.passed is False, f"criterion {cid} passed, expected FAIL"


def _named_exponents(r):
    """The e of every 'a = g^e' witness in a criterion's details."""
    return {int(e) for line in r.details for e in re.findall(r"a = g\^(\d+)", line)}


def _raw_trace(ctx, z, m):
    """Trace from GF(2^m) onto GF(2): z + z^2 + ... + z^(2^(m-1))."""
    acc = 0
    for i in range(m):
        acc = ctx.add(acc, raw_pow(ctx, z, 1 << i))
    return acc


def test_criterion_01_gf512_trinomial(results):
    _assert_criterion(results, 1, scalars=7, bijective=7)


def test_criterion_02_gf256_scaled_trinomial(results):
    _assert_criterion(results, 2, admissible=119, bijective=119)


def test_criterion_03_binomial_iff(results):
    _assert_criterion(results, 3, assignments=20, disagreements=0)


def test_criterion_04_gf64_binomial(results):
    _assert_criterion(results, 4, admissible=6, bijective=6)


def test_criterion_05_gf256_circle_power(results):
    _assert_criterion(results, 5)
    assert results[5].counts["admissible"] > 0


def test_criterion_06_gf256_subfield_power(results):
    # The stated gate trace(a^3/delta) = 1 is refuted at its own example.
    # The inner value lies in GF(16), so its 45th power (45 = 3*15) is 0 or 1
    # and f = x^4 off the zeros of a*z^2 + z + delta: a bijection exactly when
    # trace(a*delta) = 1, which fails for two of the six gate-passing a.
    # See test_criterion_06_repaired_gate for the gate that holds.
    _assert_criterion(results, 6, expect_pass=False,
                      **{"gate-passing": 6, "bijective": 4})
    named = _named_exponents(results[6])
    assert named == {187, 238}

    ctx = fam.family_ctx("F9", {"m": 4})
    delta = raw_pow(ctx, ctx.generator, 85)
    delta_inv = raw_pow(ctx, delta, ctx.order - 2)
    images = {}
    for e in range(0, ctx.order - 1, 17):  # a = g^e runs over GF(16)*
        a = raw_pow(ctx, ctx.generator, e)
        if _raw_trace(ctx, raw_mul(ctx, raw_pow(ctx, a, 3), delta_inv), 4) != 1:
            continue
        images[e] = len({
            raw_mul(ctx, raw_pow(ctx, x, 4), raw_pow(ctx, ctx.add(ctx.add(
                raw_pow(ctx, x, 136), raw_mul(ctx, a, raw_pow(ctx, x, 17))),
                delta), 45))
            for x in range(ctx.order)})
    assert images == {17: 256, 68: 256, 102: 256, 153: 256, 187: 222, 238: 222}
    assert {e for e, n in images.items() if n != ctx.order} == named


def test_criterion_06_repaired_gate():
    # the product gate trace(a*delta) == 1 matches the oracle exactly
    ctx = fam.family_ctx("F9", {"m": 4})
    delta = ctx.pow(ctx.generator, 85)
    stated_bad = []
    for a in sorted(ctx.subgroup_reps(15)):
        params = {"m": 4, "r": 4, "s": 3, "a": a, "delta": delta}
        perm = is_permutation(fam.evaluator("F9", params, ctx=ctx),
                              ctx).is_permutation
        assert perm == (ctx.rel_trace(ctx.mul(a, delta), 1, 4) == 1)
        if fam.check("F9", params, ctx=ctx).passed and not perm:
            stated_bad.append(ctx.dlog(a))
    assert sorted(stated_bad) == [187, 238]  # the two stated-gate defects


def test_criterion_07_gf512_cubic_power(results):
    _assert_criterion(results, 7, admissible=448, bijective=448)


def test_criterion_08_gf64_four_term(results):
    # The admissible set {g^21, g^42} holds; the displayed polynomial
    # x^6*(x^48 + x^12 + a*x)^63 is refuted.  On GF(64)* the 63rd power is
    # 0 or 1, so f is x^6 or 0, and gcd(6, 63) = 3: 22 images, not 64.
    # See test_criterion_08_registry_shape for the polynomial that permutes.
    _assert_criterion(results, 8, expect_pass=False,
                      **{"admissible": 2, "display-bijective": 0})
    named = _named_exponents(results[8])
    assert named == {21, 42}

    ctx = fam.family_ctx("F11", {"m": 2})
    images = {}
    for e in (21, 42):
        a = raw_pow(ctx, ctx.generator, e)
        images[e] = len({
            raw_mul(ctx, raw_pow(ctx, x, 6), raw_pow(ctx, ctx.add(ctx.add(
                raw_pow(ctx, x, 48), raw_pow(ctx, x, 12)), raw_mul(ctx, a, x)), 63))
            for x in range(ctx.order)})
    assert images == {21: 22, 42: 22}


def test_criterion_08_registry_shape():
    ctx = fam.family_ctx("F11", {"m": 2})
    for e in (21, 42):
        params = {"m": 2, "r": 4, "s": 3, "a": ctx.pow(ctx.generator, e),
                  "b": 1, "delta": 0}
        assert is_permutation(fam.evaluator("F11", params, ctx=ctx),
                              ctx).is_permutation


def test_criterion_09_composition_sweeps(results):
    _assert_criterion(results, 9, failures=0)
    assert results[9].counts["instances"] >= 4000


def test_criterion_10_transform_equivalence(results):
    _assert_criterion(results, 10, pairs=400, counterexamples=0)


def test_criterion_11_solver_sweeps(results):
    _assert_criterion(results, 11)
    assert results[11].counts["quad"] == 64 + 256 + 4096


def test_criterion_12_split_consistency(results):
    _assert_criterion(results, 12, disagreements=0)
    assert results[12].counts["instances"] > 600


# The text lines ``permpoly reproduce`` prints, witnesses included.
REPRODUCE_LINES = [
    "[ 1] PASS  F2        x^520 + x^65 + c*x over GF(512), c in GF(8)* "
    "(scalars=7 bijective=7)",
    "[ 2] PASS  F3        c*x + x^91 + c^16*x^1456 over GF(256) "
    "(admissible=119 bijective=119)",
    "[ 3] PASS  F4        binomial iff-condition vs oracle, all b over GF(4), GF(16) "
    "(assignments=20 disagreements=0)",
    "[ 4] PASS  F5        x^25 + b*x^4 over GF(64): b^9=1, b^3!=1 exactly "
    "(admissible=6 bijective=6)",
    "[ 5] PASS  F8        x^4*(x^45 + a*x^15 + g)^17 over GF(256), all 256 a "
    "(admissible=103 bijective=103)",
    "[ 6] FAIL  F9        x^4*(x^136 + a*x^17 + g^85)^45 over GF(256), a in GF(16)* "
    "(gate-passing=6 bijective=4) "
    "[gate passes but not bijective: a = g^238 (rep 13), collision (0, 11); "
    "gate passes but not bijective: a = g^187 (rep 177), collision (0, 6)]",
    "[ 7] PASS  F10       x^4*(x^56 + a*x^7 + 1)^219 over GF(512), all 511 a "
    "(admissible=448 bijective=448)",
    "[ 8] FAIL  F11       admissible set {g^21, g^42} and displayed polynomial over GF(64) "
    "(admissible=2 display-bijective=0) "
    "[displayed x^6*(x^48+x^12+a*x)^63 not bijective for a = g^42: collision (0, 5); "
    "displayed x^6*(x^48+x^12+a*x)^63 not bijective for a = g^21: collision (0, 3)]",
    "[ 9] PASS  F1/F6/F7  shift-composition sweeps always bijective "
    "(instances=4248 failures=0)",
    "[10] PASS  F12       delta-family vs companion equivalence, 100 random g per field, "
    "both signs (pairs=400 counterexamples=0)",
    "[11] PASS  solvers   exhaustive solver-vs-enumeration sweeps "
    "(quad=4416 circle=2058 affine=4018 linearized=4018)",
    "[12] PASS  oracle    x^r*h(x^t) split test agrees with direct verdicts "
    "(instances=712 disagreements=0)",
]


def test_reproduce_lines_pinned(results):
    assert [results[cid].line() for cid in sorted(results)] == REPRODUCE_LINES


def test_split_runs_only_for_criterion_12(monkeypatch):
    # criterion 12 checks instances as they are recorded, and only when it
    # was requested
    calls = []
    orig = reproduce.zieve_verdict

    def counted(poly):
        calls.append(poly)
        return orig(poly)

    monkeypatch.setattr(reproduce, "zieve_verdict", counted)
    (r,) = run_all(only=[2])
    assert r.passed and r.counts["admissible"] == 119
    assert calls == []
    state = reproduce.RunState(split=True)
    reproduce.criterion_4(state)
    assert len(calls) == state.instances == 7
    assert state.disagreements == 0


def test_criterion_12_catches_a_lying_coset_source(monkeypatch):
    # criterion 12 takes the sequential scan as the reference for a True
    # verdict of a certified source, so a coset source that skips its label
    # check is caught.  That check decides none of the 13 coset scans of
    # criteria 4 and 6 (each is a bijection or fails by a zero head value),
    # so the tally is run over F5 x^25 + b*x^4 for every b of GF(64), where
    # two labels agree for most b
    ctx = fam.family_ctx("F5", {"m": 3})
    instances = [{"m": 3, "r": 4, "i": 3, "b": b} for b in range(1, 64)]

    def tally():
        state = reproduce.RunState(split=True)
        verified = reproduce._scan_each(state, "F5", ctx, instances, lambda p, vr: None)[0]
        return state, verified

    state, verified = tally()
    assert (state.instances, state.disagreements, state.details) == (63, 0, [])
    counts = {cid: reproduce.CRITERIA[cid](reproduce.RunState(split=True)).counts
              for cid in (4, 6)}
    orig = FieldCtx._blocks

    def blocks(self, columns, terms=None, r=0, E=1):
        source = orig(self, columns, terms, r, E)
        if source.__name__ != "cosets":
            return source
        n1 = self.order - 1
        t = self._split_step(terms)
        a, d = (r + E * terms[0][0]) % n1, n1 // t

        def cosets(f, q):  # the label check skipped
            return q == self.order and math.gcd(a, t) == 1 and all(columns(0, d))
        return cosets

    monkeypatch.setattr(FieldCtx, "_blocks", blocks)
    lying, lied = tally()
    assert lied > verified
    assert lying.disagreements == lied - verified
    assert all("split=False oracle=True sequential=False" in line for line in lying.details)
    for cid in (4, 6):  # reproduce's own coset scans keep their counts
        assert reproduce.CRITERIA[cid](reproduce.RunState(split=True)).counts == counts[cid]


def test_criterion_12_catches_a_lying_trace_source(monkeypatch):
    # a True verdict of the trace-fibre source is checked against the
    # sequential scan too, so a source that skips its rank check (and s) is
    # caught.  Every F2 instance it proves is a bijection, so the tally runs
    # over x^520 + x^65 + a*x^8 + c*x for a, c in GF(8) over GF(512): T(f(x))
    # = (a + c)*T(x), and many (a, c) give a singular fibre map or s = 0
    ctx = fam.family_ctx("F2", {"m": 3})
    sub = ctx.subfield_reps(3)
    polys = [SparsePoly(ctx, [(1, 520), (1, 65), (a, 8), (c, 1)]) for a in sub for c in sub]

    def tally():
        state, verified = reproduce.RunState(split=True), 0
        for poly in polys:
            fn = poly.rep_fn(3)
            assert fn.bijective.__name__ == "trace_fibres"
            vr = is_permutation(fn, ctx)
            state.record(f"{poly}", poly, fn, vr.is_permutation)
            verified += vr.is_permutation
        return state, verified

    state, verified = tally()
    assert (state.instances, state.disagreements, state.details) == (64, 0, [])
    assert 0 < verified < 64
    counts = reproduce.CRITERIA[1](reproduce.RunState(split=True)).counts
    orig = FieldCtx._trace_fibres

    def proven(self, terms, d, fn):
        if orig(self, terms, d, fn) is None:
            return None

        def trace_fibres(f, q):  # the rank check skipped
            return q == self.order
        return trace_fibres

    monkeypatch.setattr(FieldCtx, "_trace_fibres", proven)
    lying, lied = tally()
    assert lied == 64
    assert lying.disagreements == lied - verified
    assert all("split=False oracle=True sequential=False" in line for line in lying.details)
    assert reproduce.CRITERIA[1](reproduce.RunState(split=True)).counts == counts


def test_expansions_built_only_for_criterion_12(monkeypatch):
    # criteria 5-7 expand their instances only for the split of criterion 12
    builds = []
    orig = fam.build

    def counted(fid, params, **kw):
        builds.append(fid)
        return orig(fid, params, **kw)

    monkeypatch.setattr(fam, "build", counted)
    (r,) = run_all(only=[7])
    assert r.passed and r.counts["admissible"] == 448
    assert builds == []
    state = reproduce.RunState(split=True)
    reproduce.criterion_5(state)
    assert len(builds) == state.instances > 0
    assert state.disagreements == 0
