"""Family registry tests: builders, conditions, enumeration, transforms, and
the soundness sweeps (with the two documented gate defects characterized
exactly against repaired predicates)."""

import random

import pytest

from permpoly import (
    BadDegrees,
    BadSubfieldConstant,
    EnumerationTooLarge,
    FieldShapeMismatch,
    SchemaMismatch,
    SparsePoly,
    is_permutation,
    linearized_bijective,
    make_field,
    transform_pair,
)
from permpoly import families as fam

from helpers import brute_is_permutation, raw_eval, raw_pow


# --------------------------------------------------------------------------
# registry and builders
# --------------------------------------------------------------------------

def test_registry_complete():
    assert list(fam.REGISTRY) == [f"F{i}" for i in range(1, 13)]
    for spec in fam.REGISTRY.values():
        assert spec.formula and spec.summary


def test_build_f2_exact_exponents():
    poly = fam.build("F2", {"m": 3, "c": 1})
    assert [e for _, e in poly.term_pairs()] == [1, 65, 520]
    assert poly.ctx.order == 512


def test_build_f3_exact_terms():
    ctx = fam.family_ctx("F3", {"m": 4})
    c = 77
    poly = fam.build("F3", {"m": 4, "c": c})
    assert poly.term_pairs() == ((c, 1), (1, 91), (ctx.pow(c, 16), 1456))


def test_build_f5_example_shape():
    poly = fam.build("F5", {"m": 3, "r": 4, "i": 3, "b": 9})
    assert [e for _, e in poly.term_pairs()] == [4, 25]
    assert poly.ctx.order == 64


def test_build_f1_is_nine_terms_plus_tail():
    # (trinomial)^(2^(2m)+1) expands through one Frobenius factor: <= 10 terms
    poly = fam.build("F1", {"m": 2, "delta": 5, "c": 1})
    assert len(poly) <= 10
    ev = fam.evaluator("F1", {"m": 2, "delta": 5, "c": 1})
    assert all(poly.eval_rep(x) == ev(x) for x in range(64))


# --------------------------------------------------------------------------
# conditions and schemas
# --------------------------------------------------------------------------

def test_check_f3_anchor_case():
    ctx = fam.family_ctx("F3", {"m": 4})
    admissible = [c for c in range(1, 256)
                  if ctx.rel_trace(ctx.pow(c, 17), 1, 4) == 0]
    rep = fam.check("F3", {"m": 4, "c": admissible[0]}, ctx=ctx)
    assert rep.passed
    assert [cl.name for cl in rep.clauses] == ["cube-congruence", "norm-trace-zero"]


def test_check_f5_negative_control():
    rep = fam.check("F5", {"m": 3, "r": 4, "i": 3, "b": 1})
    assert not rep.passed
    assert rep.failures() == ("image-order",)


def test_check_f11_anchor_case():
    ctx = fam.family_ctx("F11", {"m": 2})
    a = ctx.pow(ctx.generator, 21)
    rep = fam.check("F11", {"m": 2, "r": 4, "s": 3, "b": 1, "delta": 0, "a": a},
                    ctx=ctx)
    assert not rep.clause("three-coprime").passed  # gcd(3, 3) = 3
    assert rep.passed_except("three-coprime")
    assert not rep.passed


def test_schema_rejections():
    with pytest.raises(SchemaMismatch):
        fam.check("F1", {"m": 2, "delta": 3, "c": 0})        # starred param zero
    with pytest.raises(SchemaMismatch):
        fam.check("F1", {"m": 2, "delta": 3})                # missing c
    with pytest.raises(SchemaMismatch):
        fam.check("F1", {"m": 2, "delta": 3, "c": 1, "zz": 1})  # unknown name
    with pytest.raises(SchemaMismatch):
        fam.check("F5", {"m": 3, "r": 0, "i": 3, "b": 1})    # below minimum
    with pytest.raises(SchemaMismatch):
        fam.check("nope", {})
    with pytest.raises(SchemaMismatch):
        fam.check("F6", {"q": 4, "case": "sum", "delta": 0, "c": 1})  # u missing


def test_f3_odd_m_shape():
    with pytest.raises(FieldShapeMismatch):
        fam.build("F3", {"m": 3, "c": 1})
    rep = fam.check("F3", {"m": 3, "c": 1})  # condition stays total
    assert not rep.clause("cube-congruence").passed


def test_condition_totality_random_inputs():
    rng = random.Random(13)
    for fid, shape in (("F8", {"m": 2}), ("F9", {"m": 2}), ("F10", {"m": 1}),
                       ("F11", {"m": 1})):
        ctx = fam.family_ctx(fid, shape)
        spec = fam.family(fid)
        for _ in range(150):
            params = dict(shape, r=rng.randrange(1, 8), s=rng.randrange(1, 5))
            for ps in spec.params:
                if ps.kind == "element":
                    lo = 1 if ps.nonzero else 0
                    params[ps.name] = rng.randrange(lo, ctx.order)
            rep = fam.check(fid, params, ctx=ctx)
            assert isinstance(rep.passed, bool)


# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------

def test_enumerate_f3_count():
    n = sum(1 for _, rep in fam.enumerate_instances("F3", {"m": 4}) if rep.passed)
    assert n == 119


def test_enumerate_f5_count_and_order():
    rows = list(fam.enumerate_instances("F5", {"m": 3, "r": 4, "i": 3}))
    assert [p["b"] for p, _ in rows] == list(range(1, 64))  # deterministic order
    assert sum(1 for _, rep in rows if rep.passed) == 6


def test_enumerate_f11_anchor_set():
    ctx = fam.family_ctx("F11", {"m": 2})
    passing = sorted(p["a"] for p, rep in fam.enumerate_instances(
        "F11", {"m": 2, "r": 4, "s": 3, "b": 1, "delta": 0})
        if rep.passed_except("three-coprime"))
    assert passing == sorted((ctx.pow(ctx.generator, 21),
                              ctx.pow(ctx.generator, 42)))


def test_enumerate_cap_and_unfixed_int():
    with pytest.raises(EnumerationTooLarge):
        list(fam.enumerate_instances("F11", {"m": 2, "r": 4, "s": 3}, cap=1000))
    with pytest.raises(SchemaMismatch):
        list(fam.enumerate_instances("F5", {"m": 3, "r": 4}))  # i not fixed


# --------------------------------------------------------------------------
# builder/closure agreement
# --------------------------------------------------------------------------

_U = ((5, 0), (1, 1), (7, 2), (3, 3))  # u of F6/F7 and g of F12, as (coeff, exp)


@pytest.mark.parametrize("fid,params", [
    ("F1", {"m": 1, "delta": 6, "c": 1}),
    ("F2", {"m": 1, "c": 1}),
    ("F3", {"m": 2, "c": 7}),
    ("F4", {"m": 2, "b": 11}),
    ("F5", {"m": 2, "r": 3, "i": 2, "b": 2}),
    ("F8", {"m": 2, "r": 1, "s": 2, "a": 5, "delta": 9}),
    ("F9", {"m": 2, "r": 1, "s": 2, "a": 6, "delta": 7}),
    ("F10", {"m": 1, "r": 1, "s": 2, "a": 3, "b": 5}),
    ("F11", {"m": 1, "r": 1, "s": 1, "a": 3, "b": 5, "delta": 2}),
    ("F1", {"m": 3, "delta": 100, "c": 1}),
    ("F2", {"m": 3, "c": 7}),
    ("F3", {"m": 4, "c": 77}),
    ("F4", {"m": 1, "b": 2}),
    ("F4", {"m": 4, "b": 7}),
    ("F5", {"m": 4, "r": 7, "i": 3, "b": 5}),
    ("F6", {"q": 2, "case": "power", "i": 2, "delta": 3, "c": 1}),
    ("F6", {"q": 4, "case": "sum", "u": _U, "delta": 33, "c": 2}),
    ("F6", {"q": 8, "case": "power", "i": 1, "delta": 100, "c": 1}),
    ("F6", {"q": 3, "case": "sum", "u": _U, "delta": 4, "c": 2}),
    ("F6", {"q": 3, "case": "power", "i": 2, "delta": 11, "c": 1}),
    ("F7", {"q": 2, "case": "power", "i": 1, "delta": 3, "c": 1, "c0": 6}),
    ("F7", {"q": 4, "case": "sum", "u": _U, "delta": 9, "c": 1}),
    ("F7", {"q": 3, "case": "sum", "u": _U, "delta": 40, "c": 2}),
    ("F7", {"q": 3, "case": "power", "i": 1, "delta": 7, "c": 1}),
    ("F8", {"m": 3, "r": 2, "s": 2, "a": 0, "delta": 0}),
    ("F8", {"m": 4, "r": 4, "s": 3, "a": 9, "delta": 3}),
    ("F9", {"m": 4, "r": 4, "s": 3, "a": 6, "delta": 7}),
    ("F10", {"m": 3, "r": 4, "s": 1, "a": 5, "b": 1}),
    ("F11", {"m": 2, "r": 4, "s": 1, "a": 3, "b": 1, "delta": 2}),
    ("F12", {"p": 2, "k": 9, "step": 3, "sign": "plus", "g": _U, "c": 1, "delta": 300}),
    ("F12", {"p": 2, "k": 4, "step": 1, "sign": "minus", "g": (), "c": 1, "delta": 9}),
    ("F12", {"p": 3, "k": 3, "step": 1, "sign": "minus", "g": _U, "c": 2, "delta": 5}),
    ("F12", {"p": 3, "k": 4, "step": 2, "sign": "plus", "g": _U, "c": 1, "delta": 50}),
    ("F12", {"p": 5, "k": 2, "step": 1, "sign": "minus", "g": _U, "c": 3, "delta": 17}),
])
def test_expansion_matches_closure(fid, params):
    # the compiled evaluator against build() through table-free powers with
    # unreduced exponents, at every point of the field
    ctx = fam.family_ctx(fid, params)
    params = {k: SparsePoly(ctx, v) if k in ("u", "g") else v for k, v in params.items()}
    poly = fam.build(fid, params, ctx=ctx)
    ev = fam.evaluator(fid, params, ctx=ctx)
    assert all(raw_eval(ctx, poly, x) == ev(x) for x in range(ctx.order))


@pytest.mark.parametrize("fid,params", [
    ("F8", {"m": 9, "r": 5, "s": 3, "a": 1, "delta": 10}),
    ("F6", {"q": 64, "case": "sum", "u": _U, "delta": 1000, "c": 1}),
    ("F7", {"q": 3, "case": "power", "i": 1, "delta": 7, "c": 1}),
])
def test_untabled_evaluator_spot_check(fid, params, monkeypatch):
    # GF(2^18) is above the table limit, so the form evaluates through ctx
    # arithmetic; GF(3^4) is forced there by lowering the limit
    if fid == "F7":
        monkeypatch.setattr(fam.make_field(3, 4), "_exp", None)
        monkeypatch.setattr("permpoly.field.TABLE_LIMIT", 1)
    ctx = fam.family_ctx(fid, params)
    params = {k: SparsePoly(ctx, v) if k == "u" else v for k, v in params.items()}
    poly = fam.build(fid, params, ctx=ctx)
    ev = fam.evaluator(fid, params, ctx=ctx)
    assert not ctx.ensure_tables()
    rng = random.Random(18)
    xs = [0, 1, ctx.generator] + [rng.randrange(ctx.order) for _ in range(12)]
    assert all(raw_eval(ctx, poly, x) == ev(x) for x in xs)


def _form_ref(form, x):
    """The form's formula over raw_eval/raw_pow, exponents unreduced."""
    ctx = form.core.ctx
    w = raw_eval(ctx, form.core, x)
    if form.u is not None:
        w1 = raw_eval(ctx, form.u, w)
        w = 0
        for j in range(form.n):
            w = ctx.add(w, raw_pow(ctx, w1, form.q ** j))
    v = ctx._mul_raw(ctx._mul_raw(form.c0, raw_pow(ctx, x, form.r)), raw_pow(ctx, w, form.E))
    return ctx.add(v, ctx._mul_raw(form.c, x))


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (2, 17)])
def test_form_edge_cases(p, k):
    ctx = make_field(p, k)
    g = ctx.generator
    n1 = ctx.order - 1
    root = SparsePoly(ctx, [(1, 1), (ctx.neg(g), 0)])  # core(g) = 0
    u = SparsePoly(ctx, [(ctx.neg(1), 2), (g, 1), (1, 0)])
    forms = [
        fam.Form(root, 3, c=g),                        # 0^E under y^E at x = g
        fam.Form(root, 2 * n1, r=0, c0=g),             # E a multiple of q-1; x^0 at 0
        fam.Form(root, 5, r=3, c0=g, c=1),             # x^r kills f(0)
        fam.Form(SparsePoly(ctx), 2, c=g),             # zero core
        fam.Form(root, u=SparsePoly(ctx), c=1),        # zero u
        fam.Form(root, u=u, n=k, q=p, c0=g, c=g),      # q-power sum, odd p by ctx.add
        fam.Form(root, 2, u=u, r=n1, c=1),             # u^E; exponent r = q-1
    ]
    xs = range(ctx.order) if ctx.order <= 256 else (0, 1, g, ctx.pow(g, 999), n1)
    for form in forms:
        fn = form.rep_fn()
        assert [fn(x) for x in xs] == [_form_ref(form, x) for x in xs]
    assert forms[0].rep_fn()(g) == ctx.mul(g, g)
    assert forms[1].rep_fn()(0) == ctx.mul(g, ctx.pow(ctx.neg(g), 2 * n1))
    assert forms[2].rep_fn()(0) == 0
    assert forms[4].rep_fn()(g) == g


@pytest.mark.parametrize("q,case", [(2, "sum"), (2, "power"),
                                    (3, "sum"), (3, "power")])
def test_f6_f7_expansion_matches_closure(q, case):
    rng = random.Random(q * 10 + len(case))
    for fid in ("F6", "F7"):
        ctx = fam.family_ctx(fid, {"q": q})
        params = {"q": q, "case": case, "delta": rng.randrange(ctx.order),
                  "c": 1}
        if case == "sum":
            params["u"] = SparsePoly(ctx, [(rng.randrange(ctx.order), d)
                                           for d in range(5)])
        else:
            params["i"] = 2
        poly = fam.build(fid, params, ctx=ctx)
        ev = fam.evaluator(fid, params, ctx=ctx)
        assert all(poly.eval_rep(x) == ev(x) for x in range(ctx.order))


# --------------------------------------------------------------------------
# soundness sweeps (beyond the shapes the regression criteria already cover)
# --------------------------------------------------------------------------

def test_f2_sound_small():
    for m in (1, 2):
        ctx = fam.family_ctx("F2", {"m": m})
        for c in (ctx.subfield_reps(m)[1:] if m > 1 else [1]):
            params = {"m": m, "c": c}
            assert fam.check("F2", params, ctx=ctx).passed
            assert is_permutation(fam.evaluator("F2", params, ctx=ctx),
                                  ctx).is_permutation


def test_f3_sound_m2():
    ctx = fam.family_ctx("F3", {"m": 2})
    hits = 0
    for params, rep in fam.enumerate_instances("F3", {"m": 2}):
        if rep.passed:
            hits += 1
            assert is_permutation(fam.evaluator("F3", params, ctx=ctx),
                                  ctx).is_permutation
    assert hits > 0


def test_f5_sound_m2():
    # for m = 2 the order clauses need 5 | i; r coprime to 15 and r != i mod 5
    ctx = fam.family_ctx("F5", {"m": 2})
    hits = 0
    for r, i in ((1, 5), (2, 5), (4, 10)):
        for params, rep in fam.enumerate_instances("F5", {"m": 2, "r": r, "i": i}):
            if rep.passed:
                hits += 1
                assert is_permutation(fam.evaluator("F5", params, ctx=ctx),
                                      ctx).is_permutation
    assert hits > 0


def test_f8_sound_m2_m3():
    rng = random.Random(43)
    hits = 0
    for m, keep in ((2, None), (3, 0.25)):
        ctx = fam.family_ctx("F8", {"m": m})
        for s in (2, 3):
            for a in range(ctx.order):
                for delta in range(ctx.order):
                    if keep and rng.random() > keep:
                        continue
                    params = {"m": m, "r": 1, "s": s, "a": a, "delta": delta}
                    if not fam.check("F8", params, ctx=ctx).passed:
                        continue
                    hits += 1
                    assert is_permutation(fam.evaluator("F8", params, ctx=ctx),
                                          ctx).is_permutation, params
    assert hits > 200


def test_f10_sound_m1_exhaustive_m2_sampled():
    ctx8 = fam.family_ctx("F10", {"m": 1})
    hits = 0
    for s in (1, 2):
        for a in range(1, 8):
            for b in range(1, 8):
                params = {"m": 1, "r": 1, "s": s, "a": a, "b": b}
                if not fam.check("F10", params, ctx=ctx8).passed:
                    continue
                hits += 1
                assert is_permutation(fam.evaluator("F10", params, ctx=ctx8),
                                      ctx8).is_permutation, params
    assert hits > 0
    rng = random.Random(47)
    ctx64 = fam.family_ctx("F10", {"m": 2})
    for _ in range(400):
        params = {"m": 2, "r": rng.choice([1, 2, 4, 5]), "s": rng.randrange(1, 4),
                  "a": rng.randrange(1, 64), "b": rng.randrange(1, 64)}
        if not fam.check("F10", params, ctx=ctx64).passed:
            continue
        assert is_permutation(fam.evaluator("F10", params, ctx=ctx64),
                              ctx64).is_permutation, params


# --------------------------------------------------------------------------
# the two documented gate defects, characterized exactly
# --------------------------------------------------------------------------

def test_f9_gate_defect_and_repair():
    """The registered cube-ratio gate disagrees with the oracle; the product
    gate trace(a * delta) == 1 is the exact bijection criterion."""
    expected = {2: (18, 6), 3: (84, 36)}
    for m in (2, 3):
        ctx = fam.family_ctx("F9", {"m": m})
        subfield_units = [r for r in ctx.subfield_reps(m) if r]
        stated = disagree = 0
        for s in (1, 2, 3):
            for a in subfield_units:
                for delta in subfield_units:
                    params = {"m": m, "r": 1, "s": s, "a": a, "delta": delta}
                    rep = fam.check("F9", params, ctx=ctx)
                    perm = is_permutation(fam.evaluator("F9", params, ctx=ctx),
                                          ctx).is_permutation
                    repaired = ctx.rel_trace(ctx.mul(a, delta), 1, m) == 1
                    assert perm == repaired, params  # repaired gate is an iff
                    if rep.passed:
                        stated += 1
                        disagree += (not perm)
        assert (stated, disagree) == expected[m]


def test_f11_gate_defect_and_repair_m1():
    """Full (a, b, delta) sweep over GF(8): the registered shift-ratio gate
    admits 18 non-bijections out of 21; replacing (delta+1)/(a+b+1) in
    GF(2^m)* by delta/(a+b+1) in GF(2^m) gives zero disagreements."""
    ctx = fam.family_ctx("F11", {"m": 1})
    stated = stated_bad = repaired = repaired_bad = 0
    for a in range(1, 8):
        for b in range(1, 8):
            for delta in range(8):
                params = {"m": 1, "r": 1, "s": 1, "a": a, "b": b, "delta": delta}
                rep = fam.check("F11", params, ctx=ctx)
                perm = is_permutation(fam.evaluator("F11", params, ctx=ctx),
                                      ctx).is_permutation
                if rep.passed:
                    stated += 1
                    stated_bad += (not perm)
                ssum = ctx.add(ctx.add(a, b), 1)
                fixed = (ssum != 0
                         and ctx.subfield_test(ctx.div(delta, ssum), 1)
                         and ctx.add(ssum, delta) != 0
                         and linearized_bijective(ctx.elem(a), ctx.elem(b), 1))
                if fixed:
                    repaired += 1
                    repaired_bad += (not perm)
    assert (stated, stated_bad) == (21, 18)
    assert (repaired, repaired_bad) == (21, 0)


def test_f11_truth_is_root_membership():
    """Whenever the linearized core is bijective, the product permutes exactly
    when the unique preimage of delta avoids the order-T subgroup."""
    rng = random.Random(53)
    for m, trials in ((1, None), (2, 250)):
        ctx = fam.family_ctx("F11", {"m": m})
        Q = 1 << m
        T = Q * Q + Q + 1
        if trials is None:
            cases = [(a, b, d) for a in range(1, 8) for b in range(1, 8)
                     for d in range(8)]
        else:
            cases = [(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order),
                      rng.randrange(ctx.order)) for _ in range(trials)]
        for a, b, d in cases:
            if not linearized_bijective(ctx.elem(a), ctx.elem(b), m):
                continue
            roots = [x for x in range(ctx.order)
                     if ctx.add(ctx.add(ctx.pow(x, Q * Q),
                                        ctx.mul(b, ctx.pow(x, Q))),
                                ctx.mul(a, x)) == d]
            assert len(roots) == 1
            x0 = roots[0]
            perm = is_permutation(
                fam.evaluator("F11", {"m": m, "r": 1, "s": 1, "a": a, "b": b,
                                      "delta": d}, ctx=ctx), ctx).is_permutation
            assert perm == (x0 == 0 or ctx.pow(x0, T) != 1), (m, a, b, d)


def test_f11_registry_shape_bijective_for_anchor_values():
    ctx = fam.family_ctx("F11", {"m": 2})
    for e in (21, 42):
        a = ctx.pow(ctx.generator, e)
        params = {"m": 2, "r": 4, "s": 3, "a": a, "b": 1, "delta": 0}
        assert is_permutation(fam.evaluator("F11", params, ctx=ctx),
                              ctx).is_permutation


# --------------------------------------------------------------------------
# transform pairs
# --------------------------------------------------------------------------

def test_transform_power_collapses_to_linear():
    # g = x^(i*(q^2+q+1)) over GF(q^3): h acts as c*x pointwise
    ctx = make_field(2, 3)
    for i in (1, 2, 3):
        g = SparsePoly(ctx, [(1, 7 * i)])
        _, h = transform_pair(g, 1, 1)
        assert all(h.eval_rep(x) == x for x in range(8))


def test_transform_zero_polynomial():
    ctx = make_field(2, 3)
    family, h = transform_pair(SparsePoly(ctx), 1, 1)
    assert h.term_pairs() == ((1, 1),)  # h = c*x structurally
    for delta in range(8):
        assert all(family.map(delta)(x) == x for x in range(8))


def test_transform_equivalence_bruteforce_gf8():
    rng = random.Random(59)
    ctx = make_field(2, 3)
    ctx.ensure_tables()
    seen = {True: 0, False: 0}
    for _ in range(60):
        g = SparsePoly(ctx, [(rng.randrange(8), d) for d in range(8)])
        family, h = transform_pair(g, 1, 1)
        left = all(brute_is_permutation(family.map(d), 8) for d in range(8))
        right = brute_is_permutation(h.eval_rep, 8)
        assert left == right
        seen[right] += 1
    assert seen[True] and seen[False]  # both outcomes exercised


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_transform_equivalence_odd_char(sign):
    rng = random.Random(61)
    ctx = make_field(3, 3)
    ctx.ensure_tables()
    for _ in range(30):
        g = SparsePoly(ctx, [(rng.randrange(27), d) for d in range(6)])
        family, h = transform_pair(g, rng.randrange(1, 3), 1, sign)
        left = all(brute_is_permutation(family.map(d), 27) for d in range(27))
        right = brute_is_permutation(h.eval_rep, 27)
        assert left == right


def test_transform_poly_matches_map():
    ctx = make_field(2, 4)
    g = SparsePoly(ctx, [(3, 5), (7, 2), (1, 0)])
    family, _ = transform_pair(g, 1, 2)
    for delta in (0, 9):
        poly = family.poly(delta)
        fn = family.map(delta)
        assert all(poly.eval_rep(x) == fn(x) for x in range(16))


def test_transform_wider_base_degree():
    # base GF(4) inside GF(16): constants must lie in GF(4)*
    ctx = make_field(2, 4)
    g = SparsePoly(ctx, [(1, 3)])
    sub4 = [r for r in ctx.subfield_reps(2) if r]
    family, h = transform_pair(g, sub4[1], 1, base_degree=2)
    assert h.ctx is ctx
    with pytest.raises(BadSubfieldConstant):
        transform_pair(g, ctx.generator, 1, base_degree=2)


def test_transform_degree_errors():
    ctx = make_field(2, 4)
    g = SparsePoly.x(ctx)
    with pytest.raises(BadDegrees):
        transform_pair(g, 1, 0)
    with pytest.raises(BadDegrees):
        transform_pair(g, 1, 4)
    with pytest.raises(BadSubfieldConstant):
        transform_pair(g, 0, 1)
    with pytest.raises(BadSubfieldConstant):
        transform_pair(g, ctx.generator, 2)  # gcd(2,4)=2: c must be in GF(4)*


def test_f12_registry_entry_builds():
    ctx = make_field(2, 3)
    g = SparsePoly(ctx, [(1, 2), (1, 0)])
    params = {"p": 2, "k": 3, "step": 1, "sign": "minus", "g": g,
              "c": 1, "delta": 5}
    rep = fam.check("F12", params, ctx=ctx)
    assert rep.passed
    poly = fam.build("F12", params, ctx=ctx)
    ev = fam.evaluator("F12", params, ctx=ctx)
    assert all(poly.eval_rep(x) == ev(x) for x in range(8))
