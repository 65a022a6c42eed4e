"""Family registry tests: expansions, conditions, enumeration, transforms, and
the soundness sweeps (with the two documented gate defects characterized
exactly against repaired predicates)."""

import dataclasses
import hashlib
import random

import pytest

from permpoly import (
    BadDegrees,
    BadSubfieldConstant,
    CtxMismatch,
    EnumerationTooLarge,
    FieldCtx,
    FieldShapeMismatch,
    SchemaMismatch,
    SizeLimitExceeded,
    SparsePoly,
    is_permutation,
    linearized_bijective,
    make_field,
    transform_pair,
)
from permpoly import families as fam
from permpoly import oracle

from helpers import (
    brute_is_permutation,
    fibres_of,
    log_order_points,
    naive_f4_report,
    raw_add,
    raw_eval,
    raw_mul,
    raw_pow,
    swept,
)


# --------------------------------------------------------------------------
# registry and expansions
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

    ctx = fam.family_ctx("F6", {"q": 4})
    with pytest.raises(SchemaMismatch):  # case power reads i, not u
        fam.check("F6", {"q": 4, "case": "power", "i": 1, "u": SparsePoly.x(ctx),
                         "delta": 0, "c": 1})
    ctx = fam.family_ctx("F7", {"q": 3})
    with pytest.raises(SchemaMismatch):  # case sum reads u, not i
        fam.check("F7", {"q": 3, "case": "sum", "u": SparsePoly.x(ctx), "i": 5,
                         "delta": 0, "c": 1})


def test_f3_odd_m_shape():
    with pytest.raises(FieldShapeMismatch):
        fam.build("F3", {"m": 3, "c": 1})
    rep = fam.check("F3", {"m": 3, "c": 1})  # condition stays total
    assert not rep.clause("cube-congruence").passed


def test_shape_q_checked_by_size_first():
    # prime-power shapes factor by trial division up to sqrt(q); q above the
    # size limit, or above the field's order, is refused before factoring
    assert fam.family_ctx("F6", {"q": 9}).k == 6
    assert fam.family_ctx("F7", {"q": 8}).k == 12
    for q in (1, 12, 4 * 3 ** 5):
        with pytest.raises(FieldShapeMismatch):
            fam.family_ctx("F6", {"q": q})
    for q in (2 ** 31 - 1, 1000003):
        with pytest.raises(SizeLimitExceeded):
            fam.family_ctx("F6", {"q": q})
    with pytest.raises(FieldShapeMismatch):
        fam.default_twist_scalar(make_field(3, 4), 2 ** 61 - 1)


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


def test_enumerate_f8_nested_order():
    # two swept parameters nest in schema order: a outer, delta inner
    rows = list(fam.enumerate_instances("F8", {"m": 1, "r": 1, "s": 2}))
    assert [(p["a"], p["delta"]) for p, _ in rows] == [
        (a, delta) for a in range(4) for delta in range(4)]
    assert all(list(p) == ["m", "r", "s", "a", "delta"] for p, _ in rows)


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
    # nothing swept: the one all-fixed assignment counts 1 against the cap
    with pytest.raises(EnumerationTooLarge):
        list(fam.enumerate_instances("F4", {"m": 1, "b": 1}, cap=0))
    assert len(list(fam.enumerate_instances("F4", {"m": 1, "b": 1}, cap=1))) == 1
    with pytest.raises(SchemaMismatch):
        list(fam.enumerate_instances("F5", {"m": 3, "r": 4}))  # i not fixed


# --------------------------------------------------------------------------
# expansion/closure agreement
# --------------------------------------------------------------------------

_U = ((5, 0), (1, 1), (7, 2), (3, 3))  # u of F6/F7 and g of F12, as (coeff, exp)


# terms and the first 16 hex digits of the SHA-256 of repr(poly._terms),
# recorded from the hand-written builders that Form.expand replaced
_EXPANSIONS = [
    ("F1", {"m": 1, "delta": 6, "c": 1}, 9, "119dcb2f3a30a949"),
    ("F2", {"m": 1, "c": 1}, 3, "42b30beb2711904c"),
    ("F3", {"m": 2, "c": 7}, 3, "196189bf7fcd5c4a"),
    ("F4", {"m": 2, "b": 11}, 2, "ed21202a53cc7650"),
    ("F5", {"m": 2, "r": 3, "i": 2, "b": 2}, 2, "03acbc65ecabc91a"),
    ("F8", {"m": 2, "r": 1, "s": 2, "a": 5, "delta": 9}, 9, "165eecadf5dd7e48"),
    ("F9", {"m": 2, "r": 1, "s": 2, "a": 6, "delta": 7}, 5, "a3616cada126697a"),
    ("F10", {"m": 1, "r": 1, "s": 2, "a": 3, "b": 5}, 11, "0419f5b4dd6a34d5"),
    ("F11", {"m": 1, "r": 1, "s": 1, "a": 3, "b": 5, "delta": 2}, 24, "7992f17e94a85499"),
    ("F1", {"m": 3, "delta": 100, "c": 1}, 9, "ac0057e1fdbf0850"),
    ("F2", {"m": 3, "c": 7}, 3, "51f601785331d578"),
    ("F3", {"m": 4, "c": 77}, 3, "671859da8d686adf"),
    ("F4", {"m": 1, "b": 2}, 2, "ea9fd1952de77a16"),
    ("F4", {"m": 4, "b": 7}, 2, "a19a0bd9365498d7"),
    ("F5", {"m": 4, "r": 7, "i": 3, "b": 5}, 2, "cf9ba7aa34267c7c"),
    ("F6", {"q": 2, "case": "power", "i": 2, "delta": 3, "c": 1}, 16, "6c6a0cdaaba13977"),
    ("F6", {"q": 4, "case": "sum", "u": _U, "delta": 33, "c": 2}, 19, "5a3334c7a7838730"),
    ("F6", {"q": 8, "case": "power", "i": 1, "delta": 100, "c": 1}, 21, "64fa327a5d88cf63"),
    ("F6", {"q": 3, "case": "sum", "u": _U, "delta": 4, "c": 2}, 12, "0a07b35740cde9a5"),
    ("F6", {"q": 3, "case": "power", "i": 2, "delta": 11, "c": 1}, 76, "fa0e5e1322515cf0"),
    ("F7", {"q": 2, "case": "power", "i": 1, "delta": 3, "c": 1, "c0": 6}, 29, "1109378b018c618a"),
    ("F7", {"q": 4, "case": "sum", "u": _U, "delta": 9, "c": 1}, 23, "6c9e168bc1be1e2a"),
    ("F7", {"q": 3, "case": "sum", "u": _U, "delta": 40, "c": 2}, 16, "7a6f142b07fec74b"),
    ("F7", {"q": 3, "case": "power", "i": 1, "delta": 7, "c": 1}, 55, "dbb7d1c804729791"),
    ("F8", {"m": 3, "r": 2, "s": 2, "a": 0, "delta": 0}, 1, "683491f68aa63128"),
    ("F8", {"m": 4, "r": 4, "s": 3, "a": 9, "delta": 3}, 9, "02f463ed8365729a"),
    ("F9", {"m": 4, "r": 4, "s": 3, "a": 6, "delta": 7}, 61, "097655a5429bfb07"),
    ("F10", {"m": 3, "r": 4, "s": 1, "a": 5, "b": 1}, 20, "63b71cf951eb3df4"),
    ("F11", {"m": 2, "r": 4, "s": 1, "a": 3, "b": 1, "delta": 2}, 40, "6f6aeaa2c2cb337e"),
    ("F12", {"p": 2, "k": 9, "step": 3, "sign": "plus", "g": _U, "c": 1, "delta": 300},
     9, "9880635bf51325c4"),
    ("F12", {"p": 2, "k": 4, "step": 1, "sign": "minus", "g": (), "c": 1, "delta": 9},
     1, "4990a9c0bf77d3c8"),
    ("F12", {"p": 3, "k": 3, "step": 1, "sign": "minus", "g": _U, "c": 2, "delta": 5},
     7, "f13e4e3ea9166770"),
    ("F12", {"p": 3, "k": 4, "step": 2, "sign": "plus", "g": _U, "c": 1, "delta": 50},
     8, "e674aff791d7432f"),
    ("F12", {"p": 5, "k": 2, "step": 1, "sign": "minus", "g": _U, "c": 3, "delta": 17},
     9, "da1723801b914701"),
]


@pytest.mark.parametrize("fid,params,terms,digest", _EXPANSIONS,
                         ids=[f"{c[0]}-params{i}" for i, c in enumerate(_EXPANSIONS)])
def test_expansion_matches_closure(fid, params, terms, digest):
    # the compiled evaluator against build() through table-free powers with
    # unreduced exponents, at every point of the field; build() itself is
    # pinned to the recorded expansion
    ctx = fam.family_ctx(fid, params)
    params = {k: SparsePoly(ctx, v) if k in ("u", "g") else v for k, v in params.items()}
    poly = fam.build(fid, params, ctx=ctx)
    assert len(poly) == terms
    assert hashlib.sha256(repr(poly._terms).encode()).hexdigest()[:16] == digest
    ev = fam.evaluator(fid, params, ctx=ctx)
    assert all(raw_eval(ctx, poly, x) == ev(x) for x in range(ctx.order))


# above the table limit, GF(2^18), pinned the same way: three F9 m=9 r=5
# expansions, too large to check at every point, and their split verdicts.
# The third has coefficients other than 1, so its columns are scaled; its
# condition fails, but it permutes.
_BIG_EXPANSIONS = [
    ({"m": 9, "r": 5, "s": 1, "a": 1, "delta": 1}, 13121, "33e78c179188a7d8", True),
    ({"m": 9, "r": 5, "s": 3, "a": 1, "delta": 1}, 10209, "a07fadb6b1851b83", True),
    ({"m": 9, "r": 5, "s": 1, "a": 3, "delta": 7}, 16402, "6fd6e1eebd95ef81", False),
]


@pytest.mark.parametrize("params,terms,digest,passed", _BIG_EXPANSIONS,
                         ids=[f"F9-params{i}" for i in range(len(_BIG_EXPANSIONS))])
def test_big_expansion_pinned(params, terms, digest, passed):
    poly = fam.build("F9", params)
    assert len(poly) == terms
    assert hashlib.sha256(repr(poly._terms).encode()).hexdigest()[:16] == digest
    assert fam.check("F9", params).passed == passed
    verdict, info = oracle.zieve_verdict(poly)
    assert (verdict, info["d"], info["t"]) == (True, 511, 513)


# every registered family on list tables (the expansions above), a few on
# array tables (GF(2^15), GF(2^16)), and F12 over GF(3^5)
_SWEEPS = [(fid, params) for fid, params, _, _ in _EXPANSIONS] + [
    ("F1", {"m": 5, "delta": 1234, "c": 624}),
    # a form with u and c != 0 on GF(2^15): its c*x column joins the packed sum
    ("F6", {"q": 32, "case": "sum", "u": _U, "delta": 99, "c": 1130}),
    ("F3", {"m": 8, "c": 7}),
    ("F4", {"m": 8, "b": 7}),
    ("F8", {"m": 8, "r": 7, "s": 3, "a": 1, "delta": 3}),
    ("F12", {"p": 3, "k": 5, "step": 1, "sign": "minus", "g": _U, "c": 2, "delta": 5}),
]


@pytest.mark.parametrize("fid,params", _SWEEPS,
                         ids=[f"{c[0]}-params{i}" for i, c in enumerate(_SWEEPS)])
def test_evaluator_sweep_matches_closure(fid, params):
    ctx = fam.family_ctx(fid, params)
    params = {k: SparsePoly(ctx, v) if k in ("u", "g") else v for k, v in params.items()}
    _assert_sweep_is_closure(fam.evaluator(fid, params, ctx=ctx), ctx)


def _assert_sweep_is_closure(ev, ctx):
    """sweep(i0, count) against the per-point closure at every g^i, in uneven
    blocks, across the wrap at q-1 and from a start past it."""
    want = [ev(x) for x in log_order_points(ctx)]
    n1 = len(want)
    assert type(ev.sweep(0, 3)) is list and swept(ev, n1) == want
    assert ev.sweep(n1 - 2, 5) == [want[i % n1] for i in range(n1 - 2, n1 + 3)]
    assert ev.sweep(2 * n1 + 1, 3) == [want[i % n1] for i in range(1, 4)]
    assert ev.sweep(n1 + 300, 600) == [want[i % n1] for i in range(300, 900)]


@pytest.fixture
def log_sweeps(monkeypatch):
    """Calls of ``FieldCtx._log_sweep``, the column sweep, made after setup."""
    calls, inner = [], FieldCtx._log_sweep

    def spy(self, *args):
        calls.append(args[2:])
        return inner(self, *args)
    monkeypatch.setattr(FieldCtx, "_log_sweep", spy)
    return calls


def _assert_cosets(fn, ctx, calls):
    """``fn.bijective`` is the coset source, and ``fn.bijective(fn, q)`` asks
    the columns once, for the head (0, d) with d dividing q-1 and 16*d <=
    q-1.  Its answer is whether f permutes the field, counted by brute force,
    and ``is_permutation`` gives the sequential scan's report.  Returns the
    answer."""
    assert fn.bijective.__name__ == "cosets"
    del calls[:]
    answer = fn.bijective(fn, ctx.order)
    assert len(calls) == 1 and calls[0][0] == 0, calls
    d = calls[0][1]
    assert (ctx.order - 1) % d == 0 and 16 * d <= ctx.order - 1, calls
    assert answer is brute_is_permutation(fn, ctx.order)
    vr = is_permutation(fn, ctx)
    assert (vr.is_permutation, vr.witness, vr.evaluations) == \
        (answer, *oracle._sequential_scan(fn, ctx.order))
    return answer


# split-shaped evaluators, t = gcd(q-1, e - e0) >= 16: the coset source;
# with a = r + E*e0, gcd(a, t) = 1, no zero f(g^j) and distinct labels
# log f(g^j) mod d for j < d make f a bijection (True); a repeat shown by
# the head makes it none (False)
_PERIODIC = [
    ("F3", {"m": 8, "c": 7}, True),  # t = 255
    ("F4", {"m": 8, "b": 7}, False),  # t = 21845, d = 3: two labels agree
    ("F5", {"m": 8, "r": 3, "i": 2, "b": 5}, False),  # a = 3, t = 255: gcd 3
    ("F8", {"m": 8, "r": 7, "s": 3, "a": 1, "delta": 3}, True),
    ("F8", {"m": 8, "r": 7, "s": 3, "a": 2, "delta": 3}, False),  # f(1) = 0: a coset of zeros
    ("F9", {"m": 4, "r": 4, "s": 3, "a": 6, "delta": 7}, False),  # GF(256), t = 17, d = 15
    ("F10", {"m": 5, "r": 1, "s": 1, "a": 5, "b": 1}, True),  # GF(2^15), t = 31
    ("F11", {"m": 5, "r": 1, "s": 1, "a": 3, "b": 1, "delta": 2}, True),
    ("F9", {"m": 6, "r": 5, "s": 3, "a": 6, "delta": 7}, False),  # GF(2^12), t = 65, a = 5: gcd 5
]


@pytest.mark.parametrize("fid,params,bijective", _PERIODIC,
                         ids=[f"{c[0]}-params{i}" for i, c in enumerate(_PERIODIC)])
def test_period_sweep_matches_closure(fid, params, bijective, log_sweeps):
    ctx = fam.family_ctx(fid, params)
    fn = fam.evaluator(fid, params, ctx=ctx)
    _assert_sweep_is_closure(fn, ctx)
    assert _assert_cosets(fn, ctx, log_sweeps) is bijective


def _period_shapes(ctx):
    """Split-shaped maps beyond the registry, as (name, evaluator)."""
    g, n1 = ctx.generator, ctx.order - 1
    t = next(t for t in (255, 22, 121, 48) if n1 % t == 0)
    return [
        # core without a constant term: a = r + E*e0 = 2 + 5*3, not r
        ("alpha-not-r", fam.Form(SparsePoly(ctx, [(g, 3), (1, 3 + 2 * t)]), 5, r=2)),
        ("monomial-form", fam.Form(SparsePoly(ctx, [(g, 3)]), 2, r=1)),  # d = 1
        ("two-terms", SparsePoly(ctx, [(g, 3), (1, 3 + t)])),
        # core = x * (x^t - 1) vanishes where x^t = 1: a coset of zeros
        ("zeros", fam.Form(SparsePoly(ctx, [(ctx.neg(1), 1), (1, 1 + t)]), 2, r=1, c0=g)),
    ]


@pytest.mark.parametrize("p,k", [(2, 16), (3, 5), (5, 4)])
def test_period_sweep_shapes(p, k, log_sweeps):
    # GF(3^5) has q-1 = 242 = 2 * 11^2: t = 22, d = 11, odd characteristic;
    # GF(5^4) has q-1 = 624: t = 48, d = 13.  Over GF(2^16) (t = 255) a = 17
    # (alpha-not-r) and a = 3 (two-terms, zeros) share a factor with t, as
    # a = 3 does with t = 48 over GF(5^4); only the monomial (d = 1) is a
    # bijection, the others repeat an image by their head
    ctx = make_field(p, k)
    ctx.ensure_tables()
    answers = {}
    for name, f in _period_shapes(ctx):
        fn = f.rep_fn()
        if isinstance(f, fam.Form):
            assert [fn(x) for x in range(0, ctx.order, 97)] == \
                [_form_ref(f, x) for x in range(0, ctx.order, 97)], name
        _assert_sweep_is_closure(fn, ctx)
        answers[name] = _assert_cosets(fn, ctx, log_sweeps)
    assert [name for name, b in answers.items() if b] == ["monomial-form"]


def test_column_sweep_kept(log_sweeps):
    # every evaluator sweeps by columns; F1, F2 and F6 are not split-shaped
    # (d = q-1, c != 0 or u set) and x^3 + 1 over GF(2^16) has t = 3, below
    # 16, so they take no coset source (F1 and F6 take their fibres, F2 with
    # c in GF(32) its trace fibres, x^3 + 1 log order), while a monomial is
    # one coset (d = 1)
    ctx = make_field(2, 16)
    cases = [fam.evaluator("F1", {"m": 5, "delta": 1234, "c": 624}),
             fam.evaluator("F2", {"m": 5, "c": 844}),
             fam.evaluator("F6", {"q": 32, "case": "power", "i": 1, "delta": 99, "c": 317}),
             SparsePoly(ctx, [(1, 3), (1, 0)]).rep_fn(),
             SparsePoly(ctx, [(ctx.generator, 7)]).rep_fn()]
    for fn in cases:
        del log_sweeps[:]
        fn.sweep(5, 300)
        assert log_sweeps == [(5, 300)]
    assert [fn.bijective.__name__ for fn in cases] == \
        ["fibres", "trace_fibres", "fibres", "log_order", "cosets"]


def test_only_f2_states_a_trace_claim():
    # the claim is one datum of the registry, the degree d = m of F2's trace
    assert {fid: spec.trace({"m": 7}) for fid, spec in fam.REGISTRY.items()
            if spec.trace} == {"F2": 7}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_wrong_trace_claim_keeps_log_order(m, monkeypatch):
    # a claim the compiler cannot prove costs speed, never a verdict: with
    # d = 1 or d = 2m in place of m, every F2 instance keeps log order, and
    # its report is the one the trace fibres gave
    ctx = fam.family_ctx("F2", {"m": m})
    cs = ctx.subfield_reps(m)[1:] + random.Random(m).sample(range(1, ctx.order), 12)

    def reports():
        out = []
        for c in cs:
            fn = fam.evaluator("F2", {"m": m, "c": c}, ctx=ctx)
            vr = is_permutation(fn, ctx)
            out.append((fn.bijective.__name__, vr.is_permutation, vr.witness, vr.evaluations))
        return out

    proven = reports()
    assert {r[0] for r in proven[:(1 << m) - 1]} == {"trace_fibres"}
    for d in (1, 2 * m):
        monkeypatch.setitem(fam.REGISTRY, "F2", dataclasses.replace(
            fam.REGISTRY["F2"], trace=lambda p, d=d: d))
        assert reports() == [("log_order", *r[1:]) for r in proven]


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
    """The form's formula over raw_eval/raw_pow/raw_add, exponents unreduced."""
    ctx = form.core.ctx
    w = raw_eval(ctx, form.core, x)
    if form.u is not None:
        w1 = raw_eval(ctx, form.u, w)
        w = 0
        for j in range(form.n):
            w = raw_add(ctx, w, raw_pow(ctx, w1, form.q ** j))
    v = raw_mul(ctx, raw_mul(ctx, form.c0, raw_pow(ctx, x, form.r)), raw_pow(ctx, w, form.E))
    return raw_add(ctx, v, raw_mul(ctx, form.c, x))


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
    small = ctx.order <= 256
    xs = range(ctx.order) if small else (0, 1, g, ctx.pow(g, 999), n1)
    for form in forms:
        fn = form.rep_fn()
        assert [fn(x) for x in xs] == [_form_ref(form, x) for x in xs]
        if small:  # the log-order sweep, on tabled fields only
            assert swept(fn, n1) == [fn(x) for x in log_order_points(ctx)]
        else:
            assert not hasattr(fn, "sweep")
        if small:  # the expansion is exact at every point, exponents unreduced
            poly = form.expand()
            assert [raw_eval(ctx, poly, x) for x in xs] == [_form_ref(form, x) for x in xs]
    assert forms[0].rep_fn()(g) == ctx.mul(g, g)
    assert forms[1].rep_fn()(0) == ctx.mul(g, ctx.pow(ctx.neg(g), 2 * n1))
    assert forms[2].rep_fn()(0) == 0
    assert forms[4].rep_fn()(g) == g
    # outside its domain a form is refused when made: E = 0, c0 = 0 and a q
    # that is no power of p used to compile to an evaluator that disagreed
    # with expand(), and a u from another field to compile at all
    with pytest.raises(ValueError):
        fam.Form(root, 0)                              # E = 0
    for c0 in (0, ctx.order):
        with pytest.raises(ValueError):
            fam.Form(root, 3, c0=c0)
    for q in (p + 1, 0):                               # q no power of p
        with pytest.raises(ValueError):
            fam.Form(root, u=u, n=2, q=q)
    conj = fam.Form(root, u=u, n=2, q=p ** k)          # q = p^k is a power of p
    assert conj.rep_fn()(g) == _form_ref(conj, g)
    other = make_field(3 if p == 2 else 2, 3)
    with pytest.raises(CtxMismatch):
        fam.Form(root, u=SparsePoly(other, [(1, 2)]))
    # c outside [0, q) and r < 0 are refused too: c = -1 compiled and read
    # log[-1], a silently wrong evaluator, c = q failed inside rep_fn, and
    # r = -1 divided by zero at compile, while expand() raised on each
    for kw in ({"c": -1}, {"c": ctx.order}, {"c": ctx.order + 44}, {"r": -1}):
        with pytest.raises(ValueError):
            fam.Form(root, 3, **kw)


# --------------------------------------------------------------------------
# fibres of affine-core forms: f(x + k) = f(x) + c*k for k in ker(core - core(0))
# --------------------------------------------------------------------------

def _form_of(fid, params, ctx):
    spec = fam.family(fid)
    return spec.form(ctx, fam._validate(spec, ctx, params))


_FIBRED = [
    ("F1", {"m": 4, "delta": 5, "c": 1}),  # GF(2^12), K = GF(16)
    ("F1", {"m": 5, "delta": 77, "c": 1131}),  # GF(2^15), array tables
    ("F6", {"q": 16, "case": "sum", "u": _U, "delta": 9, "c": 1}),
    ("F6", {"q": 32, "case": "power", "i": 3, "delta": 9, "c": 1}),
    ("F7", {"q": 16, "case": "power", "i": 1, "delta": 9, "c": 1}),  # GF(2^16), twist c0
    ("F7", {"q": 16, "case": "sum", "u": _U, "delta": 9, "c": 2}),  # c outside GF(16)
    ("F6", {"q": 27, "case": "power", "i": 1, "delta": 9, "c": 2}),  # GF(3^9), K = GF(27)
    ("F12", {"p": 5, "k": 4, "step": 2, "sign": "plus", "g": _U, "c": 2, "delta": 3}),
    ("F12", {"p": 5, "k": 4, "step": 2, "sign": "minus", "g": _U, "c": 1, "delta": 0}),
]


@pytest.mark.parametrize("fid,params", _FIBRED,
                         ids=[f"{c[0]}-params{i}" for i, c in enumerate(_FIBRED)])
def test_fibres_identity(fid, params):
    # the fibres cover the field once; each kernel vector k = s/c is killed
    # by the core's linear part, and f(x + k) = f(x) + s under the form's
    # table-free reference at sampled reps x and shifts s
    ctx = fam.family_ctx(fid, params)
    params = {k: SparsePoly(ctx, v) if k in ("u", "g") else v for k, v in params.items()}
    form = _form_of(fid, params, ctx)
    fn = form.rep_fn()
    assert fn.bijective.__name__ == "fibres"
    reps, shifts = fibres_of(form)
    assert len(reps) * len(shifts) == ctx.order and len(set(shifts)) == len(shifts) >= 16
    lam = SparsePoly(ctx, [(c, e) for c, e in form.core.term_pairs() if e])
    rng = random.Random(len(reps))
    for x in rng.sample(reps, 5):
        fx = _form_ref(form, x)
        assert fn(x) == fx
        for s in rng.sample(shifts, 5):
            k = ctx.div(s, form.c)
            assert raw_eval(ctx, lam, k) == 0
            assert _form_ref(form, raw_add(ctx, x, k)) == raw_add(ctx, fx, s)


def test_fibres_above_table_limit():
    # F1 over GF(2^18) has no tables: K = GF(2^6) and the shifts c*K come
    # from ctx arithmetic, the identity holds on the expanded polynomial
    # under raw_eval, and the scan sweeps all 2^18 points fibre by fibre
    ctx = fam.family_ctx("F1", {"m": 6})
    sub = ctx.subfield_reps(6)
    params = {"m": 6, "delta": 5, "c": sub[5]}
    fn = fam.evaluator("F1", params, ctx=ctx)
    assert not ctx.ensure_tables() and fn.bijective.__name__ == "fibres"
    reps, shifts = fibres_of(_form_of("F1", params, ctx))
    assert len(reps) == 4096 and sorted(shifts) == sorted(raw_mul(ctx, sub[5], v) for v in sub)
    poly = fam.build("F1", params, ctx=ctx)
    rng = random.Random(18)
    for x in rng.sample(reps, 4):
        fx = raw_eval(ctx, poly, x)
        assert fn(x) == fx
        for v in rng.sample(sub, 4):
            assert raw_eval(ctx, poly, x ^ v) == fx ^ raw_mul(ctx, sub[5], v)
    vr = is_permutation(fn, ctx)
    assert (vr.is_permutation, vr.witness, vr.evaluations) == (True, None, 1 << 18)


@pytest.fixture
def kernel_splits(monkeypatch):
    """The fields of the ``FieldCtx._kernel_split`` calls made after setup."""
    calls, inner = [], FieldCtx._kernel_split
    monkeypatch.setattr(FieldCtx, "_kernel_split",
                        lambda self, images: calls.append(self) or inner(self, images))
    return calls


def test_no_fibres_below_orbit_min(kernel_splits):
    # criterion 9's F1 m=3 (|K| = 8) and F7 q=3 (|K| = 3) have a largest
    # core exponent below 16, and r != 0 or a core that is not affine (F8)
    # rules fibres out: none of these runs any linear algebra, and each takes
    # its source from the sweep; x^16 + x^2 + 7 over GF(2^12) passes those
    # checks, and its kernel GF(8) is too small
    ctx = make_field(2, 12)
    cases = [fam.evaluator("F1", {"m": 3, "delta": 5, "c": 1}),
             fam.evaluator("F7", {"q": 3, "case": "power", "i": 1, "delta": 7, "c": 1}),
             fam.evaluator("F8", {"m": 6, "r": 5, "s": 3, "a": 1, "delta": 3}),
             fam.Form(SparsePoly(ctx, [(1, 16), (1, 1)]), 3, r=1, c=1).rep_fn()]
    assert [fn.bijective.__name__ for fn in cases] == \
        ["log_order", "log_order", "cosets", "log_order"] and kernel_splits == []
    form = fam.Form(SparsePoly(ctx, [(1, 16), (1, 2), (7, 0)]), 3, c=1)
    assert form.rep_fn().bijective.__name__ == "log_order" and kernel_splits == [ctx]
    assert form._fibres() is None


def test_fibres_of_delta_family_maps():
    # delta is the core's constant term, so it leaves the kernel alone: every
    # map of the family has the same fibres, and each map is its own form
    ctx = make_field(5, 4)
    family, _ = transform_pair(SparsePoly(ctx, _U), 2, 2, "minus")
    f7 = family.map(7)
    assert family.map(0).bijective.__name__ == f7.bijective.__name__ == "fibres"
    reps, shifts = fibres_of(family.form(7))
    assert fibres_of(family.form(0)) == (reps, shifts)
    assert all(f7(x) == _form_ref(family.form(7), x) for x in reps[:20])


def test_delta_family_refuses_delta_of_another_field():
    # a FieldElem delta from GF(8) would be read by its rep in GF(16): rep 5
    # is another element there (g^8), so it is refused, as transform_pair
    # refuses such a c; a delta of the family's own field is its rep
    ctx = make_field(2, 4)
    family, _ = transform_pair(SparsePoly(ctx, [(1, 1)]), 1, 1, "minus")
    for call in (family.form, family.map):
        with pytest.raises(CtxMismatch):
            call(make_field(2, 3).elem(5))
    assert family.form(ctx.elem(5)) == family.form(5)


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
# F4's disjointness clause by coset labels against the image sets
# --------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_f4_check_matches_image_sets(m):
    # every b over GF(2^2m): names, verdicts and witness strings
    ctx = fam.family_ctx("F4", {"m": m})
    ctx.ensure_tables()
    fails = 0
    for b in range(ctx.order):
        report = fam.check("F4", {"m": m, "b": b}, ctx=ctx)
        assert report == naive_f4_report(ctx, b), b
        fails += not report.clause("coset-images-disjoint").passed
    assert 0 < fails < ctx.order


@pytest.mark.parametrize("b", [2, 7, 11])
def test_f4_check_matches_image_sets_gf2_16(b):
    ctx = fam.family_ctx("F4", {"m": 8})
    ctx.ensure_tables()
    report = fam.check("F4", {"m": 8, "b": b}, ctx=ctx)
    assert report == naive_f4_report(ctx, b)
    assert report.clause("coset-images-disjoint").passed == (b != 7)


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
        poly = family.form(delta).expand()
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
