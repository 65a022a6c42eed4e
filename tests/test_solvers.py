"""Solver tests: every branch checked against brute-force enumeration."""

import random

import pytest

from permpoly import (
    CtxMismatch,
    FieldCtx,
    HypothesisUnmet,
    RootKind,
    ZeroCoefficient,
    affine_frobenius_roots,
    linearized_bijective,
    make_field,
    quad_char2_roots,
    unit_circle_quad,
)

from helpers import (
    brute_affine_roots,
    brute_quad_roots,
    linearized_kernel,
    raw_mul,
    raw_pow,
)


# --------------------------------------------------------------------------
# quadratic solver
# --------------------------------------------------------------------------

def test_quad_gf4_splits():
    ctx = make_field(2, 2)
    rep = quad_char2_roots(ctx.one, ctx.one)
    assert rep.kind is RootKind.TWO_ROOTS
    assert sorted(rep.root_reps()) == [2, 3]  # omega and omega^2


def test_quad_gf2_and_gf8_irreducible():
    for k in (1, 3):
        ctx = make_field(2, k)
        rep = quad_char2_roots(ctx.one, ctx.one)
        assert rep.kind is RootKind.NO_ROOT
        assert rep.certificate == "trace-nonzero"


def test_quad_degenerate_square_root():
    ctx = make_field(2, 4)
    for v in range(16):
        rep = quad_char2_roots(ctx.zero, ctx.elem(v))
        assert rep.kind is RootKind.UNIQUE
        (root,) = rep.root_reps()
        assert ctx.mul(root, root) == v


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_quad_exhaustive_vs_enumeration(k):
    ctx = make_field(2, k)
    ctx.ensure_tables()
    for u in range(ctx.order):
        for v in range(ctx.order):
            rep = quad_char2_roots(ctx.elem(u), ctx.elem(v))
            assert sorted(rep.root_reps()) == brute_quad_roots(ctx, u, v)


def test_quad_ctx_mismatch():
    with pytest.raises(CtxMismatch):
        quad_char2_roots(make_field(2, 3).one, make_field(2, 4).one)


def test_quad_requires_char2():
    ctx = make_field(3, 3)
    with pytest.raises(ValueError):
        quad_char2_roots(ctx.one, ctx.one)


# --------------------------------------------------------------------------
# unit-circle classification
# --------------------------------------------------------------------------

def test_circle_hypothesis_gate():
    ctx = make_field(2, 4)
    # b/a^2 with nonzero absolute trace must be rejected
    found = False
    for a in range(1, 16):
        for b in range(1, 16):
            if ctx.rel_trace(ctx.div(b, ctx.mul(a, a)), 1, 4) != 0:
                with pytest.raises(HypothesisUnmet):
                    unit_circle_quad(ctx.elem(a), ctx.elem(b), 2)
                found = True
                break
        if found:
            break
    assert found
    with pytest.raises(HypothesisUnmet):
        unit_circle_quad(ctx.zero, ctx.one, 2)


def test_circle_gf16_unit_coefficients():
    # x^2 + x + 1 splits over GF(16) into the cube roots, which avoid mu_5
    ctx = make_field(2, 4)
    rep = unit_circle_quad(ctx.one, ctx.one, 2)
    assert rep.kind is RootKind.NO_ROOT
    assert rep.certificate == "none-in-circle"


def test_circle_reduction_quadratic_never_meets_circle():
    # z^2 + (1/c^q) z + c^(1-q) for admissible c stays off the unit circle
    ctx = make_field(2, 4)
    q = 4
    hit = 0
    for c in range(1, 16):
        if ctx.rel_trace(ctx.pow(c, q + 1), 1, 2) != 0:
            continue
        hit += 1
        a = ctx.elem(ctx.inv(ctx.pow(c, q)))
        b = ctx.elem(ctx.pow(c, 1 - q))
        rep = unit_circle_quad(a, b, 2)
        assert rep.kind is RootKind.NO_ROOT
    assert hit > 0


@pytest.mark.parametrize("m", [2, 3])
def test_circle_kind_matches_certificate_and_enumeration(m):
    ctx = make_field(2, 2 * m)
    ctx.ensure_tables()
    Q = 1 << m
    mu = set(ctx.subgroup_reps(Q + 1))
    by_branch = {"both-in-circle": 2, "one-in-circle": 1, "none-in-circle": 0}
    for a in range(1, ctx.order):
        for b in range(1, ctx.order):
            try:
                rep = unit_circle_quad(ctx.elem(a), ctx.elem(b), m)
            except HypothesisUnmet:
                continue
            brute = sorted(x for x in mu
                           if ctx.add(ctx.add(ctx.mul(x, x), ctx.mul(a, x)), b) == 0)
            assert sorted(rep.root_reps()) == brute
            assert len(rep.roots) == by_branch[rep.certificate]
            assert all(ctx.pow(x, Q + 1) == 1 for x in rep.root_reps())


# --------------------------------------------------------------------------
# affine Frobenius equation
# --------------------------------------------------------------------------

def test_affine_gf8_examples():
    ctx = make_field(2, 3)
    rep = affine_frobenius_roots(ctx.one, ctx.one, 1)
    assert rep.kind is RootKind.NO_ROOT  # numerator 1+1+1 = 1 != 0
    rep = affine_frobenius_roots(ctx.one, ctx.gen, 1)
    assert rep.kind is RootKind.SUBFIELD_MANY
    assert len(rep.roots) == 2  # exactly 2^m roots
    assert rep.certificate == "kernel-coset"


def test_affine_root_counts_per_branch():
    ctx = make_field(2, 6)
    ctx.ensure_tables()
    for a in range(1, 64):
        for b in range(1, 64):
            rep = affine_frobenius_roots(ctx.elem(a), ctx.elem(b), 2)
            if rep.kind is RootKind.SUBFIELD_MANY:
                assert len(rep.roots) == 4
            else:
                assert len(rep.roots) <= 1


def test_affine_random_samples_match_enumeration_gf64():
    ctx = make_field(2, 6)
    ctx.ensure_tables()
    rng = random.Random(17)
    for _ in range(300):
        a = rng.randrange(1, 64)
        b = rng.randrange(1, 64)
        rep = affine_frobenius_roots(ctx.elem(a), ctx.elem(b), 2)
        assert sorted(rep.root_reps()) == brute_affine_roots(ctx, a, b, 2)


def test_affine_sampled_gf512():
    ctx = make_field(2, 9)
    ctx.ensure_tables()
    rng = random.Random(23)
    for _ in range(2000):
        a = rng.randrange(1, 512)
        b = rng.randrange(1, 512)
        rep = affine_frobenius_roots(ctx.elem(a), ctx.elem(b), 3)
        assert sorted(rep.root_reps()) == brute_affine_roots(ctx, a, b, 3)


def test_affine_kernel_coset_without_tables():
    # A = a^T = 1 and b = x0^Q + a*x0, so the roots are x0's kernel coset;
    # over GF(2^18) the coset offset comes from baby-step giant-step dlog
    ctx = make_field(2, 18)
    assert not ctx.ensure_tables()
    Q = 64
    a = ctx.pow(ctx.generator, 5 * (ctx.order - 1) // (Q * Q + Q + 1))
    x0 = 12345
    b = ctx.add(ctx.pow(x0, Q), ctx.mul(a, x0))
    rep = affine_frobenius_roots(ctx.elem(a), ctx.elem(b), 6)
    assert rep.certificate == "kernel-coset"
    roots = rep.root_reps()
    assert len(set(roots)) == 64 and x0 in roots
    assert all(raw_pow(ctx, x, Q) ^ raw_mul(ctx, a, x) ^ b == 0 for x in roots)
    # a fresh GF(2^6) context starts untabled and must find the same roots
    base = make_field(2, 6)
    assert base.ensure_tables()
    a = base.pow(base.generator, 5 * 63 // 21)
    cosets = 0
    for x0 in range(1, 64):
        b = base.add(base.pow(x0, 4), base.mul(a, x0))
        if b == 0:
            continue
        fresh = FieldCtx(2, 6, base.modulus, base.generator)
        got = affine_frobenius_roots(fresh.elem(a), fresh.elem(b), 2)
        want = affine_frobenius_roots(base.elem(a), base.elem(b), 2)
        assert got.root_reps() == want.root_reps() and x0 in want.root_reps(), x0
        cosets += got.certificate == "kernel-coset"
    assert cosets == 60


def test_affine_rejects_zero_coefficients():
    ctx = make_field(2, 6)
    with pytest.raises(ZeroCoefficient):
        affine_frobenius_roots(ctx.zero, ctx.one, 2)
    with pytest.raises(CtxMismatch):
        affine_frobenius_roots(ctx.one, ctx.one, 1)  # 3m != 6


# --------------------------------------------------------------------------
# linearized bijectivity
# --------------------------------------------------------------------------

def test_linearized_trace_kernel_counterexample():
    # a = b = 1, q = 2: L(x) = x + x^2 + x^4 has kernel of size 4
    ctx = make_field(2, 3)
    assert linearized_bijective(ctx.one, ctx.one, 1) is False
    assert len(linearized_kernel(ctx, 1, 1, 1)) == 4


def test_linearized_anchor_value_gf64():
    ctx = make_field(2, 6)
    a = ctx.elem(ctx.pow(ctx.generator, 21))
    assert linearized_bijective(a, ctx.one, 2) is True


@pytest.mark.parametrize("m,k", [(1, 3), (2, 6)])
def test_linearized_exhaustive_kernel(m, k):
    ctx = make_field(2, k)
    ctx.ensure_tables()
    for a in range(1, ctx.order):
        for b in range(1, ctx.order):
            pred = linearized_bijective(ctx.elem(a), ctx.elem(b), m)
            assert pred == (len(linearized_kernel(ctx, a, b, m)) == 1)


def test_linearized_sampled_gf512():
    ctx = make_field(2, 9)
    ctx.ensure_tables()
    rng = random.Random(29)
    for _ in range(2000):
        a = rng.randrange(1, 512)
        b = rng.randrange(1, 512)
        pred = linearized_bijective(ctx.elem(a), ctx.elem(b), 3)
        assert pred == (len(linearized_kernel(ctx, a, b, 3)) == 1)


def test_linearized_rejects_zero_coefficients():
    ctx = make_field(2, 6)
    with pytest.raises(ZeroCoefficient):
        linearized_bijective(ctx.one, ctx.zero, 2)
