"""Field-layer tests: contexts, arithmetic, structure maps, sparse polynomials."""

import random
import threading

import pytest

from permpoly import (
    CtxMismatch,
    DegreeMismatch,
    DivisionByZero,
    NotADivisor,
    NotPrime,
    ReducibleModulus,
    SizeLimitExceeded,
    SparsePoly,
    make_field,
)
from permpoly.field import is_irreducible

from helpers import naive_eval, raw_eval, raw_pow


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_default_modulus_gf8_is_least_irreducible_cubic():
    # enumerate all 8 monic cubics over GF(2) and find the least irreducible
    least = None
    for n in range(8):
        cand = [n & 1, (n >> 1) & 1, (n >> 2) & 1, 1]
        if is_irreducible(cand, 2):
            least = tuple(cand)
            break
    ctx = make_field(2, 3)
    assert ctx.modulus == least == (1, 1, 0, 1)  # x^3 + x + 1


def test_prime_field_gf2():
    ctx = make_field(2, 1)
    assert ctx.order == 2
    assert ctx.generator == 1


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        make_field(4, 2)


def test_size_limit():
    with pytest.raises(SizeLimitExceeded):
        make_field(2, 25)
    make_field(2, 5, size_limit=32)  # boundary is inclusive
    with pytest.raises(SizeLimitExceeded):
        make_field(2, 5, size_limit=31)


def test_supplied_modulus_validated():
    # x^4 + x^3 + 1 is irreducible; x^4 + 1 = (x+1)^4 is not
    ctx = make_field(2, 4, modulus=(1, 0, 0, 1, 1))
    assert ctx.modulus == (1, 0, 0, 1, 1)
    with pytest.raises(ReducibleModulus):
        make_field(2, 4, modulus=(1, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        make_field(2, 4, modulus=(1, 1, 1))  # wrong degree


@pytest.mark.parametrize("p,k", [(2, 3), (2, 8), (2, 9), (3, 3), (5, 2), (7, 2)])
def test_modulus_choice_against_sympy(p, k):
    # independent oracle: sympy confirms irreducibility and minimality
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_poly(coeffs):
        return sympy.Poly(sum(c * x ** i for i, c in enumerate(coeffs)), x,
                          modulus=p)

    ctx = make_field(p, k)
    assert to_poly(ctx.modulus).is_irreducible
    chosen = sum(c * p ** i for i, c in enumerate(ctx.modulus[:k]))
    for n in range(chosen):
        digits = []
        t = n
        for _ in range(k):
            t, d = divmod(t, p)
            digits.append(d)
        assert not to_poly(digits + [1]).is_irreducible


def test_generator_has_full_order():
    for p, k in ((2, 4), (2, 6), (3, 3), (5, 2)):
        ctx = make_field(p, k)
        n1 = ctx.order - 1
        seen = set()
        cur = 1
        for _ in range(n1):
            cur = ctx.mul(cur, ctx.generator)
            seen.add(cur)
        assert len(seen) == n1

    # and it is the least rep of full order
    ctx = make_field(2, 8)
    assert ctx.generator == 3  # x has order 51 under the AES-style modulus


def test_contexts_are_cached_and_shared():
    assert make_field(2, 6) is make_field(2, 6)


# --------------------------------------------------------------------------
# arithmetic
# --------------------------------------------------------------------------

def test_char2_add_is_self_inverse():
    ctx = make_field(2, 3)
    g = ctx.gen
    assert (g + g).rep == 0
    assert g - g == ctx.zero


def test_inverse_and_division():
    ctx = make_field(2, 3)
    g = ctx.gen
    assert (g * (1 / g)).rep == 1
    with pytest.raises(DivisionByZero):
        _ = g / ctx.zero
    with pytest.raises(DivisionByZero):
        ctx.inv(0)


def test_cube_of_x_reduces():
    ctx = make_field(2, 3)
    x = ctx.elem(0b010)
    assert (x * x * x).rep == 0b011  # x^3 = x + 1 mod x^3 + x + 1


def test_ctx_mismatch():
    a = make_field(2, 3).gen
    b = make_field(2, 4).gen
    with pytest.raises(CtxMismatch):
        _ = a + b


def test_field_axioms_sampled_odd_char():
    rng = random.Random(7)
    for p, k in ((3, 3), (5, 2), (7, 2)):
        ctx = make_field(p, k)
        for _ in range(300):
            a, b, c = (rng.randrange(ctx.order) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(ctx.add(a, b), c) == ctx.add(ctx.mul(a, c), ctx.mul(b, c))
            assert ctx.sub(ctx.add(a, b), b) == a
            if b:
                assert ctx.mul(ctx.div(a, b), b) == a


# --------------------------------------------------------------------------
# pow
# --------------------------------------------------------------------------

def test_pow_zero_conventions():
    ctx = make_field(2, 3)
    assert ctx.pow(0, 5) == 0
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(ctx.generator, 0) == 1
    with pytest.raises(DivisionByZero):
        ctx.pow(0, -1)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 6), (2, 10), (2, 12), (3, 4),
                                 (5, 3), (7, 3)])
def test_unit_group_order_exhaustive(p, k):
    ctx = make_field(p, k)
    n1 = ctx.order - 1
    assert all(ctx.pow(a, n1) == 1 for a in range(1, ctx.order))


def test_pow_large_exponent_matches_naive():
    ctx = make_field(2, 9)
    g = ctx.generator
    acc = 1
    for _ in range(520):
        acc = ctx._mul_raw(acc, g)
    assert ctx.pow(g, 520) == acc == ctx.pow(g, 520 % 511) == ctx.pow(g, 9)


def test_pow_huge_exponent_reduction():
    ctx = make_field(2, 6)
    g = ctx.generator
    e = 3 * ((1 << 42) + (1 << 21) + 1)  # far beyond the group order
    assert ctx.pow(g, e) == ctx.pow(g, e % 63)


# --------------------------------------------------------------------------
# frobenius / trace / norm / subfields
# --------------------------------------------------------------------------

def test_frobenius_identity_ends():
    ctx = make_field(2, 6)
    for a in range(0, 64, 7):
        assert ctx.frobenius(a, 0) == a
        assert ctx.frobenius(a, 6) == a
    with pytest.raises(ValueError):
        ctx.frobenius(1, 7)


def test_frobenius_gf4_squares_omega():
    ctx = make_field(2, 2)
    w = 2  # rep of x
    assert ctx.frobenius(w, 1) == 3  # x^2 = x + 1


def test_frobenius_fixes_subfield():
    ctx = make_field(2, 6)
    for a in ctx.subfield_reps(3):
        assert ctx.frobenius(a, 3) == a


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4)])
def test_frobenius_is_field_homomorphism(p, k):
    ctx = make_field(p, k)
    rng = random.Random(11)
    for _ in range(10_000):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        i = rng.randrange(1, k + 1)
        assert ctx.frobenius(ctx.add(a, b), i) == ctx.add(ctx.frobenius(a, i),
                                                          ctx.frobenius(b, i))
        assert ctx.frobenius(ctx.mul(a, b), i) == ctx.mul(ctx.frobenius(a, i),
                                                          ctx.frobenius(b, i))


def test_trace_basics():
    f4 = make_field(2, 2)
    assert f4.rel_trace(0, 1, 2) == 0
    assert f4.rel_trace(2, 1, 2) == 1  # omega + omega^2 = 1
    f16 = make_field(2, 4)
    assert sum(1 for a in range(16) if f16.rel_trace(a, 1, 4) == 0) == 8


@pytest.mark.parametrize("p,k,m", [(2, 6, 1), (2, 6, 2), (2, 6, 3),
                                   (2, 10, 5), (3, 4, 2)])
def test_trace_linear_and_onto_subfield(p, k, m):
    ctx = make_field(p, k)
    subfield = set(ctx.subfield_reps(m))
    image = set()
    for a in range(ctx.order):
        t = ctx.rel_trace(a, m, k)
        assert t in subfield
        image.add(t)
    assert image == subfield
    rng = random.Random(3)
    for _ in range(500):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.rel_trace(ctx.add(a, b), m, k) == \
            ctx.add(ctx.rel_trace(a, m, k), ctx.rel_trace(b, m, k))


def test_relative_trace_tower_and_errors():
    ctx = make_field(2, 8)
    # trace into GF(16) of a GF(16) element is defined with n = 4 < k
    a = ctx.subfield_reps(4)[5]
    assert ctx.rel_trace(a, 1, 4) in (0, 1)
    with pytest.raises(DegreeMismatch):
        ctx.rel_trace(ctx.generator, 1, 4)  # generator is not in GF(16)
    with pytest.raises(DegreeMismatch):
        ctx.rel_trace(0, 3, 8)  # 3 does not divide 8


def test_norm_basics_and_multiplicativity():
    ctx = make_field(2, 6)
    assert ctx.norm(1, 2, 6) == 1
    assert ctx.norm(0, 2, 6) == 0
    n = ctx.norm(ctx.generator, 2, 6)
    assert n == ctx.pow(ctx.generator, 21)
    assert ctx.pow(n, 3) == 1 and n != 1
    for a in range(64):
        for b in range(0, 64, 5):
            assert ctx.norm(ctx.mul(a, b), 2, 6) == \
                ctx.mul(ctx.norm(a, 2, 6), ctx.norm(b, 2, 6))


def test_norm_onto_subfield_units():
    ctx = make_field(2, 6)
    units = {r for r in ctx.subfield_reps(2) if r}
    image = {ctx.norm(a, 2, 6) for a in range(1, 64)}
    assert image == units


def test_subfield_test():
    ctx = make_field(2, 6)
    assert ctx.subfield_test(0, 2) and ctx.subfield_test(1, 2)
    assert ctx.subfield_test(ctx.pow(ctx.generator, 21), 2)
    assert not ctx.subfield_test(ctx.generator, 2)
    with pytest.raises(DegreeMismatch):
        ctx.subfield_test(1, 4)  # 4 does not divide 6


# --------------------------------------------------------------------------
# subgroups
# --------------------------------------------------------------------------

def test_subgroup_closure_and_order():
    ctx = make_field(2, 6)
    for d in (1, 3, 7, 9, 21, 63):
        sub = ctx.subgroup_reps(d)
        assert len(sub) == d
        members = set(sub)
        for x in sub:
            assert ctx.pow(x, d) == 1
            assert ctx.inv(x) in members
            for y in sub:
                assert ctx.mul(x, y) in members


def test_subgroup_trivial_and_errors():
    ctx = make_field(2, 6)
    assert ctx.subgroup_reps(1) == [1]
    with pytest.raises(NotADivisor):
        ctx.subgroup_reps(5)


def test_subgroup_reps_are_generator_powers_in_order():
    # entry j is g^(t*j), t = (q-1)/d, with and without log tables
    for ctx, divisors in ((make_field(2, 8), (1, 3, 5, 15, 17, 51, 85, 255)),
                          (make_field(2, 18), (7, 73, 513))):
        n1 = ctx.order - 1
        for d in divisors:
            t = n1 // d
            assert ctx.subgroup_reps(d) == [raw_pow(ctx, ctx.generator, t * j)
                                            for j in range(d)]


def test_unit_circle_size():
    # in GF(q^2) the subgroup of order q+1
    ctx = make_field(2, 4)
    assert len(ctx.subgroup_reps(5)) == 5


def test_order9_candidates_gf64():
    ctx = make_field(2, 6)
    nine = ctx.subgroup_reps(9)
    assert len(nine) == 9
    assert all(ctx.pow(b, 9) == 1 for b in nine)
    assert sum(1 for b in nine if ctx.pow(b, 3) != 1) == 6


# --------------------------------------------------------------------------
# sparse polynomials
# --------------------------------------------------------------------------

def test_eval_identity_and_zero():
    ctx = make_field(2, 9)
    xpoly = SparsePoly.x(ctx)
    for a in range(0, 512, 37):
        assert xpoly.eval_rep(a) == a
    trinomial = SparsePoly(ctx, [(1, 520), (1, 65), (5, 1)])
    assert trinomial.eval_rep(0) == 0  # no constant term
    with_const = SparsePoly(ctx, [(1, 3), (7, 0)])
    assert with_const.eval_rep(0) == 7


def test_eval_example_gf8():
    ctx = make_field(2, 3)
    g = ctx.generator
    p = SparsePoly(ctx, [(1, 2), (1, 1)])
    assert p.eval_rep(g) == ctx.add(ctx.mul(g, g), g)


def test_eval_ctx_mismatch():
    p = SparsePoly(make_field(2, 3), [(1, 1)])
    with pytest.raises(CtxMismatch):
        p.eval(make_field(2, 4).gen)


def test_normalization_invariants():
    ctx = make_field(2, 3)
    p = SparsePoly(ctx, [(3, 5), (3, 5), (1, 2), (0, 9), (4, 2), (7, 2)])
    pairs = p.term_pairs()
    exps = [e for _, e in pairs]
    assert exps == sorted(set(exps))            # strictly increasing
    assert all(c for c, _ in pairs)             # no zero coefficients
    assert sum(1 for _, e in pairs if e == 0) <= 1
    # (3,5) twice cancels in characteristic 2; 1^4^7 = 2 remains at exp 2
    assert pairs == ((2, 2),)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 3)])
def test_eval_matches_naive_reference(p, k):
    ctx = make_field(p, k)
    ctx.ensure_tables()
    rng = random.Random(p * 100 + k)
    for _ in range(20):
        pairs = [(rng.randrange(ctx.order), rng.randrange(50)) for _ in range(4)]
        poly = SparsePoly(ctx, pairs)
        for x in range(ctx.order):
            assert poly.eval_rep(x) == naive_eval(ctx, pairs, x)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (2, 17)])
def test_compiled_eval_edge_cases(p, k):
    # (2, 17) is above the table limit, where rep_fn falls back to eval_rep
    ctx = make_field(p, k)
    n1 = ctx.order - 1
    g = ctx.generator
    xs = range(ctx.order) if ctx.order <= 256 else (0, 1, g, ctx.pow(g, 777), n1)
    polys = [
        SparsePoly(ctx),                                  # zero polynomial
        SparsePoly(ctx, [(g, 1), (1, 3)]),                # no constant term
        SparsePoly(ctx, [(1, 2), (g, 0)]),                # explicit exponent 0
        SparsePoly(ctx, [(g, n1), (1, 3 * n1), (1, 1)]),  # multiples of q-1
        SparsePoly(ctx, [(ctx.neg(1), 5), (g, 2), (ctx.neg(g), 0)]),
    ]
    for poly in polys:
        fn = poly.rep_fn()
        for x in xs:
            assert fn(x) == raw_eval(ctx, poly, x) == poly.eval_rep(x)
    assert polys[0].rep_fn()(0) == 0
    assert polys[1].rep_fn()(0) == 0
    assert polys[2].rep_fn()(0) == g  # 0**0 == 1
    assert polys[3].rep_fn()(g) == ctx.add(ctx.add(g, 1), g)  # x^(q-1) = 1 off 0


@pytest.mark.parametrize("p,k", [(2, 5), (3, 3), (3, 4), (5, 2)])
def test_compiled_eval_matches_raw_reference(p, k):
    # odd characteristic accumulates through ctx.add, characteristic 2 by XOR
    ctx = make_field(p, k)
    rng = random.Random(p * 1000 + k)
    for _ in range(10):
        poly = SparsePoly(ctx, [(rng.randrange(ctx.order), rng.randrange(4 * ctx.order))
                                for _ in range(5)])
        fn = poly.rep_fn()
        assert all(fn(x) == raw_eval(ctx, poly, x) for x in range(ctx.order))


def test_poly_ring_ops_and_frobenius_power():
    ctx = make_field(2, 4)
    rng = random.Random(5)
    for _ in range(10):
        a = SparsePoly(ctx, [(rng.randrange(16), rng.randrange(8)) for _ in range(3)])
        b = SparsePoly(ctx, [(rng.randrange(16), rng.randrange(8)) for _ in range(3)])
        for x in range(16):
            assert (a + b).eval_rep(x) == ctx.add(a.eval_rep(x), b.eval_rep(x))
            assert (a * b).eval_rep(x) == ctx.mul(a.eval_rep(x), b.eval_rep(x))
            assert a.frobenius_power(2).eval_rep(x) == ctx.pow(a.eval_rep(x), 4)
            assert a.pow_charp(11).eval_rep(x) == ctx.pow(a.eval_rep(x), 11) \
                or a.eval_rep(x) == 0
            # 0^11 = 0 and the formal power also evaluates to 0 there
            if a.eval_rep(x) == 0:
                assert a.pow_charp(11).eval_rep(x) == 0


def test_compose_matches_pointwise():
    ctx = make_field(3, 3)
    outer = SparsePoly(ctx, [(2, 4), (5, 1), (7, 0)])
    inner = SparsePoly(ctx, [(1, 3), (ctx.neg(1), 1), (4, 0)])
    comp = outer.compose(inner)
    for x in range(27):
        assert comp.eval_rep(x) == outer.eval_rep(inner.eval_rep(x))


def test_reduce_exponents_on_subgroup():
    ctx = make_field(2, 8)
    poly = SparsePoly(ctx, [(1, 720), (9, 45), (3, 0)])
    reduced = poly.reduce_exponents(17)
    for y in ctx.subgroup_reps(17):
        assert poly.eval_rep(y) == reduced.eval_rep(y)


# --------------------------------------------------------------------------
# tables and concurrency
# --------------------------------------------------------------------------

def test_lazy_tables_concurrent_build():
    ctx = make_field(2, 11)  # fresh enough that tables may not exist yet
    results = []

    def worker():
        ctx.ensure_tables()
        results.append(ctx.mul(ctx.generator, ctx.generator))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == ctx._mul_raw(ctx.generator, ctx.generator)


def test_table_mul_matches_raw_mul():
    ctx = make_field(3, 4)
    ctx.ensure_tables()
    for a in range(81):
        for b in range(0, 81, 7):
            assert ctx.mul(a, b) == ctx._mul_raw(a, b)


def test_dlog_bsgs_beyond_table_limit():
    ctx = make_field(2, 17)  # order 131072 exceeds the table limit
    assert not ctx.ensure_tables()
    target = ctx.pow(ctx.generator, 12345)
    assert ctx.dlog(target) == 12345


def test_prime_field_elements_hash_like_ints():
    for p, k in ((2, 4), (3, 2), (5, 3)):
        ctx = make_field(p, k)
        for r in range(p):
            e = ctx.elem(r)
            assert e == r and hash(e) == hash(r)
            assert r in {e} and e in {r}
        assert 1 in {ctx.one} and ctx.one in {1: "one"}
        assert {ctx.gen, ctx.elem(ctx.generator)} == {ctx.gen}


def test_elem_wrapper_behaviour():
    ctx = make_field(2, 4)
    g = ctx.gen
    assert g ** 15 == ctx.one
    assert (g ** 5).rep == ctx.pow(ctx.generator, 5)
    assert g + 1 == ctx.elem(ctx.add(ctx.generator, 1))
    assert hash(g) != hash(ctx.one)
    assert bool(ctx.zero) is False
    assert g.in_subfield(4) and not g.in_subfield(2)
    assert (g ** 5).in_subfield(2)
