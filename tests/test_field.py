"""Field-layer tests: contexts, arithmetic, structure maps, sparse polynomials."""

import math
import operator
import random
import sys
import threading
from array import array

import pytest

import permpoly.field as field_module
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
from permpoly.field import (
    _EXPANSION_CAP,
    DEFAULT_SIZE_LIMIT,
    LIST_TABLE_LIMIT,
    TABLE_LIMIT,
    FieldCtx,
    FieldElem,
    _apply,
    _linear_tables,
    _residue_split,
    _strided,
    is_irreducible,
)

from helpers import (
    log_order_points,
    naive_eval,
    naive_mu_sweep,
    naive_power,
    naive_product,
    raw_add,
    raw_eval,
    raw_mul,
    raw_pow,
    swept,
)


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
    # checked before any primality test, and without computing p^k
    with pytest.raises(SizeLimitExceeded):
        make_field(2 ** 61 - 1, 2)
    with pytest.raises(SizeLimitExceeded):
        make_field(2, 10 ** 12)
    with pytest.raises(ValueError):  # the degree is checked before the size
        make_field(2 ** 61 - 1, 0)
    assert make_field(2, 24).order == DEFAULT_SIZE_LIMIT  # the boundary is inclusive


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


@pytest.mark.parametrize("p,max_k", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_is_irreducible_against_sympy(p, max_k):
    # every monic polynomial of degree 1..max_k; reducible ones such as
    # x(x^2+x+1)(x^3+x+1) over GF(2) pass x^(p^k) = x and fail only the gcd step
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for k in range(1, max_k + 1):
        for n in range(p ** k):
            coeffs = [n // p ** i % p for i in range(k)] + [1]
            poly = sympy.Poly(sum(c * x ** i for i, c in enumerate(coeffs)), x,
                              modulus=p)
            assert is_irreducible(coeffs, p) == poly.is_irreducible, coeffs


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
    # one context per field: the default modulus x^4 + x + 1 named or not,
    # its coefficients reduced mod p or not
    ctx = make_field(2, 4)
    assert ctx is make_field(2, 4, modulus=(1, 1, 0, 0, 1)) is make_field(2, 4, [3, 1, 2, 0, 1])
    x = SparsePoly.x(ctx)
    assert x + SparsePoly.x(make_field(2, 4, modulus=(1, 1, 0, 0, 1))) == SparsePoly(ctx)


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


@pytest.mark.parametrize("name, op, method, reflected", [
    ("__add__", operator.add, "add", False),
    ("__radd__", operator.add, "add", True),
    ("__sub__", operator.sub, "sub", False),
    ("__rsub__", operator.sub, "sub", True),
    ("__mul__", operator.mul, "mul", False),
    ("__rmul__", operator.mul, "mul", True),
    ("__truediv__", operator.truediv, "div", False),
    ("__rtruediv__", operator.truediv, "div", True),
])
def test_elem_operators_are_the_ctx_methods(name, op, method, reflected):
    ctx = make_field(3, 3)
    fn = getattr(ctx, method)

    def outcome(call):
        try:
            return call()
        except DivisionByZero:
            return DivisionByZero

    for a in range(ctx.order):
        e = ctx.elem(a)
        for r in range(ctx.p):  # an int in [0, p) on the side the name says
            if reflected:
                got, want = outcome(lambda: op(r, e)), outcome(lambda: fn(r, a))
            else:
                got, want = outcome(lambda: op(e, r)), outcome(lambda: fn(a, r))
            assert got == (want if want is DivisionByZero else FieldElem(ctx, want)), (a, r)
    with pytest.raises(CtxMismatch):
        getattr(ctx.gen, name)(make_field(3, 2).gen)
    with pytest.raises(TypeError):
        op(ctx.p, ctx.gen) if reflected else op(ctx.gen, ctx.p)


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


@pytest.mark.parametrize("k", [17, 18, 20, 24])
def test_subgroup_reps_untabled_char2(k):
    # above the table limit the subgroup is stepped through the byte tables of
    # y -> w*y; a raw_mul chain by w for every divisor d <= 5000
    ctx = make_field(2, k)
    assert not ctx.ensure_tables()
    n1 = ctx.order - 1
    for d in (d for d in range(1, 5001) if n1 % d == 0):
        w = raw_pow(ctx, ctx.generator, n1 // d)
        chain = [1]
        for _ in range(d - 1):
            chain.append(raw_mul(ctx, chain[-1], w))
        assert ctx.subgroup_reps(d) == chain, d


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


def test_scale_checks_its_constant():
    # an element of another field used to scale by its rep (g^1*x), and 300
    # on GF(16) raised a bare IndexError
    ctx = make_field(2, 4)
    x = SparsePoly.x(ctx)
    assert x.scale(ctx.gen) == x.scale(ctx.generator) == SparsePoly(ctx, [(ctx.generator, 1)])
    with pytest.raises(CtxMismatch):
        x.scale(make_field(2, 3).gen)
    with pytest.raises(ValueError):
        x.scale(300)


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
        if ctx.order <= 256:  # the log-order sweep, on tabled fields only
            assert swept(fn, n1) == [fn(x) for x in log_order_points(ctx)]
        else:
            assert not hasattr(fn, "sweep")
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


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 3), (2, 8), (2, 15), (2, 16)])
def test_log_column_matches_comprehension(p, k):
    # q-1 = 1, 2, 7, 255, 2^15-1, 2^16-1: strides 0, 1, short and long (split
    # into residue classes, upwards or downwards), offsets and strides past
    # q-1, counts below the class count m and past a whole period
    ctx = make_field(p, k)
    ctx.ensure_tables()
    exp, n1 = ctx._exp, ctx.order - 1
    rng = random.Random(n1)
    # n1 // 3 and n1 // 7 split into three or seven classes of stride 0 where
    # 3 or 7 divides q-1 (GF(2^16) and GF(2^15), array tables)
    steps = {0, 1, n1 - 1, n1, 2 * n1 + 1, n1 // 2, n1 // 3, n1 // 3 + 1, n1 // 7}
    steps |= {rng.randrange(1, max(2, n1 // 64)) for _ in range(3)}  # short
    steps |= {rng.randrange(n1 // 4, max(n1 // 4 + 1, 3 * n1 // 4)) for _ in range(6)}
    split = False
    for step in steps:
        m, s = _residue_split(n1, step % n1)
        split |= m > 1
        assert 1 <= m <= max(1, math.isqrt(n1)) and (m * step - s) % n1 == 0
        for off in (0, 2, n1 - 1, n1, 3 * n1 + 2, rng.randrange(10 * n1)):
            for count in sorted({0, 1, max(1, m - 1), m + 1, 300, n1 + 3}):
                want = [exp[(off + j * step) % n1] for j in range(count)]
                col = _strided(exp, off, step, count)  # of the table's type
                assert type(col) is type(exp) and list(col) == want, (step, off, count)
    assert split == (n1 >= 7)


@pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 17)] + [(3, 4), (5, 2)])
def test_log_sweep_matches_points(p, k):
    # c0 + sum(c*x^e) at g^i point by point through ctx arithmetic, against
    # the column sweep: packed words on the array('I') tables of GF(2^15) and
    # GF(2^16), the fold by map on list tables and in odd characteristic;
    # strides 0, 1 and -1, and strides split into residue classes slicing
    # upwards and downwards; counts 0, 1, odd and past q-1, from starts that
    # wrap
    ctx = make_field(p, k)
    ctx.ensure_tables()
    n1, g = ctx.order - 1, ctx.generator
    splits = {}
    for e in range(n1 // 64 + 1, n1):
        m, s = _residue_split(n1, e)
        if m > 1:
            splits.setdefault(s < 0, e)
        if len(splits) == 2:
            break
    assert len(splits) == 2 or n1 < 7
    rng = random.Random(ctx.order)
    terms = [(rng.randrange(n1), e % n1) for e in (0, 1, n1 - 1, *splits.values())]
    points = log_order_points(ctx)
    values = [0] * n1
    for lc, e in terms:
        c = ctx.pow(g, lc)
        values = [ctx.add(v, ctx.mul(c, ctx.pow(x, e))) for v, x in zip(values, points)]
    for c0 in (0, ctx.pow(g, rng.randrange(n1))):
        for i0, count in ((0, 0), (5, 1), (n1 - 1, 7), (2 * n1 + 1, n1 + 3)):
            want = [ctx.add(c0, values[(i0 + j) % n1]) for j in range(count)]
            got = ctx._log_sweep(c0, terms, i0, count)
            assert type(got) is list and got == want, (c0, i0, count)
        assert ctx._log_sweep(c0, [], 3, 5) == [c0] * 5


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


# -- the product kernel against pairwise products ----------------------------

_KERNEL_FIELDS = [(2, 8), (2, 16), (2, 18), (2, 20), (3, 3), (5, 2)]
# columns from one term up to about a thousand
_COLUMNS = (1, 3, 63, 64, 65, 1000)


def _kernel_ctxs(p, k):
    """Fresh contexts of GF(p^k), so that whether log tables exist is known:
    one without them, and up to TABLE_LIMIT one with them built."""
    ref = make_field(p, k)
    ctxs = [FieldCtx(p, k, ref.modulus, ref.generator) for _ in range(2)]
    if ref.order > TABLE_LIMIT:
        return ctxs[:1]
    ctxs[1].ensure_tables()
    return ctxs


def _random_poly(ctx, rng, n, unit):
    """n terms with distinct exponents below 3n + 3, coefficients 1 or random."""
    exps = rng.sample(range(3 * n + 3), n)
    return SparsePoly(ctx, [(1 if unit else rng.randrange(1, ctx.order), e) for e in exps])


@pytest.mark.parametrize("p,k", _KERNEL_FIELDS, ids=[f"{p}-{k}" for p, k in _KERNEL_FIELDS])
def test_product_kernel_matches_pairwise(p, k):
    rng = random.Random(p * 100 + k)
    for ctx in _kernel_ctxs(p, k):
        for n in _COLUMNS:
            for m in (1, 2, 3):
                for unit in (True, False):
                    a, b = _random_poly(ctx, rng, n, unit), _random_poly(ctx, rng, m, unit)
                    want = naive_product(ctx, a.term_pairs(), b.term_pairs())
                    assert (a * b).term_pairs() == (b * a).term_pairs() == want, (n, m, unit)
        # x + 1 times x - 1: the sums at x cancel, and x^2 - 1 remains
        one, x = SparsePoly.constant(ctx, 1), SparsePoly.x(ctx)
        prod = (x + one) * (x - one)
        assert prod == x * x - one and len(prod) == 2
        assert prod.term_pairs() == naive_product(ctx, (x + one).term_pairs(),
                                                  (x - one).term_pairs())
        # dense unit operands, whose sums cancel at many exponents
        a = SparsePoly(ctx, [(1, e) for e in range(0, 200, 2)] + [(1, 3), (1, 77)])
        b = SparsePoly(ctx, [(1, 0), (1, 2), (ctx.neg(1), 4)])
        assert (a * b).term_pairs() == naive_product(ctx, a.term_pairs(), b.term_pairs())
        assert len(a * b) < len({e1 + e2 for _, e1 in a.term_pairs() for _, e2 in b.term_pairs()})
        # zero operands
        zero = SparsePoly(ctx)
        assert (zero * a).is_zero() and (a * zero).is_zero() and (zero * zero).is_zero()


@pytest.mark.parametrize("p,k", _KERNEL_FIELDS, ids=[f"{p}-{k}" for p, k in _KERNEL_FIELDS])
def test_pow_charp_matches_pairwise(p, k):
    rng = random.Random(p * 1000 + k)
    # odd p: exponents with base-p digits above 1, so f**d takes d - 1 products
    exps = (0, 1, 2, 5, 2 ** 6 - 1) if p == 2 else (0, 1, 2, p + 2, 2 + (p - 1) * p + p * p)
    for ctx in _kernel_ctxs(p, k):
        bases = [SparsePoly(ctx), SparsePoly.x(ctx), _random_poly(ctx, rng, 2, True),
                 _random_poly(ctx, rng, 3, True), _random_poly(ctx, rng, 3, False)]
        c = rng.randrange(2, ctx.order)
        for f in bases:
            for e in exps:
                want = naive_power(ctx, f.term_pairs(), e)
                assert f.pow_charp(e).term_pairs() == want, (f, e)
                for shift, scale in ((0, c), (5, 1), (7, c), (3, 0)):
                    got = f.pow_charp(e, shift=shift, scale=scale)
                    assert got.term_pairs() == naive_power(ctx, f.term_pairs(), e, shift, scale)
        assert len(bases[-1].pow_charp(exps[-1])) > 60  # long columns
        assert SparsePoly(ctx).pow_charp(0, shift=4, scale=c).term_pairs() == ((c, 4),)
        with pytest.raises(ValueError):
            bases[1].pow_charp(3, shift=-1)
        with pytest.raises(ValueError):
            bases[1].pow_charp(-1)
        with pytest.raises(ValueError):
            bases[1].pow_charp(3, scale=ctx.order)
        with pytest.raises(CtxMismatch):
            bases[1].pow_charp(3, scale=make_field(2, 3).gen)


@pytest.mark.parametrize("p,k", _KERNEL_FIELDS, ids=[f"{p}-{k}" for p, k in _KERNEL_FIELDS])
def test_scale_matches_pairwise(p, k):
    rng = random.Random(p * 10 + k)
    for ctx in _kernel_ctxs(p, k):
        for n in _COLUMNS:
            for unit in (True, False):
                f = _random_poly(ctx, rng, n, unit)
                for c in (1, rng.randrange(2, ctx.order)):
                    assert f.scale(c).term_pairs() == naive_product(ctx, ((c, 0),), f.term_pairs())
                assert f.scale(0).is_zero()
        assert SparsePoly(ctx).scale(3).is_zero()


@pytest.mark.parametrize("p,k", _KERNEL_FIELDS, ids=[f"{p}-{k}" for p, k in _KERNEL_FIELDS])
def test_compose_matches_pairwise(p, k):
    rng = random.Random(p * 7 + k)
    for ctx in _kernel_ctxs(p, k):
        outer = SparsePoly(ctx, [(rng.randrange(1, ctx.order), e) for e in (0, 1, 3, p + 1, 2 * p)])
        for inner in (_random_poly(ctx, rng, 3, False), _random_poly(ctx, rng, 2, True),
                      SparsePoly.constant(ctx, 5), SparsePoly(ctx)):
            acc = {}
            for c, e in outer.term_pairs():
                for cc, ee in naive_power(ctx, inner.term_pairs(), e, scale=c):
                    acc[ee] = raw_add(ctx, acc.get(ee, 0), cc)
            want = tuple((c, e) for e, c in sorted(acc.items()) if c)
            assert outer.compose(inner).term_pairs() == want
        # y^p - y at 1 cancels everywhere; at x + 1 its constants cancel
        frob = SparsePoly(ctx, [(1, p), (ctx.neg(1), 1)])
        one, x = SparsePoly.constant(ctx, 1), SparsePoly.x(ctx)
        assert frob.compose(one).is_zero()
        assert frob.compose(x + one) == frob


def test_expansion_cap_raises_before_building(monkeypatch):
    built, real = [], field_module._sorted_columns
    monkeypatch.setattr(field_module, "_sorted_columns",
                        lambda acc: built.append(len(acc)) or real(acc))
    ctx = make_field(2, 8)
    # (x + 1)^(2^20 - 1) doubles at each of its 20 digits: 2^17 terms times
    # the next factor's 2 pass the cap, and that product is never built
    f = SparsePoly(ctx, [(1, 1), (1, 0)])
    with pytest.raises(ValueError, match="^expansion too large$"):
        f.pow_charp(2 ** 20 - 1)
    assert max(built) == 2 ** 17 <= _EXPANSION_CAP < 2 ** 18
    a = SparsePoly(ctx, [(1, e) for e in range(500)])
    b = SparsePoly(ctx, [(1, 1000 * e) for e in range(_EXPANSION_CAP // 500 + 1)])
    built.clear()
    with pytest.raises(ValueError, match="^polynomial product too large to expand$"):
        a * b
    assert built == []
    # f**d for a digit d above 1 is capped the same way, here at its first product
    monkeypatch.setattr(field_module, "_EXPANSION_CAP", 8)
    g = SparsePoly(make_field(3, 3), [(1, 2), (1, 1), (1, 0)])
    built.clear()
    with pytest.raises(ValueError, match="^expansion too large$"):
        g.pow_charp(2)
    assert built == []


def test_reduce_exponents_on_subgroup():
    ctx = make_field(2, 8)
    poly = SparsePoly(ctx, [(1, 720), (9, 45), (3, 0)])
    reduced = poly.reduce_exponents(17)
    for y in ctx.subgroup_reps(17):
        assert poly.eval_rep(y) == reduced.eval_rep(y)


def _normalized(poly):
    exps = [e for _, e in poly.term_pairs()]
    return exps == sorted(set(exps)) and all(c for c, _ in poly.term_pairs())


def _fold(e, n):
    return e % n or n if e else 0


def test_products_and_folds_cancel():
    # the dict-built results against the normalising constructor
    ctx = make_field(2, 8)
    one, x = SparsePoly.constant(ctx, 1), SparsePoly.x(ctx)
    sq = (x + one) * (x + one)
    assert sq == SparsePoly(ctx, [(1, 2), (1, 0)]) and _normalized(sq)
    d = 17
    assert SparsePoly(ctx, [(1, 1), (1, 1 + d)]).reduce_exponents(d).is_zero()
    ctx3 = make_field(3, 3)
    three = SparsePoly(ctx3, [(1, 1), (1, 1 + d), (1, 1 + 2 * d)])
    assert three.reduce_exponents(d).is_zero()


@pytest.mark.parametrize("p,k", [(2, 8), (3, 3), (2, 18)])
def test_products_and_folds_match_constructor(p, k):
    ctx = make_field(p, k)
    rng = random.Random(10 * p + k)

    def coeff():  # 1 often, so the product skips its multiplication
        return 1 if rng.random() < 0.4 else rng.randrange(1, ctx.order)

    for _ in range(40):
        a = [(coeff(), rng.randrange(12)) for _ in range(rng.randrange(1, 7))]
        b = [(coeff(), rng.randrange(12)) for _ in range(rng.randrange(1, 7))]
        fa, fb = SparsePoly(ctx, a), SparsePoly(ctx, b)
        pairs = [(raw_mul(ctx, c1, c2), e1 + e2)
                 for c1, e1 in fa.term_pairs() for c2, e2 in fb.term_pairs()]
        prod = fa * fb
        assert prod == SparsePoly(ctx, pairs) and _normalized(prod)
        n = rng.randrange(1, 8)
        folded = prod.reduce_exponents(n)
        assert folded == SparsePoly(ctx, [(c, _fold(e, n)) for c, e in pairs])
        assert _normalized(folded)


@pytest.mark.parametrize("p,k", [(2, 8), (3, 3), (5, 2), (2, 18)])
def test_sums_match_constructor(p, k):
    # + and - merge the term dicts; each equals the normalizing constructor
    # on the joined pairs, with cancelled terms, zero results and zero
    # operands among the draws
    ctx = make_field(p, k)
    rng = random.Random(20 * p + k)
    zero = SparsePoly(ctx)
    for _ in range(40):
        a = [(rng.randrange(1, ctx.order), rng.randrange(8)) for _ in range(rng.randrange(5))]
        b = [(rng.randrange(1, ctx.order), rng.randrange(8)) for _ in range(rng.randrange(5))]
        fa, fb = SparsePoly(ctx, a), SparsePoly(ctx, b)
        fb = fb + SparsePoly(ctx, fa.term_pairs()[:1])  # a shared exponent, often
        pa, pb = fa.term_pairs(), fb.term_pairs()
        total, diff = fa + fb, fa - fb
        assert total == SparsePoly(ctx, pa + pb) and _normalized(total)
        assert diff == SparsePoly(ctx, pa + tuple((_raw_neg(ctx, c), e) for c, e in pb))
        assert _normalized(diff)
        assert (fa - fa) == zero == fa + (zero - fa)
        assert fa + zero == fa == zero + fa
    other = SparsePoly(make_field(2, 4), [(1, 1)])
    for op in (SparsePoly.__add__, SparsePoly.__sub__):
        with pytest.raises(CtxMismatch):
            op(SparsePoly.x(ctx), other)
        with pytest.raises(CtxMismatch):
            op(SparsePoly.x(ctx), 1)


def _raw_linear_kernel(ctx, poly):
    """ker of a linearized poly by enumeration over raw_eval."""
    return [x for x in range(ctx.order) if raw_eval(ctx, poly, x) == 0]


@pytest.mark.parametrize("p,k", [(2, 6), (2, 8), (3, 4), (5, 3), (3, 5)])
def test_kernel_split_exhaustive(p, k):
    # x^(p^s) -/+ x and random linearized maps: the kernel vectors map to 0
    # and span the kernel found by enumeration, and kernel + complement
    # cover the field once
    ctx = make_field(p, k)
    rng = random.Random(30 * p + k)
    maps = [[(1, p ** s), (ctx.neg(1), 1)] for s in range(1, k)]
    maps += [[(1, p ** s), (1, 1)] for s in range(1, k)]
    maps += [[(rng.randrange(ctx.order), p ** s) for s in range(k)] for _ in range(4)]
    maps += [[(1, p)], [(0, 1)]]  # a bijection (kernel 0) and the zero map (all)
    for terms in maps:
        poly = SparsePoly(ctx, terms)
        kernel, complement = ctx._kernel_split([raw_eval(ctx, poly, p ** i) for i in range(k)])
        assert len(kernel) + len(complement) == k
        assert all(raw_eval(ctx, poly, v) == 0 for v in kernel)
        span = ctx._span(kernel)
        assert sorted(span) == _raw_linear_kernel(ctx, poly), terms
        cover = {raw_add(ctx, x, v) for x in ctx._span(complement) for v in span}
        assert len(cover) == ctx.order


@pytest.mark.parametrize("k,s", [(12, 4), (15, 5), (16, 6), (18, 6), (18, 4)])
def test_kernel_split_frobenius_char2(k, s):
    # ker(x^(2^s) + x) = GF(2^gcd(s, k)), on tabled fields and above the limit
    ctx = make_field(2, k)
    poly = SparsePoly(ctx, [(1, 1 << s), (1, 1)])
    kernel, complement = ctx._kernel_split([raw_eval(ctx, poly, 1 << i) for i in range(k)])
    span = ctx._span(kernel)
    assert sorted(span) == ctx.subfield_reps(math.gcd(s, k))
    assert len({x ^ v for x in ctx._span(complement) for v in span}) == ctx.order


def test_coefficient_out_of_range_rejected():
    ctx = make_field(2, 8)
    for c in (-1, 300):
        with pytest.raises(ValueError, match="out of range"):
            SparsePoly(ctx, [(c, 1)])
    with pytest.raises(ValueError, match="out of range"):
        SparsePoly(make_field(2, 18), [(1 << 18, 1)])


def test_non_int_reps_rejected():
    # a rep is an int: elem(2.0) gave the element GF(2^4)#2.0, a float
    # coefficient raised a bare TypeError over GF(2^4) (int ^ float) and
    # made the term (1, 1.5) over GF(9), whose repr crashed
    with pytest.raises(ValueError, match="out of range"):
        make_field(2, 4).elem(2.0)
    for p, k in ((2, 4), (3, 2)):
        with pytest.raises(ValueError, match="out of range"):
            SparsePoly(make_field(p, k), [(1.5, 1)])
    assert make_field(2, 4).elem(True).rep == 1  # an int by operator.index


# --------------------------------------------------------------------------
# tables and concurrency
# --------------------------------------------------------------------------

@pytest.mark.parametrize("k", [11, 15])  # list tables, array tables
def test_lazy_tables_concurrent_build(k):
    base = make_field(2, k)
    ctx = FieldCtx(base.p, base.k, base.modulus, base.generator)  # no tables yet
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


@pytest.mark.parametrize("p,k,kind", [(2, 14, list), (2, 15, array),
                                      (2, 16, array), (3, 10, array)])
def test_table_storage_by_order(p, k, kind):
    # lists up to LIST_TABLE_LIMIT, array('I') above it, and the same
    # arithmetic either way; GF(3^10) runs Zech addition on array logs
    ctx = make_field(p, k)
    assert ctx.ensure_tables()
    q, n1, g = ctx.order, ctx.order - 1, ctx.generator
    exp, log = ctx._exp, ctx._log
    assert (q > LIST_TABLE_LIMIT) == (kind is array)
    assert type(exp) is kind and type(log) is kind
    assert ctx._zech is None if p == 2 else type(ctx._zech) is list
    if kind is array:
        assert exp.typecode == log.typecode == "I"
    assert len(exp) == 2 * n1 and len(log) == q
    assert all(exp[log[x]] == x for x in range(1, q))
    assert all(exp[i + n1] == exp[i] for i in range(n1))
    rng = random.Random(q)
    edge = (0, 1, g, n1)
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(60)]
    for a, b in pairs:
        assert ctx.mul(a, b) == raw_mul(ctx, a, b)
        e = rng.randrange(3 * q)
        assert ctx.pow(a, e) == raw_pow(ctx, a, e)
        if b:
            inv = raw_pow(ctx, b, q - 2)
            assert ctx.inv(b) == inv
            assert ctx.div(a, b) == raw_mul(ctx, a, inv)
        if p != 2:
            nb = _raw_neg(ctx, b)
            assert ctx.add(a, b) == raw_add(ctx, a, b)
            assert ctx.neg(b) == nb
            assert ctx.sub(a, b) == raw_add(ctx, a, nb)
            assert ctx.add(b, nb) == 0


def test_table_mul_matches_raw_mul():
    ctx = make_field(3, 4)
    ctx.ensure_tables()
    for a in range(81):
        for b in range(0, 81, 7):
            assert ctx.mul(a, b) == ctx._mul_raw(a, b)


# --------------------------------------------------------------------------
# table-free characteristic-2 kernel: comb multiply, byte-table fold and square
# --------------------------------------------------------------------------

# make_field(2, k).generator for k = 1..24: the table-driven kernel keeps them
CHAR2_GENERATORS = [1, 2, 2, 2, 2, 2, 2, 3, 7, 2, 2, 3, 2, 7, 2, 3, 2, 10, 2, 2,
                    2, 2, 2, 2]


# (modulus, generator) of make_field(p, k) for every odd-characteristic
# GF(p^k) of order <= 2^24 with p <= 13; Rabin's test and the generator
# search both run on FieldCtx raw arithmetic and must keep them
ODD_FIELDS = {
    (3, 1): ((0, 1), 2),
    (3, 2): ((1, 0, 1), 4),
    (3, 3): ((1, 2, 0, 1), 3),
    (3, 4): ((2, 1, 0, 0, 1), 3),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3),
    (3, 7): ((2, 0, 1, 0, 0, 0, 0, 1), 5),
    (3, 8): ((2, 0, 1, 0, 0, 0, 0, 0, 1), 38),
    (3, 9): ((1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3),
    (3, 10): ((1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), 34),
    (3, 11): ((2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 5),
    (3, 12): ((2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 14),
    (3, 13): ((1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (3, 14): ((2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (3, 15): ((2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 5),
    (5, 1): ((0, 1), 2),
    (5, 2): ((2, 0, 1), 6),
    (5, 3): ((1, 1, 0, 1), 9),
    (5, 4): ((2, 0, 0, 0, 1), 6),
    (5, 5): ((1, 4, 0, 0, 0, 1), 10),
    (5, 6): ((2, 1, 0, 0, 0, 0, 1), 5),
    (5, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 9),
    (5, 8): ((2, 0, 0, 0, 0, 0, 0, 0, 1), 6),
    (5, 9): ((3, 2, 1, 0, 0, 0, 0, 0, 0, 1), 5),
    (5, 10): ((3, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 5),
    (7, 1): ((0, 1), 3),
    (7, 2): ((1, 0, 1), 9),
    (7, 3): ((2, 0, 0, 1), 22),
    (7, 4): ((1, 1, 0, 0, 1), 12),
    (7, 5): ((3, 1, 0, 0, 0, 1), 9),
    (7, 6): ((2, 0, 0, 0, 0, 0, 1), 8),
    (7, 7): ((1, 6, 0, 0, 0, 0, 0, 1), 14),
    (7, 8): ((3, 1, 0, 0, 0, 0, 0, 0, 1), 7),
    (11, 1): ((0, 1), 2),
    (11, 2): ((1, 0, 1), 15),
    (11, 3): ((4, 1, 0, 1), 11),
    (11, 4): ((2, 1, 0, 0, 1), 11),
    (11, 5): ((2, 0, 0, 0, 0, 1), 13),
    (11, 6): ((2, 1, 0, 0, 0, 0, 1), 12),
    (13, 1): ((0, 1), 2),
    (13, 2): ((2, 0, 1), 15),
    (13, 3): ((2, 0, 0, 1), 15),
    (13, 4): ((2, 0, 0, 0, 1), 17),
    (13, 5): ((2, 4, 0, 0, 0, 1), 13),
    (13, 6): ((2, 0, 0, 0, 0, 0, 1), 182),
}


def _edge_operands(ctx):
    """0, 1, 15 and 16 (one and two comb digits), 2^k - 1, g."""
    return sorted({v for v in (0, 1, 15, 16, ctx.order - 1, ctx.generator)
                   if v < ctx.order})


def test_char2_generators_pinned():
    assert [make_field(2, k).generator for k in range(1, 25)] == CHAR2_GENERATORS


def test_odd_char_fields_pinned():
    got = {(p, k): (make_field(p, k).modulus, make_field(p, k).generator)
           for p, k in ODD_FIELDS}
    assert got == ODD_FIELDS


@pytest.mark.parametrize("k", range(1, 9))
def test_char2_mul_raw_exhaustive(k):
    ctx = make_field(2, k)
    q = ctx.order
    for a in range(q):
        for b in range(q):
            assert ctx._mul_raw(a, b) == raw_mul(ctx, a, b), (a, b)


@pytest.mark.parametrize("k", [9, 16, 17, 18, 20, 24])
def test_char2_mul_raw_sampled(k):
    ctx = make_field(2, k)
    rng = random.Random(k)
    edge = _edge_operands(ctx)
    some = [rng.randrange(ctx.order) for _ in range(50)]
    pairs = [(a, b) for a in edge for b in edge + some]
    pairs += [(a, b) for a in some for b in edge]
    pairs += [(rng.randrange(ctx.order), rng.randrange(ctx.order))
              for _ in range(20000 - len(pairs))]
    for a, b in pairs:
        assert ctx._mul_raw(a, b) == raw_mul(ctx, a, b), (a, b)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 9, 16, 17, 18, 20, 24])
def test_char2_square_and_pow_raw(k):
    ctx = make_field(2, k)
    q = ctx.order
    rng = random.Random(100 + k)
    operands = _edge_operands(ctx) + [rng.randrange(q) for _ in range(12)]
    for a in operands:
        assert ctx._mul_raw(a, a) == ctx._pow_raw(a, 2) == raw_mul(ctx, a, a)
        for e in (0, 1, q - 2, q - 1, 2 ** 70 + 3):
            assert ctx._pow_raw(a, e) == raw_pow(ctx, a, e), (a, e)


def test_char2_byte_tables_concurrent_first_use():
    base = make_field(2, 20)
    ctx = FieldCtx(2, 20, base.modulus, base.generator)  # no byte tables yet
    rng = random.Random(7)
    pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(200)]
    results = [None] * 8

    def worker(i):
        results[i] = [ctx._mul_raw(a, b) if i % 2 else ctx._pow_raw(a, b)
                      for a, b in pairs]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results[1::2] == [[raw_mul(ctx, a, b) for a, b in pairs]] * 4
    assert results[0::2] == [[raw_pow(ctx, a, b) for a, b in pairs]] * 4


@pytest.mark.parametrize("k", [9, 16, 17, 18, 20, 24])
def test_char2_linear_map_tables(k):
    # z -> c*z as byte tables; the last table is partial when 8 does not divide k
    ctx = make_field(2, k)
    rng = random.Random(200 + k)
    edge = [0, 1, ctx.order - 1, ctx.generator]
    zs = edge + [rng.randrange(ctx.order) for _ in range(20)]
    for c in edge + [rng.randrange(ctx.order) for _ in range(4)]:
        tabs = _linear_tables(ctx._shifts(c, k))
        assert len(tabs) == -(-k // 8)
        assert all(_apply(tabs, z) == raw_mul(ctx, c, z) for z in zs), c


@pytest.mark.parametrize("k", range(2, 25))
def test_gf2_maps_match_byte_tables(k):
    # the packed GF(2)-linear map against the byte-table map of one value at
    # a time, on every slot: random images, zero images and, at k = 17 and
    # 19, values and images with all k bits set, so that every bit of a slot
    # is multiplied; lists of 0, 1, 63, 64 and 1,025 values
    ctx = FieldCtx(2, k, make_field(2, k).modulus, 1)  # no tables are built
    rng = random.Random(800 + k)
    full = ctx.order - 1
    imagesets = [[rng.randrange(ctx.order) for _ in range(k)], [0] * k,
                 [full] * k if k in (17, 19) else [rng.randrange(ctx.order)] * k]
    for images in imagesets:
        tabs = _linear_tables(images)
        for n in (0, 1, 63, 64, 1025):
            vals = [rng.randrange(ctx.order) for _ in range(n)]
            if k in (17, 19):
                vals[:2] = [full, full][:n]
            assert ctx._gf2_maps(images, vals) == [_apply(tabs, v) for v in vals], (n, images)
    if k in (17, 19):
        assert ctx._gf2_maps([full] * k, [full] * 5) == [full] * 5  # k odd
    assert ctx._exp is None


def _assert_subgroup_index(ctx, d, zs):
    """``ctx._subgroup_index(d)`` against ``subgroup_reps`` and ``raw_pow``:
    mu_d, mu_d doubled, and log_d(zs) = the indices of z^t in mu_d, t =
    (q-1)/d, for z != 0 in zs, in one call on the whole list.  log_d calls
    no ``pow`` (the coset rule) exactly when p = 2, k is even and d =
    2^(k/2) + 1, and otherwise one per z."""
    t = (ctx.order - 1) // d
    mu, log_d, mu2 = ctx._subgroup_index(d)
    assert mu == ctx.subgroup_reps(d)
    assert mu2 == array("I", mu + mu)
    index = {y: j for j, y in enumerate(mu)}
    pows, orig = [], FieldCtx.pow

    def spy(self, a, e):
        pows.append(e)
        return orig(self, a, e)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FieldCtx, "pow", spy)
        logs = log_d(zs)
    assert logs == [index[raw_pow(ctx, z, t)] for z in zs], (ctx.p, ctx.k, d)
    coset = ctx.p == 2 and ctx.k % 2 == 0 and d == (1 << ctx.k // 2) + 1
    assert pows == ([] if coset else [t] * len(zs)), (ctx.p, ctx.k, d)
    return coset


def _fresh(p, k):
    """A new context of GF(p^k), with no log tables yet."""
    base = make_field(p, k)
    return FieldCtx(p, k, base.modulus, base.generator)


@pytest.mark.parametrize("k", range(9, 25))
def test_subgroup_index_every_split(k):
    # every split divisor d <= 5000 on a fresh context, which has no log
    # tables at k = 9 and 16 either
    ctx = _fresh(2, k)
    n1 = ctx.order - 1
    rng = random.Random(300 + k)
    zs = [1, n1, ctx.generator] + [rng.randrange(1, ctx.order) for _ in range(3)]
    taken = [d for d in range(1, 5001) if n1 % d == 0 and _assert_subgroup_index(ctx, d, zs)]
    assert taken == ([(1 << k // 2) + 1] if k % 2 == 0 else [])
    assert ctx._exp is None


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 16, 18, 20])
def test_coset_log_is_index_of_power(k):
    # over GF(q^2), d = q + 1: log_g(z) mod d from z's coset of GF(q)* is the
    # index of z^t in mu_d, for every z != 0 up to k = 12 and on samples
    # above, which include the cosets GF(q)* (b = 0) and x*GF(q)* (a = 0)
    ctx = _fresh(2, k)
    q = 1 << k // 2
    if k <= 12:
        zs = range(1, ctx.order)
    else:
        rng = random.Random(500 + k)
        sub = ctx.subgroup_reps(q - 1)[:64]
        zs = sub + [raw_mul(ctx, 2, v) for v in sub] + [ctx.order - 1, ctx.generator] + \
            [rng.randrange(1, ctx.order) for _ in range(2000)]
    assert _assert_subgroup_index(ctx, q + 1, list(zs))
    assert ctx._exp is None


def test_coset_log_declines_other_splits():
    # only d = 2^(k/2) + 1 in characteristic 2 takes coset labels; every
    # other split divisor, every odd k and odd p index z^t by pow
    for k in range(1, 15):
        ctx = _fresh(2, k)
        n1 = ctx.order - 1
        zs = [1, ctx.generator, n1]
        taken = [d for d in range(1, n1 + 1) if n1 % d == 0 and _assert_subgroup_index(ctx, d, zs)]
        assert taken == ([(1 << k // 2) + 1] if k % 2 == 0 else []), k
    assert not _assert_subgroup_index(make_field(3, 4), 10, [1, 2, 80])
    assert not _assert_subgroup_index(make_field(5, 2), 6, [1, 2, 24])


@pytest.mark.parametrize("p,k", [(2, 9), (3, 5), (2, 18), (3, 11)])
def test_scaler_and_power(p, k):
    # z -> c*z, and the index of z^t in mu_d, on a tabled field, on a fresh
    # untabled context of the same field, and above the table limit,
    # against the raw references
    base = make_field(p, k)
    fresh = FieldCtx(p, k, base.modulus, base.generator)
    ctxs = [fresh, base] if base.ensure_tables() else [base]
    n1 = base.order - 1
    rng = random.Random(400 * p + k)
    zs = [0, 1, n1, base.generator] + [rng.randrange(base.order) for _ in range(8)]
    cs = [0, 1, n1, base.generator] + [rng.randrange(base.order) for _ in range(3)]
    ds = [d for d in range(1, 50) if n1 % d == 0]
    if p == 2 and k % 2 == 0:
        ds.append((1 << k // 2) + 1)  # the coset rule
    for ctx in ctxs:
        for c in cs:
            scale = ctx._scaler(c)
            assert [scale(z) for z in zs] == [raw_mul(ctx, c, z) for z in zs], (ctx, c)
        for d in ds:
            _assert_subgroup_index(ctx, d, [z for z in zs if z])
    assert fresh._exp is None


def _raw_neg(ctx, a):
    return ctx.encode([-x for x in ctx.decode(a)])


@pytest.mark.parametrize("p,k", [(2, k) for k in range(17, 25)] + [(3, 11)])
def test_mu_sweep_matches_points(p, k):
    # h on mu_d as one columnar sum, against the point-by-point reference,
    # at each split divisor 1 < d <= 400 (none at k = 17, 19, where q - 1 is
    # prime) and d = 1: random terms with c = 1 columns among them, a
    # constant term chosen so that the sum cancels to 0 at a point, and no
    # terms.
    # k = 24 fills 24 of each packed 32-bit slot
    ctx = make_field(p, k)
    assert not ctx.ensure_tables()
    n1 = ctx.order - 1
    rng = random.Random(600 * p + k)
    ds = [d for d in range(2, 401) if n1 % d == 0][-2:]
    for d in ds:
        mu = ctx.subgroup_reps(d)
        for _ in range(2):
            terms = [(e, 1 if i == 0 else rng.randrange(1, ctx.order))
                     for i, e in enumerate(rng.sample(range(1, d), min(3, d - 1)))]
            assert ctx._mu_sweep(mu + mu, terms) == naive_mu_sweep(ctx, terms, d)
            j0 = rng.randrange(d)
            c0 = _raw_neg(ctx, naive_mu_sweep(ctx, terms, d)[j0])
            vals = ctx._mu_sweep(mu + mu, terms + [(0, c0)])
            assert vals == naive_mu_sweep(ctx, terms + [(0, c0)], d)
            assert vals[j0] == 0 and any(vals)
        assert ctx._mu_sweep(mu + mu, []) == [0] * d
    if p == 2 and k in (18, 20, 24):
        # the coset splits d = 2^(k/2) + 1 (513, 1025, 4097): their columns
        # are strided slices of mu + mu, with a stride that needs the
        # residue split (m > 1), a short negative one, e = 0 mod d and e > d,
        # against mu read index by index (mu's entries are the powers of w:
        # the point-by-point reference checks that at the d above)
        d = (1 << k // 2) + 1
        mu = ctx.subgroup_reps(d)
        split = next(e for e in range(2, d) if _residue_split(d, e)[0] > 1)
        for es in ([split, d - 3], [2 * d, 3 * d + split, d + 1]):
            terms = [(e, rng.randrange(2, ctx.order)) for e in es] + [(d - 1, 1)]
            want = [0] * d
            for e, c in terms:
                want = [v ^ raw_mul(ctx, c, mu[j * e % d]) for j, v in enumerate(want)]
            assert ctx._mu_sweep(mu + mu, terms) == want, es
        assert _residue_split(d, d - 3) == (1, -3)
    # the table-free branch reads its columns from mu by index alone, so any
    # list stands in for mu there: random entries of every bit length, and
    # coefficients n1 and x^(k-1), whose top bit starts Horner's rule, check
    # the packed products at k = 17 and 19 too
    mu = [rng.randrange(1, ctx.order) for _ in range(101)] + [n1, 1 << k - 1 if p == 2 else 1]
    terms = [(0, 1), (1, n1), (2, 1 << k - 1), (5, rng.randrange(1, ctx.order)),
             (77, rng.randrange(1, ctx.order))]
    want = [0] * len(mu)
    for e, c in terms:
        want = [raw_add(ctx, v, raw_mul(ctx, c, mu[j * e % len(mu)])) for j, v in enumerate(want)]
    assert ctx._mu_sweep(mu + mu, terms) == want
    c = rng.randrange(2, ctx.order)
    for terms in ([(0, c)], [(0, 1)], [(0, c), (0, 1)], []):
        assert ctx._mu_sweep([1, 1], terms) == naive_mu_sweep(ctx, terms, 1)
    assert ctx._mu_sweep([1, 1], [(0, c), (0, _raw_neg(ctx, c))]) == [0]
    assert len(ds) == (0 if k in (17, 19) else 2 if k != 23 else 1)


@pytest.mark.parametrize("p,k", [(2, 4), (2, 8), (2, 9), (2, 16), (3, 4), (5, 2)])
def test_mu_sweep_tabled_matches_points(p, k, monkeypatch):
    # with log tables h is compiled from its summed terms and mapped over mu
    # point by point: against the point-by-point reference at d = 1 and the
    # two largest split divisors d < 300, with random exponents up to 2d, a
    # repeated exponent, a constant term chosen so that the sum cancels to 0
    # at a point, and no terms; then each result again from the table-free
    # branch, tables forced off (GF(2^16) has array tables, d = 257 = q + 1)
    ctx = make_field(p, k)
    assert ctx.ensure_tables()
    n1 = ctx.order - 1
    rng = random.Random(700 * p + k)
    ds = [1] + [d for d in range(2, 300) if n1 % d == 0][-2:]
    sweeps = []
    for d in ds:
        mu = ctx.subgroup_reps(d)
        terms = [(e, rng.randrange(1, ctx.order)) for e in rng.sample(range(1, 2 * d + 1), 2)]
        terms.append((terms[0][0], rng.randrange(1, ctx.order)))
        j0 = rng.randrange(d)
        c0 = _raw_neg(ctx, naive_mu_sweep(ctx, terms, d)[j0])
        for ts in (terms, terms + [(0, c0)], []):
            vals = ctx._mu_sweep(mu + mu, ts)
            assert vals == naive_mu_sweep(ctx, ts, d), (d, ts)
            sweeps.append((mu, ts, vals))
        assert sweeps[-2][2][j0] == 0 and sweeps[-1][2] == [0] * d
    assert len(ds) == 3
    monkeypatch.setattr(ctx, "_exp", None)
    monkeypatch.setattr("permpoly.field.TABLE_LIMIT", 1)
    assert not ctx.ensure_tables()
    for mu, ts, vals in sweeps:
        assert ctx._mu_sweep(mu + mu, ts) == vals, (len(mu), ts)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_zech_add_exhaustive(p, k):
    # tabled add/sub/neg in odd characteristic against digit-wise sums, for
    # every pair; a + (-a) is the Zech sentinel
    ctx = make_field(p, k)
    assert ctx.ensure_tables()
    for a in range(ctx.order):
        na = _raw_neg(ctx, a)
        assert ctx.neg(a) == na
        assert ctx.add(a, na) == 0
        for b in range(ctx.order):
            assert ctx.add(a, b) == raw_add(ctx, a, b)
            assert ctx.sub(a, b) == raw_add(ctx, a, _raw_neg(ctx, b))


@pytest.mark.parametrize("k", [4, 8])
def test_zech_add_sampled(k):
    ctx = make_field(3, k)
    assert ctx.ensure_tables()
    rng = random.Random(3 * k)
    for _ in range(20_000):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        nb = _raw_neg(ctx, b)
        assert ctx.add(a, b) == raw_add(ctx, a, b)
        assert ctx.sub(a, b) == raw_add(ctx, a, nb)
        assert ctx.neg(b) == nb
        assert ctx.add(b, nb) == 0
    assert ctx.add(0, 0) == ctx.neg(0) == 0
    assert ctx.add(1, ctx.order - 1) == raw_add(ctx, 1, ctx.order - 1)


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
