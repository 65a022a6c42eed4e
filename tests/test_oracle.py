"""Oracle tests: exhaustive verification, subset sweeps, and splitting."""

import math
import random

import pytest

from permpoly import (
    ImageOutOfRange,
    NotADivisor,
    NotFactorable,
    SparsePoly,
    is_permutation,
    make_field,
    natural_divisor,
    permutes_subset,
    zieve_split,
    zieve_verdict,
)
from permpoly import families as fam
from permpoly import oracle

from helpers import naive_split_map


def test_identity_and_frobenius_are_permutations():
    ctx = make_field(2, 6)
    assert is_permutation(lambda x: x, ctx).is_permutation
    sq = is_permutation(lambda x: ctx.mul(x, x), ctx)
    assert sq.is_permutation
    assert sq.evaluations == 64
    assert sq.witness is None


def test_constant_map_witness_reevaluates():
    ctx = make_field(2, 5)
    fn = lambda x: 7  # noqa: E731
    rep = is_permutation(fn, ctx)
    assert not rep.is_permutation
    x1, x2 = rep.witness
    assert x1 != x2 and fn(x1) == fn(x2)
    # the first collision in ascending order is (0, 1)
    assert rep.witness == (0, 1)
    assert rep.evaluations == 2


def test_sparsepoly_accepted_directly():
    ctx = make_field(2, 9)
    poly = SparsePoly(ctx, [(1, 520), (1, 65), (1, 1)])
    assert is_permutation(poly, ctx).is_permutation


@pytest.mark.parametrize("shift, y0", [(-8, -8), (8, 8)])
def test_image_out_of_range_is_typed(shift, y0):
    ctx = make_field(2, 3)
    with pytest.raises(ImageOutOfRange) as exc:
        is_permutation(lambda x: x + shift, ctx)
    assert (exc.value.x, exc.value.y) == (0, y0)


def test_determinism_modulo_elapsed():
    ctx = make_field(2, 6)
    fn = lambda x: ctx.add(ctx.pow(x, 25), ctx.pow(x, 4))  # noqa: E731
    a = is_permutation(fn, ctx)
    b = is_permutation(fn, ctx)
    assert (a.is_permutation, a.witness, a.escape, a.evaluations) == \
        (b.is_permutation, b.witness, b.escape, b.evaluations)


# --------------------------------------------------------------------------
# subsets
# --------------------------------------------------------------------------

def test_power_map_on_unit_circle():
    ctx = make_field(2, 8)
    mu = ctx.subgroup_reps(17)
    for u in (1, 2, 3, 5, 16):
        rep = permutes_subset(lambda y, u=u: ctx.pow(y, u), mu, ctx)
        assert rep.is_permutation == (math.gcd(u, 17) == 1)


def test_constant_map_on_subset():
    ctx = make_field(2, 4)
    mu = ctx.subgroup_reps(5)
    rep = permutes_subset(lambda y: mu[0], mu, ctx)
    assert not rep.is_permutation
    assert rep.witness is not None


def test_subset_escape_is_a_failure():
    ctx = make_field(2, 4)
    mu = ctx.subgroup_reps(5)
    rep = permutes_subset(lambda y: ctx.add(y, 1), mu, ctx)
    assert not rep.is_permutation
    assert rep.escape is not None
    x, y = rep.escape
    assert x in set(mu) and y not in set(mu)
    assert ctx.add(x, 1) == y


def test_subset_accepts_field_elems():
    ctx = make_field(2, 4)
    mu = ctx.subgroup(5)
    assert permutes_subset(lambda y: ctx.pow(y, 2), mu, ctx).is_permutation


def test_reduced_map_on_cubic_circle_matches_full_verdict():
    # direct subgroup sweep of y^r * (y^(2^m) + a*y + b)^(s*(2^(3m)-1)) against
    # the full-field verdict of the F10-shaped product, m = 1
    from permpoly import families as fam
    ctx = fam.family_ctx("F10", {"m": 1})
    mu7 = ctx.subgroup_reps(7)
    E = 3 * 7  # s * (2^3 - 1)
    for a in range(1, 8):
        for b in range(1, 8):
            params = {"m": 1, "r": 1, "s": 3, "a": a, "b": b}

            def g(y, a=a, b=b):
                inner = ctx.add(ctx.add(ctx.pow(y, 2), ctx.mul(a, y)), b)
                return ctx.mul(y, ctx.pow(inner, E))

            direct = is_permutation(fam.evaluator("F10", params, ctx=ctx),
                                    ctx).is_permutation
            assert permutes_subset(g, mu7, ctx).is_permutation == direct
            if fam.check("F10", params, ctx=ctx).passed:
                assert direct


# --------------------------------------------------------------------------
# splitting
# --------------------------------------------------------------------------

def test_split_recovers_inner_polynomial():
    ctx = make_field(2, 8)
    c = 5
    poly = SparsePoly(ctx, [(c, 1), (1, 91), (ctx.pow(c, 16), 1456)])
    r, h = zieve_split(poly, 17)
    assert r == 1
    assert [e for _, e in h.term_pairs()] == [0, 6, 97]
    assert [cf for cf, _ in h.term_pairs()] == [c, 1, ctx.pow(c, 16)]


def test_split_identity():
    ctx = make_field(2, 4)
    r, h = zieve_split(SparsePoly.x(ctx), 5)
    assert r == 1
    assert h.term_pairs() == ((1, 0),)  # h = 1


def test_split_incongruent_exponents():
    ctx = make_field(2, 4)
    poly = SparsePoly(ctx, [(1, 2), (1, 1)])
    with pytest.raises(NotFactorable):
        zieve_split(poly, 5)  # exponents 2 and 1 differ mod 3
    with pytest.raises(NotADivisor):
        zieve_split(poly, 7)


def test_natural_divisor():
    ctx = make_field(2, 8)
    poly = SparsePoly(ctx, [(1, 1), (1, 91), (1, 1456)])
    assert natural_divisor(poly) == 17  # gcd(255, 90, 1455) = 15
    assert natural_divisor(SparsePoly.x(ctx)) == 1


def test_split_verdict_agrees_with_oracle():
    ctx = make_field(2, 6)
    rng = random.Random(31)
    mu9 = set(ctx.subgroup_reps(9))
    mu3 = set(ctx.subgroup_reps(3))
    bs = sorted(mu9 - mu3) + sorted(mu3) + [rng.randrange(1, 64) for _ in range(5)]
    for b in bs:
        poly = SparsePoly(ctx, [(1, 25), (b, 4)])
        direct = is_permutation(poly, ctx).is_permutation
        split, info = zieve_verdict(poly)
        assert split == direct, (b, info)


# --------------------------------------------------------------------------
# split sweep against the full scan and the per-point reference
# --------------------------------------------------------------------------

SPLIT_FIELDS = [(2, k) for k in range(1, 9)] + [(3, 3), (3, 4), (5, 2)]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _random_split_polys(ctx, rng, count):
    """Sparse x^r * h(x^t0) shapes with random t0 | q-1, r >= 1 and 1-3 terms."""
    n1 = ctx.order - 1
    out = []
    for _ in range(count):
        t0 = rng.choice(_divisors(n1))
        r = rng.randrange(1, n1 + 1)
        pairs = [(rng.randrange(1, ctx.order), r + t0 * rng.randrange(0, 2 * n1 // t0 + 1))
                 for _ in range(rng.randrange(1, 4))]
        f = SparsePoly(ctx, pairs)
        if not f.is_zero():
            out.append(f)
    return out


@pytest.fixture
def circle_spy(monkeypatch):
    """(map, subset) of every permutes_subset call zieve_verdict makes."""
    calls = []
    orig = oracle.permutes_subset

    def spy(fn, subset, ctx):
        calls.append((fn, subset))
        return orig(fn, subset, ctx)

    monkeypatch.setattr(oracle, "permutes_subset", spy)
    return calls


@pytest.mark.parametrize("p, k", SPLIT_FIELDS)
def test_split_sweep_matches_scan_and_reference(p, k, circle_spy):
    ctx = make_field(p, k)
    n1 = ctx.order - 1
    rng = random.Random(1000 * p + k)
    verdicts = set()
    for f in _random_split_polys(ctx, rng, 15):
        direct = is_permutation(f, ctx).is_permutation
        verdicts.add(direct)
        for d in _divisors(n1):
            try:
                r, h = zieve_split(f, d)
            except NotFactorable:
                continue
            circle_spy.clear()
            split, info = zieve_verdict(f, d)
            assert split == direct, (f, d, info)
            (fn, mu), = circle_spy
            assert mu == ctx.subgroup_reps(d)
            naive = naive_split_map(ctx, r, h, n1 // d, d)
            assert [fn(y) for y in mu] == [naive(y) for y in mu], (f, d)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p, k", [(2, 3), (2, 6), (3, 3)])
def test_split_of_nonzero_constant_term(p, k):
    # f and f - f(0) are bijections together; the split must see through it
    ctx = make_field(p, k)
    rng = random.Random(7 * p + k)
    verdicts = set()
    for f in _random_split_polys(ctx, rng, 30):
        for c in (1, rng.randrange(1, ctx.order)):
            g = f + SparsePoly.constant(ctx, c)
            direct = is_permutation(g, ctx).is_permutation
            verdicts.add(direct)
            assert zieve_verdict(g)[0] == direct, g
    assert verdicts == {True, False}
    x = SparsePoly.x(ctx)
    assert zieve_verdict(x + SparsePoly.constant(ctx, 1))[0]
    assert zieve_verdict(SparsePoly.constant(ctx, 1)) == (
        False, {"d": None, "r": None, "t": None, "coprime": False, "subgroup": False})


def test_split_sweep_f8_above_table_limit(circle_spy):
    params = {"m": 9, "r": 5, "s": 3, "a": 1, "delta": 10}
    ctx = fam.family_ctx("F8", params)
    assert ctx.order == 1 << 18
    f = fam.build("F8", params, ctx=ctx)
    split, info = zieve_verdict(f)
    assert split
    assert info["d"] == 513
    r, h = zieve_split(f, 513)
    (fn, mu), = circle_spy
    naive = naive_split_map(ctx, r, h, info["t"], 513)
    assert [fn(y) for y in mu] == [naive(y) for y in mu]
