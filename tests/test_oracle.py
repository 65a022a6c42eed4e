"""Oracle tests: exhaustive verification, subset sweeps, and splitting."""

import gc
import itertools
import math
import random
import unittest.mock
import weakref

import pytest

from permpoly import (
    BadSubset,
    CtxMismatch,
    FieldCtx,
    FieldElem,
    ImageOutOfRange,
    NotADivisor,
    NotFactorable,
    SparsePoly,
    is_permutation,
    make_field,
    natural_divisor,
    permutes_subset,
    transform_pair,
    zieve_split,
    zieve_verdict,
)
from permpoly import families as fam
from permpoly import oracle

from helpers import brute_is_permutation, fibres_of, naive_split_map


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


@pytest.mark.parametrize("kf, ks", [(4, 3), (3, 4)])
def test_polynomial_from_another_field_rejected(kf, ks):
    # GF(16) over GF(8) used to report a bijection; GF(8) over GF(16) raised
    # a bare IndexError
    poly = SparsePoly(make_field(2, kf), [(1, 1)])
    ctx = make_field(2, ks)
    with pytest.raises(CtxMismatch):
        is_permutation(poly, ctx)
    with pytest.raises(CtxMismatch):
        permutes_subset(poly, ctx.subgroup_reps(ctx.order - 1), ctx)


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


@pytest.mark.parametrize("compiled", [False, True])
def test_subset_reps_validated(compiled):
    # a repeated rep used to give the witness (1, 1); a rep outside [0, q)
    # raised a bare IndexError from the compiled polynomial
    ctx = make_field(2, 4)
    f = SparsePoly(ctx, [(1, 3)]).rep_fn() if compiled else (lambda x: x)
    for subset in ([1, 1, 2], [100], [-1, 2], [ctx.elem(3), 3]):
        calls = []
        with pytest.raises(BadSubset):
            permutes_subset(lambda x: calls.append(x) or f(x), subset, ctx)
        assert calls == []  # raised before any evaluation


def test_subset_accepts_field_elems():
    ctx = make_field(2, 4)
    mu = [ctx.elem(y) for y in ctx.subgroup_reps(5)]
    assert permutes_subset(lambda y: ctx.pow(y, 2), mu, ctx).is_permutation


def test_subset_elems_of_another_field_rejected():
    # mu_5 of GF(16) mod x^4 + x^3 + 1, checked against the default GF(16),
    # used to be read as reps of the latter and to report an escape (8, 12)
    ctx = make_field(2, 4)
    other = make_field(2, 4, modulus=(1, 0, 0, 1, 1))
    mu = [other.elem(y) for y in other.subgroup_reps(5)]
    calls = []
    with pytest.raises(CtxMismatch):
        permutes_subset(lambda y: calls.append(y) or ctx.pow(y, 2), mu, ctx)
    assert calls == []  # raised before any evaluation


def test_subset_reps_by_type_pass():
    # permutes_subset converts elements only when a pass over the subset's
    # types finds one: every error of the per-element conversion stays, for
    # lists, tuples and iterators, and raises before any evaluation
    class Tagged(FieldElem):
        pass

    ctx = make_field(2, 4)
    other = make_field(2, 4, modulus=(1, 0, 0, 1, 1))
    mu = ctx.subgroup_reps(5)
    cases = [
        (BadSubset, mu + [mu[2]]),                                  # a repeated int
        (BadSubset, tuple(mu) + (16,)),                             # past the field
        (BadSubset, iter([-1] + mu[1:])),                           # below 0
        (BadSubset, [ctx.elem(mu[1])] + mu[1:]),                    # an element repeats an int
        (BadSubset, mu[:3] + [Tagged(ctx, mu[3]), Tagged(ctx, mu[3])]),  # a subclass, twice
        (CtxMismatch, mu[:4] + [other.elem(mu[4])]),                # a foreign element
        (CtxMismatch, [ctx.elem(y) for y in mu[:4]] + [other.elem(mu[4])]),
    ]
    for exc, subset in cases:
        calls = []
        with pytest.raises(exc):
            permutes_subset(lambda y: calls.append(y) or ctx.pow(y, 2), subset, ctx)
        assert calls == [], subset
    want = _fields(permutes_subset(lambda y: ctx.pow(y, 3), mu, ctx))
    for subset in ([ctx.elem(y) if j % 2 else y for j, y in enumerate(mu)], tuple(mu),
                   iter(mu), [Tagged(ctx, y) for y in mu]):
        assert _fields(permutes_subset(lambda y: ctx.pow(y, 3), subset, ctx)) == want


def _walk(fn, reps):
    """(is_permutation, witness, escape, evaluations) of the walk in subset
    order, stopping at the first escape or repeat."""
    member, seen = set(reps), {}
    for n, x in enumerate(reps, 1):
        y = fn(x)
        if y not in member:
            return False, None, (x, y), n
        if y in seen:
            return False, (seen[y], x), None, n
        seen[y] = x
    return True, None, None, len(reps)


def test_subset_bulk_path_keeps_the_walks_report():
    # one walk in subset order gives the report, calling f exactly once per
    # evaluated element: a bijection takes one call per element, a repeat or
    # an escape stops the walk, and an exception after the first repeat
    # leaves its witness, one before it is raised
    ctx = make_field(2, 8)
    mu = ctx.subgroup_reps(51)
    cube = lambda y: ctx.pow(y, 3)  # noqa: E731
    first = _walk(cube, mu)[3]

    def raising(at, fn):
        def g(y):
            if y == mu[at]:
                raise ZeroDivisionError(at)
            return fn(y)
        return g
    maps = [lambda y: ctx.pow(y, 2), lambda y: ctx.pow(y, 7), cube, lambda y: ctx.add(y, 1),
            lambda y: mu[0], raising(first - 2, cube), raising(first, cube),
            raising(30, lambda y: ctx.pow(y, 2))]
    outcomes = []
    for fn in maps:
        calls = []
        try:
            got = _fields(permutes_subset(lambda y: calls.append(y) or fn(y), mu, ctx))[1:]
        except ZeroDivisionError as exc:
            got = exc.args
        try:
            want = _walk(fn, mu)
        except ZeroDivisionError as exc:
            want = exc.args
        assert got == want
        outcomes.append(len(got))
        if got[0] is True:
            assert calls == mu
        elif len(got) == 4:
            assert calls == mu[:got[3]]
        else:  # f raised at mu[at], got = (at,)
            assert calls == mu[:got[0] + 1]
    assert outcomes == [4, 4, 4, 4, 4, 1, 4, 1]
    assert first > 3 and _walk(cube, mu)[1] is not None


def _list_cases(rng, mu, outside):
    """(kind, images) maps of mu in its order: a bijection, an escape, a
    repeat, an escape before a repeat and a repeat before an escape."""
    perm = rng.sample(mu, len(mu))
    out = [("ok", perm)]
    i = rng.randrange(len(mu))
    out.append(("escape", perm[:i] + [rng.choice(outside)] + perm[i + 1:]))
    if len(mu) > 2:
        i, j, m = sorted(rng.sample(range(len(mu)), 3))
        out.append(("repeat", perm[:j] + [perm[i]] + perm[j + 1:]))
        both = list(perm)
        both[i], both[m] = rng.choice(outside), perm[j]
        out.append(("escape, repeat", both))
        both = list(perm)
        both[j], both[m] = perm[i], rng.choice(outside)
        out.append(("repeat, escape", both))
    return out


@pytest.mark.parametrize("p, k", [(2, 8), (3, 4)])
def test_subset_list_form_is_the_walk(p, k):
    # the map given as the list of its values in subset order gives the
    # callable walk's report, witness, escape and evaluations, on random
    # maps over every subgroup of GF(2^8) and GF(3^4), with the subset as
    # reps or as FieldElems
    ctx = make_field(p, k)
    rng = random.Random(900 * p + k)
    kinds = set()
    for d in _divisors(ctx.order - 1):
        mu = ctx.subgroup_reps(d)
        outside = sorted(set(range(ctx.order)) - set(mu))
        elems = [ctx.elem(y) for y in mu]
        for _ in range(3):
            for kind, images in _list_cases(rng, mu, outside):
                want = _fields(permutes_subset(dict(zip(mu, images)).__getitem__, mu, ctx))
                assert want[1:] == _walk(dict(zip(mu, images)).__getitem__, mu), (d, kind)
                assert _fields(permutes_subset(images, mu, ctx)) == want, (d, kind)
                assert _fields(permutes_subset(images, elems, ctx)) == want, (d, kind)
                first = "escape" if want[3] else "repeat" if want[2] else "ok"
                assert kind.startswith(first), (d, kind, want)
                kinds.add(kind)
    assert len(kinds) == 5


def test_subset_list_form_edges():
    # the empty subset with no values is a bijection of no evaluations; a
    # list of another length raises BadSubset before any value is read, and
    # after the subset itself is validated
    class Unread(list):
        def __iter__(self):
            raise AssertionError("a value was read")

        def __getitem__(self, i):
            raise AssertionError("a value was read")

    ctx = make_field(2, 4)
    mu = ctx.subgroup_reps(5)
    assert _fields(permutes_subset([], [], ctx)) == ("subset[0]", True, None, None, 0)
    assert _fields(permutes_subset([], iter(()), ctx)) == _fields(
        permutes_subset(lambda y: y, [], ctx))
    for values in (Unread(mu[:4]), Unread(mu + [0]), Unread(), Unread([1])):
        with pytest.raises(BadSubset, match="values for a subset of"):
            permutes_subset(values, mu if len(values) != 1 else [], ctx)
    with pytest.raises(BadSubset, match="distinct"):
        permutes_subset(Unread(mu[:2]), [1, 1, 2], ctx)


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
    """(map, subset) of every permutes_subset call zieve_verdict makes; a
    map given as the list of its images is recorded as a function."""
    calls = []
    orig = oracle.permutes_subset

    def spy(fn, subset, ctx):
        mapped = dict(zip(subset, fn)).__getitem__ if isinstance(fn, list) else fn
        calls.append((mapped, subset))
        return orig(fn, subset, ctx)

    monkeypatch.setattr(oracle, "permutes_subset", spy)
    return calls


def _lifted_split_polys(ctx, rng, f):
    """Inputs whose exponents are not their residues mod q - 1: f with every
    exponent raised by several multiples of q - 1 (the same map); f plus
    c*x^e - c*x^(e + 2(q-1)) at a residue e that f lacks, a pair whose sum
    cancels mod q - 1 but not formally (the same map); and f plus c*x^e, e a
    positive multiple of q - 1 (1 on GF(q)*, 0 at 0)."""
    n1, pairs = ctx.order - 1, list(f.term_pairs())
    c, free = rng.randrange(1, ctx.order), set(range(n1)) - {x % n1 for _, x in pairs}
    out = [SparsePoly(ctx, [(a, x + n1 * rng.randrange(1, 5)) for a, x in pairs]),
           SparsePoly(ctx, pairs + [(c, n1 * rng.randrange(1, 4))])]
    if free:
        e = rng.choice(sorted(free)) + n1
        out.append(SparsePoly(ctx, pairs + [(c, e), (ctx.neg(c), e + 2 * n1)]))
    return out


@pytest.mark.parametrize("p, k", SPLIT_FIELDS)
def test_split_sweep_matches_scan_and_reference(p, k, circle_spy):
    # random split shapes, and their lifts by multiples of q - 1 (the verdict
    # sums the terms by exponent mod q - 1 first): the verdict is the full
    # scan's, the subgroup map the per-point reference's, and the details
    # those of the formal split of zieve_split, whose r is f's least exponent
    ctx = make_field(p, k)
    n1 = ctx.order - 1
    rng = random.Random(1000 * p + k)
    verdicts, lifted = set(), 0
    for f in _random_split_polys(ctx, rng, 15):
        for g in [f] + [g for g in _lifted_split_polys(ctx, rng, f) if not g.is_zero()]:
            direct = is_permutation(g, ctx).is_permutation
            verdicts.add(direct)
            lifted += g is not f and g._terms[-1][0] >= 2 * n1
            for d in _divisors(n1):
                try:
                    r, h = zieve_split(g, d)
                except NotFactorable:
                    continue
                circle_spy.clear()
                split, info = zieve_verdict(g, d)
                assert split == direct, (g, d, info)
                assert (info["d"], info["r"], info["t"]) == (d, r, n1 // d), (g, d, info)
                (fn, mu), = circle_spy
                assert mu == ctx.subgroup_reps(d)
                naive = naive_split_map(ctx, r, h, n1 // d, d)
                assert [fn(y) for y in mu] == [naive(y) for y in mu], (g, d)
            assert zieve_verdict(g)[1]["d"] == natural_divisor(g), g
    assert verdicts == {True, False} and lifted >= 15


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


@pytest.fixture
def mu_spy(monkeypatch):
    """(ctx, d) of every ``FieldCtx.subgroup_reps(d)`` built, from an empty
    ``FieldCtx._subgroup_index`` cache."""
    FieldCtx._subgroup_index.cache_clear()
    calls = []
    orig = FieldCtx.subgroup_reps

    def spy(ctx, d):
        calls.append((ctx, d))
        return orig(ctx, d)

    monkeypatch.setattr(FieldCtx, "subgroup_reps", spy)
    return calls


def _pow_spy(monkeypatch):
    """The exponent e of every ``FieldCtx.pow(a, e)`` call from now on."""
    calls = []
    orig = FieldCtx.pow

    def spy(ctx, a, e):
        calls.append(e)
        return orig(ctx, a, e)

    monkeypatch.setattr(FieldCtx, "pow", spy)
    return calls


def _assert_sweep_above_table_limit(fid, params, verdict, circle_spy, mu_spy):
    """zieve_verdict's byte-table sweep of ``fid`` over GF(q^2), above the
    table limit, twice: mu_d is built on the first call only, and the second
    sweep, against the per-point reference at every point of mu_d, indexes
    h(y)^t by coset labels for F5 and F8 (t = q - 1, d = q + 1) and by
    ``pow`` for F9 (t = q + 1, d = q - 1), once per distinct nonzero value
    of h on mu_d: F9's h is constant there, so it takes one power."""
    ctx = fam.family_ctx(fid, params)
    q = 1 << ctx.k // 2
    assert ctx.order == q * q and not ctx.ensure_tables()
    f = fam.build(fid, params, ctx=ctx)
    t, d = (q + 1, q - 1) if fid == "F9" else (q - 1, q + 1)
    mu_spy.clear()
    first = zieve_verdict(f)
    assert mu_spy.count((ctx, d)) == 1
    mu_spy.clear()
    circle_spy.clear()
    with pytest.MonkeyPatch.context() as mp:
        pows = _pow_spy(mp)
        split, info = zieve_verdict(f)
    assert (split, info) == first and split is verdict
    assert (info["d"], info["t"]) == (d, t)
    assert mu_spy == []
    assert pows == ([t] if fid == "F9" else [])
    r, h = zieve_split(f, d)
    assert info["r"] == r  # the formal split's, also where F9's 13,121 terms have 511 residues
    (fn, mu), = circle_spy
    naive = naive_split_map(ctx, r, h, t, d)
    assert [fn(y) for y in mu] == [naive(y) for y in mu]


def test_split_sweep_f8_above_table_limit(circle_spy, mu_spy):
    # GF(2^18): F8 with d = 513 by coset labels, F9 with d = 511 by pow
    for fid, params in [("F8", {"m": 9, "r": 5, "s": 3, "a": 1, "delta": 10}),
                        ("F9", {"m": 9, "r": 5, "s": 3, "a": 1, "delta": 1})]:
        _assert_sweep_above_table_limit(fid, params, True, circle_spy, mu_spy)


@pytest.mark.parametrize("fid, params, verdict", [
    ("F8", {"m": 10, "r": 13, "s": 3, "a": 7, "delta": 2}, True),
    ("F5", {"m": 10, "r": 7, "i": 3, "b": 5}, False),
    ("F9", {"m": 9, "r": 5, "s": 1, "a": 1, "delta": 1}, True),
])
def test_split_sweep_gf2_20_shapes(fid, params, verdict, circle_spy, mu_spy):
    # F8 and F5 over GF(2^20), d = 1025 by coset labels, and the other side,
    # F9 over GF(2^18) with t = q + 1, by pow
    _assert_sweep_above_table_limit(fid, params, verdict, circle_spy, mu_spy)


def test_split_sees_pow_patched_after_the_cache_fills(monkeypatch):
    # the cached rule looks pow up on each call: a counter patched onto
    # FieldCtx.pow after F9's mu_511 is cached over GF(2^18) sees the power
    # of h's one value on mu_511, which labels all 511 points
    params = {"m": 9, "r": 5, "s": 3, "a": 1, "delta": 1}
    f = fam.build("F9", params, ctx=fam.family_ctx("F9", params))
    first = zieve_verdict(f)
    pows = _pow_spy(monkeypatch)
    assert zieve_verdict(f) == first
    assert pows == [513]


def _split_the_long_way(f, d):
    """(verdict, info, report) of the split of f - f(0) by ``zieve_split`` and
    ``reduce_exponents``, its subgroup map taken point by point over
    ``raw_pow`` (``naive_split_map``) by the original ``permutes_subset``."""
    ctx = f.ctx
    r, h = zieve_split(f - SparsePoly.constant(ctx, f.eval_rep(0)), d)
    t = (ctx.order - 1) // d
    report = permutes_subset(naive_split_map(ctx, r, h.reduce_exponents(d), t, d),
                             ctx.subgroup_reps(d), ctx)
    coprime = math.gcd(r, t) == 1
    return coprime and report.is_permutation, {
        "d": d, "r": r, "t": t, "coprime": coprime, "subgroup": report.is_permutation}, report


@pytest.fixture
def split_reports(monkeypatch):
    """The report of every permutes_subset call zieve_verdict makes."""
    reports = []
    orig = oracle.permutes_subset

    def spy(fn, subset, ctx):
        reports.append(orig(fn, subset, ctx))
        return reports[-1]

    monkeypatch.setattr(oracle, "permutes_subset", spy)
    return reports


def _fields(report):
    return (report.target, report.is_permutation, report.witness, report.escape,
            report.evaluations)


@pytest.mark.parametrize("p, k", [(2, 6), (2, 8), (3, 4), (2, 18), (3, 11)])
def test_split_fold_matches_split_and_reduce(p, k, split_reports):
    # zieve_verdict folds f's terms once, from the step of one _split_step
    # pass; its verdict, info and subset report equal those of zieve_split
    # and reduce_exponents, with or without a constant term, at every d
    # <= 100 that splits f, and a d whose t does not divide the step raises
    # zieve_split's NotFactorable
    ctx = make_field(p, k)
    n1 = ctx.order - 1
    rng = random.Random(700 * p + k)
    ds = [d for d in _divisors(n1) if d <= 100]
    refused = 0
    for f in _random_split_polys(ctx, rng, 12):
        f = f + SparsePoly.constant(ctx, rng.choice([0, rng.randrange(ctx.order)]))
        for d in ds:
            try:
                verdict, info, report = _split_the_long_way(f, d)
            except NotFactorable as exc:
                with pytest.raises(NotFactorable) as got:
                    zieve_verdict(f, d)
                assert str(got.value) == str(exc)
                refused += 1
                continue
            split_reports.clear()
            assert zieve_verdict(f, d) == (verdict, info), (f, d)
            (got,) = split_reports
            assert _fields(got) == _fields(report), (f, d)
    assert refused


def _report_cases():
    """(f, d) splits over GF(2^18..2^24) and GF(3^11) that fail on mu_d: f's
    own step with a random h, which repeats an image early, and with a
    constant term of h chosen to vanish at an early point w^j0, an escape."""
    out = []
    for p, k in [(2, 18), (2, 20), (2, 21), (2, 22), (2, 24), (3, 11)]:
        ctx = make_field(p, k)
        n1 = ctx.order - 1
        rng = random.Random(800 * p + k)
        d = max(d for d in _divisors(n1) if d <= 1100)
        t = n1 // d
        mu = ctx.subgroup_reps(d)
        for _ in range(2):
            r = rng.randrange(1, t)
            es = rng.sample(range(1, d), 2)
            cs = [rng.randrange(1, ctx.order) for _ in es]
            f = SparsePoly(ctx, [(c, r + t * e) for c, e in zip(cs, es)])
            out.append((f, d))
            j0 = rng.randrange(min(d, 40))
            h0 = ctx.add(ctx.mul(cs[0], mu[j0 * es[0] % d]), ctx.mul(cs[1], mu[j0 * es[1] % d]))
            out.append((f + SparsePoly(ctx, [(ctx.neg(h0), r)]), d))
    return out


def test_split_report_is_the_per_point_sweeps(split_reports):
    # the subset report of the columnar sweep, witness, escape and
    # evaluations, is the point-by-point sweep's, so VerdictClock counts the
    # same elements: on the bigfield F5 splits (F5 m=10 b=1584 has a zero
    # value of h at its 668th point), F8 m=10 a=3, and early repeats and
    # escapes over GF(2^18..2^24) and GF(3^11)
    cases = [(fam.build(fid, params), None) for fid, params in [
        ("F5", {"m": 9, "r": 5, "i": 1, "b": 3}),
        ("F5", {"m": 10, "r": 7, "i": 3, "b": 5}),
        ("F5", {"m": 10, "r": 7, "i": 3, "b": 1584}),
        ("F8", {"m": 10, "r": 13, "s": 3, "a": 3, "delta": 2})]] + _report_cases()
    reports = []
    for f, d in cases:
        split_reports.clear()
        verdict, info = zieve_verdict(f, d)
        (got,) = split_reports
        want_verdict, want_info, want = _split_the_long_way(f, info["d"])
        assert (verdict, info) == (want_verdict, want_info)
        assert _fields(got) == _fields(want), f
        reports.append(got)
    assert reports[2].escape == (334585, 0) and reports[2].evaluations == 668
    kinds = {"escape" if rep.escape else "witness" if rep.witness else "ok" for rep in reports[4:]}
    assert kinds == {"escape", "witness"}


def test_split_checks_d_before_a_constant():
    # a constant or zero f gets no verdict for a d that does not divide q - 1
    ctx = make_field(2, 4)
    for f in (SparsePoly.constant(ctx, 1), SparsePoly(ctx, []), SparsePoly.x(ctx)):
        for d in (7, 0):
            with pytest.raises(NotADivisor):
                zieve_verdict(f, d)
    assert zieve_verdict(SparsePoly(ctx, []), 5) == (
        False, {"d": 5, "r": None, "t": None, "coprime": False, "subgroup": False})


def test_split_sweep_odd_char_above_table_limit(circle_spy):
    # the index sweep in odd characteristic with no tables to switch off:
    # GF(3^11), q - 1 = 2 * 23 * 3851, against the per-point reference
    ctx = make_field(3, 11)
    assert not ctx.ensure_tables()
    n1 = ctx.order - 1
    rng = random.Random(311)
    verdicts = set()
    for d in (2, 23, 46):
        t = n1 // d
        for _ in range(4):
            r0 = rng.randrange(1, n1 + 1)
            f = SparsePoly(ctx, [(rng.randrange(1, ctx.order), r0 + t * rng.randrange(2 * d))
                                 for _ in range(rng.randrange(1, 4))])
            r, h = zieve_split(f, d)
            circle_spy.clear()
            verdict, info = zieve_verdict(f, d)
            (fn, mu), = circle_spy
            naive = naive_split_map(ctx, r, h, t, d)
            images = [naive(y) for y in mu]
            assert [fn(y) for y in mu] == images, (f, d)
            assert verdict == (math.gcd(r, t) == 1 and sorted(images) == sorted(mu)), (f, info)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p, k", [(2, 6), (2, 8), (2, 9), (2, 16), (3, 4), (5, 2)])
def test_split_back_ends_agree(p, k, circle_spy, monkeypatch):
    # the log-table sweep against the per-point reference, the full scan and
    # the ctx-arithmetic sweep (tables forced off), at every accepted d; on
    # GF(2^16), whose tables are arrays, at d <= 257, which takes the coset
    # rule at d = q + 1 = 257
    ctx = make_field(p, k)
    assert ctx.ensure_tables()
    n1 = ctx.order - 1
    rng = random.Random(100 * p + k)
    ds = [d for d in _divisors(n1) if k < 16 or d <= 257]
    # on GF(2^16) the first splits at d = 257 only, the second at d = 85 and 255
    t0s = [_divisors(n1)[1]] if k < 16 else [n1 // 257, n1 // 85]
    vanishing = [SparsePoly(ctx, [(1, 3 + t0), (ctx.neg(1), 3)]) for t0 in t0s]  # h(1) = 0
    cases = []
    for f in _random_split_polys(ctx, rng, 8) + vanishing:
        for d in ds:
            try:
                cases.append((f, d, *zieve_split(f, d)))
            except NotFactorable:
                pass

    def sweeps():
        out = []
        for f, d, _, _ in cases:
            circle_spy.clear()
            verdict, info = zieve_verdict(f, d)
            (fn, mu), = circle_spy
            out.append((verdict, info, [fn(y) for y in mu]))
        return out

    tabled = sweeps()
    for (f, d, r, h), (verdict, info, images) in zip(cases, tabled):
        assert verdict == is_permutation(f, ctx).is_permutation, (f, d)
        naive = naive_split_map(ctx, r, h, n1 // d, d)
        assert images == [naive(y) for y in ctx.subgroup_reps(d)], (f, d)
        if f in vanishing:
            assert info["subgroup"] is False and images[0] == 0, d
    assert sum(f in vanishing for f, _, _, _ in cases) > 1
    assert {v for v, _, _ in tabled} == {True, False}
    monkeypatch.setattr(ctx, "_exp", None)
    monkeypatch.setattr("permpoly.field.TABLE_LIMIT", 1)
    assert not ctx.ensure_tables()
    assert sweeps() == tabled


# --------------------------------------------------------------------------
# log-order sweep scan against the sequential scan
# --------------------------------------------------------------------------

def _same_as_sequential(f, ctx):
    """is_permutation's report equals the sequential scan's, elapsed_ms aside,
    and the evaluator's block source, when it carries one, called once
    answers True exactly when the sequential scan finds no witness."""
    fn = f.rep_fn() if isinstance(f, (SparsePoly, fam.Form)) else f
    vr = is_permutation(fn, ctx)
    witness, evals = oracle._sequential_scan(fn, ctx.order)
    assert (vr.target, vr.is_permutation, vr.witness, vr.escape, vr.evaluations) == \
        ("field", witness is None, witness, None, evals)
    source = getattr(fn, "bijective", None)
    if source is not None:
        assert source(fn, ctx.order) is (witness is None)
    return vr


_SCANS = [  # (fid, params, block source, sequential witness)
    ("F3", {"m": 4, "c": 1}, "log_order", None),
    ("F3", {"m": 8, "c": 7}, "cosets", None),                   # array tables
    ("F1", {"m": 5, "delta": 77, "c": 1131}, "fibres", None),   # a Form on array tables
    ("F8", {"m": 8, "r": 7, "s": 3, "a": 2, "delta": 3}, "cosets", (0, 1)),  # f(0) collides
    ("F4", {"m": 8, "b": 7}, "cosets", (497, 532)),             # two cosets go into one
    ("F4", {"m": 4, "b": 7}, "cosets", (12, 18)),
    ("F12", {"p": 3, "k": 5, "step": 1, "sign": "minus", "g": ((1, 3),), "c": 2,
             "delta": 5}, "log_order", None),
    ("F5", {"m": 8, "r": 3, "i": 2, "b": 5}, "cosets", (161, 268)),  # one inside a coset
]


@pytest.mark.parametrize("fid,params,source,witness", _SCANS, ids=[
    f"{c[0]}-params{i}-{'None' if c[3] is None else f'witness{i}'}" for i, c in enumerate(_SCANS)])
def test_sweep_scan_matches_sequential(fid, params, source, witness):
    ctx = fam.family_ctx(fid, params)
    params = {k: SparsePoly(ctx, v) if k == "g" else v for k, v in params.items()}
    fn = fam.evaluator(fid, params, ctx=ctx)
    assert fn.bijective.__name__ == source
    assert _same_as_sequential(fn, ctx).witness == witness


def _column_calls(monkeypatch):
    """The (i0, count) of each ``FieldCtx._log_sweep`` call made after setup."""
    calls, inner = [], FieldCtx._log_sweep
    monkeypatch.setattr(FieldCtx, "_log_sweep",
                        lambda self, *args: calls.append(args[2:]) or inner(self, *args))
    return calls


def test_sweep_scan_collision_in_a_late_block(monkeypatch):
    # x^3 on GF(2^16): g^i and g^(i + (q-1)/3) are the first pair to collide
    # in log order, at i = 21845, so the log-order source, after f(0), marks
    # column blocks of 256, 512, ..., 4096 logs, passes eight of them and
    # answers False in the ninth, which holds log 21845
    ctx = make_field(2, 16)
    calls = _column_calls(monkeypatch)
    fn = SparsePoly(ctx, [(1, 3), (1, 0)]).rep_fn()
    assert fn.bijective.__name__ == "log_order"
    assert fn.bijective(fn, ctx.order) is False
    sizes = [256, 512, 1024, 2048, 4096, 4096, 4096, 4096, 4096]
    assert calls == list(zip(itertools.accumulate([0] + sizes[:-1]), sizes))
    assert calls[-1][0] <= 21845 < sum(calls[-1])
    assert not _same_as_sequential(fn, ctx).is_permutation


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 3), (3, 2), (2, 8)])
def test_sweep_scan_edge_cases(p, k):
    ctx = make_field(p, k)
    ctx.ensure_tables()
    q, g = ctx.order, ctx.generator
    polys = [
        SparsePoly(ctx),                                 # zero
        SparsePoly(ctx, [(g, 0)]),                       # nonzero constant
        SparsePoly(ctx, [(1, 1)]),                       # identity
        SparsePoly(ctx, [(1, q - 1)]),                   # x^(q-1): 0 and 1 only
        SparsePoly(ctx, [(1, q - 1), (g, 1)]),
        SparsePoly(ctx, [(g, 2 * q - 1), (1, 0)]),       # x^(2q-1) = x^q = x^1
        fam.Form(SparsePoly(ctx, [(1, 1), (g, 0)]), q - 1, r=1, c=1),
    ]
    assert {_same_as_sequential(f, ctx).is_permutation for f in polys} == {True, False}


def test_sweep_scan_image_out_of_range_as_sequential():
    # an evaluator compiled on GF(2^8) and scanned as a map on GF(2^4): its
    # sweep runs off the 16-entry mark array, and the sequential scan raises
    big, small = make_field(2, 8), make_field(2, 4)
    fn = SparsePoly(big, [(big.generator, 1)]).rep_fn()
    with pytest.raises(ImageOutOfRange) as seq:
        oracle._sequential_scan(fn, small.order)
    with pytest.raises(ImageOutOfRange) as exc:
        is_permutation(fn, small)
    assert (exc.value.x, exc.value.y) == (seq.value.x, seq.value.y) == (8, 24)


def _split_shaped(ctx, rng):
    """Maps x^r * h(x^t) with t >= 16, as (map, t, a): F4-like
    x^(D+1) + b*x with D = (q-1)/3 (d = 3) at every b up to GF(256), at 32
    random b above it, then random polynomials and forms c0 * x^r * core^E
    whose exponents agree mod a divisor t of q-1 (a = r + E*e0, e0 the
    least core exponent)."""
    n1, q = ctx.order - 1, ctx.order
    out = []
    if n1 % 3 == 0 and n1 // 3 >= 16:
        bs = range(q) if q <= 256 else rng.sample(range(q), 32)
        out += [(SparsePoly(ctx, [(1, n1 // 3 + 1), (b, 1)]), n1 // 3, 1) for b in bs]
    for t in [t for t in range(16, n1) if n1 % t == 0][-3:]:
        for _ in range(12):
            e0 = rng.randrange(n1)
            exps = sorted({e0} | {e0 + t * rng.randrange(1, n1 // t) for _ in range(2)})
            core = SparsePoly(ctx, [(rng.randrange(1, q), e) for e in exps])
            if rng.random() < 0.5:
                out.append((core, t, e0))
            else:
                E, r = rng.randrange(1, 6), rng.randrange(n1)
                out.append((fam.Form(core, E, r=r, c0=rng.randrange(1, q)), t, r + E * e0))
    return out


@pytest.mark.parametrize("p,k", [(2, 6), (2, 8), (2, 10), (2, 12), (3, 5), (5, 4)])
def test_coset_scan_matches_sequential_and_brute(p, k):
    # a non-permutation collides across cosets when gcd(a, t) = 1 and no
    # coset maps to 0, and inside a coset (g^j and g^(j + d*t/gcd(a, t)))
    # when gcd(a, t) > 1; every kind is met on every field
    ctx = make_field(p, k)
    ctx.ensure_tables()
    kinds = set()
    for f, t, a in _split_shaped(ctx, random.Random(100 * p + k)):
        fn = f.rep_fn()
        assert fn.bijective.__name__ == "cosets"
        vr = _same_as_sequential(fn, ctx)
        assert vr.is_permutation == brute_is_permutation(fn, ctx.order)
        zero = 0 in map(fn, range(1, ctx.order))  # a whole coset goes to 0
        kinds.add("permutation" if vr.is_permutation else "inside" if math.gcd(a, t) > 1
                  else "zero" if zero else "across")
    assert kinds >= {"permutation", "inside", "across"}


def test_block_sources_hold_no_evaluator():
    # each source takes f as its argument and closes over nothing that holds
    # f: with the collector off, dropping the one reference frees the
    # evaluator, so no compile leaves a reference cycle behind
    ctx = make_field(2, 12)
    cases = [(SparsePoly(ctx, [(1, 3), (1, 0)]), "log_order"),
             (SparsePoly(ctx, [(1, 1366), (7, 1)]), "cosets"),  # x^(D+1) + 7x
             (fam.Form(SparsePoly(ctx, [(1, 3), (1, 0)]), 2, c=1), "log_order"),
             (fam.Form(SparsePoly(ctx, [(1, 1365), (1, 0)]), 2, r=1), "cosets"),
             (fam.Form(SparsePoly(ctx, [(1, 16), (1, 1), (5, 0)]), 257, c=1), "fibres"),
             (fam.build("F2", {"m": 4, "c": 1}), "trace_fibres")]
    gc.disable()
    try:
        for f, source in cases:
            fn = f.rep_fn(4) if source == "trace_fibres" else f.rep_fn()
            assert fn.bijective.__name__ == source
            ref = weakref.ref(fn)
            del fn
            assert ref() is None, source
    finally:
        gc.enable()


@pytest.mark.parametrize("k", [8, 10, 12, 16])
def test_coset_labels_repeat_before_any_block(k, monkeypatch):
    # F4-like x^(D+1) + b*x, D = (q-1)/3, has d = 3 cosets of mu_D and a = 1;
    # with no zero among f(1), f(g), f(g^2), it fails to permute exactly when
    # two of the labels log f(g^j) mod 3 agree.  The coset source then reads
    # that head once and answers False, so the sequential scan runs at once
    # with its own report; F4 m=8 b=7 over GF(2^16) is such a map
    ctx = make_field(2, k)
    ctx.ensure_tables()
    calls = _column_calls(monkeypatch)
    n1, rng = ctx.order - 1, random.Random(k)
    bs = [7] if k == 16 else rng.sample(range(1, ctx.order), 60)
    seen = 0
    for b in bs:
        fn = SparsePoly(ctx, [(1, n1 // 3 + 1), (b, 1)]).rep_fn()
        head = [fn(ctx.pow(ctx.generator, j)) for j in range(3)]
        verdict = brute_is_permutation(fn, ctx.order)
        if 0 in head or verdict:
            continue
        seen += 1
        del calls[:]
        assert fn.bijective(fn, ctx.order) is False and calls == [(0, 3)], b
        assert _same_as_sequential(fn, ctx).is_permutation is verdict is False
    assert seen >= (1 if k == 16 else 10)
    if k == 16:  # the registry's F4 m=8 b=7 is the map at b = 7
        fn = fam.evaluator("F4", {"m": 8, "b": 7})
        del calls[:]
        assert fn.bijective(fn, ctx.order) is False and calls == [(0, 3)]
        vr = _same_as_sequential(fn, ctx)
        assert (vr.witness, vr.evaluations) == ((497, 532), 533)


# --------------------------------------------------------------------------
# fibre sweep scan against the sequential scan
# --------------------------------------------------------------------------

def _fibre_labels(fn, ctx, numbered=False):
    """(answer, values) of fn's fibres source: its answer on ctx, and the
    values it labelled, in order, through a stand-in for ``FieldCtx._linear``,
    which labels a list of values per call.  The labels are the real ones
    mod c*K, or with ``numbered`` a new number per value, so that no two
    agree."""
    values, inner, numbers = [], FieldCtx._linear, itertools.count()

    def linear(field, images):
        mu = (lambda ys: [next(numbers) for _ in ys]) if numbered else inner(field, images)

        def spy(ys):
            values.extend(ys)
            return mu(ys)
        return spy
    with unittest.mock.patch.object(FieldCtx, "_linear", linear):
        answer = fn.bijective(fn, ctx.order)
    return answer, values


def _assert_span_values(fn, form):
    """The fibres source of fn, with labels that never agree, labels f's
    values at the reps, in order, and answers True.  So the values it builds
    from spans are f's, whether or not the labels of f repeat."""
    reps = fibres_of(form)[0]
    assert _fibre_labels(fn, form.core.ctx, numbered=True) == (True, [fn(x) for x in reps])


_U3 = ((3, 0), (1, 1), (7, 2))
_U4 = ((5, 0), (1, 1), (77, 2), (1234, 3))


@pytest.mark.parametrize("fid,params,verdict", [
    ("F1", {"m": 4, "delta": 5, "c": 1}, True),        # GF(2^12), |K| = 16
    ("F1", {"m": 4, "delta": 5, "c": 2}, False),       # c outside GF(16)
    ("F1", {"m": 5, "delta": 77, "c": 1131}, True),    # GF(2^15), array tables
    ("F1", {"m": 5, "delta": 5, "c": 3}, False),
    ("F6", {"q": 16, "case": "power", "i": 1, "delta": 9, "c": 1}, True),
    ("F6", {"q": 16, "case": "power", "i": 1, "delta": 9, "c": 2}, False),
    ("F6", {"q": 16, "case": "sum", "u": _U3, "delta": 9, "c": 1}, True),
    ("F6", {"q": 16, "case": "sum", "u": _U3, "delta": 9, "c": 5}, False),
    ("F6", {"q": 32, "case": "power", "i": 3, "delta": 9, "c": 1}, True),
    ("F6", {"q": 32, "case": "power", "i": 1, "delta": 9, "c": 2}, False),
    ("F6", {"q": 32, "case": "sum", "u": _U4, "delta": 9, "c": 1130}, True),
    ("F6", {"q": 32, "case": "sum", "u": _U4, "delta": 9, "c": 2}, False),
    ("F7", {"q": 16, "case": "power", "i": 1, "delta": 9, "c": 1}, True),   # GF(2^16)
    ("F7", {"q": 16, "case": "power", "i": 1, "delta": 9, "c": 2}, False),
    ("F6", {"q": 27, "case": "power", "i": 1, "delta": 9, "c": 1}, True),   # GF(3^9)
    ("F6", {"q": 27, "case": "sum", "u": _U3, "delta": 9, "c": 5}, False),
])
def test_fibre_scan_matches_sequential(fid, params, verdict):
    ctx = fam.family_ctx(fid, params)
    params = {k: SparsePoly(ctx, v) if k == "u" else v for k, v in params.items()}
    fn = fam.evaluator(fid, params, ctx=ctx)
    assert fn.bijective.__name__ == "fibres"
    spec = fam.family(fid)
    _assert_span_values(fn, spec.form(ctx, fam._validate(spec, ctx, params)))
    assert _same_as_sequential(fn, ctx).is_permutation == verdict


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_fibre_scan_f12_gf625(sign):
    # f(x) = g(x^25 -/+ x + delta) + c*x over GF(5^4), step 2, |K| = 25:
    # DeltaFamily maps for c in GF(25)*, forms for c = 0 (f is constant on
    # each fibre, and the fibres answer False at once) and for c drawn from the
    # whole field; g = x with c = -/+1 is x^25 + delta, a permutation, and
    # random g mostly are not
    ctx = make_field(5, 4)
    rng = random.Random(625 + len(sign))
    xc = 1 if sign == "plus" else ctx.neg(1)
    gs = [SparsePoly(ctx, [(1, 1)])] + [
        SparsePoly(ctx, [(rng.randrange(ctx.order), d) for d in range(5)]) for _ in range(5)]
    verdicts = []
    for g in gs:
        for c in (ctx.sub(0, xc), 1, 0, rng.randrange(1, ctx.order)):
            delta = rng.randrange(ctx.order)
            if c and ctx.subfield_test(c, 2):
                form = transform_pair(g, c, 2, sign)[0].form(delta)
            else:
                form = fam.Form(SparsePoly(ctx, [(1, 25), (xc, 1), (delta, 0)]), u=g, c=c)
            fn = form.rep_fn()
            assert fn.bijective.__name__ == "fibres" and len(fibres_of(form)[1]) == 25
            if c:
                _assert_span_values(fn, form)
            else:
                assert _fibre_labels(fn, ctx) == (False, [])
            verdicts.append(_same_as_sequential(fn, ctx).is_permutation)
    assert True in verdicts and False in verdicts


def test_fibre_labels_stop_before_any_block():
    # F1 m=4 with c = 0 sends each fibre to one image, so the fibres answer
    # False before labelling any value; with c = 2 outside GF(16), the labels
    # of reps 2 and 20, in the first chunk of 64 reps, agree, and they answer
    # False after that chunk; the sequential scan then gives the report
    ctx = make_field(2, 12)
    core = SparsePoly(ctx, [(1, 16), (1, 1), (5, 0)])
    reps = fibres_of(fam.Form(core, 257, c=1))[0]
    for fn, labelled in ((fam.Form(core, 257).rep_fn(), 0),
                         (fam.evaluator("F1", {"m": 4, "delta": 5, "c": 2}), 64)):
        assert fn.bijective.__name__ == "fibres"
        assert _fibre_labels(fn, ctx) == (False, [fn(x) for x in reps[:labelled]])
        assert not _same_as_sequential(fn, ctx).is_permutation


def test_fibre_scan_collision_in_a_late_fibre():
    # f(x) = x + a*[x^16 + x = 0] over GF(2^12): a form with c = 1 and
    # u(w) = a + a*w^(q-1), which is a at w = 0 and 0 elsewhere.  It sends
    # K = GF(16), the fibre of the first rep 0, onto a + K, the fibre of a,
    # and every other fibre onto itself.  With a the last of the 256 reps,
    # the labels of the first and the last fibre are the one pair that
    # agrees: the fibres label the chunks of reps 0..63, 64..127 and
    # 128..255, and answer False in the last
    ctx = make_field(2, 12)
    core = SparsePoly(ctx, [(1, 16), (1, 1)])
    reps, shifts = fibres_of(fam.Form(core, c=1))
    a = reps[-1]
    form = fam.Form(core, u=SparsePoly(ctx, [(a, 0), (a, ctx.order - 1)]), c=1)
    fn = form.rep_fn()
    assert fn.bijective.__name__ == "fibres" and fibres_of(form) == (reps, shifts)
    assert [fn(x) for x in reps] == [a] + reps[1:]
    assert _fibre_labels(fn, ctx) == (False, [fn(x) for x in reps])
    _assert_span_values(fn, form)
    assert not _same_as_sequential(fn, ctx).is_permutation
    # a source that answers False on a bijection proves nothing: the
    # sequential scan runs from 0 and gives its own report; the fibres call no f
    fn = fam.evaluator("F1", {"m": 4, "delta": 5, "c": 1})
    calls = []
    spy = lambda x: calls.append(x) or fn(x)  # noqa: E731
    assert fn.bijective(spy, ctx.order) is True and calls == []
    spy.bijective = lambda f, q: False
    vr = is_permutation(spy, ctx)
    assert (vr.is_permutation, vr.evaluations) == (True, ctx.order)
    assert calls == list(range(ctx.order))


def test_fibre_scan_needs_no_tables(monkeypatch):
    # F1 m=4 over GF(2^12), and x^25 + x + 3 + c*x over GF(5^4), with their
    # tables off: the untabled evaluators carry fibres, whose values come
    # from spans through ctx arithmetic and whose labels from digits in odd
    # characteristic, and the scan takes them, with the sequential scan's
    # report; c = -1 leaves x^25 + 3, and with c = 3, x^25 - x has the kernel mu_24
    monkeypatch.setattr("permpoly.field.TABLE_LIMIT", 1)
    for (p, k), terms, E, cs in (((2, 12), [(1, 16), (1, 1), (5, 0)], 257, (1, 2)),
                                 ((5, 4), [(1, 25), (1, 1), (3, 0)], 1, (4, 3))):
        base = make_field(p, k)
        ctx = FieldCtx(p, k, base.modulus, base.generator)
        for c, verdict in zip(cs, (True, False)):
            form = fam.Form(SparsePoly(ctx, terms), E, c=c)
            fn = form.rep_fn()
            assert fn.bijective.__name__ == "fibres" and not hasattr(fn, "sweep")
            _assert_span_values(fn, form)
            assert _same_as_sequential(fn, ctx).is_permutation == verdict
        assert ctx._exp is None


# --------------------------------------------------------------------------
# F2 by its trace fibres: T(f(x)) = c*T(x), T the trace onto GF(2^m)
# --------------------------------------------------------------------------

def _f2_scalars(ctx, m):
    """F2's c over GF(2^3m): every c up to GF(2^9), GF(16)* and 24 random c
    over GF(2^12), and 1, 11, 844 over GF(2^15) (11 lies outside GF(32))."""
    if m <= 3:
        return range(1, ctx.order)
    if m == 4:
        return ctx.subfield_reps(4)[1:] + random.Random(4).sample(range(1, ctx.order), 24)
    return [1, 11, 844]


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "untabled"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_trace_fibres_match_sequential(m, tabled, monkeypatch):
    # the claim is proven exactly for c in GF(2^m), where the source's answer
    # equals the sequential scan; any other c keeps log order (no source on
    # a fresh context with TABLE_LIMIT = 1, where f is eval_rep)
    ctx = fam.family_ctx("F2", {"m": m})
    sub = set(ctx.subfield_reps(m))
    if not tabled:
        monkeypatch.setattr("permpoly.field.TABLE_LIMIT", 1)
        ctx = FieldCtx(2, 3 * m, ctx.modulus, ctx.generator)
    verdicts = set()
    for c in _f2_scalars(ctx, m):
        fn = fam.evaluator("F2", {"m": m, "c": c}, ctx=ctx)
        source = getattr(fn, "bijective", None)
        assert getattr(source, "__name__", None) == (
            "trace_fibres" if c in sub else "log_order" if tabled else None), c
        verdicts.add(_same_as_sequential(fn, ctx).is_permutation)
        if c in sub:
            assert source(fn, ctx.order // 2) is False  # q is not the order
    assert verdicts == {True, False}
    assert (ctx._exp is not None) == tabled


def test_trace_fibres_zero_scale_answers_false():
    # the literal F2 with c = 0 satisfies T(f(x)) = 0*T(x): the proof holds
    # with s = 0, so f lands in ker T, and the source answers False without
    # calling f; the sequential scan gives the witness
    for m in (2, 3, 5):
        ctx = fam.family_ctx("F2", {"m": m})
        e = (1 << 2 * m) + 1
        fn = SparsePoly(ctx, [(1, (1 << m) * e), (1, e)]).rep_fn(m)
        calls = []
        assert fn.bijective.__name__ == "trace_fibres"
        assert fn.bijective(lambda x: calls.append(x) or fn(x), ctx.order) is False
        assert calls == []
        assert not _same_as_sequential(fn, ctx).is_permutation


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_trace_fibre_images_from_spans(m, monkeypatch):
    # the images A(b) + B(x0, b) the source builds from spans are the
    # evaluated f(x0 + b) + f(x0), at every rep x0 in the span of the
    # complement and every basis vector b of K = ker T, and K is ker T; for
    # F2 and for F2 plus a constant in ker T, so that f(0) != 0
    ctx = fam.family_ctx("F2", {"m": m})
    c = ctx.subfield_reps(m)[-1]
    delta = next(v for v in range(1, ctx.order) if ctx.rel_trace(v, m) == 0)
    splits, spans = [], []
    split, span = FieldCtx._kernel_split, FieldCtx._span
    monkeypatch.setattr(FieldCtx, "_kernel_split",
                        lambda self, images: splits.append(split(self, images)) or splits[-1])
    monkeypatch.setattr(FieldCtx, "_span",
                        lambda self, basis, origin=0: spans.append(span(self, basis, origin))
                        or spans[-1])
    for const in (0, delta):
        del splits[:], spans[:]
        fn = (fam.build("F2", {"m": m, "c": c}, ctx=ctx) + SparsePoly.constant(ctx, const)).rep_fn(m)
        assert fn(0) == const and fn.bijective.__name__ == "trace_fibres"
        (kernel, complement), = splits
        assert len(kernel) == 2 * m and len(complement) == m
        assert all(ctx.rel_trace(b, m) == 0 for b in kernel)
        assert fn.bijective(fn, ctx.order) is True
        reps = span(ctx, complement)
        assert spans == [[fn(x ^ b) ^ fn(x) for x in reps] for b in kernel]


def test_trace_proof_refuses_each_failed_check():
    # each of the four checks alone refuses the claim: a source is proven,
    # never assumed.  Over GF(2^6): the F2 claim with d = 2 does not divide 6;
    # x^(2q-1) equals x on the field (so T(f) = T), but its exponent has
    # weight 7; 28*x^12 + 11*x^33 satisfies T(f(x)) = 0 for T onto GF(8), but
    # its polar form does not vanish on ker T, so it keeps its coset source;
    # odd characteristic is refused
    ctx = make_field(2, 6)
    x = SparsePoly.x(ctx)
    assert ctx._trace_fibres(x._terms, 3, x.eval_rep) is not None
    assert ctx._trace_fibres(x._terms, 4, x.eval_rep) is None
    wide = SparsePoly(ctx, [(1, 2 * ctx.order - 1)])
    assert all(wide.eval_rep(v) == v for v in range(ctx.order))
    assert ctx._trace_fibres(wide._terms, 6, wide.eval_rep) is None
    polar = SparsePoly(ctx, [(28, 12), (11, 33)])
    assert all(ctx.rel_trace(polar.eval_rep(v), 3) == 0 for v in range(ctx.order))
    assert ctx._trace_fibres(polar._terms, 3, polar.eval_rep) is None
    assert polar.rep_fn(3).bijective.__name__ == polar.rep_fn().bijective.__name__ == "cosets"
    odd = make_field(3, 3)
    y = SparsePoly.x(odd)
    assert odd._trace_fibres(y._terms, 1, y.eval_rep) is None
