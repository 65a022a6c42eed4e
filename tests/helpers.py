"""Independent reference implementations shared by the test modules.

Everything here deliberately avoids the library's fast paths: evaluation is
repeated multiplication through ``raw_mul`` (a bit-serial shift-and-add in
characteristic 2, independent of the library's table-driven kernel), with no
exponent reduction, and sums are taken digit by digit (``raw_add``;
``ctx.add`` runs through Zech logs in odd characteristic), so oracle
equivalence checks exercise two genuinely different routes.
"""

import itertools
from functools import lru_cache

from permpoly.families import Clause, ConditionReport


@lru_cache(maxsize=None)
def _mod_mask(modulus):
    """The bit mask of a GF(2) modulus given as coefficients, index = degree."""
    return sum(1 << i for i, c in enumerate(modulus) if c)


def raw_mul(ctx, a, b):
    """a * b with no tables: shift and add for p = 2, reduced by the mask of
    ``ctx.modulus``; odd p uses ``ctx._mul_raw``'s digit convolution."""
    if ctx.p != 2:
        return ctx._mul_raw(a, b)
    mod = _mod_mask(ctx.modulus)
    kbit = 1 << ctx.k
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & kbit:
            a ^= mod
    return acc


def raw_add(ctx, a, b):
    """a + b coefficient by coefficient over ``decode``/``encode``: no tables."""
    return ctx.encode([x + y for x, y in zip(ctx.decode(a), ctx.decode(b))])


def naive_eval(ctx, pairs, x):
    """Per-term power-and-sum evaluation; pairs = ((coeff_rep, exp), ...)."""
    total = 0
    for coeff, exp in pairs:
        term = coeff
        for _ in range(exp):
            term = raw_mul(ctx, term, x)
        total = raw_add(ctx, total, term)
    return total


def raw_pow(ctx, x, e):
    """x^e by square-and-multiply over ``raw_mul``: no tables, no reduction.

    For exponents in the thousands, where ``naive_eval``'s repeated
    multiplication is too slow for a full-field sweep.
    """
    result = 1
    while e:
        if e & 1:
            result = raw_mul(ctx, result, x)
        x = raw_mul(ctx, x, x)
        e >>= 1
    return result


def raw_eval(ctx, poly, x):
    """poly(x) term by term over ``raw_pow``, exponents unreduced (0**0 == 1)."""
    total = 0
    for c, e in poly.term_pairs():
        total = raw_add(ctx, total, raw_mul(ctx, c, raw_pow(ctx, x, e)))
    return total


def naive_product(ctx, a, b):
    """a * b for two lists of (coeff_rep, exp) pairs: one ``raw_mul`` per pair
    of terms and ``raw_add`` into each sum.  The product's pairs, exponent
    ascending, zero sums dropped."""
    acc = {}
    for c1, e1 in a:
        for c2, e2 in b:
            acc[e1 + e2] = raw_add(ctx, acc.get(e1 + e2, 0), raw_mul(ctx, c1, c2))
    return tuple((c, e) for e, c in sorted(acc.items()) if c)


def naive_power(ctx, pairs, e, shift=0, scale=1):
    """scale * x^shift * f^e by square-and-multiply over ``naive_product``, f
    given by its (coeff_rep, exp) pairs (0**0 == 1)."""
    result, square = (((scale, shift),) if scale else ()), tuple(pairs)
    while e:
        if e & 1:
            result = naive_product(ctx, result, square)
        e >>= 1
        if e:
            square = naive_product(ctx, square, square)
    return result


def naive_split_map(ctx, r, h, t, d):
    """The split's subgroup map y -> y^r * h(y)^t, point by point over ``raw_pow``.

    Exponents are folded mod d, which is exact on the order-d subgroup, and
    the coefficients of each folded exponent summed by ``raw_add`` first, so
    a large expansion costs one power per nonzero sum; every power is
    computed from y itself, with no index arithmetic.
    """
    sums = {}
    for c, e in h.term_pairs():
        sums[e % d] = raw_add(ctx, sums.get(e % d, 0), c)
    terms = [(e, c) for e, c in sums.items() if c]

    def fn(y):
        acc = 0
        for e, c in terms:
            acc = raw_add(ctx, acc, raw_mul(ctx, c, raw_pow(ctx, y, e)))
        return raw_mul(ctx, raw_pow(ctx, y, r % d), raw_pow(ctx, acc, t))
    return fn


def naive_mu_sweep(ctx, terms, d):
    """[sum(c * y^e) for y = w^j, j < d], w = g^((q-1)/d), point by point:
    y walks by ``raw_mul`` from 1, each power is a ``raw_pow`` of y itself
    and the terms are summed by ``raw_add``, with no index arithmetic."""
    w = raw_pow(ctx, ctx.generator, (ctx.order - 1) // d)
    out, y = [], 1
    for _ in range(d):
        acc = 0
        for e, c in terms:
            acc = raw_add(ctx, acc, raw_mul(ctx, c, raw_pow(ctx, y, e)))
        out.append(acc)
        y = raw_mul(ctx, y, w)
    return out


def brute_quad_roots(ctx, u, v):
    """All x with x^2 + u*x + v == 0, by field enumeration."""
    return sorted(x for x in range(ctx.order)
                  if ctx.add(ctx.add(ctx.mul(x, x), ctx.mul(u, x)), v) == 0)


def brute_affine_roots(ctx, a, b, m):
    """All x with x^(2^m) + a*x + b == 0, by field enumeration."""
    Q = 1 << m
    return sorted(x for x in range(ctx.order)
                  if ctx.add(ctx.add(ctx.pow(x, Q), ctx.mul(a, x)), b) == 0)


def linearized_kernel(ctx, a, b, m):
    """All x with a*x + b*x^q + x^(q^2) == 0, q = 2^m."""
    q = 1 << m
    return [x for x in range(ctx.order)
            if ctx.add(ctx.add(ctx.mul(a, x), ctx.mul(b, ctx.pow(x, q))),
                       ctx.pow(x, q * q)) == 0]


def log_order_points(ctx):
    """g^i for 0 <= i < q-1, by repeated products with the generator."""
    out, x = [], 1
    for _ in range(ctx.order - 1):
        out.append(x)
        x = ctx.mul(x, ctx.generator)
    return out


def swept(fn, n1, blocks=(1, 7, 300, 4096)):
    """``fn.sweep`` over the logs 0..n1-1 in blocks of cycling sizes."""
    out, i = [], 0
    for b in itertools.cycle(blocks):
        if i >= n1:
            return out
        out += fn.sweep(i, min(b, n1 - i))
        i += b


def fibres_of(form):
    """(reps, shifts) of a form with fibres: the span of the complement
    ``Form._fibres()`` gives, one rep per fibre x + K in the order the
    fibres source labels them, and c*K, K the kernel of the core's linear
    part lam."""
    ctx = form.core.ctx
    lam, complement = form._fibres()
    kernel = ctx._kernel_split(lam([ctx.p ** i for i in range(ctx.k)]))[0]
    return ctx._span(complement), ctx._span([ctx.mul(form.c, v) for v in kernel])


def brute_is_permutation(fn, order):
    """Set-cardinality bijection test, independent of the oracle module."""
    return len({fn(x) for x in range(order)}) == order


def naive_f4_report(ctx, b):
    """F4's condition report from the three image sets themselves.

    V_i is the image of the coset g^i<g^3> under x -> x^(D+1) + bx, D =
    (q-1)/3, built element by element with ``ctx`` products (table lookups
    once the field has tables, for speed); two sets overlap when their
    intersection is nonempty, and the witness is its least rep.
    """
    n1 = ctx.order - 1
    D = n1 // 3
    g3 = ctx.pow(ctx.generator, 3)
    vsets = []
    for i in range(3):
        factor = ctx.add(ctx.pow(ctx.generator, D * i), b)
        cur = ctx.pow(ctx.generator, 3 + i)
        out = set()
        for _ in range(D):
            out.add(ctx.mul(cur, factor))
            cur = ctx.mul(cur, g3)
        vsets.append(out)
    hit = [s for s in range(3) if ctx.pow(ctx.generator, D * s) == b]
    overlap = next(((i, j, min(vsets[i] & vsets[j])) for i in range(3)
                    for j in range(i + 1, 3) if vsets[i] & vsets[j]), None)
    return ConditionReport((
        Clause("zero-image-avoided", not hit, f"b = g^{D * hit[0]}" if hit else ""),
        Clause("coset-images-disjoint", overlap is None,
               "V{} and V{} share rep {}".format(*overlap) if overlap else ""),
    ))
