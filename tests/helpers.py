"""Independent reference implementations shared by the test modules.

Everything here deliberately avoids the library's fast paths: evaluation is
repeated multiplication through the table-free ``_mul_raw``, with no exponent
reduction, so oracle equivalence checks exercise two genuinely different
routes.
"""


def naive_eval(ctx, pairs, x):
    """Per-term power-and-sum evaluation; pairs = ((coeff_rep, exp), ...)."""
    total = 0
    for coeff, exp in pairs:
        term = coeff
        for _ in range(exp):
            term = ctx._mul_raw(term, x)
        total = ctx.add(total, term)
    return total


def raw_pow(ctx, x, e):
    """x^e by square-and-multiply over ``_mul_raw``: no tables, no reduction.

    For exponents in the thousands, where ``naive_eval``'s repeated
    multiplication is too slow for a full-field sweep.
    """
    result = 1
    while e:
        if e & 1:
            result = ctx._mul_raw(result, x)
        x = ctx._mul_raw(x, x)
        e >>= 1
    return result


def raw_eval(ctx, poly, x):
    """poly(x) term by term over ``raw_pow``, exponents unreduced (0**0 == 1)."""
    total = 0
    for c, e in poly.term_pairs():
        total = ctx.add(total, ctx._mul_raw(c, raw_pow(ctx, x, e)))
    return total


def naive_split_map(ctx, r, h, t, d):
    """The split's subgroup map y -> y^r * h(y)^t, point by point over ``raw_pow``.

    Exponents are folded mod d, which is exact on the order-d subgroup; every
    power is computed from y itself, with no index arithmetic.
    """
    def fn(y):
        acc = 0
        for c, e in h.term_pairs():
            acc = ctx.add(acc, ctx._mul_raw(c, raw_pow(ctx, y, e % d)))
        return ctx._mul_raw(raw_pow(ctx, y, r % d), raw_pow(ctx, acc, t))
    return fn


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


def brute_is_permutation(fn, order):
    """Set-cardinality bijection test, independent of the oracle module."""
    return len({fn(x) for x in range(order)}) == order
