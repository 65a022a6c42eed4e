"""Decision procedures for the equation shapes the family conditions need.

Each solver returns an explicit root set (or a bijectivity verdict) together
with a certificate naming the branch that fired, so condition/oracle
mismatches can be traced.  The exhaustive test suite cross-checks every
solver against brute-force enumeration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CtxMismatch, DivisionByZero, HypothesisUnmet, ZeroCoefficient
from .field import FieldCtx, FieldElem


class RootKind(enum.Enum):
    NO_ROOT = "no-root"
    UNIQUE = "unique"
    TWO_ROOTS = "two-roots"
    SUBFIELD_MANY = "subfield-many"


@dataclass(frozen=True)
class RootReport:
    kind: RootKind
    roots: tuple[FieldElem, ...]
    certificate: str

    def root_reps(self) -> tuple[int, ...]:
        return tuple(r.rep for r in self.roots)


def _shared_ctx(*elems) -> FieldCtx:
    ctx = elems[0].ctx
    for e in elems[1:]:
        ctx._rep(e)  # CtxMismatch for an element of another field
    return ctx


def _require_char2(ctx, where):
    if ctx.p != 2:
        raise ValueError(f"{where} requires characteristic 2, got p={ctx.p}")


def _half_trace(ctx, w):
    # k odd: y with y^2 + y = w + Tr(w); exact solution when Tr(w) = 0
    acc = w
    cur = w
    for _ in range((ctx.k - 1) // 2):
        cur = ctx.pow(cur, 4)
        acc = ctx.add(acc, cur)
    return acc


def solve_artin_schreier(ctx: FieldCtx, w: int) -> int | None:
    """Least y with y^2 + y = w, or None when the trace obstruction is set."""
    _require_char2(ctx, "solve_artin_schreier")
    if ctx.rel_trace(w, 1, ctx.k) != 0:
        return None
    if ctx.k % 2:
        y = _half_trace(ctx, w)
        return min(y, ctx.add(y, 1))
    return ctx.artin_schreier_table()[w]


def quad_char2_roots(u: FieldElem, v: FieldElem) -> RootReport:
    """Roots in GF(2^k) of x^2 + u*x + v.

    For u != 0 the equation has two roots exactly when the absolute trace of
    v/u^2 vanishes; roots come from the half-trace (odd k) or a cached
    image table (even k).  u = 0 degenerates to the Frobenius square root.
    """
    ctx = _shared_ctx(u, v)
    _require_char2(ctx, "quad_char2_roots")
    if u.rep == 0:
        r = ctx.pow(v.rep, 1 << (ctx.k - 1))
        assert ctx.mul(r, r) == v.rep
        return RootReport(RootKind.UNIQUE, (ctx.elem(r),), "degenerate-square-root")
    w = ctx.div(v.rep, ctx.mul(u.rep, u.rep))
    y = solve_artin_schreier(ctx, w)
    if y is None:
        return RootReport(RootKind.NO_ROOT, (), "trace-nonzero")
    x1 = ctx.mul(u.rep, y)
    x2 = ctx.add(x1, u.rep)
    for x in (x1, x2):
        assert ctx.add(ctx.add(ctx.mul(x, x), ctx.mul(u.rep, x)), v.rep) == 0
    roots = tuple(ctx.elem(r) for r in sorted((x1, x2)))
    cert = "trace-zero-half-trace" if ctx.k % 2 else "trace-zero-table"
    return RootReport(RootKind.TWO_ROOTS, roots, cert)


def unit_circle_quad(a: FieldElem, b: FieldElem, m: int) -> RootReport:
    """Roots of x^2 + a*x + b inside the order-(2^m + 1) subgroup of GF(2^2m).

    Standing hypothesis: a, b nonzero and the absolute trace of b/a^2
    vanishes (so the quadratic splits over the field); otherwise
    :class:`HypothesisUnmet`.  The branch classification follows the
    two-condition circle criterion; the returned roots are the solved roots
    filtered by membership, so reports stay substitution-exact.
    """
    ctx = _shared_ctx(a, b)
    _require_char2(ctx, "unit_circle_quad")
    if ctx.k != 2 * m:
        raise CtxMismatch(f"expected GF(2^{2 * m}), context has degree {ctx.k}")
    if a.rep == 0 or b.rep == 0:
        raise HypothesisUnmet("a and b must be nonzero")
    asq = ctx.mul(a.rep, a.rep)
    if ctx.rel_trace(ctx.div(b.rep, asq), 1, 2 * m) != 0:
        raise HypothesisUnmet("absolute trace of b/a^2 must vanish")
    Q = 1 << m
    boundary = ctx.div(a.rep, ctx.pow(a.rep, Q))  # a^(1-Q)
    if b.rep == boundary:
        tr = ctx.rel_trace(ctx.div(1, ctx.pow(a.rep, Q + 1)), 1, m)
        branch = "both-in-circle" if tr == 1 else "none-in-circle"
    else:
        nb = ctx.pow(b.rep, Q + 1)
        na = ctx.pow(a.rep, Q + 1)
        prod = ctx.mul(ctx.add(1, nb), ctx.add(ctx.add(1, na), nb))
        cross = ctx.add(ctx.mul(asq, ctx.pow(b.rep, Q)),
                        ctx.mul(ctx.pow(a.rep, 2 * Q), b.rep))
        branch = "one-in-circle" if ctx.add(prod, cross) == 0 else "none-in-circle"
    solved = quad_char2_roots(a, b)
    circle = tuple(x for x in solved.roots if ctx.pow(x.rep, Q + 1) == 1)
    kind = {0: RootKind.NO_ROOT, 1: RootKind.UNIQUE, 2: RootKind.TWO_ROOTS}[len(circle)]
    return RootReport(kind, circle, branch)


def frobenius_affine_candidate(a: FieldElem, b: FieldElem, m: int) -> FieldElem:
    """The single solution candidate of x^(2^m) + a*x + b = 0 over GF(2^3m).

    Defined whenever a^(2^2m + 2^m + 1) != 1; raises otherwise.
    """
    ctx = _shared_ctx(a, b)
    Q = 1 << m
    A = ctx.pow(a.rep, Q * Q + Q + 1)
    if A == 1:
        raise DivisionByZero("candidate undefined: a has unit relative norm")
    num = _affine_numerator(ctx, a.rep, b.rep, Q)
    return ctx.elem(ctx.div(num, ctx.add(A, 1)))


def _affine_numerator(ctx, a, b, Q):
    return ctx.add(ctx.add(ctx.mul(ctx.pow(a, Q * Q), ctx.pow(b, Q)),
                           ctx.mul(ctx.pow(a, Q * Q + Q), b)),
                   ctx.pow(b, Q * Q))


def affine_frobenius_roots(a: FieldElem, b: FieldElem, m: int) -> RootReport:
    """Root set of x^(2^m) + a*x + b = 0 over GF(2^3m).

    Trichotomy on A = a^(2^2m + 2^m + 1): A != 1 gives at most the single
    candidate (substituted back, so it may still be rejected); A = 1 with
    vanishing numerator gives exactly 2^m roots forming a coset offset;
    otherwise there is no root.
    """
    ctx = _shared_ctx(a, b)
    _require_char2(ctx, "affine_frobenius_roots")
    if ctx.k != 3 * m:
        raise CtxMismatch(f"expected GF(2^{3 * m}), context has degree {ctx.k}")
    if a.rep == 0 or b.rep == 0:
        raise ZeroCoefficient("a and b must be nonzero")
    Q = 1 << m
    T = Q * Q + Q + 1
    A = ctx.pow(a.rep, T)
    num = _affine_numerator(ctx, a.rep, b.rep, Q)

    def satisfies(x):
        return ctx.add(ctx.add(ctx.pow(x, Q), ctx.mul(a.rep, x)), b.rep) == 0

    if A != 1:
        x0 = ctx.div(num, ctx.add(A, 1))
        if satisfies(x0):
            return RootReport(RootKind.UNIQUE, (ctx.elem(x0),), "resolvent-root")
        return RootReport(RootKind.NO_ROOT, (), "resolvent-rejected")
    if num != 0:
        return RootReport(RootKind.NO_ROOT, (), "inconsistent-system")
    x0 = ctx.mul(ctx.pow(a.rep, Q * Q), ctx.pow(b.rep, Q))
    c0 = _power_equation_solution(ctx, Q - 1, a.rep)
    roots = {x0}
    for z in ctx.subgroup_reps(Q - 1):
        roots.add(ctx.add(ctx.mul(c0, z), x0))
    assert len(roots) == Q
    assert all(satisfies(r) for r in roots)
    return RootReport(RootKind.SUBFIELD_MANY,
                      tuple(ctx.elem(r) for r in sorted(roots)), "kernel-coset")


def _power_equation_solution(ctx, e, target):
    """Some c with c**e == target; e divides the unit group order."""
    t = ctx.dlog(target)
    assert t % e == 0, "power equation unsolvable"
    return ctx.pow(ctx.generator, t // e)


def linearized_bijective(a: FieldElem, b: FieldElem, m: int) -> bool:
    """True iff L(x) = a*x + b*x^q + x^(q^2), q = 2^m, has only the root 0.

    Uses the norm-form criterion with u = a^q / b^(q+1): L is bijective on
    GF(q^3) exactly when 1 + N(b)*(u^(q^2) + u^q + u + 1) + N(a) != 0.
    """
    ctx = _shared_ctx(a, b)
    _require_char2(ctx, "linearized_bijective")
    if ctx.k != 3 * m:
        raise CtxMismatch(f"expected GF(2^{3 * m}), context has degree {ctx.k}")
    if a.rep == 0 or b.rep == 0:
        raise ZeroCoefficient("a and b must be nonzero")
    q = 1 << m
    u = ctx.div(ctx.pow(a.rep, q), ctx.pow(b.rep, q + 1))
    na = ctx.norm(a.rep, m)
    nb = ctx.norm(b.rep, m)
    s = ctx.add(ctx.add(ctx.pow(u, q * q), ctx.pow(u, q)), ctx.add(u, 1))
    return ctx.add(ctx.add(1, ctx.mul(nb, s)), na) != 0
