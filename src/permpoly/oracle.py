"""Ground-truth exhaustive verification of permutation behavior.

Maps are accepted either as :class:`SparsePoly` or as plain callables on
integer reps, so composition closures verify without formal expansion.  A
polynomial is compiled once per scan (:meth:`SparsePoly.rep_fn`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import ImageOutOfRange, NotADivisor, NotFactorable
from .field import FieldCtx, FieldElem, SparsePoly


@dataclass
class VerifyReport:
    """Outcome of an exhaustive bijection check.

    ``witness`` is a rep pair (x1, x2), x1 != x2, with equal images when the
    map is not injective; ``escape`` is a rep pair (x, f(x)) when a subset
    map leaves the subset.  ``evaluations`` equals the target size whenever
    the map verifies as a permutation.
    """

    target: str
    is_permutation: bool
    witness: tuple[int, int] | None
    escape: tuple[int, int] | None
    evaluations: int
    elapsed_ms: float


def _as_rep_fn(f):
    if isinstance(f, SparsePoly):
        return f.rep_fn()
    return f


def _sequential_scan(fn, order):
    """First-collision scan in ascending rep order."""
    seen = bytearray(order)
    for x in range(order):
        y = fn(x)
        if not 0 <= y < order:
            raise ImageOutOfRange(x, y, order)
        if seen[y]:
            for x1 in range(x):
                if fn(x1) == y:
                    return (x1, x), x + 1
            raise AssertionError("collision vanished on rescan")
        seen[y] = 1
    return None, order


def is_permutation(f, ctx: FieldCtx) -> VerifyReport:
    """Exhaustively test whether f is a bijection of the whole field."""
    fn = _as_rep_fn(f)
    ctx.ensure_tables()
    start = time.perf_counter()
    witness, evals = _sequential_scan(fn, ctx.order)
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerifyReport("field", witness is None, witness, None, evals, elapsed)


def permutes_subset(f, subset, ctx: FieldCtx) -> VerifyReport:
    """Test whether f maps ``subset`` into itself bijectively.

    Closure under f is not assumed: an image outside the subset is itself a
    failure, reported through ``escape``.
    """
    fn = _as_rep_fn(f)
    ctx.ensure_tables()
    reps = [s.rep if isinstance(s, FieldElem) else s for s in subset]
    member = set(reps)
    start = time.perf_counter()
    seen = {}
    witness = None
    escape = None
    evals = 0
    for x in reps:
        y = fn(x)
        evals += 1
        if y not in member:
            escape = (x, y)
            break
        if y in seen:
            witness = (seen[y], x)
            break
        seen[y] = x
    elapsed = (time.perf_counter() - start) * 1000.0
    ok = witness is None and escape is None
    if ok:
        evals = len(reps)
    return VerifyReport(f"subset[{len(reps)}]", ok, witness, escape, evals, elapsed)


# ---------------------------------------------------------------------------
# multiplicative-coset (Zieve) splitting: f(x) = x^r * h(x^((q-1)/d))
# ---------------------------------------------------------------------------

def zieve_split(f: SparsePoly, d: int) -> tuple[int, SparsePoly]:
    """Split f as x^r * h(x^t) with t = (q-1)/d.

    r is the minimal exponent of f; every exponent must be congruent to r
    mod t, otherwise :class:`NotFactorable` is raised.
    """
    ctx = f.ctx
    n1 = ctx.order - 1
    if d < 1 or n1 % d:
        raise NotADivisor(f"{d} does not divide {n1}")
    pairs = f.term_pairs()
    if not pairs:
        raise NotFactorable("zero polynomial has no split")
    t = n1 // d
    r = pairs[0][1]
    if t == 1:
        return r, SparsePoly(ctx, [(c, e - r) for c, e in pairs])
    for _, e in pairs:
        if (e - r) % t:
            raise NotFactorable(f"exponents {e} and {r} differ mod {t}")
    return r, SparsePoly(ctx, [(c, (e - r) // t) for c, e in pairs])


def natural_divisor(f: SparsePoly) -> int:
    """Largest-step split divisor: d = (q-1)/gcd(q-1, exponent differences)."""
    n1 = f.ctx.order - 1
    pairs = f.term_pairs()
    if not pairs:
        raise NotFactorable("zero polynomial has no split")
    t = n1
    e0 = pairs[0][1]
    for _, e in pairs[1:]:
        t = math.gcd(t, e - e0)
    return n1 // t if t else 1


def _drop_constant(f: SparsePoly) -> SparsePoly:
    """f - f(0), which is a bijection exactly when f is."""
    pairs = f.term_pairs()
    if pairs and pairs[0][1] == 0:
        return SparsePoly(f.ctx, pairs[1:])
    return f


def zieve_verdict(f: SparsePoly, d: int | None = None) -> tuple[bool, dict]:
    """Permutation verdict through the two split conditions.

    Returns (verdict, details) where verdict is True iff gcd(r, (q-1)/d) == 1
    and y^r * h(y)^((q-1)/d) permutes the order-d subgroup.  The split is
    taken of f - f(0); a constant f is no bijection, and its details carry
    no split.

    The subgroup is swept by index: point j is w^j with w = g^t, so every
    power y^e is the lookup ``mu[j * e % d]`` and h(y)^t is the only general
    power a point costs.
    """
    ctx = f.ctx
    f = _drop_constant(f)
    if f.is_zero():
        return False, {"d": d, "r": None, "t": None, "coprime": False,
                       "subgroup": False}
    if d is None:
        d = natural_divisor(f)
    r, h = zieve_split(f, d)
    n1 = ctx.order - 1
    t = n1 // d
    coprime = math.gcd(r, t) == 1
    mu = ctx.subgroup_reps(d)
    index = {y: j for j, y in enumerate(mu)}
    terms = h.reduce_exponents(d).term_pairs()

    def on_circle(y):
        j = index[y]
        acc = 0
        for c, e in terms:
            v = mu[j * e % d]
            acc = ctx.add(acc, v if c == 1 else ctx.mul(c, v))
        return ctx.mul(mu[j * r % d], ctx.pow(acc, t))

    sub = permutes_subset(on_circle, mu, ctx)
    verdict = coprime and sub.is_permutation
    return verdict, {"d": d, "r": r, "t": t, "coprime": coprime,
                     "subgroup": sub.is_permutation}
