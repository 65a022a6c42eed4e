"""Ground-truth exhaustive verification of permutation behavior.

Maps are accepted as :class:`SparsePoly` or as callables on integer reps, so
composition closures verify without formal expansion, and by
:func:`permutes_subset` as the list of their values in subset order too.  A
polynomial is compiled once per scan (:meth:`SparsePoly.rep_fn`).  A compiled
evaluator f may carry a block source ``f.bijective``: ``bijective(f, q)`` is
True exactly when q is the order of f's field and f's q images are distinct
and in [0, q).  The fibres of an affine core and the cosets of a split answer
by labels that tell the images of their blocks apart (Akbary-Ghioca-Wang,
Zieve), the fibres of a proven trace identity by a rank check on each fibre,
the log order by marking every image.  A split-shaped form or literal
polynomial gets the cosets on every field.  When it answers False, or f has
none, the sequential scan from 0 gives the report.  :func:`zieve_verdict`
reads the labelling that the cosets read without tables,
``FieldCtx._mu_labels``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import BadSubset, CtxMismatch, ImageOutOfRange, NotADivisor, NotFactorable
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


def _as_rep_fn(f, ctx):
    if isinstance(f, SparsePoly):
        if f.ctx is not ctx:
            raise CtxMismatch("polynomial from a different field context")
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
    """Exhaustively test whether f is a bijection of the whole field.

    When f carries a block source that answers True, f is a bijection, with
    q evaluations.  Otherwise the sequential scan from 0 runs, so the
    witness and the evaluation count are always the sequential scan's.
    """
    fn = _as_rep_fn(f, ctx)
    ctx.ensure_tables()
    start = time.perf_counter()
    bijective = getattr(fn, "bijective", None)
    if bijective is not None and bijective(fn, ctx.order):
        witness, evals = None, ctx.order
    else:
        witness, evals = _sequential_scan(fn, ctx.order)
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerifyReport("field", witness is None, witness, None, evals, elapsed)


def permutes_subset(f, subset, ctx: FieldCtx) -> VerifyReport:
    """Test whether f maps ``subset`` into itself bijectively.

    f is a map or a list of its values in subset order.  Closure under f is
    not assumed: an image outside the subset is itself a failure, reported
    through ``escape``.  A subset that repeats a rep or holds one outside
    [0, order) raises :class:`BadSubset` before any evaluation, as does a
    list of another length, and a :class:`FieldElem` of another field
    :class:`CtxMismatch`.  Elements are read as their reps, converted only
    when a pass over the types finds one.  A list whose values are the
    subset's is a bijection, with one evaluation per element.  Otherwise one
    walk in subset order reads f once per element and stops at the first
    escape or repeat, so an exception f raises before that propagates.
    """
    fn = _as_rep_fn(f, ctx)
    listed = isinstance(fn, list)
    ctx.ensure_tables()
    reps = list(subset)
    if any(issubclass(kind, FieldElem) for kind in set(map(type, reps))):
        reps = [ctx._rep(s) if isinstance(s, FieldElem) else s for s in reps]
    member = set(reps)
    if len(member) != len(reps) or reps and not 0 <= min(reps) <= max(reps) < ctx.order:
        raise BadSubset(f"subset reps must be distinct and in [0, {ctx.order})")
    if listed and len(fn) != len(reps):
        raise BadSubset(f"{len(fn)} values for a subset of {len(reps)}")
    start = time.perf_counter()
    seen, witness, escape, evals = {}, None, None, len(reps)
    if not listed or set(fn) != member:
        for evals, (x, y) in enumerate(zip(reps, fn if listed else map(fn, reps)), 1):
            if y not in member:
                escape = (x, y)
                break
            if y in seen:
                witness = (seen[y], x)
                break
            seen[y] = x
    elapsed = (time.perf_counter() - start) * 1000.0
    ok = witness is None and escape is None
    return VerifyReport(f"subset[{len(reps)}]", ok, witness, escape, evals, elapsed)


# ---------------------------------------------------------------------------
# multiplicative (Zieve) splitting: f(x) = x^r * h(x^((q-1)/d))
# ---------------------------------------------------------------------------

def zieve_split(f: SparsePoly, d: int) -> tuple[int, SparsePoly]:
    """Split f as x^r * h(x^t) with t = (q-1)/d.

    r is the minimal exponent of f; every exponent must be congruent to r
    mod t, otherwise :class:`NotFactorable` is raised.
    """
    ctx, terms = f.ctx, f._terms
    n1 = ctx.order - 1
    if d < 1 or n1 % d:
        raise NotADivisor(f"{d} does not divide {n1}")
    if not terms:
        raise NotFactorable("zero polynomial has no split")
    t = n1 // d
    r = terms[0][0]
    for e, _ in terms:
        if (e - r) % t:
            raise NotFactorable(f"exponents {e} and {r} differ mod {t}")
    # e -> (e - r) / t keeps the exponents distinct and ascending
    return r, SparsePoly._raw(ctx, [((e - r) // t, c) for e, c in terms])


def zieve_verdict(f: SparsePoly, d: int | None = None) -> tuple[bool, dict]:
    """Permutation verdict through the two split conditions.

    Returns (verdict, details) where verdict is True iff gcd(r, (q-1)/d) == 1
    and y^r * h(y)^((q-1)/d) permutes the order-d subgroup.  A given d that
    does not divide q - 1 raises :class:`NotADivisor`, for any f.  The split
    is taken of f - f(0), which is a bijection exactly when f is; a constant
    f is no bijection, and its details carry no split.  One pass sums the
    terms by exponent mod q - 1, as on GF(q)*, and keeps sums that cancel, so
    the natural step (``ctx._split_step`` of the residues) is the formal one;
    a d whose t does not divide it raises zieve_split's :class:`NotFactorable`.

    h(y)^t lies in mu_d, so w^j maps to ``mu[(j*r + label[h(w^j)]) % d]``:
    ``ctx._mu_labels``, the labelling Zieve's coset check reads without
    tables, gives h on mu_d from the residues, r the least formal exponent,
    and the label of each distinct nonzero value.  A zero of h sends its
    point to 0, out of mu_d, an escape.  :func:`permutes_subset` takes the
    list of images in mu's order, so its witness, escape and evaluation
    count are the per-point sweep's.
    """
    ctx = f.ctx
    n1 = ctx.order - 1
    if d is not None and (d < 1 or n1 % d):
        raise NotADivisor(f"{d} does not divide {n1}")
    terms = f._terms
    if terms and terms[0][0] == 0:
        terms = terms[1:]  # f - f(0)
    if not terms:
        return False, {"d": d, "r": None, "t": None, "coprime": False,
                       "subgroup": False}
    r, add, residues = terms[0][0], ctx._sum, {}
    for e, c in terms:
        e %= n1
        residues[e] = add(residues.get(e, 0), c)
    step = ctx._split_step(list(residues.items()))
    d = n1 // step if d is None else d
    t = n1 // d
    if step % t:
        zieve_split(SparsePoly._raw(ctx, terms), d)  # raises NotFactorable
    coprime = math.gcd(r, t) == 1
    mu = ctx._subgroup_index(d)[0]
    vals, label = ctx._mu_labels([(e, c) for e, c in residues.items() if c], r, d)
    images = [mu[(j * r + label[v]) % d] if v else 0 for j, v in enumerate(vals)]  # 0: an escape
    sub = permutes_subset(images, mu, ctx)
    verdict = coprime and sub.is_permutation
    return verdict, {"d": d, "r": r, "t": t, "coprime": coprime,
                     "subgroup": sub.is_permutation}
