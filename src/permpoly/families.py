"""Registry of the twelve permutation-polynomial constructions F1..F12.

Each entry bundles a field shape, a parameter schema, a condition predicate
(evaluated clause by clause, totally: every schema-valid assignment yields
pass or fail), and the family's formula, stated once as its form.  The form
of F1 and F6..F12 is one shared :class:`Form`, c0 * x^r * G(core(x)) + c*x;
F2..F5 use their literal polynomial.  :func:`evaluator` compiles either
without formal expansion (``rep_fn``): a form is its core's ``SparsePoly``
evaluator followed by the outer map, swept in the log domain on tabled
fields, and :func:`build` expands the form into the literal polynomial with
arbitrary-precision exponents (:meth:`Form.expand`).

Family ids and parameter names are a stable CLI/JSON contract.  Condition
clauses mirror each construction's published hypotheses verbatim; where a
hypothesis disagrees with exhaustive verification the oracle arbitrates and
the disagreement is surfaced, not patched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial, reduce

from . import solvers
from .errors import (
    BadDegrees,
    BadSubfieldConstant,
    CtxMismatch,
    EnumerationTooLarge,
    FieldShapeMismatch,
    SchemaMismatch,
    SizeLimitExceeded,
)
from .field import (
    _ORBIT_MIN, DEFAULT_SIZE_LIMIT, FieldCtx, FieldElem, SparsePoly, _strided, make_field)

DEFAULT_ENUM_CAP = 1 << 20


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ConditionReport:
    clauses: tuple[Clause, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def passed_except(self, *skip: str) -> bool:
        return all(c.passed for c in self.clauses if c.name not in skip)

    def clause(self, name: str) -> Clause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.clauses if not c.passed)


# ---------------------------------------------------------------------------
# parameter schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str                 # "int" | "element" | "poly" | "choice"
    nonzero: bool = False     # element domain excludes 0
    minimum: int | None = None
    choices: tuple[str, ...] = ()
    optional: bool = False


@dataclass(frozen=True)
class FamilySpec:
    fid: str
    summary: str
    formula: str              # display form; doubles as the report anchor
    shape: tuple[str, ...]    # which params fix the field
    field_for: object         # params -> (p, k)
    params: tuple[ParamSpec, ...]
    condition: object         # (ctx, params) -> ConditionReport
    form: object              # (ctx, params) -> Form or SparsePoly
    notes: str = ""           # prose only: no compiler hint (F2's trace is found by proof)

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)


def _prime_power(q: int) -> tuple[int, int]:
    """q = p^e with p prime; FieldShapeMismatch otherwise.

    q above the size limit is refused before factoring (SizeLimitExceeded).
    """
    if q < 2:
        raise FieldShapeMismatch(f"{q} is not a prime power")
    if q > DEFAULT_SIZE_LIMIT:
        raise SizeLimitExceeded(f"q = {q} exceeds limit {DEFAULT_SIZE_LIMIT}")
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    e, t = 0, q
    while t % p == 0:
        t //= p
        e += 1
    if t != 1:
        raise FieldShapeMismatch(f"{q} is not a prime power")
    return p, e


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def _validate(spec: FamilySpec, ctx: FieldCtx, raw: dict) -> dict:
    """Normalize raw params against the schema; SchemaMismatch on violation."""
    known = {p.name for p in spec.params}
    unknown = set(raw) - known
    if unknown:
        raise SchemaMismatch(f"{spec.fid}: unknown parameter(s) {sorted(unknown)}")
    out = {}
    for ps in spec.params:
        if ps.name not in raw:
            if ps.optional:
                continue
            raise SchemaMismatch(f"{spec.fid}: missing parameter '{ps.name}'")
        v = raw[ps.name]
        if ps.kind == "int":
            if not isinstance(v, int) or isinstance(v, bool):
                raise SchemaMismatch(f"{spec.fid}: '{ps.name}' must be an integer")
            if ps.minimum is not None and v < ps.minimum:
                raise SchemaMismatch(
                    f"{spec.fid}: '{ps.name}' must be >= {ps.minimum}, got {v}")
        elif ps.kind == "element":
            if isinstance(v, FieldElem):
                if v.ctx is not ctx:
                    raise SchemaMismatch(f"{spec.fid}: '{ps.name}' from wrong field")
                v = v.rep
            if not isinstance(v, int) or not 0 <= v < ctx.order:
                raise SchemaMismatch(f"{spec.fid}: '{ps.name}' is not a field element")
            if ps.nonzero and v == 0:
                raise SchemaMismatch(f"{spec.fid}: '{ps.name}' must be nonzero")
        elif ps.kind == "poly":
            if not isinstance(v, SparsePoly) or v.ctx is not ctx:
                raise SchemaMismatch(f"{spec.fid}: '{ps.name}' must be a polynomial "
                                     "over the family's field")
        elif ps.kind == "choice":
            if v not in ps.choices:
                raise SchemaMismatch(
                    f"{spec.fid}: '{ps.name}' must be one of {ps.choices}, got {v!r}")
        out[ps.name] = v
    # each case of the two-case families needs one of u, i and refuses the other
    if "case" in out:
        need, unused = ("u", "i") if out["case"] == "sum" else ("i", "u")
        if need not in out:
            raise SchemaMismatch(f"{spec.fid}: case '{out['case']}' requires '{need}'")
        if unused in out:
            raise SchemaMismatch(f"{spec.fid}: case '{out['case']}' takes no '{unused}'")
    return out


# ---------------------------------------------------------------------------
# clause helpers
# ---------------------------------------------------------------------------

def _gcd_clause(name, x, y):
    g = math.gcd(x, y)
    return Clause(name, g == 1, f"gcd={g}")


def _subfield_star_clause(ctx, name, rep, m):
    if rep == 0:
        return Clause(name, False, "zero")
    ok = ctx.subfield_test(rep, m)
    return Clause(name, ok, f"rep={rep}" + ("" if ok else f" outside GF({ctx.p}^{m})"))


# ---------------------------------------------------------------------------
# the form: one statement of a family's formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Form:
    """The form f(x) = c0 * x^r * G(core(x)) + c*x: ``rep_fn`` evaluates it,
    ``expand`` gives its literal polynomial.

    G(y) = (w + w^q + ... + w^(q^(n-1)))^E with w = u(y).  ``u`` = None
    stands for u(y) = y, so G is the power y^E; with a sparse polynomial u
    over the core's field and n = 1, G is u^E; n > 1 gives the q-power sum
    of u, q a power of p.  ``c0`` is a nonzero element, ``c`` an element,
    E >= 1 and r >= 0; a form outside that domain raises ValueError
    (CtxMismatch for u) when made.
    """

    core: SparsePoly
    E: int = 1
    u: SparsePoly | None = None
    n: int = 1
    q: int = 1
    r: int = 0
    c0: int = 1
    c: int = 0

    def __post_init__(self):
        ctx = self.core.ctx
        if self.E < 1 or self.r < 0 or not 0 < self.c0 < ctx.order or not 0 <= self.c < ctx.order:
            raise ValueError(f"need E >= 1, r >= 0, c0 nonzero and c an element, got "
                             f"E = {self.E}, r = {self.r}, c0 = {self.c0}, c = {self.c}")
        if self.n > 1 and (self.q < 1 or ctx.p ** round(math.log(self.q, ctx.p)) != self.q):
            raise ValueError(f"q = {self.q} is not a power of p = {ctx.p}")
        if self.u is not None and self.u.ctx is not ctx:
            raise CtxMismatch("u from a different context than the core")

    def expand(self) -> SparsePoly:
        """The literal polynomial of the form, every exponent expanded.

        Steps that are no-ops (E = 1, r = 0, c0 = 1, c = 0) are skipped, so
        c0 * x^r * core^E is one ``pow_charp``, whose product starts from the
        monomial c0 * x^r.
        """
        g = self.core
        ctx = g.ctx
        if self.u is not None:
            w = g = self.u.compose(g)
            e = round(math.log(self.q, ctx.p))  # q = p^e: conjugates are Frobenius powers
            for j in range(1, self.n):
                g = g + w.frobenius_power(e * j)
        if (self.E, self.r, self.c0) != (1, 0, 1):
            g = g.pow_charp(self.E, shift=self.r, scale=self.c0)
        if self.c:
            g = g + SparsePoly(ctx, [(self.c, 1)])
        return g

    def rep_fn(self):
        """Rep-level evaluator: the core's point function, then the outer map.

        ``f(x)`` takes w = core(x) and gives c0 * x^r * G(w) + c*x through
        ``ctx`` arithmetic, on every field.  On a tabled field
        ``f.sweep(i0, count)`` gives f(g^i) for i0 <= i < i0 + count: w from
        the core's ``_log_sweep``, then exp[log c0 + r*i + E*log G(w)] per
        value, and ``_add_columns`` adds the column exp[log c + i].  Untabled,
        no sweep.  The core, and u, are compiled by ``SparsePoly._point_fn``
        (``eval_rep`` untabled), with no block source of their own.

        ``f.bijective(f, q)`` is True exactly when f is a bijection of the
        field, of order q.  With r = 0 and an affine core whose linear part
        has a kernel K of at least 16 elements, on every field, the source is
        ``fibres``: f(x + k) = f(x) + c*k for k in K, so f maps the fibres
        x + K onto cosets of c*K, and it is a bijection exactly when c != 0
        and f's values at the reps, taken from spans with no call of f, have
        distinct labels mod c*K (``_fibres``).  Else, when ``u`` is None,
        c = 0 (so f = c0 * x^r * core^E) and the core's exponents split with
        t = gcd(q-1, e - e0) >= 16, on every field, ``cosets``: Zieve's check
        of the core's head (``FieldCtx._cosets``).  Otherwise, on a tabled
        field, ``log_order`` (``FieldCtx._log_order``); untabled, none.
        """
        core, ctx = self.core, self.core.ctx
        E, r, c0, c = self.E, self.r, self.c0, self.c
        qpows = [self.q ** j for j in range(1, self.n)]
        add, tabled = ctx._sum, ctx.ensure_tables()
        u = None if self.u is None else self.u._point_fn()[0] if tabled else self.u.eval_rep
        if tabled:
            core_fn, k0, kterms = core._point_fn()
            core_sweep = partial(ctx._log_sweep, k0, kterms)
        else:
            core_fn, core_sweep = core.eval_rep, None

        def point(w, x=1):  # c0 * x^r * G(w): the steps of ``expand``, each no-op skipped
            if u is not None:
                w = u(w)
                w = reduce(ctx.add, [ctx.pow(w, e) for e in qpows], w)
            v = ctx.pow(w, E) if E != 1 else w
            return ctx.mul(ctx.mul(c0, ctx.pow(x, r)), v) if r or c0 != 1 else v

        f0 = None

        def f(x):
            if x == 0 and f0 is not None:
                return f0
            v = point(core_fn(x), x)
            return ctx.add(v, ctx.mul(c, x)) if c else v
        f0 = f(0)  # once per compile: each scan starts at 0

        if tabled:
            exp, log, n1 = ctx._exp, ctx._log, ctx.order - 1
            lc0, lc = log[c0], log[c]
            lq = [e % n1 for e in qpows]

            def outer(ws, i0=0):  # c0 * x^r * G(w) at x = g^i, i0 <= i
                if u is not None:
                    ws = base = list(map(u, ws))
                    for e in lq:
                        ws = list(map(add, ws, [exp[log[w] * e % n1] if w else 0 for w in base]))
                return [exp[(a + log[w] * E) % n1] if w else 0
                        for a, w in zip(itertools.count(lc0 + i0 * r, r), ws)]

            def columns(i0, count):  # holds no f (``FieldCtx._log_order``)
                vs = outer(core_sweep(i0, count), i0)
                return ctx._add_columns([vs, _strided(exp, lc + i0, 1, count)]) if c else vs
            f.sweep = columns
        else:
            def outer(ws):  # r = 0: only the fibres map a list
                return list(map(point, ws))

        if split := self._fibres():
            lam, complement = split
            k0, p = core_fn(0), ctx.p

            def fibres(f, q):  # calls no f: its values at the reps from spans
                if not c or q != ctx.order:
                    return False
                cinv = ctx.inv(c)
                mu = ctx._linear(lam([ctx.mul(cinv, p ** i) for i in range(ctx.k)]))
                cores = ctx._span(lam(complement), k0)
                scaled = ctx._span([ctx.mul(c, b) for b in complement])
                seen, lo, hi = set(), 0, 64
                while lo < len(cores):  # mu(f(x)) = mu(f(x')) iff the fibres meet
                    seen.update(mu(list(map(add, outer(cores[lo:hi]), scaled[lo:hi]))))
                    if len(seen) < min(hi, len(cores)):
                        return False
                    lo, hi = hi, 2 * hi
                return True
            f.bijective = fibres
        elif u is None and not c and (cosets := ctx._cosets(core._terms, r, E, core_sweep)):
            f.bijective = cosets
        elif tabled:
            f.bijective = ctx._log_order(columns)
        return f

    def _fibres(self):
        """(lam, complement) of the fibres, or None.

        With r = 0 and every nonconstant core exponent a power of p, core =
        k0 + lam with lam GF(p)-linear, so f(x + k) = f(x) + c*k for every k
        in K = ker lam, whatever u, n, E and c0 are.  ``lam`` is that map on
        lists of reps (``FieldCtx._linear``) and ``complement`` digit basis
        vectors p^i spanning a complement of K, whose span gives the reps, one
        per fibre x + K.  None when |K| < _ORBIT_MIN; a largest exponent below it
        (|K| is at most the degree of lam) rules that out before any linear
        algebra.
        """
        ctx = self.core.ctx
        p = ctx.p
        rest = [t for t in self.core._terms if t[0]]
        if self.r or not rest or rest[-1][0] < _ORBIT_MIN or any(
                p ** round(math.log(e, p)) != e for e, _ in rest):
            return None
        lam = SparsePoly._raw(ctx, rest).eval_rep
        images = [lam(p ** i) for i in range(ctx.k)]
        complement = ctx._kernel_split(images)[1]
        if p ** (ctx.k - len(complement)) < _ORBIT_MIN:
            return None
        return ctx._linear(images), complement


# ---------------------------------------------------------------------------
# field shapes of the characteristic-2 families: GF(2^2m) and GF(2^3m)
# ---------------------------------------------------------------------------

def _gf2_2m(params):
    return 2, 2 * params["m"]


def _gf2_3m(params):
    return 2, 3 * params["m"]


# ---------------------------------------------------------------------------
# F1, F2: twisted additive-shift compositions over GF(2^3m)
# ---------------------------------------------------------------------------

def _f1_condition(ctx, p):
    return ConditionReport((_subfield_star_clause(ctx, "scale-in-base-field",
                                                  p["c"], p["m"]),))


def _f1_form(ctx, p):
    m = p["m"]
    inner = SparsePoly(ctx, [(1, 1 << m), (1, 1), (p["delta"], 0)])
    return Form(inner, (1 << (2 * m)) + 1, c=p["c"])


def _f2_form(ctx, p):
    m = p["m"]
    e = (1 << (2 * m)) + 1
    return SparsePoly(ctx, [(1, (1 << m) * e), (1, e), (p["c"], 1)])


# ---------------------------------------------------------------------------
# F3: scaled trinomial over GF(2^2m), exponent (q^2+q+1)/3
# ---------------------------------------------------------------------------

def _f3_condition(ctx, p):
    m, c = p["m"], p["c"]
    q = 1 << m
    cong = Clause("cube-congruence", q % 3 == 1, f"q={q} mod 3 = {q % 3}")
    tr = ctx.rel_trace(ctx.pow(c, q + 1), 1, m)
    return ConditionReport((cong, Clause("norm-trace-zero", tr == 0, f"trace={tr}")))


def _f3_exponent(m):
    q = 1 << m
    if q % 3 != 1:
        raise FieldShapeMismatch(f"need 2^m = 1 mod 3 (even m), got m={m}")
    return (q * q + q + 1) // 3


def _f3_form(ctx, p):
    m, c = p["m"], p["c"]
    s = _f3_exponent(m)
    q = 1 << m
    return SparsePoly(ctx, [(c, 1), (1, s), (ctx.pow(c, q), q * s)])


# ---------------------------------------------------------------------------
# F4: binomial x^((q-1)/3 + 1) + b x over GF(2^2m); condition is an iff
# ---------------------------------------------------------------------------

def _f4_condition(ctx, p):
    """Both clauses of F4's iff, by the index-3 coset labels.

    x -> x^(D+1) + bx sends the coset g^i<g^3> onto V_i = y_i<g^3>, with
    y_i = (g^(Di) + b) g^i and D = (q-1)/3, and V_i = {0} when y_i = 0.  Two
    cosets of <g^3> meet exactly when they are equal, so V_i and V_j share a
    rep iff y_i^D = y_j^D; the least shared rep is the least x with x^D equal
    to that label, and a third of the field has each nonzero label.
    """
    b, g = p["b"], ctx.generator
    D = (ctx.order - 1) // 3
    hit = [s for s in range(3) if ctx.pow(g, D * s) == b]
    zero_clause = Clause("zero-image-avoided", not hit,
                         f"b = g^{D * hit[0]}" if hit else "")
    label = [ctx.pow(ctx.mul(ctx.add(ctx.pow(g, D * i), b), ctx.pow(g, i)), D)
             for i in range(3)]
    pair = next(((i, j) for i, j in ((0, 1), (0, 2), (1, 2))
                 if label[i] == label[j]), None)
    witness = ""
    if pair:
        least = next(x for x in range(ctx.order) if ctx.pow(x, D) == label[pair[0]])
        witness = f"V{pair[0]} and V{pair[1]} share rep {least}"
    disj = Clause("coset-images-disjoint", pair is None, witness)
    return ConditionReport((zero_clause, disj))


def _f4_form(ctx, p):
    D = (ctx.order - 1) // 3
    return SparsePoly(ctx, [(1, D + 1), (p["b"], 1)])


# ---------------------------------------------------------------------------
# F5: binomial x^(i(2^m-1)+r) + b x^r over GF(2^2m)
# ---------------------------------------------------------------------------

def _f5_condition(ctx, p):
    m, r, i, b = p["m"], p["r"], p["i"], p["b"]
    qm = 1 << m
    n1 = ctx.order - 1
    g = math.gcd(i * (qm - 1), n1)
    ord_pow = ctx.pow(b, n1 // g)
    return ConditionReport((
        _gcd_clause("difference-coprime", r - i, qm + 1),
        _gcd_clause("exponent-coprime", r, i * (qm - 1)),
        Clause("image-order", ord_pow != 1, f"b^{n1 // g}={ord_pow}"),
        Clause("circle-membership", ctx.pow(b, qm + 1) == 1,
               f"b^{qm + 1}={ctx.pow(b, qm + 1)}"),
    ))


def _f5_form(ctx, p):
    m, r, i, b = p["m"], p["r"], p["i"], p["b"]
    return SparsePoly(ctx, [(1, i * ((1 << m) - 1) + r), (b, r)])


# ---------------------------------------------------------------------------
# F6, F7: compositions g(x^q -/+ x + delta) + c x over GF(q^3) / GF(q^4)
# ---------------------------------------------------------------------------

def _f6_field(params):
    p, e = _prime_power(params["q"])
    return p, 3 * e


def _f7_field(params):
    p, e = _prime_power(params["q"])
    return p, 4 * e


def _base_degree(ctx, q):
    if q > ctx.order:
        raise FieldShapeMismatch(f"q={q} exceeds the order of GF({ctx.p}^{ctx.k})")
    p, e = _prime_power(q)
    if p != ctx.p or ctx.k % e:
        raise FieldShapeMismatch(f"q={q} incompatible with GF({ctx.p}^{ctx.k})")
    return e


def _f6_condition(ctx, p):
    e = _base_degree(ctx, p["q"])
    return ConditionReport((_subfield_star_clause(ctx, "scale-in-base-field",
                                                  p["c"], e),))


def _shift_form(ctx, p, sign, n, c0=1):
    """c0 * G(x^q + sign*x + delta) + c*x: G is the n-term q-power sum of u,
    or y^E with E = i(q^(n-1) + ... + q + 1)."""
    q = p["q"]
    inner = SparsePoly(ctx, [(1, q), (sign, 1), (p["delta"], 0)])
    if p["case"] == "sum":
        return Form(inner, u=p["u"], n=n, q=q, c0=c0, c=p["c"])
    return Form(inner, p["i"] * sum(q ** j for j in range(n)), c0=c0, c=p["c"])


def _f6_form(ctx, p):
    return _shift_form(ctx, p, ctx.neg(1), 3)


def default_twist_scalar(ctx: FieldCtx, q: int) -> int:
    """Least-rep nonzero c0 with c0^q + c0 = 0.

    In characteristic 2 this is 1; in odd characteristic the least solution
    of c0^(q-1) = -1, which never lies in GF(q) itself.
    """
    if ctx.p == 2:
        return 1
    minus_one = ctx.neg(1)
    e = _base_degree(ctx, q)
    for c0 in range(1, ctx.order):
        if ctx.pow(c0, q - 1) == minus_one:
            assert not ctx.subfield_test(c0, e)
            return c0
    raise AssertionError("no twist scalar found")


def _f7_condition(ctx, p):
    q = p["q"]
    e = _base_degree(ctx, q)
    c0 = p.get("c0", default_twist_scalar(ctx, q))
    ok = c0 != 0 and ctx.add(ctx.pow(c0, q), c0) == 0
    return ConditionReport((
        _subfield_star_clause(ctx, "scale-in-base-field", p["c"], e),
        Clause("twist-scalar", ok, f"c0={c0}"),
    ))


def _f7_form(ctx, p):
    c0 = p.get("c0", default_twist_scalar(ctx, p["q"]))
    return _shift_form(ctx, p, 1, 4, c0)


# ---------------------------------------------------------------------------
# F8..F11: x^r * (sparse linearized core)^(big power)
# ---------------------------------------------------------------------------

def _f8_condition(ctx, p):
    m, r, s, a, delta = p["m"], p["r"], p["s"], p["a"], p["delta"]
    Q = 1 << m
    clauses = [Clause("shape-power", s > 1, f"s={s}"),
               _gcd_clause("r-coprime", r, ctx.order - 1)]
    W = ctx.add(ctx.add(ctx.pow(a, Q + 1), ctx.pow(delta, Q + 1)), 1)
    if W == 0:
        clauses.append(Clause("ratio-defined", False, "denominator zero"))
        clauses.append(Clause("circle-trace-zero", False, "undefined"))
    else:
        clauses.append(Clause("ratio-defined", True))
        arg = ctx.div(ctx.mul(ctx.pow(a, Q + 1), ctx.pow(delta, Q + 1)),
                      ctx.mul(W, W))
        tr = ctx.rel_trace(arg, 1, m)
        clauses.append(Clause("circle-trace-zero", tr == 0, f"trace={tr}"))
    return ConditionReport(tuple(clauses))


def _f8_form(ctx, p):
    s, a, delta = p["s"], p["a"], p["delta"]
    Q = 1 << p["m"]
    core = SparsePoly(ctx, [(1, s * (Q - 1)), (a, Q - 1), (delta, 0)])
    return Form(core, Q + 1, r=p["r"])


def _f9_condition(ctx, p):
    m, r, s, a, delta = p["m"], p["r"], p["s"], p["a"], p["delta"]
    sub_a = _subfield_star_clause(ctx, "a-in-subfield", a, m)
    sub_d = _subfield_star_clause(ctx, "delta-in-subfield", delta, m)
    if sub_a.passed and sub_d.passed:
        tr = ctx.rel_trace(ctx.div(ctx.pow(a, 3), delta), 1, m)
        trace = Clause("cube-ratio-trace-one", tr == 1, f"trace={tr}")
    else:
        trace = Clause("cube-ratio-trace-one", False, "operands outside subfield")
    return ConditionReport((_gcd_clause("r-coprime", r, ctx.order - 1),
                            sub_a, sub_d, trace))


def _f9_form(ctx, p):
    s, a, delta = p["s"], p["a"], p["delta"]
    Q = 1 << p["m"]
    core = SparsePoly(ctx, [(1, (Q // 2) * (Q + 1)), (a, Q + 1), (delta, 0)])
    return Form(core, s * (Q - 1), r=p["r"])


def _f10_condition(ctx, p):
    m, r, s, a, b = p["m"], p["r"], p["s"], p["a"], p["b"]
    Q = 1 << m
    T = Q * Q + Q + 1
    A = ctx.pow(a, T)
    if A != 1:
        cand = solvers.frobenius_affine_candidate(ctx.elem(a), ctx.elem(b), m)
        ok = ctx.pow(cand.rep, T) != 1
        branch = Clause("circle-zero-free", ok,
                        f"case i: candidate rep {cand.rep}"
                        + ("" if ok else f" lies in mu_{T}"))
    else:
        num = solvers._affine_numerator(ctx, a, b, Q)
        branch = Clause("circle-zero-free", num != 0,
                        f"case ii: numerator rep {num}")
    return ConditionReport((_gcd_clause("r-coprime", r, ctx.order - 1), branch))


def _f10_form(ctx, p):
    s, a, b = p["s"], p["a"], p["b"]
    Q = 1 << p["m"]
    core = SparsePoly(ctx, [(1, Q * (Q - 1)), (a, Q - 1), (b, 0)])
    return Form(core, s * (Q * Q + Q + 1), r=p["r"])


def _f11_condition(ctx, p):
    m, r, s, a, b, delta = p["m"], p["r"], p["s"], p["a"], p["b"], p["delta"]
    Q = 1 << m
    clauses = [_gcd_clause("r-coprime", r, ctx.order - 1),
               _gcd_clause("three-coprime", 3, Q - 1)]
    ssum = ctx.add(ctx.add(a, b), 1)
    clauses.append(Clause("sum-nonzero", ssum != 0, f"a+b+1 rep {ssum}"))
    if ssum == 0:
        clauses.append(Clause("shift-ratio-subfield", False, "undefined"))
    else:
        ratio = ctx.div(ctx.add(delta, 1), ssum)
        clauses.append(_subfield_star_clause(ctx, "shift-ratio-subfield", ratio, m))
    total = ctx.add(ssum, delta)
    clauses.append(Clause("total-sum-nonzero", total != 0, f"a+b+delta+1 rep {total}"))
    clauses.append(Clause("linear-part-bijective",
                          solvers.linearized_bijective(ctx.elem(a), ctx.elem(b), m),
                          ""))
    return ConditionReport(tuple(clauses))


def _f11_form(ctx, p):
    s, a, b, delta = p["s"], p["a"], p["b"], p["delta"]
    Q = 1 << p["m"]
    core = SparsePoly(ctx, [(1, Q * Q * (Q - 1)), (b, Q * (Q - 1)), (a, Q - 1), (delta, 0)])
    return Form(core, s * (Q * Q + Q + 1), r=p["r"])


# ---------------------------------------------------------------------------
# F12: the additive-shift transform pair (property-test machinery)
# ---------------------------------------------------------------------------

class DeltaFamily:
    """The delta-indexed side of the transform: delta -> g(x^(q^step) -/+ x + delta) + c x."""

    def __init__(self, g: SparsePoly, c: int, step: int, sign: str, base_degree: int):
        self.g = g
        self.ctx = g.ctx
        self.c = c
        self.step = step
        self.sign = sign
        self.base_degree = base_degree
        self._qk = self.ctx.p ** (base_degree * step)

    def form(self, delta) -> Form:
        """f_delta as a form: G = g, core = x^(q^step) -/+ x + delta.

        ``form(delta).expand()`` is its literal polynomial (may be large).
        """
        ctx = self.ctx
        delta = ctx._rep(delta)
        xc = 1 if self.sign == "plus" else ctx.neg(1)
        return Form(SparsePoly(ctx, [(1, self._qk), (xc, 1), (delta, 0)]), u=self.g, c=self.c)

    def map(self, delta):
        """Rep-level evaluator of f_delta: ``form(delta).rep_fn()``."""
        return self.form(delta).rep_fn()


def transform_pair(g: SparsePoly, c, step: int, sign: str = "minus",
                   *, base_degree: int = 1) -> tuple[DeltaFamily, SparsePoly]:
    """Both sides of the additive-shift equivalence.

    Returns the delta-indexed family f_delta(x) = g(x^(q^step) -/+ x + delta) + c x
    and the companion h(x) = g(x)^(q^step) -/+ g(x) + c x, where q = p^base_degree:
    f_delta permutes the field for every delta exactly when h does.
    """
    ctx = g.ctx
    c = ctx._rep(c)
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    e = base_degree
    if e < 1 or ctx.k % e:
        raise BadDegrees(f"base degree {e} does not divide {ctx.k}")
    m_ext = ctx.k // e
    if not 0 < step < m_ext:
        raise BadDegrees(f"need 0 < step < {m_ext}, got {step}")
    ell = math.gcd(step, m_ext)
    if c == 0 or not ctx.subfield_test(c, e * ell):
        raise BadSubfieldConstant(
            f"constant must lie in GF({ctx.p}^{e * ell})*, got rep {c}")
    gk = g.frobenius_power(e * step)
    h = (gk - g if sign == "minus" else gk + g) + SparsePoly(ctx, [(c, 1)])
    return DeltaFamily(g, c, step, sign, e), h


def _f12_field(params):
    return params["p"], params["k"]


def _f12_condition(ctx, p):
    step = p["step"]
    ok_deg = 0 < step < ctx.k
    clauses = [Clause("step-range", ok_deg, f"step={step}, degree={ctx.k}")]
    if ok_deg:
        ell = math.gcd(step, ctx.k)
        clauses.append(_subfield_star_clause(ctx, "scale-in-fixed-subfield",
                                             p["c"], ell))
    else:
        clauses.append(Clause("scale-in-fixed-subfield", False, "skipped"))
    return ConditionReport(tuple(clauses))


def _f12_form(ctx, p):
    fam, _ = transform_pair(p["g"], p["c"], p["step"], p["sign"])
    return fam.form(p["delta"])


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _int(name, minimum=1):
    return ParamSpec(name, "int", minimum=minimum)


def _elem(name, nonzero=False):
    return ParamSpec(name, "element", nonzero=nonzero)


REGISTRY: dict[str, FamilySpec] = {}


def _register(spec: FamilySpec):
    REGISTRY[spec.fid] = spec


_register(FamilySpec(
    "F1", "additive-shift composition with scaled linear tail",
    "(x^(2^m) + x + d)^(2^(2m)+1) + c*x over GF(2^(3m))",
    ("m",), _gf2_3m,
    (_int("m"), _elem("delta"), _elem("c", nonzero=True)),
    _f1_condition, _f1_form,
    notes="condition: c in GF(2^m)*; bijective for every delta",
))

_register(FamilySpec(
    "F2", "trinomial companion of F1",
    "x^(2^m*(2^(2m)+1)) + x^(2^(2m)+1) + c*x over GF(2^(3m))",
    ("m",), _gf2_3m,
    (_int("m"), _elem("c", nonzero=True)),
    _f1_condition, _f2_form,
    notes="condition: c in GF(2^m)*, sufficient: then T(f(x)) = c*T(x) for T "
          "the trace onto GF(2^m), and f is injective on each fibre of ker T",
))

_register(FamilySpec(
    "F3", "conjugate-scaled trinomial with exponent (q^2+q+1)/3",
    "c*x + x^s + c^q*x^(q*s), s=(q^2+q+1)/3, q=2^m over GF(2^(2m))",
    ("m",), _gf2_2m,
    (_int("m"), _elem("c", nonzero=True)),
    _f3_condition, _f3_form,
    notes="needs q = 1 mod 3 (even m); condition: trace of c^(q+1) vanishes",
))

_register(FamilySpec(
    "F4", "cube-coset binomial (condition is an exact iff)",
    "x^((2^(2m)-1)/3 + 1) + b*x over GF(2^(2m))",
    ("m",), _gf2_2m,
    (_int("m"), _elem("b")),
    _f4_condition, _f4_form,
    notes="checker enumerates the three coset images and tests disjointness",
))

_register(FamilySpec(
    "F5", "subgroup-twisted binomial x^(i(2^m-1)+r) + b*x^r",
    "x^(i*(2^m-1)+r) + b*x^r over GF(2^(2m))",
    ("m",), _gf2_2m,
    (_int("m"), _int("r"), _int("i"), _elem("b", nonzero=True)),
    _f5_condition, _f5_form,
))

_register(FamilySpec(
    "F6", "composition g(x^q - x + d) + c*x over a cubic extension",
    "g(x^q - x + d) + c*x over GF(q^3); g = u^(q^2)+u^q+u or x^(i(q^2+q+1))",
    ("q",), _f6_field,
    (_int("q", minimum=2), ParamSpec("case", "choice", choices=("sum", "power")),
     ParamSpec("u", "poly", optional=True), ParamSpec("i", "int", minimum=1, optional=True),
     _elem("delta"), _elem("c", nonzero=True)),
    _f6_condition, _f6_form,
    notes="condition: c in GF(q)*; bijective for every delta",
))

_register(FamilySpec(
    "F7", "twisted composition g(x^q + x + d) + c*x over a quartic extension",
    "c0*G(x^q + x + d) + c*x over GF(q^4); G = sum of the four q-power conjugates "
    "of u, or x^(i(q^3+q^2+q+1)); c0^q + c0 = 0",
    ("q",), _f7_field,
    (_int("q", minimum=2), ParamSpec("case", "choice", choices=("sum", "power")),
     ParamSpec("u", "poly", optional=True), ParamSpec("i", "int", minimum=1, optional=True),
     ParamSpec("c0", "element", nonzero=True, optional=True),
     _elem("delta"), _elem("c", nonzero=True)),
    _f7_condition, _f7_form,
    notes="c0 defaults to 1 in characteristic 2, else to the least root of "
          "c0^(q-1) = -1",
))

_register(FamilySpec(
    "F8", "circle-power product x^r * (x^(s(2^m-1)) + a*x^(2^m-1) + d)^(2^m+1)",
    "x^r * (x^(s*(2^m-1)) + a*x^(2^m-1) + d)^(2^m+1) over GF(2^(2m))",
    ("m",), _gf2_2m,
    (_int("m"), _int("r"), _int("s"), _elem("a"), _elem("delta")),
    _f8_condition, _f8_form,
))

_register(FamilySpec(
    "F9", "subfield-power product x^r * (x^(2^(m-1)(2^m+1)) + a*x^(2^m+1) + d)^(s(2^m-1))",
    "x^r * (x^(2^(m-1)*(2^m+1)) + a*x^(2^m+1) + d)^(s*(2^m-1)) over GF(2^(2m))",
    ("m",), _gf2_2m,
    (_int("m"), _int("r"), _int("s"), _elem("a", nonzero=True),
     _elem("delta", nonzero=True)),
    _f9_condition, _f9_form,
    notes="registered gate keeps the published cube-ratio trace clause; "
          "exhaustive sweeps show it disagrees with the oracle (see tests)",
))

_register(FamilySpec(
    "F10", "cubic-extension product x^r * (x^(2^m(2^m-1)) + a*x^(2^m-1) + b)^(s*T)",
    "x^r * (x^(2^m*(2^m-1)) + a*x^(2^m-1) + b)^(s*(2^(2m)+2^m+1)) over GF(2^(3m))",
    ("m",), _gf2_3m,
    (_int("m"), _int("r"), _int("s"), _elem("a", nonzero=True),
     _elem("b", nonzero=True)),
    _f10_condition, _f10_form,
))

_register(FamilySpec(
    "F11", "four-term cubic-extension product with linearized-core gate",
    "x^r * (x^(2^(2m)*(2^m-1)) + b*x^(2^m*(2^m-1)) + a*x^(2^m-1) + d)^(s*(2^(2m)+2^m+1)) "
    "over GF(2^(3m))",
    ("m",), _gf2_3m,
    (_int("m"), _int("r"), _int("s"), _elem("a", nonzero=True),
     _elem("b", nonzero=True), _elem("delta")),
    _f11_condition, _f11_form,
    notes="registered gate keeps the published shift-ratio clause; exhaustive "
          "sweeps show it disagrees with the oracle (see tests)",
))

_register(FamilySpec(
    "F12", "additive-shift transform pair (delta family vs companion h)",
    "pair: f_d(x) = g(x^(q^step) -/+ x + d) + c*x  <->  h(x) = g(x)^(q^step) -/+ g(x) + c*x",
    ("p", "k"), _f12_field,
    (ParamSpec("p", "int", minimum=2), ParamSpec("k", "int", minimum=2),
     _int("step"), ParamSpec("sign", "choice", choices=("minus", "plus")),
     ParamSpec("g", "poly"), _elem("c", nonzero=True), _elem("delta")),
    _f12_condition, _f12_form,
    notes="f_d permutes for every d exactly when h permutes",
))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def family(fid: str) -> FamilySpec:
    try:
        return REGISTRY[fid]
    except KeyError:
        raise SchemaMismatch(f"unknown family id {fid!r}") from None


def family_ctx(fid: str, params: dict) -> FieldCtx:
    """The field a parameter set lives in, from the family's shape params."""
    spec = family(fid)
    missing = [s for s in spec.shape if s not in params]
    if missing:
        raise SchemaMismatch(f"{fid}: missing shape parameter(s) {missing}")
    shape = {s: params[s] for s in spec.shape}
    for name, v in shape.items():
        if not isinstance(v, int) or v < 1:
            raise SchemaMismatch(f"{fid}: shape parameter '{name}' must be a "
                                 f"positive integer")
    p, k = spec.field_for(shape)
    return make_field(p, k)


def _resolve(fid: str, params: dict, ctx: FieldCtx | None):
    """(spec, ctx, normalized params) of one parameter assignment."""
    spec = family(fid)
    ctx = ctx or family_ctx(fid, params)
    return spec, ctx, _validate(spec, ctx, params)


def check(fid: str, params: dict, *, ctx: FieldCtx | None = None) -> ConditionReport:
    """Evaluate every hypothesis clause for one parameter assignment."""
    spec, ctx, norm = _resolve(fid, params, ctx)
    return spec.condition(ctx, norm)


def build(fid: str, params: dict, *, ctx: FieldCtx | None = None) -> SparsePoly:
    """The literal polynomial with all exponents expanded: the family's form,
    expanded when it is a :class:`Form`."""
    spec, ctx, norm = _resolve(fid, params, ctx)
    form = spec.form(ctx, norm)
    return form.expand() if isinstance(form, Form) else form


def evaluator(fid: str, params: dict, *, ctx: FieldCtx | None = None):
    """Rep-level evaluation closure: the family's form compiled by ``rep_fn``,
    which finds any block source from the form itself."""
    spec, ctx, norm = _resolve(fid, params, ctx)
    return spec.form(ctx, norm).rep_fn()


def enumerate_instances(fid: str, fixed: dict, *, cap: int = DEFAULT_ENUM_CAP):
    """Yield (params, ConditionReport) over all unfixed element parameters.

    Element parameters not present in ``fixed`` sweep their schema domain in
    ascending rep order, nested in schema order (the first outermost);
    integer/choice/poly parameters must be fixed.
    """
    spec = family(fid)
    ctx = family_ctx(fid, fixed)
    sweep = []
    for ps in spec.params:
        if ps.name in fixed:
            continue
        if ps.optional:
            continue  # defaults apply (e.g. the twist scalar)
        if ps.kind != "element":
            raise SchemaMismatch(
                f"{fid}: parameter '{ps.name}' must be fixed for enumeration")
        sweep.append(ps)
    domains = [range(1 if ps.nonzero else 0, ctx.order) for ps in sweep]
    total = math.prod(map(len, domains))  # 1 when nothing is swept
    if total > cap:
        raise EnumerationTooLarge(f"{fid}: enumeration of {total} assignments "
                                  f"exceeds cap {cap}")
    names = [ps.name for ps in sweep]
    for reps in itertools.product(*domains):  # no sweep: one empty assignment
        params = {**fixed, **dict(zip(names, reps))}
        yield params, check(fid, params, ctx=ctx)
