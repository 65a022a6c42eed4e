"""Registry of the twelve permutation-polynomial constructions F1..F12.

Each entry bundles a field shape, a parameter schema, a condition predicate
(evaluated clause by clause, totally: every schema-valid assignment yields
pass or fail), a builder producing the literal polynomial with expanded
arbitrary-precision exponents, and an evaluation form for exhaustive sweeps.
The form of F1 and F6..F12 is one shared :class:`Form`,
c0 * x^r * G(core(x)) + c*x, evaluated without formal expansion; F2..F5 use
their literal polynomial.  :func:`evaluator` compiles either against the
field's log tables (``rep_fn``).

Family ids and parameter names are a stable CLI/JSON contract.  Condition
clauses mirror each construction's published hypotheses verbatim; where a
hypothesis disagrees with exhaustive verification the oracle arbitrates and
the disagreement is surfaced, not patched.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

from . import solvers
from .errors import (
    BadDegrees,
    BadSubfieldConstant,
    CtxMismatch,
    EnumerationTooLarge,
    FieldShapeMismatch,
    SchemaMismatch,
)
from .field import FieldCtx, FieldElem, SparsePoly, is_prime, make_field

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
    doc: str = ""


@dataclass(frozen=True)
class FamilySpec:
    fid: str
    summary: str
    formula: str              # display form; doubles as the report anchor
    shape: tuple[str, ...]    # which params fix the field
    field_for: object         # params -> (p, k)
    params: tuple[ParamSpec, ...]
    condition: object         # (ctx, params) -> ConditionReport
    build: object             # (ctx, params) -> SparsePoly
    form: object              # (ctx, params) -> Form or SparsePoly
    notes: str = ""

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)


def _prime_power(q: int) -> tuple[int, int]:
    """q = p^e with p prime; FieldShapeMismatch otherwise."""
    if q < 2:
        raise FieldShapeMismatch(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            t = q
            while t % p == 0:
                t //= p
                e += 1
            if t == 1 and is_prime(p):
                return p, e
            break
    raise FieldShapeMismatch(f"{q} is not a prime power")


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
    # conditional requirements for the two-case families
    if "case" in out:
        need = "u" if out["case"] == "sum" else "i"
        if need not in out:
            raise SchemaMismatch(f"{spec.fid}: case '{out['case']}' requires '{need}'")
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
# the evaluation form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Form:
    """The evaluation form f(x) = c0 * x^r * G(core(x)) + c*x.

    G(y) = (w + w^q + ... + w^(q^(n-1)))^E with w = u(y).  ``u`` = None
    stands for u(y) = y, so G is the power y^E; with a sparse polynomial u
    and n = 1, G is u^E; n > 1 gives the q-power sum of u.  ``c0`` is
    nonzero and E >= 1.
    """

    core: SparsePoly
    E: int = 1
    u: SparsePoly | None = None
    n: int = 1
    q: int = 1
    r: int = 0
    c0: int = 1
    c: int = 0

    def rep_fn(self):
        """Rep-level evaluator, compiled against the context's log tables.

        Above TABLE_LIMIT the same form evaluates through ``ctx`` arithmetic.
        """
        core = self.core
        ctx = core.ctx
        u = self.u.rep_fn() if self.u is not None else None
        E, r, c0, c = self.E, self.r, self.c0, self.c
        qpows = [self.q ** j for j in range(1, self.n)]

        def direct(x):
            w = core.eval_rep(x)
            if u is not None:
                w = u(w)
                w = reduce(ctx.add, [ctx.pow(w, e) for e in qpows], w)
            v = ctx.mul(ctx.mul(c0, ctx.pow(x, r)), ctx.pow(w, E))
            return ctx.add(v, ctx.mul(c, x))

        if not ctx.ensure_tables():
            return direct
        exp, log, n1 = ctx._exp, ctx._log, ctx.order - 1
        add = operator.xor if ctx.p == 2 else ctx.add
        f0, lc0, lc = direct(0), log[c0], log[c]  # 0 has no log: f(0) from ctx
        k0, terms = core.log_terms()
        qpows = [e % n1 for e in qpows]

        def f(x):
            if x == 0:
                return f0
            lx = log[x]
            w = k0
            for lt, e in terms:
                w = add(w, exp[lt + lx * e % n1])
            if u is not None:
                w = u(w)
                if w and qpows:
                    lw = log[w]
                    for e in qpows:
                        w = add(w, exp[lw * e % n1])
            v = exp[(lc0 + lx * r + log[w] * E) % n1] if w else 0
            return add(v, exp[lc + lx]) if c else v
        return f


# ---------------------------------------------------------------------------
# F1, F2: twisted additive-shift compositions over GF(2^3m)
# ---------------------------------------------------------------------------

def _f1_field(params):
    return 2, 3 * params["m"]


def _f1_condition(ctx, p):
    return ConditionReport((_subfield_star_clause(ctx, "scale-in-base-field",
                                                  p["c"], p["m"]),))


def _f1_parts(ctx, p):
    m = p["m"]
    return SparsePoly(ctx, [(1, 1 << m), (1, 1), (p["delta"], 0)]), (1 << (2 * m)) + 1


def _f1_build(ctx, p):
    inner, E = _f1_parts(ctx, p)
    return inner.pow_charp(E) + SparsePoly(ctx, [(p["c"], 1)])


def _f1_form(ctx, p):
    inner, E = _f1_parts(ctx, p)
    return Form(inner, E, c=p["c"])


def _f2_condition(ctx, p):
    return _f1_condition(ctx, p)


def _f2_build(ctx, p):
    m = p["m"]
    e = (1 << (2 * m)) + 1
    return SparsePoly(ctx, [(1, (1 << m) * e), (1, e), (p["c"], 1)])


# ---------------------------------------------------------------------------
# F3: scaled trinomial over GF(2^2m), exponent (q^2+q+1)/3
# ---------------------------------------------------------------------------

def _f3_field(params):
    return 2, 2 * params["m"]


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


def _f3_build(ctx, p):
    m, c = p["m"], p["c"]
    s = _f3_exponent(m)
    q = 1 << m
    return SparsePoly(ctx, [(c, 1), (1, s), (ctx.pow(c, q), q * s)])


# ---------------------------------------------------------------------------
# F4: binomial x^((q-1)/3 + 1) + b x over GF(2^2m); condition is an iff
# ---------------------------------------------------------------------------

def _f4_field(params):
    return 2, 2 * params["m"]


def _f4_sets(ctx, b):
    """Image sets of the three index-3 cosets under x -> x^(D+1) + bx."""
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
    return vsets


def _f4_condition(ctx, p):
    b = p["b"]
    n1 = ctx.order - 1
    D = n1 // 3
    hit = [s for s in range(3) if ctx.pow(ctx.generator, D * s) == b]
    zero_clause = Clause("zero-image-avoided", not hit,
                         f"b = g^{D * hit[0]}" if hit else "")
    v = _f4_sets(ctx, b)
    overlap = None
    for i in range(3):
        for j in range(i + 1, 3):
            inter = v[i] & v[j]
            if inter:
                overlap = (i, j, min(inter))
                break
        if overlap:
            break
    disj = Clause("coset-images-disjoint", overlap is None,
                  f"V{overlap[0]} and V{overlap[1]} share rep {overlap[2]}"
                  if overlap else "")
    return ConditionReport((zero_clause, disj))


def _f4_build(ctx, p):
    D = (ctx.order - 1) // 3
    return SparsePoly(ctx, [(1, D + 1), (p["b"], 1)])


# ---------------------------------------------------------------------------
# F5: binomial x^(i(2^m-1)+r) + b x^r over GF(2^2m)
# ---------------------------------------------------------------------------

def _f5_field(params):
    return 2, 2 * params["m"]


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


def _f5_build(ctx, p):
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
    p, e = _prime_power(q)
    if p != ctx.p or ctx.k % e:
        raise FieldShapeMismatch(f"q={q} incompatible with GF({ctx.p}^{ctx.k})")
    return e


def _f6_condition(ctx, p):
    e = _base_degree(ctx, p["q"])
    return ConditionReport((_subfield_star_clause(ctx, "scale-in-base-field",
                                                  p["c"], e),))


def _f6_inner(ctx, q, delta):
    return SparsePoly(ctx, [(1, q), (ctx.neg(1), 1), (delta, 0)])


def _f6_build(ctx, p):
    q, delta, c = p["q"], p["delta"], p["c"]
    e = _base_degree(ctx, q)
    inner = _f6_inner(ctx, q, delta)
    if p["case"] == "sum":
        w = p["u"].compose(inner)
        g = w + w.frobenius_power(e) + w.frobenius_power(2 * e)
    else:
        g = inner.pow_charp(p["i"] * (q * q + q + 1))
    return g + SparsePoly(ctx, [(c, 1)])


def _shift_form(p, inner, n, c0=1):
    """c0 * G(inner(x)) + c*x: G is the n-term q-power sum of u, or y^E with
    E = i(q^(n-1) + ... + q + 1)."""
    q = p["q"]
    if p["case"] == "sum":
        return Form(inner, u=p["u"], n=n, q=q, c0=c0, c=p["c"])
    return Form(inner, p["i"] * sum(q ** j for j in range(n)), c0=c0, c=p["c"])


def _f6_form(ctx, p):
    return _shift_form(p, _f6_inner(ctx, p["q"], p["delta"]), 3)


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


def _f7_inner(ctx, q, delta):
    return SparsePoly(ctx, [(1, q), (1, 1), (delta, 0)])


def _f7_build(ctx, p):
    q, delta, c = p["q"], p["delta"], p["c"]
    e = _base_degree(ctx, q)
    c0 = p.get("c0", default_twist_scalar(ctx, q))
    inner = _f7_inner(ctx, q, delta)
    if p["case"] == "sum":
        w = p["u"].compose(inner)
        g = w
        for j in range(1, 4):
            g = g + w.frobenius_power(e * j)
    else:
        g = inner.pow_charp(p["i"] * (q ** 3 + q ** 2 + q + 1))
    return g.scale(c0) + SparsePoly(ctx, [(c, 1)])


def _f7_form(ctx, p):
    q = p["q"]
    c0 = p.get("c0", default_twist_scalar(ctx, q))
    return _shift_form(p, _f7_inner(ctx, q, p["delta"]), 4, c0)


# ---------------------------------------------------------------------------
# F8..F11: x^r * (sparse linearized core)^(big power)
# ---------------------------------------------------------------------------

def _product(parts):
    """Builder and form of x^r * core(x)^E from parts: (ctx, params) -> (core, E)."""
    def build(ctx, p):
        core, E = parts(ctx, p)
        return core.pow_charp(E).shift_x(p["r"])

    def form(ctx, p):
        core, E = parts(ctx, p)
        return Form(core, E, r=p["r"])
    return build, form


def _f8_field(params):
    return 2, 2 * params["m"]


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


def _f8_parts(ctx, p):
    s, a, delta = p["s"], p["a"], p["delta"]
    Q = 1 << p["m"]
    return SparsePoly(ctx, [(1, s * (Q - 1)), (a, Q - 1), (delta, 0)]), Q + 1


def _f9_field(params):
    return 2, 2 * params["m"]


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


def _f9_parts(ctx, p):
    s, a, delta = p["s"], p["a"], p["delta"]
    Q = 1 << p["m"]
    return SparsePoly(ctx, [(1, (Q // 2) * (Q + 1)), (a, Q + 1), (delta, 0)]), s * (Q - 1)


def _f10_field(params):
    return 2, 3 * params["m"]


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


def _f10_parts(ctx, p):
    s, a, b = p["s"], p["a"], p["b"]
    Q = 1 << p["m"]
    return SparsePoly(ctx, [(1, Q * (Q - 1)), (a, Q - 1), (b, 0)]), s * (Q * Q + Q + 1)


def _f11_field(params):
    return 2, 3 * params["m"]


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


def _f11_parts(ctx, p):
    s, a, b, delta = p["s"], p["a"], p["b"], p["delta"]
    Q = 1 << p["m"]
    core = SparsePoly(ctx, [(1, Q * Q * (Q - 1)), (b, Q * (Q - 1)), (a, Q - 1), (delta, 0)])
    return core, s * (Q * Q + Q + 1)


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

    def _inner_poly(self, delta) -> SparsePoly:
        ctx = self.ctx
        xc = 1 if self.sign == "plus" else ctx.neg(1)
        return SparsePoly(ctx, [(1, self._qk), (xc, 1), (delta, 0)])

    def form(self, delta) -> Form:
        """f_delta as an evaluation form: G = g, core = x^(q^step) -/+ x + delta."""
        if isinstance(delta, FieldElem):
            delta = delta.rep
        return Form(self._inner_poly(delta), u=self.g, c=self.c)

    def map(self, delta):
        """Rep-level evaluator of f_delta."""
        return self.form(delta).rep_fn()

    def poly(self, delta) -> SparsePoly:
        """Formal expansion of f_delta (on demand; may be large)."""
        if isinstance(delta, FieldElem):
            delta = delta.rep
        return self.g.compose(self._inner_poly(delta)) + SparsePoly(self.ctx, [(self.c, 1)])


def transform_pair(g: SparsePoly, c, step: int, sign: str = "minus",
                   *, base_degree: int = 1) -> tuple[DeltaFamily, SparsePoly]:
    """Both sides of the additive-shift equivalence.

    Returns the delta-indexed family f_delta(x) = g(x^(q^step) -/+ x + delta) + c x
    and the companion h(x) = g(x)^(q^step) -/+ g(x) + c x, where q = p^base_degree:
    f_delta permutes the field for every delta exactly when h does.
    """
    ctx = g.ctx
    if isinstance(c, FieldElem):
        if c.ctx is not ctx:
            raise CtxMismatch("constant from a different context")
        c = c.rep
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


def _f12_pair(ctx, p):
    return transform_pair(p["g"], p["c"], p["step"], p["sign"])


def _f12_build(ctx, p):
    fam, _ = _f12_pair(ctx, p)
    return fam.poly(p["delta"])


def _f12_form(ctx, p):
    fam, _ = _f12_pair(ctx, p)
    return fam.form(p["delta"])


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _int(name, minimum=1, doc=""):
    return ParamSpec(name, "int", minimum=minimum, doc=doc)


def _elem(name, nonzero=False, doc=""):
    return ParamSpec(name, "element", nonzero=nonzero, doc=doc)


REGISTRY: dict[str, FamilySpec] = {}


def _register(spec: FamilySpec):
    REGISTRY[spec.fid] = spec


_register(FamilySpec(
    "F1", "additive-shift composition with scaled linear tail",
    "(x^(2^m) + x + d)^(2^(2m)+1) + c*x over GF(2^(3m))",
    ("m",), _f1_field,
    (_int("m"), _elem("delta"), _elem("c", nonzero=True)),
    _f1_condition, _f1_build, _f1_form,
    notes="condition: c in GF(2^m)*; bijective for every delta",
))

_register(FamilySpec(
    "F2", "trinomial companion of F1",
    "x^(2^m*(2^(2m)+1)) + x^(2^(2m)+1) + c*x over GF(2^(3m))",
    ("m",), _f1_field,
    (_int("m"), _elem("c", nonzero=True)),
    _f2_condition, _f2_build, _f2_build,
    notes="condition: c in GF(2^m)*",
))

_register(FamilySpec(
    "F3", "conjugate-scaled trinomial with exponent (q^2+q+1)/3",
    "c*x + x^s + c^q*x^(q*s), s=(q^2+q+1)/3, q=2^m over GF(2^(2m))",
    ("m",), _f3_field,
    (_int("m"), _elem("c", nonzero=True)),
    _f3_condition, _f3_build, _f3_build,
    notes="needs q = 1 mod 3 (even m); condition: trace of c^(q+1) vanishes",
))

_register(FamilySpec(
    "F4", "cube-coset binomial (condition is an exact iff)",
    "x^((2^(2m)-1)/3 + 1) + b*x over GF(2^(2m))",
    ("m",), _f4_field,
    (_int("m"), _elem("b")),
    _f4_condition, _f4_build, _f4_build,
    notes="checker enumerates the three coset images and tests disjointness",
))

_register(FamilySpec(
    "F5", "subgroup-twisted binomial x^(i(2^m-1)+r) + b*x^r",
    "x^(i*(2^m-1)+r) + b*x^r over GF(2^(2m))",
    ("m",), _f5_field,
    (_int("m"), _int("r"), _int("i"), _elem("b", nonzero=True)),
    _f5_condition, _f5_build, _f5_build,
))

_register(FamilySpec(
    "F6", "composition g(x^q - x + d) + c*x over a cubic extension",
    "g(x^q - x + d) + c*x over GF(q^3); g = u^(q^2)+u^q+u or x^(i(q^2+q+1))",
    ("q",), _f6_field,
    (_int("q", minimum=2), ParamSpec("case", "choice", choices=("sum", "power")),
     ParamSpec("u", "poly", optional=True), ParamSpec("i", "int", minimum=1, optional=True),
     _elem("delta"), _elem("c", nonzero=True)),
    _f6_condition, _f6_build, _f6_form,
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
    _f7_condition, _f7_build, _f7_form,
    notes="c0 defaults to 1 in characteristic 2, else to the least root of "
          "c0^(q-1) = -1",
))

_register(FamilySpec(
    "F8", "circle-power product x^r * (x^(s(2^m-1)) + a*x^(2^m-1) + d)^(2^m+1)",
    "x^r * (x^(s*(2^m-1)) + a*x^(2^m-1) + d)^(2^m+1) over GF(2^(2m))",
    ("m",), _f8_field,
    (_int("m"), _int("r"), _int("s"), _elem("a"), _elem("delta")),
    _f8_condition, *_product(_f8_parts),
))

_register(FamilySpec(
    "F9", "subfield-power product x^r * (x^(2^(m-1)(2^m+1)) + a*x^(2^m+1) + d)^(s(2^m-1))",
    "x^r * (x^(2^(m-1)*(2^m+1)) + a*x^(2^m+1) + d)^(s*(2^m-1)) over GF(2^(2m))",
    ("m",), _f9_field,
    (_int("m"), _int("r"), _int("s"), _elem("a", nonzero=True),
     _elem("delta", nonzero=True)),
    _f9_condition, *_product(_f9_parts),
    notes="registered gate keeps the published cube-ratio trace clause; "
          "exhaustive sweeps show it disagrees with the oracle (see tests)",
))

_register(FamilySpec(
    "F10", "cubic-extension product x^r * (x^(2^m(2^m-1)) + a*x^(2^m-1) + b)^(s*T)",
    "x^r * (x^(2^m*(2^m-1)) + a*x^(2^m-1) + b)^(s*(2^(2m)+2^m+1)) over GF(2^(3m))",
    ("m",), _f10_field,
    (_int("m"), _int("r"), _int("s"), _elem("a", nonzero=True),
     _elem("b", nonzero=True)),
    _f10_condition, *_product(_f10_parts),
))

_register(FamilySpec(
    "F11", "four-term cubic-extension product with linearized-core gate",
    "x^r * (x^(2^(2m)*(2^m-1)) + b*x^(2^m*(2^m-1)) + a*x^(2^m-1) + d)^(s*(2^(2m)+2^m+1)) "
    "over GF(2^(3m))",
    ("m",), _f11_field,
    (_int("m"), _int("r"), _int("s"), _elem("a", nonzero=True),
     _elem("b", nonzero=True), _elem("delta")),
    _f11_condition, *_product(_f11_parts),
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
    _f12_condition, _f12_build, _f12_form,
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


def check(fid: str, params: dict, *, ctx: FieldCtx | None = None) -> ConditionReport:
    """Evaluate every hypothesis clause for one parameter assignment."""
    spec = family(fid)
    ctx = ctx or family_ctx(fid, params)
    norm = _validate(spec, ctx, params)
    return spec.condition(ctx, norm)


def build(fid: str, params: dict, *, ctx: FieldCtx | None = None) -> SparsePoly:
    """The literal polynomial with all exponents expanded."""
    spec = family(fid)
    ctx = ctx or family_ctx(fid, params)
    norm = _validate(spec, ctx, params)
    return spec.build(ctx, norm)


def evaluator(fid: str, params: dict, *, ctx: FieldCtx | None = None):
    """Rep-level evaluation closure: the family's form, compiled by ``rep_fn``."""
    spec = family(fid)
    ctx = ctx or family_ctx(fid, params)
    norm = _validate(spec, ctx, params)
    return spec.form(ctx, norm).rep_fn()


def enumerate_instances(fid: str, fixed: dict, *, cap: int = DEFAULT_ENUM_CAP):
    """Yield (params, ConditionReport) over all unfixed element parameters.

    Element parameters not present in ``fixed`` sweep their schema domain in
    ascending rep order; integer/choice/poly parameters must be fixed.
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
    total = 1
    domain_size = ctx.order
    for ps in sweep:
        total *= domain_size - (1 if ps.nonzero else 0)
        if total > cap:
            raise EnumerationTooLarge(f"{fid}: enumeration of {total}+ assignments "
                                      f"exceeds cap {cap}")
    if not sweep:
        params = dict(fixed)
        yield params, check(fid, params, ctx=ctx)
        return

    def rec(idx, current):
        if idx == len(sweep):
            params = dict(current)
            yield params, check(fid, params, ctx=ctx)
            return
        ps = sweep[idx]
        start = 1 if ps.nonzero else 0
        for rep in range(start, ctx.order):
            current[ps.name] = rep
            yield from rec(idx + 1, current)
        del current[ps.name]

    yield from rec(0, dict(fixed))
