"""Arithmetic in GF(p^k): field contexts, elements, and sparse polynomials.

Elements are integer-coded against the polynomial basis of a ``FieldCtx``:
the element sum(c_i * x^i) has rep sum(c_i * p^i).  The modulus, when not
supplied, is the lexicographically least monic irreducible of degree k over
GF(p) (candidates ordered by the integer encoding of their low coefficients),
and the generator is the least-rep element of full multiplicative order, so
reps are reproducible across runs and machines.

Convention: 0**0 == 1.  It is only reachable through an explicit
exponent-zero term or ``pow(zero, 0)``.
"""

from __future__ import annotations

import math
import operator
import threading
from functools import lru_cache

from .errors import (
    CtxMismatch,
    DegreeMismatch,
    DivisionByZero,
    NotADivisor,
    NotPrime,
    ReducibleModulus,
    SizeLimitExceeded,
)

DEFAULT_SIZE_LIMIT = 1 << 24
TABLE_LIMIT = 1 << 16  # log/antilog tables are built lazily up to this order


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of n (trial division; n stays small here)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p); coefficient lists, index = degree
# ---------------------------------------------------------------------------

def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return _ptrim(out)


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _ptrim(out)


def _pmulmod(a, b, mod, p):
    if not a or not b:
        return []
    dm = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                prod[i + j] = (prod[i + j] + av * bv) % p
    for i in range(len(prod) - 1, dm - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            off = i - dm
            for j in range(dm):
                prod[off + j] = (prod[off + j] - c * mod[j]) % p
    return _ptrim(prod)


def _ppowmod(base, e, mod, p):
    result = [1]
    b = [v % p for v in base]
    _ptrim(b)
    while e:
        if e & 1:
            result = _pmulmod(result, b, mod, p)
        e >>= 1
        if e:
            b = _pmulmod(b, b, mod, p)
    return result


def _pmod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        a[i] = 0
        if c:
            off = i - dm
            for j in range(dm):
                a[off + j] = (a[off + j] - c * mod[j]) % p
    return _ptrim([v % p for v in a])


def _pgcd(a, b, p):
    a = [v % p for v in a]
    b = [v % p for v in b]
    _ptrim(a)
    _ptrim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(v * inv) % p for v in b]  # monic divisor
        a = _pmod(a, bm, p)
        a, b = b, a
    return a


def is_irreducible(coeffs, p: int) -> bool:
    """Rabin's test for a monic polynomial over GF(p), coeffs index = degree."""
    mod = [v % p for v in coeffs]
    k = len(mod) - 1
    if k < 1 or mod[-1] != 1:
        return False
    if k == 1:
        return True
    x = [0, 1]
    xq = _ppowmod(x, p ** k, mod, p)
    if _psub(xq, x, p):
        return False
    for ell in prime_factors(k):
        d = k // ell
        xd = _ppowmod(x, p ** d, mod, p)
        g = _pgcd(_psub(xd, x, p), mod, p)
        if len(g) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable description of GF(p^k) plus rep-level arithmetic.

    All arithmetic methods take and return integer reps.  The wrapper type
    :class:`FieldElem` provides operator sugar on top of these.  Instances
    are safely shareable across threads; the lazy log/antilog tables are
    built at most once under a lock.
    """

    __slots__ = ("p", "k", "order", "modulus", "generator",
                 "_mod_int", "_exp", "_log", "_lock", "_as_table")

    def __init__(self, p, k, modulus, generator):
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = tuple(modulus)
        self.generator = generator
        mi = 0
        if p == 2:
            for i, c in enumerate(self.modulus):
                if c:
                    mi |= 1 << i
        self._mod_int = mi
        self._exp = None
        self._log = None
        self._lock = threading.Lock()
        self._as_table = None

    # -- representation helpers ------------------------------------------

    def decode(self, rep: int) -> list[int]:
        """Coefficient digits of a rep, index = degree, length k."""
        p = self.p
        out = [0] * self.k
        for i in range(self.k):
            rep, out[i] = divmod(rep, p)
        return out

    def encode(self, digits) -> int:
        rep = 0
        for d in reversed(list(digits)):
            rep = rep * self.p + (d % self.p)
        return rep

    def elem(self, rep: int) -> "FieldElem":
        if not 0 <= rep < self.order:
            raise ValueError(f"rep {rep} out of range for GF({self.p}^{self.k})")
        return FieldElem(self, rep)

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    @property
    def gen(self) -> "FieldElem":
        return FieldElem(self, self.generator)

    def elements(self):
        for r in range(self.order):
            yield FieldElem(self, r)

    def units(self):
        for r in range(1, self.order):
            yield FieldElem(self, r)

    # -- raw arithmetic (table-free) --------------------------------------

    def _mul_raw(self, a, b):
        if self.p == 2:
            acc = 0
            kbit = 1 << self.k
            mi = self._mod_int
            while b:
                if b & 1:
                    acc ^= a
                b >>= 1
                a <<= 1
                if a & kbit:
                    a ^= mi
            return acc
        da, db = self.decode(a), self.decode(b)
        prod = [0] * (2 * self.k - 1)
        p = self.p
        for i, av in enumerate(da):
            if av:
                for j, bv in enumerate(db):
                    prod[i + j] = (prod[i + j] + av * bv) % p
        red = _pmod(prod, list(self.modulus), p)
        return self.encode(red + [0] * (self.k - len(red)))

    def _pow_raw(self, a, e):
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_raw(result, base)
            e >>= 1
            if e:
                base = self._mul_raw(base, base)
        return result

    # -- public arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        while a:
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        t = self._exp
        if t is None:
            return self._mul_raw(a, b)
        if a == 0 or b == 0:
            return 0
        lg = self._log
        return t[lg[a] + lg[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        t = self._exp
        if t is None:
            return self._pow_raw(a, self.order - 2)
        n1 = self.order - 1
        return t[n1 - self._log[a]] if self._log[a] else 1

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by zero")
        t = self._exp
        if t is None or a == 0:
            return self.mul(a, self.inv(b)) if t is None else 0
        n1 = self.order - 1
        return t[self._log[a] - self._log[b] + n1]

    def pow(self, a: int, e: int) -> int:
        """a**e with arbitrary-precision e, reduced mod order-1 for a != 0."""
        if a == 0:
            if e == 0:
                return 1  # documented 0**0 == 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        n1 = self.order - 1
        e %= n1
        t = self._exp
        if t is not None:
            return t[self._log[a] * e % n1]
        return self._pow_raw(a, e)

    # -- structure maps ----------------------------------------------------

    def frobenius(self, a: int, i: int) -> int:
        """a**(p^i); i = k is the identity."""
        if not 0 <= i <= self.k:
            raise ValueError(f"frobenius power {i} outside [0, {self.k}]")
        return self.pow(a, self.p ** i)

    def _check_tower(self, m: int, n: int):
        if m < 1 or n % m or self.k % n:
            raise DegreeMismatch(f"need m | n | k, got m={m} n={n} k={self.k}")

    def rel_trace(self, a: int, m: int, n: int | None = None) -> int:
        """Trace from GF(p^n) onto GF(p^m); a must lie in the GF(p^n) subfield."""
        if n is None:
            n = self.k
        self._check_tower(m, n)
        if self.pow(a, self.p ** n) != a:
            raise DegreeMismatch(f"element {a} not in GF({self.p}^{n}) subfield")
        step = self.p ** m
        acc = a
        cur = a
        for _ in range(n // m - 1):
            cur = self.pow(cur, step)
            acc = self.add(acc, cur)
        return acc

    def norm(self, a: int, m: int, n: int | None = None) -> int:
        """Norm from GF(p^n) onto GF(p^m); multiplicative."""
        if n is None:
            n = self.k
        self._check_tower(m, n)
        if self.pow(a, self.p ** n) != a:
            raise DegreeMismatch(f"element {a} not in GF({self.p}^{n}) subfield")
        e = (self.p ** n - 1) // (self.p ** m - 1)
        return self.pow(a, e)

    def subfield_test(self, a: int, m: int) -> bool:
        """True iff a lies in the GF(p^m) subfield."""
        if m < 1 or self.k % m:
            raise DegreeMismatch(f"degree {m} does not divide {self.k}")
        return self.pow(a, self.p ** m) == a

    def subgroup_reps(self, d: int) -> list[int]:
        """The order-d subgroup of the unit group as generator powers.

        Entry j is w^j for w = g^((q-1)/d), built by repeated multiplication
        by w, so ``out[j * e % d]`` is the e-th power of ``out[j]``.
        """
        n1 = self.order - 1
        if d < 1 or n1 % d:
            raise NotADivisor(f"{d} does not divide {n1}")
        w = self.pow(self.generator, n1 // d)
        out = [1]
        for _ in range(d - 1):
            out.append(self.mul(out[-1], w))
        assert len(set(out)) == d
        return out

    def subgroup(self, d: int) -> list["FieldElem"]:
        return [FieldElem(self, r) for r in self.subgroup_reps(d)]

    def subfield_reps(self, m: int) -> list[int]:
        """All reps of the GF(p^m) subfield, ascending."""
        if m < 1 or self.k % m:
            raise DegreeMismatch(f"degree {m} does not divide {self.k}")
        return [0] + sorted(self.subgroup_reps(self.p ** m - 1))

    def dlog(self, a: int) -> int:
        """Discrete log base the fixed generator (tables or baby-step giant-step)."""
        if a == 0:
            raise DivisionByZero("log of zero")
        if self.ensure_tables():
            return self._log[a]
        n1 = self.order - 1
        step = math.isqrt(n1) + 1
        baby = {}
        cur = 1
        for j in range(step):
            baby.setdefault(cur, j)
            cur = self.mul(cur, self.generator)
        giant = self.inv(cur)  # generator^-step
        cur = a
        for i in range(step + 1):
            if cur in baby:
                return (i * step + baby[cur]) % n1
            cur = self.mul(cur, giant)
        raise AssertionError("dlog failed; generator invalid")

    # -- acceleration tables ------------------------------------------------

    def ensure_tables(self) -> bool:
        """Build log/antilog tables once (orders up to TABLE_LIMIT); idempotent."""
        if self._exp is not None:
            return True
        if self.order > TABLE_LIMIT:
            return False
        with self._lock:
            if self._exp is not None:
                return True
            n1 = self.order - 1
            exp = [1] * (2 * n1)
            log = [0] * self.order
            cur = 1
            for i in range(1, n1):
                cur = self._mul_raw(cur, self.generator)
                exp[i] = cur
            for i in range(n1):
                exp[n1 + i] = exp[i]
            for i in range(n1):
                log[exp[i]] = i
            self._log = log
            self._exp = exp  # published last; mul/pow key off _exp
        return True

    def artin_schreier_table(self) -> dict:
        """Map y*y + y -> least such y, built once; used by even-degree solvers."""
        if self._as_table is None:
            with self._lock:
                if self._as_table is None:
                    table = {}
                    for y in range(self.order):
                        img = self.add(self.mul(y, y), y)
                        table.setdefault(img, y)
                    self._as_table = table
        return self._as_table

    # -- misc ----------------------------------------------------------------

    def modulus_str(self) -> str:
        terms = []
        for i in range(self.k, -1, -1):
            c = self.modulus[i] if i < len(self.modulus) else 0
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.k}), modulus={self.modulus_str()}, g={self.generator})"


@lru_cache(maxsize=None)
def _make_field_cached(p, k, modulus, size_limit):
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    order = p ** k
    if order > size_limit:
        raise SizeLimitExceeded(f"p^k = {order} exceeds limit {size_limit}")
    if modulus is not None:
        mod = tuple(c % p for c in modulus)
        if len(mod) != k + 1 or mod[k] != 1:
            raise ValueError(f"modulus must be monic of degree {k}")
        if not is_irreducible(list(mod), p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")
    else:
        mod = None
        for n in range(order):
            digits = []
            t = n
            for _ in range(k):
                t, d = divmod(t, p)
                digits.append(d)
            cand = digits + [1]
            if is_irreducible(cand, p):
                mod = tuple(cand)
                break
        if mod is None:  # cannot happen: irreducibles exist for every degree
            raise ReducibleModulus(f"no irreducible of degree {k} over GF({p})")
    ctx = FieldCtx(p, k, mod, 1)
    # least-rep element of full multiplicative order
    n1 = order - 1
    gen = 1
    if n1 > 1:
        factors = prime_factors(n1)
        for rep in range(2, order):
            if all(ctx._pow_raw(rep, n1 // ell) != 1 for ell in factors):
                gen = rep
                break
    return FieldCtx(p, k, mod, gen)


def make_field(p: int, k: int, modulus=None, *, size_limit: int = DEFAULT_SIZE_LIMIT) -> FieldCtx:
    """Build (or fetch the cached) GF(p^k) context.

    When ``modulus`` is omitted the lexicographically least monic irreducible
    is selected, so repeated calls with equal arguments return the identical
    context object and element reps are stable.
    """
    mod = tuple(modulus) if modulus is not None else None
    return _make_field_cached(p, k, mod, size_limit)


# ---------------------------------------------------------------------------
# element wrapper
# ---------------------------------------------------------------------------

class FieldElem:
    """One element of a field, index-coded against its owning context.

    Thin operator sugar over the rep-level ``FieldCtx`` methods.  Integers
    in [0, p) coerce to the matching prime-field constant.
    """

    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: FieldCtx, rep: int):
        self.ctx = ctx
        self.rep = rep

    def _rep_of(self, other):
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                raise CtxMismatch("elements from different field contexts")
            return other.rep
        if isinstance(other, int) and 0 <= other < self.ctx.p:
            return other
        return None

    def __add__(self, other):
        r = self._rep_of(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.add(self.rep, r))

    __radd__ = __add__

    def __sub__(self, other):
        r = self._rep_of(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub(self.rep, r))

    def __rsub__(self, other):
        r = self._rep_of(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.sub(r, self.rep))

    def __mul__(self, other):
        r = self._rep_of(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.mul(self.rep, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._rep_of(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.div(self.rep, r))

    def __rtruediv__(self, other):
        r = self._rep_of(other)
        if r is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx.div(r, self.rep))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.pow(self.rep, e))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self.rep))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.ctx is other.ctx and self.rep == other.rep
        if isinstance(other, int) and 0 <= other < self.ctx.p:
            return self.rep == other
        return NotImplemented

    def __hash__(self):
        if self.rep < self.ctx.p:
            return hash(self.rep)  # equal to that int, so hashed like it
        return hash((id(self.ctx), self.rep))

    def __bool__(self):
        return self.rep != 0

    def frobenius(self, i: int) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.frobenius(self.rep, i))

    def trace(self, m: int, n: int | None = None) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.rel_trace(self.rep, m, n))

    def norm(self, m: int, n: int | None = None) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.norm(self.rep, m, n))

    def in_subfield(self, m: int) -> bool:
        return self.ctx.subfield_test(self.rep, m)

    def dlog(self) -> int:
        return self.ctx.dlog(self.rep)

    def __repr__(self):
        return f"GF({self.ctx.p}^{self.ctx.k})#{self.rep}"


# ---------------------------------------------------------------------------
# sparse polynomials with arbitrary-precision exponents
# ---------------------------------------------------------------------------

_EXPANSION_CAP = 200_000  # intermediate term-count guard for formal expansion


class SparsePoly:
    """f(x) = sum(coeff * x^exp) with huge exponents allowed.

    Terms are normalized: exponents strictly increasing, no zero
    coefficients.  Coefficients are stored as integer reps; the public
    ``terms`` view yields (FieldElem, exp) pairs.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: FieldCtx, terms=()):
        self.ctx = ctx
        acc: dict[int, int] = {}
        for coeff, exp in terms:
            if isinstance(coeff, FieldElem):
                if coeff.ctx is not ctx:
                    raise CtxMismatch("coefficient from a different context")
                coeff = coeff.rep
            if exp < 0:
                raise ValueError("negative exponent")
            if coeff:
                prev = acc.get(exp, 0)
                new = ctx.add(prev, coeff)
                if new:
                    acc[exp] = new
                else:
                    acc.pop(exp, None)
        self._terms = tuple(sorted(acc.items(), key=lambda t: t[0]))

    @classmethod
    def _raw(cls, ctx, sorted_pairs):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = tuple(sorted_pairs)
        return obj

    @classmethod
    def x(cls, ctx) -> "SparsePoly":
        return cls(ctx, [(1, 1)])

    @classmethod
    def constant(cls, ctx, c) -> "SparsePoly":
        return cls(ctx, [(c, 0)])

    @property
    def terms(self):
        return tuple((FieldElem(self.ctx, c), e) for e, c in self._terms)

    def term_pairs(self):
        """(coeff_rep, exp) pairs, exponent ascending."""
        return tuple((c, e) for e, c in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return self._terms[-1][0] if self._terms else -1

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and other.ctx is self.ctx
                and other._terms == self._terms)

    def __hash__(self):
        return hash((id(self.ctx), self._terms))

    # -- evaluation ---------------------------------------------------------

    def eval_rep(self, x: int) -> int:
        ctx = self.ctx
        if x == 0:
            # only an exponent-0 term contributes; x^0 == 1 for every x
            return self._terms[0][1] if self._terms and self._terms[0][0] == 0 else 0
        acc = 0
        for e, c in self._terms:
            acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, e)))
        return acc

    def rep_fn(self):
        """A rep-level evaluator compiled against the context's log tables.

        Each term is kept as (log c, e mod (q-1)), so every power is one table
        index; the exponent-0 term is kept apart and is the value at 0.
        Characteristic 2 accumulates by XOR.  Above TABLE_LIMIT this is
        :meth:`eval_rep`.  Nothing is cached on the polynomial.
        """
        ctx = self.ctx
        if not ctx.ensure_tables():
            return self.eval_rep
        exp, log, n1 = ctx._exp, ctx._log, ctx.order - 1
        add = operator.xor if ctx.p == 2 else ctx.add
        c0, terms = self.log_terms()

        def f(x):
            if x == 0:
                return c0
            lx = log[x]
            acc = c0
            for lc, e in terms:
                acc = add(acc, exp[lc + lx * e % n1])
            return acc
        return f

    def log_terms(self):
        """(constant term, [(log c, e mod (q-1)) of the other terms]); needs tables."""
        log, n1 = self.ctx._log, self.ctx.order - 1
        return self.eval_rep(0), [(log[c], e % n1) for e, c in self._terms if e]

    def eval(self, x: FieldElem) -> FieldElem:
        if x.ctx is not self.ctx:
            raise CtxMismatch("evaluation point from a different context")
        return FieldElem(self.ctx, self.eval_rep(x.rep))

    __call__ = eval

    # -- ring operations ------------------------------------------------------

    def _other(self, other):
        if not isinstance(other, SparsePoly) or other.ctx is not self.ctx:
            raise CtxMismatch("polynomials from different contexts")
        return other

    def __add__(self, other):
        other = self._other(other)
        return SparsePoly(self.ctx, [(c, e) for e, c in self._terms]
                          + [(c, e) for e, c in other._terms])

    def __sub__(self, other):
        other = self._other(other)
        neg = self.ctx.neg
        return SparsePoly(self.ctx, [(c, e) for e, c in self._terms]
                          + [(neg(c), e) for e, c in other._terms])

    def __mul__(self, other):
        other = self._other(other)
        ctx = self.ctx
        if len(self._terms) * len(other._terms) > _EXPANSION_CAP:
            raise ValueError("polynomial product too large to expand")
        pairs = []
        for e1, c1 in self._terms:
            for e2, c2 in other._terms:
                pairs.append((ctx.mul(c1, c2), e1 + e2))
        return SparsePoly(ctx, pairs)

    def scale(self, c) -> "SparsePoly":
        if isinstance(c, FieldElem):
            c = c.rep
        ctx = self.ctx
        return SparsePoly(ctx, [(ctx.mul(c, cf), e) for e, cf in self._terms])

    def shift_x(self, r: int) -> "SparsePoly":
        """Multiply by x^r."""
        if r < 0:
            raise ValueError("negative shift")
        return SparsePoly._raw(self.ctx, [(e + r, c) for e, c in self._terms])

    def frobenius_power(self, i: int) -> "SparsePoly":
        """The polynomial f(x)**(p^i): exact identity in characteristic p."""
        ctx = self.ctx
        q = ctx.p ** i
        return SparsePoly(ctx, [(ctx.pow(c, q), e * q) for e, c in self._terms])

    def pow_charp(self, e: int) -> "SparsePoly":
        """f**e by base-p digit splitting; exact formal expansion."""
        if e < 0:
            raise ValueError("negative exponent")
        ctx = self.ctx
        result = SparsePoly.constant(ctx, 1)
        if e == 0:
            return result
        j = 0
        rest = e
        p = ctx.p
        while rest:
            rest, d = divmod(rest, p)
            if d:
                part = self
                for _ in range(d - 1):
                    part = part * self
                result = result * part.frobenius_power(j)
                if len(result) > _EXPANSION_CAP:
                    raise ValueError("expansion too large")
            j += 1
        return result

    def compose(self, inner: "SparsePoly") -> "SparsePoly":
        """f(inner(x)) as a formal polynomial."""
        inner = self._other(inner)
        ctx = self.ctx
        out = SparsePoly(ctx)
        for e, c in self._terms:
            out = out + inner.pow_charp(e).scale(c)
        return out

    def reduce_exponents(self, n: int) -> "SparsePoly":
        """Fold exponents mod n (nonzero exponents mapped into [1, n]).

        Only valid for evaluation on points of multiplicative order dividing
        n; the fold changes the value at 0 and at points of other orders.
        """
        if n < 1:
            raise ValueError("modulus must be positive")
        pairs = []
        for e, c in self._terms:
            if e == 0:
                pairs.append((c, 0))
            else:
                r = e % n
                pairs.append((c, r if r else n))
        return SparsePoly(self.ctx, pairs)

    def __repr__(self):
        return f"SparsePoly({self.pretty()})"

    def pretty(self) -> str:
        if not self._terms:
            return "0"
        ctx = self.ctx
        parts = []
        for e, c in reversed(self._terms):
            if c == 1:
                cs = "" if e else "1"
            else:
                cs = f"g^{ctx.dlog(c)}" if ctx.order <= TABLE_LIMIT else f"#{c}"
            if e == 0:
                xs = ""
            elif e == 1:
                xs = "x"
            else:
                xs = f"x^{e}"
            term = cs + ("*" if cs and xs else "") + xs
            parts.append(term if term else "1")
        return " + ".join(parts)
