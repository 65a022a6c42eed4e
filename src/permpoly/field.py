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
from array import array
from functools import lru_cache, partial, reduce
from itertools import combinations, compress, repeat

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
# Above this order the exp/log tables are array('I'), up to it lists.  A list
# subscript is faster (Python 3.11 specialises it; an array subscript makes a
# new int) while the tables fit in a core's 2 MiB L2: list tables take about
# 88 bytes per field element, 1.4 MB at 2^14 and 2.9 MB at 2^15, arrays 12.
# Scanning a 3-term polynomial (Xeon, two sweeps), arrays took 1.10-1.31x the
# list time over GF(2^8..2^12), 0.86-1.30x over GF(2^13), GF(2^14) as other
# load on the cache varied, and 0.59-0.70x over GF(2^15), GF(2^16), GF(3^10).
LIST_TABLE_LIMIT = 1 << 14
# A block source that answers for a whole orbit of points from one computed
# value (the cosets' t-th roots of unity, the fibres' kernel of a linear
# core) is taken only when the group acting has at least this many elements:
# below it the set-up outweighs the points it saves.
_ORBIT_MIN = 16


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
    """Rabin's test for a monic polynomial over GF(p), coeffs index = degree.

    Runs on the raw ring arithmetic of GF(p)[x]/(m): m may be reducible, so
    only the table-free ``_pow_raw``, ``sub`` and ``decode`` are used.
    """
    mod = [v % p for v in coeffs]
    k = len(mod) - 1
    if k < 1 or mod[-1] != 1:
        return False
    if k == 1:
        return True
    ring = FieldCtx(p, k, mod, 1)  # rep p is x
    if ring._pow_raw(p, p ** k) != p:
        return False
    for ell in prime_factors(k):
        xd = ring.sub(ring._pow_raw(p, p ** (k // ell)), p)
        if len(_pgcd(ring.decode(xd), mod, p)) != 1:
            return False
    return True


def _linear_tables(images):
    """Byte tables of the GF(2)-linear map x^i -> images[i]: table j sends a
    byte v to the image of v * x^(8j), partial when 8 does not divide k."""
    out = []
    for i in range(0, len(images), 8):
        t = [0]
        for v in images[i:i + 8]:
            t += [w ^ v for w in t]
        out.append(tuple(t))
    return tuple(out)


def _apply(tabs, a):
    """a's image under ``_linear_tables``; ``_comb`` and ``_pow_raw`` inline
    this loop, as a call would add a third to a product's cost at k = 20."""
    s = 0
    for t in tabs:
        s ^= t[a & 255]
        a >>= 8
    return s


def _multiples(a):
    """a*v for the 16 binary polynomials v of degree < 4, unreduced."""
    a2, a4, a8 = a << 1, a << 2, a << 3
    a3, a5, a6, a7 = a2 ^ a, a4 ^ a, a4 ^ a2, a4 ^ a2 ^ a
    return (0, a, a2, a3, a4, a5, a6, a7,
            a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7)


def _strided(table, off, step, count):
    """[table[(off + j*step) % n] for j < count] as strided slices of a table
    holding n values twice (the antilog table, mu + mu), of its type.  A long
    stride is split into the m residue classes j = rho mod m of
    ``_residue_split``, whose short stride m*step slices downwards if negative."""
    n = len(table) // 2
    m, s = _residue_split(n, step % n)

    def run(a, k):  # k values from a, stride s
        if not s:
            return table[a % n:a % n + 1] * k
        out = table[0:0]
        while k > 0:
            a = a % n + (n if s < 0 else 0)
            part = table[a:a + k * s if a + k * s >= 0 else None:s]
            out += part
            k, a = k - len(part), a + len(part) * s
        return out

    if m == 1:
        return run(off, count)
    out = table[:1] * count
    for rho in range(min(m, count)):
        out[rho::m] = run(off + rho * step, len(range(rho, count, m)))
    return out


@lru_cache(maxsize=4096)  # bounded: one entry per period and stride met
def _residue_split(n1, step):
    """(m, s), m <= isqrt(n1) and s = m*step mod n1 taken in [-n1/2, n1/2):
    the least m with s short (64*|s| <= n1), else the shortest s."""
    best = (n1, 1, step)
    for m in range(1, math.isqrt(n1) + 1):
        s = (m * step + n1 // 2) % n1 - n1 // 2
        if 64 * abs(s) <= n1:
            return m, s
        best = min(best, (abs(s), m, s))
    return best[1:]


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
                 "_mod_int", "_bytes", "_exp", "_log", "_zech", "_lock", "_as_table")

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
        self._bytes = None
        self._exp = None
        self._log = None
        self._zech = None
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

    def _rep(self, x) -> int:
        """The rep of x, an element of this field or an int in [0, q):
        CtxMismatch for an element of another field, ValueError for
        anything else, a float or an int outside."""
        if isinstance(x, FieldElem):
            if x.ctx is not self:
                raise CtxMismatch("element from a different field context")
            return x.rep
        try:
            rep = operator.index(x)
        except TypeError:
            rep = -1
        if not 0 <= rep < self.order:
            raise ValueError(f"rep {x!r} out of range for GF({self.p}^{self.k})")
        return rep

    def elem(self, rep: int) -> "FieldElem":
        return FieldElem(self, self._rep(rep))

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    @property
    def gen(self) -> "FieldElem":
        return FieldElem(self, self.generator)

    # -- raw arithmetic (table-free) --------------------------------------

    def _byte_tables(self):
        """Byte tables (red, sq), built once: ``red[j][v] = (v << (k + 8j)) mod m``
        folds a product a byte at a time, ``sq[j][v] = (v << 8j)^2 mod m`` squares
        (squaring is GF(2)-linear).  Tables are spanned by the x^i mod m.  No
        lock: threads that race here build equal tuples, and one is kept.
        """
        if self._bytes is None:
            xp = self._shifts(1, 2 * self.k - 1)
            self._bytes = (_linear_tables(xp[self.k:]), _linear_tables(xp[::2]))
        return self._bytes

    def _shifts(self, c, n):
        """[c*x^i mod m for i < n] (p = 2) by shifts: ``_mul_raw`` needs tables built of them."""
        out = [c]
        for _ in range(n - 1):
            out.append(c := c << 1 ^ (self._mod_int if c >> self.k - 1 else 0))
        return out

    def _scaler(self, c):
        """z -> c*z for a fixed c: through the byte tables of the map on an
        untabled field of characteristic 2, else ``mul``."""
        if self.p == 2 and self._exp is None:
            return partial(_apply, _linear_tables(self._shifts(c, self.k)))
        return partial(self.mul, c)

    def _scale_column(self, c, col):
        """[c*z for z in col], z != 0: by log tables when built, else ``mul``."""
        if c == 1:
            return col
        if self._exp is not None:
            exp, log, lc = self._exp, self._log, self._log[c]
            return [exp[lc + log[z]] for z in col]
        mul = self.mul
        return [c if z == 1 else mul(c, z) for z in col]

    @lru_cache(maxsize=16)  # bounded: one entry per field and split met
    def _subgroup_index(self, d):
        """(mu, log_d, mu2) for the order-d subgroup, built once: mu is
        ``subgroup_reps(d)``, mu2 = mu + mu as an array('I') (packed by a
        copy, not value by value) and log_d(zs) the indices in mu of z^t, t =
        (q-1)/d, for the z != 0 of the list zs.  Callers must not mutate mu
        or mu2.

        Over GF(q^2) of characteristic 2 with d = q + 1, z^t depends only on
        the coset z*GF(q)*.  z's coordinates over GF(q) in the basis {1, x},
        b = (z + z^q)/(x + x^q) and a = z + x*b, are GF(2)-linear in z, so
        one ``_gf2_maps`` call each gives them on all of zs.  The coset is
        labelled t when b = 0, t + 1 when a = 0, else (log a - log b) mod t,
        logs in GF(q)* = mu_t.  gcd(t, d) = 1, so each coset holds one point
        w^j of mu, and its label is sent to t*j mod d.  Otherwise log_d reads
        the index in mu of pow(z, t), ``pow`` looked up on each call.
        """
        mu = self.subgroup_reps(d)
        mu2, t = array("I", mu + mu), (self.order - 1) // d
        q = t + 1
        if self.p != 2 or q * q != self.order:
            index = {y: j for j, y in enumerate(mu)}
            return mu, lambda zs: [index[self.pow(z, t)] for z in zs], mu2
        c = self._pow_raw(2 ^ self._pow_raw(2, q), self.order - 2)  # 1/(x + x^q)
        ib = [self._mul_raw(z ^ self._pow_raw(z, q), c) for z in (1 << i for i in range(self.k))]
        ia = [(1 << i) ^ self._mul_raw(2, b) for i, b in enumerate(ib)]  # x^i's a and b
        lq = {v: i for i, v in enumerate(self.subgroup_reps(t))}
        by_label = list(range(d))  # the labels themselves, until mu is labelled

        def coset_log(zs):
            return [by_label[t if not b else t + 1 if not a else (lq[a] - lq[b]) % t]
                    for a, b in zip(self._gf2_maps(ia, zs), self._gf2_maps(ib, zs))]
        labels = coset_log(mu)
        assert len(set(labels)) == d
        for j, label in enumerate(labels):
            by_label[label] = t * j % d
        return mu, coset_log, mu2

    def _comb(self, tab, b):
        """a*b mod m from tab = _multiples(a): a 4-bit comb over b, then a byte fold."""
        acc = s = 0
        while b:
            acc ^= tab[b & 15] << s
            b >>= 4
            s += 4
        hi = acc >> self.k
        acc &= self.order - 1
        for t in (self._bytes or self._byte_tables())[0]:
            acc ^= t[hi & 255]
            hi >>= 8
        return acc

    def _mul_raw(self, a, b):
        if self.p == 2:
            return self._comb(_multiples(a), b)
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
        if self.p == 2 and e:  # left to right: table squares, products by a's comb
            sq, tab, r = self._byte_tables()[1], _multiples(a), a
            for bit in bin(e)[3:]:
                s = 0
                for t in sq:
                    s ^= t[r & 255]
                    r >>= 8
                r = self._comb(tab, s) if bit == "1" else s
            return r
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

    @property
    def _sum(self):
        """The sum a compiled loop binds: XOR in characteristic 2, else
        ``add``, looked up on each read so that a patched ``add`` is seen."""
        return operator.xor if self.p == 2 else self.add

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        t = self._exp
        if t is not None:  # Zech log: a + b = a * (1 + b/a)
            if a == 0 or b == 0:
                return a or b
            lg = self._log
            la = lg[a]
            z = self._zech[lg[b] - la]  # a negative index wraps mod q-1
            return 0 if z is None else t[la + z]
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
        t = self._exp
        if t is not None:  # -1 = g^((q-1)/2)
            return t[self._log[a] + (self.order - 1) // 2] if a else 0
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

    def _check_tower(self, a: int, m: int, n: int | None) -> int:
        """n (k when None), once m | n | k and a lies in the GF(p^n) subfield."""
        n = self.k if n is None else n
        if m < 1 or n % m or self.k % n:
            raise DegreeMismatch(f"need m | n | k, got m={m} n={n} k={self.k}")
        if self.pow(a, self.p ** n) != a:
            raise DegreeMismatch(f"element {a} not in GF({self.p}^{n}) subfield")
        return n

    def rel_trace(self, a: int, m: int, n: int | None = None) -> int:
        """Trace from GF(p^n) onto GF(p^m); a must lie in the GF(p^n) subfield."""
        n = self._check_tower(a, m, n)
        step = self.p ** m
        acc = a
        cur = a
        for _ in range(n // m - 1):
            cur = self.pow(cur, step)
            acc = self.add(acc, cur)
        return acc

    def norm(self, a: int, m: int, n: int | None = None) -> int:
        """Norm from GF(p^n) onto GF(p^m); multiplicative."""
        n = self._check_tower(a, m, n)
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
        step = self._scaler(self.pow(self.generator, n1 // d))
        out = [1]
        for _ in range(d - 1):
            out.append(step(out[-1]))
        assert len(set(out)) == d
        return out

    def _kernel_split(self, images):
        """Bases (kernel, complement) of the GF(p)-linear map sending the
        digit basis vector p^i (the rep of x^i) to images[i].

        The images are row-reduced in turn, each kept row monic at its
        highest digit and paired with its preimage.  An image that reduces
        to 0 gives a kernel vector, its reduced preimage; one that does not
        adds p^i to the complement.  The complement's images are independent,
        so it meets the kernel in 0 only, and the two span the field.
        """
        p = self.p
        rows, kernel, complement = [], [], []  # rows: (pivot p^j, image, preimage)

        def minus(v, a, w):  # v - a*w, a in GF(p)
            return self.sub(v, w if a == 1 else self.mul(a, w))
        for i, v in enumerate(images):
            pre = p ** i
            for w, img, x in rows:  # highest pivot first: a row's digits above its pivot are 0
                a = v // w % p
                if a:
                    v, pre = minus(v, a, img), minus(pre, a, x)
            if not v:
                kernel.append(pre)
                continue
            w = 1
            while w * p <= v:
                w *= p
            a = pow(v // w, p - 2, p)  # makes the row monic at its top digit
            rows.append((w, self.mul(a, v), self.mul(a, pre)))
            rows.sort(reverse=True)
            complement.append(p ** i)
        return kernel, complement

    def _span(self, basis, origin=0):
        """origin plus every GF(p)-combination of ``basis``, as a list of
        reps: entry n takes the digits of n in base p as the coefficients,
        so the list is linear in the basis, entry by entry."""
        add = self._sum
        out = [origin]
        for b in basis:
            out += [add(x, y) for y in [b] + [self.mul(a, b) for a in range(2, self.p)]
                    for x in out]
        return out

    def _trace_fibres(self, terms, fn):
        """The block source ``trace_fibres`` of f, the polynomial of the (e, c)
        ``terms`` with evaluator fn, once T(f(x)) = s*T(x) is proven for T the
        trace onto GF(2^d): d is the first to pass of the proper divisors of k
        with |ker T| = 2^(k-d) >= _ORBIT_MIN, largest first; None if none does.

        The proof: p = 2; every exponent of f has binary weight <= 2, so the
        polar form B(a, b) = f(a+b) + f(a) + f(b) + f(0) is GF(2)-bilinear;
        the sum of the f^(2^(dj)), j < k/d, its exponents folded mod q-1, is
        s*T, s its coefficient of x; and B vanishes on pairs of basis vectors
        of K = ker T (``_kernel_split`` of T's images).  Then f sends the fibre
        x0 + K into that of s*T(x0), and f(x0 + b) = f(x0) + A(b) + B(x0, b)
        with A(b) = f(b) + f(0) GF(2)-linear on K (Akbary-Ghioca-Wang).

        ``trace_fibres(f, q)`` is False when q is not the order or s = 0 (f
        lands in K), else True exactly when, at every rep x0 in the span of
        K's complement, the images A(b_i) + B(x0, b_i) of K's basis are
        independent.  B(x0, b_i) is linear in x0: one ``_span`` per b_i of
        the B(c_j, b_i), read from f at 0, at both bases and at their sums.
        It holds no f.
        """
        k = self.k
        ds = [d for d in range(k - 1, 0, -1) if not k % d and 2 ** (k - d) >= _ORBIT_MIN]
        if self.p != 2 or not ds or any(e.bit_count() > 2 for e, _ in terms):
            return None
        f = SparsePoly._raw(self, terms)
        for d in ds:
            trace = SparsePoly._raw(self, [(2 ** (d * j), 1) for j in range(k // d)])
            conj = reduce(operator.add, [f.frobenius_power(d * j) for j in range(k // d)])
            conj = conj.reduce_exponents(self.order - 1)
            s = dict(conj._terms).get(1, 0)
            if conj != trace.scale(s):
                continue
            kernel, complement = self._kernel_split([trace.eval_rep(1 << i) for i in range(k)])
            f0, fk = fn(0), [fn(b) for b in kernel]
            if not any(fn(a ^ b) ^ fa ^ fb ^ f0
                       for (a, fa), (b, fb) in combinations(zip(kernel, fk), 2)):
                break
        else:
            return None

        def trace_fibres(f, q):
            if q != self.order or not s:
                return False
            f0, fc = f(0), [f(c) for c in complement]
            cols = [self._span([f(b ^ c) ^ fb ^ v ^ f0 for c, v in zip(complement, fc)], fb ^ f0)
                    for b, fb in zip(kernel, map(f, kernel))]
            for images in zip(*cols):  # K's basis at one rep x0
                pivots = {}
                for v in images:
                    while v and (w := pivots.get(v.bit_length())):
                        v ^= w
                    if not v:
                        return False
                    pivots[v.bit_length()] = v
            return True
        return trace_fibres

    def _linear(self, images):
        """The GF(p)-linear map sending the rep p^i to images[i], on a list of
        reps: one ``_gf2_maps`` call in characteristic 2, else digit by digit
        from each image's multiples, value by value."""
        if self.p == 2:
            return partial(self._gf2_maps, images)
        p, add, tabs = self.p, self._sum, [self._span([v]) for v in images]

        def linear(a):
            acc = 0
            for t in tabs:
                a, d = divmod(a, p)
                if d:
                    acc = add(acc, t[d])
            return acc
        return lambda vals: list(map(linear, vals))

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
        """Build log/antilog (odd p: also Zech-log) tables once, up to TABLE_LIMIT.

        exp and log are lists up to LIST_TABLE_LIMIT and array('I') above it,
        built in place; zech is a list, as None marks its one missing entry.
        """
        if self._exp is not None:
            return True
        if self.order > TABLE_LIMIT:
            return False
        with self._lock:
            if self._exp is not None:
                return True
            n1 = self.order - 1
            if self.order > LIST_TABLE_LIMIT:
                exp, log = array("I", [1]) * (2 * n1), array("I", [0]) * self.order
            else:
                exp, log = [1] * (2 * n1), [0] * self.order
            g, cur = self.generator, 1
            if self.p == 2:  # z -> g*z through its byte tables: k <= 16, so one or two
                tabs = _linear_tables(self._shifts(g, self.k))
                lo, hi = tabs if len(tabs) == 2 else (tabs[0], (0,))
                for i in range(1, n1):
                    cur = lo[cur & 255] ^ hi[cur >> 8]
                    exp[i] = cur
            else:
                for i in range(1, n1):
                    cur = self._mul_raw(cur, g)
                    exp[i] = cur
            exp[n1:] = exp[:n1]
            for i in range(n1):
                log[exp[i]] = i
            if self.p != 2:
                # zech[n] = log(1 + g^n); adding 1 changes digit 0 only, and
                # 1 + g^n = 0 at n = (q-1)/2, where zech holds None
                p = self.p
                self._zech = [log[w] if w else None for w in
                              (v - v % p + (v + 1) % p for v in exp[:n1])]
            self._log = log
            self._exp = exp  # published last; add/mul/pow key off _exp
        return True

    def _add_columns(self, cols):
        """The sum of equal-length columns, as a list: on the array('I') tables
        of characteristic 2 one XOR of their words packed into ints (XOR is
        bitwise, so no word carries); else a fold by ``_sum``, faster on lists."""
        if self.p != 2 or isinstance(self._exp, list):
            return list(reduce(partial(map, self._sum), cols))
        words = [col if isinstance(col, array) else array("I", col) for col in cols]
        acc = reduce(operator.xor, [int.from_bytes(w, "little") for w in words])
        return array("I", acc.to_bytes(len(words[0]) * words[0].itemsize, "little")).tolist()

    def _gf2_maps(self, images, vals):
        """[L(v) for v in vals], L the GF(2)-linear map x^i -> images[i].  vals
        is packed in the 32-bit slots of one int P: L(P) is the XOR over i of
        ((P >> i) & ones) * images[i], whose slots hold an image or 0, so none
        carries.  Unpacked once."""
        width = array("I").itemsize
        assert self.p == 2 and self.k <= 8 * width  # DEFAULT_SIZE_LIMIT keeps k <= 24
        P, acc = int.from_bytes(array("I", vals), "little"), 0
        ones = int.from_bytes(array("I", [1]) * len(vals), "little")
        for v in images:
            acc ^= (P & ones) * v
            P >>= 1
        return array("I", acc.to_bytes(len(vals) * width, "little")).tolist()

    def _mu_sweep(self, mu2, terms):
        """[h(w^j) for j < d], mu2 = mu + mu (mu_d twice), mu = [w^j for j < d],
        h the (e, c) ``terms``, whose coefficients of one exponent sum.  With
        log tables h, compiled from its summed terms (``SparsePoly._point_fn``),
        maps mu point by point, as h may have d terms.  Without, term (e, c) is
        the column c * mu[j*e mod d] of ``_strided`` slices of mu2, read by index
        alone: scaled and summed (``_scale_column``, ``_add_columns``) in odd
        characteristic; in characteristic 2 packed in the 32-bit slots of one
        int and XORed into plane i for every bit x^i of c, then Horner's rule
        from the top plane, acc = x*acc + plane, doubles every slot at once (k
        steps for all of h; k < 32 keeps a doubled value in its slot)."""
        d = len(mu2) // 2
        if self.ensure_tables():
            acc, add = {}, self._sum
            for e, c in terms:
                acc[e] = add(acc.get(e, 0), c)
            return list(map(SparsePoly._collect(self, acc)._point_fn()[0], mu2[:d]))
        if self.p != 2:
            cols = [(c, _strided(mu2, 0, e, d)) for e, c in terms] or [(1, [0] * d)]
            return self._add_columns([self._scale_column(c, col) for c, col in cols])
        width, k = array("I").itemsize, self.k
        assert k < 8 * width
        planes, ones = [0] * k, int.from_bytes(array("I", [1]) * d, "little")
        for e, c in terms:
            col = int.from_bytes(array("I", _strided(mu2, 0, e, d)), "little")
            for i in range(c.bit_length()):
                if c >> i & 1:
                    planes[i] ^= col
        low, red, acc = ones * ((1 << k) - 1), self._mod_int ^ 1 << k, 0
        for plane in reversed(planes):
            acc <<= 1
            acc = acc & low ^ (acc >> k & ones) * red ^ plane
        return array("I", acc.to_bytes(d * width, "little")).tolist()

    def _log_sweep(self, c0, terms, i0, count):
        """c0 + sum(c*x^e) at g^i, i0 <= i < i0 + count, for the terms given
        as (log c, e mod (q-1)): ``_add_columns`` of an antilog ``_strided`` each, and c0."""
        cols = [_strided(self._exp, lc + i0 * e, e, count) for lc, e in terms]
        if c0 or not cols:
            cols.append(repeat(c0, count))
        return self._add_columns(cols)

    def _log_order(self, columns):
        """``log_order``, the block source of an evaluator f on this tabled
        field: a function ``bijective(f, q)``, True exactly when q is the
        field's order and f's q images are distinct and in [0, q), with
        ``columns(i0, count)`` = [f(g^i) for i0 <= i < i0 + count].  It marks
        f(0), then the columns in blocks growing from 256 to 4096 logs, in a
        bytearray(q), and answers False at the first image that repeats or
        leaves the field.  It does not close over f, which holds it: such a
        reference cycle per compile, and its garbage collection, tripled the
        cost of ``SparsePoly.rep_fn``.
        """
        n1 = self.order - 1

        def log_order(f, q):
            if q != self.order:
                return False
            seen, block, i, size = bytearray(q), (f(0),), 0, 256
            while block:
                try:
                    for y in block:
                        if seen[y]:
                            return False
                        seen[y] = 1
                except IndexError:  # an image past the field
                    return False
                block = columns(i, min(size, n1 - i)) if i < n1 else None
                i, size = i + size, min(2 * size, 4096)
            return True
        return log_order

    def _cosets(self, terms, r=0, E=1, sweep=None):
        """``cosets``, the block source of f = c0 * x^r * k(x)^E, k the
        polynomial of the (e, c) ``terms``, when t = ``_split_step(terms)`` >=
        _ORBIT_MIN; else None.  It answers by :meth:`_zieve`, ``sweep`` k's
        ``_log_sweep`` on a tabled field, else None."""
        t = self._split_step(terms)
        if t < _ORBIT_MIN:
            return None

        def cosets(f, q):
            return q == self.order and self._zieve(terms, t, r, E, sweep)
        return cosets

    def _zieve(self, terms, t, r, E, sweep):
        """Zieve's criterion (Proc. AMS 137, 2009; Park-Lee, Bull. Austral.
        Math. Soc. 63, 2001): f = c0 * x^r * k(x)^E, k = x^e0 * K(x^t) the
        polynomial of the (e, c) ``terms`` and t dividing q-1, permutes GF(q)
        exactly when gcd(a, t) = 1 for a = r + E*e0, K has no zero on mu_d =
        [w^j for j < d] (d = (q-1)/t, w = g^t), and the labels log c0 + a*j +
        E*log K(w^j) mod d are distinct: f maps the coset g^j * mu_t into the
        coset of g to the label, and f(0) = 0 lies in none (a != 0 mod t).
        log c0 shifts every label alike, so it is not read.

        The gcds come first: gcd(a, t), then gcd(a, d) when E = 0 mod d (all
        of F8-F11), whose labels a*j need no log.  Tabled, the head k(g^j), j
        < d, is one call (0, d) of k's ``_log_sweep`` ``sweep``, labelled by
        ``_log`` with step r (log k(g^j) = e0*j + log K(w^j)); untabled
        (None), :meth:`_mu_labels` gives K on mu_d and its labels, step a.
        """
        e0 = terms[0][0] if terms else 0
        d, a = (self.order - 1) // t, r + E * e0
        E %= d
        if math.gcd(a, t) != 1 or not E and math.gcd(a, d) != 1:
            return False
        if sweep is None:
            (vals, label), step = self._mu_labels(terms, e0, d, E), a
        else:
            vals, label, step = sweep(0, d), self._log, r
        if not all(vals):
            return False
        return not E or len({(step * j + E * label[v]) % d for j, v in enumerate(vals)}) == d

    def _mu_labels(self, terms, e0, d, E=1):
        """(vals, label): vals = [K(w^j) for j < d] from one ``_mu_sweep``, K
        k's (e, c) ``terms`` folded to (e - e0)/t mod d, t = (q-1)/d, and
        label[v] = log v mod d, the index in mu of v^t, read by one call of
        ``_subgroup_index(d)``'s log_d on the distinct nonzero v; None for E =
        0, a caller's exponent mod d, whose labels E*log v need no log.
        """
        t = (self.order - 1) // d
        _, log_d, mu2 = self._subgroup_index(d)
        vals = self._mu_sweep(mu2, [((e - e0) // t % d, c) for e, c in terms])
        if not E:
            return vals, None
        distinct = [v for v in set(vals) if v]
        return vals, dict(zip(distinct, log_d(distinct)))

    def _split_step(self, terms):
        """t = gcd(q-1, e - e0 for the exponents e of the (e, c) ``terms``),
        e0 the first: the largest t with f = x^e0 * h(x^t) (Zieve's split),
        q-1 when there are no terms."""
        e0 = terms[0][0] if terms else 0
        return math.gcd(self.order - 1, *(e - e0 for e, _ in terms))

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
def _modulus(p, k, modulus):
    """The modulus of GF(p^k), checked: ``modulus`` reduced mod p, or the
    least monic irreducible when it is None."""
    if p < 2:  # the size loop below stops only for p >= 2
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    order = 1
    for _ in range(k):  # stops within log2(DEFAULT_SIZE_LIMIT) steps; no huge p^k
        order *= p
        if order > DEFAULT_SIZE_LIMIT:
            raise SizeLimitExceeded(f"{p}^{k} exceeds limit {DEFAULT_SIZE_LIMIT}")
    if prime_factors(p) != [p]:
        raise NotPrime(f"{p} is not prime")
    if modulus is not None:
        mod = tuple(c % p for c in modulus)
        if len(mod) != k + 1 or mod[k] != 1:
            raise ValueError(f"modulus must be monic of degree {k}")
        if not is_irreducible(list(mod), p):
            raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")
        return mod
    for n in range(order):  # n's base-p digits are the low coefficients
        cand = [n // p ** i % p for i in range(k)] + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    # cannot happen: irreducibles exist for every degree
    raise ReducibleModulus(f"no irreducible of degree {k} over GF({p})")


@lru_cache(maxsize=None)
def _field(p, k, mod):
    """The one context of GF(p^k) mod ``mod``, a checked modulus."""
    ctx = FieldCtx(p, k, mod, 1)
    # least-rep element of full multiplicative order
    n1 = ctx.order - 1
    gen = 1
    if n1 > 1:
        factors = prime_factors(n1)
        for rep in range(2, ctx.order):
            if all(ctx._pow_raw(rep, n1 // ell) != 1 for ell in factors):
                gen = rep
                break
    return FieldCtx(p, k, mod, gen)


def make_field(p: int, k: int, modulus=None) -> FieldCtx:
    """Build (or fetch the cached) GF(p^k) context.

    When ``modulus`` is omitted the lexicographically least monic irreducible
    is selected.  Calls that name the same field, p, k and modulus, the
    default one given or not, return the identical context object, so
    element reps are stable.  Fields above DEFAULT_SIZE_LIMIT are refused.
    """
    return _field(p, k, _modulus(p, k, None if modulus is None else tuple(modulus)))


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

    def _binary(name, reflected=False):
        """The operator ``ctx.<name>(self, other)``, or reflected; other is an
        element of the same field or an int in [0, p), a prime-field constant."""
        def op(self, other):
            if isinstance(other, FieldElem):
                r = self.ctx._rep(other)
            elif isinstance(other, int) and 0 <= other < self.ctx.p:
                r = other
            else:
                return NotImplemented
            a, b = (r, self.rep) if reflected else (self.rep, r)
            return FieldElem(self.ctx, getattr(self.ctx, name)(a, b))
        return op

    __add__ = __radd__ = _binary("add")
    __sub__ = _binary("sub")
    __rsub__ = _binary("sub", reflected=True)
    __mul__ = __rmul__ = _binary("mul")
    __truediv__ = _binary("div")
    __rtruediv__ = _binary("div", reflected=True)
    del _binary

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


def _sorted_columns(acc):
    """(exps, cs) of an {exponent: coefficient} dict, sorted, zero sums dropped."""
    exps = sorted(acc)
    cs = list(map(acc.__getitem__, exps))
    return (list(compress(exps, cs)), list(compress(cs, cs))) if 0 in cs else (exps, cs)


class SparsePoly:
    """f(x) = sum(coeff * x^exp) with huge exponents allowed.

    Terms are normalized: exponents strictly increasing, no zero
    coefficients.  Coefficients are stored as integer reps;
    :meth:`term_pairs` yields (coeff_rep, exp) pairs.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: FieldCtx, terms=()):
        self.ctx = ctx
        acc: dict[int, int] = {}
        for coeff, exp in terms:
            coeff = ctx._rep(coeff)
            if exp < 0:
                raise ValueError("negative exponent")
            acc[exp] = ctx.add(acc.get(exp, 0), coeff)
        self._terms = SparsePoly._collect(ctx, acc)._terms

    @classmethod
    def _raw(cls, ctx, sorted_pairs):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = tuple(sorted_pairs)
        return obj

    @classmethod
    def _collect(cls, ctx, acc):
        """The polynomial of an {exponent: coefficient} dict (``_sorted_columns``).
        The pairs are listed first: ``tuple`` of a zip starts at ten slots and
        shrinks, which raised the peak RSS of four ``run_all()`` by 0.5 MiB."""
        return cls._raw(ctx, list(zip(*_sorted_columns(acc))))

    def _columns(self):
        return tuple(zip(*self._terms)) or ((), ())  # (exps, cs)

    @staticmethod
    def _product(ctx, a, b, too_large="polynomial product too large to expand"):
        """The product of (exps, cs) columns a and b, as columns; ValueError
        before any is built when their lengths multiply past _EXPANSION_CAP.
        Each term c*x^s of the shorter shifts the longer into a sorted run,
        its coefficients scaled once (``FieldCtx._scale_column``); the first
        run fills a dict with no lookups, the others add into it."""
        if len(a[0]) * len(b[0]) > _EXPANSION_CAP:
            raise ValueError(too_large)
        if len(a[0]) > len(b[0]):
            a, b = b, a
        exps, cs = b
        runs = (zip(map(s.__add__, exps), ctx._scale_column(t, cs)) for s, t in zip(*a))
        acc = dict(next(runs, ()))
        get, add = acc.get, ctx._sum
        for run in runs:
            for e, v in run:
                acc[e] = add(get(e, 0), v)
        return _sorted_columns(acc)

    @classmethod
    def x(cls, ctx) -> "SparsePoly":
        return cls(ctx, [(1, 1)])

    @classmethod
    def constant(cls, ctx, c) -> "SparsePoly":
        return cls(ctx, [(c, 0)])

    def term_pairs(self):
        """(coeff_rep, exp) pairs, exponent ascending."""
        return tuple((c, e) for e, c in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

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
        Characteristic 2 accumulates by XOR.  ``f.sweep(i0, count)`` gives
        f(g^i) for i0 <= i < i0 + count from table columns (``_log_sweep``).
        Above TABLE_LIMIT f is :meth:`eval_rep`, with no sweep.

        ``f.bijective(f, q)``, True exactly when f is a bijection, is on every
        field ``cosets`` when the exponents split with t = gcd(q-1, e - e0) >=
        16 (``FieldCtx._cosets``, which reads only exponents), else
        ``trace_fibres`` when ``FieldCtx._trace_fibres`` proves a trace
        reduction of f, else, tabled, ``log_order`` (``FieldCtx._log_order``).
        With none, f is the bound :meth:`eval_rep`.  Nothing is cached.
        """
        ctx, f, sweep = self.ctx, self.eval_rep, None
        if ctx.ensure_tables():
            f, c0, terms = self._point_fn()
            f.sweep = sweep = partial(ctx._log_sweep, c0, terms)
        source = (ctx._cosets(self._terms, sweep=sweep) or ctx._trace_fibres(self._terms, f)
                  or sweep and ctx._log_order(sweep))
        if not source:
            return f
        if sweep is None:
            f = partial(f)  # a bound method takes no attributes
        f.bijective = source
        return f

    def _point_fn(self):
        """(f, c0, terms) on a tabled field: :meth:`rep_fn`'s evaluator f, with
        no sweep or block source, its value c0 at 0 and its terms."""
        ctx = self.ctx
        exp, log, n1, add = ctx._exp, ctx._log, ctx.order - 1, ctx._sum
        c0 = self.eval_rep(0)
        terms = [(log[c], e % n1) for e, c in self._terms if e]

        def f(x):
            if x == 0:
                return c0
            lx = log[x]
            acc = c0
            for lc, e in terms:
                acc = add(acc, exp[lc + lx * e % n1])
            return acc
        return f, c0, terms

    def eval(self, x: FieldElem) -> FieldElem:
        return FieldElem(self.ctx, self.eval_rep(self.ctx._rep(x)))

    __call__ = eval

    # -- ring operations ------------------------------------------------------

    def _other(self, other):
        if not isinstance(other, SparsePoly) or other.ctx is not self.ctx:
            raise CtxMismatch("polynomials from different contexts")
        return other

    def _combine(self, other, op):
        """self and other merged term by term, op(c1, c2) on shared exponents."""
        other = self._other(other)
        acc = dict(self._terms)
        get = acc.get
        for e, c in other._terms:
            acc[e] = op(get(e, 0), c)
        return SparsePoly._collect(self.ctx, acc)

    def __add__(self, other):
        return self._combine(other, self.ctx._sum)

    def __sub__(self, other):
        return self._combine(other, self.ctx.sub)

    def __mul__(self, other):
        """The formal product (kernel ``_product``)."""
        columns = SparsePoly._product(self.ctx, self._columns(), self._other(other)._columns())
        return SparsePoly._raw(self.ctx, zip(*columns))

    def scale(self, c) -> "SparsePoly":
        c, (exps, cs) = self.ctx._rep(c), self._columns()
        return SparsePoly._raw(self.ctx, zip(exps, self.ctx._scale_column(c, cs)) if c else ())

    def frobenius_power(self, i: int) -> "SparsePoly":
        """The polynomial f(x)**(p^i): exact identity in characteristic p."""
        ctx = self.ctx
        return SparsePoly._raw(ctx, zip(*SparsePoly._frobenius(ctx, self._columns(), ctx.p ** i)))

    @staticmethod
    def _frobenius(ctx, columns, q):
        """The (exps, cs) columns of f**q, q a power of p: e -> e*q, c -> c^q
        (which keeps coefficients nonzero and exponents in order)."""
        return [e * q for e in columns[0]], [ctx.pow(c, q) for c in columns[1]]

    def pow_charp(self, e: int, *, shift: int = 0, scale=1) -> "SparsePoly":
        """scale * x^shift * f**e, expanded by base-p digits from the monomial
        scale*x^shift (so shift and scale copy no terms): a digit d at p^j
        takes f**d (d - 1 products) to the p^j by ``_frobenius``.
        Every product is ``_product``, capped before it is built."""
        if e < 0 or shift < 0:
            raise ValueError("negative exponent or shift")
        ctx = self.ctx
        scale = ctx._rep(scale)
        result = ([shift], [scale]) if scale else ((), ())
        base, p, j = self._columns(), ctx.p, 0
        while e:
            e, d = divmod(e, p)
            if d:
                part = base
                for _ in range(d - 1):
                    part = SparsePoly._product(ctx, part, base, "expansion too large")
                if j:
                    part = SparsePoly._frobenius(ctx, part, p ** j)
                result = SparsePoly._product(ctx, result, part, "expansion too large")
            j += 1
        return SparsePoly._raw(ctx, zip(*result))

    def compose(self, inner: "SparsePoly") -> "SparsePoly":
        """f(inner(x)) as a formal polynomial."""
        inner = self._other(inner)
        out = SparsePoly(self.ctx)
        for e, c in self._terms:
            out = out + inner.pow_charp(e, scale=c)
        return out

    def reduce_exponents(self, n: int) -> "SparsePoly":
        """Fold exponents mod n (nonzero exponents mapped into [1, n]).

        Only valid for evaluation on points of multiplicative order dividing
        n; the fold changes the value at 0 and at points of other orders.
        """
        if n < 1:
            raise ValueError("modulus must be positive")
        add = self.ctx._sum
        acc: dict[int, int] = {}
        for e, c in self._terms:
            if e:
                e = e % n or n
            acc[e] = add(acc.get(e, 0), c)
        return SparsePoly._collect(self.ctx, acc)

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
