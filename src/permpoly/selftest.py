"""Quick library self-check: a condensed battery of the invariant sweeps."""

from __future__ import annotations

import math
import random
from dataclasses import replace

from . import families as fam
from .field import make_field
from .oracle import VerifyReport, _sequential_scan, is_permutation, permutes_subset, zieve_split
from .solvers import quad_char2_roots


def _check(out, name, ok, note=""):
    out.write(f"selftest {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({note})" if note else "") + "\n")
    return ok


def run_selftest(out) -> bool:
    ok = True
    rng = random.Random(9)

    for p, k in ((2, 3), (2, 4), (3, 3), (5, 2), (7, 2)):
        ctx = make_field(p, k)
        ctx.ensure_tables()
        n1 = ctx.order - 1
        ok &= _check(out, f"GF({p}^{k}) unit order",
                     all(ctx.pow(a, n1) == 1 for a in range(1, ctx.order)))
        good = True
        for _ in range(200):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            if ctx.frobenius(ctx.add(a, b), 1) != ctx.add(ctx.frobenius(a, 1),
                                                          ctx.frobenius(b, 1)):
                good = False
            if ctx.frobenius(ctx.mul(a, b), 1) != ctx.mul(ctx.frobenius(a, 1),
                                                          ctx.frobenius(b, 1)):
                good = False
        ok &= _check(out, f"GF({p}^{k}) frobenius homomorphism", good)

    ctx = make_field(2, 4)
    images = {ctx.rel_trace(a, 1, 4) for a in range(16)}
    ok &= _check(out, "trace surjective GF(16)->GF(2)", images == {0, 1})

    f8 = make_field(2, 3)
    bad = 0
    for u in range(8):
        for v in range(8):
            roots = sorted(quad_char2_roots(f8.elem(u), f8.elem(v)).root_reps())
            brute = sorted(x for x in range(8)
                           if f8.add(f8.add(f8.mul(x, x), f8.mul(u, x)), v) == 0)
            bad += roots != brute
    ok &= _check(out, "quad solver vs enumeration GF(8)", bad == 0, f"bad={bad}")

    n = sum(1 for _, r in fam.enumerate_instances("F5", {"m": 3, "r": 4, "i": 3})
            if r.passed)
    ok &= _check(out, "F5 admissible count over GF(64)", n == 6, f"count={n}")

    dis = 0
    for params, r in fam.enumerate_instances("F4", {"m": 1}):
        verdict = is_permutation(fam.build("F4", params), make_field(2, 2)).is_permutation
        dis += r.passed != verdict
    ok &= _check(out, "F4 iff over GF(4)", dis == 0, f"disagreements={dis}")

    c64 = make_field(2, 6)
    vr = is_permutation(lambda x: 5 if x else 5, c64)
    ok &= _check(out, "constant-map witness",
                 not vr.is_permutation and vr.witness is not None
                 and vr.witness[0] != vr.witness[1])

    scans = (  # (check, GF(2^k), cases of (fid, params, block source)), each
        # report the sequential scan's; F4's D + 1 and 1 agree mod t = 85
        ("sweep scan equals sequential scan GF(256)", 8,
         [("F3", {"m": 4, "c": 1}, "log_order"), ("F4", {"m": 4, "b": 7}, "cosets")]),
        # F8's core over GF(2^12) splits with t = 63; gcd(3, 63) > 1 repeats in a coset
        ("coset sweep equals sequential scan GF(4096)", 12,
         [("F8", {"m": 6, "r": r, "s": 3, "a": 1, "delta": delta}, "cosets")
          for r, delta in ((11, 1), (5, 3), (3, 1))]),
        # F1's core x^16 + x + delta: fibres of ker = GF(16); c = 2 lies outside it
        ("fibre sweep equals sequential scan GF(4096)", 12,
         [("F1", {"m": 4, "delta": 5, "c": c}, "fibres") for c in (1, 2)]),
    )
    for name, k, cases in scans:
        ctx, same = make_field(2, k), True
        for fid, params, source in cases:
            fn = fam.evaluator(fid, params)
            vr = replace(is_permutation(fn, ctx), elapsed_ms=0.0)
            witness, evals = _sequential_scan(fn, ctx.order)
            same &= fn.bijective.__name__ == source
            same &= fn.bijective(fn, ctx.order) is (witness is None)
            same &= vr == VerifyReport("field", witness is None, witness, None, evals, 0.0)
        ok &= _check(out, name, same, f"{fid} witness={vr.witness}")

    ctx256 = make_field(2, 8)
    poly = fam.build("F3", {"m": 4, "c": 5})
    r, h = zieve_split(poly, 17)
    ok &= _check(out, "split of the GF(256) trinomial",
                 r == 1 and [e for _, e in h.term_pairs()] == [0, 6, 97])

    mu = ctx256.subgroup_reps(17)
    sub = permutes_subset(lambda y: ctx256.pow(y, 3), mu, ctx256)
    ok &= _check(out, "x^3 permutes the order-17 subgroup",
                 sub.is_permutation == (math.gcd(3, 17) == 1))

    out.write(f"selftest {'PASS' if ok else 'FAIL'}\n")
    return bool(ok)
