"""Pinned verdicts of the command line and the split, one row per pin.

Run from the repository root:

    PYTHONPATH=src python .github/pins.py

A row is (argv, exit code, fields, reason).  argv runs under this Python in
a fresh process: ``verify(...)`` is ``permpoly verify --output json``, whose
``oracle`` object holds the fields; ``split(...)`` and ``literal(...)`` run
this script again, which prints ``zieve_verdict`` or ``is_permutation`` of
the family's literal polynomial as JSON.  Every pin prints its output, and
the script exits 1 when an exit code or a field differs from its row.
"""

import json
import subprocess
import sys


def verify(fid, **params):
    args = [a for name, v in params.items() for a in ("--param", f"{name}={v}")]
    return ["-m", "permpoly", "verify", "--family", fid, *args, "--output", "json"]


def split(fid, **params):
    return [__file__, "split", fid, json.dumps(params)]


def literal(fid, **params):
    return [__file__, "literal", fid, json.dumps(params)]


def _perm(q):
    return {"is-permutation": True, "evaluations": q}


def _collision(x1, x2):
    return {"witness": [x1, x2], "evaluations": x2 + 1}


def _split(verdict, d, t, **more):
    return {"verdict": verdict, "d": d, "t": t, **more}


F8_16 = {"m": 8, "r": 7, "s": 3, "delta": 3}
F8_20 = {"m": 10, "r": 13, "s": 3, "delta": 2}
F6_81 = {"q": 81, "case": "power", "i": 1, "delta": 5}
F7_16 = {"q": 16, "case": "power", "i": 1, "delta": 9}

PINS = [
    (verify("F4", m=8, b=7), 1, _collision(497, 532),
     "two labels of F4's three cosets of mu_21845 agree: the cosets answer False from the head"),
    (verify("F2", m=5, c=11), 1, _collision(203, 263),
     "c = 11 lies outside GF(32): no trace degree is proven, and log order marks a repeat"),
    (verify("F2", m=5, c=1), 0, _perm(1 << 15),
     "c = 1: T onto GF(32) is proven, and the trace fibres answer from 32 rank checks"),
    (verify("F2", m=6, c=1), 0, _perm(1 << 18),
     "trace fibres above the table limit, GF(2^18): 64 rank checks where a scan took seconds"),
    (literal("F2", m=6, c=1), 0, dict(_perm(1 << 18), source="trace_fibres"),
     "the literal F2 polynomial finds the same trace degree, with no registry datum"),
    (verify("F8", **F8_16, a=1), 0, _perm(1 << 16),
     "F8's core splits with t = 255: distinct head labels keep the 257 cosets apart"),
    (verify("F8", **F8_16, a=2), 1, _collision(0, 1),
     "1 + a + delta = 0 sends the coset of 1 to 0: the cosets answer False at that head value"),
    (verify("F8", **F8_20, a=9), 0, _perm(1 << 20),
     "cosets above the table limit, GF(2^20): E = 0 mod d = 1025, K read by one packed sweep"),
    (verify("F8", **F8_20, a=3), 1, _collision(0, 1),
     "K vanishes at 1 in mu_1025: the cosets answer False, the scan gives f(0) = f(1)"),
    (verify("F3", m=10, c=7), 0, _perm(1 << 20),
     "a literal polynomial's cosets above the table limit: F3 splits with t = 1023, d = 1025"),
    (verify("F4", m=9, b=2), 0, _perm(1 << 18),
     "F4 over GF(2^18) splits with t = 87381 and d = 3"),
    (verify("F5", m=10, r=7, i=3, b=5), 1, _collision(605, 857),
     "two labels of the binomial's cosets agree over GF(2^20)"),
    (verify("F5", m=8, r=3, i=2, b=5), 1, _collision(161, 268),
     "gcd(a, t) = gcd(3, 255) = 3 repeats an image inside every coset"),
    (verify("F1", m=6, c=1, delta=5), 0, _perm(1 << 18),
     "F1's core x^64 + x + delta: 4096 fibres of GF(64), from untabled values over GF(2^18)"),
    (verify("F1", m=5, c=2, delta=5), 1, _collision(49, 50),
     "c = 2 lies outside GF(32): the labels of two fibres mod c*K collide"),
    (verify("F6", **F6_81, c=1), 0, _perm(3 ** 12),
     "odd characteristic above the table limit, GF(3^12): fibres of GF(81) from 6561 values"),
    (verify("F6", **F6_81, c=3), 1, _collision(264, 2751),
     "c = 3 lies outside GF(81): two fibre labels collide in the third chunk of reps"),
    (verify("F7", **F7_16, c=1), 0, _perm(1 << 16),
     "fibres on GF(2^16) with |K| = 16: 4096 values from spans, no image computed"),
    (verify("F7", **F7_16, c=2), 1, _collision(411, 514),
     "c = 2 lies outside GF(16): two labels collide in the chunk of reps 256..511"),
    (split("F8", **F8_16, a=1), 0, _split(True, 257, 255),
     "GF(2^16): h swept point by point, h(y)^t indexed by the coset of h(y) mod GF(256)*"),
    (split("F8", **F8_16, a=2), 0, _split(False, 257, 255, subgroup=False),
     "h(1) = 1 + a + delta = 0 sends the first point out of mu_257"),
    (split("F8", **F8_20, a=7), 0, _split(True, 1025, 1023),
     "above the table limit, GF(2^20): h(y)^t indexed by the coset of h(y) mod GF(1024)*"),
    (split("F8", **F8_20, a=3), 0, _split(False, 1025, 1023, subgroup=False),
     "a = 3 does not permute mu_1025"),
    (split("F8", m=10, r=7, s=3, a=5, delta=2), 0, _split(True, 1025, 1023),
     "the gate fails but the map permutes; every term of h has a coefficient other than 1"),
    (split("F8", m=9, r=5, s=3, a=1, delta=10), 0, _split(True, 513, 511),
     "the coset rule with q = 2^9 of odd degree, GF(2^18)"),
    (split("F8", m=12, r=11, s=3, a=1, delta=10), 0, _split(True, 4097, 4095),
     "GF(2^24): 24-bit values fill each 32-bit slot, the mu_4097 columns are the longest"),
    (split("F9", m=9, r=5, s=1, a=1, delta=1), 0, _split(True, 511, 513),
     "the other side of the split index, t = q + 1: h(y)^t indexed by its power"),
    (split("F9", m=9, r=5, s=1, a=3, delta=7), 0, _split(True, 511, 513, terms=16402),
     "a and delta outside GF(2^9): the condition fails but the map permutes"),
    (split("F5", m=10, r=7, i=3, b=5), 0, _split(False, 1025, 1023, subgroup=False),
     "h(y) = y^3 + b on mu_1025 as packed columns: two images repeat at the 36th point"),
    (split("F5", m=10, r=7, i=3, b=1584), 0, _split(False, 1025, 1023, subgroup=False),
     "b in mu_1025: h vanishes at the 668th point, whose image 0 leaves mu_1025"),
]


def _child(kind, fid, params):
    """The fields of one ``split`` or ``literal`` pin, as JSON on stdout."""
    from permpoly import families as fam
    from permpoly import is_permutation, zieve_verdict
    f = fam.build(fid, json.loads(params))
    if kind == "split":
        verdict, info = zieve_verdict(f)
        return {"verdict": verdict, "terms": len(f), **info}
    fn = f.rep_fn()
    vr = is_permutation(fn, f.ctx)
    return {"source": getattr(getattr(fn, "bijective", None), "__name__", None),
            "is-permutation": vr.is_permutation, "evaluations": vr.evaluations,
            "witness": list(vr.witness) if vr.witness else None}


def main():
    failed = 0
    for argv, code, fields, reason in PINS:
        run = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        print(f"# {reason}\n$ python {' '.join(argv)}\n{run.stdout}{run.stderr}", flush=True)
        try:
            doc = json.loads(run.stdout)
            got = doc.get("oracle", doc)
        except ValueError:
            got = {}
        wrong = {k: got.get(k) for k, v in fields.items() if got.get(k) != v}
        if run.returncode != code or wrong:
            failed += 1
            print(f"FAIL: exit {run.returncode} (want {code}), fields {wrong} (want {fields})")
    print(f"{len(PINS) - failed}/{len(PINS)} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(_child(*sys.argv[1:])))
    else:
        sys.exit(main())
