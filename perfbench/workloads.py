"""The three benchmark workloads and the outputs recorded for them.

Every workload is a closed loop with one caller and no worker threads
(``workers`` stays 1): the next instance starts only after the previous
verdict is in.  A repetition runs the whole instance list once; the harness
repeats it until the run's time budget is spent.

Expected outputs are recorded here and compared outside the timed region.
The seed varies only inputs that leave every recorded output unchanged: the
shift ``delta`` of F1 and F6 (whose scale ``c`` lies in the base subfield,
so every shift gives a bijection) and the order instances run in.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from permpoly import families as fam
from permpoly import field as gf
from permpoly import oracle
from permpoly import reproduce
from permpoly.field import SparsePoly


@dataclass(frozen=True)
class Instance:
    """One verdict request and the outputs recorded for it.

    ``expect`` maps output names (``gate``, ``verdict``, ``witness``,
    ``evaluations``, ``terms``, ``d``, ``subgroup``) to recorded values.
    ``shifted`` instances draw ``delta`` from the seed.  ``u`` holds the
    (coeff_rep, exp) pairs of F6's inner polynomial, built per field.
    """

    fid: str
    params: dict
    expect: dict
    shifted: bool = False
    u: tuple = ()

    def label(self) -> str:
        return f"{self.fid} {self.params}"


@dataclass
class RepResult:
    """Timings and outputs of one repetition of a workload.

    ``start`` and ``end`` are ``time.perf_counter()`` readings; ``wall_s`` is
    the time between them less the time spent timing the reference loop.
    ``items`` holds (start, seconds) of each work item, in a fixed order:
    instance order on scan16 and bigfield, call order on reproduce.
    """

    start: float = 0.0
    end: float = 0.0
    wall_s: float = 0.0
    items: list = field(default_factory=list)
    verdicts: int = 0
    elements: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    criteria_ms: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# scan16: exhaustive scans on the largest fields that get log tables
# ---------------------------------------------------------------------------

_PERM_15 = {"gate": True, "verdict": True, "witness": None, "evaluations": 1 << 15}
_PERM_16 = {"gate": True, "verdict": True, "witness": None, "evaluations": 1 << 16}


def _perm16(gate):
    return dict(_PERM_16, gate=gate)


def _collide(gate, witness):
    return {"gate": gate, "verdict": False, "witness": witness,
            "evaluations": witness[1] + 1}


# Scale constants 1, 316, 317, 624, 844, 1130, 1131 lie in the GF(2^5)
# subfield of GF(2^15); the generators are 2 (GF(2^15)) and 3 (GF(2^16)).
SCAN16 = (
    Instance("F1", {"m": 5, "c": 624}, _PERM_15, shifted=True),
    Instance("F1", {"m": 5, "c": 1}, _PERM_15, shifted=True),
    Instance("F1", {"m": 5, "c": 1131}, _PERM_15, shifted=True),
    Instance("F2", {"m": 5, "c": 844}, _PERM_15),
    Instance("F2", {"m": 5, "c": 1}, _PERM_15),
    Instance("F6", {"q": 32, "case": "power", "i": 1, "c": 317}, _PERM_15, shifted=True),
    Instance("F6", {"q": 32, "case": "power", "i": 3, "c": 1}, _PERM_15, shifted=True),
    Instance("F6", {"q": 32, "case": "sum", "c": 1130}, _PERM_15, shifted=True,
             u=((5, 0), (1, 1), (77, 2), (1234, 3))),
    Instance("F3", {"m": 8, "c": 1}, _PERM_16),
    Instance("F3", {"m": 8, "c": 2}, _PERM_16),
    Instance("F3", {"m": 8, "c": 7}, _PERM_16),
    Instance("F4", {"m": 8, "b": 2}, _PERM_16),
    Instance("F4", {"m": 8, "b": 11}, _PERM_16),
    Instance("F4", {"m": 8, "b": 7}, _collide(False, (497, 532))),
    Instance("F5", {"m": 8, "r": 1, "i": 1, "b": 3}, _perm16(False)),
    Instance("F5", {"m": 8, "r": 3, "i": 2, "b": 5}, _collide(False, (161, 268))),
    Instance("F8", {"m": 8, "r": 7, "s": 3, "a": 1, "delta": 3}, _PERM_16),
    Instance("F8", {"m": 8, "r": 7, "s": 3, "a": 3, "delta": 3}, _PERM_16),
    Instance("F8", {"m": 8, "r": 7, "s": 3, "a": 7, "delta": 3}, _PERM_16),
    Instance("F8", {"m": 8, "r": 7, "s": 3, "a": 5, "delta": 3}, _perm16(False)),
    Instance("F8", {"m": 8, "r": 7, "s": 3, "a": 13, "delta": 3}, _perm16(False)),
    Instance("F8", {"m": 8, "r": 7, "s": 3, "a": 2, "delta": 3}, _collide(False, (0, 1))),
)


def _scan_instance(inst: Instance, params: dict) -> dict:
    ctx = fam.family_ctx(inst.fid, params)
    gate = fam.check(inst.fid, params, ctx=ctx).passed
    f = fam.evaluator(inst.fid, params, ctx=ctx)
    vr = oracle.is_permutation(f, ctx)
    return {"gate": gate, "verdict": vr.is_permutation, "witness": vr.witness,
            "evaluations": vr.evaluations}


# ---------------------------------------------------------------------------
# bigfield: fields above the table limit, decided by the multiplicative split
# ---------------------------------------------------------------------------

def _split(gate, verdict, terms, d):
    return {"gate": gate, "verdict": verdict, "terms": terms, "d": d,
            "subgroup": verdict}


# Only instances with r >= 1: the split misjudges bijections with f(0) != 0.
# The generator of GF(2^18) is 10 and that of GF(2^20) is 2.
BIGFIELD = (
    Instance("F8", {"m": 10, "r": 7, "s": 3, "a": 1, "delta": 2}, _split(True, True, 9, 1025)),
    Instance("F8", {"m": 10, "r": 7, "s": 3, "a": 5, "delta": 2}, _split(False, True, 9, 1025)),
    Instance("F8", {"m": 10, "r": 13, "s": 3, "a": 9, "delta": 2}, _split(True, True, 9, 1025)),
    Instance("F8", {"m": 10, "r": 13, "s": 3, "a": 7, "delta": 2}, _split(False, True, 9, 1025)),
    Instance("F8", {"m": 10, "r": 13, "s": 3, "a": 3, "delta": 2}, _split(False, False, 9, 1025)),
    Instance("F8", {"m": 9, "r": 5, "s": 3, "a": 1, "delta": 10}, _split(True, True, 9, 513)),
    Instance("F8", {"m": 9, "r": 5, "s": 2, "a": 1, "delta": 10}, _split(True, True, 9, 513)),
    Instance("F9", {"m": 9, "r": 5, "s": 1, "a": 1, "delta": 1}, _split(True, True, 13121, 511)),
    Instance("F9", {"m": 9, "r": 5, "s": 3, "a": 1, "delta": 1}, _split(True, True, 10209, 511)),
    Instance("F5", {"m": 9, "r": 5, "i": 1, "b": 3}, _split(False, False, 2, 513)),
    Instance("F5", {"m": 10, "r": 7, "i": 3, "b": 5}, _split(False, False, 2, 1025)),
)


def _split_instance(inst: Instance, params: dict) -> dict:
    ctx = fam.family_ctx(inst.fid, params)
    gate = fam.check(inst.fid, params, ctx=ctx).passed
    poly = fam.build(inst.fid, params, ctx=ctx)
    verdict, info = oracle.zieve_verdict(poly)
    return {"gate": gate, "verdict": verdict, "terms": len(poly), "d": info["d"],
            "subgroup": info["subgroup"]}


# ---------------------------------------------------------------------------
# reproduce: the 12-criterion regression suite
# ---------------------------------------------------------------------------

# (passed, counts) of every criterion.  Criteria 6 and 8 fail by design:
# the published statements are wrong, and the failures are expected outputs.
EXPECTED_CRITERIA = {
    1: (True, {"scalars": 7, "bijective": 7}),
    2: (True, {"admissible": 119, "bijective": 119}),
    3: (True, {"assignments": 20, "disagreements": 0}),
    4: (True, {"admissible": 6, "bijective": 6}),
    5: (True, {"admissible": 103, "bijective": 103}),
    6: (False, {"gate-passing": 6, "bijective": 4}),
    7: (True, {"admissible": 448, "bijective": 448}),
    8: (False, {"admissible": 2, "display-bijective": 0}),
    9: (True, {"instances": 4248, "failures": 0}),
    10: (True, {"pairs": 400, "counterexamples": 0}),
    11: (True, {"quad": 4416, "circle": 2058, "affine": 4018, "linearized": 4018}),
    12: (True, {"instances": 712, "disagreements": 0}),
}

# criteria run by the minimum-size self-check; 8 is an expected failure
MIN_CRITERIA = (3, 4, 8)


class Patches:
    """Attribute and mapping-entry replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        orig = owner.__dict__[name]
        self._undo.append(lambda: setattr(owner, name, orig))
        setattr(owner, name, value)

    def set_item(self, mapping, key, value):
        orig = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, orig))
        mapping[key] = value

    def undo(self):
        while self._undo:
            self._undo.pop()()


class VerdictClock:
    """Times each verdict the suite requests and sums the elements scanned.

    Wraps the names ``reproduce`` binds (``is_permutation``, timed and
    counted, and ``zieve_verdict``, timed) and ``oracle.is_permutation`` and
    ``oracle.permutes_subset`` (counted; the harness and ``zieve_verdict``
    call these).  It costs two clock reads per verdict, not per element.
    ``tick`` runs before each timed verdict, outside its clock.
    """

    def __init__(self, tick=None):
        self.items = []
        self.elements = 0
        self._tick = tick or (lambda: None)
        self._patches = Patches()

    def _timed(self, fn):
        items, tick = self.items, self._tick

        def timed(*args, **kwargs):
            tick()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            items.append((t0, time.perf_counter() - t0))
            return out
        return timed

    def _counted(self, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.elements += out.evaluations
            return out
        return counted

    def install(self):
        for mod, name, wrap in (
                (oracle, "is_permutation", self._counted),
                (oracle, "permutes_subset", self._counted),
                (reproduce, "is_permutation", lambda f: self._timed(self._counted(f))),
                (reproduce, "zieve_verdict", self._timed)):
            self._patches.set(mod, name, wrap(getattr(mod, name)))

    def uninstall(self):
        self._patches.undo()


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple          # (p, k) of every field the workload touches
    instances: tuple = ()  # empty for reproduce


WORKLOADS = {
    "reproduce": Workload("reproduce", ((2, 2), (2, 3), (2, 4), (2, 6), (2, 8),
                                        (2, 9), (3, 3), (3, 4))),
    "scan16": Workload("scan16", ((2, 15), (2, 16)), SCAN16),
    "bigfield": Workload("bigfield", ((2, 18), (2, 20)), BIGFIELD),
}


def setup(wl: Workload):
    """Build every field the workload touches, with tables where allowed."""
    for p, k in wl.fields:
        gf.make_field(p, k).ensure_tables()


class Runner:
    """Runs repetitions of one workload with inputs fixed by the seed.

    With a ``gauge`` (speed.Gauge), the reference loop is timed between work
    items, at most every speed.INTERVAL_S, and that time is left out of the
    repetition's ``wall_s``.
    """

    def __init__(self, wl: Workload, seed: int, *, small: bool = False, gauge=None):
        self.wl = wl
        self.gauge = gauge
        self.rng = random.Random(seed)
        insts = wl.instances
        if small:
            insts = _small(insts)
        self.instances = list(insts)
        # the seed's shifts are drawn once per run, so every repetition of a
        # run does identical work
        self.params = {}
        for inst in self.instances:
            params = dict(inst.params)
            if inst.shifted or inst.u:
                ctx = fam.family_ctx(inst.fid, params)
                if inst.shifted:
                    params["delta"] = self.rng.randrange(ctx.order)
                if inst.u:
                    params["u"] = SparsePoly(ctx, inst.u)
            self.params[id(inst)] = params
        self.index = {id(inst): i for i, inst in enumerate(self.instances)}
        self.criteria = MIN_CRITERIA if small else None

    def rep(self) -> RepResult:
        """One repetition; outputs are checked after the clock stops."""
        gauge = self.gauge
        tick = gauge.tick if gauge else (lambda: None)
        spent = gauge.spent if gauge else 0.0
        start = time.perf_counter()
        if self.wl.name == "reproduce":
            res = self._rep_reproduce(tick)
        else:
            res = self._rep_instances(tick)
        res.start = start
        res.wall_s = res.end - start - ((gauge.spent - spent) if gauge else 0.0)
        return res

    def _rep_instances(self, tick) -> RepResult:
        run_one = _split_instance if self.wl.name == "bigfield" else _scan_instance
        order = list(self.instances)
        self.rng.shuffle(order)
        clock = VerdictClock()
        clock.install()
        outs = []
        items = [None] * len(order)
        try:
            for inst in order:
                params = self.params[id(inst)]
                tick()
                t0 = time.perf_counter()
                try:
                    out = run_one(inst, params)
                except Exception as exc:  # counted as a failed attempt
                    out = exc
                items[self.index[id(inst)]] = (t0, time.perf_counter() - t0)
                outs.append((inst, out))
        finally:
            end = time.perf_counter()
            clock.uninstall()
        res = RepResult(end=end, items=items, verdicts=len(order),
                        elements=clock.elements, attempted=len(order))
        for inst, out in outs:
            err = _mismatch(inst, out)
            if err:
                res.failed += 1
                res.errors.append(err)
        return res

    def _rep_reproduce(self, tick) -> RepResult:
        clock = VerdictClock(tick)
        clock.install()
        try:
            results = reproduce.run_all(workers=1, only=self.criteria)
            exc = None
        except Exception as e:  # counted as failed attempts
            results, exc = [], e
        finally:
            end = time.perf_counter()
            clock.uninstall()
        wanted = self.criteria or tuple(EXPECTED_CRITERIA)
        res = RepResult(end=end, items=clock.items, verdicts=len(clock.items),
                        elements=clock.elements, attempted=len(wanted))
        got = {r.cid: r for r in results}
        for cid in wanted:
            r = got.get(cid)
            if r is None:
                res.failed += 1
                res.errors.append(f"criterion {cid}: no result ({exc!r})")
                continue
            res.criteria_ms[cid] = r.elapsed_ms
            if (r.passed, r.counts) != EXPECTED_CRITERIA[cid]:
                res.failed += 1
                res.errors.append(f"criterion {cid}: got {(r.passed, r.counts)}, "
                                  f"expected {EXPECTED_CRITERIA[cid]}")
        return res


def _small(instances):
    """One instance per family, keeping the first recorded non-permutation."""
    seen = set()
    out = []
    for inst in instances:
        if inst.fid not in seen:
            seen.add(inst.fid)
            out.append(inst)
    for inst in instances:
        if not inst.expect["verdict"]:
            if inst not in out:
                out.append(inst)
            break
    return tuple(out)


def _mismatch(inst: Instance, out) -> str | None:
    if isinstance(out, Exception):
        return f"{inst.label()}: raised {out!r}"
    bad = {k: (out.get(k), v) for k, v in inst.expect.items() if out.get(k) != v}
    if bad:
        return f"{inst.label()}: got/expected {bad}"
    return None
