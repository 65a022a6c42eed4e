"""Per-layer tracing from outside the program, at its public calls.

Two kinds of instrumentation, used in separate passes over the workload so
that neither distorts what the other measures:

* :class:`SpanTracer` records a span (name, start, end, parent) and a count
  around every public call of ``field``, ``families``, ``solvers``,
  ``oracle`` and ``reproduce`` that happens a few thousand times per pass,
  and times each call of the map a scan evaluates.  Field arithmetic is not
  wrapped in this pass, so the layer times it reports carry no cost from
  wrappers around their inner calls.
* :class:`CallCounter` counts every call of ``FieldCtx.add``/``mul``/``pow``
  and ``SparsePoly.eval_rep`` (about 21M on ``reproduce``, too many to keep
  as spans) and keeps a sample of the calls with their arguments.  After
  the pass, :func:`replay` times the kept calls with nothing wrapped, which
  gives per-call costs on the workload's own argument mix.

Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
import weakref
from collections import Counter

from permpoly import cli, families, field, oracle, reproduce, solvers
from permpoly.field import FieldCtx, SparsePoly
from workloads import Patches

SOLVERS = ("quad_char2_roots", "unit_circle_quad", "affine_frobenius_roots",
           "linearized_bijective")

_clock = time.perf_counter_ns


class SpanTracer:
    """Spans and counts around the public calls of every layer."""

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent index or -1)
        self.calls = Counter()
        self.ns = Counter()
        self.extra = Counter()   # pow_charp terms, scan evaluations, ...
        self._stack = []
        self._patches = Patches()
        self._family_maps = weakref.WeakSet()

    # -- span wrapper ----------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent)
            self.calls[name] += 1
            self.ns[name] += t1 - t0

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            out = self._call(name, fn, args, kwargs)
            if after is not None:
                after(out)
            return out
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        p = self._patches
        make_field = self._wrap("field.make_field", field.make_field)
        for mod in (field, families, reproduce):
            p.set(mod, "make_field", make_field)
        p.set(FieldCtx, "ensure_tables",
              self._wrap("field.ensure_tables", FieldCtx.ensure_tables))
        p.set(SparsePoly, "pow_charp",
              self._wrap("field.pow_charp", SparsePoly.pow_charp,
                         lambda poly: self._add("field.pow_charp_terms", len(poly))))

        for name in ("family_ctx", "check", "build"):
            p.set(families, name, self._wrap(f"families.{name}", getattr(families, name)))
        p.set(families, "evaluator",
              self._wrap("families.evaluator", families.evaluator, self._family_maps.add))
        for name in SOLVERS:
            p.set(solvers, name, self._wrap(f"solvers.{name}", getattr(solvers, name)))

        scan = self._scan_wrapper(oracle.is_permutation)
        for mod in (oracle, reproduce, cli):  # every module that binds the name
            p.set(mod, "is_permutation", scan)
        p.set(oracle, "permutes_subset",
              self._wrap("oracle.subset", oracle.permutes_subset))
        split = self._wrap("oracle.split", oracle.zieve_verdict,
                           lambda out: self._add("oracle.split_points", out[1]["d"]))
        for mod in (oracle, reproduce):
            p.set(mod, "zieve_verdict", split)
        for cid, fn in list(reproduce.CRITERIA.items()):
            p.set_item(reproduce.CRITERIA, cid, self._wrap(f"reproduce.c{cid:02d}", fn))

    def uninstall(self):
        self._patches.undo()

    def _add(self, key, n):
        self.extra[key] += n

    def _scan_wrapper(self, orig):
        """is_permutation with its map timed call by call."""
        extra = self.extra

        def scan(f, ctx, **kwargs):
            fn = f.eval_rep if isinstance(f, SparsePoly) else f
            state = [0, 0]

            def timed_map(x):
                t0 = _clock()
                y = fn(x)
                state[1] += _clock() - t0
                state[0] += 1
                return y

            report = self._call("oracle.scan", orig, (timed_map, ctx), kwargs)
            extra["oracle.scan_evals"] += report.evaluations
            extra["oracle.map_calls"] += state[0]
            extra["oracle.map_ns"] += state[1]
            if f in self._family_maps:
                extra["families.eval_elems"] += state[0]
                extra["families.eval_ns"] += state[1]
            return report
        return scan

    def metrics(self) -> dict:
        """Per-layer totals of the pass (field set-up is reported apart)."""
        calls, ns, extra = self.calls, self.ns, self.extra
        map_overhead_ns, clock_ns = _calibrate_map_wrapper()
        out = {}
        for name in ("check", "build", "evaluator"):
            out[f"families.{name}_calls"] = (calls[f"families.{name}"], "count")
            out[f"families.{name}_ms"] = (ns[f"families.{name}"] / 1e6, "ms")
        elems = extra["families.eval_elems"]
        out["families.eval_ns_per_elem"] = (
            extra["families.eval_ns"] / elems - clock_ns if elems else 0.0, "ns")
        for name in SOLVERS:
            out[f"solvers.{name}_calls"] = (calls[f"solvers.{name}"], "count")
            out[f"solvers.{name}_ms"] = (ns[f"solvers.{name}"] / 1e6, "ms")
        maps = extra["oracle.map_calls"]
        scan_self = (ns["oracle.scan"] - extra["oracle.map_ns"]
                     - maps * map_overhead_ns)
        out.update({
            "oracle.scan_calls": (calls["oracle.scan"], "count"),
            "oracle.scan_ms": (ns["oracle.scan"] / 1e6, "ms"),
            "oracle.scan_evals": (extra["oracle.scan_evals"], "count"),
            "oracle.map_calls": (maps, "count"),
            "oracle.scan_self_ms": (scan_self / 1e6, "ms"),
            "oracle.useful_eval_ratio": (
                extra["oracle.scan_evals"] / maps if maps else 0.0, "ratio"),
            "oracle.subset_calls": (calls["oracle.subset"], "count"),
            "oracle.subset_ms": (ns["oracle.subset"] / 1e6, "ms"),
            "oracle.split_calls": (calls["oracle.split"], "count"),
            "oracle.split_ms": (ns["oracle.split"] / 1e6, "ms"),
            "oracle.split_points": (extra["oracle.split_points"], "count"),
            "field.pow_charp_ms": (ns["field.pow_charp"] / 1e6, "ms"),
            "field.pow_charp_terms": (extra["field.pow_charp_terms"], "count"),
        })
        return out


def _calibrate_map_wrapper(n=200_000):
    """Per-call cost of the map timing wrapper outside its own clock reads.

    Returns (overhead_ns, clock_ns): ``overhead_ns`` is what wrapping adds
    to a scan beyond the interval it measures, and ``clock_ns`` is what a
    measured interval holds besides the map itself.
    """
    def ident(x):
        return x

    state = [0, 0]

    def timed_map(x):
        t0 = _clock()
        y = ident(x)
        state[1] += _clock() - t0
        state[0] += 1
        return y

    def loop(fn):
        t0 = _clock()
        for x in range(n):
            fn(x)
        return _clock() - t0

    rounds = []
    for _ in range(5):
        state[:] = [0, 0]
        bare = loop(ident)
        wrapped = loop(timed_map)
        empty = _loop_empty(n)
        measured = state[1] / n
        ident_ns = (bare - empty) / n
        rounds.append(((wrapped - bare) / n - (measured - ident_ns),
                       measured - ident_ns))
    return (statistics.median(r[0] for r in rounds),
            statistics.median(r[1] for r in rounds))


def _loop_empty(n):
    t0 = _clock()
    for _ in range(n):
        pass
    return _clock() - t0


class CallCounter:
    """Exact counts of field arithmetic and eval_rep, with sampled arguments.

    Field calls are kept one in ``STRIDE`` and only on contexts within
    ``TABLE_LIMIT``; ``pow`` on a larger context runs table-free and is
    counted and sampled apart, one in ``UNTABLED_STRIDE`` (it is ~40 us a
    call, so far fewer calls happen).  ``eval_rep`` is kept one in
    ``EVAL_STRIDE``.
    """

    STRIDE = 512
    UNTABLED_STRIDE = 8
    EVAL_STRIDE = 64

    def __init__(self):
        self._patches = Patches()
        self.counts = {}
        self.samples = {}

    def install(self):
        limit = field.TABLE_LIMIT
        p = self._patches
        for name in ("add", "mul"):
            p.set(FieldCtx, name, self._binary(name, getattr(FieldCtx, name), limit))
        p.set(FieldCtx, "pow", self._pow(FieldCtx.pow, limit))
        p.set(SparsePoly, "eval_rep", self._eval_rep(SparsePoly.eval_rep))

    def uninstall(self):
        self._patches.undo()

    def _binary(self, name, orig, limit):
        count = self.counts.setdefault(name, [0])
        kept = self.samples.setdefault(name, [])
        stride = self.STRIDE

        def counted(ctx, a, b):
            count[0] += 1
            if not count[0] % stride and ctx.order <= limit:
                kept.append((ctx, a, b))
            return orig(ctx, a, b)
        return counted

    def _pow(self, orig, limit):
        count = self.counts.setdefault("pow", [0])
        untabled = self.counts.setdefault("pow_untabled", [0])
        kept = self.samples.setdefault("pow", [])
        kept_untabled = self.samples.setdefault("pow_untabled", [])
        stride, ustride = self.STRIDE, self.UNTABLED_STRIDE

        def counted(ctx, a, e):
            count[0] += 1
            if ctx.order > limit:
                untabled[0] += 1
                if not untabled[0] % ustride:
                    kept_untabled.append((ctx, a, e))
            elif not count[0] % stride:
                kept.append((ctx, a, e))
            return orig(ctx, a, e)
        return counted

    def _eval_rep(self, orig):
        count = self.counts.setdefault("eval_rep", [0])
        terms = self.counts.setdefault("eval_rep_terms", [0])
        kept = self.samples.setdefault("eval_rep", [])
        stride = self.EVAL_STRIDE

        def counted(poly, x):
            count[0] += 1
            terms[0] += len(poly)
            if not count[0] % stride:
                kept.append((poly, x))
            return orig(poly, x)
        return counted

    def metrics(self) -> dict:
        """Counts, and per-call costs from replaying the kept calls unwrapped."""
        c, s = self.counts, self.samples
        sampled_terms = sum(len(poly) for poly, _ in s["eval_rep"])
        eval_ns = replay(SparsePoly.eval_rep, s["eval_rep"]) * len(s["eval_rep"])
        return {
            "field.mul_calls": (c["mul"][0], "count"),
            "field.pow_calls": (c["pow"][0], "count"),
            "field.add_calls": (c["add"][0], "count"),
            "field.mul_ns": (replay(FieldCtx.mul, s["mul"]), "ns"),
            "field.pow_ns": (replay(FieldCtx.pow, s["pow"]), "ns"),
            "field.pow_untabled_calls": (c["pow_untabled"][0], "count"),
            "field.pow_untabled_ns": (replay(FieldCtx.pow, s["pow_untabled"]), "ns"),
            "field.eval_rep_calls": (c["eval_rep"][0], "count"),
            "field.eval_rep_terms": (c["eval_rep_terms"][0], "count"),
            "field.eval_rep_ns_per_term": (
                eval_ns / sampled_terms if sampled_terms else 0.0, "ns"),
        }


def replay(fn, calls, rounds=5) -> float:
    """Median ns per call of ``fn`` over the recorded argument tuples."""
    if not calls:
        return 0.0
    per_round = []
    for _ in range(rounds):
        t0 = _clock()
        for args in calls:
            fn(*args)
        t1 = _clock()
        for args in calls:
            pass
        t2 = _clock()
        per_round.append(((t1 - t0) - (t2 - t1)) / len(calls))
    return statistics.median(per_round)
