"""Command-line front end: list, verify, enumerate, reproduce, selftest.

Exit codes are a stable contract: 0 success, 1 verified-false (or any
regression failure), 2 internal error, 3 usage/schema error.

Element values are accepted either as integer reps or in generator-power
notation ``g^e``; reports always carry both forms.  JSON output is canonical
(sorted keys, two-space indent) and round-trips byte-identically.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from . import families as fam
from . import reproduce as rep
from .errors import PermpolyError, SchemaMismatch
from .field import FieldCtx, SparsePoly
from .oracle import is_permutation
from .selftest import run_selftest


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------

def parse_element(ctx: FieldCtx, text: str) -> int:
    """'g^12', 'g', or a bare integer rep."""
    t = text.strip()
    if t == "g":
        return ctx.generator
    if t.startswith("g^"):
        try:
            e = int(t[2:])
        except ValueError:
            raise UsageError(f"bad generator power {text!r}") from None
        return ctx.pow(ctx.generator, e)
    try:
        r = int(t, 0)
    except ValueError:
        raise UsageError(f"bad element literal {text!r}") from None
    if not 0 <= r < ctx.order:
        raise UsageError(f"element rep {r} out of range for GF({ctx.p}^{ctx.k})")
    return r


def parse_poly(ctx: FieldCtx, text: str) -> SparsePoly:
    """Terms joined by '+': [coeff '*'] 'x' ['^' exp], or a constant."""
    pairs = []
    for raw in text.replace(" ", "").split("+"):
        if not raw:
            raise UsageError(f"empty term in polynomial {text!r}")
        coeff_txt, _, rest = raw.partition("x")
        if "x" not in raw:
            pairs.append((parse_element(ctx, raw), 0))
            continue
        coeff = parse_element(ctx, coeff_txt.rstrip("*")) if coeff_txt else 1
        if rest.startswith("^"):
            try:
                exp = int(rest[1:])
            except ValueError:
                raise UsageError(f"bad exponent in term {raw!r}") from None
        elif rest:
            raise UsageError(f"bad term {raw!r}")
        else:
            exp = 1
        if exp < 0:
            raise UsageError(f"negative exponent in term {raw!r}")
        pairs.append((coeff, exp))
    return SparsePoly(ctx, pairs)


def _coerce_param(spec, ps, ctx, text):
    if ps.kind == "int":
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"{spec.fid}: '{ps.name}' expects an integer, "
                             f"got {text!r}") from None
    if ps.kind == "element":
        return parse_element(ctx, text)
    if ps.kind == "choice":
        return text
    if ps.kind == "poly":
        return parse_poly(ctx, text)
    raise AssertionError(ps.kind)


def resolve_params(fid: str, raw: dict[str, str]):
    """Parse CLI strings into typed params; returns (spec, ctx, params)."""
    spec = fam.family(fid)
    params: dict = {}
    for name in spec.shape:
        if name not in raw:
            raise UsageError(f"{fid}: missing shape parameter --{name}")
        try:
            params[name] = int(raw[name])
        except ValueError:
            raise UsageError(f"{fid}: --{name} expects an integer") from None
    ctx = fam.family_ctx(fid, params)
    for name, text in raw.items():
        if name in spec.shape:
            continue
        try:
            ps = spec.param(name)
        except KeyError:
            raise UsageError(f"{fid}: unknown parameter --{name}") from None
        params[name] = _coerce_param(spec, ps, ctx, text)
    return spec, ctx, params


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def element_forms(ctx: FieldCtx, rep_: int):
    return {"rep": rep_, "gen-power": ctx.dlog(rep_) if rep_ else None}


def render_value(ctx, v):
    if isinstance(v, SparsePoly):
        return v.pretty()
    return v


def params_json(spec, ctx, params):
    out = {}
    for name, v in params.items():
        ps = spec.param(name)
        if ps.kind == "element":
            out[name] = element_forms(ctx, v)
        elif ps.kind == "poly":
            out[name] = v.pretty()
        else:
            out[name] = v
    return out


def field_json(ctx: FieldCtx):
    return {"p": ctx.p, "k": ctx.k, "modulus-coeffs": list(ctx.modulus),
            "generator-rep": ctx.generator}


def condition_json(report):
    return [{"clause": c.name, "pass": c.passed, "witness": c.witness}
            for c in report.clauses]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _elem_str(ctx, rep_):
    return f"g^{ctx.dlog(rep_)}" if rep_ else "0"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_list(args, out) -> int:
    if args.output == "json":
        doc = {"tool-version": __version__, "command": "list", "families": [
            {"id": s.fid, "summary": s.summary, "anchor": s.formula,
             "shape": list(s.shape),
             "params": [{"name": p.name, "kind": p.kind,
                         "nonzero": p.nonzero, "optional": p.optional}
                        for p in s.params],
             "notes": s.notes}
            for s in fam.REGISTRY.values()]}
        out.write(canonical_json(doc))
        return 0
    for s in fam.REGISTRY.values():
        out.write(f"{s.fid:4s} {s.summary}\n")
        out.write(f"     form:   {s.formula}\n")
        pnames = ", ".join(p.name + ("*" if p.nonzero else "") for p in s.params)
        out.write(f"     params: {pnames}\n")
        if s.notes:
            out.write(f"     notes:  {s.notes}\n")
    return 0


def cmd_verify(args, params_raw, out) -> int:
    if not args.family:
        raise UsageError("verify requires --family")
    spec, ctx, params = resolve_params(args.family, params_raw)
    report = fam.check(args.family, params, ctx=ctx)
    f = fam.evaluator(args.family, params, ctx=ctx)
    vr = is_permutation(f, ctx)
    doc = {
        "tool-version": __version__,
        "command": "verify",
        "family": spec.fid,
        "anchor": spec.formula,
        "field": field_json(ctx),
        "params": params_json(spec, ctx, params),
        "condition": condition_json(report),
        "oracle": {
            "is-permutation": vr.is_permutation,
            "witness": list(vr.witness) if vr.witness else None,
            "evaluations": vr.evaluations,
            "elapsed-ms": round(vr.elapsed_ms, 3),
        },
    }
    if args.output == "json":
        out.write(canonical_json(doc))
    else:
        out.write(f"family {spec.fid} over GF({ctx.p}^{ctx.k}) "
                  f"[modulus {ctx.modulus_str()}, g rep {ctx.generator}]\n")
        for name, v in params.items():
            ps = spec.param(name)
            if ps.kind == "element":
                out.write(f"  {name} = {_elem_str(ctx, v)} (rep {v})\n")
            else:
                out.write(f"  {name} = {render_value(ctx, v)}\n")
        for c in report.clauses:
            mark = "ok " if c.passed else "FAIL"
            out.write(f"  condition {c.name:<24s} {mark} {c.witness}\n")
        out.write(f"  condition overall: {'pass' if report.passed else 'fail'}\n")
        out.write(f"  permutation: {vr.is_permutation} "
                  f"({vr.evaluations} evaluations, {vr.elapsed_ms:.1f} ms)\n")
        if vr.witness:
            x1, x2 = vr.witness
            out.write(f"  collision witness: f({x1}) == f({x2})\n")
    return 0 if vr.is_permutation else 1


def cmd_enumerate(args, params_raw, out) -> int:
    if not args.family:
        raise UsageError("enumerate requires --family")
    spec, ctx, fixed = resolve_params(args.family, params_raw)
    swept = [p.name for p in spec.params
             if p.name not in fixed and not p.optional and p.kind == "element"]
    rows = []
    clause_names = None
    for params, report in fam.enumerate_instances(args.family, fixed, cap=args.cap):
        f = fam.evaluator(args.family, params, ctx=ctx)
        vr = is_permutation(f, ctx)
        if clause_names is None:
            clause_names = [c.name for c in report.clauses]
        if args.disagreements_only and report.passed == vr.is_permutation:
            continue
        rows.append((params, report, vr))
    if args.output == "json":
        doc = {"tool-version": __version__, "command": "enumerate",
               "family": spec.fid, "anchor": spec.formula,
               "field": field_json(ctx), "swept": swept,
               "rows": [{"params": params_json(spec, ctx, p),
                         "condition": condition_json(r),
                         "condition-pass": r.passed,
                         "oracle": {"is-permutation": v.is_permutation,
                                    "witness": list(v.witness) if v.witness else None}}
                        for p, r, v in rows]}
        out.write(canonical_json(doc))
    elif args.output == "csv":
        writer = csv.writer(out, lineterminator="\n")
        pnames = [p.name for p in spec.params if p.name in fixed or p.name in swept]
        header = (["family", "p", "k"] + pnames + (clause_names or [])
                  + ["condition", "oracle", "agree"])
        writer.writerow(header)
        for params, report, vr in rows:
            cells = [spec.fid, ctx.p, ctx.k]
            for name in pnames:
                v = params[name]
                ps = spec.param(name)
                cells.append(_elem_str(ctx, v) if ps.kind == "element"
                             else render_value(ctx, v))
            for c in report.clauses:
                cells.append("pass" if c.passed else "fail")
            cells += ["pass" if report.passed else "fail",
                      "perm" if vr.is_permutation else "not-perm",
                      "yes" if report.passed == vr.is_permutation else "NO"]
            writer.writerow(cells)
    else:
        for params, report, vr in rows:
            shown = {k: (_elem_str(ctx, v) if spec.param(k).kind == "element"
                         else render_value(ctx, v)) for k, v in params.items()}
            agree = "agree" if report.passed == vr.is_permutation else "DISAGREE"
            out.write(f"{shown}  condition={'pass' if report.passed else 'fail'} "
                      f"oracle={'perm' if vr.is_permutation else 'not-perm'} {agree}\n")
        out.write(f"# rows: {len(rows)}\n")
    return 0


def cmd_reproduce(args, out) -> int:
    results = rep.run_all()
    if args.output == "json":
        doc = {"tool-version": __version__, "command": "reproduce",
               "pass": all(r.passed for r in results),
               "criteria": [{"id": r.cid, "family": r.family,
                             "description": r.description, "pass": r.passed,
                             "counts": r.counts, "details": r.details,
                             "elapsed-ms": round(r.elapsed_ms, 3)}
                            for r in results]}
        out.write(canonical_json(doc))
    else:
        for r in results:
            out.write(r.line() + "\n")
        n_bad = sum(1 for r in results if not r.passed)
        out.write(f"# {len(results) - n_bad}/{len(results)} criteria pass\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_selftest(args, out) -> int:
    ok = run_selftest(out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser():
    # allow_abbrev=False keeps short family flags like --p out of argparse's
    # prefix matching so they fall through to the parameter collector
    ap = argparse.ArgumentParser(
        prog="permpoly", allow_abbrev=False,
        description="verify and enumerate permutation-polynomial families over GF(p^k)")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    outputs = {"list": ("human", "json"), "verify": ("human", "json"),
               "enumerate": ("human", "json", "csv"), "reproduce": ("human", "json"),
               "selftest": ()}
    for name, formats in outputs.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        if formats:
            sp.add_argument("--output", choices=formats, default="human")
        if name in ("verify", "enumerate"):
            sp.add_argument("--family")
            sp.add_argument("--param", action="append", default=[],
                            metavar="NAME=VALUE")
        if name == "enumerate":
            sp.add_argument("--disagreements-only", action="store_true")
            sp.add_argument("--cap", type=int, default=fam.DEFAULT_ENUM_CAP)
    return ap


def _collect_params(args, leftovers) -> dict[str, str]:
    raw: dict[str, str] = {}

    def put(name, value):  # in any of the three spellings, once
        if name in raw:
            raise UsageError(f"parameter {name!r} given more than once")
        raw[name] = value
    for item in getattr(args, "param", []):
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise UsageError(f"--param expects NAME=VALUE, got {item!r}")
        put(name, value)
    i = 0
    while i < len(leftovers):
        tok = leftovers[i]
        if not tok.startswith("--") or len(tok) == 2:
            raise UsageError(f"unexpected argument {tok!r}")
        name, eq, value = tok[2:].partition("=")
        if eq:
            put(name, value)
            i += 1
            continue
        if i + 1 >= len(leftovers):
            raise UsageError(f"flag --{name} is missing a value")
        put(name, leftovers[i + 1])
        i += 2
    return raw


def main(argv=None) -> int:
    out = sys.stdout
    parser = _build_parser()
    try:
        args, leftovers = parser.parse_known_args(argv)
    except SystemExit as exc:
        # argparse exits itself on --help/--version (0) or usage errors
        return 0 if exc.code in (0, None) else 3
    try:
        if args.command == "list":
            if leftovers:
                raise UsageError(f"unexpected arguments {leftovers}")
            return cmd_list(args, out)
        if args.command == "reproduce":
            if leftovers:
                raise UsageError(f"unexpected arguments {leftovers}")
            return cmd_reproduce(args, out)
        if args.command == "selftest":
            if leftovers:
                raise UsageError(f"unexpected arguments {leftovers}")
            return cmd_selftest(args, out)
        params_raw = _collect_params(args, leftovers)
        if args.command == "verify":
            return cmd_verify(args, params_raw, out)
        if args.command == "enumerate":
            return cmd_enumerate(args, params_raw, out)
        raise AssertionError(args.command)
    except (UsageError, SchemaMismatch) as exc:
        print(f"permpoly: {exc}", file=sys.stderr)
        return 3
    except PermpolyError as exc:
        print(f"permpoly: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal error contract
        import traceback
        traceback.print_exc()
        print(f"permpoly: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
