"""Command-line front end: expansions, operators, lifts, identity checks,
golden-file regression, and JSON/CSV export."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import forms, hecke, identities, kmroots, lift, siegel
from .qseries import InsufficientBoxError, Series, bounded_vars

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def cache_dir() -> Path:
    env = os.environ.get("PARAMODULAR_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "paramodular"


def _series_json(series: Series) -> str:
    return json.dumps(series.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _series_csv(series: Series) -> str:
    lines = []
    nv = series.nvars
    header = {1: "n,coefficient", 2: "n,l,coefficient", 3: "n,l,m,coefficient"}[nv]
    lines.append(header)
    for key, c in series.sorted_terms():
        lines.append(",".join(str(x) for x in key) + f",{c}")
    return "\n".join(lines) + "\n"


def _emit(series: Series, args) -> None:
    if getattr(args, "csv", False):
        text = _series_csv(series)
    else:
        text = _series_json(series) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _box(args):
    return 24 * args.qmax, 24 * args.smax


def _siegel_object(name: str, qmax: int, smax: int):
    """Resolve a Siegel-expansion id: a closed-form name, or arith:<form>
    (optionally arith:<form>:<mu>) or exp:<form>."""
    if name in lift._CLOSED:
        return lift.closed_form(name, qmax, smax)
    if name.startswith("arith:"):
        parts = name.split(":")
        mu = int(parts[2]) if len(parts) > 2 else 1
        return lift.lift_arith(parts[1], mu, qmax, smax)
    if name.startswith("exp:"):
        return lift.lift_exp(name.split(":", 1)[1], qmax, smax)
    raise KeyError(f"unknown Siegel expansion id {name!r}")


def cmd_form(args) -> int:
    f = forms.catalog(args.name, 24 * args.qmax)
    _emit(f.series.restricted((24 * args.qmax,)), args)
    return EXIT_OK


def cmd_hecke(args) -> int:
    desc = hecke.HeckeDescriptor.parse(args.op)
    depth = 24 * args.qmax * max(desc.param, 1) ** 2 + 192
    phi = forms.catalog(args.form, depth)
    out = desc.apply(phi)
    _emit(out.series.restricted((24 * args.qmax,)), args)
    return EXIT_OK


def cmd_lift(args) -> int:
    q, s = _box(args)
    mu = getattr(args, "mu", 1)
    cache = cache_dir()
    key = cache / f"{args.kind}_{args.name.replace(':', '_')}_{mu}_{q}_{s}.json"
    if os.environ.get("PARAMODULAR_CACHE") and key.exists():
        ser = Series.from_json_dict(json.loads(key.read_text()))
        _emit(ser, args)
        return EXIT_OK
    if args.kind == "arith":
        F = lift.lift_arith(args.name, mu, q, s)
    elif args.kind == "exp":
        F = lift.lift_exp(args.name, q, s)
    else:
        F = lift.closed_form(args.name, q, s)
    if os.environ.get("PARAMODULAR_CACHE"):
        key.parent.mkdir(parents=True, exist_ok=True)
        key.write_text(_series_json(F.series))
    _emit(F.series, args)
    return EXIT_OK


def cmd_siegel(args) -> int:
    q, s = _box(args)
    if args.verb == "msym":
        base = _siegel_object(args.form, q + 56, max(s + 56, args.p ** 2 * (s // args.p ** 2 + 72)))
        out = siegel.ms_p(base, args.p, cap=(q, s))
        _emit(out.series.restricted((q, s)), args)
    elif args.verb == "heckeprod":
        base = _siegel_object(args.form, q + 96, s + 96)
        out = siegel.hecke_product_T2(base, q + 96, s + 96)
        _emit(out.series.restricted((q, s)), args)
    elif args.verb == "restrict":
        base = _siegel_object(args.form, q, s)
        alpha = Fraction(1, 2) if args.alpha == "half" else Fraction(0)
        _emit(siegel.restrict_z(base, alpha), args)
    elif args.verb == "involution":
        base = _siegel_object(args.form, q, s)
        out = siegel.involution_V(base)
        _emit(out.series, args)
    else:
        raise KeyError(args.verb)
    return EXIT_OK


def cmd_roots(args) -> int:
    if args.verb == "check":
        datum = kmroots.build_datum(args.case)
        print(f"{args.case}: {len(datum.roots)} simple roots, "
              f"rho = {tuple(str(x) for x in datum.rho)}, "
              f"{'parabolic' if datum.parabolic else 'elliptic'}; tables verified")
        return EXIT_OK
    datum = kmroots.build_datum(args.case)
    binding = kmroots.CASE_FORMS.get(args.case)
    if binding is None:
        print(f"no lift bound to case {args.case}", file=sys.stderr)
        return EXIT_USAGE
    q, s = _box(args)
    F = lift.closed_form(binding[0], q, s)
    phi = forms.catalog(binding[1], q)
    rep = kmroots.lie_expansion_check(F, phi, datum, q)
    print(f"{args.case}: orbit points checked: {rep['orbit_checked']}, "
          f"real-root multiplicities checked: {rep['roots_checked']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    q, s = _box(args)
    if args.id == "all":
        results = identities.verify_all(q, s, section=args.section)
    else:
        results = [identities.verify(args.id, q, s)]
    rows = []
    ok = True
    for r in results:
        ok = ok and r.ok
        rows.append({
            "id": r.id, "status": r.status,
            "constant": str(r.constant) if r.constant is not None else None,
            "box": list(r.box) if r.box else None,
            "mismatch": list(r.mismatch_key) if r.mismatch_key else None,
            "detail": r.detail,
        })
    if args.json:
        print(json.dumps(rows, sort_keys=True, indent=1))
    else:
        for row in rows:
            mark = "PASS" if row["status"] == "pass" else row["status"].upper()
            const = f"  constant={row['constant']}" if row["constant"] not in (None, "1") else ""
            det = f"  {row['detail']}" if row["detail"] else ""
            print(f"{mark:5s} {row['id']:24s}{const}{det}")
        n = sum(1 for r in rows if r["status"] == "pass")
        print(f"{n}/{len(rows)} identities pass")
    return EXIT_OK if ok else EXIT_MISMATCH


def _canonical(ser: Series, box) -> Series:
    """Restrict to the box and pin the floor entries to the stored minima so
    exports are byte-identical regardless of internal build depth.  The
    exported trunc is the certified box clamped to the requested one; an
    object certified short of the request is refused, never widened."""
    ser = ser.restricted(box)
    for v, b in zip(bounded_vars(ser.nvars), box):
        if ser.trunc[v] < b:
            raise InsufficientBoxError(
                f"certified to numerator {ser.trunc[v]} in variable {v}, "
                f"short of the requested {b}")
    floor = tuple(min((k[i] for k in ser.coeffs), default=0)
                  for i in range(ser.nvars))
    return Series(ser.nvars, ser.denoms, dict(ser.coeffs), ser.trunc, floor)


def _export_text(name: str, fmt: str, qmax: int, smax: int) -> str:
    if name in forms.registry_names():
        ser = _canonical(forms.catalog(name, qmax).series, (qmax,))
    else:
        ser = _canonical(_siegel_object(name, qmax, smax).series, (qmax, smax))
    return _series_csv(ser) if fmt == "csv" else _series_json(ser) + "\n"


def cmd_export(args) -> int:
    q, s = _box(args)
    text = _export_text(args.id, args.format, q, s)
    if args.goldens:
        path = Path(args.goldens) / f"{args.id.replace(':', '_')}.{args.format}"
        if args.regen_goldens:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"regenerated {path}")
            return EXIT_OK
        want = path.read_text()
        if want != text:
            print(f"golden mismatch for {args.id} at {path}", file=sys.stderr)
            return EXIT_MISMATCH
        print(f"golden match for {args.id}")
        return EXIT_OK
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_diff(args) -> int:
    a = Series.from_json_dict(json.loads(Path(args.a).read_text()))
    b = Series.from_json_dict(json.loads(Path(args.b).read_text()))
    bad = a.first_mismatch(b)
    if bad is None:
        print("identical on the shared box")
        return EXIT_OK
    print(f"first mismatch at exponent key {bad}: {a.get(bad)} vs {b.get(bad)}")
    return EXIT_MISMATCH


def cmd_manifest(args) -> int:
    data = {"forms": forms.manifest(), "cases": kmroots.case_ids()}
    print(json.dumps(data, sort_keys=True, indent=1))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="paramodular",
        description="Exact Fourier expansions of Jacobi and paramodular forms, "
                    "their liftings, and identity verification.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def box_opts(p, q=6, s=6):
        p.add_argument("--qmax", type=int, default=q,
                       help="q-exponent bound (exponent units)")
        p.add_argument("--smax", type=int, default=s,
                       help="s-exponent bound (exponent units)")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--csv", action="store_true", help="CSV output")
        p.add_argument("-o", "--output", help="write to file")

    p = sub.add_parser("form", help="expand a catalog Jacobi form")
    fsub = p.add_subparsers(dest="verb", required=True)
    fe = fsub.add_parser("expand")
    fe.add_argument("name", choices=forms.registry_names())
    box_opts(fe)
    fe.set_defaults(func=cmd_form)

    p = sub.add_parser("hecke", help="apply a Hecke operator")
    hsub = p.add_subparsers(dest="verb", required=True)
    ha = hsub.add_parser("apply")
    ha.add_argument("--op", required=True,
                    help="descriptor like t0:2, tminus:3, lambda:2, tplus2, tplus14")
    ha.add_argument("--form", required=True)
    box_opts(ha)
    ha.set_defaults(func=cmd_hecke)

    p = sub.add_parser("lift", help="arithmetic/exponential/closed-form liftings")
    lsub = p.add_subparsers(dest="kind", required=True)
    for kind in ("arith", "exp", "closed"):
        lp = lsub.add_parser(kind)
        lp.add_argument("name")
        if kind == "arith":
            lp.add_argument("--mu", type=int, default=1)
        box_opts(lp)
        lp.set_defaults(func=cmd_lift)

    p = sub.add_parser("siegel", help="algebra on three-variable expansions")
    ssub = p.add_subparsers(dest="verb", required=True)
    for verb in ("msym", "heckeprod", "restrict", "involution"):
        spp = ssub.add_parser(verb)
        spp.add_argument("--form", required=True)
        if verb == "msym":
            spp.add_argument("--p", type=int, required=True)
        if verb == "restrict":
            spp.add_argument("--alpha", choices=["0", "half"], required=True)
        box_opts(spp)
        spp.set_defaults(func=cmd_siegel)

    p = sub.add_parser("roots", help="hyperbolic root-system data")
    rsub = p.add_subparsers(dest="verb", required=True)
    rc = rsub.add_parser("check")
    rc.add_argument("case", choices=kmroots.case_ids())
    rc.set_defaults(func=cmd_roots)
    rl = rsub.add_parser("lie-check")
    rl.add_argument("case", choices=sorted(kmroots.CASE_FORMS))
    box_opts(rl)
    rl.set_defaults(func=cmd_roots)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("id", nargs="?", default="all")
    p.add_argument("--section", default=None)
    box_opts(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="deterministic JSON/CSV coefficient export")
    p.add_argument("id")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--goldens", default=None, help="compare against a goldens dir")
    p.add_argument("--regen-goldens", action="store_true")
    box_opts(p, 3, 3)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("diff", help="compare two exported JSON series")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("manifest", help="print the registry manifest")
    p.set_defaults(func=cmd_manifest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only on failure: importing it costs ~0.3 MB of RSS
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
