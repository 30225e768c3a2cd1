"""Command-line front end: expansions, operators, lifts, identity checks,
golden-file regression, and JSON/CSV export."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import forms, hecke, identities, kmroots, lift, siegel
from .qseries import Series

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _series_json(series: Series) -> str:
    return json.dumps(series.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _series_csv(series: Series) -> str:
    lines = [{1: "n,coefficient", 2: "n,l,coefficient", 3: "n,l,m,coefficient"}[series.nvars]]
    for key, c in series.sorted_terms():
        lines.append(",".join(str(x) for x in key) + f",{c}")
    return "\n".join(lines) + "\n"


def _emit(series: Series, args) -> None:
    text = _series_csv(series) if args.csv else _series_json(series) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _box(args):
    return 24 * args.qmax, 24 * args.smax


def cmd_form(args) -> int:
    q = 24 * args.qmax
    _emit(_canonical(forms.catalog(args.name, q).series, (q,)), args)
    return EXIT_OK


def cmd_hecke(args) -> int:
    q = 24 * args.qmax
    out = hecke.HeckeDescriptor.parse(args.op).image(args.form, q)
    _emit(_canonical(out.series, (q,)), args)
    return EXIT_OK


def cmd_lift(args) -> int:
    q, s = _box(args)
    if args.kind == "arith":
        F = lift.lift_arith(args.name, args.mu, q, s)
    elif args.kind == "exp":
        F = lift.lift_exp(args.name, q, s)
    else:
        F = lift.closed_form(args.name, q, s)
    _emit(F.series, args)
    return EXIT_OK


def cmd_siegel(args) -> int:
    q, s = _box(args)
    build = lambda Q, S: lift.siegel_expansion(args.form, Q, S)
    # msym and heckeprod ask for their own input box and refuse a result
    # certified short of the request
    if args.verb == "msym":
        _emit(_canonical(siegel.ms_p_of(build, args.p, q, s).series, (q, s)), args)
    elif args.verb == "heckeprod":
        _emit(_canonical(siegel.hecke_product_T2_of(build, q, s).series, (q, s)), args)
    elif args.verb == "restrict":
        alpha = Fraction(1, 2) if args.alpha == "half" else Fraction(0)
        _emit(siegel.restrict_z(build(q, s), alpha), args)
    else:
        _emit(siegel.involution_V(build(q, s)).series, args)
    return EXIT_OK


def cmd_roots(args) -> int:
    datum = kmroots.build_datum(args.case)
    if args.verb == "check":
        print(f"{args.case}: {len(datum.roots)} simple roots, "
              f"rho = {tuple(str(x) for x in datum.rho)}, "
              f"{'parabolic' if datum.parabolic else 'elliptic'}; tables verified")
        return EXIT_OK
    binding = kmroots.CASE_FORMS[args.case]
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
    rows = [{"id": r.id, "status": r.status,
             "constant": str(r.constant) if r.constant is not None else None,
             "box": list(r.box) if r.box else None,
             "mismatch": list(r.mismatch_key) if r.mismatch_key else None,
             "detail": r.detail} for r in results]
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
    return EXIT_OK if all(r.ok for r in results) else EXIT_MISMATCH


def _canonical(ser: Series, box) -> Series:
    """The certified restriction, with the floor entries pinned to the
    stored minima so exports are byte-identical regardless of internal
    build depth."""
    ser = ser.certified(box)
    floor = tuple(min((k[i] for k in ser.coeffs), default=0)
                  for i in range(ser.nvars))
    return Series(ser.nvars, ser.denoms, dict(ser.coeffs), ser.trunc, floor)


def _export_text(name: str, fmt: str, qmax: int, smax: int) -> str:
    if name in forms.registry_names():
        ser = _canonical(forms.catalog(name, qmax).series, (qmax,))
    else:
        ser = _canonical(lift.siegel_expansion(name, qmax, smax).series, (qmax, smax))
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


def _box_bound(text: str) -> int:
    """The value of --qmax or --smax; a negative bound is refused."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"a box bound must be >= 0, got {n}")
    return n


def _box_opts(p, q=6, s=6):
    p.add_argument("--qmax", type=_box_bound, default=q, help="q-exponent bound (exponent units)")
    p.add_argument("--smax", type=_box_bound, default=s, help="s-exponent bound (exponent units)")


def _emit_opts(p):
    """The options of the commands that print one series through _emit."""
    _box_opts(p)
    p.add_argument("--csv", action="store_true", help="CSV output (default JSON)")
    p.add_argument("-o", "--output", help="write to file")


def _form_args(p):
    fe = p.add_subparsers(dest="verb", required=True).add_parser("expand")
    fe.add_argument("name", choices=forms.registry_names())
    _emit_opts(fe)


def _hecke_args(p):
    ha = p.add_subparsers(dest="verb", required=True).add_parser("apply")
    ha.add_argument("--op", required=True,
                    help="descriptor like t0:2, tminus:3, lambda:2, tplus2, tplus14")
    ha.add_argument("--form", required=True)
    _emit_opts(ha)


def _lift_args(p):
    lsub = p.add_subparsers(dest="kind", required=True)
    for kind in ("arith", "exp", "closed"):
        lp = lsub.add_parser(kind)
        lp.add_argument("name")
        if kind == "arith":
            lp.add_argument("--mu", type=int, default=1)
        _emit_opts(lp)


def _siegel_args(p):
    ssub = p.add_subparsers(dest="verb", required=True)
    for verb in ("msym", "heckeprod", "restrict", "involution"):
        spp = ssub.add_parser(verb)
        spp.add_argument("--form", required=True)
        if verb == "msym":
            spp.add_argument("--p", type=int, required=True)
        if verb == "restrict":
            spp.add_argument("--alpha", choices=["0", "half"], required=True)
        _emit_opts(spp)


def _roots_args(p):
    rsub = p.add_subparsers(dest="verb", required=True)
    rsub.add_parser("check").add_argument("case", choices=kmroots.case_ids())
    rl = rsub.add_parser("lie-check")
    rl.add_argument("case", choices=sorted(kmroots.CASE_FORMS))
    _box_opts(rl)


def _verify_args(p):
    p.add_argument("id", nargs="?", default="all")
    p.add_argument("--section", default=None)
    _box_opts(p)
    p.add_argument("--json", action="store_true", help="JSON output")


def _export_args(p):
    p.add_argument("id")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--goldens", default=None, help="compare against a goldens dir")
    p.add_argument("--regen-goldens", action="store_true")
    _box_opts(p, 3, 3)
    p.add_argument("-o", "--output", help="write to file")


def _diff_args(p):
    p.add_argument("a")
    p.add_argument("b")


# command -> (help, handler, the function that adds its arguments), in usage order
_COMMANDS = {
    "form": ("expand a catalog Jacobi form", cmd_form, _form_args),
    "hecke": ("apply a Hecke operator", cmd_hecke, _hecke_args),
    "lift": ("arithmetic/exponential/closed-form liftings", cmd_lift, _lift_args),
    "siegel": ("algebra on three-variable expansions", cmd_siegel, _siegel_args),
    "roots": ("hyperbolic root-system data", cmd_roots, _roots_args),
    "verify": ("run identity checks", cmd_verify, _verify_args),
    "export": ("deterministic JSON/CSV coefficient export", cmd_export, _export_args),
    "diff": ("compare two exported JSON series", cmd_diff, _diff_args),
    "manifest": ("print the registry manifest", cmd_manifest, lambda p: None),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The argparse tree.  Given a known ``command``, only its subtree is
    built; the other commands stay choices of the top level, with no
    parser, so its usage line reads as the full tree's."""
    ap = argparse.ArgumentParser(
        prog="paramodular",
        description="Exact Fourier expansions of Jacobi and paramodular forms, "
                    "their liftings, and identity verification.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (text, handler, add_args) in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            p = sub.add_parser(name, help=text)
            p.set_defaults(func=handler)
            add_args(p)
        else:
            sub.choices[name] = None  # named in the usage line, never parsed
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[0] if argv else None)
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
