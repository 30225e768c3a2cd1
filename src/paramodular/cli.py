"""Command-line front end: expansions, operators, lifts, identity checks,
golden-file regression, and JSON/CSV export."""

import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

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


def cmd_export(args) -> int:
    if args.goldens and args.output:
        raise ValueError("--goldens checks or rewrites the golden file; it takes no -o/--output")
    q, s = _box(args)
    if args.id in forms.registry_names():
        ser = _canonical(forms.catalog(args.id, q).series, (q,))
    else:
        ser = _canonical(lift.siegel_expansion(args.id, q, s).series, (q, s))
    text = _series_csv(ser) if args.format == "csv" else _series_json(ser) + "\n"
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
        raise ValueError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise ValueError(f"a box bound must be >= 0, got {n}")
    return n


# A leaf of the command table maps each positional name, in order, and each
# option flag to (dest, converter, default).  The converter may be a tuple
# of the values accepted, or None for a store-true flag; a _REQUIRED
# default marks a value that must be given.
_REQUIRED = ...
_QMAX = {"--qmax": ("qmax", _box_bound, 6)}
_BOX = {**_QMAX, "--smax": ("smax", _box_bound, 6)}
_OUTPUT = {"-o": ("output", str, None), "--output": ("output", str, None)}
_CSV = {"--csv": ("csv", None, False), **_OUTPUT}   # the output options of _emit
_EMIT = {**_BOX, **_CSV}                            # and the (q, s) box of a Siegel command
_FORM = {"--form": ("form", str, _REQUIRED), **_EMIT}
_LIFT = {"name": ("name", str, _REQUIRED), **_EMIT}

# command -> (help, handler, verb dest, {verb: leaf}), or (help, handler,
# None, leaf) for a command without verbs; in usage order
_COMMANDS = {
    "form": ("expand a catalog Jacobi form", cmd_form, "verb", {
        "expand": {"name": ("name", tuple(forms.registry_names()), _REQUIRED), **_QMAX,
                   **_CSV}}),
    "hecke": ("apply a Hecke operator", cmd_hecke, "verb", {
        "apply": {"--op": ("op", str, _REQUIRED), "--form": ("form", str, _REQUIRED),
                  **_QMAX, **_CSV}}),
    "lift": ("arithmetic/exponential/closed-form liftings", cmd_lift, "kind", {
        "arith": {**_LIFT, "--mu": ("mu", int, 1)}, "exp": _LIFT, "closed": _LIFT}),
    "siegel": ("algebra on three-variable expansions", cmd_siegel, "verb", {
        "msym": {**_FORM, "--p": ("p", int, _REQUIRED)},
        "heckeprod": _FORM,
        "restrict": {**_FORM, "--alpha": ("alpha", ("0", "half"), _REQUIRED)},
        "involution": _FORM}),
    "roots": ("hyperbolic root-system data", cmd_roots, "verb", {
        "check": {"case": ("case", tuple(kmroots.case_ids()), _REQUIRED)},
        "lie-check": {"case": ("case", tuple(sorted(kmroots.CASE_FORMS)), _REQUIRED),
                      **_BOX}}),
    "verify": ("run identity checks", cmd_verify, None, {"id": ("id", str, "all"),
        "--section": ("section", str, None), **_BOX, "--json": ("json", None, False)}),
    "export": ("deterministic JSON/CSV coefficient export", cmd_export, None, {
        "id": ("id", str, _REQUIRED), "--format": ("format", ("json", "csv"), "json"),
        "--goldens": ("goldens", str, None), "--regen-goldens": ("regen_goldens", None, False),
        "--qmax": ("qmax", _box_bound, 3), "--smax": ("smax", _box_bound, 3), **_OUTPUT}),
    "diff": ("compare two exported JSON series", cmd_diff, None, {
        "a": ("a", str, _REQUIRED), "b": ("b", str, _REQUIRED)}),
    "manifest": ("print the registry manifest", cmd_manifest, None, {}),
}


class _Exit(Exception):
    """Parsing ends, with (usage, None) for help or (usage, a usage error)."""


def _name(prog: str, names: dict, argv: list):
    """The command or verb that starts ``argv``, and the words after it."""
    usage = f"usage: {prog} [-h] {{{','.join(names)}}} ..."
    if argv[:1] in (["-h"], ["--help"]):
        rows = [f"  {n:9s} {row[0]}" for n, row in names.items()] if names is _COMMANDS else []
        raise _Exit("\n".join([usage, *rows]), None)
    if not argv or argv[0] not in names:
        raise _Exit(usage, f"invalid choice: {argv[0]!r}" if argv else "a choice is required")
    return argv[0], argv[1:]


def _is_flag(word: str) -> bool:
    return len(word) > 1 and word[0] == "-" and not word[1].isdigit()


def _leaf(prog: str, leaf: dict, argv: list) -> dict:
    """The values a leaf's positionals and options take from ``argv``, in
    any order; ``--flag=value`` gives a flag its value in one word."""
    shown = [(f"{k} {d.upper()}" if _is_flag(k) and c else k, x) for k, (d, c, x) in leaf.items()]
    usage = " ".join([f"usage: {prog} [-h]"] + [w if x is _REQUIRED else f"[{w}]" for w, x in shown])
    ns = {dest: default for dest, _, default in leaf.values()}
    waiting, words = [k for k in leaf if not _is_flag(k)], iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            raise _Exit(usage, None)
        key, eq, value = word.partition("=") if _is_flag(word) else (word, "", word)
        if not _is_flag(word) and waiting:
            key = waiting.pop(0)
        elif not _is_flag(word) or key not in leaf or eq and leaf[key][1] is None:
            raise _Exit(usage, f"unrecognized arguments: {word}")
        elif leaf[key][1] is None:
            value = True
        elif not eq:
            value = next(words, None)
            if value is None or _is_flag(value):
                raise _Exit(usage, f"argument {key}: expected one argument")
        dest, conv, _ = leaf[key]
        if isinstance(conv, tuple) and value not in conv:
            raise _Exit(usage, f"argument {key}: invalid choice: {value!r} "
                               f"(choose from {', '.join(conv)})")
        try:
            ns[dest] = conv(value) if callable(conv) else value
        except ValueError as exc:
            raise _Exit(usage, f"argument {key}: {exc}") from None
    missing = [k for k, (dest, _, _) in leaf.items() if ns[dest] is _REQUIRED]
    if missing:
        raise _Exit(usage, f"the following arguments are required: {', '.join(missing)}")
    return ns


def parse(argv: list):
    """The namespace of a request: ``cmd``, its verb, one attribute per
    positional and option, and ``func``, its handler.  A request that ends
    here, with help or a usage error, gives its exit code instead."""
    try:
        cmd, rest = _name("paramodular", _COMMANDS, argv)
        _, handler, verb, leaf = _COMMANDS[cmd]
        prog, ns = f"paramodular {cmd}", {"cmd": cmd, "func": handler}
        if verb:
            ns[verb], rest = _name(prog, leaf, rest)
            prog, leaf = f"{prog} {ns[verb]}", leaf[ns[verb]]
        ns.update(_leaf(prog, leaf, rest))
    except _Exit as stop:
        usage, error = stop.args
        if error is None:
            print(usage)
            return EXIT_OK
        print(f"{usage}\nparamodular: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else list(argv))
    if isinstance(args, int):
        return args
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:  # OSError: a file the request names
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) and exc.args else exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only on failure: importing it costs ~0.3 MB of RSS
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
