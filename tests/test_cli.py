import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from paramodular import cli
from paramodular.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from paramodular.qseries import Series

ROOT = Path(__file__).resolve().parent.parent


def run(args, **kw):
    return subprocess.run([sys.executable, "-m", "paramodular.cli", *args],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
                          **kw)


def test_form_expand_json_round_trip(tmp_path):
    out = tmp_path / "phi.json"
    assert main(["form", "expand", "phi_0_2", "--qmax", "2",
                 "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    s = Series.from_json_dict(data)
    assert s.coeff_at(0, 0) == 4
    assert data["denoms"] == [24, 2]


def test_form_expand_csv_has_sorted_rows(capsys):
    assert main(["form", "expand", "phi_0_1", "--qmax", "1", "--csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,l,coefficient"
    rows = [tuple(int(x) for x in line.split(",")[:2]) for line in out[1:]]
    assert rows == sorted(rows)


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["lift", "closed", "delta2", "--qmax", "3", "--smax", "3",
                     "-o", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_diff_exit_codes(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    main(["lift", "closed", "delta1", "--qmax", "3", "--smax", "3", "-o", str(a)])
    main(["lift", "closed", "delta1", "--qmax", "3", "--smax", "3", "-o", str(b)])
    main(["lift", "closed", "delta2", "--qmax", "3", "--smax", "3", "-o", str(c)])
    assert main(["diff", str(a), str(b)]) == 0
    assert main(["diff", str(a), str(c)]) == 1


def test_verify_single_identity(capsys):
    assert main(["verify", "eq3.16", "--qmax", "4", "--smax", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "eq3.16" in out


def test_verify_json_output(capsys):
    assert main(["verify", "eq2.24", "--qmax", "4", "--smax", "4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["id"] == "eq2.24" and rows[0]["status"] == "pass"


@pytest.mark.parametrize("name, row", [
    ("phi_0_1", [[0, -2, "1"], [0, 0, "10"], [0, 2, "1"]]),
    ("phi_0_2", [[0, -2, "1"], [0, 0, "4"], [0, 2, "1"]]),
])
def test_form_expand_at_box_zero_prints_the_q0_row(capsys, name, row):
    # the divisor's lead lies past the box, so its probe must look beyond it
    assert main(["form", "expand", name, "--qmax", "0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["terms"] == row and data["trunc"] == [0, None]


def test_verify_insufficient_box(capsys):
    assert main(["verify", "eq3.16", "--qmax", "0", "--smax", "0"]) == 1
    assert "error" in capsys.readouterr().out.lower()


def _add_identity(monkeypatch, ident, exc):
    from paramodular import identities

    def build(qmax, smax):
        raise exc
    monkeypatch.setitem(identities.registry(), ident,
                        identities.IdentityRecord(ident, "0", "raises", build))


def test_verify_reports_a_box_below_the_divisor_lead(monkeypatch):
    from paramodular import identities
    from paramodular.qseries import div_operands

    def led_by(e):  # x^e, certified to the box it is built at
        return lambda q: Series(1, (24,), {(e,): 1} if e <= q else {}, (q,), (0,))

    def build(qmax, smax):
        return div_operands(led_by(0), led_by(48), (qmax,))
    monkeypatch.setitem(identities.registry(), "deep-divisor",
                        identities.IdentityRecord("deep-divisor", "0", "1 / x^2", build))
    # at box 6 the divisor's probe reaches 24, short of its lead at 48
    r = identities.verify("deep-divisor", 6, 6)
    assert r.status == "error" and "the divisor has no term in the box (24,)" in r.detail


def test_verify_reports_box_shortfalls(monkeypatch, capsys):
    from paramodular.lift import InsufficientBoxError
    _add_identity(monkeypatch, "short-box", InsufficientBoxError("input too shallow"))
    assert main(["verify", "short-box"]) == EXIT_MISMATCH
    assert "input too shallow" in capsys.readouterr().out


def test_verify_propagates_internal_errors(monkeypatch, capsys):
    from paramodular import identities
    _add_identity(monkeypatch, "broken", RuntimeError("a bug"))
    with pytest.raises(RuntimeError, match="a bug"):
        identities.verify("broken", 24, 24)
    assert main(["verify", "broken"]) == EXIT_INTERNAL
    assert "RuntimeError: a bug" in capsys.readouterr().err


def test_export_trunc_is_the_certified_box(monkeypatch, capsys):
    from paramodular import forms
    assert main(["export", "phi_3_1", "--qmax", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trunc"] == [72, None]
    deep = forms.catalog("phi_3_1", 24 * 5).series.restricted((72,))
    assert Series.from_json_dict(data).first_mismatch(deep) is None

    real = forms.catalog
    monkeypatch.setattr(forms, "catalog",
                        lambda name, qmax: real(name, qmax).restricted(qmax - 20))
    assert main(["export", "phi_3_1", "--qmax", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certified to numerator 52" in captured.err


# the five Siegel requests of the benchmark and two asymmetric boxes
SIEGEL_REQUESTS = [
    "msym --form delta5 --p 2 --qmax 5 --smax 5",
    "msym --form delta1 --p 2 --qmax 5 --smax 5",
    "msym --form delta5 --p 3 --qmax 6 --smax 6",
    "msym --form delta2 --p 3 --qmax 6 --smax 6",
    "heckeprod --form delta5 --qmax 7 --smax 7",
    "heckeprod --form delta5 --qmax 7 --smax 3",
    "msym --form delta5 --p 2 --qmax 2 --smax 5",
]


def test_siegel_exports_certify_the_requested_box(monkeypatch, capsys):
    from paramodular import lift, siegel
    for request in SIEGEL_REQUESTS:
        argv = request.split()
        assert main(["siegel", *argv]) == 0, request
        got = Series.from_json_dict(json.loads(capsys.readouterr().out))
        q, s = 24 * int(argv[-3]), 24 * int(argv[-1])
        assert got.trunc == (q, None, s), request
        # the same product from an input built 48 numerators deeper
        deep = lift.siegel_expansion(argv[2], q + 48, s + 48)
        if argv[0] == "msym":
            ref = siegel.ms_p(deep, int(argv[4]), q, s)
        else:
            ref = siegel.hecke_product_T2(deep, q, s)
        assert got.coeffs == ref.series.restricted((q, s)).coeffs, request

    real = lift.siegel_expansion
    monkeypatch.setattr(lift, "siegel_expansion",
                        lambda name, q, s: real(name, q, s).restricted(q - 48, s))
    assert main(["siegel", *SIEGEL_REQUESTS[0].split()]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certified to numerator 96 in variable 0, short of the requested 120" in captured.err


@pytest.mark.parametrize("argv", [
    "export arith:eta9_theta:1:junk", "export arith:", "export exp:",
    "export arith:eta9_theta:x", "export exp:phi_0_1:1", "export delta5:1",
    "siegel involution --form arith:eta9_theta:1:junk",
])
def test_a_malformed_siegel_id_is_a_usage_error(capsys, argv):
    assert main([*argv.split(), "--qmax", "1", "--smax", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_an_explicit_mu_of_one_names_the_default_lift(capsys):
    outs = []
    for ident in ("arith:eta9_theta", "arith:eta9_theta:1"):
        assert main(["export", ident, "--qmax", "1", "--smax", "1"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_siegel_restrict_at_half(capsys):
    argv = "siegel restrict --form delta2 --alpha half --qmax 1 --smax 1".split()
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [[6, 0, 12, "2"]]


def test_verify_boxes_do_not_depend_on_order(monkeypatch):
    from paramodular import forms, identities
    ids = sorted(identities.registry())
    boxes = []
    for order in (ids, ids[::-1]):
        monkeypatch.setattr(forms, "_CACHE", {})
        boxes.append({ident: identities.verify(ident, 48, 48).box for ident in order})
    assert boxes[0] == boxes[1]


def test_verify_section_filter(capsys):
    assert main(["verify", "all", "--section", "nonexistent"]) == 0
    out = capsys.readouterr().out
    assert "0/0" in out


def test_hecke_apply(capsys):
    assert main(["hecke", "apply", "--op", "t0:2", "--form", "phi_0_2",
                 "--qmax", "1", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "0,0,44" in out


# every operator kind on a form it accepts; tminuschar also at the trivial
# character, read as conductor 1
HECKE_REQUESTS = [("lambda:2", "phi_0_1"), ("tminus:2", "phi_0_1"),
                  ("tminuschar:2", "eta5_theta2z"), ("tminuschar:2", "eta21_theta2z"),
                  ("tminuschar:2", "eta3_theta6_theta2z"), ("t0:2", "phi_0_2"),
                  ("t0:3", "phi_0_4"), ("tplus2", "phi_0_2"), ("tplus14", "phi_0_4"),
                  ("lambdastar:2", "phi_0_4")]


@pytest.mark.parametrize("qmax", (6, 10))
def test_hecke_apply_certifies_the_requested_box(capsys, qmax):
    from paramodular import forms
    for op, form in HECKE_REQUESTS:
        assert main(["hecke", "apply", "--op", op, "--form", form,
                     "--qmax", str(qmax)]) == 0, op
        data = json.loads(capsys.readouterr().out)
        assert data["trunc"] == [24 * qmax, None], op
        keys = [t[:2] for t in data["terms"]]
        assert data["floor"] == [min((k[i] for k in keys), default=0)
                                 for i in (0, 1)], op
    # the printed floor is the stored minimum, whatever was built before
    forms.clear_cache()
    main(["form", "expand", "phi_0_2", "--qmax", "2"])
    fresh = capsys.readouterr().out
    forms.catalog("phi_0_2", 480)
    main(["form", "expand", "phi_0_2", "--qmax", "2"])
    assert capsys.readouterr().out == fresh


def test_roots_check_and_lie(capsys):
    assert main(["roots", "check", "D2"]) == 0
    assert "tables verified" in capsys.readouterr().out
    assert main(["roots", "lie-check", "t3_II_even", "--qmax", "4",
                 "--smax", "4"]) == 0
    assert "orbit points checked" in capsys.readouterr().out


def test_export_goldens_cycle(tmp_path, capsys):
    gd = tmp_path / "goldens"
    assert main(["export", "phi_0_3", "--format", "json", "--goldens", str(gd),
                 "--regen-goldens", "--qmax", "2", "--smax", "2"]) == 0
    capsys.readouterr()
    assert main(["export", "phi_0_3", "--format", "json", "--goldens", str(gd),
                 "--qmax", "2", "--smax", "2"]) == 0
    assert "golden match" in capsys.readouterr().out


def test_export_against_a_tampered_golden_is_a_mismatch(tmp_path, capsys):
    gd = tmp_path / "goldens"
    argv = ["export", "phi_0_3", "--goldens", str(gd), "--qmax", "2", "--smax", "2"]
    assert main(argv + ["--regen-goldens"]) == EXIT_OK
    path = gd / "phi_0_3.json"
    text = path.read_text()
    tampered = text.replace(',"1"]', ',"2"]', 1)    # one coefficient, the format kept
    assert tampered != text
    path.write_text(tampered)
    capsys.readouterr()
    assert main(argv) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"golden mismatch for phi_0_3 at {path}" in captured.err


def test_repo_goldens_regression(capsys):
    gd = ROOT / "goldens"
    if not gd.exists():
        pytest.skip("no goldens directory")
    for path in sorted(gd.glob("*.json")):
        name = path.stem
        if name == "manifest":
            # the case ids and every form's weight, index, character, kind and route
            capsys.readouterr()
            assert main(["manifest"]) == 0
            assert json.loads(capsys.readouterr().out) == json.loads(path.read_text())
        else:
            assert main(["export", name, "--format", "json", "--goldens", str(gd),
                         "--qmax", "3", "--smax", "3"]) == 0, name


def test_unknown_ids_exit_usage(capsys):
    assert main(["form", "expand", "nonsense"]) == 2
    assert main(["lift", "closed", "nonsense"]) == 2


@pytest.mark.parametrize("p", ["0", "-1"])
def test_msym_refuses_p_below_one(capsys, p):
    argv = ["siegel", "msym", "--form", "delta1", "--p", p, "--qmax", "1", "--smax", "1"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p >= 1" in captured.err


@pytest.mark.parametrize("argv", [
    "lift closed delta5 --qmax -1 --smax 1",
    "siegel msym --form delta5 --p 2 --qmax -1 --smax 1",
    "export delta5 --qmax -1 --smax -1",
    "form expand phi_0_1 --qmax -1",
    "verify eq3.14 --qmax -1",
    "verify eq3.14 --qmax 1 --smax -1"])
def test_a_negative_box_is_refused_at_parse_time(capsys, argv):
    assert main(argv.split()) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a box bound must be >= 0" in captured.err


def test_a_box_bound_that_is_no_integer_is_refused_at_parse_time(capsys):
    assert main(["form", "expand", "phi_0_1", "--qmax", "x"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value: 'x'" in captured.err


@pytest.mark.parametrize("op, form", [
    ("t0:0", "phi_0_1"), ("t0", "phi_0_1"), ("t0:4", "phi_0_1"), ("t0:-2", "phi_0_1"),
    ("lambdastar:0", "phi_0_4"), ("lambdastar:-1", "phi_0_4"),
    ("tminuschar:-1", "eta5_theta2z"), ("tplus2:7", "phi_0_2"), ("tplus14:5", "phi_0_4")])
def test_hecke_refuses_a_parameter_outside_its_operator_domain(capsys, op, form):
    # t0 is stated for a prime p; every operator wants a parameter >= 1, and
    # tplus2 and tplus14 take none
    argv = ["hecke", "apply", "--op", op, "--form", form, "--qmax", "1"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wants a" in captured.err


@pytest.mark.parametrize("form", ["E4", "delta_tau", "phi_0_1", "phi_m2_1"])
def test_lift_arith_refuses_index_zero_and_weight_below_one(capsys, form):
    assert main(["lift", "arith", form, "--qmax", "1", "--smax", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "integral weight >= 1 and a positive index" in captured.err


def test_output_flags_a_command_ignores_are_refused(capsys):
    # verify prints a table or --json; lie-check prints one line
    assert main(["verify", "eq3.16", "--qmax", "1", "--smax", "1", "--csv"]) == EXIT_USAGE
    assert main(["roots", "lie-check", "D2", "--json"]) == EXIT_USAGE
    assert main(["lift", "closed", "delta1", "--json"]) == EXIT_USAGE


def test_manifest(capsys):
    assert main(["manifest"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "phi_0_1" in data["forms"]
    assert "t3_II_even" in data["cases"]


def test_subprocess_entry_point():
    r = run(["roots", "check", "t1_II_even"])
    assert r.returncode == 0
    assert "tables verified" in r.stdout


def test_the_engine_does_not_import_cyclotomic():
    # coefficients are integers: only the tests' oracles use Z[zeta_n]
    code = "import sys, paramodular.cli; assert 'paramodular.cyclotomic' not in sys.modules"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert r.returncode == 0, r.stderr


# one valid request per command, then help and usage errors at every level
IDENTITY_ARGVS = [
    ["form", "expand", "theta", "--qmax", "1"],
    ["hecke", "apply", "--op", "t0:2", "--form", "phi_0_2", "--qmax", "1"],
    ["lift", "closed", "delta1", "--qmax", "1", "--smax", "1"],
    ["siegel", "involution", "--form", "delta1", "--qmax", "1", "--smax", "1"],
    ["roots", "check", "t1_I_odd"],
    ["roots", "lie-check", "D2", "--qmax", "1", "--smax", "1"],
    ["verify", "eq2.24", "--qmax", "1", "--smax", "1"],
    ["export", "delta1", "--qmax", "1", "--smax", "1"],
    ["diff", "goldens/delta1.json", "goldens/delta2.json"],
    ["manifest"],
    ["-h"],
    ["roots", "-h"],
    ["roots", "check", "-h"],
    ["siegel", "msym", "-h"],
    [],
    ["nope"],
    ["roots", "nope"],
    ["roots", "check", "nope"],
    ["siegel", "msym", "--form", "delta5"],
    ["roots", "check", "t1_I_odd", "--bogus"],
]


@pytest.mark.parametrize("argv", IDENTITY_ARGVS, ids=lambda a: " ".join(a) or "no-arguments")
def test_a_request_prints_what_the_full_parser_tree_prints(monkeypatch, capsys, argv):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")

    def outcome():
        rc = main(list(argv))
        return (rc, *capsys.readouterr())

    narrowed = outcome()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert outcome() == narrowed


def test_a_request_builds_only_its_command_parsers(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["roots", "check", "t1_I_odd"]) == EXIT_OK
    # the top level, roots, and its two verbs
    assert len(built) <= 4, built
