import json
import subprocess
import sys
from pathlib import Path

import pytest

from paramodular.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_USAGE, main
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


def test_verify_insufficient_box(capsys):
    assert main(["verify", "eq3.16", "--qmax", "0", "--smax", "0"]) == 1
    assert "error" in capsys.readouterr().out.lower()


def _add_identity(monkeypatch, ident, exc):
    from paramodular import identities

    def build(qmax, smax):
        raise exc
    monkeypatch.setitem(identities.registry(), ident,
                        identities.IdentityRecord(ident, "0", "raises", "exact", build))


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


def test_verify_section_filter(capsys):
    assert main(["verify", "all", "--section", "nonexistent"]) == 0
    out = capsys.readouterr().out
    assert "0/0" in out


def test_hecke_apply(capsys):
    assert main(["hecke", "apply", "--op", "t0:2", "--form", "phi_0_2",
                 "--qmax", "1", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "0,0,44" in out


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


def test_repo_goldens_regression():
    gd = ROOT / "goldens"
    if not gd.exists():
        pytest.skip("no goldens directory")
    for path in sorted(gd.glob("*.json")):
        name = path.stem
        if name == "manifest":
            continue
        assert main(["export", name, "--format", "json", "--goldens", str(gd),
                     "--qmax", "3", "--smax", "3"]) == 0, name


def test_unknown_ids_exit_usage(capsys):
    assert main(["form", "expand", "nonsense"]) == 2
    assert main(["lift", "closed", "nonsense"]) == 2


def test_manifest(capsys):
    assert main(["manifest"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "phi_0_1" in data["forms"]
    assert "t3_II_even" in data["cases"]


def test_subprocess_entry_point():
    r = run(["roots", "check", "t1_II_even"])
    assert r.returncode == 0
    assert "tables verified" in r.stdout


def test_lift_cache_env_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PARAMODULAR_CACHE", str(tmp_path / "cache"))
    assert main(["lift", "closed", "delta1", "--qmax", "2", "--smax", "2"]) == 0
    first = capsys.readouterr().out
    assert (tmp_path / "cache").exists()
    assert main(["lift", "closed", "delta1", "--qmax", "2", "--smax", "2"]) == 0
    assert capsys.readouterr().out == first
