"""What the CLI parser makes of each request, pinned.

``cli_parse_pin.json`` holds one row per argv.  A request the parser
accepts records its namespace (every attribute but ``func``) and the name of
its handler; a request that ends at parsing records its exit code and
whether it printed to stdout (help prints, a usage error does not).  The
argvs are one request per command with help and usage errors at every
level, every request of the ``siegel`` and ``roots`` benchmark workloads at
its box, the README's CLI examples, and edge forms: ``--opt=value``,
options before positionals, negative values, missing required options,
unknown flags and choices, extra positionals and abbreviations.  To
re-record it, at a commit whose parser is taken as right:

    PYTHONPATH=src python tests/test_cli_parse_pin.py
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from paramodular import cli
from test_cli import IDENTITY_ARGVS

ROOT = Path(__file__).resolve().parent.parent
PIN = Path(__file__).resolve().parent / "cli_parse_pin.json"

EDGE_ARGVS = [
    "form expand phi_0_1 --qmax=3",
    "form expand phi_0_1 --qmax=3 --smax=0 --output=x.json",
    "form expand --qmax 1 phi_0_1",
    "hecke apply --qmax 1 --form phi_0_2 --op t0:2 --csv",
    "siegel msym --qmax 1 --form delta1 --smax 1 --p 2",
    "form expand phi_0_1 --qmax -1",
    "form expand phi_0_1 --qmax=-1",
    "form expand phi_0_1 --qmax x",
    "form expand phi_0_1 --qmax 1 --qmax 2",
    "siegel msym --form delta1 --p -1 --qmax 1 --smax 1",
    "siegel msym --form delta1 --p=-1",
    "siegel msym --form delta1 --p x",
    "lift arith eta9_theta --mu 2 --qmax 1 --smax 1",
    "lift arith eta9_theta --mu=-3",
    "lift closed delta1 --mu 2",
    "siegel restrict --form delta1",
    "siegel restrict --form delta1 --alpha half",
    "siegel restrict --form delta1 --alpha 1",
    "hecke apply --form phi_0_2",
    "hecke apply --op t0:2",
    "form expand phi_0_1 --bogus",
    "form expand phi_0_1 --csv=1",
    "form expand phi_0_1 --qmax",
    "form expand phi_0_1 -o",
    "siegel msym --form --p 2",
    "form expand nonsense",
    "form nope",
    "export delta1 --format xml",
    "export delta1 --format csv --goldens goldens --regen-goldens",
    "export delta1 --format=csv -o out.csv",
    "roots check D2 D2",
    "roots lie-check t1_I_odd",
    "roots lie-check D2",
    "roots check D2 --qmax 1",
    "diff a.json",
    "diff a.json b.json c.json",
    "diff -1 b.json",
    "manifest x",
    "manifest --qmax 1",
    "verify",
    "verify --json",
    "verify all --section 3 --json",
    "verify eq2.24 eq2.25",
    "form expand",
    "lift",
    "form expand phi_0_1 --qm 1",
    "verify --js",
    "--help",
    "form -h",
    "form expand --help",
    "lift arith -h",
    "verify -h",
    "manifest -h",
    "diff --help",
]


def outcome(argv) -> dict:
    """The parser's verdict on ``argv``: the namespace and handler of an
    accepted request, or the exit code of one that ends at parsing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        args = cli.parse(list(argv))
    if isinstance(args, int):
        return {"exit": args, "printed": bool(out.getvalue())}
    fields = dict(vars(args))
    return {"handler": fields.pop("func").__name__, "args": fields}


def record() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    bench = [run.argv_of(request, run.WORKLOADS[name].box)
             for name in ("siegel", "roots") for request in run.WORKLOADS[name].requests]
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    readme = [re.sub(r"\s+#.*", "", line).split()[1:]
              for line in block.split("```", 1)[0].splitlines()]
    argvs = IDENTITY_ARGVS + bench + readme + [line.split() for line in EDGE_ARGVS]
    return [{"argv": list(argv), **outcome(argv)} for argv in dict.fromkeys(map(tuple, argvs))]


ROWS = json.loads(PIN.read_text()) if __name__ != "__main__" else []


@pytest.mark.parametrize("row", ROWS, ids=lambda row: " ".join(row["argv"]) or "no-arguments")
def test_parse_matches_the_pin(row):
    want = {k: v for k, v in row.items() if k != "argv"}
    assert outcome(row["argv"]) == want


if __name__ == "__main__":
    PIN.write_text(json.dumps(record(), indent=1) + "\n")
