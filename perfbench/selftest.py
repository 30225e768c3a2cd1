"""Smoke test of the benchmark harness, in about a minute.

    python3 perfbench/selftest.py

Runs every workload for one pass untraced, and the registry and siegel
workloads traced: registry and roots at box 1, siegel at its own box,
since most of its exports have no coefficient at box 1.  Asserts that
every metric of BENCHMARK.json is printed with its unit, that every output
was right (fail_frac 0), and that the harness refuses to run, without
printing a result, where the engine's source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, spec: dict) -> None:
    box = [] if workload == "siegel" else ["--box", "1"]
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), *box)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert any(line.split() == ["fail_frac", "0", "ratio"] for line in lines), lines
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in want}, set(got) ^ {m["name"] for m in want}
    for m in want:
        value = got[m["name"]]["value"]
        assert got[m["name"]]["unit"] == m["unit"], (m, got[m["name"]])
        assert isinstance(value, (int, float)), (m, value)
        if not trace:
            assert value > 0, (m, value)
    print(f"ok {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} requests")


def check_refuses_without_source(spec: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "registry", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok refuses to run without the engine source")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        check_run(w["name"], 0, spec)
    for name in ("registry", "siegel"):
        check_run(name, 1, spec)
    check_refuses_without_source(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
