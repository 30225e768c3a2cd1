"""Benchmark of the paramodular engine: one workload, one run.

    python3 perfbench/run.py --workload {registry,siegel,roots} --seed N \
        --seconds S --trace {0,1} [--box B]

Run from the root of a checkout: the engine is imported from ``src/``.
Every pass starts a fresh process, with ``PARAMODULAR_CACHE`` unset, and
every output is checked against ``expected.json`` (recorded with
``record.py``).  A run makes as many passes over the workload as fit in
``--seconds``, and reports each request's upper-quartile latency over
them; see README.md for the workloads, the metrics and the order of
requests.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
RUN_LIMIT_S = 170       # a run ends its workers by then, to end within 180 s
DEADLINE = None         # perf_counter() value by which the run's workers end
SETUP_SAMPLES = 12      # least number of processes behind setup_s in a run

CLOSED = ["delta5", "delta2", "delta1", "delta_half", "d_half", "d1", "d2"]
ARITH = ["eta9_theta", "eta3_theta", "eta1_theta", "eta3_theta32", "eta1_theta32",
         "eta11_theta32", "eta21_theta2z", "eta3_theta6_theta2z", "eta6_theta_theta2z",
         "eta3_theta2_theta2z", "eta5_theta2z", "theta3_theta2z", "theta_theta2z"]
EXP = ["phi_0_1", "phi_0_2", "phi_0_3", "phi_0_4", "phi_0_5", "phi_0_5_alt",
       "phi_0_6_a", "phi_0_6_b", "phi_0_6_c", "phi_0_7", "phi_0_9", "phi_0_10",
       "phi_0_18", "phi_0_36", "phi_0_3_6", "phi_0_2_11"]
# every case but t2_1bar, t3_1bar and t4_1bar: at 5-8 s each, any one of
# them would be most of a pass, and leave room for two passes in a run
ROOT_CASES = sorted(
    [f"t{t}_{kind}" for t in (1, 2, 3, 4)
     for kind in ("I_odd", "0_odd", "I_odd_tilde", "II_even")]
    + [f"t{t}_{kind}" for t in (2, 3, 4)
       for kind in ("II_odd", "0_even", "I_even", "I_even_tilde")]
    + ["D2", "Dhalf"])
LIE_CASES = ["D2", "Dhalf", "t1_II_even", "t2_II_even", "t3_II_even", "t4_II_even"]


@dataclass
class Workload:
    requests: list      # request keys in CLI order; None: the recorded ids
    box: int            # q- and s-exponent bound of every request
    shared: bool        # one process per pass (shared caches) or per request


WORKLOADS = {
    "registry": Workload(
        None, 2, True),
    "siegel": Workload(
        [f"lift closed {c}" for c in CLOSED] + [f"lift arith {a}" for a in ARITH]
        + [f"lift exp {e}" for e in EXP]
        + ["siegel msym --form delta5 --p 2", "siegel msym --form delta1 --p 2"]
        # at box 5 these three exports are empty: their lowest s-exponent is 6
        + [f"siegel msym --form {f} --p 3 --qmax 6 --smax 6" for f in ("delta5", "delta2")]
        + ["siegel heckeprod --form delta5 --qmax 7 --smax 7"],
        5, False),
    "roots": Workload(
        [f"roots check {c}" for c in ROOT_CASES]
        + [f"roots lie-check {c}" for c in LIE_CASES],
        6, False),
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("request_p50_s", "s"),
              ("request_tail_s", "s"), ("peak_rss_mb", "MB")]


def argv_of(request: str, box: int) -> list:
    """The CLI arguments of a request: at the run's box, unless the request
    sets its own."""
    argv = request.split()
    if argv[:2] == ["roots", "check"] or "--qmax" in argv:
        return argv
    return argv + ["--qmax", str(box), "--smax", str(box)]


def box_of(request: str, box: int) -> int:
    argv = argv_of(request, box)
    return int(argv[argv.index("--qmax") + 1])


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PARAMODULAR_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(kind: str, requests: list, box: int, trace: bool) -> dict:
    """Run one worker process to completion; returns its record, or
    ``{"error": ...}`` when it fails to produce one."""
    timeout = None if DEADLINE is None else DEADLINE - perf_counter()
    if timeout is not None and timeout <= 0:
        return {"error": f"the run reached its limit of {RUN_LIMIT_S} s"}
    cmd = [sys.executable, str(HERE / "worker.py")]
    job = {"kind": kind, "requests": requests, "box": box, "src": str(SRC),
           "trace": trace}
    try:
        job["spawned"] = perf_counter()
        proc = subprocess.run(cmd, input=json.dumps(job), capture_output=True,
                              text=True, env=child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(name: str, order: list, box: int, trace: bool) -> list:
    """Serve every request of ``order`` once; returns one record per process,
    each with the request keys it served."""
    wl = WORKLOADS[name]
    if wl.shared:
        rec = spawn("registry", order, box, trace)
        rec["keys"] = list(order)
        return [rec]
    out = []
    for key in order:
        rec = spawn("cli", [argv_of(key, box)], box, trace)
        rec["keys"] = [key]
        out.append(rec)
    return out


# ----------------------------------------------------------------------
# output checks

def series_terms(text: str, box: int) -> dict:
    """Coefficients of an exported JSON series inside the box, keyed by
    their exponents as Fractions."""
    d = json.loads(text)
    terms = {}
    for *key, coeff in d["terms"]:
        exps = tuple(Fraction(k, q) for k, q in zip(key, d["denoms"]))
        if exps[0] <= box and exps[-1] <= box:
            terms[exps] = int(coeff)
    return terms


def digest_of(terms: dict) -> str:
    rows = [[str(x) for x in k] + [str(c)] for k, c in sorted(terms.items())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def digest(text: str, box: int) -> str:
    return digest_of(series_terms(text, box))


# The digest of an export with no coefficient in its box: it would accept
# any engine that returns nothing, so no recorded digest may equal it.
EMPTY_DIGEST = digest_of({})


def check_pass(name: str, box: int, records: list, expected: dict) -> dict:
    """Failure reason per request key of one pass (empty when all are right)."""
    bad = {}
    for rec in records:
        if "error" in rec:
            for key in rec["keys"]:
                bad[key] = rec["error"]
            continue
        for key, res in zip(rec["keys"], rec["results"]):
            want = expected.get(key)
            if name == "registry":
                if res["status"] != "pass" or res["constant"] != want:
                    bad[key] = f"{res['status']} constant={res['constant']} " \
                               f"want {want} {res['detail']}"
            elif res["rc"] != 0:
                bad[key] = f"exit code {res['rc']}"
            elif name == "siegel":
                try:
                    if want in (None, EMPTY_DIGEST):
                        bad[key] = f"no usable recorded digest: {want}"
                    elif digest(res["stdout"], box_of(key, box)) != want:
                        bad[key] = "coefficients differ from the recorded digest"
                except (ValueError, KeyError, TypeError) as exc:
                    bad[key] = f"unreadable export: {exc!r}"
            elif res["stdout"].strip() != want:
                bad[key] = f"printed {res['stdout'].strip()!r}, want {want!r}"
    return bad


# ----------------------------------------------------------------------
# metrics

def rank(p: int, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n: int) -> int:
    """The highest of 50, 60, ... 90, 95, 99 with at least ten of n samples
    beyond its nearest rank."""
    return max(p for p in (50, 60, 70, 80, 90, 95, 99) if n - rank(p, n) >= 10 or p == 50)


def nearest_rank(values: list, p: int) -> float:
    return sorted(values)[rank(p, len(values)) - 1]


def ref_loop_s() -> float:
    """A fixed pure-Python loop, timed as a diagnostic of machine speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def provenance() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    h = hashlib.sha256()
    for f in sorted((SRC / "paramodular").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": h.hexdigest()[:16]}


def order_for(wl: Workload, requests: list, seed: int) -> list:
    """The CLI's order for seed 0 and for workloads whose requests share a
    process; otherwise the order shuffled by the seed."""
    order = list(requests)
    if seed and not wl.shared:
        random.Random(seed).shuffle(order)
    return order


def run(name: str, seed: int, seconds: float, trace: bool, box: int) -> dict:
    wl = WORKLOADS[name]
    expected = json.loads(EXPECTED.read_text())
    want = expected[name] if name == "registry" else expected[name].get(str(box))
    if want is None:
        raise SystemExit(f"no recorded outputs for {name} at box {box}; "
                         f"have {sorted(expected[name])}")
    requests = wl.requests or list(want)
    order = order_for(wl, requests, seed)
    modes = [False, True] if trace else [False]

    global DEADLINE
    DEADLINE = perf_counter() + RUN_LIMIT_S
    ref = ref_loop_s()
    samples = {m: {key: [] for key in order} for m in modes}   # latencies per request
    setups, rss = [], []
    layers = {}
    attempted = failed = 0
    failures = {}
    # Passes while the next one would end within half a pass of --seconds,
    # and at least one: a run lasts about as long on a slow host as on a
    # fast one, and each request's upper quartile comes from about as many
    # samples in every run.  A traced run makes each pass twice, untraced
    # and traced.
    start, last, passes = perf_counter(), 0.0, 0
    while passes == 0 or (perf_counter() - start + last / 2 <= seconds
                          and perf_counter() < DEADLINE):
        t0 = perf_counter()
        passes += 1
        for mode in modes:
            records = run_pass(name, order, box, mode)
            bad = check_pass(name, box, records, want)
            attempted += len(order)
            failed += len(bad)
            failures.update(bad)
            for rec in records:
                for key, res in zip(rec["keys"], rec.get("results", ())):
                    samples[mode][key].append(res["latency"])
                if mode:
                    for k, v in rec.get("layers", {}).items():
                        layers[k] = layers.get(k, 0) + v
                elif "setup_s" in rec:
                    setups.append(rec["setup_s"])
                    rss.append(rec["rss_mb"])
        last = perf_counter() - t0

    # registry starts one process per pass: top up with processes that only
    # set up, so that setup_s is a median of at least SETUP_SAMPLES samples
    while len(setups) < SETUP_SAMPLES:
        rec = spawn("registry" if wl.shared else "cli", [], box, False)
        if "error" in rec:
            failures["setup probe"] = rec["error"]
            attempted += 1
            failed += 1
            break
        setups.append(rec["setup_s"])
        rss.append(rec["rss_mb"])

    pct = tail_percentile(len(requests))
    # each request's upper-quartile latency over the run's passes: the host's
    # common speed, which fast spells of the host do not move (README.md)
    lats = {m: [nearest_rank(xs, 75) for xs in samples[m].values() if xs] for m in modes}
    untraced = lats[False]
    e2e = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": sum(untraced),
        "request_p50_s": statistics.median(untraced) if untraced else 0.0,
        "request_tail_s": nearest_rank(untraced, pct) if untraced else 0.0,
        "peak_rss_mb": max(rss, default=0.0),
    }
    info = {"workload": name, "seed": seed, "box": box, "trace": int(trace),
            "passes": passes, "requests": len(requests), "tail_percentile": f"p{pct}",
            "fail_frac": failed / attempted, "host.ref_loop_s": ref,
            **provenance()}
    metrics = {k: (e2e[k], unit) for k, unit in END_TO_END}
    if trace:
        per_pass = {k: v / passes for k, v in layers.items()}
        requested = per_pass.get("forms.catalog.requested", 0)
        per_pass["forms.catalog.depth_ratio"] = (
            per_pass.get("forms.catalog.delivered", 0) / requested if requested else 0.0)
        per_pass["trace.wall_s"] = sum(lats[True])
        per_pass["trace.overhead_s"] = per_pass["trace.wall_s"] - e2e["wall_s"]
        per_pass["host.ref_loop_s"] = ref
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        metrics = {k: (per_pass.get(k, 0.0), units[k]) for k in units}
    return {"info": info, "e2e": e2e, "metrics": metrics, "attempted": attempted,
            "failed": failed, "failures": failures}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--box", type=int, default=None,
                    help="override the workload's box (one with recorded outputs)")
    args = ap.parse_args(argv)
    if not (SRC / "paramodular" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'paramodular'}; run from the "
              f"root of a paramodular checkout", file=sys.stderr)
        return 2
    box = args.box or WORKLOADS[args.workload].box
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), box)

    for k, v in res["info"].items():
        print(f"# {k}: {v}")
    for (k, unit) in END_TO_END:
        print(f"{k:18s} {res['e2e'][k]:.6g} {unit}")
    print(f"{'fail_frac':18s} {res['info']['fail_frac']:.6g} ratio")
    if args.trace:
        for k, (v, unit) in res["metrics"].items():
            print(f"{k:40s} {v:.6g} {unit}")
    for key, why in sorted(res["failures"].items()):
        print(f"FAILED {key}: {why}", file=sys.stderr)
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}}
    print(json.dumps(result))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
