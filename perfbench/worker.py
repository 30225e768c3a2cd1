"""One benchmark process: import the engine, then serve the requests of a job.

Reads one JSON job from stdin and writes one JSON record to stdout:

    {"kind": "registry" | "cli", "requests": [...], "box": B,
     "spawned": <CLOCK_MONOTONIC seconds when the parent started us>,
     "src": <directory the engine must be imported from>, "trace": bool}

``registry`` jobs verify identity ids in the given order in this one
process, sharing its caches as ``paramodular verify all`` does; ``cli``
jobs run each request (a full argv list) through ``paramodular.cli.main`` with
stdout captured, as the ``paramodular`` command does.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    job = json.loads(sys.stdin.read())
    import paramodular
    from paramodular import cli, identities

    if Path(paramodular.__file__).resolve().parent.parent != Path(job["src"]).resolve():
        raise SystemExit(f"paramodular imported from {paramodular.__file__}, "
                         f"not from {job['src']}")
    if job["kind"] == "registry":
        identities.registry()
    # perf_counter is CLOCK_MONOTONIC, shared with the parent that spawned us
    setup_s = perf_counter() - job["spawned"]

    tracer = None
    if job["trace"]:
        import spans    # this file's directory is sys.path[0]
        tracer = spans.Tracer()
        spans.install(tracer)

    results = []
    n = 24 * job["box"]   # q- and s-numerators over 24
    for req in job["requests"]:
        if job["kind"] == "registry":
            t0 = perf_counter()
            r = identities.verify(req, n, n)
            dt = perf_counter() - t0
            results.append({"latency": dt, "status": r.status,
                            "constant": None if r.constant is None else str(r.constant),
                            "detail": r.detail})
        else:
            out = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out):
                rc = cli.main(req)
            dt = perf_counter() - t0
            results.append({"latency": dt, "rc": rc, "stdout": out.getvalue()})

    record = {"setup_s": setup_s, "results": results, "rss_mb": peak_rss_mb()}
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process since exec.  ru_maxrss would also
    count the parent's pages that the child held between fork and exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
