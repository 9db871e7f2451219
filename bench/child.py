"""One solve in a fresh process.

Set-up is importing grimm and building its shared sieve; the solve is one
call of the public CLI entry `grimm.cli.run`, which writes the JSON report
to a file.  Prints one JSON line: exit status, set-up and solve seconds,
peak RSS and, when traced, the per-layer metrics.

    python3 bench/child.py '<json config>'
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

import layers
import tracing


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped pool workers.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main(cfg: dict) -> dict:
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    tracer = installation = None
    t0 = time.perf_counter()
    cli = importlib.import_module("grimm.cli")
    if cfg["trace"]:
        tracer = tracing.Tracer()
        installation = tracing.install(tracer, layers.TARGETS, "grimm")
    build = getattr(importlib.import_module("grimm.arith"), "default_sieve", None)
    if build is not None:
        build(cfg["sieve_limit"])
    t1 = time.perf_counter()
    out = {"setup_s": t1 - t0}
    if cfg["argv"] is None:
        return out
    if tracer is not None:
        setup_snap = tracer.take()
    t1 = time.perf_counter()
    rc = cli.run(list(cfg["argv"]) + ["--format", "json", "--output", cfg["output"]])
    t2 = time.perf_counter()
    out.update(rc=rc, solve_s=t2 - t1, peak_rss_mb=_peak_rss_mb())
    if tracer is not None:
        solve_snap = tracer.take()
        installation.remove()
        out["layers"] = layers.per_layer(setup_snap, solve_snap, t2 - t1)
        out["absent"] = installation.absent
        out["observer_errors"] = solve_snap.observer_errors
        out["spans"] = {
            name: [s.calls, s.self_s] for name, s in sorted(solve_snap.stats.items()) if s.calls
        }
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
