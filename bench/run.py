"""Benchmark for the grimm toolkit.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  Every solve is a fresh process
(`child.py`) that imports grimm from `src/`, builds the shared sieve
(set-up) and makes one call of the public CLI entry with a JSON report
(solve).  Solves run one after another, a closed loop with one client,
until the next one would end after `--seconds`; the run reports medians.
Each report is checked against `oracle` and its sha256 against the other
solves of the run and against `digests.json`.

`--trace 1` instead makes an untraced solve, then the same solve at one
worker with grimm's functions wrapped (see `layers.py`), and reports the
per-layer metrics; for `scan` it also runs the untraced solve at one
worker and checks that the findings do not depend on the worker count.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_SOLVES = 2
SETUP_SAMPLES = 5
RUN_LIMIT_S = 150  # start no solve that would end after this


@dataclass
class Sample:
    rc: int | None = None
    setup_s: float = 0.0
    solve_s: float = 0.0
    peak_rss_mb: float = 0.0
    wall_s: float = 0.0
    items: int = 0
    digest: str = ""
    sections: str = ""  # digest of the findings and result sections
    problems: list[str] = field(default_factory=list)
    child: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    models = [l.split(":", 1)[1].strip() for l in read("/proc/cpuinfo").splitlines()
              if l.startswith("model name")]
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": models[0] if models else platform.processor(),
        "loadavg": read("/proc/loadavg").strip(),
    }


def spawn(cfg: dict, timeout: float) -> tuple[dict | None, str]:
    """Run child.py in its own process group; (its JSON line, error)."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(cfg)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = None, f"timed out after {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays such as pool workers
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        return None, err
    if proc.returncode != 0:
        lines = err.strip().splitlines()
        return None, lines[-1] if lines else f"child exited with {proc.returncode}"
    return json.loads(out.strip().splitlines()[-1]), ""


class Runner:
    def __init__(self, job: workloads.Job, recorded: dict, deadline: float):
        self.job = job
        self.recorded = recorded
        self.deadline = deadline
        self.checked: dict[str, workloads.Outcome] = {}
        self.first_digest: dict[str, str] = {}

    def setup_only(self) -> float | None:
        cfg = {"root": str(ROOT), "argv": None, "sieve_limit": self.job.sieve_limit, "trace": False}
        out, _ = spawn(cfg, max(5.0, self.deadline - time.monotonic()))
        return out["setup_s"] if out else None

    def solve(self, job: workloads.Job, trace: bool = False) -> Sample:
        OUT.mkdir(exist_ok=True)
        report = OUT / f"{job.workload}.json"
        report.unlink(missing_ok=True)
        cfg = {"root": str(ROOT), "argv": list(job.argv), "sieve_limit": job.sieve_limit,
               "trace": trace, "output": str(report)}
        t0 = time.monotonic()
        out, err = spawn(cfg, max(5.0, self.deadline - t0))
        s = Sample(wall_s=time.monotonic() - t0)
        if out is None:
            s.problems.append(f"solve failed: {err}")
            return s
        s.child = out
        s.rc, s.setup_s, s.solve_s, s.peak_rss_mb = (
            out["rc"], out["setup_s"], out["solve_s"], out["peak_rss_mb"])
        if s.rc != job.expected_rc:
            s.problems.append(f"exit status {s.rc}, expected {job.expected_rc}")
        try:
            data = report.read_bytes()
        except OSError as exc:
            s.problems.append(f"no report: {exc}")
            return s
        finally:
            report.unlink(missing_ok=True)
        s.digest = hashlib.sha256(data).hexdigest()
        want = self.first_digest.setdefault(job.key, s.digest)
        if s.digest != want:
            s.problems.append(f"report digest {s.digest[:12]} differs from the run's first {want[:12]}")
        recorded = self.recorded.get(job.workload, {}).get(job.key)
        if recorded and s.digest != recorded:
            s.problems.append(f"report digest {s.digest[:12]} differs from recorded {recorded[:12]}")
        try:
            if job.workload == "scan":  # the one workload run at two worker counts
                parsed = json.loads(data)
                s.sections = hashlib.sha256(json.dumps(
                    [parsed["findings"], parsed["result"]], sort_keys=True).encode()).hexdigest()
            if s.digest not in self.checked:
                self.checked[s.digest] = workloads.check(job, data)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            s.problems.append(f"report does not have the expected layout: {exc!r}")
            return s
        outcome = self.checked[s.digest]
        s.items = outcome.items
        s.problems.extend(outcome.problems)
        return s


def show(label: str, s: Sample) -> None:
    print(f"{label}: rc={s.rc} setup_s={s.setup_s:.4f} solve_s={s.solve_s:.4f} "
          f"peak_rss_mb={s.peak_rss_mb:.1f} items={s.items} digest={s.digest} "
          f"{'ok' if s.ok else 'FAILED'}")
    for p in s.problems[:20]:
        print(f"  problem: {p}")


def timed(runner: Runner, seconds: float) -> tuple[list[Sample], dict]:
    start = time.monotonic()
    samples: list[Sample] = []
    while True:
        s = runner.solve(runner.job)
        samples.append(s)
        show(f"solve {len(samples)}", s)
        elapsed = time.monotonic() - start
        if elapsed + s.wall_s > RUN_LIMIT_S:
            break
        if len(samples) >= MIN_SOLVES and elapsed + s.wall_s > seconds:
            break
    good = [s for s in samples if s.ok]
    if not good:
        return samples, {}
    setups = [s.setup_s for s in good]
    while len(setups) < SETUP_SAMPLES:
        value = runner.setup_only()
        if value is None:
            break
        setups.append(value)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(s.solve_s for s in good), "s"),
        "items_per_s": (statistics.median(s.items / s.solve_s for s in good), "1/s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in good), "MB"),
    }
    return samples, metrics


def traced(runner: Runner) -> tuple[list[Sample], dict]:
    job = runner.job
    one = job.with_workers(1)
    untraced = runner.solve(job)
    show("untraced", untraced)
    samples = [untraced]
    base = untraced
    if one != job:
        base = runner.solve(one)
        show("untraced at 1 worker", base)
        samples.append(base)
    t = runner.solve(one, trace=True)
    show("traced at 1 worker", t)
    samples.append(t)
    if t.sections and t.sections != untraced.sections:
        t.problems.append("findings or result differ between worker counts or under tracing")
    if not all(s.ok for s in samples):
        return samples, {}
    values = dict(t.child["layers"])
    values["trace.overhead_s"] = t.solve_s - base.solve_s
    units = layers.metric_units()
    print(f"absent: {', '.join(t.child['absent']) or 'none'}; "
          f"observer errors: {t.child['observer_errors']}")
    print(f"{'span':48} {'calls':>10} {'self_s':>10}")
    for name, (calls, self_s) in t.child["spans"].items():
        print(f"{name:48} {calls:>10} {self_s:>10.4f}")
    return samples, {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grimm" / "cli.py").is_file():
        print(f"error: no grimm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    job = workloads.make_job(args.workload, args.seed)
    recorded = json.loads((BENCH / "digests.json").read_text())
    runner = Runner(job, recorded, started + 170)
    print(f"env start: {json.dumps(environment())}")
    print(f"workload {job.workload} seed {args.seed}: grimm {job.key}")
    samples, metrics = traced(runner) if args.trace else timed(runner, args.seconds)
    print(f"env end: {json.dumps(environment())}")
    failed = sum(not s.ok for s in samples)
    print(f"failed_share: {failed / len(samples):.3f} ({failed} of {len(samples)} solves)")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
