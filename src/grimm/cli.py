"""Command-line surface: one subcommand per verification artifact.

Reports are deterministic: identical invocations produce byte-identical
output, and worker count never changes the findings (fixed chunking, ordered
merges).  Wall-clock timing is therefore left out of reports unless
--timings asks for it.

Exit status: 0 clean, 1 completed with findings (counterexamples or
conjecture violations -- still a successful run), 2 usage or guard error,
3 internal error (a failed runtime check, or memory or recursion depth
exhausted), reported as one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .arith import Window
from .assign import exact_representation_exists, g_of_m, scan_counterexamples, w_of_m
from .conjectures import (
    cramer_gap_scan,
    conjecture1_probe,
    conjecture2_i,
    conjecture2_ii,
    enumerate_composite_runs,
    verify_grimm_range,
    verify_small_windows,
)
from .coprime import construct_representation, verify_representation
from .primegen import generate
from .smooth import enumerate_hn, hn_cardinality

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("GRIMM_WORKERS", "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grimm",
        description="Grimm-conjecture verification and binomial factor assignment toolkit",
    )
    parser.add_argument("--version", action="version", version=f"grimm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--workers", type=int, default=_default_workers())
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--output", default=None, help="write the report to a file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--timings", action="store_true", help="include wall-clock timing in the report"
        )

    p = sub.add_parser("verify", help="distinct-prime assignment on every composite run")
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--min-len", type=int, default=1)
    common(p)

    p = sub.add_parser("runs", help="maximal composite runs within a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--min-len", type=int, default=1)
    common(p)

    p = sub.add_parser("factorize", help="coprime representation for one window")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("g", help="largest n with a distinct-prime assignment")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    common(p)

    p = sub.add_parser("w", help="largest n with a full coprime representation")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    common(p)

    p = sub.add_parser("scan", help="rectangle scan for representation counterexamples")
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    common(p)

    p = sub.add_parser("hn", help="the set H(n) of bounded-prime-power composites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    common(p)

    p = sub.add_parser(
        "verify-small", help="exhaustive short-window check below the threshold"
    )
    p.add_argument("--m-max", type=int, default=420)
    p.add_argument("--max-n", type=int, default=7)
    common(p)

    p = sub.add_parser("conjecture1", help="probe one all-composite window")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("conjecture2", help="prime-presence probes near block divisors")
    p.add_argument("--part", choices=("i", "ii"), required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    common(p)

    p = sub.add_parser("cramer-gap", help="2q vs (ln(d-q))^2 over prime blocks")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    common(p)

    p = sub.add_parser("primegen", help="generate a prime near a small-prime product")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--band-start", type=int, default=29)
    p.add_argument("--mr-rounds", type=int, default=40)
    p.add_argument(
        "--candidates", default=None, help="comma-separated primes overriding the band scan"
    )
    common(p)

    return parser


def _plain(obj):
    if dataclasses.is_dataclass(obj):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _run_subcommand(args) -> tuple[dict, list]:
    """Returns (result payload, findings list)."""
    sc = args.subcommand
    if sc == "verify":
        report = verify_grimm_range(args.limit, args.min_len, args.workers)
        payload = {
            "range_limit": report.range_limit,
            "windows_checked": report.windows_checked,
            "worker_count": report.worker_count,
            "failures": _plain(report.failures),
        }
        if args.timings:
            payload["elapsed_seconds"] = report.elapsed
        return payload, _plain(report.failures)

    if sc == "runs":
        runs = enumerate_composite_runs(args.limit, args.min_len)
        return {"limit": args.limit, "min_len": args.min_len, "count": len(runs),
                "runs": [{"start": r.start, "length": r.length, "end": r.end} for r in runs]}, []

    if sc == "factorize":
        w = Window(args.m, args.n)
        rep = construct_representation(w)
        decision = exact_representation_exists(w)
        payload = {
            "m": args.m,
            "n": args.n,
            "construction": {
                "factors": list(rep.factors),
                "assignment": [list(t) for t in rep.assignment],
                "verified": verify_representation(rep),
            },
            "full_representation": _plain(decision),
        }
        return payload, []

    if sc == "g":
        res = g_of_m(args.m, args.cap)
        return {"m": res.m, "cap": res.cap, "value": res.value, "cap_hit": res.cap_hit}, []

    if sc == "w":
        res = w_of_m(args.m, args.cap)
        findings = [
            {"m": args.m, "n": i + 1, "reason": "no full representation"}
            for i, ok in enumerate(res.feasible)
            if not ok
        ]
        return {
            "m": res.m,
            "cap": res.cap,
            "value": res.value,
            "cap_hit": res.cap_hit,
            "bitmap": list(res.feasible),
        }, findings

    if sc == "scan":
        hits = scan_counterexamples(
            (args.m_min, args.m_max), (args.n_min, args.n_max), args.workers
        )
        return {
            "m_range": [args.m_min, args.m_max],
            "n_range": [args.n_min, args.n_max],
            "counterexamples": _plain(hits),
        }, _plain(hits)

    if sc == "hn":
        payload = {"n": args.n, "cardinality": hn_cardinality(args.n)}
        if not args.count_only:
            payload["elements"] = list(enumerate_hn(args.n).elements)
        return payload, []

    if sc == "verify-small":
        rep = verify_small_windows(args.m_max, args.max_n)
        findings = [{"m": m, "n": n} for m, n in rep.failures]
        return {
            "m_max": rep.m_max,
            "max_n": rep.max_n,
            "windows_checked": rep.windows_checked,
            "failures": findings,
            "fallback_windows": [
                {"m": m, "inside": list(xs)} for m, xs in rep.fallback_windows
            ],
        }, findings

    if sc == "conjecture1":
        decision = conjecture1_probe(Window(args.m, args.n))
        findings = [] if decision.feasible else [_plain(decision.blocking)]
        return {"m": args.m, "n": args.n, "holds": decision.feasible,
                "blocking": _plain(decision.blocking)}, findings

    if sc == "conjecture2":
        n_lo = args.n_min if args.n_min is not None else (2 if args.part == "i" else 3)
        probe = conjecture2_i if args.part == "i" else conjecture2_ii
        probes = 0
        vacuous = 0
        violations = []
        for n in range(n_lo, args.n_max + 1):
            for rec in probe(n, args.budget, args.seed):
                probes += 1
                vacuous += rec.vacuous
                if not rec.ok:
                    violations.append(_plain(rec))
        return {
            "part": args.part,
            "n_range": [n_lo, args.n_max],
            "probes": probes,
            "vacuous": vacuous,
            "violations": violations,
        }, violations

    if sc == "cramer-gap":
        records, least = cramer_gap_scan(args.n_min, args.n_max)
        findings = [_plain(r) for r in records if r.holds is False]
        return {
            "n_range": [args.n_min, args.n_max],
            "records": _plain(records),
            "least_n_holding_onward": least,
        }, findings

    if sc == "primegen":
        candidates = None
        if args.candidates:
            candidates = [int(t) for t in args.candidates.split(",")]
        pool, res = generate(
            args.bits, args.band_start, args.mr_rounds, args.seed, candidates
        )
        findings = []
        if res.conjecture2_violation:
            findings.append({"k": res.k, "reason": "empty sweep",
                             "n": 2 * (pool.primes[0] // 2) + 1})
        return {
            "bits": args.bits,
            "pool": list(pool.primes),
            "k": res.k,
            "offset": res.offset,
            "prime": res.prime,
            "bit_length": res.bit_length,
            "conjecture2_violation": res.conjecture2_violation,
        }, findings

    raise ValueError(f"unknown subcommand {sc}")


# Fixed CSV table layout per subcommand: (columns, row extractor over payload).
_CSV_TABLES = {
    "verify": (("m", "n", "reason"), lambda p: p["failures"]),
    "runs": (("start", "length", "end"), lambda p: p["runs"]),
    "scan": (("m", "n", "blocking_value"), lambda p: p["counterexamples"]),
    "w": (("n", "feasible"), lambda p: [
        {"n": i + 1, "feasible": ok} for i, ok in enumerate(p["bitmap"])]),
    "hn": (("element",), lambda p: [{"element": x} for x in p.get("elements", [])]),
    "cramer-gap": (("n", "q", "d", "lhs", "rhs", "holds"), lambda p: p["records"]),
    "verify-small": (("m", "n"), lambda p: p["failures"]),
}


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_text(report)


def _render_csv(report: dict) -> str:
    sc = report["config"]["subcommand"]
    lines = [
        f"# schema_version={report['schema_version']}",
        f"# artifact=grimm {report['artifact']['version']}",
        f"# config={json.dumps(report['config'], sort_keys=True)}",
        f"# status={report['status']}",
    ]
    payload = report["result"]
    if sc in _CSV_TABLES:
        cols, extract = _CSV_TABLES[sc]
        lines.append(",".join(cols))
        for row in extract(payload):
            lines.append(",".join(str(row[c]) for c in cols))
    else:
        lines.append("key,value")
        for k in sorted(payload):
            lines.append(f"{k},{json.dumps(payload[k], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _render_text(report: dict) -> str:
    lines = [f"grimm {report['artifact']['version']} :: {report['config']['subcommand']}"]
    for k, v in sorted(report["result"].items()):
        text = json.dumps(v, sort_keys=True) if isinstance(v, (dict, list)) else str(v)
        if len(text) > 4000:
            text = text[:4000] + "...(truncated)"
        lines.append(f"  {k}: {text}")
    if report["findings"]:
        lines.append(f"findings ({len(report['findings'])}):")
        for f in report["findings"]:
            lines.append(f"  {json.dumps(f, sort_keys=True)}")
    else:
        lines.append("no findings")
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _report(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # A defect or an exhausted resource; it must not read as findings.
        # The raising frame is walked to by hand: importing traceback would
        # add about 0.25 MB to the peak RSS of every run.
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        error = {
            "schema_version": SCHEMA_VERSION,
            "status": "internal_error",
            "error": type(exc).__name__,
            "message": str(exc),
            "where": f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}",
        }
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return EXIT_INTERNAL


def _report(args) -> int:
    t0 = time.monotonic()
    payload, findings = _run_subcommand(args)
    config = {
        "subcommand": args.subcommand,
        "params": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("subcommand", "format", "output", "timings")
        },
        "format": args.format,
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact": {"name": "grimm", "version": __version__},
        "config": config,
        "status": "findings" if findings else "ok",
        "findings": findings,
        "result": payload,
    }
    if args.timings:
        report["elapsed_seconds"] = round(time.monotonic() - t0, 3)
    text = render_report(report, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_FINDINGS if findings else EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
