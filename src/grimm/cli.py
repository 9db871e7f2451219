"""Command-line surface: one subcommand per verification artifact.

Reports are deterministic: identical invocations produce byte-identical
output, and worker count never changes the findings (fixed chunking, ordered
merges).  Wall-clock timing is therefore left out of reports unless
--timings asks for it.

Exit status: 0 clean, 1 completed with findings (counterexamples or
conjecture violations -- still a successful run), 2 usage or guard error,
3 internal error (a failed runtime check, or memory or recursion depth
exhausted), reported as one JSON line on stderr.  Reports are written a
part at a time: a run that fails while writing removes its partial
--output file, and leaves a partial report on stdout only with exit 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import stat
import sys
import time
from collections import deque
from itertools import chain, islice
from typing import Callable

from . import __version__
from .arith import DEFAULT_MR_ROUNDS, InternalContradiction, Window
from .assign import exact_representation_exists, g_of_m, scan_counterexamples, w_of_m
from .conjectures import (
    _block_i,
    _block_ii,
    _check_subset_guard,
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
from .smooth import hn_cardinality, hn_segments

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _int(flag: str, default=None, required: bool = False):
    """An integer option as (flag, add_argument keywords)."""
    return flag, {"type": int, "default": default, "required": required}


def _count(text: str) -> int:
    """The value of an option that must be an integer >= 1 (--workers,
    --budget, --min-len, and --m-max and --max-n of verify-small)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@dataclasses.dataclass(frozen=True)
class _Subcommand:
    help: str
    arguments: tuple  # (flag, add_argument keywords), in --help order
    run: Callable  # args -> (result payload, findings list)
    csv: tuple | None  # (columns, body lines over payload); None: key,value rows


# Every subcommand in --help order, declared by _subcommand above its runner.
_SUBCOMMANDS: dict[str, _Subcommand] = {}


def _subcommand(name: str, help: str, *arguments, csv=None):
    def register(run):
        _SUBCOMMANDS[name] = _Subcommand(help, arguments, run, csv)
        return run

    return register


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grimm",
        description="Grimm-conjecture verification and binomial factor assignment toolkit",
    )
    parser.add_argument("--version", action="version", version=f"grimm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = (
        ("--workers", {"type": _count, "default": 1}),
        ("--format", {"choices": ("json", "csv", "text"), "default": "text"}),
        ("--output", {"help": "write the report to a file"}),
        _int("--seed", 0),
        ("--timings", {"action": "store_true",
                       "help": "include wall-clock timing in the report"}),
    )
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for flag, keywords in (*spec.arguments, *common):
            p.add_argument(flag, **keywords)
    return parser


def _plain(obj):
    """obj as JSON-ready dicts, lists and scalars, in one walk: a dataclass
    becomes a dict of its fields, and a tuple a list."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _rows(key: str, cols: tuple[str, ...]):
    """A CSV table of the dict rows under payload[key]: (columns, body)."""
    return cols, lambda p: [",".join(str(row[c]) for c in cols) for row in p[key]]


@_subcommand("verify", "distinct-prime assignment on every composite run",
             _int("--limit", 10**6), ("--min-len", {"type": _count, "default": 1}),
             csv=_rows("failures", ("m", "n", "reason")))
def _verify(args):
    report = verify_grimm_range(args.limit, args.min_len, args.workers)
    failures = _plain(report.failures)
    payload = {
        "range_limit": report.range_limit,
        "windows_checked": report.windows_checked,
        "worker_count": report.worker_count,
        "failures": failures,
    }
    if args.timings:
        payload["elapsed_seconds"] = report.elapsed
    return payload, failures


@_subcommand("runs", "maximal composite runs within a limit",
             _int("--limit", required=True), ("--min-len", {"type": _count, "default": 1}),
             csv=_rows("runs", ("start", "length", "end")))
def _runs(args):
    runs = enumerate_composite_runs(args.limit, args.min_len)
    return {"limit": args.limit, "min_len": args.min_len, "count": len(runs),
            "runs": [{"start": r.start, "length": r.length, "end": r.end} for r in runs]}, []


@_subcommand("factorize", "coprime representation for one window",
             _int("--m", required=True), _int("--n", required=True))
def _factorize(args):
    w = Window(args.m, args.n)
    rep = construct_representation(w)
    if not verify_representation(rep):
        raise InternalContradiction(f"canonical certificate fails at {w}")
    decision = exact_representation_exists(w)
    payload = {
        "m": args.m,
        "n": args.n,
        "construction": {
            "factors": list(rep.factors),
            "assignment": [list(t) for t in rep.assignment],
            "verified": True,
        },
        "full_representation": _plain(decision),
    }
    return payload, []


@_subcommand("g", "largest n with a distinct-prime assignment",
             _int("--m", required=True), _int("--cap"))
def _g(args):
    res = g_of_m(args.m, args.cap)
    return {"m": res.m, "cap": res.cap, "value": res.value, "cap_hit": res.cap_hit}, []


@_subcommand("w", "largest n with a full coprime representation",
             _int("--m", required=True), _int("--cap", required=True),
             csv=(("n", "feasible"),
                  lambda p: [f"{n},{ok}" for n, ok in enumerate(p["bitmap"], 1)]))
def _w(args):
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


@_subcommand("scan", "rectangle scan for representation counterexamples",
             _int("--m-min", 1), _int("--m-max", required=True),
             _int("--n-min", 1), _int("--n-max", required=True),
             csv=_rows("counterexamples", ("m", "n", "blocking_value")))
def _scan(args):
    hits = _plain(scan_counterexamples((args.m_min, args.m_max), (args.n_min, args.n_max)))
    return {
        "m_range": [args.m_min, args.m_max],
        "n_range": [args.n_min, args.n_max],
        "counterexamples": hits,
    }, hits


@_subcommand("hn", "the set H(n) of bounded-prime-power composites",
             _int("--n", required=True), ("--count-only", {"action": "store_true"}),
             csv=(("element",), lambda p: (  # one formatted block per segment slice
                 _ints("\n", block) for block in _blocks(p.get("elements", ())))))
def _hn(args):
    payload = {"n": args.n}
    if not args.count_only:
        payload["elements"] = _HnMembers(args.n)  # the guard, before the count is taken
    payload["cardinality"] = hn_cardinality(args.n)
    return payload, []


class _HnMembers:
    """The members of H(n), read from a fresh hn_segments stream on each
    iteration, so that H(n) is never held whole (each stream is checked when
    it ends)."""

    def __init__(self, n: int):
        self.n = n
        hn_segments(n)  # raises the guard error now, before any part is written

    def __iter__(self):
        return chain.from_iterable(hn_segments(self.n))


@_subcommand("verify-small", "exhaustive short-window check below the threshold",
             ("--m-max", {"type": _count, "default": 420}),
             ("--max-n", {"type": _count, "default": 7}), csv=_rows("failures", ("m", "n")))
def _verify_small(args):
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


@_subcommand("conjecture1", "probe one all-composite window",
             _int("--m", required=True), _int("--n", required=True))
def _conjecture1(args):
    decision = conjecture1_probe(Window(args.m, args.n))
    blocking = _plain(decision.blocking)
    findings = [] if decision.feasible else [blocking]
    return {"m": args.m, "n": args.n, "holds": decision.feasible,
            "blocking": blocking}, findings


@_subcommand("conjecture2", "prime-presence probes near block divisors",
             ("--part", {"choices": ("i", "ii"), "required": True}),
             _int("--n-min"), _int("--n-max", required=True), ("--budget", {"type": _count}))
def _conjecture2(args):
    n_lo = args.n_min if args.n_min is not None else (2 if args.part == "i" else 3)
    probe, block = (conjecture2_i, _block_i) if args.part == "i" else (conjecture2_ii, _block_ii)
    if args.budget is None:
        _check_subset_guard(block, n_lo, args.n_max)
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


@_subcommand("cramer-gap", "2q vs (ln(d-q))^2 over prime blocks",
             _int("--n-min", 2), _int("--n-max", required=True),
             csv=_rows("records", ("n", "q", "d", "lhs", "rhs", "holds")))
def _cramer_gap(args):
    records, least = cramer_gap_scan(args.n_min, args.n_max)
    records = _plain(records)
    findings = [r for r in records if r["holds"] is False]
    return {
        "n_range": [args.n_min, args.n_max],
        "records": records,
        "least_n_holding_onward": least,
    }, findings


@_subcommand("primegen", "generate a prime near a small-prime product",
             _int("--bits", required=True), _int("--band-start", 29),
             _int("--mr-rounds", DEFAULT_MR_ROUNDS),
             ("--candidates", {"help": "comma-separated primes overriding the band scan"}))
def _primegen(args):
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


def render_report(report: dict, fmt: str) -> str:
    parts: list[str] = []
    write_report(report, fmt, parts.append)
    return "".join(parts)


def write_report(report: dict, fmt: str, write: Callable[[str], object]) -> None:
    """Render the report into write, one part (at most a list block) at a time."""
    # Integers are exact at any size: Python's integer-to-string digit limit
    # is lifted while the report renders and put back afterwards.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            _emit_json(report, 0, write)
            write("\n")
        elif fmt == "csv":
            _render_csv(report, write)
        else:
            write(_render_text(report))
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


# Integer lists are rendered this many items per joined chunk, in JSON and CSV.
_JSON_BLOCK = 1 << 12
# The "%d" format of a full block, built once per separator (and block size).
_format = functools.cache(lambda sep, size: sep.join(["%d"] * size))

# The values rendered as JSON lists; H(n) members are read as a stream.
_LISTS = (list, tuple, _HnMembers)


def _blocks(items):
    """Slices of at most _JSON_BLOCK items: of each H(n) segment, or of a list."""
    for run in hn_segments(items.n) if isinstance(items, _HnMembers) else (items,):
        for i in range(0, len(run), _JSON_BLOCK):
            yield run[i : i + _JSON_BLOCK]
        del run  # an H(n) segment is released before the next is built


def _ints(sep: str, block) -> str:
    """Exact ints joined by sep, in one C-level format with no str per item;
    the format of a full block is built once per separator."""
    size = len(block)
    return (_format(sep, size) if size == _JSON_BLOCK else sep.join(["%d"] * size)) % tuple(block)


def _emit_json(value, level: int, write: Callable[[str], object]) -> None:
    """Write the text of json.dumps(value, indent=2, sort_keys=True), nested
    `level` deep, in parts.

    json.dumps with an indent encodes in pure Python, one chunk per list
    item; here a block of exact ints is one "%d" format (_ints), and the
    members of H(n), products of ints, skip the per-block type test.
    Scalars and keys still go through json.dumps, so the text is the same.
    """
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    close = "\n" + "  " * level
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        write("{" + inner)
        for i, (key, item) in enumerate(sorted(value.items())):
            if i:
                write(sep)
            write(json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ")
            _emit_json(item, level + 1, write)
        write(close + "}")
        return
    if not isinstance(value, _LISTS):
        write(json.dumps(value))
        return
    opened = False
    ints = isinstance(value, _HnMembers)
    for block in _blocks(value):
        write(sep if opened else "[" + inner)
        opened = True
        if ints or set(map(type, block)) == {int}:  # exact ints: bools render as true/false
            write(_ints(sep, block))
            continue
        for i, item in enumerate(block):
            if i:
                write(sep)
            _emit_json(item, level + 1, write)
    write(close + "]" if opened else "[]")


def _render_csv(report: dict, write: Callable[[str], object]) -> None:
    payload = report["result"]
    table = _SUBCOMMANDS[report["config"]["subcommand"]].csv
    if table is None:
        table = ("key", "value"), lambda p: [
            f"{k},{json.dumps(p[k], sort_keys=True)}" for k in sorted(p)]
    cols, body = table
    write(f"# schema_version={report['schema_version']}\n"
          f"# artifact=grimm {report['artifact']['version']}\n"
          f"# config={json.dumps(report['config'], sort_keys=True)}\n"
          f"# status={report['status']}\n" + ",".join(cols) + "\n")
    for line in body(payload):
        write(line + "\n")


def _render_text(report: dict) -> str:
    lines = [f"grimm {report['artifact']['version']} :: {report['config']['subcommand']}"]
    for k, v in sorted(report["result"].items()):
        if isinstance(v, _LISTS):
            # An item with its ", " takes at least 3 characters, so this
            # prefix already runs past the cut below.  The rest is read to
            # its end, so a streamed list still runs its end-of-stream check.
            items = iter(v)
            v = list(islice(items, 4000 // 3 + 1))
            deque(items, maxlen=0)
        text = json.dumps(v, sort_keys=True) if isinstance(v, (dict, list, tuple)) else str(v)
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
    try:
        payload, findings = _SUBCOMMANDS[args.subcommand].run(args)
    except ValueError as exc:  # a usage or guard error; a later one is a defect
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
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
    if args.output:
        try:
            fh = open(args.output, "w", encoding="utf-8")
            try:
                with fh:
                    write_report(report, args.format, fh.write)
            except BaseException:
                # Leave no truncated report; a device or a link is not ours to remove.
                if stat.S_ISREG(os.lstat(args.output).st_mode):
                    os.remove(args.output)
                raise
        except OSError as exc:  # an unwritable path is the caller's, not a defect
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_ERROR
    else:
        write_report(report, args.format, sys.stdout.write)
    return EXIT_FINDINGS if findings else EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
