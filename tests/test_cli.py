import errno
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grimm.arith
import grimm.cli
import grimm.smooth
from grimm.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_INTERNAL, EXIT_OK, run
from grimm.coprime import InternalContradiction

SRC = Path(__file__).resolve().parents[1] / "src"


def run_capture(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_hn_fixture(capsys):
    code, out = run_capture(capsys, "hn", "--n", "4", "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["elements"] == [4, 6, 12]
    assert report["schema_version"] == 1
    assert report["artifact"]["name"] == "grimm"
    assert report["config"]["subcommand"] == "hn"
    assert report["status"] == "ok"


def test_hn_guard_is_usage_error(capsys):
    code, _ = run_capture(capsys, "hn", "--n", "200")
    assert code == EXIT_ERROR
    code, out = run_capture(capsys, "hn", "--n", "200", "--count-only", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["cardinality"] > 10**15


def test_w_exception_window_is_finding(capsys):
    code, out = run_capture(capsys, "w", "--m", "118", "--cap", "8", "--format", "json")
    assert code == EXIT_FINDINGS
    report = json.loads(out)
    assert report["status"] == "findings"
    assert report["result"]["bitmap"] == [True] * 7 + [False]
    assert report["findings"] == [
        {"m": 118, "n": 8, "reason": "no full representation"}
    ]


def test_g_subcommand(capsys):
    code, out = run_capture(capsys, "g", "--m", "116", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["value"] == 13


def test_scan_findings_and_exit(capsys):
    code, out = run_capture(
        capsys, "scan", "--m-max", "200", "--n-max", "12", "--format", "json"
    )
    assert code == EXIT_FINDINGS
    report = json.loads(out)
    pairs = [(c["m"], c["n"]) for c in report["result"]["counterexamples"]]
    assert (116, 10) in pairs and (118, 8) in pairs
    assert all(c["blocking_value"] == 120 for c in report["result"]["counterexamples"])


def test_verify_clean_range(capsys):
    code, out = run_capture(
        capsys, "verify", "--limit", "50000", "--format", "json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["failures"] == []
    assert report["result"]["windows_checked"] > 5000
    assert "elapsed_seconds" not in report


def test_factorize_window(capsys):
    code, out = run_capture(
        capsys, "factorize", "--m", "203", "--n", "7", "--format", "json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["construction"]["verified"] is True
    assert report["result"]["full_representation"]["feasible"] is True
    assert report["result"]["full_representation"]["certificate"]["factors"] == [
        17, 41, 103, 207, 208, 209, 5,
    ]


def test_conjecture1_exception_exit(capsys):
    code, out = run_capture(
        capsys, "conjecture1", "--m", "116", "--n", "10", "--format", "json"
    )
    assert code == EXIT_FINDINGS
    assert json.loads(out)["result"]["holds"] is False
    # precondition violation -> usage error
    code, _ = run_capture(capsys, "conjecture1", "--m", "100", "--n", "3")
    assert code == EXIT_ERROR


def test_conjecture2_part_i_reports_violations(capsys):
    code, out = run_capture(
        capsys,
        "conjecture2", "--part", "i", "--n-min", "24", "--n-max", "24",
        "--format", "json",
    )
    assert code == EXIT_FINDINGS
    report = json.loads(out)
    assert [v["d"] for v in report["result"]["violations"]] == [1563361]


def test_conjecture2_part_ii_clean(capsys):
    code, out = run_capture(
        capsys, "conjecture2", "--part", "ii", "--n-max", "30", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["result"]["violations"] == []


def test_cramer_gap_scan(capsys):
    code, out = run_capture(
        capsys, "cramer-gap", "--n-min", "10", "--n-max", "40", "--format", "json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["least_n_holding_onward"] == 10
    assert all(r["holds"] for r in report["result"]["records"])


def test_primegen_toy(capsys):
    code, out = run_capture(
        capsys,
        "primegen", "--bits", "32", "--candidates", "29,31,37,41,43,47",
        "--format", "json",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["k"] == 2756205443
    assert abs(report["result"]["offset"]) <= 6
    assert report["result"]["conjecture2_violation"] is False


def test_runs_csv_table(capsys):
    code, out = run_capture(
        capsys, "runs", "--limit", "100", "--min-len", "3", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("# schema_version=1")
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == "start,length,end"
    assert "90,7,96" in lines


def test_text_format_human_summary(capsys):
    code, out = run_capture(capsys, "g", "--m", "116")
    assert code == EXIT_OK
    assert "value: 13" in out
    assert "no findings" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--limit", "notanumber"])
    assert exc.value.code == EXIT_ERROR


@pytest.mark.parametrize("argv, message", [
    (("verify", "--limit", "1000", "--workers", "0", "--format", "json"),
     "argument --workers: must be >= 1, got 0"),
    (("scan", "--m-max", "100", "--n-max", "8", "--workers", "-2"),
     "argument --workers: must be >= 1, got -2"),
    (("conjecture2", "--part", "i", "--n-max", "40", "--budget", "-1"),
     "argument --budget: must be >= 1, got -1"),
    (("conjecture2", "--part", "ii", "--n-max", "12", "--budget", "0"),
     "argument --budget: must be >= 1, got 0"),
    (("verify", "--workers", "two"), "argument --workers: invalid int value: 'two'"),
    (("verify", "--limit", "1000", "--min-len", "0"), "argument --min-len: must be >= 1, got 0"),
    (("runs", "--limit", "100", "--min-len", "-1"), "argument --min-len: must be >= 1, got -1"),
])
def test_count_flags_reject_counts_below_one(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("verify-small", "--m-max", "5", "--max-n", "0"), "argument --max-n: must be >= 1, got 0"),
    (("verify-small", "--m-max", "-3"), "argument --m-max: must be >= 1, got -3"),
])
def test_verify_small_names_its_bounds(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_byte_identical_reports(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = run([
            "scan", "--m-max", "200", "--n-max", "12",
            "--format", "json", "--output", str(path), "--seed", "0",
        ])
        assert code == EXIT_FINDINGS
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_findings_stable_across_worker_counts(tmp_path, capsys):
    findings = []
    for workers in (1, 4, 8):
        path = tmp_path / f"scan-{workers}.json"
        run([
            "scan", "--m-max", "200", "--n-max", "12",
            "--workers", str(workers), "--format", "json", "--output", str(path),
        ])
        findings.append(json.loads(path.read_text())["findings"])
    capsys.readouterr()
    assert findings[0] == findings[1] == findings[2]


def test_timings_flag_adds_elapsed(capsys):
    code, out = run_capture(
        capsys, "g", "--m", "10", "--format", "json", "--timings"
    )
    assert code == EXIT_OK
    assert "elapsed_seconds" in json.loads(out)


def test_worker_default_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("GRIMM_WORKERS", "6")
    code, out = run_capture(capsys, "g", "--m", "10", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["params"]["workers"] == 6
    monkeypatch.setenv("GRIMM_WORKERS", "junk")
    code, out = run_capture(capsys, "g", "--m", "10", "--format", "json")
    assert json.loads(out)["config"]["params"]["workers"] == 1


def test_sieve_guard_is_usage_error(capsys):
    # refused before the table is allocated: a 10^10 sieve would take over 100 GB
    code = run(["scan", "--m-max", "10000000000", "--n-max", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "SIEVE_GUARD" in captured.err


def test_scan_clamps_n_max_below_m_max(capsys):
    # A window with n >= m holds a prime in (m, 2m], so a scan with
    # m <= 200 is complete at n_max = 200 and sizes nothing beyond it.
    before = grimm.arith.default_sieve().limit
    scan = ("scan", "--m-max", "200", "--format", "json", "--n-max")
    code, wide = run_capture(capsys, *scan, "3000000")
    assert code == EXIT_FINDINGS
    assert grimm.arith.default_sieve().limit == before
    code, narrow = run_capture(capsys, *scan, "200")
    assert code == EXIT_FINDINGS
    wide, narrow = json.loads(wide), json.loads(narrow)
    assert wide["result"]["n_range"] == [1, 3000000]
    assert wide["result"]["counterexamples"] == narrow["result"]["counterexamples"]
    assert wide["findings"] == narrow["findings"] != []


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code = run(["factorize", "--m", "113", "--n", "12", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(path) in captured.err
    assert not path.exists()


NUMPY_PROBE = """
import sys
import grimm
seen = ["numpy" in sys.modules]
grimm.default_sieve()
seen.append("numpy" in sys.modules)
import grimm.cli
code = grimm.cli.run(["factorize", "--m", "113", "--n", "12"])
seen.append("numpy" in sys.modules)
print(code, seen, file=sys.stderr)
"""


def test_numpy_stays_off_the_import_path():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "0 [False, False, False]"


@pytest.mark.parametrize(
    "exc", [InternalContradiction("bad certificate"), MemoryError(), RecursionError("deep")]
)
def test_crash_is_internal_error_not_findings(monkeypatch, capsys, exc):
    def crash(*args):
        raise exc

    monkeypatch.setattr(grimm.cli, "scan_counterexamples", crash)
    code = run(["scan", "--m-max", "200", "--n-max", "12"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["status"] == "internal_error"
    assert error["error"] == type(exc).__name__
    assert error["message"] == str(exc)
    assert error["where"].endswith("in crash")


# Loaded by the interpreter at start-up (the directory is on PYTHONPATH):
# every canonical certificate claims one power of its first prime too many.
CORRUPTING_SITECUSTOMIZE = """
import dataclasses
from grimm.coprime import CanonicalRow

_real = CanonicalRow.representation

def _corrupted(row):
    rep = _real(row)
    (p, e, i), *rest = rep.assignment
    return dataclasses.replace(rep, assignment=((p, e + 1, i), *rest))

CanonicalRow.representation = _corrupted
"""


def test_module_entry_exits_3_on_a_corrupted_certificate(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent(CORRUPTING_SITECUSTOMIZE))
    argv = [sys.executable, "-m", "grimm", "scan", "--m-max", "200", "--n-max", "12"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(tmp_path)]))
    env.pop("GRIMM_WORKERS", None)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_INTERNAL, done.stderr
    assert done.stdout == ""
    error = json.loads(done.stderr)
    assert error["error"] == "InternalContradiction"
    assert "canonical certificate fails" in error["message"]
    # the same command without the corruption completes with findings
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_FINDINGS, done.stderr
    assert "blocking_value" in done.stdout


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_reports_render_integers_past_the_digit_limit(fmt):
    big = 10**5000
    record = {"n": 1, "q": 2, "d": big, "lhs": 4.0, "rhs": 5.0, "holds": True}
    report = {
        "schema_version": 1,
        "artifact": {"name": "grimm", "version": "test"},
        "config": {"subcommand": "cramer-gap", "params": {}, "format": fmt},
        "status": "ok",
        "findings": [],
        "result": {"records": [record], "least_n_holding_onward": 1},
    }
    before = sys.get_int_max_str_digits()
    text = grimm.cli.render_report(report, fmt)
    assert sys.get_int_max_str_digits() == before
    if fmt == "json":
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(text)["result"]["records"][0]["d"] == big
        finally:
            sys.set_int_max_str_digits(before)
    elif fmt == "csv":
        assert text.splitlines()[-1] == "1,2,1" + "0" * 5000 + ",4.0,5.0,True"
    else:
        assert "records: [{\"d\": 1000" in text


def _dumps(value) -> str:
    # the reference rendering, with the digit limit lifted as render_report
    # does; a streamed list (the members of H(n)) is dumped as a list
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value, indent=2, sort_keys=True, default=list) + "\n"
    finally:
        sys.set_int_max_str_digits(before)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-2, 2).map(lambda k: k * 10**4400 - 7),  # past the digit limit
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(["\u00e9t\u00e9", "\u03c0 \u2264 n", "\U0001f600", '"\\\n']),
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=8),
        st.dictionaries(st.text(max_size=6), inner, max_size=6),
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=6))
def test_json_rendering_equals_json_dumps(report):
    assert grimm.cli.render_report(report, "json") == _dumps(report)


def test_json_rendering_across_integer_blocks():
    block = grimm.cli._JSON_BLOCK
    ints = list(range(-5, 2 * block + 9))
    mixed = ints[:]
    mixed[block + 3] = True
    mixed[2 * block] = 1.5
    report = {"a": ints, "b": tuple(ints), "c": [mixed, [], {}], "d": {"e": ints[: block]}}
    assert grimm.cli.render_report(report, "json") == _dumps(report)


@pytest.mark.parametrize("argv", [
    ("hn", "--n", "48"),
    ("scan", "--m-max", "300", "--n-max", "12"),
    ("cramer-gap", "--n-min", "10000", "--n-max", "10000"),
])
def test_real_reports_render_as_json_dumps(monkeypatch, tmp_path, argv):
    reports = []

    def capture(report, fmt, write):
        reports.append(report)
        return write_report(report, fmt, write)

    write_report = grimm.cli.write_report
    monkeypatch.setattr(grimm.cli, "write_report", capture)
    out = tmp_path / "report.json"
    assert run([*argv, "--format", "json", "--output", str(out)]) in (EXIT_OK, EXIT_FINDINGS)
    (report,) = reports
    assert out.read_text(encoding="utf-8") == _dumps(report)


# sha256 of `grimm hn --n 30` in CSV and text, recorded from the renderer
# that built one row dict per member and dumped whole lists before cutting.
HN30_SHA = {
    "csv": "eb29576b3a57de6c400d982f877dfa0dcea7357cd5ff3f93dfd71fa2c6ce9a30",
    "text": "8fff331ec712fe1daefd57fbe424a01b4fd8335eacb4fbfdc974a7e58ccf838b",
}


@pytest.mark.parametrize("block", [None, 1000, 1])
@pytest.mark.parametrize("fmt", sorted(HN30_SHA))
def test_hn_report_bytes(monkeypatch, capsys, fmt, block):
    if block is not None:
        monkeypatch.setattr(grimm.cli, "_JSON_BLOCK", block)
    code, out = run_capture(capsys, "hn", "--n", "30", "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == HN30_SHA[fmt]


def _tee_writes(monkeypatch):
    """Record every (report, parts written) that passes through write_report."""
    calls = []
    write_report = grimm.cli.write_report

    def tee(report, fmt, write):
        parts = []
        calls.append((report, parts))
        write_report(report, fmt, lambda part: (parts.append(part), write(part)))

    monkeypatch.setattr(grimm.cli, "write_report", tee)
    return calls


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_hn_report_streams_in_parts(monkeypatch, tmp_path, fmt):
    calls = _tee_writes(monkeypatch)
    out = tmp_path / "report"
    assert run(["hn", "--n", "48", "--format", fmt, "--output", str(out)]) == EXIT_OK
    ((report, parts),) = calls
    assert len(parts) > len(report["result"]["elements"]) // grimm.cli._JSON_BLOCK
    text = "".join(parts)
    assert text == out.read_text(encoding="utf-8")
    assert text == grimm.cli.render_report(report, fmt)


def test_writing_holds_a_block_not_the_report(monkeypatch, tmp_path):
    write_report = grimm.cli.write_report
    calls = _tee_writes(monkeypatch)
    assert run(["hn", "--n", "48", "--format", "json", "--output", str(tmp_path / "r")]) == 0
    ((report, parts),) = calls
    length = sum(map(len, parts))
    # the members as the report held them before they were streamed: this
    # measures the writer alone (test_hn_run_never_holds_the_members
    # measures the stream)
    report["result"]["elements"] = tuple(report["result"]["elements"])
    written = []
    tracemalloc.start()
    try:
        write_report(report, "json", lambda part: written.append(len(part)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(written) == length
    assert peak < length / 4


def _fail_after(monkeypatch, parts: int, exc: BaseException):
    """Make write_report raise exc when it comes to write part number parts + 1."""
    write_report = grimm.cli.write_report

    def failing(report, fmt, write):
        count = 0

        def broken(part):
            nonlocal count
            count += 1
            if count > parts:
                raise exc
            write(part)

        write_report(report, fmt, broken)

    monkeypatch.setattr(grimm.cli, "write_report", failing)


@pytest.mark.parametrize("exc, code", [
    (OSError(errno.ENOSPC, "No space left on device"), EXIT_ERROR),
    (MemoryError(), EXIT_INTERNAL),
    (ValueError("bad part"), EXIT_INTERNAL),
])
def test_failed_write_leaves_no_output_file(monkeypatch, tmp_path, capsys, exc, code):
    _fail_after(monkeypatch, 5, exc)
    out = tmp_path / "report.json"
    assert run(["hn", "--n", "30", "--format", "json", "--output", str(out)]) == code
    captured = capsys.readouterr()
    assert not out.exists()
    assert captured.out == ""
    if code == EXIT_ERROR:
        assert captured.err.startswith("error: cannot write the report: ")
    else:
        assert json.loads(captured.err)["error"] == type(exc).__name__


@pytest.mark.parametrize("exc", [MemoryError(), ValueError("bad part")])
def test_partial_stdout_report_exits_internal(monkeypatch, capsys, exc):
    code, whole = run_capture(capsys, "hn", "--n", "30", "--format", "json")
    assert code == EXIT_OK
    _fail_after(monkeypatch, 5, exc)
    assert run(["hn", "--n", "30", "--format", "json"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out and whole.startswith(captured.out) and captured.out != whole
    assert json.loads(captured.err)["error"] == type(exc).__name__


LCM30 = 2329089562800  # lcm(1..30), the largest member of H(30)


@pytest.mark.parametrize("corrupt", [
    lambda segments: (s[1:] if i == 0 else s for i, s in enumerate(segments)),  # a member dropped
    lambda segments: (  # the largest member is not lcm(1..n)
        [*s[:-1], s[-1] + 1] if s[-1] == LCM30 else s for s in segments),
])
def test_hn_enumeration_is_checked(monkeypatch, tmp_path, capsys, corrupt):
    # The check runs when the member stream ends, in every format: after a
    # partial report on stdout, and with no file left behind under --output.
    whole = {fmt: run_capture(capsys, "hn", "--n", "30", "--format", fmt)[1]
             for fmt in ("json", "csv", "text")}
    hn_segments = grimm.cli.hn_segments
    monkeypatch.setattr(grimm.cli, "hn_segments", lambda n: corrupt(hn_segments(n)))
    out = tmp_path / "report"
    for fmt, report in whole.items():
        for output in ([], ["--output", str(out)]):
            assert run(["hn", "--n", "30", "--format", fmt, *output]) == EXIT_INTERNAL
            captured = capsys.readouterr()
            error = json.loads(captured.err)
            assert error["status"] == "internal_error"
            assert error["error"] == "InternalContradiction"
            assert error["message"] == "H(30) enumeration fails its count or lcm check"
            assert error["where"].endswith("in _checked")
            if output or fmt == "text":  # text is rendered whole before it is written
                assert captured.out == ""
            else:
                assert captured.out.splitlines()[0] == report.splitlines()[0]
            assert not out.exists()


def test_hn_run_never_holds_the_members(tmp_path):
    # A whole run, enumeration included, holds one segment of H(48) and one
    # block of its report: well below what the list of its members takes.
    grimm.arith.default_sieve()
    members = sum(sys.getsizeof(x) + 8 for s in grimm.smooth.hn_segments(48) for x in s)
    tracemalloc.start()
    try:
        assert run(["hn", "--n", "48", "--format", "json", "--output", str(tmp_path / "r")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < members / 2


def _full_dump_text(report) -> str:
    # the reference: dump every value whole, then cut it
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines = [f"grimm {report['artifact']['version']} :: {report['config']['subcommand']}"]
        for k, v in sorted(report["result"].items()):
            text = json.dumps(v, sort_keys=True) if isinstance(v, (dict, list, tuple)) else str(v)
            if len(text) > 4000:
                text = text[:4000] + "...(truncated)"
            lines.append(f"  {k}: {text}")
        lines.append("no findings")
        return "\n".join(lines) + "\n"
    finally:
        sys.set_int_max_str_digits(before)


def _text_report(result) -> dict:
    return {"artifact": {"version": "0"}, "config": {"subcommand": "t"},
            "result": result, "findings": []}


def test_text_rendering_cuts_like_the_full_dump():
    # 1,334 one-digit items dump to 4,002 characters, 1,333 to 3,999
    result = {
        "short": [1, 2, 3],
        "empty": [],
        "at_cut": [7] * 1333,
        "just_over": [7] * 1334,
        "over": tuple(range(5000)),
        "long_item": ["x" * 5000, 1],
        "nested": [[1, [2, 3]], {"b": 1, "a": (4,)}, None, True, 1.5, "é"] * 400,
        "empties": [[], {}] * 3000,
        "dict": {str(i): i for i in range(2000)},
        "scalar": 10**5000,
    }
    report = _text_report(result)
    assert grimm.cli.render_report(report, "text") == _full_dump_text(report)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=6))
def test_text_rendering_equals_full_dump(result):
    report = _text_report(result)
    assert grimm.cli.render_report(report, "text") == _full_dump_text(report)
