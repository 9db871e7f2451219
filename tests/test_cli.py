import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import grimm.cli
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
