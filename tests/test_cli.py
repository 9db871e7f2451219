import errno
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grimm.arith
import grimm.assign
import grimm.cli
import grimm.smooth
from grimm.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_INTERNAL, EXIT_OK, run
from grimm.coprime import CanonicalRow, InternalContradiction

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


@pytest.mark.parametrize("n", [200000, 20000000])
def test_hn_refusal_names_the_guard_at_once(capsys, n):
    # The guard is checked before the count is taken, by a pass over the primes
    # that stops once the count passes it: no sieve is grown to n, and no count
    # of thousands of digits is formatted.
    before = grimm.arith.default_sieve().limit
    assert run(["hn", "--n", str(n)]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and "ENUMERATION_GUARD" in err and len(err) < 300
    assert "needs more than 10000000 exponent vectors" in err
    assert grimm.arith.default_sieve().limit == before


def test_hn_guard_message_is_exact_when_every_prime_was_read(capsys):
    # At n = 71 the count passes the guard at the last prime <= n.
    assert run(["hn", "--n", "71"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: H(71) enumeration needs 16515072 exponent vectors,"
        " beyond the guard ENUMERATION_GUARD = 10000000\n")
    # The count alone is not guarded: a 2,903-digit cardinality.
    assert run(["hn", "--n", "100000", "--count-only"]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "515686a89ff54721aa426e37a6b95a8c72bb8fb7c5fa3325e268dfe46f4e9d87"


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


# sha256 of `scan --m-max 232792560 --n-max 20 --format json`: with
# m_max = lcm(1..20), every counterexample to Conjecture 1 of width <= 20.
CENSUS_20_SHA = "d4e263ca521f8ba70ec129fbc8ac0b489d7aaad470b2010792c73d18d056f1d7"


def test_conjecture1_census_to_width_20(capsys):
    code, out = run_capture(
        capsys, "scan", "--m-max", "232792560", "--n-max", "20", "--format", "json"
    )
    assert code == EXIT_FINDINGS
    assert len(json.loads(out)["result"]["counterexamples"]) == 334
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_20_SHA


def test_verify_clean_range(capsys):
    code, out = run_capture(
        capsys, "verify", "--limit", "50000", "--format", "json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["failures"] == []
    assert report["result"]["windows_checked"] > 5000
    assert "elapsed_seconds" not in report


def test_verify_report_is_the_same_at_1_and_2_workers(capsys):
    # The report records the worker count in two fields; every other byte
    # is the same, and the blocks cross the 2^16-wide value block edges.
    reports = []
    for workers in (1, 2):
        code, out = run_capture(
            capsys, "verify", "--limit", "300000", "--workers", str(workers), "--format", "json"
        )
        assert code == EXIT_OK
        for field in ("workers", "worker_count"):
            recorded = f'"{field}": {workers}\n'
            assert out.count(recorded) == 1
            out = out.replace(recorded, f'"{field}": 0\n')
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["result"]["windows_checked"] == 25_995


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


def test_worker_count_ignores_environment(monkeypatch, capsys):
    # A report follows from its command line alone: --workers defaults to 1.
    monkeypatch.delenv("GRIMM_WORKERS", raising=False)
    code, plain = run_capture(capsys, "g", "--m", "10", "--format", "json")
    assert code == EXIT_OK
    monkeypatch.setenv("GRIMM_WORKERS", "6")
    code, out = run_capture(capsys, "g", "--m", "10", "--format", "json")
    assert code == EXIT_OK
    assert out == plain
    assert json.loads(out)["config"]["params"]["workers"] == 1


def test_sieve_guard_is_usage_error(capsys):
    # refused before the table is allocated: a 10^10 sieve would take over 100 GB
    code = run(["verify", "--limit", "10000000000"])
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


def _unit_valuation_at_118(monkeypatch):
    # the floor sums that recount a blocked index: read as 1 for every prime
    # at m = 118, they make 2 admissible at 120 in 119 .. 126
    vp_binomial = grimm.assign._vp_binomial
    monkeypatch.setattr(
        grimm.assign, "_vp_binomial", lambda p, m, n: 1 if m == 118 else vp_binomial(p, m, n)
    )


def _over_reported_exponent_at_840(monkeypatch):
    # 840 = 2^3 * 3 * 5 * 7 lies in H(12); reported as 2^4 * 3 * 5 * 7 it
    # would not, and v_2(C(851, 12)) = 2 passes the floor-sum clause
    factorize = grimm.arith.factorize
    monkeypatch.setattr(
        grimm.arith, "factorize",
        lambda x: {2: 4, 3: 1, 5: 1, 7: 1} if x == 840 else factorize(x),
    )


@pytest.mark.parametrize("mutate, message", [
    (_unit_valuation_at_118, "120 has an admissible prime in Window(m=118, n=8)"),
    (_over_reported_exponent_at_840, "2^4 is not a prime power exactly dividing 840"),
], ids=["unit_valuation_at_118", "over_reported_exponent_at_840"])
def test_verify_small_witness_check_exits_3(monkeypatch, capsys, mutate, message):
    # the listed members of H(12) carry a checked L(x), and every blocked
    # window a recounted blocking index
    mutate(monkeypatch)
    code = run(["verify-small", "--m-max", "2000", "--max-n", "12"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert (error["error"], error["message"]) == ("InternalContradiction", message)


@pytest.mark.parametrize("argv", [
    ["scan", "--m-max", "2000", "--n-max", "12"],
    ["verify-small", "--m-max", "2000", "--max-n", "12"],
], ids=["scan", "verify-small"])
def test_bad_hn_listing_exits_3(monkeypatch, capsys, argv):
    # 34 = 2 * 17 is listed as a member of H(12), but L(34) = 17 > 12.
    segments = grimm.assign.hn_segments
    monkeypatch.setattr(
        grimm.assign, "hn_segments", lambda n, bound: chain([[34]], segments(n, bound))
    )
    assert run(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert (error["error"], error["message"]) == (
        "InternalContradiction", "bad enumeration of H(12) up to 2012")


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


def test_factorize_exits_3_when_its_construction_fails(monkeypatch, capsys):
    assert run(["factorize", "--m", "104", "--n", "7"]) == EXIT_OK
    assert '"verified": true' in capsys.readouterr().out
    # Registered first, so that the corruption below is undone after the test.
    monkeypatch.setattr(CanonicalRow, "representation", CanonicalRow.representation)
    exec(textwrap.dedent(CORRUPTING_SITECUSTOMIZE), {})
    assert run(["factorize", "--m", "104", "--n", "7"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert (error["error"], error["message"]) == (
        "InternalContradiction", "canonical certificate fails at Window(m=104, n=7)")


# Mutants of the one-move repair: (text of assign._one_move, its replacement).
MOVE_MUTANTS = {
    "takes_the_only_prime_of_a_part": ("factors[j - 1] > q", "factors[j - 1] >= q"),
    "moves_a_prime_that_is_not_admissible": ("e <= v and ", ""),
}

# Loaded at start-up like CORRUPTING_SITECUSTOMIZE: rebinds assign._one_move
# to its own source with one condition replaced.
MOVE_MUTANT_SITECUSTOMIZE = """
import inspect
import grimm.assign

source = inspect.getsource(grimm.assign._one_move)
exec(source.replace({old!r}, {new!r}), vars(grimm.assign))
"""


@pytest.mark.parametrize("old, new", MOVE_MUTANTS.values(), ids=list(MOVE_MUTANTS))
def test_broken_move_exits_3(monkeypatch, tmp_path, old, new):
    source = inspect.getsource(grimm.assign._one_move)
    assert source.count(old) == 1
    namespace = dict(vars(grimm.assign))
    exec(source.replace(old, new), namespace)
    with monkeypatch.context() as patch:
        patch.setattr(grimm.assign, "_one_move", namespace["_one_move"])
        with pytest.raises(InternalContradiction, match="after one move per part of 1"):
            grimm.assign.scan_counterexamples((1, 200), (1, 12))
    site = MOVE_MUTANT_SITECUSTOMIZE.format(old=old, new=new)
    (tmp_path / "sitecustomize.py").write_text(site)
    argv = [sys.executable, "-m", "grimm", "scan", "--m-max", "200", "--n-max", "12"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(tmp_path)]))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_INTERNAL, done.stderr
    assert done.stdout == ""
    error = json.loads(done.stderr)
    assert error["error"] == "InternalContradiction"
    assert "after one move per part of 1" in error["message"]


# Subcommands whose decisions reach max_matching with a saturating matching.
MATCHED_DECISIONS = {
    "scan": ["scan", "--m-max", "3000", "--n-max", "20"],
    "w": ["w", "--m", "1000000", "--cap", "600"],
    "factorize": ["factorize", "--m", "1000", "--n", "5"],
}


@pytest.mark.parametrize("argv", MATCHED_DECISIONS.values(), ids=list(MATCHED_DECISIONS))
def test_matcher_that_drops_its_last_pair_exits_3(monkeypatch, capsys, argv):
    # Every short matching must come with a Hall violator, recounted apart
    # from the row; one pair dropped from a saturating matching leaves none.
    matching = grimm.assign.max_matching
    monkeypatch.setattr(grimm.assign, "max_matching", lambda adj: matching(adj)[:-1])
    assert run(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "InternalContradiction"
    assert error["message"].startswith("short matching without a Hall violator")


# Loaded at start-up like CORRUPTING_SITECUSTOMIZE: an augment that fails at
# every index, or once at the given index, where the intact one succeeds.
FAILING_AUGMENT_SITECUSTOMIZE = """
import grimm.assign

_real = grimm.assign.augment
_failed = set()

def _failing(adj, pair_r, start):
    if {index!r} in (None, start) and start not in _failed:
        _failed.add(start)
        return False
    return _real(adj, pair_r, start)

grimm.assign.augment = _failing
"""

# (failing index, argv, exit status of the intact run)
FAILING_AUGMENTS = {
    # the intact run reports g(1000) = 39; the mutant would stop at 19
    "g_once_at_20": (20, ["g", "--m", "1000"], EXIT_OK),
    # the intact run finds no failure; the mutant would list runs as failures
    "verify_always": (None, ["verify", "--limit", "100000"], EXIT_OK),
}


@pytest.mark.parametrize("index, argv, intact", FAILING_AUGMENTS.values(),
                         ids=list(FAILING_AUGMENTS))
def test_failed_augment_without_a_hall_violator_exits_3(tmp_path, index, argv, intact):
    # Every "no" of the augmenting walks must come with a Hall violator.
    site = FAILING_AUGMENT_SITECUSTOMIZE.format(index=index)
    (tmp_path / "sitecustomize.py").write_text(site)
    argv = [sys.executable, "-m", "grimm", *argv, "--format", "json"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(tmp_path)]))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_INTERNAL, done.stdout[-300:]
    assert done.stdout == ""
    error = json.loads(done.stderr)
    assert error["error"] == "InternalContradiction"
    assert error["message"].startswith("failed augment without a Hall violator")
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == intact, done.stderr


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
# that built one row dict per member and dumped whole lists before cutting;
# JSON recorded from the renderer that joined int.__str__ over each block.
HN30_SHA = {
    "csv": "eb29576b3a57de6c400d982f877dfa0dcea7357cd5ff3f93dfd71fa2c6ce9a30",
    "json": "e1509b661e5588d7619c9f3667deed043222a86e8f3eafdcd0bcc9888837e172",
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


def test_hn_blocks_cut_at_segment_ends(monkeypatch, capsys):
    # Blocks are slices of each segment: with 7 members a block, most
    # segments of H(30) end inside a block's span, and the report still
    # reads as json.dumps of the members and as one CSV row per member.
    segments = list(grimm.smooth.hn_segments(30))
    assert sum(len(s) % 7 != 0 for s in segments) > len(segments) // 2
    members = [x for s in segments for x in s]
    whole = {fmt: run_capture(capsys, "hn", "--n", "30", "--format", fmt)[1]
             for fmt in ("json", "csv")}
    monkeypatch.setattr(grimm.cli, "_JSON_BLOCK", 7)
    calls = _tee_writes(monkeypatch)
    for fmt in ("json", "csv"):
        code, out = run_capture(capsys, "hn", "--n", "30", "--format", fmt)
        assert code == EXIT_OK and out == whole[fmt]
    (json_report, json_parts), (csv_report, csv_parts) = calls
    for report in (json_report, csv_report):
        report["result"]["elements"] = members
    assert "".join(json_parts) == _dumps(json_report)
    assert "".join(json_parts) == grimm.cli.render_report(json_report, "json")
    assert "".join(csv_parts) == grimm.cli.render_report(csv_report, "csv")
    header, *rows = csv_parts
    assert header.endswith("\nelement\n") and "".join(rows) == "".join(f"{x}\n" for x in members)
    # one CSV part per block, and a block never reaches into the next segment
    assert len(rows) == sum(-(-len(s) // 7) for s in segments)


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
    assert len(parts) > report["result"]["cardinality"] // grimm.cli._JSON_BLOCK
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
    segments = grimm.smooth._segments
    monkeypatch.setattr(grimm.smooth, "_segments", lambda *args: corrupt(segments(*args)))
    out = tmp_path / "report"
    for fmt, report in whole.items():
        for output in ([], ["--output", str(out)]):
            assert run(["hn", "--n", "30", "--format", fmt, *output]) == EXIT_INTERNAL
            captured = capsys.readouterr()
            error = json.loads(captured.err)
            assert error["status"] == "internal_error"
            assert error["error"] == "InternalContradiction"
            assert error["message"] == "H(30) enumeration fails its count or lcm check"
            assert error["where"].startswith("smooth.py:")
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
