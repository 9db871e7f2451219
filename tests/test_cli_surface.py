"""Pins the command-line surface: report bytes, exit status and parsed
parameters of every subcommand."""

import dataclasses
import hashlib
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import grimm
import grimm.conjectures
from grimm.cli import EXIT_ERROR, build_parser, run

README = Path(__file__).resolve().parents[1] / "README.md"

FORMATS = ("json", "csv", "text")


def _cramer_gap_with_a_failure(report):
    # No n >= 2 fails 2q < (ln(d-q))^2, so the findings path is pinned
    # by flipping the record for n = 12.
    def patched(n):
        rec = report(n)
        return dataclasses.replace(rec, holds=False) if n == 12 else rec

    return patched


CRAMER_FINDINGS = ("cramer-gap", "--n-min", "11", "--n-max", "13")

# (argv, exit status, sha256 of the json, csv and text reports)
GOLDEN = [
    (("verify", "--limit", "3000", "--workers", "2"), 0, (
        "e02bbe33ed98d4278caf1d737859a811dfbefd5dc8a427165d79f339d6a44aa5",
        "17a96f0cf8c980254fc54390c05d9e48f850bda579745af0efa110d3eaa90e3d",
        "1070b590d5321457ac6946cdb528310a8d6b115b7e13c5b3f648d884ef5bde6c")),
    (("runs", "--limit", "100", "--min-len", "3"), 0, (
        "d116fdf707a14d6f076a9384556b785f3dd5535b0823e3eafd2f5fc499669ff4",
        "9d52d0123da6806a600691483033debbf5c28a22d6a9bbac05ba471958bac0d0",
        "e97ad1ef752cf7a4edd226dbce28b9526038ec625727cd674ec7c13af3addf44")),
    (("factorize", "--m", "203", "--n", "7"), 0, (
        "ea4c7410c73a87cbe91d7ab937b9637af3564cf4e5b7a8ac7266099f2bcb9055",
        "bf350854fcbca77a0244c776be38614c70faa3bf47a9cbb92500157b3bae9c4c",
        "f9f97d5a73525399b3be7fc0b92f6b536e1a1d172aee0c1b838e310843c51ad1")),
    (("g", "--m", "116"), 0, (
        "337b90b47f7543b2e09f67b33cb9d8019f5d2e1bd6730671f5773a86ebe77cbd",
        "640a647bb39e55f58f75ad8aac25370afbf35d000bb1d1a97283fc5a6d511071",
        "5109c6daf02abbc2c8af8d5e00ac9a9014e701ff49c4accebee6e342196ab65e")),
    (("g", "--m", "10", "--cap", "4"), 0, (
        "0ea44c32c1dd229dfa55be3b51c5debb7d9347222d30a8bb59b2f4348541baff",
        "84d56339dc8d40cdab4b3371efaa3a3e173f59a69abc5568d4c2485dd0a4ed6e",
        "65c4b6dc141446b479db91a604ba6315b8af52867680ada47fc3f6278323a481")),
    (("w", "--m", "200", "--cap", "3"), 0, (
        "01f0cb808bcbf952f5d62824ede5c7915380772cbb5a0fa133ab6871089009ed",
        "47036993bafcad459c8d6d3e60ed499210042a4913acb9b1caaed9896fd827eb",
        "a324f68ce89ab9bd8bf31706134f011520a7a1c383100329a24be168906fab07")),
    (("w", "--m", "118", "--cap", "8"), 1, (
        "bcf86bbb022f0ca62d0af1702db15bb80c7c552e618d081beda4a8d001e86f83",
        "712f926c0210c18c703ab3eeb606acb09c1fe0d5f16a5d35605a53b8498427d4",
        "56ccf74bbef9e4ed8fbadfb1d007b96d0e17fd9684e7fa911a35934c22f9205e")),
    (("scan", "--m-max", "100", "--n-max", "6"), 0, (
        "c546507118b007e056118ac8f87abf58c2013b2ec75832a560be4c518708422e",
        "586be5f082c7190498629b01ceb2346d7b7779f7f936c9f0ff54b9d444af40fb",
        "01cfae90bf4112a54af86bb1831c2bdfd1f85c3412160cc732cf54a338385cc5")),
    (("scan", "--m-min", "100", "--m-max", "200", "--n-min", "8", "--n-max", "12"), 1, (
        "fe8df35ddd1e47e1935fbe33bdecb8196e45d25d0eb463f2e15e3c37a5f4bb03",
        "98d506c2626bcf9054f38e551312e0556c316300bb36a3762a4caa3324245b05",
        "b72c46ff17307beaf5ad56f34944f9a5da200fbca0229fc77828ecdd8032d408")),
    (("hn", "--n", "12"), 0, (
        "6064d556411a82ff88354bbb27d9d69d4b5deab69ba02f7212a221bc91f015ed",
        "273b5dcb2b4d844b61707acef9300ce67d956b7c31ce57ffc8be63c8cbae7566",
        "df042d2d12da1fa230afe37189ccc15b48fc881349e94b05968681133e17651d")),
    (("hn", "--n", "12", "--count-only"), 0, (
        "746d6cca8548769eaf2c7f60735bb7c3ebe9784266c0c99b8a862bc9304a4197",
        "06fe8757a50b5d37d89bcee92502285deda1f1d7c8f83144dd83365d091857b3",
        "42494733d49f211d25744bbfa3e20f6415db83292acd175473ae8367b0810701")),
    (("verify-small", "--m-max", "150", "--max-n", "7"), 0, (
        "e5e76d7e324a551ef6c530b265f872d9b1efd38341e659945908eb2fb45358b6",
        "50fe85ecc6fb755422905a13030c7cd7254c2c4c610d58a8bc7ff8c97bbd78ba",
        "360e3e8287e93a5406d818e1cf44a5981ac18befbd98d45493087057bae8e624")),
    (("verify-small", "--m-max", "30000", "--max-n", "12"), 1, (
        "f2aa77203fca48d3b2319ddfe4986b1c4186ed33fc4531e4e4ada684333efb6a",
        "b443e8346d1593f20b171a6449393f2cf79121cbfdbd9a55e1eb00fe18f4e9f3",
        "ae6979f8bc4b644632a7ef4b235aeb724f064d50e952ab0f203d23d1bc93ed85")),
    (("conjecture1", "--m", "113", "--n", "13"), 0, (
        "a811238648bed25e8b686f4f084f132c0da4d9d3669b1e82b6d320ea57bbfbb9",
        "83232937753041746f3480e9775f7e0ef888fd96cf18ef7af62362ffb8e5b9cf",
        "1585903f62614fef05c2fa75b5fc25aa001190d35bda22a2682ee3e328ff6bc1")),
    (("conjecture1", "--m", "116", "--n", "10"), 1, (
        "38c99acd4b9ae3bf9327b12b352125eda832ecbb86c3f708070128ceb677d67a",
        "a4bcb0c7afa0ff6ee49cbfa4999de1f8aea8837a319bcfab82fb032e8593c217",
        "5e17eadccda5b87aafc1bacda564b52c7d629849b72da90d3376beb73ed07689")),
    (("conjecture2", "--part", "i", "--n-min", "24", "--n-max", "24"), 1, (
        "97d3aab6d8a51f609293771d0b3ad21ae71f00c545feee50a9ce96a05e72ac17",
        "bdd66b238207139ac99e3d0785ea66bd55018be125a78c152aac1bdf5cace01a",
        "d1cb0a76f2aa3343d45de0b2fe0748dacec4d7a1280d6cf92736e8766257c2f2")),
    (("conjecture2", "--part", "i", "--n-min", "30", "--n-max", "30",
      "--budget", "5", "--seed", "3"), 0, (
        "44526f91f244a11ac30286bbcbb240ff37559304cc4f846515120b42ca6aa7ba",
        "e87044e4d5d44b41cdfa548051fe2ae3e949da30ba23c354aba0a9adb1729be3",
        "e922d2a751172b4b192439f8e2087251272673d4b60a0e0063aa521909598d41")),
    (("conjecture2", "--part", "ii", "--n-max", "12"), 0, (
        "99b808962f20c1bc20970b1d5e2686d763d7b1cebceac94a13f1ea8fe372401f",
        "1b81f640a0a5e4bd4bc82281dac5ce1e2f71c62bcba3cde1f090e2a9387d898e",
        "2412ba7189c4c425ea7dc706e08d0182c571de1109a1415e57203f7f57038902")),
    (("cramer-gap", "--n-min", "10", "--n-max", "14"), 0, (
        "d686bfee28e55dc907e312b06cb5967396cfdd5274e8e3178ba42c42cbb76b2b",
        "f38f050558d6f56ca8f82eafad3aebc3eba8e6d0943b79e975387668838f920d",
        "14677b9ff4b65703d899d6c8497dcfef3072ee8cee215763e48e48c79051ee00")),
    (CRAMER_FINDINGS, 1, (
        "5518169feec483067aaa3da0e0d5dab1cffbecd9af565173b6e5bc82d7d6a889",
        "850e4042856fff3d25558bdb15da1450271018d82e7572ef91f389fb22a4ad24",
        "86beb383ae556118f5e1e28522ce0ce4bdab4642a674647d97384bf2c55f7cc8")),
    (("primegen", "--bits", "32", "--candidates", "29,31,37,41,43,47"), 0, (
        "b1261f7e5a43db269722a81d40cf77c1a1ddbd2d9905cc84574a5c02d4fd4482",
        "f70f8667b8fcbaa59d4c4ebed711396bebe683dbf653bb4b97d0d4a7d1a4cfb6",
        "3dddbba7a2e05c2ad7c2e3bc72c59e2a1c1567c3e68ac3c69914ef49a48b60aa")),
]


@pytest.mark.parametrize("argv, status, digests", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_report_bytes(monkeypatch, capsys, argv, status, digests):
    if argv == CRAMER_FINDINGS:
        monkeypatch.setattr(
            grimm.conjectures, "cramer_gap_report",
            _cramer_gap_with_a_failure(grimm.conjectures.cramer_gap_report),
        )
    for fmt, digest in zip(FORMATS, digests):
        assert run([*argv, "--format", fmt]) == status
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


COMMON = {"workers": 1, "format": "text", "output": None, "seed": 0, "timings": False}

# vars(parse_args(argv)) for a minimal argv of every subcommand: the
# report's config.params is built from these keys and defaults.
PARSED = [
    (("verify",), {"limit": 10**6, "min_len": 1}),
    (("runs", "--limit", "9"), {"limit": 9, "min_len": 1}),
    (("factorize", "--m", "1", "--n", "2"), {"m": 1, "n": 2}),
    (("g", "--m", "1"), {"m": 1, "cap": None}),
    (("w", "--m", "1", "--cap", "2"), {"m": 1, "cap": 2}),
    (("scan", "--m-max", "3", "--n-max", "4"),
     {"m_min": 1, "m_max": 3, "n_min": 1, "n_max": 4}),
    (("hn", "--n", "5"), {"n": 5, "count_only": False}),
    (("verify-small",), {"m_max": 420, "max_n": 7}),
    (("conjecture1", "--m", "1", "--n", "2"), {"m": 1, "n": 2}),
    (("conjecture2", "--part", "ii", "--n-max", "6"),
     {"part": "ii", "n_min": None, "n_max": 6, "budget": None}),
    (("cramer-gap", "--n-max", "7"), {"n_min": 2, "n_max": 7}),
    (("primegen", "--bits", "8"),
     {"bits": 8, "band_start": 29, "mr_rounds": 40, "candidates": None}),
]


def _declared() -> list[str]:
    sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
    return list(sub.choices)


def test_parsed_arguments_cover_every_subcommand():
    assert [argv[0] for argv, _ in PARSED] == _declared()


@pytest.mark.parametrize("argv, own", PARSED, ids=[argv[0] for argv, _ in PARSED])
def test_parsed_arguments(argv, own):
    args = vars(build_parser().parse_args(list(argv)))
    assert args == {"subcommand": argv[0], **own, **COMMON}


@pytest.mark.parametrize("argv, guard", [
    (("hn", "--n", "200"), "ENUMERATION_GUARD"),
    (("w", "--m", "5", "--cap", "10001"), "W_CAP_GUARD"),
    (("conjecture2", "--part", "i", "--n-min", "100", "--n-max", "100"), "SUBSET_GUARD"),
    (("factorize", "--m", str(2**64), "--n", "1"), "FACTORIZATION_BOUND"),
    (("verify", "--limit", str(10**10)), "SIEVE_GUARD"),
    (("scan", "--m-max", str(10**30), "--n-max", "50"), "FACTORIZATION_BOUND"),
    (("scan", "--m-max", str(10**9), "--n-max", "100"), "ENUMERATION_GUARD"),
    (("cramer-gap", "--n-min", "50000001", "--n-max", "50000001"), "SIEVE_GUARD"),
    (("conjecture2", "--part", "i", "--n-min", str(10**9), "--n-max", str(10**9)), "SIEVE_GUARD"),
    (("conjecture2", "--part", "ii", "--n-min", "100000001", "--n-max", "100000001"), "SIEVE_GUARD"),
    # runs and hn --count-only are refused by the guards on the primes they read,
    # verify-small by growing the sieve to m_max + max_n + 1.
    (("runs", "--limit", "100000001"),
     "sieve limit 100000001 exceeds SIEVE_GUARD = 100000000"),
    (("verify-small", "--m-max", "99999993", "--max-n", "7"),
     "sieve limit 100000001 exceeds SIEVE_GUARD = 100000000"),
    (("hn", "--n", "200000000", "--count-only"),
     "sieve limit 200000000 exceeds SIEVE_GUARD = 100000000"),
    # The count stops at the enumeration guard before it reads past the sieve.
    (("hn", "--n", "200000000"), "ENUMERATION_GUARD"),
    # Refused before its first probe: the block of n = 199 holds 21 primes.
    (("conjecture2", "--part", "ii", "--n-max", "200"), "SUBSET_GUARD"),
])
def test_guard_errors_name_their_guard(capsys, argv, guard):
    # A lost guard would start the work it refuses; the alarm makes that a
    # failure within a minute rather than a hang.
    def late(signum, frame):
        raise TimeoutError(f"{' '.join(argv)} was not refused within 60 s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(60)
    try:
        status = run(list(argv))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert status == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and guard in err
    if guard.startswith("sieve limit"):
        assert err == f"error: {guard}\n"


# sha256 of `verify-small --m-max 200000 --max-n 12 --format json`, recorded
# from the walk over a sieve grown to m_max + max_n + 1.
VERIFY_SMALL_200000_12_SHA = "cd6a10ad1cbbde8ff157686fee18533818159176835a3ab86f220864fd3162d8"


def test_verify_small_report_past_the_default_sieve(capsys):
    assert run(["verify-small", "--m-max", "200000", "--max-n", "12", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SMALL_200000_12_SHA


# sha256 of `verify --limit 1000000 --workers 1 --format json`, the report that
# bench/digests.json pins for the verify workload at that limit.
VERIFY_1000000_SHA = "70001659f64d16dd3df871c2b06e6b052f59308fbaac286ee43e55cf08a24c74"


def test_verify_report_at_a_million(capsys):
    assert run(["verify", "--limit", "1000000", "--workers", "1", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_1000000_SHA


def test_readme_lists_the_declared_subcommands():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| subcommand |"):].split("\n\n", 1)[0]
    assert re.findall(r"^\| `([^`]+)` \|", table, re.M) == _declared()


def test_readme_library_names_exist():
    # Every backticked plain identifier in a row of the Library table is an
    # attribute of that row's module.
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| module "):].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| (.*) \|$", table, re.M)
    assert len(rows) == 7
    for module, contents in rows:
        names = [name for name in re.findall(r"`([^`]+)`", contents) if name.isidentifier()]
        assert names, module
        missing = [name for name in names if not hasattr(getattr(grimm, module), name)]
        assert not missing, (module, missing)


def test_cli_import_leaves_multiprocessing_unloaded():
    # Only a started pool needs multiprocessing, so no command pays for it at import.
    src = Path(grimm.conjectures.__file__).resolve().parents[1]
    code = "import sys, grimm.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\n"


def test_only_probable_prime_rounds_load_the_modular_power_kernel():
    # The libgmp kernel is loaded through ctypes on the first strong round
    # above the deterministic bound, so the commands and proofs below it
    # never import ctypes.
    src = Path(grimm.conjectures.__file__).resolve().parents[1]
    code = "\n".join([
        "import contextlib, io, sys",
        "from grimm.arith import is_prime, probable_prime",
        "from grimm.cli import run",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['verify', '--limit', '300000', '--workers', '2'],",
        "                 ['scan', '--m-max', '3000', '--n-max', '20', '--workers', '2'],",
        "                 ['hn', '--n', '40'], ['g', '--m', '10000']):",
        "        assert run(argv + ['--format', 'json']) in (0, 1), argv",
        "assert is_prime(2**64 + 13)",
        "print('ctypes' in sys.modules)",
        "assert probable_prime(2**89 - 1)",
        "print('ctypes' in sys.modules)",
    ])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\nTrue\n"
