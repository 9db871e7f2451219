"""Tests for the benchmark harness itself (not for grimm).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        leaf()
        leaf()
        clock.now += 0.5

    def outer():
        clock.now += 4.0
        middle()
        leaf()

    leaf = tracer.wrap("leaf", leaf)
    middle = tracer.wrap("middle", middle)
    outer = tracer.wrap("outer", outer)
    outer()
    snap = tracer.take()
    assert snap.stat("outer").total_s == pytest.approx(9.5)
    assert snap.stat("outer").self_s == pytest.approx(4.0)
    assert snap.stat("middle").self_s == pytest.approx(2.5)
    assert snap.stat("leaf").calls == 3
    assert snap.stat("leaf").self_s == pytest.approx(3.0)
    assert snap.self_total() == pytest.approx(9.5)
    assert snap.edges == {(None, "outer"): 1, ("outer", "middle"): 1,
                          ("middle", "leaf"): 2, ("outer", "leaf"): 1}
    assert tracer.take().stat("leaf").calls == 0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    def outer():
        try:
            boom()
        except KeyError:
            clock.now += 2.0

    boom = tracer.wrap("boom", boom)
    tracer.wrap("outer", outer)()
    snap = tracer.take()
    assert snap.stat("boom").calls == 1
    assert snap.stat("outer").self_s == pytest.approx(2.0)


def test_failing_observer_is_counted_not_raised():
    tracer = tracing.Tracer()

    def observe(counters, args, result):
        raise AttributeError("signature changed")

    assert tracer.wrap("f", lambda x: x + 1, observe)(1) == 2
    assert tracer.take().observer_errors == 1


@pytest.fixture
def fake_package(monkeypatch):
    base = types.ModuleType("fakepkg.base")
    exec(
        "def leaf(x):\n    return x * 2\n"
        "def twice(x):\n    return leaf(leaf(x))\n"
        "class Box:\n    def __init__(self, v):\n        self.v = leaf(v)\n",
        base.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.leaf = base.leaf  # as after `from .base import leaf`
    pkg = types.ModuleType("fakepkg")
    pkg.base, pkg.user = base, user
    for name, mod in (("fakepkg", pkg), ("fakepkg.base", base), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return base, user


def test_install_reaches_every_import_path_and_remove_restores(fake_package):
    base, user = fake_package
    before = (dict(vars(base)), dict(vars(user)), dict(vars(base.Box)))
    tracer = tracing.Tracer()
    targets = [
        tracing.Target("fakepkg.base", "leaf", "base.leaf"),
        tracing.Target("fakepkg.base", "Box.__init__", "base.Box"),
        tracing.Target("fakepkg.base", "deleted", "base.deleted"),
        tracing.Target("fakepkg.gone", "f", "gone.f"),
    ]
    inst = tracing.install(tracer, targets, "fakepkg")
    assert inst.absent == ["base.deleted", "gone.f"]
    assert base.twice(1) == 4 and user.leaf(1) == 2 and base.Box(3).v == 6
    snap = tracer.take()
    assert snap.stat("base.leaf").calls == 4
    assert snap.stat("base.Box").calls == 1
    assert snap.edges[("base.Box", "base.leaf")] == 1
    inst.remove()
    assert (dict(vars(base)), dict(vars(user)), dict(vars(base.Box))) == before
    base.twice(1)
    assert tracer.take().stat("base.leaf").calls == 0


def test_seeded_inputs_repeat_and_stay_in_range():
    for name in workloads.WORKLOADS:
        assert workloads.make_job(name, 7) == workloads.make_job(name, 7)
    assert workloads.make_job("verify", 0).argv[:3] == ("verify", "--limit", "1000000")
    assert workloads.make_job("scan", 0).key == "scan --m-min 1 --m-max 20000 --n-max 20 --workers 2"
    assert workloads.make_job("primegen", 0).arg("--band-start") == 4001
    assert workloads.make_job("hn", 0).arg("--n") == 64
    limits = {workloads.make_job("verify", s).arg("--limit") for s in range(1, 40)}
    assert len(limits) > 30 and all(10**6 <= x <= 10**6 + 2 * 10**4 for x in limits)
    shifts = {workloads.make_job("scan", s).arg("--m-min") - 1 for s in range(1, 40)}
    assert len(shifts) > 30 and all(0 <= x <= 500 for x in shifts)
    assert {workloads.make_job("hn", s).arg("--n") for s in range(1, 40)} == {64, 65, 66}
    assert workloads.make_job("scan", 3).with_workers(1).arg("--workers") == 1


def test_oracle_agrees_with_known_values():
    flags = oracle.prime_flags(100)
    assert [x for x in range(30) if flags[x]] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert oracle.composite_run_count(flags, 10) == 3  # {4}, {6}, {8, 9, 10}
    assert not oracle.full_representation_exists(116, 10)
    assert oracle.full_representation_exists(89, 7)
    assert oracle.hn_size(oracle.prime_flags(7), 7) == len(oracle.hn_members_upto(7, 420))


def test_primegen_items_follow_the_sweep_order():
    job = workloads.make_job("primegen", 0)
    pool = [4001, 4003]  # any ascending band primes; only the offset matters here
    k = 4001 * 4003
    for offset, tested in ((2, 1), (-2, 2), (4, 3), (-4, 4)):
        report = {"result": {"pool": pool, "k": k, "offset": offset, "prime": k + offset,
                             "bit_length": (k + offset).bit_length(),
                             "conjecture2_violation": False}}
        assert workloads._check_primegen(job, report).items == tested


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.metric_units().items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
