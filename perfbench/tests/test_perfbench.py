"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers, run  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.ledger import Ledger  # noqa: E402
from perfbench.loadgen import LoadResult, make_schedule, run_open_loop  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_same_seed_gives_same_schedule_digest():
    first = make_schedule(637, 160.0, 500, 1.1, seed=5)
    again = make_schedule(637, 160.0, 500, 1.1, seed=5)
    other = make_schedule(637, 160.0, 500, 1.1, seed=6)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_schedule_shape_and_skew():
    zipf = make_schedule(637, 100.0, 4000, 1.1, seed=1)
    uniform = make_schedule(637, 100.0, 4000, 0.0, seed=1)
    assert np.all(np.diff(zipf.due) >= 0) and zipf.due[0] == 0.0
    assert zipf.users.min() >= 0 and zipf.users.max() < 637
    # Zipf traffic repeats hot users far more than uniform traffic.
    assert zipf.repeat_frac() > uniform.repeat_frac()
    assert abs(len(zipf) / zipf.due[-1] - 100.0) < 10.0


def test_open_loop_times_from_due_and_reports_backlog():
    schedule = make_schedule(50, 400.0, 40, 0.0, seed=3)

    def slow(user):
        time.sleep(0.01)
        return user

    result = run_open_loop(slow, schedule, threads=1)
    assert result.responses == [int(u) for u in schedule.users]
    # One client at 10 ms a call cannot keep up with 400/s: requests
    # queue, and the latency from the due time includes that wait.
    assert result.backlog.max() > 5
    assert np.all(result.latency >= result.lateness)
    assert result.latency[-1] > 0.05


# ----------------------------------------------------------------------
# metric names
# ----------------------------------------------------------------------
def _declared(key):
    return [entry["name"] for entry in SPEC[key]]


def test_declared_names_are_well_formed_and_unique():
    names = _declared("end_to_end") + _declared("per_layer")
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in _declared("end_to_end")
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(W.WORKLOADS)


def _fake_result(workload):
    def rung(rate, p99):
        schedule = make_schedule(20, rate, 10, workload.skew, seed=int(rate))
        load = LoadResult(schedule, schedule.due + 0.001, schedule.due + 0.002,
                          [None] * 10, [None] * 10)
        latency = np.full(10, 2.0)
        return W.Rung(rate, [load], latency, 2.0, p99, 10, p99 <= workload.p99_limit_ms)

    class _Target:
        front = object()
        references = {"v0": None}

    class _Sampler:
        exact_times = [0.02, 0.03]
        approx_times = [0.3]
        recall = 0.3

    return {
        "served": {
            "rungs": [rung(rate, 1.0) for rate in workload.ladder],
            "reload_window": rung(workload.low, 3.0),
            "repeat_frac": 0.5,
            "service_ms": [5.0, 6.0],
        },
        "sampler": _Sampler(),
        "overlap": 0.9, "train_s": 3.0, "pool_start_s": 0.0, "target": _Target(),
        "publisher": None, "restarts": 0, "work_wall": 10.0,
    }


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_declared_metric_is_emitted(name, monkeypatch):
    workload = W.WORKLOADS[name]
    result = _fake_result(workload)
    e2e, _ = run.end_to_end(W, workload, 1.0, result, W.Checks())
    assert sorted(e2e) == sorted(_declared("end_to_end"))
    assert all(value > 0 for value in e2e.values())
    monkeypatch.setattr(run, "_isolated_score_us", lambda result: 1.0)
    ledger = Ledger()
    with ledger.thread():
        pass
    traced, _ = run.per_layer(W, workload, ledger, layers.StepMemory(0), result, 9.0)
    assert sorted(traced) == sorted(_declared("per_layer"))


def test_workload_rates_sit_on_the_ladder():
    for workload in W.WORKLOADS.values():
        assert workload.low in workload.ladder
        assert workload.high in workload.ladder
        assert list(workload.ladder) == sorted(workload.ladder)


def test_max_rate_interpolates_towards_the_failing_rung_above():
    def rung(rate, p99, passed):
        return W.Rung(rate, None, None, 1.0, p99, 1, passed)

    rungs = [rung(100, 10.0, True), rung(200, 30.0, True), rung(300, 70.0, False)]
    assert W.max_rate(rungs, 50.0) == pytest.approx(250.0)
    assert W.max_rate(rungs[:2], 50.0) == 200.0
    assert W.max_rate([rung(100, 100.0, False)], 50.0) == pytest.approx(50.0)
    # A lone stall at 200/s does not hide that 300/s held.
    stalled = [rung(100, 10.0, True), rung(200, 90.0, False),
               rung(300, 40.0, True), rung(400, 60.0, False)]
    assert W.max_rate(stalled, 50.0) == pytest.approx(350.0)


def test_tail_p99_ignores_a_stall_in_one_slice():
    rng = np.random.default_rng(0)
    latency = rng.uniform(1.0, 2.0, size=1000)
    stalled = latency.copy()
    stalled[300:312] = 40.0
    assert W.tail_p99(stalled) < 2.0 <= W.quantile(stalled, 0.99)
    assert W.tail_p99(latency * 3) == pytest.approx(3 * W.tail_p99(latency))
    assert W.tail_p99(np.full(1000, np.inf)) == np.inf


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------
class _Base:
    def inherited(self, x):
        return x + 1


class _Toy(_Base):
    def outer(self, x):
        time.sleep(0.002)
        return self.inner(x) + self.inherited(x)

    def inner(self, x):
        time.sleep(0.003)
        return 2 * x


def test_ledger_rows_sum_to_traced_wall_time():
    ledger = Ledger()
    ledger.wrap(_Toy, "outer", "toy.outer")
    ledger.wrap(_Toy, "inner", "toy.inner")
    ledger.wrap(_Toy, "inherited", "toy.inherited")
    toy = _Toy()
    try:
        def drive():
            with ledger.thread():
                for i in range(10):
                    assert toy.outer(i) == 3 * i + 1
                time.sleep(0.01)

        threads = [threading.Thread(target=drive) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        # Calls off traced threads pass through untimed.
        assert toy.outer(1) == 4
    finally:
        ledger.restore()
    ok, error = ledger.check_sum()
    assert ok and error < 0.05
    assert ledger.calls["toy.outer"] == 20 and ledger.calls["toy.inner"] == 20
    assert ledger.self_time["toy.outer"] < ledger.busy["toy.outer"]
    assert ledger.self_time[Ledger.ROOT] >= 0.015
    total = sum(ledger.rows().values())
    assert total == pytest.approx(ledger.thread_wall, rel=0.05)


def test_iterator_wrapper_times_each_next():
    class Source:
        def items(self, n):
            for i in range(n):
                yield i

    ledger = Ledger()
    ledger.wrap_iterator(Source, "items", "source.next")
    try:
        with ledger.thread():
            assert list(Source().items(3)) == [0, 1, 2]
    finally:
        ledger.restore()
    assert ledger.calls["source.next"] == 4  # three items plus the stop


def test_restore_puts_back_every_wrapper():
    own = _Toy.__dict__["outer"]
    ledger = Ledger()
    ledger.wrap(_Toy, "outer", "toy.outer")
    ledger.wrap(_Toy, "inherited", "toy.inherited")
    assert _Toy.__dict__["outer"] is not own and "inherited" in _Toy.__dict__
    ledger.restore()
    assert _Toy.__dict__["outer"] is own
    assert "inherited" not in _Toy.__dict__


def test_install_and_restore_leave_the_program_untouched():
    owners = [
        layers.IMCATTrainer, layers.BPRSampler, layers.TripletCycler,
        layers.IndexCycler, layers.IMCAT, layers.Tensor, layers.Adam,
        layers.LightGCN, layers.CheckpointManager, layers.Evaluator,
        layers.ApproximateScorer, layers.ShardedService, layers.ShardMap,
        layers.RecommendationService, layers.MicroBatcher,
        layers.proc.ProcWorker, layers.proc.ProcessPool, layers.proc,
    ]
    before = [dict(vars(owner)) for owner in owners]
    ledger = Ledger()
    layers.install(ledger, layers.StepMemory(0))
    assert any(dict(vars(o)) != b for o, b in zip(owners, before))
    ledger.restore()
    for owner, snapshot in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == snapshot.keys(), owner
        assert all(after[key] is snapshot[key] for key in snapshot), owner
