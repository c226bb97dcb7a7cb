"""The benchmark's workloads: train, evaluate, index and serve L-IMCAT.

Every workload runs the same lifecycle over one fixed catalogue — the
synthetic ``hetrec-del`` preset at scale 0.5 — with a fixed model seed,
and the run seed draws the traffic.  The model is L-IMCAT (IMCAT over
LightGCN, d=64, K=8, batch 256, ``pretrain_epochs=1``) with a checkpoint
every epoch; workloads differ in how long it trains and how it is
served:

``train-limcat``
    Three epochs, so the run crosses the pretrain→clustering switch.
    Served afterwards under uniform traffic (almost no user repeats)
    through two in-process shards each carrying a :class:`MicroBatcher`
    at the serving CLI's pooled defaults (max batch 8, max wait 2 ms),
    then by two supervised worker processes loading the trainer's
    checkpoint directory, while the bench publishes new snapshots and
    calls ``poll_reload`` beside the reads.
``serve-limcat-batched``
    Two epochs, then Zipf traffic (skew 1.1: hot users repeat) through
    the same two batched shards.

The bench only calls public entry points: ``IMCATTrainer.fit``,
``Evaluator.evaluate``, ``build_index``, ``recommend`` on the serving
front door, and ``poll_reload``.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.ckpt import CheckpointManager
from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.data import generate_preset, split_dataset
from repro.eval import Evaluator
from repro.models import LightGCN
from repro.retrieval import ApproximateScorer, build_index
from repro.retrieval.benchmark import ranking_overlap
from repro.serve import MicroBatcher, RecommendationService, ShardedService
from repro.serve.proc import ProcessPool, WorkerSpec
from repro.serve.provider import StaticModelProvider, default_restore

from .ledger import Ledger
from .loadgen import LoadResult, Schedule, make_schedule, run_open_loop

DATASET = "hetrec-del"
SCALE = 0.5
EMBED_DIM = 64
NUM_INTENTS = 8
BATCH_SIZE = 256
TOP_N = 20
N_PROBE = 2
DATA_SEED = 0
#: The model's initialisation and sampling seed.  Fixed, so a run's
#: recall and index overlap change only when the program's arithmetic
#: does; the run seed drives the traffic.
TRAIN_SEED = 0
SETUP_REPEATS = 2
#: Windows at each of the low and high rates, interleaved.
REPEATS = 2
CLIENTS = max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    """One workload's fixed settings (rates in requests per second)."""

    name: str
    epochs: int
    skew: float
    ladder: Tuple[float, ...]
    low: float
    high: float
    p99_limit_ms: float
    rung_requests: int
    pool_rate: float = 0.0
    reloads: int = 0


#: Both workloads serve through the same stack — two in-process shards,
#: each with a micro-batcher — at rates well below its knee on this
#: class of machine (about 250/s): nearer the knee, queueing multiplies
#: the box's run-to-run speed swings into the latencies.  The ladder runs
#: on past the knee for ``max_rate_rps``.  ``pool_rate`` > 0 adds a
#: window that serves the trained model through two worker processes
#: loading the trainer's checkpoints, under uniform traffic, while
#: snapshots are published and reloaded; it feeds the process, transport
#: and reload layers.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="train-limcat", epochs=3, skew=0.0,
            ladder=(50.0, 100.0, 150.0, 200.0, 250.0, 300.0), low=50.0,
            high=100.0, p99_limit_ms=50.0, rung_requests=300, pool_rate=100.0,
            reloads=3,
        ),
        Workload(
            name="serve-limcat-batched", epochs=2, skew=1.1,
            ladder=(50.0, 100.0, 150.0, 200.0, 250.0, 300.0), low=50.0,
            high=100.0, p99_limit_ms=50.0, rung_requests=300,
        ),
    )
}


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Order-statistic quantile (no interpolation, so ``inf`` survives)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_p99(latency: np.ndarray, slice_size: int = 100) -> float:
    """p99 as the median, over consecutive ``slice_size``-request slices,
    of each slice's p99.

    A stall (the box's other tenants, a descheduled worker) lands tens of
    milliseconds on a handful of neighbouring requests and would decide a
    plain p99 on its own; here it moves the slices it falls in and leaves
    the median alone, while a slowdown that lasts the window moves every
    slice.
    """
    latency = np.asarray(latency)
    parts = np.array_split(latency, max(1, len(latency) // slice_size))
    return float(statistics.median(quantile(part, 0.99) for part in parts))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


@dataclass
class Inputs:
    dataset: Any
    split: Any
    evaluator: Evaluator
    train_items: List[np.ndarray]


def make_inputs() -> Inputs:
    """The fixed catalogue every workload shares: 637 users, 2584 items,
    about 6.8k training interactions."""
    dataset = generate_preset(DATASET, scale=SCALE, seed=DATA_SEED)
    split = split_dataset(dataset, seed=DATA_SEED + 1)
    evaluator = Evaluator(
        split.train, split.test, top_n=(TOP_N,), metrics=("recall",)
    )
    return Inputs(dataset, split, evaluator, split.train.items_of_user())


def build_model(inputs: Inputs) -> IMCAT:
    """L-IMCAT: IMCAT over LightGCN, d=64, K=8, one pretrain epoch."""
    rng = np.random.default_rng(TRAIN_SEED)
    dataset, split = inputs.dataset, inputs.split
    base = LightGCN(
        dataset.num_users, dataset.num_items,
        (split.train.user_ids, split.train.item_ids), EMBED_DIM, rng=rng,
    )
    config = IMCATConfig(num_intents=NUM_INTENTS, pretrain_epochs=1)
    return IMCAT(base, dataset, split.train, config, rng=rng)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def train(
    workload: Workload, inputs: Inputs, ckpt_dir: str, checks: Checks
) -> Tuple[IMCAT, List[float], float]:
    """Fit the workload's model; returns (model, losses, seconds)."""
    model = build_model(inputs)
    config = IMCATTrainConfig(
        epochs=workload.epochs, batch_size=BATCH_SIZE, seed=TRAIN_SEED,
        eval_every=1, patience=workload.epochs + 1,
        checkpoint_dir=ckpt_dir, checkpoint_every=1,
    )
    trainer = IMCATTrainer(model, inputs.split, config)
    start = time.perf_counter()
    result = trainer.fit()
    seconds = time.perf_counter() - start
    losses = [float(record["loss"]) for record in result.history]
    checks.check(
        len(losses) == workload.epochs and all(map(math.isfinite, losses)),
        f"training loss history not finite: {losses}",
        count=workload.epochs,
    )
    return model, losses, seconds


class EvalSampler:
    """Exact and approximate evaluation passes, timed a few at a time.

    The index is built once; :meth:`sample` is called after training and
    again after every serving window, so the medians describe the whole
    run rather than one half-second of it.
    """

    def __init__(
        self, model: IMCAT, inputs: Inputs, checks: Checks, ledger: Optional[Ledger]
    ) -> None:
        self.model = model
        self.evaluator = inputs.evaluator
        self.checks = checks
        self.ledger = ledger
        self.evaluator.evaluate(model)  # warm-up, untimed
        self.exact = self.evaluator.evaluate(model)
        self.exact_times: List[float] = []
        self.approx_times: List[float] = []
        self._calls = 0
        popularity = inputs.split.train.item_degrees()
        with self._traced("retrieval.build"):
            start = time.perf_counter()
            self.index = build_index(model, popularity=popularity, seed=TRAIN_SEED)
            self.build_s = time.perf_counter() - start

    def _traced(self, name: Optional[str] = None):
        ledger = self.ledger
        if ledger is None:
            return nullcontext()
        if name is not None:
            return ledger.span(name)
        return nullcontext() if ledger.active() else ledger.thread()

    def sample(self, exact: int = 3, approx: Optional[int] = None) -> None:
        """``exact`` exact passes and ``approx`` approximate ones; by
        default one approximate pass every second call."""
        if approx is None:
            approx = self._calls % 2
        self._calls += 1
        key = f"recall@{TOP_N}"
        with self._traced():
            for _ in range(exact):
                start = time.perf_counter()
                result = self.evaluator.evaluate(self.model)
                self.exact_times.append(time.perf_counter() - start)
                self.checks.check(
                    np.array_equal(result.per_user[key], self.exact.per_user[key]),
                    "repeated exact evaluation passes disagree",
                )
            for _ in range(approx):
                start = time.perf_counter()
                self.evaluator.evaluate(
                    self.model, approximate=True, index=self.index, n_probe=N_PROBE
                )
                self.approx_times.append(time.perf_counter() - start)

    @property
    def recall(self) -> float:
        return float(self.exact[f"recall@{TOP_N}"])


def check_retrieval(
    model: IMCAT, inputs: Inputs, sampler: EvalSampler, checks: Checks
) -> float:
    """Full-probe approximate pass ≡ exact pass; returns top-20 overlap
    of the ``N_PROBE`` ranking with the exact one."""
    index = sampler.index
    # Small chunks: probing every partition scores the whole catalogue
    # pairwise, which at the evaluator's default chunk needs ~1 GB.
    full = inputs.evaluator.evaluate(
        model, approximate=True, index=index, n_probe=index.num_partitions,
        chunk_size=32,
    )
    key = f"recall@{TOP_N}"
    checks.check(
        np.array_equal(full.per_user[key], sampler.exact.per_user[key]),
        "full-probe approximate evaluation differs from the exact pass",
    )
    scorer = ApproximateScorer(model, index, n_probe=N_PROBE)
    return ranking_overlap(
        model, scorer, inputs.evaluator.eval_users,
        mask_items=inputs.train_items, top_k=TOP_N,
    )


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class Target:
    """A serving front door plus the reference models that check it.

    ``references`` maps each ``model_version`` the front door may answer
    with to an in-process model whose ``recommend`` is the expected
    answer; ``answers`` memoises those expected answers per user.
    """

    def __init__(self, front: Any, train_items, references: Dict[str, Any]):
        self.front = front
        self.train_items = train_items
        self.exclude = [items.tolist() for items in train_items]
        self.references = references
        self.answers: Dict[Tuple[str, int], np.ndarray] = {}

    def call(self, user: int):
        return self.front.recommend(user, top_n=TOP_N, exclude=self.exclude[user])

    def close(self) -> None:
        if isinstance(self.front, ProcessPool):
            self.front.close()

    def verify(self, user: int, response) -> Optional[str]:
        """``None`` when the answer is right, else what is wrong."""
        items = np.asarray(response.items)
        exclude = self.train_items[user]
        if len(items) != TOP_N:
            return f"answer has {len(items)} items, wanted {TOP_N}"
        if np.isin(items, exclude).any():
            return "answer holds an excluded (training) item"
        if response.level != "live":
            return None
        version = response.model_version
        reference = self.references.get(version)
        if reference is None:
            return f"no reference for model version {version!r}"
        expected = self.answers.get((version, user))
        if expected is None:
            expected = np.asarray(reference.recommend(
                user, top_n=TOP_N, exclude=set(self.exclude[user])
            ))
            self.answers[(version, user)] = expected
        if not np.array_equal(items, expected):
            return f"live answer differs from {version} recommend()"
        return None


def build_target(
    workload: Workload, inputs: Inputs, model: IMCAT, ckpt_dir: str,
    process: bool = False,
) -> Target:
    """The workload's serving stack over ``model``, or with ``process``
    the worker pool serving the newest snapshot in ``ckpt_dir``."""
    popularity = inputs.split.train.item_degrees()
    if process:
        spec = WorkerSpec(
            builder=lambda: build_model(inputs), checkpoint_dir=ckpt_dir,
            popularity=popularity, default_top_n=TOP_N, breaker_recovery=0.1,
        )
        front = ProcessPool(spec, 2, popularity=popularity, down_cooldown=0.2)
        return Target(front, inputs.train_items, {})
    workers = []
    for _ in range(2):
        provider = StaticModelProvider(model, version="v0")
        workers.append(RecommendationService(
            provider, popularity=popularity, default_top_n=TOP_N,
            batcher=MicroBatcher(provider.model, max_batch=8, max_wait=0.002),
        ))
    front = ShardedService(workers, popularity=popularity, down_cooldown=0.2)
    return Target(front, inputs.train_items, {"v0": model})


def reference_from_state(inputs: Inputs, state) -> IMCAT:
    return default_restore(build_model(inputs), state)


def perturbed(state: dict, step: int) -> dict:
    """A new snapshot: the backbone embeddings nudged by seeded noise."""
    rng = np.random.default_rng(step)
    model_state = {}
    for key, value in state["model"].items():
        value = np.asarray(value)
        if key.startswith("backbone.") and value.dtype.kind == "f":
            value = value + rng.normal(0.0, 0.05 * (value.std() + 1e-12), value.shape)
        model_state[key] = value
    return {**state, "model": model_state}


@dataclass
class Rung:
    """One rate's windows: latencies in ms, ``inf`` where the answer
    missed (an error or a degraded rung)."""

    rate: float
    results: List[LoadResult]
    latency_ms: np.ndarray
    p50_ms: float
    p99_ms: float
    live: int
    passed: bool
    overloaded: bool = False

    @property
    def requests(self) -> int:
        return sum(len(result.responses) for result in self.results)

    @classmethod
    def pooled(cls, rungs: List["Rung"], limit_ms: float) -> "Rung":
        """Several windows at one rate read as one."""
        latency = np.concatenate([rung.latency_ms for rung in rungs])
        p99 = tail_p99(latency)
        overloaded = any(rung.overloaded for rung in rungs)
        return cls(
            rungs[0].rate, [r for rung in rungs for r in rung.results], latency,
            quantile(latency, 0.5), p99, sum(rung.live for rung in rungs),
            passed=p99 <= limit_ms and not overloaded, overloaded=overloaded,
        )


def analyse(
    result: LoadResult, rate: float, limit_ms: float, verify, checks: Checks
) -> Rung:
    latency = result.latency * 1000.0
    effective = np.full(len(latency), np.inf)
    live = 0
    for i, response in enumerate(result.responses):
        user = int(result.schedule.users[i])
        error = result.errors[i]
        if error is None:
            error = verify(user, response)
        if not checks.check(error is None, f"request {i} (user {user}): {error}"):
            continue
        if response.level == "live":
            live += 1
            effective[i] = latency[i]
    # A queue that grows through the window, not a momentary stall: the
    # last quarter's mean backlog is well above the first quarter's.
    backlog = result.backlog
    quarter = max(1, len(backlog) // 4)
    growing = float(np.mean(backlog[-quarter:])) > max(
        2.0 * CLIENTS, 0.02 * len(backlog)
    ) + float(np.mean(backlog[:quarter]))
    p99 = tail_p99(effective)
    return Rung(
        rate, [result], effective, quantile(effective, 0.5), p99, live,
        passed=(p99 <= limit_ms and not growing), overloaded=growing,
    )


def max_rate(rungs: List[Rung], limit_ms: float) -> float:
    """Highest sustainable rate: the highest passing rung, interpolated
    on p99 towards the rung above it when that one failed.  A lone
    failing rung below a passing one (a stall, say) does not end it."""
    best = None
    for lower, upper in zip(rungs, rungs[1:] + [None]):
        if not lower.passed:
            continue
        value = lower.rate
        if (upper is not None and not upper.passed
                and math.isfinite(upper.p99_ms) and upper.p99_ms > lower.p99_ms):
            frac = (limit_ms - lower.p99_ms) / (upper.p99_ms - lower.p99_ms)
            value += max(0.0, min(1.0, frac)) * (upper.rate - lower.rate)
        best = value if best is None else max(best, value)
    if best is not None:
        return best
    first = rungs[0]
    finite = first.p99_ms if math.isfinite(first.p99_ms) else 1e9
    return first.rate * min(1.0, limit_ms / finite)


class Publisher:
    """Writes new snapshots and reloads the pool at fixed trace times."""

    def __init__(self, pool, ckpt_dir: str, base_state: dict, base_step: int):
        self.pool = pool
        self.manager = CheckpointManager(ckpt_dir)
        self.base_state = base_state
        self.step = base_step
        self.states: Dict[int, dict] = {}
        self.outcomes: List[List[str]] = []

    def publish(self) -> None:
        self.step += 1
        state = perturbed(self.base_state, self.step)
        self.manager.save(state, step=self.step)
        self.states[self.step] = state
        self.outcomes.append(list(self.pool.poll_reload()))


class Traffic:
    """Timed serving windows of one run, each ``requests`` long.

    Every window draws its own schedule from the run seed and the
    window's key, so a seed fixes the whole run's traffic; after each
    window ``between`` runs, outside the timed part.
    """

    def __init__(self, workload: Workload, inputs: Inputs, seed: int,
                 seconds: float, checks: Checks, ledger: Optional[Ledger],
                 between: Callable[[], None]) -> None:
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.checks = checks
        self.ledger = ledger
        self.between = between
        # The same number of requests per window, so every p99 rests on
        # the same sample size; ``seconds`` scales it around a 30 s run.
        self.requests = max(100, int(workload.rung_requests * seconds / 30.0))
        self.repeated = 0.0
        self.sent = 0
        self.service_ms: List[float] = []

    def window(self, front: Target, rate: float, skew: float, key: int,
               publisher: Optional[Publisher] = None, count: int = 0) -> Rung:
        schedule = make_schedule(
            self.inputs.dataset.num_users, rate, count or self.requests, skew,
            self.seed * 1000 + key,
        )
        self.repeated += schedule.repeat_frac() * len(schedule)
        self.sent += len(schedule)
        writer = None
        if publisher is not None:
            writer = _start_writer(publisher, schedule, self.workload.reloads,
                                   self.ledger)
        result = run_open_loop(front.call, schedule, CLIENTS, self.ledger)
        if writer is not None:
            writer.join()
            for step, state in publisher.states.items():
                front.references.setdefault(
                    f"ckpt-step-{step}", reference_from_state(self.inputs, state)
                )
        rung = analyse(result, rate, self.workload.p99_limit_ms, front.verify,
                       self.checks)
        self.between()
        return rung

    def ladder(self, target: Target) -> List[Rung]:
        """A warm-up window, then the low and high rates in alternating
        windows — a drift in the machine's speed over the run lands on
        both alike, and each reads as the pool of its windows — then the
        rest of the ladder, stopping at the first overloaded rung."""
        workload = self.workload
        self.window(target, workload.high, workload.skew, 999)
        self.probe(target, 997)
        low, high = [], []
        for repeat in range(REPEATS):
            low.append(self.window(target, workload.low, workload.skew, 100 + repeat))
            high.append(self.window(target, workload.high, workload.skew, 200 + repeat))
        rungs = [Rung.pooled(low, workload.p99_limit_ms),
                 Rung.pooled(high, workload.p99_limit_ms)]
        for position, rate in enumerate(workload.ladder):
            if rate <= workload.high:
                continue
            rungs.append(self.window(target, rate, workload.skew, position))
            if rungs[-1].overloaded:
                break
        self.probe(target, 996)
        return rungs

    def probe(self, target: Target, key: int, count: int = 100) -> None:
        """Back-to-back requests from one client: the front door's
        service time with nothing queued, which is what a user of an
        idle system waits.  Open-loop latencies on this shared box swing
        with its load far beyond any bound; this figure does not."""
        schedule = make_schedule(self.inputs.dataset.num_users, 1.0, count,
                                 self.workload.skew, self.seed * 1000 + key)
        for user in schedule.users.tolist():
            start = time.perf_counter()
            response = target.call(user)
            self.service_ms.append(1000.0 * (time.perf_counter() - start))
            error = target.verify(user, response)
            self.checks.check(error is None, f"probe (user {user}): {error}")
            self.checks.check(response.level == "live",
                              f"probe (user {user}) answered {response.level}")

    def reloads(self, pool: Target, publisher: Publisher) -> Rung:
        """Uniform traffic over the worker pool while snapshots are
        published and reloaded.  Uniform traffic shares almost nothing
        between requests; the swaps stall the worker being reloaded for
        the whole load-canary-swap, so they stay out of the ladder."""
        return self.window(pool, self.workload.pool_rate, 0.0, 998, publisher)

    @property
    def repeat_frac(self) -> float:
        return self.repeated / max(self.sent, 1)


def _start_writer(publisher: Publisher, schedule: Schedule, reloads: int, ledger):
    """Publish ``reloads`` snapshots at evenly spaced trace indices."""
    marks = [
        float(schedule.due[(k + 1) * len(schedule) // (reloads + 1)])
        for k in range(reloads)
    ]
    start = time.perf_counter()

    def run() -> None:
        for mark in marks:
            wait = start + mark - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            publisher.publish()

    def traced() -> None:
        if ledger is None:
            run()
        else:
            with ledger.thread():
                run()

    thread = threading.Thread(target=traced, name="perfbench-publisher")
    thread.start()
    return thread
