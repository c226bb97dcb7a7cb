"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-limcat --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` trains once untraced and once with the layer wrappers
installed, serves with them, and prints every per-layer metric.  The
last line of standard output is the JSON result; the line before it is
a report with the environment, the quartiles of the sampled metrics and
the per-rate latencies.  The exit code is non-zero when a correctness
check failed or the program is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without leaving ``root``."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def quartiles(values: List[float]) -> Dict[str, float]:
    values = [float(v) for v in values]
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Pass:
    """One untraced or traced pass over a workload's measured phases.

    :meth:`learn` trains and evaluates; :meth:`serve` then serves the
    trained model.  A traced run calls ``learn`` untraced and traced back
    to back, so the loss histories it compares differ only by the
    wrappers, and serves once, traced.
    """

    def __init__(self, W, workload, inputs, seed: int, seconds: float,
                 scratch: str, checks, ledger=None, memory=None) -> None:
        self.W = W
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.seconds = seconds
        self.checks = checks
        self.ledger = ledger
        self.memory = memory
        self.ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=scratch)
        self.result: Dict[str, Any] = {}

    def learn(self) -> "Pass":
        W, ledger = self.W, self.ledger
        traced = ledger.thread() if ledger is not None else nullcontext()
        start = time.perf_counter()
        with traced:
            model, losses, train_s = W.train(
                self.workload, self.inputs, self.ckpt_dir, self.checks
            )
            if self.memory is not None:
                self.memory.stop()
            sampler = W.EvalSampler(model, self.inputs, self.checks, ledger)
            sampler.sample(exact=6, approx=2)
        self.result.update(
            model=model, losses=losses, train_s=train_s, sampler=sampler,
            work_wall=time.perf_counter() - start,
            overlap=W.check_retrieval(model, self.inputs, sampler, self.checks),
        )
        return self

    def serve(self) -> Dict[str, Any]:
        from repro.ckpt import CheckpointManager

        W, workload, model = self.W, self.workload, self.result["model"]
        traffic = W.Traffic(workload, self.inputs, self.seed, self.seconds,
                            self.checks, self.ledger, self.result["sampler"].sample)
        # Long-lived servers freeze their start-up heap before they fork:
        # a full collection over the ~70k objects training leaves behind
        # costs ~25 ms and would otherwise land at random in the windows.
        gc.collect()
        gc.freeze()
        pool, publisher, reload_window, pool_starts = None, None, None, []
        try:
            target = W.build_target(workload, self.inputs, model, self.ckpt_dir)
            rungs = traffic.ladder(target)
            if workload.pool_rate:
                # Pool start-up is set-up work: repeat it like the rest.
                for _ in range(W.SETUP_REPEATS):
                    if pool is not None:
                        pool.close()
                    begin = time.perf_counter()
                    pool = W.build_target(workload, self.inputs, model,
                                          self.ckpt_dir, process=True)
                    pool_starts.append(time.perf_counter() - begin)
                latest = CheckpointManager(self.ckpt_dir).load_latest()
                pool.references[f"ckpt-step-{latest.step}"] = (
                    W.reference_from_state(self.inputs, latest.state)
                )
                publisher = W.Publisher(pool.front, self.ckpt_dir, latest.state,
                                        latest.step)
                reload_window = traffic.reloads(pool, publisher)
        finally:
            if pool is not None:
                pool.close()
            gc.unfreeze()
            shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        if publisher is not None:
            for outcomes in publisher.outcomes:
                self.checks.check(
                    all(o == "reloaded" for o in outcomes),
                    f"publish did not end RELOADED: {outcomes}",
                )
        self.result.update(
            target=target, pool=pool, publisher=publisher,
            served={"rungs": rungs, "reload_window": reload_window,
                    "repeat_frac": traffic.repeat_frac,
                    "service_ms": traffic.service_ms},
            restarts=sum(w.restarts for w in pool.front.workers) if pool else 0,
            pool_start_s=statistics.median(pool_starts) if pool_starts else 0.0,
        )
        return self.result


def end_to_end(W, workload, setup_s: float, result: Dict[str, Any], checks):
    """End-to-end metric values, plus the samples behind the medians."""
    rungs = {rung.rate: rung for rung in result["served"]["rungs"]}
    low, high = rungs[workload.low], rungs[workload.high]
    windows = list(rungs.values())
    if result["served"]["reload_window"] is not None:
        windows.append(result["served"]["reload_window"])
    answered = sum(r.requests for r in windows)
    live = sum(r.live for r in windows)
    sampler = result["sampler"]
    metrics = {
        "setup_s": setup_s + result["pool_start_s"],
        "peak_rss_mb": W.peak_rss_mb(),
        "ok_frac": 1.0 - checks.failed / max(checks.attempted, 1),
        "train_epoch_s": result["train_s"] / workload.epochs,
        "eval_s": statistics.median(sampler.exact_times),
        "eval_approx_s": statistics.median(sampler.approx_times),
        "recall_at_20": sampler.recall,
        "approx_overlap_at_20": result["overlap"],
        "serve_ms": statistics.median(result["served"]["service_ms"]),
        "live_frac": live / max(answered, 1),
    }
    detail = {
        "eval_s": quartiles(sampler.exact_times),
        "eval_approx_s": quartiles(sampler.approx_times),
        "serve_ms": quartiles(result["served"]["service_ms"]),
        "p50_ms.low": low.p50_ms,
        "p99_ms.low": low.p99_ms,
        "p50_ms.high": high.p50_ms,
        "p99_ms.high": high.p99_ms,
        "max_rate_rps": W.max_rate(result["served"]["rungs"], workload.p99_limit_ms),
        "latency_ms.low": quartiles(low.latency_ms),
        "latency_ms.high": quartiles(high.latency_ms),
        "rungs": [
            {"rate": r.rate, "requests": r.requests, "p50_ms": r.p50_ms,
             "p99_ms": r.p99_ms, "passed": r.passed}
            for r in result["served"]["rungs"]
        ],
    }
    return metrics, detail


def per_layer(W, workload, ledger, memory, result, untraced_work: float):
    """Per-layer metric values from the traced pass's ledger.

    Tracing overhead compares the train-and-evaluate phase of the traced
    and untraced passes: that work is fixed, whereas the serving phase
    lasts as long as its schedule whatever the tracing costs."""
    busy, self_time, calls = ledger.busy, ledger.self_time, ledger.calls
    counters = ledger.counters

    def b(name):
        return busy.get(name, 0.0)

    def s(name):
        return self_time.get(name, 0.0)

    def c(name):
        return float(calls.get(name, 0))

    rungs = list(result["served"]["rungs"])
    reload_window = result["served"]["reload_window"]
    if reload_window is not None:
        rungs.append(reload_window)
    results = [result for rung in rungs for result in rung.results]
    lateness = [x for result in results for x in result.lateness]
    backlog = [x for result in results for x in result.backlog]
    serve_props = counters.get("models.lightgcn.propagate.serving", 0.0)
    rtt_calls = c("serve.proc.rtt")
    rtt_ms = 1000.0 * b("serve.proc.rtt") / rtt_calls if rtt_calls else 0.0
    worker_ms = (
        1000.0 * counters.get("serve.proc.worker_s", 0.0) / rtt_calls
        if rtt_calls else 0.0
    )
    flushes, batched = _batch_counters(result["target"])
    publisher = result["publisher"]
    outcomes = [o for group in (publisher.outcomes if publisher else []) for o in group]
    wall_ok, wall_error = ledger.check_sum()
    metrics = {
        "data.sampling.busy_s": b("data.sampling"),
        "data.sampling.calls": c("data.sampling"),
        "core.imcat.forward.busy_s": b("core.imcat.forward"),
        "core.imcat.forward.calls": c("core.imcat.forward"),
        "nn.backward.busy_s": b("nn.backward"),
        "nn.optim.busy_s": b("nn.optim"),
        "core.clustering.busy_s": b("core.clustering"),
        "core.clustering.calls": c("core.clustering"),
        "eval.validation.busy_s": b("eval.validation"),
        "ckpt.save.busy_s": b("ckpt.save"),
        "ckpt.save.calls": c("ckpt.save"),
        "ckpt.save.bytes": counters.get("ckpt.save.bytes", 0.0),
        "nn.step_alloc_peak_mb": memory.peak_bytes / 2**20,
        "models.lightgcn.propagate.busy_s": b("models.lightgcn.propagate"),
        "models.lightgcn.propagate.calls": c("models.lightgcn.propagate"),
        # In-process requests only: the pool window scores in its workers.
        "models.lightgcn.propagate.per_request": serve_props / max(
            sum(rung.requests for rung in result["served"]["rungs"]), 1
        ),
        "eval.score.busy_s": b("eval.score"),
        "retrieval.build_s": b("retrieval.build"),
        "retrieval.all_scores.busy_s": b("retrieval.all_scores"),
        "retrieval.scored_frac": counters.get("retrieval.scored", 0.0)
        / max(counters.get("retrieval.slots", 0.0), 1.0),
        "serve.shard.frontdoor.self_s": s("serve.shard.frontdoor"),
        "serve.shard.route.busy_s": b("serve.shard.route"),
        "serve.service.self_s": s("serve.service"),
        "serve.batching.wait_self_s": s("serve.batching.wait"),
        "serve.batching.batch_size_mean": batched / flushes if flushes else 0.0,
        "serve.batching.flushes": float(flushes),
        "serve.score.busy_s": b("serve.score"),
        "serve.proc.rtt_ms": rtt_ms,
        "serve.proc.worker_ms": worker_ms,
        "serve.transport.overhead_ms": rtt_ms - worker_ms,
        "serve.transport.bytes_per_request": counters.get("serve.transport.bytes", 0.0)
        / max(rtt_calls, 1.0),
        "serve.score_isolated_us": _isolated_score_us(result),
        "serve.provider.reload.busy_s": b("serve.provider.reload"),
        "serve.provider.reload.calls": c("serve.provider.reload"),
        "serve.provider.reload.ok_frac": (
            sum(o == "reloaded" for o in outcomes) / len(outcomes) if outcomes else 0.0
        ),
        "serve.provider.reload_window.p99_ms": (
            reload_window.p99_ms if reload_window is not None else 0.0
        ),
        "serve.supervisor.restarts": float(result["restarts"]),
        "loadgen.idle_s": b("loadgen.idle"),
        "loadgen.lateness_p99_ms": 1000.0 * W.quantile(lateness, 0.99),
        "loadgen.backlog_max": float(max(backlog)) if backlog else 0.0,
        "traffic.repeat_frac": result["served"]["repeat_frac"],
        "unattributed_s": s(ledger.ROOT),
        "trace.overhead_frac": (result["work_wall"] - untraced_work) / untraced_work,
        "trace.ledger_error_frac": wall_error,
    }
    return metrics, wall_ok


def _batch_counters(target):
    flushes = batched = 0
    for worker in getattr(target.front, "workers", []):
        counters = getattr(worker, "counters", None)
        if counters is None:
            continue
        snapshot = counters.as_dict()
        flushes += int(snapshot.get("serve.batch.flushes", 0))
        batched += int(snapshot.get("serve.batch.requests", 0))
    return flushes, batched


def _isolated_score_us(result) -> float:
    """The served model's own ``recommend``, in-process, over a sample
    of the low-rate trace (median microseconds)."""
    target = result["target"]
    rung = result["served"]["rungs"][0]
    reference = next(iter(target.references.values()))
    times = []
    for user in rung.results[0].schedule.users[:200]:
        exclude = set(target.train_items[int(user)].tolist())
        start = time.perf_counter()
        reference.recommend(int(user), top_n=20, exclude=exclude)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program (src/repro) is missing under {ROOT}",
              file=sys.stderr)
        return 2
    # One BLAS thread per client: with the default pool, two clients'
    # matmuls oversubscribe the cores and scoring time swings with it.
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import numpy

    from repro.nn import is_grad_enabled

    from perfbench import layers
    from perfbench import workloads as W
    from perfbench.ledger import Ledger

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = W.WORKLOADS[args.workload]
    seed = args.seed
    checks = W.Checks()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_times = []
        for _ in range(W.SETUP_REPEATS):
            begin = time.perf_counter()
            inputs = W.make_inputs()
            W.build_model(inputs)
            setup_times.append(time.perf_counter() - begin)
        setup_s = statistics.median(setup_times)

        plain = Pass(W, workload, inputs, seed, args.seconds, scratch,
                     checks).learn()
        if args.trace:
            ledger = Ledger()
            memory = layers.StepMemory(last_epoch=workload.epochs - 1)
            layers.install(ledger, memory)
            try:
                traced = Pass(W, workload, inputs, seed, args.seconds, scratch,
                              checks, ledger, memory).learn()
                checks.check(
                    traced.result["losses"] == plain.result["losses"],
                    "traced loss history differs from the untraced one",
                )
                result = traced.serve()
            finally:
                ledger.restore()
                memory.stop()
            metrics, ledger_ok = per_layer(W, workload, ledger, memory, result,
                                           plain.result["work_wall"])
            checks.check(ledger_ok, "ledger rows do not sum to the traced wall time")
            detail = {"ledger_self_s": ledger.rows()}
        else:
            metrics, detail = end_to_end(W, workload, setup_s, plain.serve(), checks)
        detail["grad_enabled_after_serving"] = is_grad_enabled()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = _declared_units(args.trace)
    missing = sorted(set(units) ^ set(metrics))
    checks.check(not missing, f"emitted and declared metrics differ: {missing}")
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "cpu_count": os.cpu_count(),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "git_sha": git_sha(ROOT),
            "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
        },
        "repeats": {"setup": W.SETUP_REPEATS},
        "quartiles": {"setup_s": quartiles(setup_times)},
        "detail": detail,
        "failures": checks.reasons,
    }
    print(json.dumps(report, sort_keys=True))
    ok = checks.failed == 0
    result = {
        "correct": ok,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            # An infinite p99 (a window with >1% missed answers) is
            # reported as 1e9 ms so the line stays strict JSON.
            name: {"value": float(value) if math.isfinite(value) else 1e9,
                   "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if ok else 1


def _declared_units(trace: int) -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


if __name__ == "__main__":
    sys.exit(main())
