"""Which public functions the traced run wraps, and under which names.

Layer names are the per-layer metric names of ``BENCHMARK.json`` minus
their ``.busy_s`` / ``.self_s`` / ``.calls`` suffix.  Some calls are
named by their caller: ``Evaluator.evaluate`` inside ``IMCATTrainer.fit``
is validation, outside it an exact or approximate pass; model scoring
inside an evaluation is ``eval.score`` and elsewhere ``serve.score``.
"""

from __future__ import annotations

import os
import pickle
import tracemalloc

from repro.ckpt import CheckpointManager
from repro.core import IMCAT, IMCATTrainer
from repro.data.sampling import BPRSampler, IndexCycler, TripletCycler
from repro.eval import Evaluator
from repro.models import LightGCN
from repro.nn import Adam, Tensor
from repro.retrieval import ApproximateScorer
from repro.serve import MicroBatcher, RecommendationService, ShardedService
from repro.serve import proc
from repro.serve.shard import ShardMap
from repro.serve.transport import HEADER

from .ledger import Ledger

EVAL_SPANS = ("eval.validation", "eval.exact", "eval.approx")


class StepMemory:
    """tracemalloc peak per training step, over the final epoch only.

    Allocation tracing slows every allocation, so it is switched on for
    the last epoch (clustering active, the steady state) rather than the
    whole fit; a step runs from ``training_loss`` to ``Adam.step``.
    """

    def __init__(self, last_epoch: int) -> None:
        self.last_epoch = last_epoch
        self.peak_bytes = 0
        self._base = 0

    def epoch_started(self, epoch: int) -> None:
        if epoch == self.last_epoch and not tracemalloc.is_tracing():
            tracemalloc.start()

    def step_started(self) -> None:
        if tracemalloc.is_tracing():
            self._base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

    def step_finished(self) -> None:
        if tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1] - self._base
            self.peak_bytes = max(self.peak_bytes, peak)

    def stop(self) -> None:
        if tracemalloc.is_tracing():
            tracemalloc.stop()


def _frame_bytes(ledger: Ledger, message) -> None:
    if ledger.in_span("serve.proc.rtt"):
        size = len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        ledger.count("serve.transport.bytes", size + HEADER.size)


def install(ledger: Ledger, memory: StepMemory) -> None:
    """Wrap every traced layer; undo with ``ledger.restore()``."""
    wrap = ledger.wrap

    wrap(IMCATTrainer, "fit", "train.fit")
    ledger.wrap_iterator(BPRSampler, "epoch", "data.sampling")
    wrap(TripletCycler, "__next__", "data.sampling")
    wrap(IndexCycler, "__next__", "data.sampling")
    wrap(IMCAT, "refresh_epoch", "core.imcat.refresh_epoch",
         before=lambda args, kwargs: memory.epoch_started(args[1]))
    wrap(IMCAT, "training_loss", "core.imcat.forward",
         before=lambda args, kwargs: memory.step_started())
    wrap(Tensor, "backward", "nn.backward")
    wrap(Adam, "zero_grad", "nn.optim")
    wrap(Adam, "step", "nn.optim",
         after=lambda result, args, kwargs: memory.step_finished())
    wrap(IMCAT, "refresh_clusters", "core.clustering")
    wrap(IMCAT, "activate_clustering", "core.clustering")
    wrap(LightGCN, "propagate", "models.lightgcn.propagate",
         after=lambda result, args, kwargs: ledger.in_span("serve.score")
         and ledger.count("models.lightgcn.propagate.serving"))
    wrap(CheckpointManager, "save", "ckpt.save",
         after=lambda path, args, kwargs: ledger.count(
             "ckpt.save.bytes", os.path.getsize(path)))

    def eval_name(args, kwargs):
        if ledger.in_span("train.fit"):
            return "eval.validation"
        return "eval.approx" if kwargs.get("approximate") else "eval.exact"

    def score_name(args, kwargs):
        return (
            "eval.score"
            if any(ledger.in_span(name) for name in EVAL_SPANS)
            else "serve.score"
        )

    wrap(Evaluator, "evaluate", eval_name)
    wrap(IMCAT, "all_scores", score_name)
    wrap(IMCAT, "recommend", "serve.score")

    def scored(result, args, kwargs):
        ledger.count("retrieval.scored", float((result > -float("inf")).sum()))
        ledger.count("retrieval.slots", float(result.size))

    wrap(ApproximateScorer, "all_scores", "retrieval.all_scores", after=scored)

    wrap(ShardedService, "recommend", "serve.shard.frontdoor")
    wrap(ShardMap, "route", "serve.shard.route")
    wrap(RecommendationService, "recommend", "serve.service")
    wrap(MicroBatcher, "recommend", "serve.batching.wait")

    wrap(proc.ProcWorker, "recommend", "serve.proc.rtt",
         after=lambda response, args, kwargs: ledger.count(
             "serve.proc.worker_s", response.latency))
    wrap(proc, "send_frame", "serve.transport.send",
         after=lambda result, args, kwargs: _frame_bytes(ledger, args[1]))
    wrap(proc, "recv_frame", "serve.transport.recv",
         after=lambda message, args, kwargs: _frame_bytes(ledger, message))
    wrap(proc.ProcessPool, "poll_reload", "serve.provider.reload")
