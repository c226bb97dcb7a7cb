"""The training loop every model runs through (Section V.D).

The paper trains IMCAT and every baseline under one protocol: Adam with
learning rate / weight decay ``1e-3``, batch size 1024, one negative per
positive, early stopping on validation Recall@20.  :func:`run_training`
is that protocol, written once; what differs per model is a
:class:`TrainStep` (batches, loss, step/epoch hooks, snapshot entries).
:class:`BPRStep` trains backbones and baselines (:func:`fit_bpr`);
IMCAT's step, with the pre-training phase and the cluster refresh
schedule, lives in :mod:`repro.core.trainer`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from .. import obs, testing
from ..ckpt import (
    CheckpointError,
    CheckpointManager,
    config_fingerprint,
    resolve_resume,
    rng_state,
    set_rng_state,
)
from ..data.sampling import BPRSampler
from ..data.split import Split
from ..eval.evaluator import Evaluator
from ..nn import Adam, CosineAnnealing, StepDecay, clip_grad_norm, detect_anomaly
from ..nn import Tensor, fusion
from .base import Recommender


@dataclass
class BaseTrainConfig:
    """Optimisation settings every training run shares (paper defaults).

    Counts below 1 are rejected at construction, before a run builds
    anything.
    """

    epochs: int = 100
    batch_size: int = 1024
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    eval_every: int = 5
    patience: int = 4
    top_n: int = 20
    seed: int = 0
    verbose: bool = False
    detect_anomaly: bool = False
    """Run training under :class:`repro.nn.detect_anomaly`: NaN/Inf on
    the tape raises at the creating op instead of poisoning the run."""
    checkpoint_dir: Optional[str] = None
    """Directory for :mod:`repro.ckpt` snapshots; ``None`` disables
    checkpointing entirely."""
    checkpoint_every: int = 1
    """Snapshot every N epochs, at the epoch boundary."""
    keep_last: int = 3
    """Rolling retention: newest snapshots kept (plus best-by-metric)."""
    resume_from: Optional[str] = None
    """``"auto"`` resumes from the newest valid snapshot under
    ``checkpoint_dir`` (fresh start when there is none); a path loads
    that checkpoint file or directory explicitly."""

    def __post_init__(self) -> None:
        for name in ("batch_size", "eval_every", "checkpoint_every",
                     "patience", "top_n", "keep_last"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )


@dataclass
class TrainConfig(BaseTrainConfig):
    """Settings for :func:`fit_bpr` (paper defaults, scaled-down epochs).

    ``lr_schedule`` selects an optional per-epoch schedule ("cosine" or
    "step"); ``clip_norm`` enables global gradient-norm clipping.  Both
    default to off, matching the paper's fixed-rate Adam.
    """

    lr_schedule: Optional[str] = None
    clip_norm: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lr_schedule not in (None, "cosine", "step"):
            raise ValueError(
                f"lr_schedule must be None, 'cosine', or 'step', "
                f"got {self.lr_schedule!r}"
            )


@dataclass
class TrainResult:
    """Outcome of a training run (phase timings and step counts are
    recorded into :func:`repro.obs.get_metrics`)."""

    best_metric: float
    best_epoch: int
    epochs_run: int
    wall_time: float
    history: List[dict] = field(default_factory=list)


class TrainStep:
    """The per-model part of :func:`run_training`.

    A subclass sets ``kind`` (the snapshot kind), ``label`` (verbose
    lines), ``fingerprint_parts`` (digested after the train config),
    ``span_attributes`` (of the ``train`` span) and ``clip_norm``, and
    implements

    - ``start(snapshot, rng, optimizer, tracer)``: build the
      per-run state, restored from ``snapshot`` when resuming (``None``
      on a fresh start);
    - ``batches()``: one epoch of batches, tuples of ``loss`` arguments
      whose first entry is the user-item triplet batch;
    - ``loss(*batch)``: the training loss of one batch;
    - ``state_dict()``: the kind's own snapshot entries.

    The hooks below are no-ops by default.
    """

    kind = ""
    clip_norm: Optional[float] = None

    def __init__(self, model: Any) -> None:
        self.model = model
        self.label = type(model).__name__

    def epoch_attributes(self) -> Dict[str, Any]:
        """Extra attributes of the ``epoch`` span."""
        return {}

    def epoch_start(self, epoch: int) -> None:
        """Runs before the ``epoch`` span opens."""

    def epoch_end(self, epoch: int) -> None:
        """Runs after the epoch's last step, before evaluation."""

    def after_step(self, step: int) -> None:
        """Runs after every optimizer step; ``step`` counts from 1."""


class BPRStep(TrainStep):
    """BPR on user-item triplets plus the model's auxiliary objective.

    :meth:`Recommender.extra_loss` is added to every batch loss, which
    is how SSL/KG baselines inject their auxiliary objectives;
    ``config.lr_schedule`` steps at every epoch end.
    """

    kind = "bpr"

    def __init__(self, model: Recommender, split: Split,
                 config: TrainConfig) -> None:
        super().__init__(model)
        self.config = config
        self.clip_norm = config.clip_norm
        self.fingerprint_parts = ({"kind": "bpr", "model": self.label},)
        self.span_attributes = {"kind": "bpr", "model": self.label}
        self.sampler = BPRSampler(split.train, seed=config.seed)
        self.scheduler = None

    def start(self, snapshot, rng, optimizer, tracer) -> None:
        self.rng = rng
        epochs = self.config.epochs
        if self.config.lr_schedule == "cosine":
            self.scheduler = CosineAnnealing(optimizer, total_epochs=epochs)
        elif self.config.lr_schedule == "step":
            self.scheduler = StepDecay(
                optimizer, step_size=max(epochs // 3, 1), gamma=0.5
            )
        if snapshot is not None:
            if self.scheduler is not None and snapshot["scheduler"] is not None:
                self.scheduler.load_state_dict(snapshot["scheduler"])
            self.sampler.load_state_dict(snapshot["sampler"])

    def batches(self) -> Iterator[tuple]:
        return ((batch,) for batch in self.sampler.epoch(self.config.batch_size))

    def loss(self, batch) -> Tensor:
        loss = self.model.bpr_loss(batch)
        extra = self.model.extra_loss(self.rng)
        return loss if extra is None else loss + extra

    def epoch_end(self, epoch: int) -> None:
        if self.scheduler is not None:
            self.scheduler.step()

    def state_dict(self) -> Dict[str, Any]:
        scheduler = self.scheduler
        return {
            "scheduler": None if scheduler is None else scheduler.state_dict(),
            "sampler": self.sampler.state_dict(),
        }


def run_training(
    step: TrainStep,
    split: Split,
    config: BaseTrainConfig,
    evaluator: Optional[Evaluator] = None,
    tracer: Optional[obs.Tracer] = None,
) -> TrainResult:
    """Train ``step.model`` on ``split.train``, early-stopping on
    ``split.valid``; the best validation state is restored on return.

    The run records a ``train`` → ``epoch`` → ``sampling`` /
    ``forward`` / ``backward`` / ``eval`` span tree on ``tracer``
    (default: the process-global one).  Into
    :func:`repro.obs.get_metrics` it records the same phases as
    ``trainer.{sampling,forward,backward,eval,checkpoint}_seconds``
    histograms (plus ``trainer.epoch_seconds``), the
    ``trainer.{steps,triplets,evals,checkpoints}`` counters and the
    ``trainer.loss`` / ``trainer.valid.*`` gauges.
    ``config.detect_anomaly`` wraps the run in
    :class:`repro.nn.detect_anomaly`.
    """
    model = step.model
    tracer = obs.resolve_tracer(tracer)
    evaluator = evaluator or Evaluator(
        split.train, split.valid, top_n=(config.top_n,), metrics=("recall",)
    )
    with detect_anomaly(config.detect_anomaly), tracer.span(
        "train", **step.span_attributes
    ) as train_span:
        rng = np.random.default_rng(config.seed)
        metric_key = f"recall@{config.top_n}"
        optimizer = Adam(model.parameters(), lr=config.learning_rate,
                         weight_decay=config.weight_decay)
        metrics = obs.get_metrics()
        manager = None if config.checkpoint_dir is None else CheckpointManager(
            config.checkpoint_dir, keep_last=config.keep_last, tracer=tracer
        )
        fingerprint = config_fingerprint(config, *step.fingerprint_parts)
        # The snapshot's "best" entry; its metric is -inf (None on disk)
        # until the first evaluation.
        best = {"metric": -np.inf, "epoch": -1, "state": None, "bad_evals": 0}
        history: List[dict] = []
        start = time.time()
        global_step = epochs_run = start_epoch = 0

        resumed = resolve_resume(config.resume_from, manager)
        if resumed is not None:
            if resumed.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    "checkpoint/config mismatch: the snapshot was written "
                    f"under fingerprint {resumed.get('fingerprint')!r} but "
                    f"this run has {fingerprint!r}; resume with the same "
                    "optimisation settings (the epoch budget may differ)"
                )
            model.load_state_dict(resumed["model"])
            if resumed.get("model_extra") is not None:
                model.set_extra_state(resumed["model_extra"])
            optimizer.load_state_dict(resumed["optimizer"])
            set_rng_state(rng, resumed["rng"])
            best = dict(resumed["best"])
            if best["metric"] is None:
                best["metric"] = -np.inf
            history = list(resumed["history"])
            global_step, epochs_run, start_epoch = (
                resumed["step"], resumed["epochs_run"], resumed["epoch"]
            )
        step.start(resumed, rng, optimizer, tracer)

        def snapshot(next_epoch: int) -> dict:
            """Full training state at an epoch boundary (bit-exact)."""
            metric = None if best["state"] is None else float(best["metric"])
            return {
                "version": 1,
                "kind": step.kind,
                "fingerprint": fingerprint,
                "epoch": next_epoch,
                "step": global_step,
                "epochs_run": epochs_run,
                "model": model.state_dict(),
                "model_extra": model.get_extra_state(),
                "optimizer": optimizer.state_dict(),
                "rng": rng_state(rng),
                **step.state_dict(),
                "best": dict(best, metric=metric),
                "history": history,
            }

        for epoch in range(start_epoch, config.epochs):
            epochs_run = epoch + 1
            step.epoch_start(epoch)
            stop_early = False
            with metrics.timed("trainer.epoch_seconds"), tracer.span(
                "epoch", index=epoch, **step.epoch_attributes()
            ) as epoch_span:
                epoch_loss = 0.0
                num_batches = 0
                model.train()
                model.refresh_epoch(epoch)
                batches = step.batches()
                while True:
                    with (metrics.timed("trainer.sampling_seconds"),
                          tracer.span("sampling")):
                        batch = next(batches, None)
                    if batch is None:
                        break
                    with (metrics.timed("trainer.forward_seconds"),
                          tracer.span("forward")):
                        loss = step.loss(*batch)
                    with (metrics.timed("trainer.backward_seconds"),
                          tracer.span("backward")):
                        optimizer.zero_grad()
                        loss.backward()
                        if step.clip_norm is not None:
                            clip_grad_norm(optimizer.parameters, step.clip_norm)
                        optimizer.step()
                    epoch_loss += loss.item()
                    num_batches += 1
                    global_step += 1
                    metrics.add("trainer.steps")
                    metrics.add("trainer.triplets", len(batch[0]))
                    testing.check(testing.TRAINER_STEP)
                    step.after_step(global_step)
                step.epoch_end(epoch)

                record = {"epoch": epoch, "loss": epoch_loss / max(num_batches, 1)}
                epoch_span.set_attributes(loss=record["loss"], steps=num_batches)
                metrics.gauge("trainer.loss").set(record["loss"])
                if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
                    model.eval()
                    with (metrics.timed("trainer.eval_seconds"),
                          tracer.span("eval") as eval_span):
                        scores = evaluator.evaluate(model, tracer=tracer)
                        value = record[metric_key] = scores[metric_key]
                        eval_span.set_attribute("metric", value)
                    metrics.add("trainer.evals")
                    metrics.gauge(f"trainer.valid.{metric_key}").set(value)
                    if config.verbose:
                        print(f"[{step.label}] epoch {epoch}: "
                              f"loss={record['loss']:.4f} {metric_key}={value:.4f}")
                    if value > best["metric"]:
                        best = {"metric": value, "epoch": epoch,
                                "state": model.state_dict(), "bad_evals": 0}
                    else:
                        best["bad_evals"] += 1
                        stop_early = best["bad_evals"] >= config.patience
                history.append(record)
                if not stop_early and manager is not None and (
                    (epoch + 1) % config.checkpoint_every == 0
                ):
                    with metrics.timed("trainer.checkpoint_seconds"):
                        manager.save(snapshot(next_epoch=epoch + 1),
                                     step=global_step, metric=record.get(metric_key))
                    metrics.add("trainer.checkpoints")
                fusion.record_metrics(metrics)
            if stop_early:
                break
            testing.check(testing.TRAINER_EPOCH)

        if best["state"] is not None:
            model.load_state_dict(best["state"])
        model.eval()
        result = TrainResult(
            best_metric=float(best["metric"]) if best["metric"] > -np.inf else 0.0,
            best_epoch=best["epoch"],
            epochs_run=epochs_run,
            wall_time=time.time() - start,
            history=history,
        )
        train_span.set_attributes(best_metric=result.best_metric, epochs_run=epochs_run)
    return result


def fit_bpr(
    model: Recommender,
    split: Split,
    config: Optional[TrainConfig] = None,
    evaluator: Optional[Evaluator] = None,
) -> TrainResult:
    """Train ``model`` on ``split.train`` with BPR + early stopping.

    A thin caller of :func:`run_training` over a :class:`BPRStep`; the
    best validation state is restored before returning.
    """
    config = config or TrainConfig()
    return run_training(BPRStep(model, split, config), split, config, evaluator)
