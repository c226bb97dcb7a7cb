"""Experiment harness: run (dataset, method) cells and collect metrics.

One :func:`run_method` call reproduces one cell of Table II: generate
the dataset, split it, train the method via its registry recipe, and
evaluate Recall@20 / NDCG@20 on the test set.  Results carry wall-clock
time for the Fig. 9 efficiency analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .. import obs
from ..data import generate_preset, split_dataset
from ..data.split import Split
from ..eval import EvalResult, Evaluator
from .registry import ABLATIONS, EXTRAS, METHODS, TrainedMethod


@dataclass
class BenchSettings:
    """Scale and budget knobs shared by all benchmark runs.

    The defaults trade fidelity for CPU wall-clock: datasets are scaled
    to roughly a tenth of Table I and epochs are capped at 80 with early
    stopping.  EXPERIMENTS.md records the effect of this reduction.
    """

    scale: float = 0.1
    embed_dim: int = 32
    epochs: int = 80
    batch_size: int = 512
    data_seed: int = 1
    split_seed: int = 2
    train_seed: int = 7
    top_n: int = 20
    checkpoint_dir: Optional[str] = None
    """Snapshot training state under this directory (see
    :mod:`repro.ckpt`); ``None`` keeps checkpointing off."""
    checkpoint_every: int = 1
    """Epoch interval between snapshots when ``checkpoint_dir`` is set."""
    keep_last: int = 3
    """Rolling retention for snapshots (newest kept, plus the best)."""
    resume_from: Optional[str] = None
    """``"auto"`` or a checkpoint path/directory to resume from."""

    def train_overrides(self) -> Dict[str, object]:
        """Checkpoint/resume keywords to forward into a recipe's train
        config (empty at the defaults)."""
        overrides: Dict[str, object] = {}
        if self.checkpoint_dir is not None:
            overrides.update(
                checkpoint_dir=self.checkpoint_dir,
                checkpoint_every=self.checkpoint_every,
                keep_last=self.keep_last,
            )
        if self.resume_from is not None:
            overrides["resume_from"] = self.resume_from
        return overrides


@dataclass
class CellResult:
    """One (dataset, method) cell of a results table."""

    dataset: str
    method: str
    recall: float
    ndcg: float
    wall_time: float
    epochs_run: int
    per_user_recall: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))
    trained: Optional[TrainedMethod] = field(repr=False, default=None)


def prepare_split(dataset_name: str, settings: BenchSettings):
    """Generate a scaled preset dataset and split it 7:1:2."""
    dataset = generate_preset(
        dataset_name, scale=settings.scale, seed=settings.data_seed
    )
    split = split_dataset(dataset, seed=settings.split_seed)
    return dataset, split


def run_recipe(
    recipe: Callable,
    dataset,
    split: Split,
    method_name: str,
    settings: BenchSettings,
    keep_model: bool = False,
) -> CellResult:
    """Train one recipe and evaluate it on the test set."""
    tracer = obs.get_tracer()
    with tracer.span(
        "bench:cell", dataset=dataset.name, method=method_name
    ) as span:
        trained = recipe(
            dataset,
            split,
            settings.embed_dim,
            settings.train_seed,
            settings.epochs,
            settings.batch_size,
            **settings.train_overrides(),
        )
        evaluator = Evaluator(
            split.train, split.test,
            top_n=(settings.top_n,), metrics=("recall", "ndcg"),
        )
        with tracer.span("eval", stage="test"):
            result: EvalResult = evaluator.evaluate(
                trained.model, tracer=tracer
            )
        span.set_attributes(
            recall=result[f"recall@{settings.top_n}"],
            epochs_run=trained.epochs_run,
        )
    return CellResult(
        dataset=dataset.name,
        method=method_name,
        recall=result[f"recall@{settings.top_n}"],
        ndcg=result[f"ndcg@{settings.top_n}"],
        wall_time=trained.wall_time,
        epochs_run=trained.epochs_run,
        per_user_recall=result.per_user[f"recall@{settings.top_n}"],
        trained=trained if keep_model else None,
    )


def run_method(
    dataset_name: str,
    method_name: str,
    settings: Optional[BenchSettings] = None,
    keep_model: bool = False,
) -> CellResult:
    """Run one Table II cell end to end.

    Args:
        dataset_name: a Table I dataset name.
        method_name: a Table II method or Table III ablation name.
        settings: scale/budget knobs.
        keep_model: retain the trained model on the result (needed for
            the group analyses of Figs. 7-8).
    """
    settings = settings or BenchSettings()
    recipe = (
        METHODS.get(method_name)
        or ABLATIONS.get(method_name)
        or EXTRAS.get(method_name)
    )
    if recipe is None:
        raise KeyError(
            f"unknown method {method_name!r}; available: "
            f"{sorted(set(METHODS) | set(ABLATIONS) | set(EXTRAS))}"
        )
    dataset, split = prepare_split(dataset_name, settings)
    return run_recipe(recipe, dataset, split, method_name, settings, keep_model)


def run_method_seeds(
    dataset_name: str,
    method_name: str,
    seeds: Sequence[int],
    settings: Optional[BenchSettings] = None,
) -> CellResult:
    """Run one cell under several training seeds and average the metrics.

    Mirrors the paper's protocol (Section V.B): the data partition is
    fixed, parameter initialisation varies, and the mean is reported.
    Per-user recalls are averaged user-wise so significance tests remain
    valid on the averaged vector.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    settings = settings or BenchSettings()
    cells = []
    for seed in seeds:
        from dataclasses import replace

        cells.append(
            run_method(
                dataset_name, method_name,
                replace(settings, train_seed=seed),
            )
        )
    return CellResult(
        dataset=cells[0].dataset,
        method=method_name,
        recall=float(np.mean([c.recall for c in cells])),
        ndcg=float(np.mean([c.ndcg for c in cells])),
        wall_time=float(np.mean([c.wall_time for c in cells])),
        epochs_run=int(np.mean([c.epochs_run for c in cells])),
        per_user_recall=np.mean([c.per_user_recall for c in cells], axis=0),
    )


def run_table(
    dataset_names: Sequence[str],
    method_names: Sequence[str],
    settings: Optional[BenchSettings] = None,
) -> Dict[str, Dict[str, CellResult]]:
    """Run a grid of cells; returns ``results[dataset][method]``."""
    settings = settings or BenchSettings()
    results: Dict[str, Dict[str, CellResult]] = {}
    for dataset_name in dataset_names:
        dataset, split = prepare_split(dataset_name, settings)
        row: Dict[str, CellResult] = {}
        for method_name in method_names:
            recipe = (
                METHODS.get(method_name)
                or ABLATIONS.get(method_name)
                or EXTRAS.get(method_name)
            )
            if recipe is None:
                raise KeyError(f"unknown method {method_name!r}")
            row[method_name] = run_recipe(
                recipe, dataset, split, method_name, settings
            )
        results[dataset_name] = row
    return results
