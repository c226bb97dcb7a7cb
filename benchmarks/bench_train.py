"""Training at speed: fused kernels against their eager compositions.

Not a paper table — this bench tracks the repository's own training
performance trajectory.  It times the IMCAT loop (BPRMF backbone, K=8
intents, batch 256 — the regime where eager tape overhead dominates the
step) on its only runtime path, the fused kernels of
:mod:`repro.nn.fusion`, against the eager compositions they replace.
The eager side runs under :func:`tests.eager_oracle.eager_oracle`, the
same test-side substitution the differential suite uses, so no source
flag exists to select it.

Eager and fused fits alternate for ``REPEATS`` pairs, so slow drifts of
the machine hit both sides alike.  The floor holds the *median*
per-pair speedup to ``MIN_FUSED_SPEEDUP``; a single shot can land on
either side of it.  Correctness rides along: every fit, eager or fused,
must produce the same loss history bit for bit.

The recorded file carries its environment (cpu_count, numpy version,
git sha), the repeat count, and per point the median and quartiles.

Knobs: ``REPRO_BENCH_SCALE`` shrinks the benchmark dataset (the file is
only written at the default full scale so the recorded trajectory stays
comparable across runs).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from contextlib import nullcontext

import numpy as np

from repro.core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from repro.data import generate_preset, split_dataset
from repro.models import BPRMF
from tests.eager_oracle import eager_oracle

from .conftest import env_float, run_once

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "BENCH_train.json")

#: Floor on the median per-pair eager/fused speedup.
MIN_FUSED_SPEEDUP = 1.25
#: Alternating eager/fused pairs timed per run.
REPEATS = 5

DATASET_SCALE = 0.3
EPOCHS = 3
BATCH_SIZE = 256
EMBED_DIM = 64
NUM_INTENTS = 8


def _make_model(dataset, split):
    rng = np.random.default_rng(3)
    backbone = BPRMF(dataset.num_users, dataset.num_items, EMBED_DIM, rng)
    return IMCAT(
        backbone, dataset, split.train,
        IMCATConfig(num_intents=NUM_INTENTS, pretrain_epochs=1),
        rng=rng,
    )


def _fit(dataset, split, execution):
    model = _make_model(dataset, split)
    config = IMCATTrainConfig(
        epochs=EPOCHS, batch_size=BATCH_SIZE, eval_every=10 * EPOCHS,
        patience=10 * EPOCHS, seed=5,
    )
    with execution:
        start = time.perf_counter()
        result = IMCATTrainer(model, split, config).fit()
        seconds = time.perf_counter() - start
    return seconds / EPOCHS, [record["loss"] for record in result.history]


def _spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "samples": list(values)}


def _git_sha():
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True,
            check=True, cwd=os.path.dirname(__file__),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _run_suite(scale: float) -> dict:
    dataset = generate_preset("hetrec-del", scale=DATASET_SCALE * scale, seed=7)
    split = split_dataset(dataset, seed=8)
    eager_s, fused_s, histories = [], [], []
    for _ in range(REPEATS):
        for execution, times in (
            (eager_oracle(), eager_s), (nullcontext(), fused_s)
        ):
            seconds, losses = _fit(dataset, split, execution)
            times.append(seconds)
            histories.append(losses)
    speedups = [eager / fused for eager, fused in zip(eager_s, fused_s)]
    return {
        "results": {
            "imcat/eager": {"seconds_per_epoch": _spread(eager_s)},
            "imcat/fused": {
                "seconds_per_epoch": _spread(fused_s),
                "speedup": _spread(speedups),
            },
        },
        "losses": histories[0],
        "histories_identical": all(h == histories[0] for h in histories),
        "environment": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "git_sha": _git_sha(),
        },
        "settings": {
            "dataset": "hetrec-del",
            "dataset_scale": DATASET_SCALE * scale,
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
            "embed_dim": EMBED_DIM,
            "num_intents": NUM_INTENTS,
            "repeats": REPEATS,
        },
    }


def test_train_throughput(benchmark):
    scale = env_float("REPRO_BENCH_SCALE", 1.0)

    payload = run_once(benchmark, lambda: _run_suite(scale))
    results = payload["results"]
    print()
    for name, point in results.items():
        spread = point["seconds_per_epoch"]
        print(
            f"{name:12s} median {spread['median']:.3f} s/epoch "
            f"(q1 {spread['q1']:.3f}, q3 {spread['q3']:.3f})"
        )
    speedup = results["imcat/fused"]["speedup"]
    print(
        f"fused speedup: median {speedup['median']:.2f}x "
        f"(q1 {speedup['q1']:.2f}x, q3 {speedup['q3']:.2f}x) "
        f"over {REPEATS} alternating pairs"
    )

    # Correctness ride-along: fusion never changes the bits.
    assert payload["histories_identical"], (
        "fused loss trajectory diverged from the eager bits"
    )
    assert speedup["median"] >= MIN_FUSED_SPEEDUP, (
        f"median fused speedup {speedup['median']:.2f}x below "
        f"{MIN_FUSED_SPEEDUP}x"
    )

    if scale == 1.0:
        with open(RESULTS_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded: {RESULTS_PATH}")
