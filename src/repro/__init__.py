"""Reproduction of IMCAT — Intent-aware Multi-source Contrastive
Alignment for Tag-enhanced Recommendation (Wu et al., ICDE 2023).

Subpackages:

- :mod:`repro.nn` — NumPy autograd substrate (Tensor, layers, optim);
- :mod:`repro.data` — datasets, synthetic generators, splits, sampling;
- :mod:`repro.models` — backbones (BPRMF/NeuMF/LightGCN) and baselines;
- :mod:`repro.core` — the IMCAT method (IRM + IMCA + ISA + trainer);
- :mod:`repro.eval` — ranking metrics, evaluator, group analyses;
- :mod:`repro.perf` — timers/counters instrumentation for perf reports;
- :mod:`repro.obs` — unified observability (hierarchical trace spans,
  metrics registry with Prometheus/JSONL export, sampling profiler);
- :mod:`repro.ckpt` — fault-tolerant checkpoint/resume (atomic rolling
  snapshots of the full training state, bit-exact continuation);
- :mod:`repro.testing` — fault-injection harness (crash points, I/O
  fault proxies, latency injection) exercising the checkpoint and
  serving subsystems;
- :mod:`repro.serve` — resilient online serving (deadlines, circuit
  breaker, degradation ladder, validated hot reload);
- :mod:`repro.bench` — the experiment harness regenerating the paper's
  tables and figures.

Quick start::

    from repro.data import generate_preset, split_dataset
    from repro.models import LightGCN
    from repro.core import IMCAT, IMCATConfig, IMCATTrainer

    dataset = generate_preset("hetrec-del", scale=0.1, seed=0)
    split = split_dataset(dataset, seed=0)
    backbone = LightGCN(dataset.num_users, dataset.num_items,
                        (split.train.user_ids, split.train.item_ids))
    model = IMCAT(backbone, dataset, split.train, IMCATConfig(num_intents=4))
    IMCATTrainer(model, split).fit()
"""

__version__ = "1.0.0"

from . import (  # noqa: F401
    bench,
    ckpt,
    core,
    data,
    eval,
    models,
    nn,
    obs,
    perf,
    serve,
    testing,
)
from .io import load_model, save_model

__all__ = [
    "bench", "ckpt", "core", "data", "eval", "load_model", "models",
    "nn", "obs", "perf", "save_model", "serve", "testing",
    "__version__",
]
