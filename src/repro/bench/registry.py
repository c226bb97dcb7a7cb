"""Method registry: build-and-train recipes for every method in Table II.

Each entry maps a method name to a factory that, given a dataset split
and seed, constructs, trains, and returns the model together with its
training wall time.  Ablation variants (Table III) are registered with
``N-IMCAT w/o ...`` / ``L-IMCAT w/o ...`` names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..core import IMCAT, IMCATConfig, IMCATTrainConfig, IMCATTrainer
from ..data.dataset import TagRecDataset
from ..data.split import Split
from ..models import BPRMF, LightGCN, NeuMF, TrainConfig, fit_bpr
from ..models import baselines as B


@dataclass
class TrainedMethod:
    """A trained model plus bookkeeping for the efficiency analysis."""

    name: str
    model: object
    wall_time: float
    epochs_run: int


#: Per-method epoch budgets at bench scale (the shared protocol trains
#: all methods to convergence with early stopping; these are ceilings).
DEFAULT_EPOCHS = 80


def _train_interactions(split: Split):
    return (split.train.user_ids, split.train.item_ids)


def _recipe(builder: Callable, imcat: Optional[IMCATConfig] = None) -> Callable:
    """Wrap a model builder into a training recipe.

    The built model trains through :func:`~repro.models.fit_bpr`; with
    ``imcat`` set it is instead the backbone of an :class:`IMCAT`
    wrapper trained by :class:`~repro.core.IMCATTrainer`.  Extra keyword
    arguments (e.g. ``checkpoint_dir`` / ``resume_from``) are forwarded
    into the train config.
    """

    def recipe(
        dataset: TagRecDataset,
        split: Split,
        embed_dim: int,
        seed: int,
        epochs: int,
        batch_size: int,
        **train_overrides,
    ) -> TrainedMethod:
        rng = np.random.default_rng(seed)
        model = builder(dataset, split, embed_dim, rng)
        settings = dict(epochs=epochs, batch_size=batch_size, seed=seed,
                        eval_every=5, patience=4, **train_overrides)
        if imcat is not None:
            model = IMCAT(model, dataset, split.train, imcat, rng=rng)
        start = time.time()
        result = (
            fit_bpr(model, split, TrainConfig(**settings)) if imcat is None
            else IMCATTrainer(model, split, IMCATTrainConfig(**settings)).fit()
        )
        return TrainedMethod(
            name=builder.__name__ if imcat is None else "imcat",
            model=model,
            wall_time=time.time() - start,
            epochs_run=result.epochs_run,
        )

    return recipe


def _imcat(builder: Callable, config: Optional[IMCATConfig] = None) -> Callable:
    """The IMCAT recipe over backbone ``builder`` (default config)."""
    return _recipe(builder, config or IMCATConfig())


# ---------------------------------------------------------------------------
# backbone builders
# ---------------------------------------------------------------------------

def _bprmf(dataset, split, embed_dim, rng):
    return BPRMF(dataset.num_users, dataset.num_items, embed_dim, rng)


def _neumf(dataset, split, embed_dim, rng):
    return NeuMF(dataset.num_users, dataset.num_items, embed_dim, rng=rng)


def _lightgcn(dataset, split, embed_dim, rng):
    return LightGCN(
        dataset.num_users, dataset.num_items, _train_interactions(split),
        embed_dim, rng=rng,
    )


def _cfa(dataset, split, embed_dim, rng):
    return B.CFA(split.train, embed_dim, rng)


def _dspr(dataset, split, embed_dim, rng):
    return B.DSPR(split.train, embed_dim, rng)


def _tgcn(dataset, split, embed_dim, rng):
    return B.TGCN(dataset, _train_interactions(split), embed_dim, rng=rng)


def _cke(dataset, split, embed_dim, rng):
    return B.CKE(dataset, embed_dim, rng=rng)


def _ripplenet(dataset, split, embed_dim, rng):
    return B.RippleNet(dataset, _train_interactions(split), embed_dim, rng=rng)


def _kgat(dataset, split, embed_dim, rng):
    return B.KGAT(dataset, _train_interactions(split), embed_dim, rng=rng)


def _kgin(dataset, split, embed_dim, rng):
    return B.KGIN(dataset, _train_interactions(split), embed_dim, rng=rng)


def _sgl(dataset, split, embed_dim, rng):
    return B.SGL(
        dataset.num_users, dataset.num_items, _train_interactions(split),
        embed_dim, rng=rng,
    )


def _kgcl(dataset, split, embed_dim, rng):
    return B.KGCL(dataset, _train_interactions(split), embed_dim, rng=rng)


#: Table II rows, in paper order.
METHODS: Dict[str, Callable] = {
    "BPRMF": _recipe(_bprmf),
    "NeuMF": _recipe(_neumf),
    "LightGCN": _recipe(_lightgcn),
    "CFA": _recipe(_cfa),
    "DSPR": _recipe(_dspr),
    "TGCN": _recipe(_tgcn),
    "CKE": _recipe(_cke),
    "RippleNet": _recipe(_ripplenet),
    "KGAT": _recipe(_kgat),
    "KGIN": _recipe(_kgin),
    "SGL": _recipe(_sgl),
    "KGCL": _recipe(_kgcl),
    "B-IMCAT": _imcat(_bprmf),
    "N-IMCAT": _imcat(_neumf),
    "L-IMCAT": _imcat(_lightgcn),
}

def _dgcf(dataset, split, embed_dim, rng):
    return B.DGCF(
        dataset.num_users, dataset.num_items, _train_interactions(split),
        embed_dim, rng=rng,
    )


def _fm(dataset, split, embed_dim, rng):
    return B.FM(dataset, embed_dim, rng=rng)


#: Extra baselines beyond the paper's Table II roster: DGCF (the
#: intent-disentanglement model IRM follows, ref [10]) and FM (the
#: classic feature-based route, ref [3]).
EXTRAS: Dict[str, Callable] = {
    "DGCF": _recipe(_dgcf),
    "FM": _recipe(_fm),
}

#: Every plain (non-IMCAT) model, name -> builder(dataset, split,
#: embed_dim, rng).  Used by the persistence round-trip tests and any
#: caller that needs an untrained instance outside the training recipes.
MODEL_BUILDERS: Dict[str, Callable] = {
    "BPRMF": _bprmf,
    "NeuMF": _neumf,
    "LightGCN": _lightgcn,
    "CFA": _cfa,
    "DSPR": _dspr,
    "TGCN": _tgcn,
    "CKE": _cke,
    "RippleNet": _ripplenet,
    "KGAT": _kgat,
    "KGIN": _kgin,
    "SGL": _sgl,
    "KGCL": _kgcl,
    "DGCF": _dgcf,
    "FM": _fm,
}

#: Table III ablation variants.
ABLATIONS: Dict[str, Callable] = {}
for _prefix, _builder in (("N", _neumf), ("L", _lightgcn)):
    ABLATIONS[f"{_prefix}-IMCAT"] = _imcat(_builder)
    ABLATIONS[f"{_prefix}-IMCAT w/o UIT"] = _imcat(
        _builder, IMCATConfig().without_uit()
    )
    ABLATIONS[f"{_prefix}-IMCAT w/o UT"] = _imcat(
        _builder, IMCATConfig().without_ut()
    )
    ABLATIONS[f"{_prefix}-IMCAT w/o UI"] = _imcat(
        _builder, IMCATConfig().without_ui()
    )
    ABLATIONS[f"{_prefix}-IMCAT w/o NLT"] = _imcat(
        _builder, IMCATConfig().without_nlt()
    )


def build_imcat_recipe(
    backbone: str, config: IMCATConfig
) -> Callable:
    """Custom IMCAT recipe for sweeps (Fig. 5 / Fig. 6).

    Args:
        backbone: "bprmf", "neumf", or "lightgcn".
        config: the IMCAT configuration to train with.
    """
    builders = {"bprmf": _bprmf, "neumf": _neumf, "lightgcn": _lightgcn}
    key = backbone.lower()
    if key not in builders:
        raise KeyError(f"unknown backbone {backbone!r}; choose from {sorted(builders)}")
    return _imcat(builders[key], config)
