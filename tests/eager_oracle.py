"""The eager compositions behind the fused kernels, as a test oracle.

The fused kernels of :mod:`repro.nn.fusion` are the only runtime path.
Each entry point returns ``None`` for inputs it cannot fuse bit-exactly,
and its caller then runs the eager composition.  :func:`eager_oracle`
substitutes every entry point with that ineligible ``None`` return, so
the same caller code runs eagerly end to end.  The alignment loss has
no eager fallback in the library for the InfoNCE objective; the
substitution swaps in :func:`per_intent_info_nce_loss`, the per-intent
reference loop below.

Used by the differential suite (``tests/nn/test_fusion_diff.py``) to
prove fused ≡ eager bitwise, and by ``benchmarks/bench_train.py`` to
time the eager side.  Not thread-safe: it patches module attributes.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator, Optional, Sequence
from unittest import mock

import numpy as np

from repro.core.alignment import IntentAlignment
from repro.nn import Tensor, fusion
from repro.nn import functional as F

#: Kernel entry points with an ineligible ``None`` return.
KERNEL_ENTRY_POINTS = ("contrastive_info_nce", "dot_bpr", "elementwise_bpr")


def _ineligible(*args, **kwargs) -> None:
    return None


def per_intent_info_nce_loss(
    self: IntentAlignment,
    batch_size: int,
    user_aggregation: Tensor,
    item_embeddings: Tensor,
    tag_aggregation_all: Tensor,
    tag_counts: np.ndarray,
    weights: np.ndarray,
    positive_masks: Optional[Sequence[Optional[np.ndarray]]],
) -> Tensor:
    """Reference for ``IntentAlignment._info_nce_loss``: one Linear call
    per intent and projection layer, and a bidirectional InfoNCE per
    intent (Eq. 11: u2it uses the user view as query, it2u the
    item-tag view; the ISA mask transposes accordingly)."""
    tau = self.config.tau
    total = None
    for k in range(self.config.num_intents):
        u_proj, z_proj = self.intent_projections(
            k,
            batch_size,
            user_aggregation,
            item_embeddings,
            tag_aggregation_all,
            tag_counts,
        )
        mask = positive_masks[k] if positive_masks is not None else None
        row_w = weights[:, k]
        u2it = F.info_nce(
            u_proj, z_proj, tau, row_weights=row_w, positive_mask=mask
        )
        it2u = F.info_nce(
            z_proj,
            u_proj,
            tau,
            row_weights=row_w,
            positive_mask=mask.T if mask is not None else None,
        )
        term = u2it + it2u
        total = term if total is None else total + term
    return total


@contextmanager
def eager_oracle() -> Iterator[None]:
    """Run every fused call site through its eager composition."""
    with ExitStack() as stack:
        for name in KERNEL_ENTRY_POINTS:
            stack.enter_context(mock.patch.object(fusion, name, _ineligible))
        stack.enter_context(
            mock.patch.object(
                IntentAlignment, "_info_nce_loss", per_intent_info_nce_loss
            )
        )
        yield
