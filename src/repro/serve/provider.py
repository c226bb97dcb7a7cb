"""Model providers: where the serving layer gets its live model from.

:class:`StaticModelProvider` pins one in-memory model (tests, demos,
embedded use).  :class:`CheckpointModelProvider` watches a
:mod:`repro.ckpt` checkpoint directory and hot-reloads newer snapshots
without a restart, with a promotion gate a candidate must clear before
it replaces the live model:

1. **checksum** — the payload bytes must match the SHA-256 the manifest
   recorded at save time (a torn or bit-rotted candidate is refused);
2. **config fingerprint** — the snapshot's optimisation fingerprint
   must match the one pinned by the first successful load, so a
   checkpoint from a differently-configured run cannot silently swap
   into a serving process expecting another architecture;
3. **finite parameters** — every float parameter must be finite, checked
   before the model or its routing index is built from them;
4. **canary probe** — after the swap, the candidate must answer a real
   ``recommend`` call with a valid, in-range, finite top-N; a failing
   canary rolls the previous model back.

Every outcome is reported (``reloaded`` / ``unchanged`` / ``rejected``
/ ``rolled_back``) so the service can count reload health, and a bad
candidate never takes down serving: the previous model keeps answering.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Callable, Optional

import numpy as np

from .. import testing
from ..ckpt import CheckpointManager, checksum, decode_state
from ..concurrency import new_rlock, shared_state

#: Poll outcomes (also used as `serve.reload.*` counter suffixes).
RELOADED = "reloaded"
UNCHANGED = "unchanged"
REJECTED = "rejected"
ROLLED_BACK = "rolled_back"


class ModelUnavailable(RuntimeError):
    """The provider has no usable model yet (service stays unready)."""


def default_restore(model: Any, state: dict) -> Any:
    """Load a trainer snapshot's inference state into a fresh model.

    Restores parameters (``state["model"]``), any non-parameter extra
    state the model wrote (IMCAT tag clusters, SSL augmentation RNG),
    and rebuilds parameter-derived caches via ``refresh_epoch`` —
    mirroring :func:`repro.io.load_model` for the checkpoint layout.
    """
    model.load_state_dict(state["model"])
    extra = state.get("model_extra")
    if extra is not None and hasattr(model, "set_extra_state"):
        model.set_extra_state(extra)
    if hasattr(model, "refresh_epoch"):
        model.refresh_epoch(0)
    if hasattr(model, "eval"):
        model.eval()
    return model


@shared_state
class StaticModelProvider:
    """Serve one fixed in-memory model (no reload).

    Immutable after construction, so it is safely shared across
    threads without a lock; the ``@shared_state`` annotation lets the
    sanitizer verify that nothing mutates it post-init.
    """

    def __init__(self, model: Any, version: str = "static") -> None:
        self._model = model
        self._version = version

    def model(self) -> Any:
        if self._model is None:
            raise ModelUnavailable("no model loaded")
        return self._model

    def ready(self) -> bool:
        return self._model is not None

    def version(self) -> str:
        return self._version

    def poll(self) -> str:
        """Static providers never change."""
        return UNCHANGED


@shared_state(guard="_lock")
class CheckpointModelProvider:
    """Hot-reloading provider backed by a ``repro.ckpt`` directory.

    Args:
        directory: checkpoint directory (manifest + payloads) written by
            a trainer's ``checkpoint_dir``.
        builder: zero-argument callable returning a *fresh* untrained
            model instance of the architecture being served.
        restore: ``(model, state) -> model`` hook loading a decoded
            snapshot into the fresh instance (default
            :func:`default_restore`).
        canary_user: user index the post-swap canary probe scores.
        canary_top_n: list length the canary requests.
        expected_fingerprint: pin the config fingerprint up front;
            ``None`` pins it from the first successfully-loaded
            snapshot.
        retrieval: maintain a :mod:`repro.retrieval` candidate index
            alongside the model: on every promotion the provider loads
            the index persisted next to the snapshot (or builds one and
            saves it back), verifies it against the candidate's item
            fingerprint, and swaps ``(model, index)`` as one unit — a
            serving process can never pair a new model with the old
            model's routing.  Index problems degrade to ``index() is
            None`` (exact scoring), never to a failed promotion.
        retrieval_params: keyword overrides for
            :func:`repro.retrieval.build_index` (``num_partitions``,
            ``strategy``, ``popularity``, ``popular_head``, ``seed``).

    ``poll()`` never raises for candidate problems — a bad snapshot is
    refused (or rolled back) with a warning and the live model keeps
    serving.

    Thread safety: ``(model, step, index, fingerprint)`` swap as one
    unit under a reentrant mutex, so scoring threads calling
    :meth:`model`/:meth:`index` during a background ``poll()`` see
    either the old generation or the new one, never a mix.  The slow
    work — reading the payload, validating, building the candidate and
    its routing index — happens *outside* the lock (blocking I/O under
    a lock is exactly what LNT008 flags); only the swap, the canary
    probe, and a possible rollback run inside it.
    """

    def __init__(
        self,
        directory: str,
        builder: Callable[[], Any],
        restore: Callable[[Any, dict], Any] = default_restore,
        canary_user: int = 0,
        canary_top_n: int = 5,
        expected_fingerprint: Optional[str] = None,
        retrieval: bool = False,
        retrieval_params: Optional[dict] = None,
    ) -> None:
        self.directory = directory
        self._builder = builder
        self._restore = restore
        self.canary_user = canary_user
        self.canary_top_n = canary_top_n
        self._fingerprint = expected_fingerprint
        self.retrieval = retrieval
        self.retrieval_params = dict(retrieval_params or {})
        self._lock = new_rlock("serve.CheckpointModelProvider")
        self._model: Optional[Any] = None
        self._step: Optional[int] = None
        self._index: Optional[Any] = None

    # ------------------------------------------------------------------
    # provider protocol
    # ------------------------------------------------------------------
    def model(self) -> Any:
        with self._lock:
            if self._model is None:
                raise ModelUnavailable(
                    f"no valid checkpoint loaded yet from {self.directory!r} "
                    f"(call poll() after the first snapshot lands)"
                )
            return self._model

    def ready(self) -> bool:
        with self._lock:
            return self._model is not None

    def version(self) -> str:
        with self._lock:
            if self._step is None:
                return "unloaded"
            return f"ckpt-step-{self._step}"

    @property
    def step(self) -> Optional[int]:
        """Training step of the live snapshot (``None`` before a load)."""
        with self._lock:
            return self._step

    def index(self) -> Optional[Any]:
        """The candidate index swapped in with the live model.

        ``None`` whenever no index matching the live model exists
        (retrieval disabled, build failed, fingerprint mismatch) — the
        retrieval tier treats that as "serve exact"."""
        with self._lock:
            return self._index

    # ------------------------------------------------------------------
    # reload
    # ------------------------------------------------------------------
    def poll(self) -> str:
        """Check for a newer snapshot and try to promote it.

        Returns one of :data:`RELOADED`, :data:`UNCHANGED`,
        :data:`REJECTED` (candidate failed validation before the swap),
        or :data:`ROLLED_BACK` (candidate failed the post-swap canary
        and the previous model was restored).
        """
        entry = self._newest_entry()
        if entry is None:
            return UNCHANGED
        step = int(entry["step"])
        with self._lock:
            if self._step is not None and step <= self._step:
                return UNCHANGED
        path = os.path.join(self.directory, entry["file"])

        # Gates 1-3: checksum, fingerprint and finiteness, then build.
        # Deliberately outside the lock: payload reads and model
        # construction are slow, and scoring threads must keep getting
        # the live model while a candidate is prepared.
        try:
            candidate, state = self._validate_and_build(path, entry)
        except _CandidateRejected as err:
            warnings.warn(
                f"refusing checkpoint {path!r}: {err}; "
                f"keeping {self.version()}",
                RuntimeWarning,
                stacklevel=2,
            )
            return REJECTED

        # The candidate's index is resolved before the swap so model and
        # index change hands in one assignment: traffic between the two
        # stores can never score a new model through old routing.
        index = self._index_for(candidate, step)

        # Gate 4: swap in, then canary-probe the live slot; roll back on
        # any failure so a model that loads but cannot answer never
        # serves traffic.  The swap/canary/rollback triple runs under
        # the lock as one atomic generation change.
        with self._lock:
            if self._step is not None and step <= self._step:
                # a concurrent poll promoted this (or a newer) snapshot
                # while we were building; keep the winner.
                return UNCHANGED
            previous = (self._model, self._step, self._index)
            self._model, self._step, self._index = (candidate, step, index)
            try:
                self._canary(candidate)
            except Exception as err:  # canary must never kill serving
                self._model, self._step, self._index = previous
                warnings.warn(
                    f"canary probe failed for checkpoint {path!r} ({err}); "
                    f"rolled back to {self.version()}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return ROLLED_BACK
            if self._fingerprint is None:
                self._fingerprint = state.get("fingerprint")
            return RELOADED

    def _index_for(self, candidate: Any, step: int) -> Optional[Any]:
        """Load (or build and persist) the candidate's routing index.

        Preference order: the ``index-*.npz`` persisted for ``step`` in
        the checkpoint directory, when its fingerprint matches the
        candidate's item table (older steps' indices are never read),
        else a fresh :func:`repro.retrieval.build_index` saved back next
        to the snapshot so the next serving process finds it.  Any
        failure returns ``None`` — a promotion is never blocked on
        routing.
        """
        if not self.retrieval:
            return None
        # Local import: the provider must stay importable (and the
        # default path must stay free of index machinery) without the
        # retrieval subsystem in play.
        from ..retrieval import build_index, load_index, save_index
        from ..retrieval.index import model_fingerprint

        try:
            fingerprint = model_fingerprint(candidate)
            index = load_index(
                self.directory, step=step, expected_fingerprint=fingerprint
            )
            if index is not None:
                return index
            index = build_index(candidate, **self.retrieval_params)
            try:
                save_index(index, self.directory, step=step)
            except Exception as err:
                warnings.warn(
                    f"could not persist retrieval index for step {step} "
                    f"({err}); serving it from memory only",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return index
        except Exception as err:
            warnings.warn(
                f"retrieval index unavailable for step {step} ({err}); "
                f"serving falls back to exact scoring",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def _newest_entry(self) -> Optional[dict]:
        if not os.path.isdir(self.directory):
            return None
        entries = CheckpointManager(self.directory).entries()
        return entries[-1] if entries else None

    def _validate_and_build(self, path: str, entry: dict):
        try:
            testing.check(testing.SERVE_RELOAD)
            testing.delay(testing.SERVE_RELOAD)
            with open(path, "rb") as handle:
                data = handle.read()
        except Exception as err:
            raise _CandidateRejected(f"unreadable payload ({err})") from err
        expected = entry.get("sha256")
        if expected is not None and checksum(data) != expected:
            raise _CandidateRejected(
                "checksum mismatch against the manifest (torn write or "
                "bit rot)"
            )
        try:
            state = decode_state(data)
        except Exception as err:
            raise _CandidateRejected(f"undecodable payload ({err})") from err
        if not isinstance(state, dict) or not isinstance(state.get("model"), dict):
            raise _CandidateRejected("snapshot carries no model state")
        # Finiteness before anything derived (model, routing index) is
        # built from the parameters: a NaN table would otherwise reach
        # index construction and only fail at the canary.
        for name, value in state["model"].items():
            value = np.asarray(value)
            if value.dtype.kind == "f" and not np.isfinite(value).all():
                raise _CandidateRejected(f"non-finite parameter {name}")
        fingerprint = state.get("fingerprint")
        if self._fingerprint is not None and fingerprint != self._fingerprint:
            raise _CandidateRejected(
                f"config fingerprint {fingerprint!r} does not match the "
                f"pinned serving fingerprint {self._fingerprint!r}"
            )
        try:
            candidate = self._restore(self._builder(), state)
        except Exception as err:
            raise _CandidateRejected(f"restore failed ({err})") from err
        return candidate, state

    def _canary(self, model: Any) -> None:
        """One real scoring request; raises when the answer is unusable."""
        items = model.recommend(self.canary_user, top_n=self.canary_top_n)
        items = np.asarray(items)
        if items.size == 0:
            raise ValueError("canary returned an empty recommendation list")
        if not np.issubdtype(items.dtype, np.integer):
            raise ValueError(f"canary returned non-integer items ({items.dtype})")
        num_items = getattr(model, "num_items", None)
        if num_items is not None and (
            items.min() < 0 or items.max() >= num_items
        ):
            raise ValueError("canary returned out-of-range item indices")


class _CandidateRejected(RuntimeError):
    """Internal: candidate snapshot failed pre-swap validation."""
