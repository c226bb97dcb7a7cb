"""Minimal module system: parameter containers with recursive traversal.

Mirrors the ``torch.nn.Module`` contract the paper's implementation would
rely on: registering parameters and sub-modules by attribute assignment,
recursive ``parameters()`` iteration, train/eval mode, and state dicts
for (de)serialisation.
"""

from __future__ import annotations

import itertools
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor

#: Process-wide source of write versions: every value is handed out
#: once, so a version names one state of one parameter.
_versions = itertools.count()


def next_version() -> int:
    """A fresh, never-repeated write version."""
    return next(_versions)


class Parameter(Tensor):
    """A tensor that is a trainable model parameter.

    The array is read-only outside :meth:`write`, the one sanctioned
    in-place write path, which stamps a fresh :attr:`version` once the
    write completes.  Caches of parameter-derived state key on these
    versions (see :meth:`repro.models.base.Recommender.representations`),
    so a write that bypassed :meth:`write` would serve stale results;
    a raw ``param.data[...] = x`` therefore raises instead.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        if self.data is data:
            self.data = self.data.copy()  # own the array we freeze
        self.data.flags.writeable = False
        self.version = next_version()

    @contextmanager
    def write(self) -> Iterator[np.ndarray]:
        """Yield the array writable; re-freeze it and bump the version
        after the write (also when the write raises part-way)."""
        self.data.flags.writeable = True
        try:
            yield self.data
        finally:
            self.data.flags.writeable = False
            self.version = next_version()

    def __setstate__(self, state) -> None:
        # pickle and deepcopy rebuild arrays writeable; freeze again.
        attrs, slots = state if isinstance(state, tuple) else (state, None)
        self.__dict__.update(attrs or {})
        for name, value in (slots or {}).items():
            setattr(self, name, value)
        self.data.flags.writeable = False


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters recursively."""
        for _, param in self.named_parameters():
            yield param

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all sub-modules recursively."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout etc.)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter array keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def write_locks(self) -> List[Any]:
        """Locks a parameter write into this module must hold, so no
        reader derives state from half-written arrays.  Default: none
        (:class:`repro.models.base.Recommender` returns its
        representation-cache lock)."""
        return []

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        The whole load runs under :meth:`write_locks` of every
        sub-module, and each parameter's version is bumped through
        :meth:`Parameter.write`.
        """
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, array in state.items():
            param = params[name]
            if param.data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {array.shape}"
                )
        with ExitStack() as held:
            for module in self.modules():
                for lock in module.write_locks():
                    held.enter_context(lock)
            for name, array in state.items():
                with params[name].write() as data:
                    data[...] = array

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
