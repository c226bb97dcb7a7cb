"""Start-method guard: forked serving workers fail fast elsewhere.

The process-isolated serving workers inherit their model builder across
``fork``.  On platforms without it (Windows, some macOS configurations)
they must raise a clear, actionable error at construction time instead
of hanging or serving a different model.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.concurrency import require_fork_start_method
from repro.models import BPRMF


@pytest.fixture
def forkless(monkeypatch):
    """Pretend the platform only offers spawn (e.g. Windows)."""
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )


class TestRequireForkStartMethod:
    def test_passes_where_fork_exists(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork")
        require_fork_start_method("test feature")

    def test_error_names_feature_and_remedy(self, forkless):
        with pytest.raises(RuntimeError) as excinfo:
            require_fork_start_method("process-isolated serving workers")
        message = str(excinfo.value)
        assert "process-isolated serving workers" in message
        assert "'fork'" in message
        assert "spawn" in message  # what the platform does offer
        assert "'thread' backend" in message  # the remedy

    def test_serving_workers_guarded(self, forkless):
        from repro.serve.proc import ProcWorker, WorkerSpec

        spec = WorkerSpec(
            builder=lambda: BPRMF(4, 4, 2, rng=np.random.default_rng(7))
        )
        with pytest.raises(RuntimeError, match="fork"):
            ProcWorker(spec, 0)
