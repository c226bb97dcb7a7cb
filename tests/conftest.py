"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import generate_preset, split_dataset

from .helpers import tiny_dataset


@pytest.fixture(scope="session", autouse=True)
def _lockset_sanitizer():
    """Run the whole suite under the lockset sanitizer when asked.

    ``REPRO_SANITIZE=1`` arms :mod:`repro.testing.lockset` for the
    session: every ``new_lock`` becomes a SanitizedLock feeding the
    lock-order watchdog, and every ``@shared_state`` write runs the
    Eraser lockset check.  The obs module globals are re-created after
    arming because their locks were built at import time, before the
    sanitized factory was installed.
    """
    if os.environ.get("REPRO_SANITIZE") != "1":
        yield
        return
    from repro import obs
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import Tracer
    from repro.testing import lockset

    lockset.arm()
    previous_metrics = obs.set_metrics(MetricsRegistry())
    previous_tracer = obs.set_tracer(Tracer(enabled=False))
    try:
        yield
    finally:
        obs.set_metrics(previous_metrics)
        obs.set_tracer(previous_tracer)
        lockset.disarm()


@pytest.fixture
def isolated_metrics():
    """A fresh process-global :class:`repro.obs.MetricsRegistry` for one
    test, so exact counts are not mixed with other tests' records."""
    from repro import obs

    registry = obs.MetricsRegistry()
    previous = obs.set_metrics(registry)
    try:
        yield registry
    finally:
        obs.set_metrics(previous)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny():
    return tiny_dataset()


@pytest.fixture(scope="session")
def small_dataset():
    """A generated dataset large enough for training smoke tests."""
    return generate_preset("hetrec-del", scale=0.05, seed=1)


@pytest.fixture(scope="session")
def small_split(small_dataset):
    return split_dataset(small_dataset, seed=2)
