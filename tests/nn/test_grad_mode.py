"""Grad mode is per thread: one thread's ``no_grad`` never leaks.

Serving threads score under ``no_grad`` while a trainer may be running
in the same process.  With a process-global flag, the interleaving
enter(A) → enter(B) → exit(A) → exit(B) restores B's saved ``False``
last and leaves recording off for every thread, so later training
silently records no tape.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn import Tensor, is_grad_enabled, no_grad


def _run_interleaved(steps):
    """Run two threads whose ``no_grad`` blocks interleave as
    enter(A), enter(B), exit(A), exit(B); ``steps`` records, per thread,
    its grad mode inside the block and whether its waits saw the other
    thread in time (so a timed-out interleaving cannot pass)."""
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def thread_a():
        with no_grad():
            a_in.set()
            waited = b_in.wait(5)
            steps.append(("a", is_grad_enabled(), waited))
        a_out.set()

    def thread_b():
        waited = a_in.wait(5)
        with no_grad():
            b_in.set()
            waited = a_out.wait(5) and waited
            steps.append(("b", is_grad_enabled(), waited))

    workers = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(10)
    assert not any(worker.is_alive() for worker in workers)


class TestThreadLocalGradMode:
    def test_interleaved_no_grad_leaves_main_thread_recording(self):
        assert is_grad_enabled()
        steps = []
        _run_interleaved(steps)
        assert sorted(steps) == [("a", False, True), ("b", False, True)]
        assert is_grad_enabled()
        x = Tensor(np.ones(3), requires_grad=True)
        assert (x * 2.0).sum().requires_grad

    def test_other_thread_no_grad_is_invisible_here(self):
        entered, release = threading.Event(), threading.Event()

        def worker():
            with no_grad():
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(5)
            assert is_grad_enabled()
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_new_thread_starts_recording_under_main_no_grad(self):
        seen = []
        with no_grad():
            thread = threading.Thread(
                target=lambda: seen.append(is_grad_enabled())
            )
            thread.start()
            thread.join(10)
            assert not thread.is_alive()
            assert not is_grad_enabled()
        assert seen == [True]
        assert is_grad_enabled()
