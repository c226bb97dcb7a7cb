"""Shared test utilities: numerical gradient checking and tiny datasets."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data import TagRecDataset
from repro.nn import Parameter, Tensor


def numerical_gradient(
    func: Callable[[], float], tensor: Tensor, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of ``func`` w.r.t. ``tensor`` in place
    (a :class:`Parameter` is probed through its sanctioned write)."""

    def assign(index, value) -> None:
        if isinstance(tensor, Parameter):
            with tensor.write() as data:
                data[index] = value
        else:
            tensor.data[index] = value

    array = tensor.data
    grad = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        assign(index, original + eps)
        plus = func()
        assign(index, original - eps)
        minus = func()
        assign(index, original)
        grad[index] = (plus - minus) / (2.0 * eps)
        iterator.iternext()
    return grad


def assert_gradcheck(
    loss_builder: Callable[[], "object"],
    tensors: list,
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> None:
    """Check autograd gradients of a scalar loss against finite differences.

    Args:
        loss_builder: zero-argument callable rebuilding the loss tensor
            from the *current* data of ``tensors`` (it is re-invoked for
            every finite-difference probe).
        tensors: tensors with ``requires_grad=True`` to check.
    """
    loss = loss_builder()
    for tensor in tensors:
        tensor.zero_grad()
    loss.backward()
    for tensor in tensors:
        expected = numerical_gradient(lambda: loss_builder().item(), tensor)
        actual = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        np.testing.assert_allclose(actual, expected, atol=atol, rtol=rtol)


def tiny_dataset(seed: int = 0) -> TagRecDataset:
    """A deterministic hand-sized dataset for unit tests.

    4 users, 6 items, 5 tags; every index range is exercised, items 0-1
    are popular, item 5 has no tags (edge case for Eq. 8).
    """
    return TagRecDataset(
        num_users=4,
        num_items=6,
        num_tags=5,
        user_ids=np.array([0, 0, 0, 1, 1, 2, 2, 3, 3, 3]),
        item_ids=np.array([0, 1, 2, 0, 1, 0, 3, 1, 4, 5]),
        tag_item_ids=np.array([0, 0, 1, 1, 2, 3, 3, 4]),
        tag_ids=np.array([0, 1, 0, 2, 3, 3, 4, 1]),
        name="tiny",
    )
