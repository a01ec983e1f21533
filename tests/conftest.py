"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config) -> None:
    """Register the repo's custom marks."""
    config.addinivalue_line(
        "markers", "slow: a test that takes several seconds "
                   "(deselect with -m 'not slow')")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad
