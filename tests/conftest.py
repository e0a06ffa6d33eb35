import signal

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_su11(rng, scale=1.0):
    """Random (a, b) with |a|^2 - |b|^2 = 1."""
    b = scale * (rng.standard_normal() + 1j * rng.standard_normal())
    a = np.sqrt(1.0 + abs(b) ** 2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return a, b


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_unitary(u, atol=1e-10):
    n = u.shape[0]
    np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=atol)


class BudgetExceeded(Exception):
    """Raised by the budget alarm; no handler in the package catches it."""


@pytest.fixture
def budget():
    """Fail a test that runs past 10 s instead of letting a hang stall the suite."""

    def expire(signum, frame):
        raise BudgetExceeded("did not return within 10 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
