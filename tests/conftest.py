import signal

import numpy as np
import pytest
from scipy.integrate import solve_ivp


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


def mirrored_reflection(k, bumps):
    """Gaussian bumps amp e^{-((k - k0)/width)^2 + i phase} plus their mirror
    images, so that R(-k) = conj(R(k)); each bump adds at most 2 amp to |R|."""
    R = np.zeros(k.size, dtype=complex)
    for amp, k0, width, phase in bumps:
        R += amp * np.exp(-(((k - k0) / width) ** 2) + 1j * phase)
        R += amp * np.exp(-(((k + k0) / width) ** 2) - 1j * phase)
    return R


def assert_unitary(u, atol=1e-10):
    n = u.shape[0]
    np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=atol)


def envelope_rhs(q, k):
    """Plane-wave envelope (u, v) of phi = u e^{ikx} + v e^{-ikx}, gauged by
    phi' = ik(u e^{ikx} - v e^{-ikx}): constant wherever q vanishes."""
    half_ik = 0.5j / k

    def rhs(x, y):
        u, v = y
        c = half_ik * q(x)
        e = np.exp(-2j * k * x)
        return (c * (u + v * e), -c * (u / e + v))

    return rhs


def dop853_scattering(q, k, span=None, launch=(1.0, 0.0)):
    """Amplitude pair (a, b) of a e^{-ikx} + b e^{ikx} at the end of span (the
    window by default) by DOP853 at rtol 1e-12 on the envelope, launched as
    launch[0] e^{-ikx} + launch[1] e^{ikx}: an oracle independent of the
    package's Magnus propagator."""
    sol = solve_ivp(envelope_rhs(q, k), q.window if span is None else span,
                    np.array(launch[::-1], dtype=complex), method="DOP853", rtol=1e-12, atol=1e-15)
    u, v = sol.y[:, -1]
    return complex(v), complex(u)


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
