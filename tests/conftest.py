"""Shared test helpers: parameter draws, random states, and series oracles."""

from __future__ import annotations

import math

import numpy as np

from xyzbattery.model import SpinParams

FIG1_PARAMS = SpinParams(J=0.2, Jz=0.2, gamma=0.5, B=1.0, beta=1.0)

# standard parameter box for random draws
J_RANGE = (-2.0, 2.0)
JZ_RANGE = (-2.0, 2.0)
GAMMA_RANGE = (-1.0, 1.0)
B_RANGE = (-5.0, 5.0)


def draw_params(rng: np.random.Generator, beta: float = 1.0) -> SpinParams:
    return SpinParams(
        J=rng.uniform(*J_RANGE),
        Jz=rng.uniform(*JZ_RANGE),
        gamma=rng.uniform(*GAMMA_RANGE),
        B=rng.uniform(*B_RANGE),
        beta=beta,
    )


def random_hermitian(rng: np.random.Generator, dim: int = 4,
                     scale: float = 10.0) -> np.ndarray:
    m = rng.uniform(-scale, scale, (dim, dim)) + 1j * rng.uniform(
        -scale, scale, (dim, dim))
    return (m + m.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Random diagonal probabilities conjugated by a Haar-ish unitary."""
    probs = rng.uniform(0.0, 1.0, dim)
    probs /= probs.sum()
    u = random_unitary(rng, dim)
    return (u * probs) @ u.conj().T


def expm_taylor(a: np.ndarray, terms: int = 40) -> np.ndarray:
    """Series-summation matrix exponential with scaling and squaring.

    Independent of the spectral-decomposition path it cross-checks.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.linalg.norm(a, ord=np.inf))
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    scaled = a / (2.0 ** squarings)
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def two_harmonic_extremes(a: float, b: float) -> tuple[float, float]:
    """Exact (min, max) over a period of a*(1 - cos phi) + b*(1 - cos 2 phi):
    its values at the stationary phases 0, pi and, when b != 0 and
    |a| <= 4|b|, arccos(-a/(4b))."""
    phases = [0.0, math.pi]
    if b != 0.0 and abs(a) <= 4.0 * abs(b):
        phases.append(math.acos(-a / (4.0 * b)))
    values = [a * (1.0 - math.cos(phi)) + b * (1.0 - math.cos(2.0 * phi)) for phi in phases]
    return min(values), max(values)
