"""Seeded generators for the two synthetic models: symmetric alpha-stable
series with a scale switch, and a Gaussian series contaminated by
uniform-amplitude random-sign spikes.

Randomness comes from numpy's PCG64 generator keyed through SeedSequence, so
identical specs give bit-identical output on every platform, and independent
streams can be derived for parallel Monte Carlo trials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlpha, InvalidGamma, InvalidParameter

__all__ = [
    "StableSpec",
    "MixtureSpec",
    "sample_symmetric_stable",
    "gen_stable_series",
    "gen_mixture_series",
    "make_rng",
]


def make_rng(seed) -> np.random.Generator:
    """PCG64 generator keyed by ``seed`` (int or tuple of ints)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _validate_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")


def _validate_cp(cp: int | None, n: int) -> int:
    if n < 4:
        raise InvalidParameter(f"series length must be at least 4, got {n}")
    cp = n // 2 if cp is None else int(cp)
    if not (2 <= cp <= n - 1):
        raise InvalidParameter(f"change point {cp} outside 2..{n - 1}")
    return cp


@dataclass(frozen=True)
class StableSpec:
    """Symmetric alpha-stable series with scale gamma1 before the change
    point and gamma2 from it onward (1-based; ``cp`` is the first index of
    the second regime, defaulting to N//2)."""

    alpha: float
    gamma2: float
    N: int = 1000
    cp: int | None = None
    gamma1: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise InvalidAlpha(f"alpha must be in (0, 2], got {self.alpha}")
        if not (self.gamma1 > 0.0) or not (self.gamma2 > 0.0):
            raise InvalidGamma("scale parameters must be positive")
        if math.inf in (self.gamma1, self.gamma2):
            raise InvalidGamma("scale parameters must be finite")
        if self.gamma1 == self.gamma2:
            raise InvalidParameter("gamma1 == gamma2 defines no scale change")
        _validate_seed(self.seed)
        object.__setattr__(self, "cp", _validate_cp(self.cp, self.N))


@dataclass(frozen=True)
class MixtureSpec:
    """Gaussian-plus-spikes series: X = G + U*K with G standard normal before
    the change point and std ``omega2`` after, U ~ Uniform(0, nu), and
    K in {-1, 0, +1} where each sign occurs with probability ``p``.

    ``p = 0`` is permitted (pure two-regime Gaussian, useful in tests).
    """

    omega2: float
    nu: float
    p: float
    N: int = 1000
    cp: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.omega2 > 0.0):
            raise InvalidParameter(f"omega2 must be positive, got {self.omega2}")
        if self.omega2 == math.inf:
            raise InvalidParameter("omega2 must be finite, got inf")
        if self.omega2 == 1.0:
            raise InvalidParameter("omega2 == 1 defines no scale change")
        if not (self.nu > 0.0):
            raise InvalidParameter(f"nu must be positive, got {self.nu}")
        if self.nu == math.inf:
            raise InvalidParameter("nu must be finite, got inf")
        if not (0.0 <= self.p < 0.5):
            raise InvalidParameter(f"p must lie in [0, 0.5), got {self.p}")
        _validate_seed(self.seed)
        object.__setattr__(self, "cp", _validate_cp(self.cp, self.N))


def _stable_draws(
    alpha: float, gamma: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Chambers-Mallows-Stuck draws from the symmetric stable law with
    characteristic function exp(-gamma^alpha |t|^alpha).

    alpha = 2 goes through the Gaussian path with standard deviation
    gamma*sqrt(2) (the stable-scale convention), alpha = 1 is the Cauchy
    shortcut gamma*tan(U).
    """
    if alpha == 2.0:
        return rng.standard_normal(size) * (gamma * math.sqrt(2.0))
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    if alpha == 1.0:
        return gamma * np.tan(u)
    w = rng.exponential(1.0, size)
    draws = (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )
    return gamma * draws


def sample_symmetric_stable(
    alpha: float, gamma: float, rng: np.random.Generator
) -> float:
    """One draw from the symmetric stable law S_alpha(gamma)."""
    if not (0.0 < alpha <= 2.0):
        raise InvalidAlpha(f"alpha must be in (0, 2], got {alpha}")
    if not (gamma > 0.0):
        raise InvalidGamma(f"gamma must be positive, got {gamma}")
    if gamma == math.inf:
        raise InvalidGamma("gamma must be finite, got inf")
    return float(_stable_draws(alpha, gamma, 1, rng)[0])


def gen_stable_series(spec: StableSpec) -> tuple[np.ndarray, int]:
    """Series from the stable model plus its ground-truth change point.

    Draws a standard stable stream and multiplies by the per-regime scale
    (scaling a standard draw by gamma is exact for stable laws).
    """
    rng = make_rng(spec.seed)
    draws = _stable_draws(spec.alpha, 1.0, spec.N, rng)
    idx = np.arange(1, spec.N + 1)
    scale = np.where(idx < spec.cp, spec.gamma1, spec.gamma2)
    return draws * scale, spec.cp


def _draw_mixture_parts(
    spec: MixtureSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three independent components (G, U, K) of the mixture model."""
    rng = make_rng(spec.seed)
    idx = np.arange(1, spec.N + 1)
    std = np.where(idx < spec.cp, 1.0, spec.omega2)
    g = rng.standard_normal(spec.N) * std
    u = rng.uniform(0.0, spec.nu, spec.N)
    v = rng.uniform(0.0, 1.0, spec.N)
    k = np.where(v < spec.p, 1.0, np.where(v < 2.0 * spec.p, -1.0, 0.0))
    return g, u, k


def gen_mixture_series(spec: MixtureSpec) -> tuple[np.ndarray, int]:
    """Series from the spiky mixture model plus its ground-truth change point."""
    g, u, k = _draw_mixture_parts(spec)
    return g + u * k, spec.cp
