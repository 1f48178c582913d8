"""Priors on non-centrality parameters.

Two families: the normal moment prior J(mu0, tau2), a non-local density that
vanishes exactly at mu0, and the gamma prior G(k/2 + 1, 1/(2 tau2)) placed on
the non-centrality of chi-squared and F statistics. Densities are exposed in
log space only; tau2 spans several orders of magnitude across an effect-size
sweep and linear-space densities underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NormalMomentPrior:
    """J(mu0, tau2): density proportional to (x - mu0)^2 * N(x; mu0, tau2)."""

    mu0: float
    tau2: float

    def __post_init__(self) -> None:
        if self.tau2 <= 0:
            raise ValueError(f"tau2 must be > 0, got {self.tau2}")


@dataclass(frozen=True)
class GammaNCPPrior:
    """G(k/2 + 1, 1/(2 tau2)) on the non-centrality of a chi-squared/F test."""

    k: int
    tau2: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.tau2 <= 0:
            raise ValueError(f"tau2 must be > 0, got {self.tau2}")

    @property
    def shape(self) -> float:
        return self.k / 2.0 + 1.0

    @property
    def rate(self) -> float:
        return 1.0 / (2.0 * self.tau2)


def nm_log_density(p: NormalMomentPrior, x: float) -> float:
    """ln j(x | mu0, tau2); -inf exactly at x = mu0.

    j(x | mu0, tau2) = (x - mu0)^2 / (tau2 * sqrt(2 pi tau2))
                       * exp(-(x - mu0)^2 / (2 tau2))
    """
    d = x - p.mu0
    if d == 0.0:
        return -math.inf
    r = d / math.sqrt(p.tau2)  # d * d / tau2 loses precision where tau2 is subnormal
    return 2.0 * math.log(abs(d)) - 0.5 * LOG_2PI - 1.5 * math.log(p.tau2) - 0.5 * r * r


def nm_modes(p: NormalMomentPrior) -> tuple[float, float]:
    """The two modes of J(mu0, tau2), at mu0 -/+ sqrt(2) * tau."""
    half_width = math.sqrt(2.0 * p.tau2)
    return (p.mu0 - half_width, p.mu0 + half_width)


def gamma_logpdf(x: float, shape: float, rate: float) -> float:
    """ln of the G(shape, rate) density at x >= 0; at x = 0 its limit for this shape."""
    if x < 0:
        raise ValueError(f"gamma density requires x >= 0, got {x}")
    if x == 0.0:
        return math.inf if shape < 1 else (math.log(rate) if shape == 1 else -math.inf)
    return (
        shape * math.log(rate)
        - math.lgamma(shape)
        + (shape - 1.0) * math.log(x)
        - rate * x
    )


def gamma_log_density(p: GammaNCPPrior, x: float) -> float:
    """ln of the G(k/2 + 1, 1/(2 tau2)) prior density at x >= 0; -inf at x = 0."""
    return gamma_logpdf(x, p.shape, p.rate)


def gamma_mode(p: GammaNCPPrior) -> float:
    """Mode of G(k/2 + 1, 1/(2 tau2)): (shape - 1)/rate = k * tau2."""
    return p.k * p.tau2
