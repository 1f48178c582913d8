"""Standardized effect sizes and their mapping to prior scales.

Each test design pairs a statistic family with a rule converting a
standardized effect size omega (or the root mean square effect size for
vector-valued effects) into the prior scale tau2. The rules make the prior
mode on the non-centrality parameter coincide with the non-centrality a true
effect of size omega would induce at the study's sample size. Every rule
has the form tau2 = c * omega^2 with a per-design constant c (`tau2_scale`),
which is the one place the table lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .bayes_factors import Family, check_fits_double


class Design(Enum):
    ONE_SAMPLE_Z = "one_sample_z"
    ONE_SAMPLE_T = "one_sample_t"
    TWO_SAMPLE_Z = "two_sample_z"
    TWO_SAMPLE_T = "two_sample_t"
    MULTINOMIAL_CHISQ = "multinomial_chisq"
    LIKELIHOOD_RATIO_CHISQ = "likelihood_ratio_chisq"
    LINEAR_MODEL_F = "linear_model_f"


_TWO_SAMPLE = {Design.TWO_SAMPLE_Z, Design.TWO_SAMPLE_T}
VECTOR_DESIGNS = {
    Design.MULTINOMIAL_CHISQ,
    Design.LIKELIHOOD_RATIO_CHISQ,
    Design.LINEAR_MODEL_F,
}

_FAMILY_BY_DESIGN = {
    Design.ONE_SAMPLE_Z: Family.Z,
    Design.TWO_SAMPLE_Z: Family.Z,
    Design.ONE_SAMPLE_T: Family.T,
    Design.TWO_SAMPLE_T: Family.T,
    Design.MULTINOMIAL_CHISQ: Family.CHISQ,
    Design.LIKELIHOOD_RATIO_CHISQ: Family.CHISQ,
    Design.LINEAR_MODEL_F: Family.F,
}


@dataclass(frozen=True)
class StudyDesign:
    """Sample-size structure of a study.

    n is the total sample size (for multinomial tests, the sum of all cell
    counts). Two-sample designs use group sizes n1, n2 instead of n. k is the
    effect dimension (numerator df) for the vector-valued designs.
    """

    design: Design
    n: int | None = None
    n1: int | None = None
    n2: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        check_fits_double(self, ("n", "n1", "n2", "k"), self.design.value)
        if self.design in _TWO_SAMPLE:
            if self.n1 is None or self.n1 < 1 or self.n2 is None or self.n2 < 1:
                raise ValueError(
                    f"{self.design.value} requires group sizes n1, n2 >= 1"
                )
        else:
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.design.value} requires total sample size n >= 1")
        if self.design in VECTOR_DESIGNS and (self.k is None or self.k < 1):
            raise ValueError(f"{self.design.value} requires effect dimension k >= 1")


@dataclass(frozen=True)
class EffectSize:
    """A scalar omega, or the root mean square omega-tilde for vector effects."""

    omega_tilde: float

    def __post_init__(self) -> None:
        if self.omega_tilde < 0:
            raise ValueError(f"omega_tilde must be >= 0, got {self.omega_tilde}")


class Zone(Enum):
    """Qualitative effect-size bands. Boundaries are left-closed."""

    VERY_SMALL = "very small"
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


# lower bounds of SMALL, MEDIUM and LARGE; each band is closed on the left
ZONE_BOUNDS = (0.1, 0.35, 0.65)
ZONES = tuple(Zone)


def rmses(omegas: Sequence[float]) -> EffectSize:
    """Root mean square effect size of a nonempty vector of omegas."""
    if len(omegas) == 0:
        raise ValueError("rmses requires a nonempty list of effect sizes")
    return EffectSize(math.sqrt(sum(w * w for w in omegas) / len(omegas)))


def tau2_scale(design: StudyDesign) -> float:
    """The constant c with tau2 = c * omega^2 for this design."""
    d = design.design
    if d in _TWO_SAMPLE:
        # in integers, one rounding even where n1 * n2 is past the largest double
        return design.n1 * design.n2 / (2 * (design.n1 + design.n2))
    if d in (Design.MULTINOMIAL_CHISQ, Design.LIKELIHOOD_RATIO_CHISQ):
        return float(design.n)
    return design.n / 2.0  # one-sample z or t, linear-model F


def tau2_for(design: StudyDesign, effect: EffectSize) -> float:
    """Prior scale tau2 for this design at the given effect size.

    Returns 0.0 at omega = 0, the degenerate point-null limit where every
    Bayes factor equals 1; callers handle that sentinel and never construct
    a prior with tau2 = 0.
    """
    return tau2_scale(design) * (effect.omega_tilde * effect.omega_tilde)


def statistic_family_for(design: StudyDesign) -> Family:
    """The statistic family this design reports."""
    return _FAMILY_BY_DESIGN[design.design]


def zone_index(omegas):
    """The index into ZONES of each omega's band: how many ZONE_BOUNDS lie at or below it."""
    return np.searchsorted(ZONE_BOUNDS, omegas, side="right")

