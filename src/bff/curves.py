"""Bayes factor functions over effect-size grids.

A BFF curve is the map omega -> ln BF10 where each omega fixes the prior
scale tau2 = c * omega^2 through the study design. This module evaluates
single-study curves and combines independent studies by summing log Bayes
factors at a shared omega. Every evaluation is one array expression over
studies x omegas: the studies of each statistic family are stacked into
columns, and one closed-form call per family covers the whole grid. The
grid argmax is refined, and threshold crossings are located, by k-section
on the exact function: each round evaluates a batch of points spread over
every open bracket at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bayes_factors import Family, TestStatistic, log_bf
from .effect_sizes import StudyDesign, statistic_family_for, tau2_scale

_REFINE_TOL = 1e-6
# new points per bracket and round; each round shrinks a crossing's bracket
# 34-fold and the maximum's, which keeps both neighbours of the best point,
# 17-fold
_K = 33
_SPREAD = np.linspace(0.0, 1.0, _K + 2)  # a bracket's ends and _K interior points


@dataclass(frozen=True)
class Study:
    """A reported statistic together with the design that produced it."""

    statistic: TestStatistic
    design: StudyDesign
    label: str = ""

    def __post_init__(self) -> None:
        expected = statistic_family_for(self.design)
        if self.statistic.family is not expected:
            raise ValueError(
                f"statistic family {self.statistic.family.value} does not match "
                f"design {self.design.design.value} (expects {expected.value})"
            )
        if self.design.k is not None and self.statistic.df1 != self.design.k:
            raise ValueError(
                f"statistic df1={self.statistic.df1} does not match design "
                f"effect dimension k={self.design.k}"
            )

    def log_bf_at(self, omega: float) -> float:
        """ln BF10 at effect size omega; exactly 0 in the omega = 0 limit."""
        return float(_StudySum((self,))(np.array([omega], dtype=float))[0])


@dataclass(frozen=True)
class _Columns:
    """One family's statistics with each field stacked into an (S, 1) column."""

    family: Family
    value: np.ndarray
    df1: np.ndarray | None
    df2: np.ndarray | None


class _StudySum:
    """omegas -> sum over studies of ln BF10, one log_bf call per family."""

    def __init__(self, studies: Sequence[Study]):
        groups: dict[Family, list[Study]] = {}
        for s in studies:
            groups.setdefault(s.statistic.family, []).append(s)

        def column(xs):
            return None if xs[0] is None else np.array(xs, dtype=float)[:, None]

        self._groups = [
            (
                _Columns(
                    family,
                    column([s.statistic.value for s in members]),
                    column([s.statistic.df1 for s in members]),
                    column([s.statistic.df2 for s in members]),
                ),
                column([tau2_scale(s.design) for s in members]),
            )
            for family, members in groups.items()
        ]

    def __call__(self, omegas: np.ndarray) -> np.ndarray:
        if not np.all(omegas >= 0):
            raise ValueError("effect sizes omega must be >= 0")
        w2 = omegas * omegas
        # omega = 0 is the point-null limit: tau2 = 0 and ln BF10 exactly 0
        live = w2 > 0
        total = np.zeros(omegas.shape)
        total[live] = sum(
            log_bf(stats, scale * w2[live]).sum(axis=0) for stats, scale in self._groups
        )
        return total


@dataclass(frozen=True)
class EffectGrid:
    """A uniform omega grid of `steps` points spanning [min, max]."""

    min: float = 0.0
    max: float = 1.0
    steps: int = 500

    def __post_init__(self) -> None:
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"grid bounds must be finite, got [{self.min}, {self.max}]")
        if self.min < 0:
            raise ValueError(f"grid min must be >= 0, got {self.min}")
        if self.min >= self.max:
            raise ValueError(f"grid needs min < max, got [{self.min}, {self.max}]")
        if self.steps < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.steps}")

    def omegas(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True, eq=False)
class BFFCurve:
    """Grid evaluations of a BFF plus its refined maximum and BF=1 crossings.

    omegas and log_bfs are read-only arrays of the grid and its ln BF10
    values. log_bf_fn is the exact function they sample, mapping an array of
    omegas to ln BF10; refinement and crossing searches evaluate it directly
    rather than interpolating.
    """

    omegas: np.ndarray
    log_bfs: np.ndarray
    max_log_bf: float
    argmax_omega: float
    crossings: tuple[float, ...]
    label: str = ""
    log_bf_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The grid as (omega, ln BF10) pairs of floats."""
        return tuple(zip(self.omegas.tolist(), self.log_bfs.tolist()))


def refine_max(
    omegas: np.ndarray, log_bfs: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """Refine the argmax of fn within the grid bracket around the best point.

    Each round samples the bracket's ends and _K evenly spaced points between
    them, and keeps the neighbours of the best one, until the bracket is at
    most 1e-6 wide. The result is never below the best grid value, so a
    monotone curve keeps its boundary argmax.
    """
    best = int(np.argmax(log_bfs))
    best_omega, best_value = float(omegas[best]), float(log_bfs[best])
    a = omegas[max(best - 1, 0)]
    b = omegas[min(best + 1, len(omegas) - 1)]
    while b - a > _REFINE_TOL:
        xs = a + (b - a) * _SPREAD
        j = int(np.argmax(fn(xs)))
        a, b = xs[max(j - 1, 0)], xs[min(j + 1, _K + 1)]
    omega = 0.5 * (a + b)
    value = float(fn(np.array([omega]))[0])
    if value >= best_value:
        return float(omega), value
    return best_omega, best_value


def _crossings(
    omegas: np.ndarray,
    log_bfs: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    threshold: float,
) -> tuple[float, ...]:
    """Omegas where fn crosses threshold, between grid points of opposite sign.

    Grid points landing exactly on the threshold (notably the omega = 0
    limit, where every curve starts at ln BF = 0) are not counted; only
    strict sign changes between adjacent points are. Each round samples _K
    interior points of every bracket wider than 1e-6 in one call and keeps
    the first sub-interval whose sign changes; a sample exactly on the
    threshold closes its bracket there.
    """
    g = log_bfs - threshold
    ga, gb = g[:-1], g[1:]
    start = np.flatnonzero((ga != 0) & (gb != 0) & ((ga > 0) != (gb > 0)))
    lo, hi = omegas[start], omegas[start + 1]
    above = ga[start] > 0  # the sign at each bracket's low end, kept throughout
    while True:
        open_ = np.flatnonzero(hi - lo > _REFINE_TOL)
        if open_.size == 0:
            break
        a, b = lo[open_], hi[open_]
        xs = a[:, None] + (b - a)[:, None] * _SPREAD[1:-1]
        gx = fn(xs.ravel()).reshape(xs.shape) - threshold
        # the first sample on the threshold or across it from a; b always is
        last = np.ones((open_.size, 1), bool)
        j = np.hstack([(gx == 0) | ((gx > 0) != above[open_, None]), last]).argmax(axis=1)
        exact = np.hstack([gx == 0, ~last])[np.arange(open_.size), j]
        ends = np.hstack([a[:, None], xs, b[:, None]])
        hi[open_] = ends[np.arange(open_.size), j + 1]
        lo[open_] = np.where(exact, hi[open_], ends[np.arange(open_.size), j])
    return tuple((0.5 * (lo + hi)).tolist())


def _build_curve(
    fn: Callable[[np.ndarray], np.ndarray], grid: EffectGrid, label: str
) -> BFFCurve:
    omegas = grid.omegas()
    log_bfs = fn(omegas)
    if not np.all(np.isfinite(log_bfs)):
        raise FloatingPointError("ln BF10 is not finite at some grid point")
    omegas.flags.writeable = False
    log_bfs.flags.writeable = False
    argmax_omega, max_log_bf = refine_max(omegas, log_bfs, fn)
    return BFFCurve(
        omegas=omegas,
        log_bfs=log_bfs,
        max_log_bf=max_log_bf,
        argmax_omega=argmax_omega,
        crossings=_crossings(omegas, log_bfs, fn, 0.0),
        label=label,
        log_bf_fn=fn,
    )


def evaluate_bff(study: Study, grid: EffectGrid = EffectGrid()) -> BFFCurve:
    """The BFF of one study on the given grid."""
    return _build_curve(_StudySum((study,)), grid, study.label)


def combine(studies: Sequence[Study], grid: EffectGrid = EffectGrid()) -> BFFCurve:
    """Combined BFF of independent studies sharing one effect-size axis.

    The combined Bayes factor at omega is the product of the per-study Bayes
    factors, each evaluated at its own design's tau2 for that omega. Callers
    are responsible for the studies measuring comparable effects.
    """
    if len(studies) == 0:
        raise ValueError("combine requires at least one study")
    label = " + ".join(s.label for s in studies if s.label)
    return _build_curve(_StudySum(studies), grid, label)


def find_crossings(curve: BFFCurve, threshold_log_bf: float) -> list[float]:
    """Omegas where the curve crosses the given log Bayes factor."""
    return list(_crossings(curve.omegas, curve.log_bfs, curve.log_bf_fn, threshold_log_bf))
