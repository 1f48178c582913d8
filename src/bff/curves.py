"""Bayes factor functions over effect-size grids.

A BFF curve is the map omega -> ln BF10 where each omega fixes the prior
scale tau2 = c * omega^2 through the study design. This module evaluates
single-study curves and combines independent studies by summing log Bayes
factors at a shared omega. Every evaluation is array expressions over
studies x omegas: each family's studies are stacked into columns, and one
closed-form call per family covers each block of at most 2^15 values. One
k-section loop on the exact function refines the grid argmax and locates the
crossings of every threshold: each round evaluates the points of all open
brackets in one call. A curve sweeps its grid when built and refines its
maximum and BF = 1 crossings on first read, or in its first export's rounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bayes_factors import SPLIT_KERNELS, Family, TestStatistic, form_args
from .effect_sizes import StudyDesign, statistic_family_for, tau2_scale

_REFINE_TOL = 1e-6
# new points per bracket and round; each round shrinks a crossing's bracket
# 34-fold and the maximum's, which keeps both neighbours of the best point,
# 17-fold
_K = 33
_SPREAD = np.linspace(0.0, 1.0, _K + 2)  # a bracket's ends and _K interior points
_BLOCK = 2**15  # studies x omegas per kernel call: 256 KiB temporaries
# glibc maps blocks past its mmap threshold (128 KiB at start) and raises it only when a mapped
# block is freed (mallopt(3)); until then each kernel block faults its temporaries anew, about
# 1 400 minor faults per combine of two studies on 100 000 omegas, 0 after. Freeing one untouched
# 8 MiB array raises it (32 MiB is past DEFAULT_MMAP_THRESHOLD_MAX); off glibc it does nothing.
np.empty(2**20)


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


class _StudySum:
    """omegas -> sum over studies of ln BF10, one closed-form call per family and block."""

    def __init__(self, studies: Sequence[Study]):
        groups: dict[Family, list[Study]] = {}
        for s in studies:
            groups.setdefault(s.statistic.family, []).append(s)

        self._groups = []
        for family, members in groups.items():
            rows = ((*form_args(s.statistic), tau2_scale(s.design)) for s in members)
            *data, scale = (np.array(xs, dtype=float)[:, None] for xs in zip(*rows))
            constants, kernel = SPLIT_KERNELS[family]
            self._groups.append((kernel, constants(*data), scale))
        # the largest omega with every c * omega^2 finite; c below 1 counts as 1,
        # which keeps omega^2 itself finite
        c = max(max(tau2_scale(s.design) for s in studies), 1.0)
        self._omega_max = math.sqrt(sys.float_info.max / c)
        while not math.isfinite(c * (self._omega_max * self._omega_max)):
            self._omega_max = math.nextafter(self._omega_max, 0.0)

    def __call__(self, omegas: np.ndarray) -> np.ndarray:
        if not np.all(omegas >= 0):
            raise ValueError("effect sizes omega must be >= 0")
        if omegas.size and omegas.max() > self._omega_max:
            raise ValueError(
                f"tau2 = c * omega^2 overflows; the largest usable omega is {self._omega_max!r}"
            )
        return self.unchecked(omegas)

    def unchecked(self, omegas: np.ndarray) -> np.ndarray:
        """The same sum without the grid checks, for omegas inside a checked grid."""
        columns = self._columns(omegas)
        with np.errstate(invalid="ignore", over="ignore"):
            return columns[0] if len(columns) == 1 else sum(columns)

    def _columns(self, omegas: np.ndarray) -> list[np.ndarray]:
        # every kernel is exactly 0 at tau2 = 0, so omega = 0 (and any omega whose
        # tau2 underflows) gives the point-null limit ln BF10 = 0
        w2, sums = omegas * omegas, []
        for kernel, terms, scale in self._groups:
            step, parts = max(_BLOCK // len(scale), 1), []
            for j in range(0, max(w2.size, 1), step):
                block = kernel(*terms, scale * w2[j : j + step])  # outside the errstate: nan warns
                if len(scale) > 1:  # a lone study's row is its own sum: no kernel returns -0.0
                    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and big sums
                        block = block.sum(axis=0, keepdims=True)
                parts.append(block[0])
            sums.append(parts[0] if len(parts) == 1 else np.concatenate(parts))
        return sums


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


class BFFCurve:
    """Grid evaluations of a BFF plus its refined maximum and BF=1 crossings.

    omegas and log_bfs are read-only arrays of the grid and its ln BF10
    values. log_bf_fn is the exact function they sample, mapping an array of
    omegas to ln BF10; refinement and crossing searches evaluate it directly
    rather than interpolating. max_log_bf, argmax_omega and crossings, unless
    given, are refined on first read and cached; the first threshold_crossings
    of a curve not yet refined refines them in the same rounds.
    """

    def __init__(
        self, omegas: np.ndarray, log_bfs: np.ndarray, max_log_bf: float | None = None,
        argmax_omega: float | None = None, crossings: tuple[float, ...] | None = None,
        label: str = "", log_bf_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.omegas, self.log_bfs, self.label, self.log_bf_fn = omegas, log_bfs, label, log_bf_fn
        self._refined = None if crossings is None else (max_log_bf, argmax_omega, crossings)

    def _summary(self) -> tuple[float, float, tuple[float, ...]]:
        if self._refined is None:
            threshold_crossings(self, ())
        return self._refined

    max_log_bf = property(lambda self: self._summary()[0])
    argmax_omega = property(lambda self: self._summary()[1])
    crossings = property(lambda self: self._summary()[2])

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The grid as (omega, ln BF10) pairs of floats."""
        return tuple(zip(self.omegas.tolist(), self.log_bfs.tolist()))


def _refine(
    omegas: np.ndarray,
    log_bfs: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    thresholds: Sequence[float] = (),
    maximum: bool = True,
) -> tuple[tuple[float, float] | None, list[tuple[float, ...]]]:
    """The refined argmax and maximum of fn, and its crossings of each threshold.

    One k-section loop refines every bracket to at most 1e-6 wide, or until a
    round does not narrow it; each round evaluates every open one in one call
    to fn, and no bracket sees another's points. The maximum's bracket spans the
    neighbours of the best grid point; each round samples its ends and _K
    points between them and keeps the neighbours of the best one. The result
    is never below the best grid value, so a monotone curve keeps its boundary
    argmax. Crossings are bracketed by adjacent grid points where
    fn - threshold changes sign strictly, so a grid point on the threshold
    (notably omega = 0, where every curve starts at ln BF = 0) is not one. Each round samples _K interior
    points and keeps the first sub-interval whose sign changes; a sample
    exactly on the threshold closes its bracket there.
    """
    which, start, side = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    # one grid-sized scan per level: a levels x grid scan raises the peak memory of a large grid
    for i, level in enumerate(thresholds):
        sign = np.sign(log_bfs - level)
        at = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        which.append(np.full(at.size, i))
        start.append(at)
        side.append(sign[at])
    which, start, side = np.concatenate(which), np.concatenate(start), np.concatenate(side)
    lo, hi = omegas[start], omegas[start + 1]
    # side: the sign at lo, kept throughout
    level, side = np.asarray(thresholds, dtype=float)[which, None], side[:, None]
    if maximum:
        best = int(np.argmax(log_bfs))
        a = omegas[max(best - 1, 0)]
        b = omegas[min(best + 1, len(omegas) - 1)]
    # far from 0, adjacent doubles can lie more than 1e-6 apart
    last, refining = np.full(len(start), np.inf), maximum
    while True:
        width = hi - lo
        open_, last = (width > _REFINE_TOL) & (width < last), width
        refining = refining and b - a > _REFINE_TOL
        rows = open_.nonzero()[0]
        if not (refining or rows.size):
            break
        xs = a + (b - a) * _SPREAD if refining else _SPREAD[:0]
        n_max = xs.size
        if rows.size:  # each open crossing bracket's ends and _K points between
            ends = lo[rows, None] + width[rows, None] * _SPREAD
            ends[:, -1] = hi[rows]
            xs = np.concatenate([xs, ends[:, 1:-1].ravel()])
        values = fn(xs)
        if refining:
            j = int(values[:n_max].argmax())
            a, b, span = xs[max(j - 1, 0)], xs[min(j + 1, _K + 1)], b - a
            refining = b - a < span
        if rows.size:
            # (fn - threshold) * side at each bracket's samples, positive at lo, then -1 for hi
            h = np.full((rows.size, _K + 1), -1.0)
            np.multiply(values[n_max:].reshape(-1, _K) - level[rows], side[rows], out=h[:, :-1])
            j = (h <= 0).argmax(axis=1)  # the first sample on the threshold or across it, else hi
            at = np.arange(rows.size)
            hi[rows] = new_hi = ends[at, j + 1]
            lo[rows] = np.where(h[at, j] == 0, new_hi, ends[at, j])
    mids = (0.5 * (lo + hi)).tolist()
    crossings = [tuple(m for m, w in zip(mids, which) if w == i) for i in range(len(thresholds))]
    if not maximum:
        return None, crossings
    omega = 0.5 * (a + b)
    value = float(fn(np.array([omega]))[0])
    if value >= log_bfs[best]:
        return (float(omega), value), crossings
    return (float(omegas[best]), float(log_bfs[best])), crossings


def refine_max(
    omegas: np.ndarray, log_bfs: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """The argmax and maximum of fn, refined to 1e-6 around the best grid point."""
    return _refine(omegas, log_bfs, fn)[0]


def threshold_crossings(curve: BFFCurve, log_thresholds: Sequence[float]) -> list[tuple]:
    """The omegas where the curve crosses each ln BF10 threshold, in one pass.

    A curve not yet refined refines its maximum and BF = 1 crossings in the same rounds, on
    the function without its grid checks: the grid passed them, and every point lies inside it.
    """
    if curve._refined is not None:
        return _refine(curve.omegas, curve.log_bfs, curve.log_bf_fn, log_thresholds, False)[1]
    fn = getattr(curve.log_bf_fn, "unchecked", curve.log_bf_fn)
    levels = (0.0, *log_thresholds)
    (argmax, top), (crossings, *found) = _refine(curve.omegas, curve.log_bfs, fn, levels)
    curve._refined = (top, argmax, crossings)
    return found


def _build_curve(fn: _StudySum, grid: EffectGrid, label: str) -> BFFCurve:
    omegas = grid.omegas()
    log_bfs = fn(omegas)
    if not np.all(np.isfinite(log_bfs)):
        raise FloatingPointError("ln BF10 is not finite at some grid point")
    omegas.flags.writeable = False
    log_bfs.flags.writeable = False
    return BFFCurve(omegas, log_bfs, label=label, log_bf_fn=fn)


class Sweep(NamedTuple):
    """A study's ln BF10 on a grid and nothing refined: all a per-study export series reads."""
    omegas: np.ndarray
    log_bfs: np.ndarray
    label: str = ""


def sweep(study: Study, grid: EffectGrid) -> Sweep:
    """The study's read-only grid values, in one evaluation and unchecked for finiteness:
    callers first run the combine that includes the study, whose check covers them."""
    omegas = grid.omegas()
    log_bfs = _StudySum((study,))(omegas)
    omegas.flags.writeable = log_bfs.flags.writeable = False
    return Sweep(omegas, log_bfs, study.label)


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
    return list(threshold_crossings(curve, (threshold_log_bf,))[0])
