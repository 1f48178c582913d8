"""Foundation numerics: log-gamma, log-beta, quadrature, and series summation.

Everything downstream (priors, Bayes factors, the verification oracle) works
in log space, so the primitives here are the log-space special functions plus
two guarded reducers: an adaptive quadrature wrapper that refuses to return a
result whose error estimate exceeds the requested tolerance, and a series
summer with an explicit truncation policy. Importing it loads no scipy:
`quad` and `ive` load on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


def __getattr__(name: str):
    """Import quad and scalar ive = I_nu(x) e^-x (Amos 1986, ACM TOMS 644) as globals (PEP 562)."""
    if name not in ("quad", "ive"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad
    from scipy.special.cython_special import ive

    globals().update(quad=quad, ive=ive)
    return globals()[name]


class IntegrationError(ArithmeticError):
    """Quadrature failed to converge or the integrand misbehaved."""


class SeriesError(ArithmeticError):
    """Series truncation policy exhausted max_terms without converging."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and effort budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if self.abs_tol <= 0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


@dataclass(frozen=True)
class SeriesSpec:
    """Truncation policy for infinite series.

    Summation stops once |term| < term_rel_cutoff * |partial sum|, but never
    before min_terms terms have been consumed.
    """

    term_rel_cutoff: float = 1e-15
    min_terms: int = 10
    max_terms: int = 100000

    def __post_init__(self) -> None:
        if not 0 < self.term_rel_cutoff < 1:
            raise ValueError(
                f"term_rel_cutoff must be in (0, 1), got {self.term_rel_cutoff}"
            )
        if self.min_terms < 1:
            raise ValueError(f"min_terms must be >= 1, got {self.min_terms}")
        if self.min_terms > self.max_terms:
            raise ValueError(
                f"min_terms ({self.min_terms}) exceeds max_terms ({self.max_terms})"
            )


DEFAULT_QUADRATURE = QuadratureSpec()
DEFAULT_SERIES = SeriesSpec()


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_beta(a: float, b: float) -> float:
    """Natural log of the beta function B(a, b) for a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError(f"log_beta requires positive arguments, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def integrate(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    breakpoints: list[float] | None = None,
) -> float:
    """Adaptive quadrature of f over (lower, upper); endpoints may be infinite.

    breakpoints, valid only for finite intervals, force initial subdivisions
    there; pass the location of a sharp interior peak so it cannot slip
    between the first quadrature nodes.

    Raises IntegrationError if f returns NaN, the subdivision budget runs out,
    or the reported error estimate exceeds max(abs_tol, rel_tol * |result|).
    """

    def guarded(x: float) -> float:
        y = f(x)
        if math.isnan(y):
            raise IntegrationError(f"integrand returned NaN at x={x}")
        return y

    inside = None
    if breakpoints is not None:
        inside = [x for x in breakpoints if lower < x < upper]
        if inside and (math.isinf(lower) or math.isinf(upper)):
            raise ValueError("breakpoints require finite integration bounds")
    if "quad" not in globals():
        __getattr__("quad")
    out = quad(  # the module global, which a tracer may have replaced
        guarded,
        lower,
        upper,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
        points=inside or None,
    )
    if len(out) > 3:
        # scipy's first sentence, wrapped over lines, names the failure; the rest is advice
        first = " ".join(out[3].split()).split(". ")[0].rstrip(".")
        raise IntegrationError(f"quadrature on ({lower}, {upper}) failed: {first}")
    result, err_estimate = out[0], out[1]
    if err_estimate > max(spec.abs_tol, spec.rel_tol * abs(result)):
        raise IntegrationError(
            f"quadrature error estimate {err_estimate:g} exceeds tolerance "
            f"(result {result:g})"
        )
    return result


def sum_series(term: Callable[[int], float], spec: SeriesSpec = DEFAULT_SERIES) -> float:
    """Sum term(0) + term(1) + ... under the truncation policy in spec.

    Raises SeriesError if max_terms terms fail to satisfy the relative cutoff.
    """
    total = 0.0
    for i in range(spec.max_terms):
        t = term(i)
        total += t
        if i + 1 >= spec.min_terms and abs(t) < spec.term_rel_cutoff * abs(total):
            return total
    raise SeriesError(
        f"series did not meet cutoff {spec.term_rel_cutoff:g} "
        f"within {spec.max_terms} terms"
    )
