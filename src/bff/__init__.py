"""Bayes factor functions for z, t, chi-squared, and F statistics.

The package namespace holds the serving path: closed-form Bayes factors
indexed by standardized effect size, curves and their combination across
replicated studies, and exports; it needs numpy only. The verification path
lives in the modules that own it: `bff.oracle` recomputes every closed form
by direct integration, on top of `bff.numerics` (quadrature, series) and
`bff.priors` (the explicit prior densities). scipy loads on the first
quadrature, not when these modules are imported.
"""

from .bayes_factors import (
    Family,
    TestStatistic,
    log_bf,
    log_bf_chisq,
    log_bf_f,
    log_bf_t,
    log_bf_z,
)
from .curves import (
    BFFCurve,
    EffectGrid,
    Study,
    combine,
    evaluate_bff,
    find_crossings,
    refine_max,
)
from .effect_sizes import (
    Design,
    EffectSize,
    StudyDesign,
    Zone,
    rmses,
    statistic_family_for,
    tau2_for,
)
from .exports import CurveExport, build_export, emit, parse_csv, render

__version__ = "0.1.0"
