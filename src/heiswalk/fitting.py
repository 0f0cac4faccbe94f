"""Least-squares fits used by the experiment drivers.

Power-law claims are checked through `fit_loglog` (log-log axes), so that
the acceptance suite and the CLI cannot disagree about what "the slope"
means; `fit_exponential` (log counts against n) serves only the R^2 of
the `eit-tail` linearity claim, since a geometric tail's ratio is the
pooled continuation ratio of `paths._fit_tail`.  Each returns a LineFit;
the claim verdicts are built from them in `cli._verdicts`.  Fewer than two
points, or a non-finite y, give a LineFit of NaNs and no numpy warning,
so a runner fits whatever it has and `cli._verdicts` calls the claim
inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["LineFit", "fit_loglog", "fit_exponential"]


@dataclass(frozen=True)
class LineFit:
    slope: float
    intercept: float
    r_squared: float


def _fit_line(x: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None) -> LineFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or not np.isfinite(y).all():
        return LineFit(np.nan, np.nan, np.nan)
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    if sxx == 0.0:
        raise ConfigError("degenerate fit: all x identical")
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    ss_res = (w * resid**2).sum()
    ss_tot = (w * (y - ybar) ** 2).sum()
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LineFit(float(slope), float(intercept), float(r2))


def fit_loglog(x, y) -> LineFit:
    """Fit log y = slope * log x + intercept.  All x, y must be positive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ConfigError("log-log fit needs positive data")
    return _fit_line(np.log(x), np.log(y))


def fit_exponential(n, counts, weights=None) -> LineFit:
    """Fit log counts = slope * n + intercept, optionally weighted."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts <= 0):
        raise ConfigError("exponential fit needs positive counts")
    return _fit_line(np.asarray(n, dtype=float), np.log(counts), weights)

