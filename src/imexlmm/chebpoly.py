"""First-kind Chebyshev series: evaluation, differentiation, global minimum.

The energy machinery reduces to locating the minimum of a low-degree series
on [-1, 1].  The kernel is ``numpy.polynomial.chebyshev``: ``chebval``
evaluates, ``chebder`` differentiates, and ``chebroots`` returns the
stationary points as the eigenvalues of the colleague matrix of the
differentiated series, after dropping its exactly-zero trailing coefficients
(the rule of ``chebtrim(..., tol=0)``).  The minimum is taken over the real
in-interval stationary points and the interval endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

__all__ = [
    "ChebSeries",
    "MinResult",
    "evaluate",
    "derivative_coeffs",
    "global_min",
    "global_minima",
]

# Acceptance tolerances for eigenvalue-based roots: a candidate is real when
# |Im| <= REAL_TOL * max(1, |Re|), in-interval up to INTERVAL_TOL and then
# clamped, and duplicates within CLUSTER_TOL are merged.
REAL_TOL = 1e-8
INTERVAL_TOL = 1e-10
CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class ChebSeries:
    """Coefficients s_0..s_{k-1} of sum_m s_m T_m(x)."""

    s: tuple

    def __post_init__(self):
        if len(self.s) < 1:
            raise ValueError("series needs at least one coefficient")
        object.__setattr__(self, "s", tuple(float(v) for v in self.s))

    @property
    def k(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class MinResult:
    min_value: float
    argmin: float
    critical_points: tuple


def evaluate(series: ChebSeries, x):
    """Value of the series at x in [-1, 1] (scalar or array)."""
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + INTERVAL_TOL):
        raise ValueError("evaluation point outside [-1, 1]")
    out = cheb.chebval(xa, series.s)
    return float(out) if out.ndim == 0 else out


def derivative_coeffs(series: ChebSeries) -> ChebSeries:
    """Coefficients of d/dx in the same basis, with the series' length k.

    The series is padded with one trailing zero before differentiating, so
    the result keeps length k and ends in an exact zero.
    """
    return ChebSeries(tuple(cheb.chebder((*series.s, 0.0))))


def _accepted(roots):
    """Mask of the eigenvalues taken as real stationary points in [-1, 1]."""
    re = np.abs(roots.real)
    return (np.abs(roots.imag) <= REAL_TOL * np.maximum(1.0, re)) & (re <= 1.0 + INTERVAL_TOL)


def _stationary_points(s: tuple) -> list:
    roots = cheb.chebroots(cheb.chebder(s))
    inside = np.clip(roots.real[_accepted(roots)], -1.0, 1.0)
    merged = []
    for p in np.sort(inside):
        if not merged or p - merged[-1] > CLUSTER_TOL:
            merged.append(float(p))
    return merged


def global_min(series: ChebSeries) -> MinResult:
    """Global minimum of the series on [-1, 1].

    Candidates are the real in-interval colleague eigenvalues of the
    derivative plus the endpoints.  ``chebroots`` drops exactly-zero trailing
    coefficients of the derivative, so a constant series has the endpoints
    as its only candidates and reports its value at argmin -1, the first
    of two equal values.
    """
    candidates = [-1.0, *_stationary_points(series.s), 1.0]
    values = cheb.chebval(candidates, series.s)
    best = int(np.argmin(values))
    return MinResult(
        min_value=float(values[best]),
        argmin=candidates[best],
        critical_points=tuple(candidates),
    )


def global_minima(series) -> np.ndarray:
    """``global_min`` values of the rows of an (n, k) stack, with the roots
    ``chebroots`` takes: -d0/d1 or none below degree 2, else one stacked
    ``eigvals`` of colleague matrices (close points are not merged).  Rows
    whose derivative ends in an exact zero go through ``global_min``."""
    s = np.asarray(series, dtype=float)
    k = s.shape[1]
    d = cheb.chebder(s, axis=1)
    full = d[:, -1] != 0
    mins = np.array([np.nan if f else global_min(ChebSeries(r)).min_value for r, f in zip(s, full)])
    if full.any():
        d, deg = d[full], k - 2
        if deg >= 2:
            # the colleague matrix of T_deg, then chebcompanion's last column
            mats = np.repeat(cheb.chebcompanion(np.eye(deg + 1)[deg])[None], len(d), axis=0)
            scl = np.array([1.0] + [np.sqrt(0.5)] * (deg - 1))
            mats[:, :, -1] -= (d[:, :-1] / d[:, -1:]) * (scl / scl[-1]) * 0.5
            roots = np.linalg.eigvals(mats[:, ::-1, ::-1])
        else:
            roots = -d[:, :deg] / d[:, deg:]
        x = np.where(_accepted(roots), np.clip(roots.real, -1.0, 1.0), -1.0)
        x = np.concatenate([x, np.broadcast_to([-1.0, 1.0], (len(d), 2))], axis=1)
        mins[full] = cheb.chebval(x.T, s[full].T, tensor=False).min(axis=0)
    return mins
