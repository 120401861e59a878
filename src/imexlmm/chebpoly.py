"""First-kind Chebyshev series: evaluation, differentiation, global minimum.

The energy machinery reduces to locating the minimum of a low-degree series
on [-1, 1].  The kernel is ``numpy.polynomial.chebyshev``: ``chebval``
evaluates and ``chebder`` differentiates.  One candidate routine serves a
stack of series: each row's candidates are the endpoints and the real
in-interval roots of its derivative, taken as ``chebroots`` takes them
(exactly-zero trailing coefficients dropped first, the rule of
``chebtrim(..., tol=0)``, then the colleague matrix's eigenvalues).  Close
roots are not merged, so a multiple stationary point counts once per
computed root, and a stationary point clipped onto an endpoint sits beside
that endpoint.  The minimum is the least value over the candidates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

__all__ = [
    "ChebSeries",
    "MinResult",
    "evaluate",
    "global_min",
    "global_minima",
]

# Acceptance tolerances for eigenvalue-based roots: a candidate is real when
# |Im| <= REAL_TOL * max(1, |Re|), and in-interval up to INTERVAL_TOL, after
# which it is clamped to [-1, 1].
REAL_TOL = 1e-8
INTERVAL_TOL = 1e-10


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
    """Least value over the candidates, its first point, and the candidates
    in ascending order: -1, each accepted derivative root, 1.  Roots are not
    merged, and a root clipped to +-1 repeats that endpoint."""

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


def _accepted(roots):
    """Mask of the eigenvalues taken as real stationary points in [-1, 1]."""
    re = np.abs(roots.real)
    return (np.abs(roots.imag) <= REAL_TOL * np.maximum(1.0, re)) & (re <= 1.0 + INTERVAL_TOL)


@functools.lru_cache(maxsize=None)
def _colleague(g: int):
    """Read-only colleague matrix of T_g and chebcompanion's column scale scl / scl[-1]."""
    scl = np.array([1.0] + [np.sqrt(0.5)] * (g - 1))
    base, ratio = cheb.chebcompanion(np.eye(g + 1)[g]), scl / scl[-1]
    base.flags.writeable = ratio.flags.writeable = False
    return base, ratio


def _candidates(s: np.ndarray) -> np.ndarray:
    """Candidate points of the rows of an (n, k) stack: -1, the derivative
    roots ``chebroots`` takes (accepted and clipped, NaN where rejected), 1.

    The derivative's exact trailing zeros are trimmed first, and rows are
    grouped by trimmed degree: degree 1 has the root -d0/d1, degree 2 and up
    the eigenvalues of its colleague matrix, one stacked ``eigvals`` a group.
    """
    d = cheb.chebder(s, axis=1)
    nonzero = d != 0
    deg = np.where(nonzero.any(axis=1), d.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    x = np.full((len(s), d.shape[1] + 1), np.nan)
    x[:, 0], x[:, -1] = -1.0, 1.0
    for g in set(deg.tolist()) - {0}:
        rows = deg == g
        dg = d[rows, : g + 1]
        if g == 1:
            roots = -dg[:, :1] / dg[:, 1:]
        else:
            base, ratio = _colleague(g)  # np.repeat copies the read-only base
            mats = np.repeat(base[None], len(dg), axis=0)
            mats[:, :, -1] -= (dg[:, :-1] / dg[:, -1:]) * ratio * 0.5  # chebcompanion's last column
            roots = np.linalg.eigvals(mats[:, ::-1, ::-1])
        x[rows, 1 : g + 1] = np.where(_accepted(roots), np.clip(roots.real, -1.0, 1.0), np.nan)
    return x


def global_min(series: ChebSeries) -> MinResult:
    """Global minimum of the series on [-1, 1]: the one-row case of
    ``global_minima``, with the candidates in ascending order and the first
    (leftmost) of equal values as argmin.  A constant series has the
    endpoints as its only candidates and reports argmin -1."""
    x = _candidates(np.array([series.s]))[0]
    x = np.sort(x[~np.isnan(x)])
    values = cheb.chebval(x, series.s)
    best = int(np.argmin(values))
    return MinResult(
        min_value=float(values[best]),
        argmin=float(x[best]),
        critical_points=tuple(x.tolist()),
    )


def global_minima(series) -> np.ndarray:
    """``global_min`` values of the rows of an (n, k) stack: the least value
    over each row's candidates, one stacked ``chebval``."""
    s = np.asarray(series, dtype=float)
    x = _candidates(s)
    return np.nanmin(cheb.chebval(x.T, s.T, tensor=False), axis=0)
