"""Classical linear stability of IMEX multistep schemes.

The split test equation y' = lambda_I y + lambda_E y with z_I = tau*lambda_I
treated implicitly and z_E = tau*lambda_E explicitly yields the characteristic
equation rho(xi) - z_I sigma(xi) - z_E sigma_hat(xi) = 0.  A point (z_I, z_E)
is stable when that polynomial satisfies the root condition: all roots in the
closed unit disk, boundary roots simple.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

import numpy as np
from numpy.polynomial import polynomial as P

from .schemes import SchemeCoefficients

__all__ = [
    "CharPolys",
    "RootConditionResult",
    "RegionSlice",
    "UndefinedAngleError",
    "char_polys",
    "root_condition",
    "region_slice",
    "stability_angle",
]

ROOT_TOL = 1e-7        # |xi| <= 1 + ROOT_TOL counts as inside
BOUNDARY_BAND = 1e-7   # |xi| >= 1 - BOUNDARY_BAND counts as boundary
CLUSTER_RADIUS = 1e-6  # two boundary roots closer than this are non-simple
ROOT_MARGIN = 1e-6     # roots this close to |xi| = 1 are left to eigenvalues
SCHUR_COHN_BAND = 1e-9  # relative |delta| at or below this is undecided
POINT_BLOCK = 4096      # points per recursion batch; keeps it in cache
LEAD_TOL = 1e-14        # |a_n| <= LEAD_TOL * max|a| drops the polynomial's degree
CROSSING_TOL = 1e-3     # locus-crossing roots this close to |xi| = 1 count as on it
FLAT_LEAD = 1e-10       # a crossing polynomial with a smaller relative lead is degenerate
LOCUS_TOL = 1e-9        # locus points with |rho| or |sigma| <= LOCUS_TOL * sum|coeffs| are dropped


class UndefinedAngleError(ValueError):
    """Sector angle requested for a scheme that is not zero-stable."""


@dataclass(frozen=True)
class CharPolys:
    """Characteristic polynomials rho, sigma, sigma_hat (exact, descending)."""

    rho: tuple
    sigma: tuple
    sigma_hat: tuple

    def as_arrays(self):
        return (
            np.array([float(c) for c in self.rho]),
            np.array([float(c) for c in self.sigma]),
            np.array([float(c) for c in self.sigma_hat]),
        )


def char_polys(s: SchemeCoefficients) -> CharPolys:
    """rho = sum A_i xi^(k-i), sigma = sum B_i xi^(k-i),
    sigma_hat = sum_{i>=1} Bhat_i xi^(k-i)."""
    return CharPolys(
        rho=tuple(s.A),
        sigma=tuple(s.B),
        sigma_hat=(Fraction(0),) + tuple(s.Bhat),
    )


@dataclass(frozen=True)
class RootConditionResult:
    zero_stable: bool
    roots: np.ndarray
    violations: tuple


def _significant(coeffs: np.ndarray) -> np.ndarray:
    """Mask of the coefficients above LEAD_TOL times their row's largest
    modulus; leading entries outside it drop the row's degree.  The row
    maximum is a fold over the few columns, not a reduction along the short
    axis, which costs ten times as much on a tall block."""
    mags = np.abs(coeffs)
    return mags > LEAD_TOL * functools.reduce(np.maximum, mags.T)[:, None]


def _degrees(coeffs: np.ndarray) -> np.ndarray:
    """Degree of each row (descending) once its leading near-zeros are
    trimmed; -1 for an all-zero row."""
    keep = _significant(coeffs)
    return np.where(keep.any(axis=1), keep.shape[1] - 1 - np.argmax(keep, axis=1), -1)


def _companion_roots(rows: np.ndarray):
    """Roots of rows of one degree (descending, nonzero lead) from one
    stacked ``eigvals`` of companion matrices in the rows' dtype, with the
    mask of roots outside the closed disk and the mask of root pairs (i < j)
    on the boundary that sit too close to be simple."""
    d = rows.shape[1] - 1
    comp = np.zeros((len(rows), d, d), dtype=rows.dtype)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, 0, :] = -(rows[:, 1:] / rows[:, :1])
    roots = np.linalg.eigvals(comp)
    moduli = np.abs(roots)
    boundary = moduli >= 1.0 - BOUNDARY_BAND
    close = np.abs(roots[:, :, None] - roots[:, None, :]) < CLUSTER_RADIUS
    pairs = boundary[:, :, None] & boundary[:, None, :] & ~np.tri(d, dtype=bool)
    return roots, moduli > 1.0 + ROOT_TOL, pairs & close


def root_condition(coeffs) -> RootConditionResult:
    """Root condition for a complex-coefficient polynomial (descending): the
    one-row case of the companion routine.

    Leading near-zeros (relative LEAD_TOL) are trimmed: the degree degenerates
    continuously as the implicit weight grows; a degree-0 polynomial is
    vacuously stable.
    """
    c = np.asarray(coeffs, dtype=complex)[None]
    d = int(_degrees(c)[0])
    if d < 0:
        raise ValueError("zero polynomial has no root condition")
    if d == 0:
        return RootConditionResult(True, np.empty(0, dtype=complex), ())
    roots, outside, repeated = (a[0] for a in _companion_roots(c[:, -d - 1:]))
    violations = [f"root {r:.6g} has modulus {abs(r):.9g} > 1" for r in roots[outside]]
    violations += [f"repeated boundary root near {roots[i]:.6g}" for i in np.nonzero(repeated)[0]]
    return RootConditionResult(not violations, roots, tuple(violations))


def _eigen_stable(coeffs: np.ndarray) -> np.ndarray:
    """Root condition per row (descending) from companion eigenvalues, one
    stacked call per trimmed degree: a constant row is stable, an all-zero
    row, which has every xi as a root, unstable."""
    deg = _degrees(coeffs)
    stable = deg == 0
    for d in set(deg.tolist()) - {-1, 0}:
        rows = deg == d
        _, outside, repeated = _companion_roots(coeffs[rows, -d - 1:])
        stable[rows] = ~outside.any(axis=1) & ~repeated.any(axis=(1, 2))
    return stable


def _schur_cohn(cols: np.ndarray):
    """Batched Schur-Cohn test over descending coefficient columns: masks
    (every root inside the unit circle, some root outside the closed disk).

    Each step maps p (leading a_n, constant a_0) to (conj(a_n) p - a_0 p*)/z,
    rescaled, of one degree less and leading delta = |a_n|^2 - |a_0|^2.  By
    Rouche, delta > 0 keeps the roots on and outside the circle and delta < 0
    leaves one outside; a delta within the band decides neither.
    """
    p = cols
    inside = np.ones(cols.shape[1], dtype=bool)
    outside = np.zeros_like(inside)
    while len(p) > 1:
        an, a0 = p[0], p[-1]
        an2, a02 = an.real**2 + an.imag**2, a0.real**2 + a0.imag**2
        delta, band = an2 - a02, SCHUR_COHN_BAND * (an2 + a02)
        outside |= inside & (delta < -band)
        inside &= delta > band
        scale = 1.0 / np.maximum(np.sqrt(an2) + np.sqrt(a02), 1e-300)
        p = (an.conj() * scale) * p[:-1] - (a0 * scale) * p[:0:-1].conj()
    return inside, outside


def _rows_stable(coeffs: np.ndarray) -> np.ndarray:
    """Root condition per row: Schur-Cohn on p((1 +- ROOT_MARGIN) z), then
    eigenvalues for roots near the circle and degenerate leading terms."""
    cols = coeffs.T
    powers = np.arange(len(cols) - 1, -1, -1)[:, None]
    below, above = _schur_cohn(cols * (1.0 + ROOT_MARGIN) ** powers)
    stable = np.zeros_like(below)
    stable[below] = _schur_cohn(cols[:, below] * (1.0 - ROOT_MARGIN) ** powers)[0]
    rest = ~(stable | above) | ~_significant(coeffs)[:, 0]
    if rest.any():
        stable[rest] = _eigen_stable(coeffs[rest])
    return stable


def _points_stable(rho, sigma, sigma_hat, zi, ze):
    """Vectorized root condition over arrays of (z_I, z_E) pairs."""
    zi = np.asarray(zi, dtype=complex).ravel()
    ze = np.asarray(ze, dtype=complex).ravel()
    stable = np.empty(len(zi), dtype=bool)
    for start in range(0, len(zi), POINT_BLOCK):
        part = slice(start, start + POINT_BLOCK)
        stable[part] = _rows_stable(
            rho[None, :]
            - zi[part, None] * sigma[None, :]
            - ze[part, None] * sigma_hat[None, :]
        )
    return stable


@dataclass(frozen=True)
class RegionSlice:
    """Boolean stability mask over a rectangle of the scanned variable."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    mask: np.ndarray  # shape (len(im_axis), len(re_axis))

    def rows(self):
        """(x, y, stable) triples, row-major over the grid."""
        for i, y in enumerate(self.im_axis):
            for j, x in enumerate(self.re_axis):
                yield float(x), float(y), bool(self.mask[i, j])


def _cayley(p) -> np.ndarray:
    """(1 - it)^n p(xi) at xi = (1 + it) / (1 - it), p of formal degree n, both
    descending: real t covers the unit circle but xi = -1 (t = infinity)."""
    n = len(p) - 1
    basis = [P.polymul(P.polypow([1, 1j], n - i), P.polypow([1, -1j], i))[::-1]
             for i in range(n + 1)]
    return np.asarray(p) @ np.array(basis)


def _locus_breaks(num, den, ys):
    """Re z where each row Im z = y may cross the locus num(xi) / den(xi), |xi| = 1
    (NaN: none), and the rows whose crossing polynomial is degenerate.  The crossings
    are the unit-circle roots of C_y = (R - rev(conj R)) / 2i - y S, R = num rev(conj
    den), S = den rev(conj den), real in t after ``_cayley``.  Roots within CROSSING_TOL
    of the circle, xi = +-1 and num_0 / den_0 all count: a spare break costs a few points."""
    r, s = (np.convolve(p, den.conj()[::-1]) for p in (num, den))
    t = _cayley((r - r.conj()[::-1]) / 2j).real - ys[:, None] * _cayley(s).real
    flat = ~(np.abs(t[:, 0]) > FLAT_LEAD * np.abs(t).max(axis=1))  # NaN too
    breaks = np.full((len(ys), t.shape[1] + 2), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = _companion_roots(t[~flat])[0]
        xi = (1 + 1j * roots) / (1 - 1j * roots)
        xi = np.where(np.abs(np.abs(xi) - 1.0) <= CROSSING_TOL, xi / np.abs(xi), np.nan)
        breaks[~flat, :-3] = (np.polyval(num, xi) / np.polyval(den, xi)).real
        always = np.r_[np.polyval(num, [1, -1]), num[0]] / np.r_[np.polyval(den, [1, -1]), den[0]]
        breaks[:, -3:] = always.real
    return breaks, flat


def region_slice(
    s: SchemeCoefficients,
    plane: str,
    fixed_value: complex = 0j,
    window=(-15.0, 5.0, -10.0, 10.0),
    resolution=(400, 400),
) -> RegionSlice:
    """Scan one two-dimensional slice of the IMEX stability region.

    plane = "implicit" scans z_I with z_E = 0; "explicit" scans z_E with
    z_I = 0; "imex" scans z_E with z_I = fixed_value: the roots of P - z Q,
    (P, Q) = (rho, sigma), (rho, sigma_hat) or (rho - z_I sigma, sigma_hat).
    A verdict changes along a row only where a root crosses |xi| = 1 + ROOT_TOL,
    on that circle's locus z = P(xi) / Q(xi) (Hairer & Wanner, Solving ODEs II,
    V.1), or at the degree drop P_0 / Q_0.  One stacked ``eigvals`` finds these
    breaks; each run between them takes its middle point's verdict, while its
    end points and degenerate rows are decided point by point."""
    if plane not in ("implicit", "explicit", "imex"):
        raise ValueError(f"unknown plane {plane!r}")
    n_re, n_im = (resolution, resolution) if np.isscalar(resolution) else resolution
    if n_re < 2 or n_im < 2:
        raise ValueError("resolution must be at least 2 per axis")
    re_axis = np.linspace(window[0], window[1], n_re)
    im_axis = np.linspace(window[2], window[3], n_im)
    rho, sigma, sigma_hat = char_polys(s).as_arrays()
    fixed = complex(fixed_value) if plane == "imex" else 0j
    num, den = (rho, sigma) if plane == "implicit" else (rho - fixed * sigma, sigma_hat)
    radius = (1.0 + ROOT_TOL) ** np.arange(len(rho) - 1, -1, -1)
    breaks, flat = _locus_breaks(num * radius, den * radius, im_axis)
    first = flat[:, None] | (np.arange(n_re + 1) == 0)  # first[:, j]: a run starts at column j
    rising = 1.0 if window[1] >= window[0] else -1.0  # searchsorted needs a rising axis
    np.put_along_axis(first, np.searchsorted(rising * re_axis, rising * breaks, side="right"),
                      True, axis=1)
    first = first[:, :-1].ravel()
    starts, ends = np.flatnonzero(first), np.flatnonzero(np.append(first[1:], True))
    mids = (starts + ends) // 2
    tested = np.unique(np.concatenate([starts, ends, mids]))
    z = re_axis[tested % n_re] + 1j * im_axis[tested // n_re]
    zi, ze = (z, np.zeros_like(z)) if plane == "implicit" else (np.full_like(z, fixed), z)
    verdict = _points_stable(rho, sigma, sigma_hat, zi, ze)
    mask = np.repeat(verdict[np.searchsorted(tested, mids)], ends - starts + 1)
    mask[tested] = verdict
    return RegionSlice(re_axis=re_axis, im_axis=im_axis, mask=mask.reshape(n_im, n_re))


def _exact_gcd(p, q) -> np.ndarray:
    """Monic gcd of two exact polynomials (ascending object arrays), by Euclid."""
    while any(q):
        p, q = q, P.polydiv(p, q)[1]
    p = np.trim_zeros(p, "b")
    return p / p[-1]


def _roots_off_one(p) -> np.ndarray:
    """Float roots of an exact polynomial (descending) once its roots at
    xi = 0 are trimmed and those at xi = 1 divided out by exact synthetic
    division."""
    p = list(np.trim_zeros(p))
    while len(p) > 1 and sum(p) == 0:
        p = list(accumulate(p[:-1]))
    return np.roots(np.array(p, dtype=float))


def stability_angle(s: SchemeCoefficients) -> float:
    """A(alpha) angle in degrees, capped at 90: the largest alpha such that
    every implicit point z_I = -r e^{i phi}, |phi| < alpha, is stable.

    It is 0 unless sigma passes the root condition (the r -> infinity limit)
    and z_I = -1 is stable, else the least pi - |arg z| over the boundary
    locus z = rho(xi) / sigma(xi), |xi| = 1 (Hairer & Wanner, Solving ODEs
    II, V.2) of rho and sigma divided by their exact gcd.  That least value
    sits at a stationary point of arg z, a root of Re(xi (rho' sigma - rho
    sigma') conj(rho sigma)), or on the real axis, a root of Im(rho
    conj(sigma)); both are exact integer polynomials, whose roots at xi = 1
    (z -> 0, limit 90 degrees) are divided out exactly.  Each root,
    projected onto the circle, is a locus point, so roots off the circle
    never undercut the minimum; points where rho or sigma vanish drop.  At
    a unit-circle root xi0 != 1 of rho (sigma), both passing the root
    condition, the locus passes through 0 (infinity) along the one-sided
    limits +-i xi0 rho'(xi0) / sigma(xi0) (+-rho(xi0) / (i xi0 sigma'(xi0))).
    """
    rho, sigma, _ = char_polys(s).as_arrays()
    # rho + sigma is the characteristic polynomial at z_I = -1
    rho_ok, sigma_ok, minus_one_ok = _eigen_stable(np.array([rho, sigma, rho + sigma]))
    if not rho_ok:
        raise UndefinedAngleError("scheme is not zero-stable")
    if not (sigma_ok and minus_one_ok):
        return 0.0
    exact = [np.array(p[::-1], dtype=object) for p in (s.A, s.B)]  # ascending, exact
    g = _exact_gcd(*exact)
    rho_x, sigma_x = (list(P.polydiv(p, g)[0][::-1]) for p in exact)
    if len(rho_x) == 1:     # rho = c sigma: the locus is the one point z = c
        return 90.0 if rho_x[0] / sigma_x[0] > 0 else 0.0
    rho, sigma = (np.array([float(c) for c in x]) for x in (rho_x, sigma_x))
    scale = lcm(*(c.denominator for c in rho_x + sigma_x))
    ri, si = (np.array([int(c * scale) for c in x], dtype=object) for x in (rho_x, sigma_x))
    wronskian = np.convolve(np.polyder(ri), si) - np.convolve(ri, np.polyder(si))
    y = np.convolve(np.convolve(np.append(wronskian, 0), ri[::-1]), si[::-1])
    crossing = np.convolve(ri, si[::-1]) - np.convolve(si, ri[::-1])
    roots = np.concatenate([_roots_off_one(p) for p in (y + y[::-1], crossing)])
    xi = roots / np.abs(roots)
    at_rho, at_sigma = np.polyval(rho, xi), np.polyval(sigma, xi)
    keep = np.minimum(abs(at_rho) / abs(rho).sum(), abs(at_sigma) / abs(sigma).sum()) > LOCUS_TOL
    directions = [at_rho[keep] * at_sigma[keep].conj()]
    for x, p, q, power in ((rho_x, rho, sigma, 1), (sigma_x, sigma, rho, -1)):
        x = np.array(x, dtype=object)   # gcd(x, reversed x): x's roots on the circle
        xi0 = _roots_off_one(_exact_gcd(x[::-1], x)[::-1])
        xi0 /= np.abs(xi0)
        d = (1j * xi0 * np.polyval(np.polyder(p), xi0) / np.polyval(q, xi0)) ** power
        directions += [d, -d]
    gaps = np.pi - np.abs(np.angle(np.concatenate(directions)))
    return min(90.0, float(np.degrees(gaps.min(initial=np.pi))))
