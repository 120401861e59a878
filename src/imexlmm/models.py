"""Gradient-flow model descriptions and the periodic Fourier grid.

A model is u_t = M(L u + f(u)) with M negative (semi-)definite and L PSD,
both diagonal in Fourier space and described here by their symbols as
functions of |xi|^2.  The built-in trio:

* Allen-Cahn:     M = -I,      L = -eps^2 Lap,        f(u) = u^3 - u
* Cahn-Hilliard:  M = Lap,     L = -eps^2 Lap,        f(u) = u^3 - u
* phase-field crystal: M = Lap, L = (I + Lap)^2 + I,  f(u) = u^3 - (eps+1) u

The cubic nonlinearities are not globally Lipschitz; certificates use the
constant of the truncated nonlinearity on [-R, R], valid while the solution
stays inside that interval.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple

import numpy as np

from .certify import ModelConstants, require_positive

__all__ = [
    "Grid",
    "ModelSpec",
    "HermitianViolationError",
    "allen_cahn",
    "cahn_hilliard",
    "pfc",
    "cubic_lipschitz_bound",
]

IMAG_RESIDUE_TOL = 1e-12


class HermitianViolationError(ArithmeticError):
    """Inverse transform of supposedly real data had a large imaginary part."""


class Grid:
    """Uniform periodic grid with cached wavenumber tables; immutable.

    shape gives points per axis (even, powers of two preferred), lengths the
    physical box sides.  Transforms are real-to-complex over the trailing
    ``dim`` axes: ``fft`` returns the half spectrum, whose last axis holds
    the n // 2 + 1 non-negative frequencies, and ``k2`` has that half shape.
    Inner products use the cell-volume-weighted sum, which is exact for
    trigonometric polynomials below the Nyquist limit.
    """

    shape: tuple
    lengths: tuple
    k2: np.ndarray
    npoints: int
    cell_volume: float
    # how often each stored mode occurs in the full spectrum: 1 on the
    # self-conjugate last-axis planes 0 and n/2, 2 elsewhere
    multiplicity: np.ndarray

    def __init__(self, shape, lengths):
        shape = tuple(shape)
        if not all(isinstance(n, numbers.Real) and math.isfinite(n) and n == int(n) for n in shape):
            raise ValueError(f"grid points per axis must be integers, got {shape!r}")
        shape = tuple(map(int, shape))
        lengths = tuple(require_positive("grid length", l) for l in lengths)
        if len(shape) != len(lengths):
            raise ValueError("shape and lengths must agree in dimension")
        if not 1 <= len(shape) <= 3:
            raise ValueError("only dimensions 1..3 are supported")
        if any(n < 2 or n % 2 for n in shape):
            raise ValueError("grid points per axis must be even and >= 2")
        axes = [
            2.0 * np.pi * np.fft.fftfreq(n, d=l / n)
            for n, l in zip(shape[:-1], lengths[:-1])
        ]
        axes.append(2.0 * np.pi * np.fft.rfftfreq(shape[-1], d=lengths[-1] / shape[-1]))
        mesh = np.meshgrid(*axes, indexing="ij")
        npoints = math.prod(shape)
        multiplicity = np.full(shape[-1] // 2 + 1, 2.0)
        multiplicity[[0, -1]] = 1.0
        self.__dict__.update(
            shape=shape, lengths=lengths, k2=sum(m ** 2 for m in mesh), npoints=npoints,
            cell_volume=math.prod(lengths) / npoints, multiplicity=multiplicity,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Grid")

    def __repr__(self) -> str:
        return f"Grid(shape={self.shape!r}, lengths={self.lengths!r})"

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    def coordinates(self):
        axes = [
            np.arange(n) * (l / n) for n, l in zip(self.shape, self.lengths)
        ]
        return np.meshgrid(*axes, indexing="ij")

    @property
    def axes(self) -> tuple:
        """Transform axes: the trailing dim ones, so stacks transform too."""
        return tuple(range(-self.dim, 0))

    def fft(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of the real field u (or of a stack of fields), into ``out``."""
        return np.fft.rfftn(u, axes=self.axes, out=out)

    def ifft(self, u_hat: np.ndarray) -> np.ndarray:
        """Real field of the half spectrum u_hat, by ``irfftn``'s own passes.

        The real inverse of the last axis keeps only the Hermitian part of
        the self-conjugate planes (last-axis index 0 and n/2).  Their
        anti-Hermitian part, the imaginary residue of a full complex inverse,
        is read off the two planes after the leading axes' complex inverses
        and rejected when above tolerance.
        """
        n = self.shape[-1]
        for axis in self.axes[:-1]:
            u_hat = np.fft.ifft(u_hat, self.shape[axis], axis)
        # plane 0 enters the full inverse with weight 1/n, plane n/2 with
        # (-1)^x / n, so the worst residue over x adds their magnitudes
        imag = np.abs(u_hat[..., :: n // 2].imag)
        imag_max = float(np.max(imag[..., 0] + imag[..., 1])) / n
        v = np.fft.irfft(u_hat, n, -1)
        # the tolerance scales by max(1, max|v|), which matters only above the bare one
        scale = 1.0 if imag_max <= IMAG_RESIDUE_TOL else max(1.0, float(np.max(np.abs(v))))
        if imag_max > IMAG_RESIDUE_TOL * scale:
            raise HermitianViolationError(
                f"imaginary residue {imag_max:.3e} exceeds tolerance"
            )
        return v

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.cell_volume * float(np.sum(u * v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.inner(u, u)))


class ModelSpec(NamedTuple):
    """Symbols, nonlinearity, potential and analysis constants of one model."""

    name: str
    epsilon: float
    m_symbol: Callable[[np.ndarray], np.ndarray]
    l_symbol: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], np.ndarray]
    ell_f: float
    zeta: float
    eta: float
    mass_conserving: bool
    truncation_radius: float | None = None

    def constants(self) -> ModelConstants:
        return ModelConstants(ell_f=self.ell_f, zeta=self.zeta, eta=self.eta)


def cubic_lipschitz_bound(linear_coefficient: float, radius: float) -> float:
    """max over [-R, R] of |3 s^2 - c| for f(s) = s^3 - c s."""
    c = linear_coefficient
    return max(abs(c), abs(3.0 * radius ** 2 - c))


def _cubic(c: float, radius: float) -> dict:
    """f(u) = u^3 - c u and its potential (u^2 - c)^2 / 4, each made in one fresh array
    in the plain expressions' order, and f's Lipschitz bound on [-R, R]."""
    radius = require_positive("radius", radius)

    def f(u):
        v = u * u
        v *= u
        v -= c * u
        return v

    def potential(u):
        v = u * u
        v -= c
        v *= v
        v *= 0.25
        return v
    return dict(f=f, potential=potential, ell_f=cubic_lipschitz_bound(c, radius),
                truncation_radius=radius)


def allen_cahn(epsilon: float, radius: float = 2.0) -> ModelSpec:
    epsilon = require_positive("epsilon", epsilon)
    return ModelSpec(
        name="allen_cahn",
        epsilon=epsilon,
        m_symbol=lambda k2: -np.ones_like(k2),
        l_symbol=lambda k2: epsilon ** 2 * k2,
        **_cubic(1.0, radius),
        zeta=1.0,
        eta=1.0,
        mass_conserving=False,
    )


def cahn_hilliard(epsilon: float, radius: float = 2.0) -> ModelSpec:
    epsilon = require_positive("epsilon", epsilon)
    return ModelSpec(
        name="cahn_hilliard",
        epsilon=epsilon,
        m_symbol=lambda k2: -k2,
        l_symbol=lambda k2: epsilon ** 2 * k2,
        **_cubic(1.0, radius),
        zeta=epsilon ** -0.5,
        eta=0.5,
        mass_conserving=True,
    )


def pfc(epsilon: float, radius: float = 2.0) -> ModelSpec:
    """Phase-field crystal splitting L = (I + Lap)^2 + I, f = u^3 - (eps+1) u;
    the potential (u^2 - (1+eps))^2 / 4 shifts the conventional energy by the
    constant (1+eps)^2 |Omega| / 4."""
    epsilon = require_positive("epsilon", epsilon)
    return ModelSpec(
        name="pfc",
        epsilon=epsilon,
        m_symbol=lambda k2: -k2,
        l_symbol=lambda k2: (1.0 - k2) ** 2 + 1.0,
        **_cubic(epsilon + 1.0, radius),
        zeta=(2.0 * np.sqrt(2.0) - 2.0) ** -0.25,
        eta=0.5,
        mass_conserving=True,
    )


MODEL_BUILDERS = {
    "allen_cahn": allen_cahn,
    "ac": allen_cahn,
    "cahn_hilliard": cahn_hilliard,
    "ch": cahn_hilliard,
    "pfc": pfc,
}
