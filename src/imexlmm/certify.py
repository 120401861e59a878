"""Quadratic energy certificates for IMEX multistep schemes.

For a coefficient vector s whose generating series stays >= gamma > 0 on
[-1, 1], the trigonometric polynomial M(theta; s) - gamma is nonnegative and
factors as |P(e^{i theta})|^2 with a real polynomial P (Fejer-Riesz).  The
coefficients of P assemble an upper-triangular PSD matrix U, and the shifted
telescoping matrix G recovered from U is the weight of the nonnegative
quadratic modification added to the discrete energy.  ``certify_scheme`` runs
the full pipeline on both reformed coefficient vectors and reports the
admissible step bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebtrim, chebval

from .chebpoly import ChebSeries, global_min, global_minima
from .schemes import SchemeCoefficients, reform

__all__ = [
    "CertificateInfeasibleError",
    "ModelConstants",
    "EnergyCertificate",
    "DissipationReport",
    "spectral_factorize",
    "build_U",
    "recover_G",
    "tau_max_bound",
    "certify_scheme",
]

# Relative slack on gamma above the series minimum; candidates within it of
# gamma are where the series touches gamma.
_GAMMA_SLACK = 1e-9


class CertificateInfeasibleError(ValueError):
    """Requested gamma exceeds the minimum of the generating series."""


def require_positive(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is finite and positive."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


@dataclass(frozen=True)
class ModelConstants:
    """Lipschitz constant of f plus the interpolation constants (zeta, eta)."""

    ell_f: float
    zeta: float
    eta: float

    def __post_init__(self):
        require_positive("ell_f", self.ell_f)
        require_positive("zeta", self.zeta)
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")


@dataclass(frozen=True)
class EnergyCertificate:
    """(gamma, p, U, G) certifying x^T U x >= gamma x_1^2 for one vector."""

    gamma: float
    p: np.ndarray
    U: np.ndarray
    G: np.ndarray


def series_from_factor(p, gamma: float) -> np.ndarray:
    """Invert the factorization: s_0 = gamma + sum p_i^2,
    s_m = 2 sum_i p_i p_{i+m}."""
    p = np.asarray(p, dtype=float)
    k = len(p)
    s = np.empty(k)
    s[0] = gamma + float(p @ p)
    for m in range(1, k):
        s[m] = 2.0 * float(p[:-m] @ p[m:])
    return s


def spectral_factorize(s, gamma: float) -> np.ndarray:
    """Real coefficients p with |P(e^{i t})|^2 = M(t; s) - gamma.

    The Laurent polynomial L(z) = s_0 - gamma + sum_m (s_m/2)(z^m + z^-m) is
    nonnegative on the unit circle, so its roots pair up reciprocally and P
    takes one root per pair.  Its unit-circle roots sit where the series
    touches gamma, at the candidates of the one ``global_min`` call that also
    bounds gamma: each candidate (with multiplicity) within the gamma slack
    of gamma gives the exact roots e^{+-i acos x}, or x itself at an
    endpoint.  Each exact root replaces the two computed roots of z^d L(z)
    nearest to it and enters P once; of the rest, P takes those with
    |z| < 1.  The leading scale is fixed positive, so p is deterministic up
    to that sign.
    """
    series = s if isinstance(s, ChebSeries) else ChebSeries(tuple(s))
    k = series.k
    res = global_min(series)
    slack = _GAMMA_SLACK * max(1.0, abs(res.min_value))
    if gamma > res.min_value + slack:
        raise CertificateInfeasibleError(
            f"gamma={gamma!r} exceeds series minimum {res.min_value!r}"
        )
    coeffs = np.array(series.s)
    coeffs[0] -= gamma
    coeffs = chebtrim(coeffs, tol=0)
    d = len(coeffs) - 1
    scale = max(abs(c) for c in series.s) or 1.0
    if d == 0:
        if abs(coeffs[0]) <= 1e-13 * scale:
            return np.zeros(k)
        return np.concatenate(([np.sqrt(coeffs[0])], np.zeros(k - 1)))

    # z^d L(z): palindromic, degree 2d, constant term coeffs[d]/2 != 0
    poly = np.zeros(2 * d + 1)
    poly[d] = coeffs[0]
    for m in range(1, d + 1):
        poly[d + m] += coeffs[m] / 2.0
        poly[d - m] += coeffs[m] / 2.0
    roots = np.roots(poly[::-1])

    x = np.array(res.critical_points)
    circle = []
    for t in x[chebval(x, series.s) - gamma <= slack]:
        z = np.exp(1j * np.arccos(t))
        circle.extend([t] if abs(t) == 1.0 else [z, z.conjugate()])
    for z in circle:
        roots = np.delete(roots, np.argsort(np.abs(roots - z))[:2])
    selected = [*circle, *roots[np.abs(roots) < 1.0]]
    if len(selected) != d:
        raise ArithmeticError(
            f"root selection picked {len(selected)} of {d} reciprocal pairs"
        )

    prod = complex(np.prod(selected))
    lead_sq = (coeffs[d] / 2.0) / (((-1.0) ** d) * prod)
    if abs(lead_sq.imag) > 1e-8 * max(1.0, abs(lead_sq)) or lead_sq.real <= 0:
        raise ArithmeticError(f"inconsistent leading scale {lead_sq!r}")
    lead = np.sqrt(lead_sq.real)
    p_complex = np.poly(selected)[::-1] * lead  # ascending coefficients
    if np.max(np.abs(p_complex.imag)) > 1e-8 * max(1.0, np.max(np.abs(p_complex))):
        raise ArithmeticError("factor coefficients not real")
    p = np.concatenate((p_complex.real, np.zeros(k - 1 - d)))

    recon = series_from_factor(p, gamma)
    if np.max(np.abs(recon - np.asarray(series.s))) > 1e-6 * scale:
        raise ArithmeticError("factorization round trip failed")
    return p


def build_U(p, gamma: float) -> np.ndarray:
    """Upper-triangular U with U_ii = p_i^2 + gamma*delta_{i1},
    U_ij = 2 p_i p_j above the diagonal."""
    p = np.asarray(p, dtype=float)
    k = len(p)
    U = np.zeros((k, k))
    for i in range(k):
        U[i, i] = p[i] ** 2
        for j in range(i + 1, k):
            U[i, j] = 2.0 * p[i] * p[j]
    U[0, 0] += gamma
    return U


def recover_G(U: np.ndarray) -> np.ndarray:
    """Unique upper-triangular G with G - J^T G J equal to the trailing
    principal submatrix of U (J the lower shift); G_ij sums that submatrix
    down its diagonals."""
    U = np.asarray(U, dtype=float)
    k = U.shape[0]
    Ut = U[1:, 1:]
    n = k - 1
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            G[i, j] = sum(Ut[i + m, j + m] for m in range(n - max(i, j)))
    return G


def tau_max_bound(alpha: float, beta: float, chat1: float, constants: ModelConstants) -> float:
    """Admissible step bound tau_max = alpha * beta^eta_bar /
    (|l_f/2 + 2 l_f chat1|^(1+eta_bar) * eta * (1-eta)^eta_bar * zeta^(2+2 eta_bar)),
    with the 0^0 = 1 convention at eta = 1."""
    eta = constants.eta
    eb = (1.0 - eta) / eta
    lf = constants.ell_f
    denom_base = abs(lf / 2.0 + 2.0 * lf * chat1)

    def pow00(base, expo):
        return 1.0 if expo == 0.0 else base ** expo

    denom = (
        denom_base ** (1.0 + eb)
        * eta
        * pow00(1.0 - eta, eb)
        * constants.zeta ** (2.0 + 2.0 * eb)
    )
    return alpha * pow00(beta, eb) / denom


@dataclass(frozen=True)
class DissipationReport:
    """Outcome of certifying one scheme against one set of model constants."""

    alpha_max: float
    beta_max: float
    cert_a: EnergyCertificate | None
    cert_b: EnergyCertificate | None
    tau_max: float | None
    constants: ModelConstants
    refused: bool
    refusal_reason: str | None

    @property
    def G_a(self) -> np.ndarray:
        if self.cert_a is None:
            raise ValueError("no certificate: " + (self.refusal_reason or ""))
        return self.cert_a.G

    @property
    def G_b(self) -> np.ndarray:
        if self.cert_b is None:
            raise ValueError("no certificate: " + (self.refusal_reason or ""))
        return self.cert_b.G

    def to_json_dict(self) -> dict:
        return {
            "alpha_max": self.alpha_max,
            "beta_max": self.beta_max,
            "G_a": None if self.cert_a is None else [list(r) for r in self.cert_a.G],
            "G_b": None if self.cert_b is None else [list(r) for r in self.cert_b.G],
            "tau_max": self.tau_max,
            "refused": self.refused,
            "refusal_reason": self.refusal_reason,
        }


def _certificate(values, gamma: float) -> EnergyCertificate:
    p = spectral_factorize(values, gamma)
    U = build_U(p, gamma)
    return EnergyCertificate(gamma=gamma, p=p, U=U, G=recover_G(U))


def certify_scheme(
    scheme: SchemeCoefficients,
    constants: ModelConstants,
    gamma_fraction: float = 1.0,
) -> DissipationReport:
    """Full certification of a scheme: refusal with the violating minimum, or
    certificates for both coefficient vectors plus the step bound.

    Certificates default to the maximal gamma values (largest tau_max); a
    ``gamma_fraction`` in (0, 1] scales both down proportionally.
    """
    if not 0.0 < gamma_fraction <= 1.0:
        raise ValueError("gamma_fraction must lie in (0, 1]")
    coeffs = reform(scheme)
    alpha_max, beta_max = map(float, global_minima(np.array([coeffs.a, coeffs.b], dtype=float)))
    chat1 = float(coeffs.chat[0]) if coeffs.chat else 0.0

    beta_ok = beta_max > 0.0 or (constants.eta == 1.0 and beta_max >= 0.0)
    bad = []
    if alpha_max <= 0.0:
        bad.append(f"min T(x; a) = {alpha_max:.12g} <= 0")
    if not beta_ok:
        bad.append(f"min T(x; b) = {beta_max:.12g} <= 0")
    cert_a = cert_b = tau_max = None
    if not bad:
        alpha = gamma_fraction * alpha_max
        beta = gamma_fraction * beta_max
        cert_a = _certificate(coeffs.a, alpha)
        cert_b = _certificate(coeffs.b, beta)
        tau_max = tau_max_bound(alpha, beta, chat1, constants)
    return DissipationReport(
        alpha_max=alpha_max,
        beta_max=beta_max,
        cert_a=cert_a,
        cert_b=cert_b,
        tau_max=tau_max,
        constants=constants,
        refused=bool(bad),
        refusal_reason="; ".join(bad) or None,
    )
