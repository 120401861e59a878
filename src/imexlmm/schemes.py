"""Exact construction of implicit-explicit linear multistep tables.

A k-step scheme advances ``sum_i A_i u^{n+1-i} = tau*M*(sum_i B_i L u^{n+1-i}
+ sum_{i>=1} Bhat_i f(u^{n+1-i}))``, the stiff linear part treated implicitly
and the nonlinearity by extrapolation.  Everything in this module is computed
in arbitrary-precision rationals: the published coefficient tables are exact
fractions and bit-exact reproduction is the test oracle, so no floating point
enters until a caller asks for it.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import exactalg

__all__ = [
    "SchemeCoefficients",
    "ReformedCoefficients",
    "ParameterVector",
    "OrderReport",
    "SchemeError",
    "bdf_coefficients",
    "lmm_from_parameters",
    "parameter_map",
    "lmm6_parameters",
    "lmm6_scheme",
    "parameters_from_scheme",
    "reform",
    "verify_order_conditions",
    "scheme_to_json",
    "scheme_from_json",
]


class SchemeError(ValueError):
    """A coefficient table that violates the multistep contract."""


def _frac(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(x)  # exact binary value; callers wanting decimals pass str
    return Fraction(x)


@dataclass(frozen=True)
class SchemeCoefficients:
    """Coefficient table (k, A_0..A_k, B_0..B_k, Bhat_1..Bhat_k)."""

    k: int
    A: tuple
    B: tuple
    Bhat: tuple

    def __post_init__(self):
        if self.k < 1:
            raise SchemeError(f"step count must be >= 1, got {self.k}")
        if len(self.A) != self.k + 1 or len(self.B) != self.k + 1:
            raise SchemeError("A and B must have length k+1")
        if len(self.Bhat) != self.k:
            raise SchemeError("Bhat must have length k")
        object.__setattr__(self, "A", tuple(_frac(x) for x in self.A))
        object.__setattr__(self, "B", tuple(_frac(x) for x in self.B))
        object.__setattr__(self, "Bhat", tuple(_frac(x) for x in self.Bhat))
        if self.A[0] == 0:
            raise SchemeError("A_0 must be nonzero (implicit solve ill-posed)")
        if self.B[0] == 0:
            raise SchemeError("B_0 must be nonzero (implicit solve ill-posed)")

    def validate(self):
        """Raise SchemeError unless order conditions and normalization hold."""
        report = verify_order_conditions(self)
        if report.order < self.k:
            raise SchemeError(
                f"table satisfies order {report.order}, expected {self.k}"
            )
        if sum(self.B) != 1 or sum(self.Bhat) != 1:
            raise SchemeError("normalization sum(B) = sum(Bhat) = 1 violated")

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "A": [str(x) for x in self.A],
            "B": [str(x) for x in self.B],
            "Bhat": [str(x) for x in self.Bhat],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SchemeCoefficients":
        return cls(
            k=int(d["k"]),
            A=tuple(Fraction(x) for x in d["A"]),
            B=tuple(Fraction(x) for x in d["B"]),
            Bhat=tuple(Fraction(x) for x in d["Bhat"]),
        )


@dataclass(frozen=True)
class ReformedCoefficients:
    """Cumulative-sum form (a, b, bhat, chat) of a scheme.

    ``a_i = sum_{j<=i} A_j``, ``b_i = sum_{j<=i} B_j - 1 + delta_{i0}/2`` and
    ``bhat_i = sum_{1<=j<=i} Bhat_j - 1``; ``bhat`` carries a trailing zero so
    that all three vectors have length k.  ``chat_i = sum_{j>=i} |bhat_j| / 2``
    is the nonincreasing tail-sum weight used by the modified energy.
    """

    a: tuple
    b: tuple
    bhat: tuple
    chat: tuple

    @property
    def k(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class ParameterVector:
    """Free parameters (w_1..w_k) of the order-condition family; w_0 = 1."""

    w: tuple

    def __post_init__(self):
        if len(self.w) < 1:
            raise SchemeError("parameter vector must have length k >= 1")
        object.__setattr__(self, "w", tuple(_frac(x) for x in self.w))

    @property
    def k(self) -> int:
        return len(self.w)


@dataclass(frozen=True)
class OrderReport:
    """Largest satisfied order plus the exact residual of every condition."""

    order: int
    consistency_residual: Fraction
    implicit_residuals: tuple
    explicit_residuals: tuple

    def satisfied(self, m: int) -> bool:
        return (
            not self.consistency_residual
            and not self.implicit_residuals[m]
            and not self.explicit_residuals[m]
        )


def _nodes(first: int, last: int):
    return [Fraction(-i) for i in range(first, last + 1)]


def bdf_coefficients(k: int) -> SchemeCoefficients:
    """IMEX backward-differentiation table: B = e_0, A and Bhat from the
    order conditions.  Only k = 1..6 are zero-stable and supported."""
    if not 1 <= k <= 6:
        raise ValueError(f"BDF step count must be in 1..6, got {k}")
    w1 = exactalg.vandermonde_transposed(_nodes(0, k))
    rhs_a = [Fraction(0), Fraction(1)] + [Fraction(0)] * (k - 1)
    A = exactalg.solve(w1, rhs_a)
    w3 = exactalg.vandermonde_transposed(_nodes(1, k))
    rhs_bh = [Fraction(1)] + [Fraction(0)] * (k - 1)
    Bhat = exactalg.solve(w3, rhs_bh)
    B = (Fraction(1),) + (Fraction(0),) * k
    return SchemeCoefficients(k=k, A=tuple(A), B=B, Bhat=tuple(Bhat))


@functools.lru_cache(maxsize=None)
def parameter_map(k: int) -> tuple:
    """Exact affine map ``(C, d)`` from the free parameters to the tables.

    For every parameter vector w of length k the stacked table
    ``(A_0..A_k, B_0..B_k, Bhat_1..Bhat_k)`` equals ``C w + d``.  The three
    transposed Vandermonde systems are solved once per k, with one
    right-hand column for the constant term and one per parameter: w_m
    prescribes the moment sums for m = 1..k-1 and w_k = B_k.
    """
    one, zero = Fraction(1), Fraction(0)
    # moment sums (1, w_1..w_{k-1}) as rows over the columns (1, w_1..w_k)
    moments = [[one if c == m else zero for c in range(k + 1)] for m in range(k)]
    A = exactalg.solve(
        exactalg.vandermonde_transposed(_nodes(0, k)), [[zero] * (k + 1)] + moments
    )
    d_w = [[x / (m + 1) for x in row] for m, row in enumerate(moments)]
    B_head = exactalg.solve(
        exactalg.vandermonde_transposed(_nodes(0, k - 1)),
        [row[:k] + [-Fraction(-k) ** m] for m, row in enumerate(d_w)],
    )
    B_k = [zero] * k + [one]
    Bhat = exactalg.solve(exactalg.vandermonde_transposed(_nodes(1, k)), d_w)
    rows = A + B_head + [B_k] + Bhat
    return tuple(tuple(row[1:]) for row in rows), tuple(row[0] for row in rows)


def lmm_from_parameters(w) -> SchemeCoefficients:
    """Scheme from free parameters: one exact evaluation of ``parameter_map``."""
    if not isinstance(w, ParameterVector):
        w = ParameterVector(tuple(w))
    k = w.k
    C, d = parameter_map(k)
    tables = [d_i + sum(map(operator.mul, row, w.w)) for row, d_i in zip(C, d)]
    return SchemeCoefficients(
        k=k, A=tables[: k + 1], B=tables[k + 1 : 2 * k + 2], Bhat=tables[2 * k + 2 :]
    )


def parameters_from_scheme(s: SchemeCoefficients) -> ParameterVector:
    """Recover (w_1..w_k) from the moment sums; inverse of
    ``lmm_from_parameters`` on valid tables."""
    w = [
        sum(s.A[i] * Fraction(-i) ** (m + 1) for i in range(s.k + 1))
        for m in range(1, s.k)
    ]
    w.append(s.B[s.k])
    return ParameterVector(tuple(w))


def lmm6_parameters() -> ParameterVector:
    """Parameters of the published six-step energy-dissipative method."""
    return ParameterVector(
        (
            Fraction(64, 5),
            Fraction(-141, 5),
            Fraction(111),
            Fraction(-1034),
            Fraction(9886),
            Fraction(-23, 100),
        )
    )


def lmm6_scheme() -> SchemeCoefficients:
    return lmm_from_parameters(lmm6_parameters())


def reform(s: SchemeCoefficients) -> ReformedCoefficients:
    """Cumulative-sum coefficients (a, b, bhat) plus the tail weights chat."""
    k = s.k
    a = tuple(sum(s.A[: i + 1], Fraction(0)) for i in range(k))
    b = tuple(
        sum(s.B[: i + 1], Fraction(0)) - 1 + (Fraction(1, 2) if i == 0 else 0)
        for i in range(k)
    )
    bhat = tuple(
        sum(s.Bhat[:i], Fraction(0)) - 1 for i in range(1, k)
    ) + (Fraction(0),)
    chat = tuple(
        sum(abs(bhat[j]) for j in range(i, k - 1)) / 2 for i in range(k - 1)
    )
    return ReformedCoefficients(a=a, b=b, bhat=bhat, chat=chat)


def verify_order_conditions(s: SchemeCoefficients) -> OrderReport:
    """Exact residuals of the consistency and moment conditions.

    The report's ``order`` is the largest p such that ``sum A_i = 0`` and the
    moment conditions hold for all m < p; conditions are evaluated one index
    past k to expose superconvergent tables.
    """
    k = s.k
    consistency = sum(s.A)
    implicit, explicit = [], []
    for m in range(k + 1):
        lhs = sum(s.A[i] * Fraction(-i) ** (m + 1) for i in range(k + 1))
        rhs_b = (m + 1) * sum(s.B[i] * Fraction(-i) ** m for i in range(k + 1))
        rhs_bh = (m + 1) * sum(
            s.Bhat[i - 1] * Fraction(-i) ** m for i in range(1, k + 1)
        )
        implicit.append(lhs - rhs_b)
        explicit.append(lhs - rhs_bh)
    order = 0
    if not consistency:
        while order <= k and not implicit[order] and not explicit[order]:
            order += 1
    return OrderReport(
        order=order,
        consistency_residual=consistency,
        implicit_residuals=tuple(implicit),
        explicit_residuals=tuple(explicit),
    )


def scheme_to_json(s: SchemeCoefficients, indent: int = 2) -> str:
    return json.dumps(s.to_json_dict(), indent=indent)


def scheme_from_json(text: str) -> SchemeCoefficients:
    return SchemeCoefficients.from_json_dict(json.loads(text))
