"""Feasibility of energy-dissipative schemes and the order-7 obstruction.

``evaluate_feasibility`` scores a parameter vector by the minima of its two
generating polynomials in exact tables; ``search_feasible`` hunts for positive
pairs by pattern search from starts that walk in lockstep within evaluation
quotas fixed up front, scores each round's trials of all starts in one float
batch, and reports the exact score of its answer.  For seven steps no feasible
vector exists: the positivity constraints at the Chebyshev nodes of [-1, 1]
form a linear system ``Q w <= q`` over Q(sqrt(3)), and an explicit nonnegative
combination of its rows is contradictory.  The whole order-7 pipeline runs in
exact arithmetic, its products in integers, since a floating-point check of a
nonexistence statement would be inconclusive.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactalg
from .certify import require_positive
from .chebpoly import ChebSeries, global_min, global_minima
from .schemes import (
    ParameterVector,
    lmm6_parameters,
    lmm_from_parameters,
    reform,
    series_map,
)

__all__ = [
    "QuadExt",
    "SQRT3",
    "FarkasSystem",
    "FarkasReport",
    "FeasibilityResult",
    "SearchResult",
    "CertificateInvalidError",
    "evaluate_feasibility",
    "search_feasible",
    "build_farkas_system",
    "kernel_vectors",
    "certificate_multipliers",
    "verify_farkas_certificate",
]


class CertificateInvalidError(ArithmeticError):
    """The exact infeasibility certificate failed a check (assembly bug)."""


class QuadExt:
    """Element p + q*sqrt(3) of the real quadratic field Q(sqrt(3)).

    Arithmetic and sign are exact: p + q*sqrt(3) > 0 iff (p > 0 and
    p^2 > 3 q^2) or (q > 0 and 3 q^2 > p^2) or (p > 0 and q > 0).
    """

    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0):
        self.p = Fraction(p)
        self.q = Fraction(q)

    @staticmethod
    def _coerce(other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExt(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExt(self.p - o.p, self.q - o.q)

    def __neg__(self):
        return QuadExt(-self.p, -self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExt(self.p * o.p + 3 * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        norm = o.p * o.p - 3 * o.q * o.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(3))")
        return self * QuadExt(o.p / norm, -o.q / norm)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.p == o.p and self.q == o.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def is_positive(self) -> bool:
        p, q = self.p, self.q
        return (
            (p > 0 and p * p > 3 * q * q)
            or (q > 0 and 3 * q * q > p * p)
            or (p > 0 and q > 0)
        )

    def is_nonnegative(self) -> bool:
        return not self or self.is_positive()

    def __repr__(self):
        return f"QuadExt({self.p!r}, {self.q!r})"

    def __str__(self):
        return f"{self.p} + {self.q}·sqrt(3)"


SQRT3 = QuadExt(0, 1)

# cos(t*pi/6) for t mod 12; every node angle below reduces to this table.
_HALF = Fraction(1, 2)
_COS_PI_6 = {
    0: QuadExt(1),
    1: QuadExt(0, _HALF),
    2: QuadExt(_HALF),
    3: QuadExt(0),
    4: QuadExt(-_HALF),
    5: QuadExt(0, -_HALF),
    6: QuadExt(-1),
    7: QuadExt(0, -_HALF),
    8: QuadExt(-_HALF),
    9: QuadExt(0),
    10: QuadExt(_HALF),
    11: QuadExt(0, _HALF),
}


def _exact_cos_node(numerator: int, denominator: int) -> QuadExt:
    """cos(numerator*pi/denominator) for denominators dividing 6."""
    if 6 % denominator:
        raise ValueError(
            f"nodes cos(j*pi/{denominator}) do not lie in Q(sqrt(3))"
        )
    return _COS_PI_6[(numerator * (6 // denominator)) % 12]


@dataclass(frozen=True)
class FeasibilityResult:
    min_a: float
    min_b: float
    feasible: bool


def evaluate_feasibility(w) -> FeasibilityResult:
    """Minima of both generating polynomials for the scheme built from w."""
    if not isinstance(w, ParameterVector):
        w = ParameterVector(tuple(w))
    if w.k < 2:
        raise ValueError("feasibility evaluation needs k >= 2")
    coeffs = reform(lmm_from_parameters(w))
    min_a = global_min(ChebSeries(coeffs.a)).min_value
    min_b = global_min(ChebSeries(coeffs.b)).min_value
    return FeasibilityResult(
        min_a=min_a, min_b=min_b, feasible=min_a > 0.0 and min_b > 0.0
    )


SEARCH_STARTS = 20  # pattern-search starting points per call
SEARCH_GAIN = 1e-12  # a move is taken only if it raises the score by this share of |score|
SEARCH_BATCH = 2  # untried moves a live walk sends per round


@dataclass(frozen=True)
class SearchResult:
    w: ParameterVector
    min_a: float
    min_b: float
    feasible: bool
    evaluations: int


def _walk(start, stop, moves):
    """First-improvement pattern search from ``start`` within ``stop`` evaluations:
    yields batches of trials, is sent their scores, returns (w, score, evaluations)."""
    current, evals, step = list(start), 1, 0.5
    (score,) = yield [current]
    scales = [max(1.0, abs(x)) for x in current]
    while step > 1e-6 and evals < stop:
        improved, tried = False, 0
        while tried < len(moves) and evals < stop:
            trials = [list(current) for _ in moves[tried : tried + min(SEARCH_BATCH, stop - evals)]]
            for trial, (i, sign) in zip(trials, moves[tried:]):
                trial[i] += sign * step * scales[i]
            found = yield trials
            gain = score + SEARCH_GAIN * abs(score)
            taken = next((j + 1 for j, s in enumerate(found) if s > gain), len(trials))
            evals, tried = evals + taken, tried + taken
            if found[taken - 1] > gain:
                current, score, improved = trials[taken - 1], found[taken - 1], True
        if not improved:
            step /= 2.0
    return current, score, evals


def search_feasible(
    k: int,
    budget: int = 2000,
    seed: int = 0,
    kappa: float = 1.0,
) -> SearchResult:
    """Derivative-free search for a feasible parameter vector.

    Maximizes min(min_a, min_b/kappa) by coordinate pattern search with step halving
    from SEARCH_STARTS starts: the known six-step point (when k = 6), the BDF point w = 0,
    and seeded random vectors.  A sweep takes each of the moves (0, +), (0, -), (1, +),
    ... that raises the score by more than SEARCH_GAIN of its modulus, so plateau ties
    do not turn on the last bit of a float sum.  Each round a walk sends only its next
    SEARCH_BATCH untried moves, counted as evaluations up to the first taken move: two
    a round score few moves past an improvement (they are thrown away) and still make
    few scoring calls.  The starts walk in lockstep within quotas fixed up front, each
    round scoring all live starts' batches in one float ``global_minima`` call; the
    best end point is re-scored exactly by ``evaluate_feasibility``.
    Deterministic for a fixed seed; returns the best candidate even when infeasible.
    """
    if k < 2:
        raise ValueError("search needs k >= 2")
    if not 1 <= budget < math.inf:  # an infinite budget would make every quota NaN
        raise ValueError(f"search budget must be finite and at least 1, got {budget}")
    kappa = require_positive("kappa", kappa)
    rng = random.Random(seed)
    M, c = (np.array(x, dtype=float) for x in series_map(k))  # float once per search

    def scores(trials):  # float min(min_a, min_b / kappa), the same for a row in any batch
        minima = global_minima(((np.array(trials)[:, None, :] * M).sum(axis=2) + c).reshape(-1, k))
        return np.minimum(minima[0::2], minima[1::2] / kappa)

    starts = []
    if k == 6:
        starts.append([float(x) for x in lmm6_parameters().w])
    starts.append([0.0] * k)
    while len(starts) < SEARCH_STARTS:
        starts.append([rng.uniform(-50.0, 50.0) for _ in range(k)])
    share = max(2 * k + 1, budget // len(starts))
    moves = [(i, sign) for i in range(k) for sign in (1.0, -1.0)]  # one sweep
    # Start j gets min(share, budget - j*share) evaluations, as run one after another:
    # if share = budget // 20 >= 2k+1, 20*share <= budget and the budget never binds;
    # else share = 2k+1 and no start stops early (that takes 19 step halvings, each
    # after a failed sweep of 2k evaluations), so start j begins at j*share evaluations.
    walks = [_walk(start, min(share, budget - j * share), moves)
             for j, start in enumerate(starts) if j * share < budget]
    live, ends = {walk: next(walk) for walk in walks}, {}
    while live:
        found = iter(scores([trial for batch in live.values() for trial in batch]))
        for walk, batch in list(live.items()):
            try:
                live[walk] = walk.send([next(found) for _ in batch])
            except StopIteration as end:
                ends[walk] = end.value
                del live[walk]
    best_w, best_score = None, -float("inf")
    for w, score, _ in map(ends.get, walks):  # scores rise within a walk: its end is its best
        if score > best_score:
            best_w, best_score = w, score
    evals = sum(used for _, _, used in ends.values())
    w = ParameterVector(tuple(Fraction(x) for x in best_w))
    res = evaluate_feasibility(w)
    return SearchResult(w, res.min_a, res.min_b, res.feasible, evaluations=evals)


@dataclass(frozen=True)
class FarkasSystem:
    """Exact inequality system Q w <= q, stored as integer rows: row i of
    (-Q | q) is (P_i + sqrt(3) R_i) / den, and every product runs on P and R."""

    k: int
    den: int
    P: tuple  # 2k rows x (k+1) integers
    R: tuple

    def _rows(self) -> list:  # (-Q | q) over Q(sqrt(3)), the view Q and q read off
        return [[QuadExt(Fraction(p, self.den), Fraction(r, self.den)) for p, r in zip(*pair)]
                for pair in zip(self.P, self.R)]

    @property
    def Q(self) -> tuple:
        return tuple(tuple(-x for x in row[:-1]) for row in self._rows())

    @property
    def q(self) -> tuple:
        return tuple(row[-1] for row in self._rows())

    def residuals(self, w) -> list:
        """q - Q w for rational w; feasibility of w means all entries nonnegative."""
        w = [Fraction(x) for x in w]
        scale = math.lcm(*(x.denominator for x in w))
        v = [x.numerator * (scale // x.denominator) for x in w] + [scale]
        return [QuadExt(Fraction(p, self.den * scale), Fraction(r, self.den * scale))
                for p, r in zip(exactalg.matvec(self.P, v), exactalg.matvec(self.R, v))]

    def left_product(self, v) -> list:
        """sum_i v_i (-Q_i, q_i) for a QuadExt vector v: -Q^T v followed by q^T v."""
        den, P, R = self.den, self.P, self.R
        scale = math.lcm(*(c.denominator for x in v for c in (x.p, x.q)))
        a, b = ([int(getattr(x, part) * scale) for x in v] for part in "pq")
        pa, pb, ra, rb = (exactalg.matvec(zip(*rows), x) for rows in (P, R) for x in (a, b))
        # (P + sqrt(3) R)(a + sqrt(3) b) = P a + 3 R b + sqrt(3) (P b + R a)
        return [QuadExt(Fraction(x + 3 * y, den * scale), Fraction(z + t, den * scale))
                for x, y, z, t in zip(pa, rb, pb, ra)]


def build_farkas_system(k: int = 7) -> FarkasSystem:
    """Assemble Q and q exactly over Q(sqrt(3)).

    Stacks the node-positivity constraints of both generating polynomials at
    the k Chebyshev points x_j = cos(j*pi/(k-1)): with ``Z[j][m] = T_m(x_j)``
    the residuals ``q - Q w`` are ``Z a(w)`` followed by ``Z b(w)``, so Q
    and q are read off the exact affine map ``series_map(k)``.  Exact
    assembly requires the cosines to lie in Q(sqrt(3)), i.e. (k-1) | 6.
    The rows 2 D (-Q | q) = P + sqrt(3) R are the integer products of
    2 Z = Zp + sqrt(3) Zq (entries 0, +-1, +-2) with D [M | c].
    """
    if k < 2:
        raise ValueError("need k >= 2")
    Z = [[_exact_cos_node(m * j, k - 1) for m in range(k)] for j in range(k)]
    M, c = series_map(k)
    D = math.lcm(*(x.denominator for x in (*sum(M, ()), *c)))
    A = [[x.numerator * (D // x.denominator) for x in (*row, ci)] for row, ci in zip(M, c)]
    Zp, Zq = ([[int(2 * getattr(x, part)) for x in row] for row in Z] for part in "pq")
    P, R = (exactalg.matmul(Zx, A[:k]) + exactalg.matmul(Zx, A[k:]) for Zx in (Zp, Zq))
    return FarkasSystem(k, 2 * D, *(tuple(map(tuple, rows)) for rows in (P, R)))


def _sparse_vector(entries: dict, length: int = 14) -> tuple:
    v = [QuadExt(0)] * length
    for idx, val in entries.items():
        v[idx - 1] = val
    return tuple(v)


def kernel_vectors() -> tuple:
    """Three exact left-kernel vectors of the k = 7 system matrix."""
    r1 = _sparse_vector(
        {
            3: QuadExt(Fraction(-7, 20), Fraction(6, 20)),
            5: QuadExt(Fraction(37, 540), Fraction(94, 540)),
            7: QuadExt(Fraction(-13, 640), Fraction(24, 640)),
            13: QuadExt(1),
        }
    )
    r2 = _sparse_vector(
        {
            3: QuadExt(Fraction(2, 5)),
            5: QuadExt(Fraction(-62, 135)),
            7: QuadExt(Fraction(-11, 80)),
            11: QuadExt(1),
        }
    )
    r3 = _sparse_vector(
        {
            3: QuadExt(Fraction(-7, 20), Fraction(-6, 20)),
            5: QuadExt(Fraction(37, 540), Fraction(-94, 540)),
            7: QuadExt(Fraction(-13, 640), Fraction(-24, 640)),
            9: QuadExt(1),
        }
    )
    return r1, r2, r3


def certificate_multipliers() -> tuple:
    """The nonnegative combination lambda = r1 + (3-sqrt3)/8 r2 + (2-sqrt3) r3."""
    r1, r2, r3 = kernel_vectors()
    c2 = QuadExt(Fraction(3, 8), Fraction(-1, 8))
    c3 = QuadExt(2, -1)
    return tuple(r1[i] + c2 * r2[i] + c3 * r3[i] for i in range(14))


@dataclass(frozen=True)
class FarkasReport:
    """Verified infeasibility certificate for k = 7."""

    lam: tuple
    qt_lambda: QuadExt

    def summary(self) -> str:
        nz = {i + 1: str(v) for i, v in enumerate(self.lam) if v}
        lines = ["seven-step infeasibility certificate verified exactly:"]
        lines.append("  Q^T r = 0 for all three kernel vectors")
        lines.append(f"  lambda >= 0 with nonzeros {nz}")
        lines.append(f"  q^T lambda = {self.qt_lambda} < 0")
        return "\n".join(lines)


def verify_farkas_certificate() -> FarkasReport:
    """Check every condition of the order-7 infeasibility certificate exactly.

    Raises CertificateInvalidError if any of the following fails: the three
    kernel identities Q^T r = 0, entrywise nonnegativity of lambda with
    exactly four nonzero entries at the published positions and values, and
    strict negativity of q^T lambda.
    """
    system = build_farkas_system(7)
    for idx, r in enumerate(kernel_vectors(), start=1):
        if any(system.left_product(r)[:-1]):
            raise CertificateInvalidError(f"Q^T r({idx}) != 0")

    lam = certificate_multipliers()
    if not all(v.is_nonnegative() for v in lam):
        raise CertificateInvalidError("lambda has a negative entry")
    nonzeros = {i + 1: lam[i] for i in range(14) if lam[i]}
    expected = {
        5: QuadExt(Fraction(5, 9), Fraction(-5, 27)),
        9: QuadExt(2, -1),
        11: QuadExt(Fraction(3, 8), Fraction(-1, 8)),
        13: QuadExt(1),
    }
    if nonzeros != expected:
        raise CertificateInvalidError(f"unexpected lambda support {nonzeros}")
    *qt_lambda, qtl = system.left_product(lam)
    if any(qt_lambda):
        raise CertificateInvalidError("Q^T lambda != 0")
    if not (-qtl).is_positive():
        raise CertificateInvalidError(f"q^T lambda = {qtl} is not negative")
    return FarkasReport(lam=lam, qt_lambda=qtl)
