"""Fourier pseudo-spectral time stepping for gradient flows.

Operators diagonalize in Fourier space, so each multistep update is a single
diagonal solve per mode; the cubic nonlinearity is evaluated pointwise in
physical space.  Starting values come from the 3-stage Gauss collocation
method (order 6), whose stage system is solved by fixed-point iteration on
the nonlinearity with the stiff linear part folded into a per-mode 3x3 solve.

For mass-conserving models (m(0) = 0) the integrator evolves the deviation
from the initial mean: the zero mode of the deviation stays at rounding level
instead of feeding a large constant through the multistep recurrence, which
keeps the recorded mass constant to machine precision over long runs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .certify import DissipationReport, certify_scheme
from .models import Grid, ModelSpec, pfc
from .schemes import SchemeCoefficients, lmm6_scheme, reform

__all__ = [
    "History",
    "SpectralFlow",
    "EnergyTrace",
    "ManufacturedSolution",
    "ConvergenceRow",
    "PatchSpec",
    "PfcExperimentResult",
    "InvariantViolationError",
    "StarterFailureError",
    "IllPosedStepError",
    "gauss_rk6_start",
    "energy",
    "modified_energy",
    "simulate",
    "convergence_study",
    "discrete_source",
    "trig_mode_solution",
    "default_patches",
    "pfc_experiment",
]


class InvariantViolationError(RuntimeError):
    """A structural invariant (zero mean, Hermitian symmetry, ...) failed."""


class StarterFailureError(RuntimeError):
    """Gauss collocation stages refused to contract down to tau/64."""


class IllPosedStepError(RuntimeError):
    """The diagonal implicit solve has a (near-)zero pivot at some mode."""


# 3-stage Gauss-Legendre collocation tableau (order 6)
_S15 = np.sqrt(15.0)
GAUSS_A = np.array(
    [
        [5 / 36, 2 / 9 - _S15 / 15, 5 / 36 - _S15 / 30],
        [5 / 36 + _S15 / 24, 2 / 9, 5 / 36 - _S15 / 24],
        [5 / 36 + _S15 / 30, 2 / 9 + _S15 / 15, 5 / 36],
    ]
)
GAUSS_B = np.array([5 / 18, 4 / 9, 5 / 18])
GAUSS_C = np.array([0.5 - _S15 / 10, 0.5, 0.5 + _S15 / 10])
# stiffly-safe final combination u+ = u + d . (Y - u), d = b^T A^{-1}
GAUSS_D = np.linalg.solve(GAUSS_A.T, GAUSS_B)

STAGE_TOL = 1e-14
MAX_STAGE_ITERS = 200
MAX_SUBSTEP_HALVINGS = 6
ZERO_MEAN_TOL = 1e-10


def _background(model: ModelSpec, u0: np.ndarray) -> float:
    return float(np.mean(u0)) if model.mass_conserving else 0.0


class History:
    """Ring buffer of the half-spectrum transforms of the last k states.

    Holds the transforms of the deviations from a fixed background mean
    (zero for models that do not conserve mass), of f(u) and of the source;
    ``state(back)`` inverts on demand and returns the full field.  A source
    returns the half-spectrum transform of g(t), stored as it comes.
    """

    def __init__(self, model, grid, scheme, tau, states, t0=0.0, source=None):
        k = scheme.k
        if len(states) != k:
            raise ValueError(f"history needs exactly k={k} states")
        self.k = k
        self.tau = float(tau)
        self.grid = grid
        self.model = model
        self.source = source
        self.background = _background(model, states[0])
        self.n = k - 1          # index of the newest state
        self.t0 = float(t0)
        self._w_hat = deque(maxlen=k)  # newest first
        self._f_hat = deque(maxlen=k)
        self._g_hat = deque(maxlen=k)
        for j, u in enumerate(states):
            w = u - self.background
            self._w_hat.appendleft(grid.fft(w))
            self._f_hat.appendleft(grid.fft(model.f(w + self.background)))
            self._g_hat.appendleft(self._source_hat(t0 + j * tau))

    def _source_hat(self, t):
        return None if self.source is None else self.source(t)

    def time(self, back: int = 0) -> float:
        return self.t0 + (self.n - back) * self.tau

    def state(self, back: int = 0) -> np.ndarray:
        """Full field u^{n-back} for back = 0..k-1."""
        return self.grid.ifft(self._w_hat[back]) + self.background

    def state_hat(self, back: int = 0) -> np.ndarray:
        """Transform of the full field u^{n-back}."""
        u_hat = self._w_hat[back].copy()
        u_hat.flat[0] += self.background * self.grid.npoints
        return u_hat

    def deviation_hat(self, back: int = 0) -> np.ndarray:
        return self._w_hat[back]

    def f_hat(self, back: int = 0) -> np.ndarray:
        return self._f_hat[back]

    def g_hat(self, back: int = 0):
        return self._g_hat[back]

    def delta_hats(self):
        """Transforms of delta u^{n+1-i} = u^{n+1-i} - u^{n-i}, i = 1..k-1."""
        return [self._w_hat[i - 1] - self._w_hat[i] for i in range(1, self.k)]

    def push(self, w_hat, f_hat):
        self.n += 1
        self._w_hat.appendleft(w_hat)
        self._f_hat.appendleft(f_hat)
        self._g_hat.appendleft(self._source_hat(self.time()))


class SpectralFlow:
    """Precomputed diagonal-update machinery for one (model, grid, scheme,
    tau) combination.

    Per mode the update is pivot * w^{n+1} = sum_i c_i w^{n+1-i}
    + d_i f^{n+1-i} + tau Bhat_i g^{n+1-i}, with pivot = A_0 - tau m B_0 l
    and the real per-lag symbols c_i = tau m B_i l - A_i, d_i = tau m Bhat_i.
    """

    def __init__(self, model: ModelSpec, grid: Grid, scheme: SchemeCoefficients, tau: float):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.model = model
        self.grid = grid
        self.scheme = scheme
        self.tau = float(tau)
        self.k = scheme.k
        A = [float(x) for x in scheme.A]
        B = [float(x) for x in scheme.B]
        Bhat = [float(x) for x in scheme.Bhat]   # Bhat_1 .. Bhat_k
        self.mhat = model.m_symbol(grid.k2)
        self.lhat = model.l_symbol(grid.k2)
        tml = self.tau * self.mhat * self.lhat
        pivot = A[0] - B[0] * tml
        floor = 1e-14 * (abs(A[0]) + np.abs(B[0] * tml))
        if np.any(np.abs(pivot) <= floor):
            raise IllPosedStepError("zero pivot in the diagonal implicit solve")
        self.inv_pivot = 1.0 / pivot
        self.c = [b * tml - a for a, b in zip(A[1:], B[1:])]
        self.d = [self.tau * b * self.mhat for b in Bhat]
        self.g_coef = [self.tau * b for b in Bhat]

    def history(self, states, t0=0.0, source=None) -> History:
        return History(self.model, self.grid, self.scheme, self.tau, states, t0, source)

    def start(self, u0, t0=0.0, source=None) -> History:
        states = gauss_rk6_start(
            self.model, self.grid, u0, self.tau, self.k, source=source, t0=t0
        )
        return self.history(states, t0=t0, source=source)

    def step(self, history: History) -> np.ndarray:
        """Advance one multistep update; returns the new full field.

        The new transform is the solved right-hand side itself, so a step
        costs one inverse transform (for f(u)) and one forward one (of f(u)).
        """
        rhs = np.zeros_like(history.deviation_hat(0))
        for i in range(self.k):
            rhs += self.c[i] * history.deviation_hat(i)
            rhs += self.d[i] * history.f_hat(i)
            g_hat = history.g_hat(i)
            if g_hat is not None:
                rhs += self.g_coef[i] * g_hat
        rhs *= self.inv_pivot
        u = self.grid.ifft(rhs) + history.background
        history.push(rhs, self.grid.fft(self.model.f(u)))
        return u


def _stage_solver(grid, mhat_lhat, h):
    """Stacked inverses of (I - h*m*l*A) for the per-mode 3x3 stage solves."""
    s = (h * mhat_lhat).ravel()
    mats = np.eye(3)[None, :, :] - s[:, None, None] * GAUSS_A[None, :, :]
    return np.linalg.inv(mats)


def _gauss_substep(model, grid, w, background, t, h, inv_stages, source):
    """One Gauss collocation substep on the deviation field w."""
    w_hat = grid.fft(w)
    mhat = model.m_symbol(grid.k2)
    if source is not None:
        g_hats = np.stack([source(t + GAUSS_C[i] * h) for i in range(3)])
    else:
        g_hats = None
    stages = np.stack([w, w, w])
    residual_prev = np.inf
    growth = 0
    for _ in range(MAX_STAGE_ITERS):
        f_hats = mhat * grid.fft(model.f(stages + background))
        if g_hats is not None:
            f_hats = f_hats + g_hats
        rhs = w_hat[None] + h * np.einsum("ij,j...->i...", GAUSS_A, f_hats)
        stage_hats = np.einsum(
            "pij,jp->ip", inv_stages, rhs.reshape(3, -1)
        ).reshape(rhs.shape)
        # unchecked inverse for iterates: transient non-normal growth of the
        # fixed-point map can push amplified roundoff past the strict gate,
        # and realification per sweep is itself the symmetry enforcement (the
        # self-conjugate planes keep their Hermitian part only, which is the
        # real part of a full inverse)
        new_stages = np.fft.irfftn(stage_hats, s=grid.shape, axes=grid.axes)
        residual = float(np.max(np.abs(new_stages - stages)))
        stages = new_stages
        if residual <= STAGE_TOL:
            return w + np.einsum("i,i...->...", GAUSS_D, stages - w[None])
        if not np.isfinite(residual) or residual > 4.0 * residual_prev:
            growth += 1
            if growth >= 3 or not np.isfinite(residual):
                raise StarterFailureError("stage iteration diverged")
        residual_prev = residual
    raise StarterFailureError("stage iteration stalled above tolerance")


def gauss_rk6_start(
    model: ModelSpec,
    grid: Grid,
    u0: np.ndarray,
    tau: float,
    k: int,
    source: Callable[[float], np.ndarray] | None = None,
    t0: float = 0.0,
) -> list:
    """Starting values u^0 .. u^{k-1} by 3-stage Gauss collocation.

    ``source(t)``, when given, returns the half-spectrum transform of g(t).
    Stage systems are solved by fixed-point iteration to max-norm residual
    1e-14; if an iteration refuses to contract, the substep is halved, down
    to tau/64 before giving up.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return [np.array(u0, dtype=float, copy=True)]
    background = _background(model, u0)
    mhat_lhat = model.m_symbol(grid.k2) * model.l_symbol(grid.k2)
    last_error = None
    for halving in range(MAX_SUBSTEP_HALVINGS + 1):
        substeps = 2 ** halving
        h = tau / substeps
        inv_stages = _stage_solver(grid, mhat_lhat, h)
        try:
            states = [np.array(u0, dtype=float, copy=True)]
            w = u0 - background
            for j in range(k - 1):
                for m in range(substeps):
                    t = t0 + j * tau + m * h
                    w = _gauss_substep(
                        model, grid, w, background, t, h, inv_stages, source
                    )
                states.append(w + background)
            return states
        except StarterFailureError as exc:
            last_error = exc
    raise StarterFailureError(
        f"no contraction even at substep tau/{2 ** MAX_SUBSTEP_HALVINGS}: {last_error}"
    )


def energy(model: ModelSpec, grid: Grid, u: np.ndarray, u_hat=None, lhat=None) -> float:
    """Discrete free energy: cell volume times (u . Lu / 2 + sum F(u)).

    u . Lu is evaluated spectrally from u_hat, the transform of u, which is
    taken here when the caller does not already hold it.
    """
    if u_hat is None:
        u_hat = grid.fft(u)
    if lhat is None:
        lhat = model.l_symbol(grid.k2)
    quad = grid.spectral_inner(u_hat, u_hat, lhat)
    return 0.5 * quad + grid.cell_volume * float(np.sum(model.potential(u)))


def _masked_inverse_m(mhat: np.ndarray) -> np.ndarray:
    inv = np.zeros_like(mhat)
    nz = mhat != 0.0
    inv[nz] = 1.0 / mhat[nz]
    return inv


def _check_zero_mean(model, grid, delta_hats):
    if not model.mass_conserving:
        return
    zero_index = (0,) * grid.dim
    for d in delta_hats:
        mean = abs(d[zero_index]) / grid.npoints
        if mean > ZERO_MEAN_TOL:
            raise InvariantViolationError(
                f"state difference has mean {mean:.3e} under a mass-conserving model"
            )


def modified_energy(
    model: ModelSpec,
    grid: Grid,
    history: History,
    scheme: SchemeCoefficients,
    report: DissipationReport,
) -> float:
    """Energy plus the certified nonnegative quadratic modifications.

    E_G^n = E[u^n] - (1/tau) sum g^a_ij (du_i, M^{-1} du_j)
            + sum g^b_ij (du_i, L du_j) + ell_f sum chat_i ||du_i||^2
    with du_i = delta u^{n+1-i}, i = 1..k-1, all inner products spectral;
    the quadratic parts are the Gram sums of the tracker ``simulate`` uses.
    """
    if report.refused:
        raise ValueError("cannot form modified energy: " + (report.refusal_reason or ""))
    e = energy(model, grid, history.state(0))
    if scheme.k == 1:
        return e
    _check_zero_mean(model, grid, history.delta_hats())
    mhat = model.m_symbol(grid.k2)
    lhat = model.l_symbol(grid.k2)
    tracker = _QuadFormTracker(grid, history, mhat, lhat, report, reform(scheme).chat)
    return e + tracker.quadratic_parts()


class _QuadFormTracker:
    """Rolling Gram matrices for the per-step modified energy.

    Each new state shifts every pairwise inner product by one index, so only
    the new row is computed per step: one real matmul of the new difference,
    weighted by M^{-1}, L and the identity, against a ring buffer of the
    last k-1 differences, each complex mode read as its (re, im) float pair.
    """

    def __init__(self, grid, history, mhat, lhat, report, chat):
        n = self.k1 = history.k - 1
        weights = np.stack([_masked_inverse_m(mhat), lhat, np.ones_like(lhat)])
        weights *= grid.cell_volume / grid.npoints * grid.multiplicity
        self.weights = np.repeat(weights, 2, axis=-1).reshape(3, -1)
        # Gram coefficients of E_G - E, in the order of self.gram
        self.coef = np.stack([
            -np.asarray(report.G_a, dtype=float) / history.tau,
            np.asarray(report.G_b, dtype=float),
            report.constants.ell_f * np.diag(np.asarray(chat, dtype=float)),
        ])
        self.head = 0   # ring slot of the newest difference
        self.ring = np.zeros((n,) + lhat.shape, dtype=complex)
        self.flat = self.ring.view(np.float64).reshape(n, -1)
        self.gram = np.zeros((3, n, n))
        for i in range(n, 0, -1):
            self.push(history.deviation_hat(i - 1), history.deviation_hat(i))

    def push(self, new_hat, old_hat):
        """Record new_hat - old_hat as the newest difference."""
        n = self.k1
        self.head = (self.head + 1) % n
        np.subtract(new_hat, old_hat, out=self.ring[self.head])
        row = (self.weights * self.flat[self.head]) @ self.flat.T  # by slot
        row = row[:, (self.head - np.arange(n)) % n]               # by lag
        self.gram[:, 1:, 1:] = self.gram[:, :-1, :-1].copy()
        self.gram[:, 0, :] = row
        self.gram[:, :, 0] = row

    def quadratic_parts(self) -> float:
        return float(np.sum(self.coef * self.gram))


@dataclass
class EnergyTrace:
    """Per-step record: index, time, E, E_G, mass, max norm."""

    steps: list = field(default_factory=list)
    times: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    modified_energy: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    max_abs: list = field(default_factory=list)

    def append(self, step, t, e, eg, mass, max_abs):
        self.steps.append(step)
        self.times.append(t)
        self.energy.append(e)
        self.modified_energy.append(eg)
        self.mass.append(mass)
        self.max_abs.append(max_abs)

    def write_csv(self, path, header_comment: str | None = None):
        def fmt(x):
            return format(x, ".17g")

        with open(path, "w") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write("step,t,E,E_G,mass,max_abs\n")
            for row in zip(
                self.steps, self.times, self.energy,
                self.modified_energy, self.mass, self.max_abs,
            ):
                fh.write(
                    f"{row[0]},{fmt(row[1])},{fmt(row[2])},{fmt(row[3])},"
                    f"{fmt(row[4])},{fmt(row[5])}\n"
                )


def simulate(
    model: ModelSpec,
    grid: Grid,
    scheme: SchemeCoefficients,
    report: DissipationReport | None,
    u0: np.ndarray,
    tau: float,
    n_steps: int,
    source: Callable[[float], np.ndarray] | None = None,
    t0: float = 0.0,
    on_state: Callable[[int, float, np.ndarray], None] | None = None,
) -> tuple:
    """Drive a full run and record the energy trace.

    The modified energy is recorded from step k-1 on (earlier entries are
    NaN) and only when a non-refused certificate is supplied.  ``source(t)``,
    when given, returns the half-spectrum transform of g(t).  Returns
    (trace, history); raises InvariantViolationError at the first state
    whose energy is not finite or whose max|u| reaches the model's
    truncation radius, where the certificate no longer holds.
    """
    flow = SpectralFlow(model, grid, scheme, tau)
    k = scheme.k
    states = gauss_rk6_start(model, grid, u0, tau, k, source=source, t0=t0)
    history = flow.history(states, t0=t0, source=source)
    radius = model.truncation_radius
    certified = report is not None and not report.refused
    tracker = None
    if certified and k > 1:
        tracker = _QuadFormTracker(
            grid, history, flow.mhat, flow.lhat, report, reform(scheme).chat
        )

    trace = EnergyTrace()

    def record(step, u, e, window_full):
        t = t0 + step * tau
        max_abs = float(np.max(np.abs(u)))
        if not math.isfinite(e):
            raise InvariantViolationError(f"energy is {e} after step {step} (t = {t})")
        if radius is not None and max_abs >= radius:
            raise InvariantViolationError(
                f"max|u| = {max_abs:.6g} reached the truncation radius {radius} "
                f"after step {step} (t = {t}); the Lipschitz certificate is void"
            )
        eg = float("nan")
        if certified and window_full:
            eg = e + (tracker.quadratic_parts() if tracker else 0.0)
        trace.append(step, t, e, eg, float(np.mean(u)), max_abs)
        if on_state is not None:
            on_state(step, t, u)

    for j, u in enumerate(states):
        record(j, u, energy(model, grid, u, lhat=flow.lhat), j == k - 1)
    for n in range(k, k + n_steps):
        prev_hat = history.deviation_hat(0)
        u = flow.step(history)
        if tracker is not None:
            tracker.push(history.deviation_hat(0), prev_hat)
        record(n, u, energy(model, grid, u, history.state_hat(0), flow.lhat), True)
    return trace, history


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution and time derivative sampled on the grid."""

    u: Callable[[float], np.ndarray]
    u_t: Callable[[float], np.ndarray]


def discrete_source(model: ModelSpec, grid: Grid, solution: ManufacturedSolution):
    """Half-spectrum transform of the source g(t) = u_t - M(L u + f(u)) under
    the discrete operators, so the sampled exact solution solves the
    semi-discrete system exactly."""
    mhat = model.m_symbol(grid.k2)
    lhat = model.l_symbol(grid.k2)

    def g_hat(t: float) -> np.ndarray:
        u = solution.u(t)
        rhs_hat = mhat * (lhat * grid.fft(u) + grid.fft(model.f(u)))
        return grid.fft(solution.u_t(t)) - rhs_hat

    return g_hat


def trig_mode_solution(grid: Grid) -> ManufacturedSolution:
    """cos(t) sin(x) sin(y): one Fourier mode per axis, spatially exact."""
    coords = grid.coordinates()
    mode = np.sin(coords[0]) * np.sin(coords[1])
    return ManufacturedSolution(
        u=lambda t: np.cos(t) * mode,
        u_t=lambda t: -np.sin(t) * mode,
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n_steps: int
    tau: float
    error_inf: float
    rate_inf: float | None
    error_two: float
    rate_two: float | None


def convergence_study(
    model: ModelSpec,
    grid: Grid,
    scheme: SchemeCoefficients,
    solution: ManufacturedSolution,
    n_list: Sequence[int],
    T: float = 1.0,
) -> list:
    """Temporal errors against a manufactured solution with matched source.

    Each N runs through ``simulate``, so its invariant checks cover every
    run.  e_inf(tau) and e_2(tau) maximize the pointwise / cell-weighted
    errors over steps n >= k-1; rates compare consecutive entries of n_list.
    """
    k = scheme.k
    source = discrete_source(model, grid, solution)
    rows = []
    prev = None
    for N in n_list:
        if N < k:
            raise ValueError(f"need at least k={k} steps, got {N}")
        tau = T / N
        e_inf = e_two = 0.0

        def measure(n, t, u):
            nonlocal e_inf, e_two
            if n >= k - 1:
                err = u - solution.u(t)
                e_inf = max(e_inf, float(np.max(np.abs(err))))
                e_two = max(e_two, grid.norm(err))

        simulate(
            model, grid, scheme, None, solution.u(0.0), tau, N - (k - 1),
            source=source, on_state=measure,
        )
        rate_inf = rate_two = None
        if prev is not None:
            span = np.log(N / prev.n_steps)
            rate_inf = float(np.log(prev.error_inf / e_inf) / span)
            rate_two = float(np.log(prev.error_two / e_two) / span)
        row = ConvergenceRow(N, tau, e_inf, rate_inf, e_two, rate_two)
        rows.append(row)
        prev = row
    return rows


@dataclass(frozen=True)
class PatchSpec:
    center: tuple
    side: float
    amplitude: float


def default_patches(lengths) -> tuple:
    """Three perturbation patches, reference geometry scaled to the box.

    Centers sit at box fractions (1/4, 49/64), (1/2, 1/4) and (49/64, 49/64)
    with amplitudes 0.25, 0.30, 0.35; the side length stays 10 length units.
    """
    lx, ly = float(lengths[0]), float(lengths[1])
    return (
        PatchSpec((0.25 * lx, 49 / 64 * ly), 10.0, 0.25),
        PatchSpec((0.5 * lx, 0.25 * ly), 10.0, 0.30),
        PatchSpec((49 / 64 * lx, 49 / 64 * ly), 10.0, 0.35),
    )


@dataclass
class PfcExperimentResult:
    trace: EnergyTrace
    report: DissipationReport
    energy_offset: float       # additive constant vs the conventional energy
    max_abs: float
    # False on every result: simulate raises at the first state that leaves
    # the truncation interval
    truncation_violated: bool
    seed: int


def pfc_experiment(
    grid: Grid,
    tau: float,
    T: float,
    seed: int = 1,
    patches: Sequence[PatchSpec] | None = None,
    model: ModelSpec | None = None,
    scheme: SchemeCoefficients | None = None,
    report: DissipationReport | None = None,
    mean_level: float = 0.285,
    on_state=None,
) -> PfcExperimentResult:
    """Crystal grain growth from localized random perturbations.

    The initial datum is mean_level + A(x, y) * uniform(-1, 1) with A the
    piecewise patch amplitude and a seeded 64-bit generator.  Runs the
    six-step scheme by default and records the energy trace; a solution that
    leaves the truncation interval voids the certificate, and ``simulate``
    raises InvariantViolationError there.
    """
    model = model or pfc(0.25)
    scheme = scheme or lmm6_scheme()
    report = report or certify_scheme(scheme, model.constants())
    patches = default_patches(grid.lengths) if patches is None else tuple(patches)

    coords = grid.coordinates()
    amp = np.zeros(grid.shape)
    for patch in patches:
        inside = np.ones(grid.shape, dtype=bool)
        for axis, c in enumerate(patch.center):
            inside &= np.abs(coords[axis] - c) <= patch.side / 2.0
        amp[inside] = patch.amplitude
    rng = np.random.default_rng(seed)
    u0 = mean_level + amp * rng.uniform(-1.0, 1.0, grid.shape)

    n_steps = int(round(T / tau)) - (scheme.k - 1)
    if n_steps < 0:
        raise ValueError("T too short for the starting window")
    trace, _ = simulate(
        model, grid, scheme, report, u0, tau, n_steps, on_state=on_state
    )
    offset = (1.0 + model.epsilon) ** 2 / 4.0 * grid.volume
    return PfcExperimentResult(
        trace=trace,
        report=report,
        energy_offset=offset,
        max_abs=max(trace.max_abs),
        truncation_violated=False,
        seed=seed,
    )
