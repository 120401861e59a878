"""Fourier pseudo-spectral time stepping for gradient flows.

Operators diagonalize in Fourier space, so each multistep update is a single
diagonal solve per mode; the cubic nonlinearity is evaluated pointwise in
physical space.  Starting values come from the 3-stage Gauss collocation
method (order 6), whose stage system is solved by fixed-point iteration on the
nonlinearity, the stiff linear part per mode from three real symbols; a substep
starts from the last one's extrapolated stages plus the last extrapolation's miss.
One workspace serves the whole start, and every sweep writes into it in place.
One ``SpectralFlow`` per run holds and advances the transforms of the last
k states, the run's only history; a certified run's energy tracker reads
them there.

For mass-conserving models (m(0) = 0) the integrator evolves the deviation
from the initial mean: the zero mode of the deviation stays at rounding level
instead of feeding a large constant through the multistep recurrence, which
keeps the recorded mass constant to machine precision over long runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .certify import DissipationReport, certify_scheme, require_positive
from .models import Grid, ModelSpec, pfc
from .schemes import SchemeCoefficients, lmm6_scheme, reform

__all__ = [
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


class InvariantViolationError(ArithmeticError):
    """A structural invariant (zero mean, Hermitian symmetry, ...) failed."""


class StarterFailureError(ArithmeticError):
    """Gauss collocation stages refused to contract down to tau/64."""


class IllPosedStepError(ArithmeticError):
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
_GAUSS_A_POWERS = np.vstack([GAUSS_A, GAUSS_A @ GAUSS_A])
# weights of the collocation polynomial through (0, w), (c_i, Y_i) at times 1 + c_i
GAUSS_PREDICT = np.linalg.solve(np.vander(np.r_[0, GAUSS_C]).T, np.vander(1 + GAUSS_C, 4).T).T

STAGE_TOL = 1e-14
MAX_STAGE_ITERS = 200
MAX_SUBSTEP_HALVINGS = 6
ZERO_MEAN_TOL = 1e-10
PFC_MEAN_LEVEL = 0.285  # mean of the grain-growth initial datum


def _background(model: ModelSpec, u0: np.ndarray) -> float:
    return float(np.mean(u0)) if model.mass_conserving else 0.0


_W, _F = range(2)   # the transform rows of a ring slot


def _flat_symbols(symbols) -> np.ndarray:
    """Stacked half-spectrum symbols over each mode's (re, im) float pair."""
    return np.repeat(np.asarray(symbols), 2, axis=-1).reshape(len(symbols), -1)


class SpectralFlow:
    """One run's multistep updates for a (model, grid, scheme, tau) and the
    ring of half-spectrum transforms of its last k states.

    Slot (head - back) % k holds u^{n-back}: the transforms of its deviation
    w from a fixed background mean (zero for models that do not conserve
    mass) and of f(u), or with a source the explicit term m (f(u) - f(u*))^
    + g_lin of ``discrete_source``'s split; ``flat`` views the ring as float
    rows by slot and ``deviations`` its k deviation rows.  Getters return
    views, which ``push`` overwrites k states later; ``state(back)`` inverts
    on demand and returns the full field.  ``step`` writes w^{n+1} straight
    into the oldest slot, once its matmul has read it, and copies no spectrum.

    Per mode the update is pivot * w^{n+1} = sum_i c_i w^{n+1-i} + d_i F^{n+1-i},
    pivot = A_0 - tau m B_0 l, c_i = tau m l B_i - A_i, d_i = tau m Bhat_i (tau Bhat_i
    with a source, whose F carries m).  Its 3 slot sums of B_i w_i, A_i w_i, Bhat_i F_i
    are one real matmul of the ring's float view by the current head's coefficient
    matrix; the per-mode symbols (tau m l, -1, tau m or tau) / pivot weight them.
    """

    def __init__(self, model, grid, scheme, tau, states, t0=0.0, source=None):
        tau = require_positive("tau", tau)
        self.k = k = scheme.k
        if len(states) != k:
            raise ValueError(f"the flow needs exactly k={k} states")
        self.model, self.grid, self.scheme, self.source = model, grid, scheme, source
        self.tau, self.t0 = float(tau), float(t0)
        A = [float(x) for x in scheme.A]
        B = [float(x) for x in scheme.B]
        self.mhat = model.m_symbol(grid.k2)
        self.lhat = model.l_symbol(grid.k2)
        tml = self.tau * self.mhat * self.lhat
        pivot = A[0] - B[0] * tml
        floor = 1e-14 * (abs(A[0]) + np.abs(B[0] * tml))
        if np.any(np.abs(pivot) <= floor):
            raise IllPosedStepError("zero pivot in the diagonal implicit solve")
        inv_pivot = 1.0 / pivot
        explicit = self.tau if source is not None else self.tau * self.mhat
        self.symbols = _flat_symbols([x * inv_pivot for x in (tml, -1.0, explicit)])
        # scalar weights by (sum, lag, ring row); a slot's lag is (head - slot) % k
        lag = np.zeros((3, k, 2))
        lag[0, :, _W] = B[1:]
        lag[1, :, _W] = A[1:]
        lag[2, :, _F] = [float(x) for x in scheme.Bhat]
        self.lags = (np.arange(k)[:, None] - np.arange(k)) % k    # by (head, slot)
        self._slot_coef = [lag[:, lags].reshape(3, -1) for lags in self.lags]
        self._ring = np.zeros((k, 2) + grid.k2.shape, dtype=complex)
        self.flat = self._ring.view(np.float64).reshape(2 * k, -1)
        self.deviations = self.flat[_W::2]
        self.background = _background(model, states[0])
        self.n = -1             # index of the newest state
        for u in states:
            w = u - self.background
            self.push(grid.fft(w), w + self.background)

    def slot(self, back: int = 0) -> np.ndarray:
        """The transform rows of u^{n-back}, back = 0..k-1."""
        return self._ring[(self.head - back) % self.k]

    def time(self, back: int = 0) -> float:
        return self.t0 + (self.n - back) * self.tau

    def state(self, back: int = 0) -> np.ndarray:
        """Full field u^{n-back} for back = 0..k-1."""
        return self.grid.ifft(self.slot(back)[_W]) + self.background

    def deviation_hat(self, back: int = 0) -> np.ndarray:
        return self.slot(back)[_W]

    def push(self, w_hat, u):
        """Store the next state (w's transform, full field u) as the oldest slot's W and F."""
        self.n += 1
        self.head = self.n % self.k     # slot of the newest state
        slot = self._ring[self.head]
        slot[_W] = w_hat        # a no-op for the slot's own row, as ``step`` passes it
        if self.source is None:
            self.grid.fft(self.model.f(u), out=slot[_F])
        else:   # f(u) - f(u*) out of place: a user's f may return u, the field ``step`` returns
            f_star, g_lin = self.source(self.time())
            f_hat = self.grid.fft(self.model.f(u) - f_star, out=slot[_F])
            f_hat *= self.mhat
            f_hat += g_lin

    def step(self) -> np.ndarray:
        """Advance one multistep update; returns the new full field.

        The solved right-hand side is written into the oldest slot and is
        the new transform itself, so a step costs one checked inverse
        transform (for f(u)) and one forward one (of f(u), less f(u*) with a
        source).  The oldest state is overwritten before the inverse checks
        the solve, so a step that raises leaves the flow unusable.
        """
        sums = self._slot_coef[self.head] @ self.flat
        oldest = (self.head + 1) % self.k
        np.einsum("rm,rm->m", self.symbols, sums, out=self.deviations[oldest])
        u = self.grid.ifft(self._ring[oldest, _W])
        u += self.background
        self.push(self._ring[oldest, _W], u)
        return u


def _stage_solver(mhat_lhat, h):
    """Per-mode solve of (I - sA) Y = X, s = h*m*l: X is the real view (3, 2 * modes)
    of three stacked half spectra, Y complex.  By Cayley-Hamilton (I - sA)^{-1} =
    (q_0 I + q_1 A + q_2 A^2) / p with p = det(I - sA) = q_0 - s^3/120, q_0 = 1 - s/2
    + s^2/10, q_1 = s (1 - s/2), q_2 = s^2; s <= 0, so no term of p or q_0 cancels.
    Products accumulate in place as (r_0 X + r_1 A X) + r_2 A^2 X: Y overwrites X, and A X,
    A^2 X fill ax, the (6, 2 * modes) block of the start's one workspace."""
    s = h * mhat_lhat
    q0 = 1.0 - s / 2 + s * s / 10
    r = _flat_symbols(np.stack([q0, s * (1.0 - s / 2), s * s]) / (q0 - s * s * s / 120))

    def solve(x, ax):
        ax = np.matmul(_GAUSS_A_POWERS, x, out=ax)
        x *= r[0]
        x += np.multiply(r[1], ax[:3], out=ax[:3])
        x += np.multiply(r[2], ax[3:], out=ax[3:])
        return x.view(complex)
    return solve


def _stages_settled(r, r_prev) -> bool:
    """r <= STAGE_TOL, or theta r / (1 - theta) <= it at theta = r / r_prev < 1, r_prev finite."""
    return r <= STAGE_TOL or (r_prev < np.inf and r * r <= STAGE_TOL * (r_prev - r))


def _gauss_substep(model, grid, mhat, w, background, t, h, solve, source, work, guess=None):
    """One Gauss collocation substep on the deviation field w; mhat is the mobility
    symbol on grid.k2.  Iterates from ``guess``, the starter's prediction plus the
    last one's miss (stages - prediction), or from (w, w, w); returns w+ and stages, a
    stack of the start's one workspace ``work``, whose buffers every sweep overwrites."""
    stages, new, block, rhs, f_stars, g_hats = work
    f_hats = block[:3].view(complex).reshape((3,) + mhat.shape)
    w_hat = grid.fft(w).view(np.float64).reshape(-1)
    if source is not None:   # stage-time parts, subtracted before the sweep's transform
        for c, f_star, g_hat in zip(GAUSS_C, f_stars, g_hats):
            f_star[...], g_hat[...] = source(t + c * h)
    stages[...] = w if guess is None else guess
    residual_prev = np.inf
    growth = 0
    for _ in range(MAX_STAGE_ITERS):
        f = model.f(np.add(stages, background, out=new))
        if source is not None:
            f -= f_stars
        np.multiply(mhat, grid.fft(f, out=f_hats), out=f_hats)
        del f       # not held through the stage solve
        if source is not None:
            f_hats += g_hats
        np.matmul(h * GAUSS_A, block[:3], out=rhs)
        stage_hats = solve(np.add(rhs, w_hat, out=rhs), block)
        # unchecked inverse for iterates: transient non-normal growth of the
        # fixed-point map can push amplified roundoff past the strict gate,
        # and realification per sweep is itself the symmetry enforcement (the
        # self-conjugate planes keep their Hermitian part only, which is the
        # real part of a full inverse)
        np.fft.irfftn(stage_hats.reshape(f_hats.shape), grid.shape, grid.axes, out=new)
        residual = float(np.max(np.abs(np.subtract(new, stages, out=stages), out=stages)))
        stages, new = new, stages
        if _stages_settled(residual, residual_prev):
            return w + np.einsum("i,i...->...", GAUSS_D, np.subtract(stages, w, out=new)), stages
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
) -> list:
    """Starting values u^0 .. u^{k-1} by 3-stage Gauss collocation.

    ``source(t)``, when given, returns g(t) split as ``discrete_source`` does.
    Stage sweeps stop once the max-norm residual or its contraction estimate is
    <= 1e-14; a substep that will not contract is halved, down to tau/64.  A ``tau``
    that is not finite and positive raises ValueError before any stage is solved.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tau = require_positive("tau", tau)
    background = _background(model, u0)
    mhat = model.m_symbol(grid.k2)
    mhat_lhat = mhat * model.l_symbol(grid.k2)
    # one workspace per start: stage stacks, the f^ / A X, A^2 X block, rhs, source rows
    *pair, guess, miss = np.empty((4, 3) + grid.shape)
    rows = (np.empty_like(guess), np.empty((3,) + mhat.shape, complex)) if source else (None, None)
    work = (*pair, *np.split(np.empty((9, 2 * grid.k2.size)), [6]), *rows)
    last_error = None
    for halving in range(MAX_SUBSTEP_HALVINGS + 1):
        substeps = 2 ** halving
        h = tau / substeps
        solve = _stage_solver(mhat_lhat, h)
        try:
            states = [np.array(u0, dtype=float, copy=True)]
            w, predicted = u0 - background, False
            for j in range(k - 1):
                for m in range(substeps):
                    t = j * tau + m * h
                    args = (model, grid, mhat, w, background, t, h, solve, source, work)
                    try:
                        w_next, stages = _gauss_substep(*args, guess if predicted else None)
                    except StarterFailureError:
                        if not predicted:
                            raise
                        (w_next, stages), predicted = _gauss_substep(*args), False
                    # the next start: the collocation prediction plus this substep's miss
                    if not predicted:       # a flat start, nothing predicted
                        miss[...] = 0.0
                    else:                   # the prediction was guess - miss
                        miss += stages
                        miss -= guess
                    np.dot(GAUSS_PREDICT, np.stack([w, *stages]).reshape(4, -1),
                           out=guess.reshape(3, -1))
                    guess += miss
                    w, predicted = w_next, True
                states.append(w + background)
            return states
        except StarterFailureError as exc:
            last_error = exc
    raise StarterFailureError(
        f"no contraction even at substep tau/{2 ** MAX_SUBSTEP_HALVINGS}: {last_error}"
    )


def energy(
    model: ModelSpec, grid: Grid, u: np.ndarray, w_hat=None, weight=None, background=0.0
) -> float:
    """Discrete free energy: cell volume times (u . Lu / 2 + sum F(u)).

    u . Lu is evaluated spectrally from w_hat, the transform of w = u -
    background (u itself when the caller holds none), with L's flat weight
    ``_spectral_weights(grid, lhat)[0]``; the background enters as a scalar.
    """
    if w_hat is None:
        w_hat, background = grid.fft(u), 0.0
    if weight is None:
        weight = _spectral_weights(grid, model.l_symbol(grid.k2))[0]
    x = np.ascontiguousarray(w_hat).view(np.float64).reshape(-1)
    shift = background * grid.npoints     # zero mode of the background's transform
    quad = float(np.einsum("i,i,i->", x, weight, x) + weight[0] * shift * (2.0 * x[0] + shift))
    return 0.5 * quad + grid.cell_volume * float(np.sum(model.potential(u)))


def _spectral_weights(grid: Grid, *symbols) -> np.ndarray:
    """Flat weights of (u, W v) from half spectra: W cell volume multiplicity / npoints."""
    scale = grid.cell_volume / grid.npoints * grid.multiplicity
    return _flat_symbols([w * scale for w in symbols])


def modified_energy(flow: SpectralFlow, report: DissipationReport) -> float:
    """Energy plus the certified nonnegative quadratic modifications.

    E_G^n = E[u^n] - (1/tau) sum g^a_ij (du_i, M^{-1} du_j)
            + sum g^b_ij (du_i, L du_j) + ell_f sum chat_i ||du_i||^2
    with du_i = delta u^{n+1-i}, i = 1..k-1, of the flow's window, all inner
    products spectral; the quadratic parts are the Gram sums of the tracker
    ``simulate`` uses.
    """
    if report.refused:
        raise ValueError("cannot form modified energy: " + (report.refusal_reason or ""))
    e = energy(flow.model, flow.grid, flow.state(0))
    return e + _QuadFormTracker(flow, report).quadratic_parts(flow)


class _QuadFormTracker:
    """Rolling Gram matrices for the per-step modified energy, in the slot
    order of the flow's ring: slot s stands for du_s = w_s - w_{s-1}.

    Each new state writes only the row and column of the head's slot, from
    the flow's ring itself: the newest difference du_1 = w^n - w^{n-1},
    weighted by M^{-1}, L and the identity into a preallocated buffer, goes
    by one real matmul against the flow's k deviation rows, and (W du_1,
    du_s) = (W du_1, w_s) - (W du_1, w_{s-1}).  The oldest slot's difference
    reaches out of the ring; each head's slot-ordered coefficients give it
    zero weight.  Building one forms the first Gram from the window's k - 1
    differences, one weight at a time, and checks that no difference of a
    mass-conserving run carries mean.
    """

    def __init__(self, flow: SpectralFlow, report: DissipationReport):
        mhat, lhat, k = flow.mhat, flow.lhat, flow.k
        inv_m = np.divide(1.0, mhat, out=np.zeros_like(mhat), where=mhat != 0.0)
        self.weights = _spectral_weights(flow.grid, inv_m, lhat, np.ones_like(lhat))
        self._product = np.empty_like(self.weights)
        self._du = np.empty_like(self.weights[0])
        # Gram coefficients of E_G - E by lag, zero at lag k - 1; by slot per head
        by_lag = np.pad([
            -np.asarray(report.G_a, dtype=float) / flow.tau,
            np.asarray(report.G_b, dtype=float),
            report.constants.ell_f * np.diag(np.asarray(reform(flow.scheme).chat, dtype=float)),
        ], ((0, 0), (0, 1), (0, 1)))
        self.coef = np.stack([by_lag[:, lags][:, :, lags] for lags in flow.lags])
        slots = (flow.head - np.arange(k)) % k      # by lag
        w = flow.deviations[slots]
        deltas = w[:-1] - w[1:]      # du_1 .. du_{k-1}, at slots[:-1]
        mean = np.max(np.hypot(deltas[:, 0], deltas[:, 1]), initial=0.0) / flow.grid.npoints
        if flow.model.mass_conserving and mean > ZERO_MEAN_TOL:
            raise InvariantViolationError(
                f"state difference has mean {mean:.3e} under a mass-conserving model"
            )
        self.gram = np.zeros((3, k, k))
        for gram, weight in zip(self.gram, self.weights):   # no (3, k, modes) temporary
            gram[np.ix_(slots[:-1], slots[:-1])] = (weight * deltas) @ deltas.T

    def push(self, flow: SpectralFlow):
        """Write the Gram row and column of the flow's newest difference."""
        w, s = flow.deviations, flow.head
        np.subtract(w[s], w[s - 1], out=self._du)
        dots = np.multiply(self.weights, self._du, out=self._product) @ w.T
        self.gram[:, s, :] = self.gram[:, :, s] = dots - dots[:, np.arange(flow.k) - 1]

    def quadratic_parts(self, flow: SpectralFlow) -> float:
        return float(np.sum(self.coef[flow.head] * self.gram))


@dataclass
class EnergyTrace:
    """Per-step record: index, time, E, E_G, mass, max norm."""

    steps: list = field(default_factory=list)
    times: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    modified_energy: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    max_abs: list = field(default_factory=list)

    def columns(self) -> tuple:
        return (self.steps, self.times, self.energy, self.modified_energy, self.mass, self.max_abs)

    def append(self, step, t, e, eg, mass, max_abs):
        for column, x in zip(self.columns(), (step, t, e, eg, mass, max_abs)):
            column.append(x)

    def write_csv(self, path, header_comment: str | None = None):
        with open(path, "w") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write("step,t,E,E_G,mass,max_abs\n")
            for step, *values in zip(*self.columns()):
                fh.write(",".join([str(step)] + [format(x, ".17g") for x in values]) + "\n")


def simulate(
    model: ModelSpec,
    grid: Grid,
    scheme: SchemeCoefficients,
    report: DissipationReport | None,
    u0: np.ndarray,
    tau: float,
    n_steps: int,
    source: Callable[[float], np.ndarray] | None = None,
    on_state: Callable[[int, float, np.ndarray], None] | None = None,
) -> tuple:
    """Drive a full run and record the energy trace.

    The Gauss starter's k states seed one ``SpectralFlow``; a Gram tracker
    follows the modified energy only under a non-refused certificate, which
    is recorded from step k-1 on (other entries are NaN).  ``source(t)``,
    when given, returns g(t) split as ``discrete_source`` does.  Returns
    (trace, flow); raises InvariantViolationError at the first state whose
    energy is not finite or whose max|u| reaches the model's truncation
    radius, where the certificate no longer holds.  A negative ``n_steps``
    (an end time inside the k-step starting window) raises ValueError before
    the starter runs, and a ``tau`` that is not finite and positive raises it
    in the starter, before any stage is solved.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps = {n_steps}: T too short for the starting window")
    k = scheme.k
    states = gauss_rk6_start(model, grid, u0, tau, k, source=source)
    flow = SpectralFlow(model, grid, scheme, tau, states, source=source)
    radius = model.truncation_radius
    certified = report is not None and not report.refused
    tracker = _QuadFormTracker(flow, report) if certified else None
    lweight = _spectral_weights(grid, flow.lhat)[0]
    trace = EnergyTrace()

    def record(step, u, back):
        """Check and record u = u^step, held in the flow's ring ``back`` states back."""
        t = step * tau
        e = energy(model, grid, u, flow.deviation_hat(back), lweight, flow.background)
        max_abs = float(np.max(np.abs(u)))
        if not math.isfinite(e):
            raise InvariantViolationError(f"energy is {e} after step {step} (t = {t})")
        if radius is not None and max_abs >= radius:
            raise InvariantViolationError(
                f"max|u| = {max_abs:.6g} reached the truncation radius {radius} "
                f"after step {step} (t = {t}); the Lipschitz certificate is void"
            )
        eg = float("nan")
        if certified and step >= k - 1:
            eg = e + tracker.quadratic_parts(flow)
        trace.append(step, t, e, eg, float(np.mean(u)), max_abs)
        if on_state is not None:
            on_state(step, t, u)

    for j, u in enumerate(states):
        record(j, u, k - 1 - j)
    for n in range(k, k + n_steps):
        u = flow.step()
        if tracker is not None:
            tracker.push(flow)
        record(n, u, 0)
    return trace, flow


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution u*(t) = amplitude(t) mode on the grid, rate = amplitude'."""

    mode: np.ndarray
    amplitude: Callable[[float], float]
    rate: Callable[[float], float]

    def u(self, t: float) -> np.ndarray:
        return self.amplitude(t) * self.mode


def discrete_source(model: ModelSpec, grid: Grid, solution: ManufacturedSolution):
    """Source g = u*_t - M(L u* + f(u*)) under the discrete operators, so the
    sampled exact solution solves the semi-discrete system exactly.  Split so
    that no time costs a transform: ``source(t)`` returns the field f(u*(t))
    and the half spectrum of u*_t - M L u*, which the update adds to
    M (f(u) - f(u*))^, subtracting before the transform it takes anyway."""
    mode_hat = grid.fft(solution.mode)
    ml_mode_hat = model.m_symbol(grid.k2) * model.l_symbol(grid.k2) * mode_hat

    def source(t: float) -> tuple:
        a = solution.amplitude(t)
        return model.f(a * solution.mode), solution.rate(t) * mode_hat - a * ml_mode_hat

    return source


def trig_mode_solution(grid: Grid) -> ManufacturedSolution:
    """cos(t) sin(x) sin(y): one Fourier mode per axis, spatially exact."""
    coords = grid.coordinates()
    return ManufacturedSolution(np.sin(coords[0]) * np.sin(coords[1]), np.cos, lambda t: -np.sin(t))


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
    errors over steps n >= k-1; rates compare consecutive, strictly rising N.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"step counts must increase strictly, got {list(n_list)}")
    T = require_positive("T", T)
    k = scheme.k
    source = discrete_source(model, grid, solution)
    rows = []
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
        if rows:
            prev = rows[-1]
            span = np.log(N / prev.n_steps)
            rate_inf = float(np.log(prev.error_inf / e_inf) / span)
            rate_two = float(np.log(prev.error_two / e_two) / span)
        rows.append(ConvergenceRow(N, tau, e_inf, rate_inf, e_two, rate_two))
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
    energy_offset: float       # additive constant vs the conventional energy
    max_abs: float


def pfc_experiment(
    grid: Grid,
    tau: float,
    T: float,
    seed: int = 1,
    patches: Sequence[PatchSpec] | None = None,
    model: ModelSpec | None = None,
    scheme: SchemeCoefficients | None = None,
    report: DissipationReport | None = None,
    on_state=None,
) -> PfcExperimentResult:
    """Crystal grain growth from localized random perturbations.

    The initial datum is PFC_MEAN_LEVEL + A(x, y) * uniform(-1, 1) with A the
    piecewise patch amplitude and a seeded 64-bit generator.  Runs the
    six-step scheme by default and records the energy trace; a solution that
    leaves the truncation interval voids the certificate, and ``simulate``
    raises InvariantViolationError there.
    """
    tau, T = require_positive("tau", tau), require_positive("T", T)  # before int(round(T / tau))
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
    u0 = PFC_MEAN_LEVEL + amp * rng.uniform(-1.0, 1.0, grid.shape)

    n_steps = int(round(T / tau)) - (scheme.k - 1)
    trace, _ = simulate(
        model, grid, scheme, report, u0, tau, n_steps, on_state=on_state
    )
    offset = (1.0 + model.epsilon) ** 2 / 4.0 * grid.volume
    return PfcExperimentResult(trace=trace, energy_offset=offset, max_abs=max(trace.max_abs))
