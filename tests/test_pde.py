"""Grid primitives, Gauss starter, stepping, energies, experiments."""

import tracemalloc

import numpy as np
import pytest

from imexlmm.certify import certify_scheme
from imexlmm import pde
from imexlmm.models import (
    Grid,
    HermitianViolationError,
    ModelSpec,
    allen_cahn,
    cahn_hilliard,
    cubic_lipschitz_bound,
    pfc,
)
from imexlmm.pde import (
    InvariantViolationError,
    PatchSpec,
    SpectralFlow,
    StarterFailureError,
    convergence_study,
    default_patches,
    discrete_source,
    energy,
    gauss_rk6_start,
    modified_energy,
    pfc_experiment,
    simulate,
    trig_mode_solution,
)
from imexlmm.schemes import bdf_coefficients, lmm6_scheme, reform


def small_grid(n=32, length=2 * np.pi):
    return Grid((n, n), (length, length))


def spectral_inner(grid, u_hat, v_hat, weight=None) -> float:
    """(u, W v) for a real diagonal symbol W, from half spectra: each stored
    mode counts with its multiplicity in the full spectrum."""
    w = grid.multiplicity if weight is None else weight * grid.multiplicity
    z = u_hat.real * v_hat.real + u_hat.imag * v_hat.imag
    return grid.cell_volume / grid.npoints * float(np.sum(z * w))


def free_flow_model(epsilon=0.0):
    """m = -1, L = 0, f = 0: stationary dynamics for step bookkeeping tests."""
    return ModelSpec(
        name="free",
        epsilon=epsilon,
        m_symbol=lambda k2: -np.ones_like(k2),
        l_symbol=lambda k2: np.zeros_like(k2),
        f=lambda u: np.zeros_like(u),
        potential=lambda u: np.zeros_like(u),
        ell_f=1.0,
        zeta=1.0,
        eta=1.0,
        mass_conserving=False,
    )


# ------------------------------------------------------------------- grid

GRID_SHAPES = {1: (32,), 2: (32, 16), 3: (8, 6, 10)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_parseval_identity(dim):
    shape = GRID_SHAPES[dim]
    grid = Grid(shape, (2 * np.pi, 3.0, 5.0)[:dim])
    assert grid.k2.shape == shape[:-1] + (shape[-1] // 2 + 1,)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(grid.shape)
        v = rng.standard_normal(grid.shape)
        direct = grid.inner(u, v)
        spectral = spectral_inner(grid, grid.fft(u), grid.fft(v))
        assert abs(direct - spectral) < 1e-12 * max(1.0, abs(direct))
        assert np.max(np.abs(grid.ifft(grid.fft(u)) - u)) < 1e-13


@pytest.mark.parametrize("dim, stack", [(1, ()), (2, ()), (3, ()), (2, (3,))],
                         ids=["1d", "2d", "3d", "2d-stack"])
def test_grid_ifft_rejects_anti_hermitian_planes(dim, stack):
    # the self-conjugate planes (last-axis index 0 and n/2) of a half
    # spectrum must be Hermitian on their own; a full inverse would turn
    # their anti-Hermitian part into an imaginary residue.  The residue is
    # read off the inverse's own intermediate, and the field is irfftn's
    shape = GRID_SHAPES[dim]
    grid = Grid(shape, (2 * np.pi, 3.0, 5.0)[:dim])
    u = np.random.default_rng(9).standard_normal(stack + shape)
    u_hat = grid.fft(u)
    assert np.array_equal(grid.ifft(u_hat), np.fft.irfftn(u_hat, shape, grid.axes))
    assert np.max(np.abs(grid.ifft(u_hat) - u)) < 1e-14
    buf = np.empty_like(u_hat)
    assert grid.fft(u, out=buf) is buf and np.array_equal(buf, u_hat)

    origin = (0,) * len(stack + shape)
    nyquist = origin[:-1] + (-1,)
    broken = [(origin, 1e-6j), (nyquist, 1e-6j)]    # imaginary mean and Nyquist mode
    if dim > 1:     # (1, n/2) no longer conjugate to (-1, n/2)
        broken.append((origin[:-2] + (1, -1), 1e-6))
    for index, kick in broken:
        bad = u_hat.copy()
        bad[index] += kick * grid.npoints
        with pytest.raises(HermitianViolationError):
            grid.ifft(bad)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((33, 32), (1.0, 1.0))
    with pytest.raises(ValueError):
        Grid((32,), (1.0, 1.0))


@pytest.mark.parametrize("length", [0.0, -16.0, float("nan"), float("inf")])
def test_grid_lengths_must_be_finite_and_positive(length):
    # -16 ran as a box of side 16, and 0 divided by zero
    with pytest.raises(ValueError, match="grid length must be finite and positive"):
        Grid((16, 16), (16.0, length))


@pytest.mark.parametrize("builder", [allen_cahn, cahn_hilliard, pfc], ids=["ac", "ch", "pfc"])
@pytest.mark.parametrize("name", ["epsilon", "radius"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_model_builders_take_finite_positive_parameters(builder, name, value):
    # a NaN epsilon ran the starter's whole halving ladder and read as an
    # invariant failure; it is refused when the model is built
    params = {"epsilon": 0.25, "radius": 2.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        builder(**params)


def test_spectral_norm_identity():
    # symbol form of ||(-M)^{-1/2} v||^2 equals solve-then-inner-product
    grid = small_grid(n=32, length=16.0)
    model = pfc(0.25)
    mhat = model.m_symbol(grid.k2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(grid.shape)
        v -= v.mean()
        v_hat = grid.fft(v)
        inv = np.zeros_like(mhat)
        inv[mhat != 0] = 1.0 / mhat[mhat != 0]
        via_symbol = spectral_inner(grid, v_hat, v_hat, -inv)
        w = grid.ifft(-inv * v_hat)  # w = -M^{-1} v on the zero-mean complement
        via_solve = grid.inner(v, w)
        assert abs(via_symbol - via_solve) < 1e-12 * max(1.0, abs(via_symbol))


def test_interpolation_inequality_pfc():
    grid = Grid((64, 64), (128.0, 128.0))
    model = pfc(0.25)
    mhat = model.m_symbol(grid.k2)
    lhat = model.l_symbol(grid.k2)
    inv = np.zeros_like(mhat)
    inv[mhat != 0] = 1.0 / mhat[mhat != 0]
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.standard_normal(grid.shape)
        v -= v.mean()
        v_hat = grid.fft(v)
        norm = np.sqrt(spectral_inner(grid, v_hat, v_hat))
        m_half = np.sqrt(spectral_inner(grid, v_hat, v_hat, -inv))
        l_half = np.sqrt(spectral_inner(grid, v_hat, v_hat, lhat))
        bound = model.zeta * m_half ** model.eta * l_half ** (1 - model.eta)
        assert norm <= bound * (1 + 1e-12)


def test_pfc_lipschitz_constant():
    assert pfc(0.25, radius=2.0).ell_f == pytest.approx(10.75, abs=1e-14)
    assert pfc(0.25, radius=2.0).ell_f == cubic_lipschitz_bound(1.25, 2.0)


@pytest.mark.parametrize("model, c", [(allen_cahn(0.05), 1.0), (cahn_hilliard(0.5), 1.0),
                                      (pfc(0.25), 1.25)], ids=["ac", "ch", "pfc"])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["field", "stack"])
def test_cubic_matches_the_plain_expressions(model, c, stack):
    # f and the potential are formed in place in one fresh array; they must
    # equal the plain expressions bit for bit and leave the input alone
    u = np.random.default_rng(21).uniform(-1.5, 1.5, stack + (16, 8))
    kept = u.copy()
    assert np.array_equal(model.f(u), u * u * u - c * u)
    assert np.array_equal(model.potential(u), 0.25 * (u ** 2 - c) ** 2)
    assert np.array_equal(u, kept)


# ---------------------------------------------------------------- stepping

def test_stationary_dynamics_bdf1():
    grid = small_grid(16)
    model = free_flow_model()
    scheme = bdf_coefficients(1)
    u0 = np.sin(grid.coordinates()[0])
    flow = SpectralFlow(model, grid, scheme, 0.1, gauss_rk6_start(model, grid, u0, 0.1, scheme.k))
    u1 = flow.step()
    assert np.max(np.abs(u1 - u0)) < 1e-14


def test_local_truncation_order_seven():
    # one six-step update from exact history: error should shrink ~ tau^7.
    # The window starts at t0 = 1 so the leading error term (proportional to
    # the seventh time derivative) does not vanish as tau -> 0.
    grid = small_grid(32)
    model = allen_cahn(0.01)
    scheme = lmm6_scheme()
    solution = trig_mode_solution(grid)
    source = discrete_source(model, grid, solution)
    t0 = 1.0
    errors = []
    taus = [0.2, 0.1, 0.05]
    for tau in taus:
        states = [solution.u(t0 + j * tau) for j in range(scheme.k)]
        u = SpectralFlow(model, grid, scheme, tau, states, t0=t0, source=source).step()
        errors.append(np.max(np.abs(u - solution.u(t0 + scheme.k * tau))))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert all(6.4 < r < 7.6 for r in rates), (errors, rates)


def test_pfc_step_matches_full_spectrum_oracle():
    # one six-step PFC update written with full complex transforms, from a
    # random history with a common mean
    grid = small_grid(32, length=32.0)
    model = pfc(0.25)
    scheme = lmm6_scheme()
    tau = 0.01
    rng = np.random.default_rng(11)
    states = []
    for _ in range(scheme.k):
        noise = 0.2 * rng.standard_normal(grid.shape)
        states.append(0.285 + noise - noise.mean())
    got = SpectralFlow(model, grid, scheme, tau, states).step()

    freq = [2 * np.pi * np.fft.fftfreq(n, d=l / n) for n, l in zip(grid.shape, grid.lengths)]
    k2 = freq[0][:, None] ** 2 + freq[1][None, :] ** 2
    m, l = -k2, (1.0 - k2) ** 2 + 1.0
    A, B, Bhat = (np.array([float(x) for x in c]) for c in (scheme.A, scheme.B, scheme.Bhat))
    background = np.mean(states[0])
    rhs = np.zeros(grid.shape, dtype=complex)
    for i in range(1, scheme.k + 1):
        w = states[scheme.k - i] - background
        w_hat = np.fft.fftn(w)
        f_hat = np.fft.fftn(model.f(w + background))
        rhs += -A[i] * w_hat + tau * m * (B[i] * l * w_hat + Bhat[i - 1] * f_hat)
    want = np.fft.ifftn(rhs / (A[0] - tau * m * B[0] * l)).real + background
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    # every recorded energy is the physical-space energy of the state handed
    # to on_state
    seen = {}
    trace, _ = simulate(
        model, grid, scheme, None, states[0], tau, n_steps=8,
        on_state=lambda n, t, u: seen.setdefault(n, u.copy()),
    )
    for n, e in zip(trace.steps, trace.energy):
        u = seen[n]
        lu = np.fft.ifftn(l * np.fft.fftn(u)).real
        direct = grid.cell_volume * np.sum(0.5 * u * lu + model.potential(u))
        assert abs(e - direct) < 1e-12 * abs(direct)
        assert abs(e - energy(model, grid, u)) < 1e-12 * abs(direct)


def test_mass_conservation_zero_mode():
    grid = Grid((32, 32), (32.0, 32.0))
    model = pfc(0.25)
    scheme = lmm6_scheme()
    rng = np.random.default_rng(3)
    u0 = 0.3 + 0.1 * rng.standard_normal(grid.shape)
    flow = SpectralFlow(model, grid, scheme, 0.01, gauss_rk6_start(model, grid, u0, 0.01, scheme.k))
    mean0 = np.mean(u0)
    for _ in range(50):
        u = flow.step()
    assert abs(np.mean(u) - mean0) < 1e-12 * abs(mean0)


def test_cahn_hilliard_mass_conservation():
    grid = Grid((32, 32), (2 * np.pi, 2 * np.pi))
    model = cahn_hilliard(0.2)
    scheme = bdf_coefficients(3)
    rng = np.random.default_rng(4)
    u0 = 0.1 * rng.standard_normal(grid.shape)
    flow = SpectralFlow(model, grid, scheme, 1e-3, gauss_rk6_start(model, grid, u0, 1e-3, scheme.k))
    mean0 = np.mean(u0)
    for _ in range(40):
        u = flow.step()
    assert abs(np.mean(u) - mean0) < 1e-12


# ----------------------------------------------------------------- starter

def test_starter_linear_model_matches_exponential():
    # f = 0 makes each mode an independent linear ODE; Gauss collocation is
    # its diagonal rational approximant, exponentially accurate at small h
    grid = small_grid(16)
    eps = 0.1
    model = ModelSpec(
        name="linear",
        epsilon=eps,
        m_symbol=lambda k2: -np.ones_like(k2),
        l_symbol=lambda k2: eps ** 2 * k2,
        f=lambda u: np.zeros_like(u),
        potential=lambda u: np.zeros_like(u),
        ell_f=1.0,
        zeta=1.0,
        eta=1.0,
        mass_conserving=False,
    )
    tau = 0.05
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(grid.shape)
    states = gauss_rk6_start(model, grid, u0, tau, k=4)
    symbol = -eps ** 2 * grid.k2
    for j, u in enumerate(states):
        exact = grid.ifft(np.exp(symbol * (j * tau)) * grid.fft(u0))
        assert np.max(np.abs(u - exact)) < 1e-12


def test_starter_accuracy_on_manufactured_solution():
    grid = Grid((128, 128), (2 * np.pi, 2 * np.pi))
    model = allen_cahn(0.01)
    solution = trig_mode_solution(grid)
    source = discrete_source(model, grid, solution)
    tau = 1.0 / 80.0
    states = gauss_rk6_start(model, grid, solution.u(0.0), tau, k=6, source=source)
    worst = max(
        np.max(np.abs(u - solution.u(j * tau))) for j, u in enumerate(states)
    )
    assert worst < 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf")])
def test_starter_refuses_nonpositive_tau(monkeypatch, tau):
    # tau = 0 would return k copies of u0, tau < 0 states stepped backwards,
    # and NaN or inf a StarterFailureError after every halving
    grid = small_grid(16)
    u0 = 0.1 * np.sin(grid.coordinates()[0])
    calls = []
    monkeypatch.setattr(pde, "_stage_solver", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        gauss_rk6_start(allen_cahn(0.1), grid, u0, tau=tau, k=3)
    assert not calls


def test_starter_k1_returns_initial_state():
    grid = small_grid(16)
    u0 = np.cos(grid.coordinates()[1])
    states = gauss_rk6_start(allen_cahn(0.1), grid, u0, tau=0.1, k=1)
    assert len(states) == 1
    assert np.array_equal(states[0], u0)


def _record_substeps(monkeypatch):
    """The substep sizes the starter tries, in order, as it tries them."""
    tried = []
    solver = pde._stage_solver

    def spy(mhat_lhat, h):
        tried.append(h)
        return solver(mhat_lhat, h)

    monkeypatch.setattr(pde, "_stage_solver", spy)
    return tried


def _start_random_allen_cahn(amp, tau):
    grid = small_grid(32)
    u0 = amp * np.random.default_rng(0).uniform(-1, 1, grid.shape)
    return gauss_rk6_start(allen_cahn(0.1), grid, u0, tau, k=3)


@pytest.mark.parametrize(
    "amp, tau, halvings", [(1.5, 1.0, 0), (3.0, 0.5, 1), (10.0, 1.0, 6)]
)
def test_starter_halves_the_substep_only_when_needed(monkeypatch, amp, tau, halvings):
    # predicted starting stages must not make the starter halve where a
    # start from (w, w, w) does not: a failed predicted start is retried flat
    tried = _record_substeps(monkeypatch)
    states = _start_random_allen_cahn(amp, tau)
    assert len(states) == 3 and all(np.all(np.isfinite(u)) for u in states)
    assert tried == [tau / 2 ** i for i in range(halvings + 1)]


def test_starter_failure_names_the_smallest_substep(monkeypatch):
    tried = _record_substeps(monkeypatch)
    with pytest.raises(StarterFailureError, match="tau/64"):
        _start_random_allen_cahn(50.0, 1.0)
    assert tried == [1.0 / 2 ** i for i in range(7)]


def test_stage_solver_matches_dense_solve():
    s = np.concatenate([[0.0], -np.logspace(-6, 12, 200)])
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((3, s.size)) + 1j * rng.standard_normal((3, s.size))
    got = pde._stage_solver(s, 1.0)(rhs.copy().view(np.float64), np.empty((6, 2 * s.size)))
    for p, sp in enumerate(s):
        want = np.linalg.solve(np.eye(3) - sp * pde.GAUSS_A, rhs[:, p])
        assert np.max(np.abs(got[:, p] - want)) <= 1e-13 * np.max(np.abs(want)), sp


def test_starter_calls_no_dense_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called by the starter")

    for name in ("inv", "solve", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    grid = small_grid(32)
    u0 = np.random.default_rng(2).uniform(-1, 1, grid.shape)
    states = gauss_rk6_start(allen_cahn(0.1), grid, u0, 0.05, k=4)
    assert len(states) == 4


def _record_sweeps(monkeypatch):
    """The residual of every fixed-point sweep of the Gauss starter, in order:
    its stop test runs once a sweep, whatever the grid's dimension."""
    residuals = []
    settled = pde._stages_settled

    def spy(residual, residual_prev):
        residuals.append(residual)
        return settled(residual, residual_prev)

    monkeypatch.setattr(pde, "_stages_settled", spy)
    return residuals


def _start_criterion_8(model, n_steps):
    """The criterion-8 starter for N = n_steps (tau = 1/N)."""
    grid = Grid((128, 128), (2 * np.pi, 2 * np.pi))
    solution = trig_mode_solution(grid)
    source = discrete_source(model, grid, solution)
    states = gauss_rk6_start(model, grid, solution.u(0.0), 1.0 / n_steps, k=6, source=source)
    assert len(states) == 6


def test_starter_sweeps_on_the_criterion_8_pfc_case(monkeypatch):
    # stages predicted and corrected by the last prediction's miss, and the
    # contraction stop: 23 fixed-point sweeps for the five substeps; 27 with
    # the prediction uncorrected, 36 when every substep starts from (w, w, w)
    sweeps = _record_sweeps(monkeypatch)
    _start_criterion_8(pfc(0.01), 25)
    assert len(sweeps) <= 23


def test_starter_sweeps_on_the_criterion_8_ac_case(monkeypatch):
    # 20 sweeps; 26 with the prediction uncorrected
    sweeps = _record_sweeps(monkeypatch)
    _start_criterion_8(allen_cahn(0.01), 25)
    assert len(sweeps) <= 20


def test_starter_sweeps_on_all_criterion_8_starters(monkeypatch):
    # both tables, N = 25, 40, 50, 64, 80: 170 sweeps; 213 with the
    # prediction uncorrected
    sweeps = _record_sweeps(monkeypatch)
    for model in (allen_cahn(0.01), pfc(0.01)):
        for n in (25, 40, 50, 64, 80):
            _start_criterion_8(model, n)
    assert len(sweeps) <= 170


def test_starter_sweeps_on_the_grain_datum(monkeypatch):
    # the prediction is poor here and the miss does not help: 38 sweeps, 37
    # with the prediction uncorrected
    sweeps = _record_sweeps(monkeypatch)
    _run_starter("grain")
    assert len(sweeps) <= 38


# traced peak of the criterion-8 PFC starter at N = 25 (numpy 2.4 on x86-64):
# one workspace for the whole start; 5,826,016 B with fresh stages every sweep
WORKSPACE_STARTER_PEAK = 5_806_360
STAGE_STACK_BYTES = 3 * 128 * 128 * 8


def test_starter_traced_peak_on_the_criterion_8_pfc_case():
    grid = Grid((128, 128), (2 * np.pi, 2 * np.pi))
    model = pfc(0.01)
    solution = trig_mode_solution(grid)
    source = discrete_source(model, grid, solution)
    u0 = solution.u(0.0)
    gauss_rk6_start(model, grid, u0, 1.0 / 25, k=6, source=source)     # warm caches
    tracemalloc.start()
    try:
        gauss_rk6_start(model, grid, u0, 1.0 / 25, k=6, source=source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WORKSPACE_STARTER_PEAK


@pytest.mark.parametrize("case", ["AC", "PFC"])
def test_stage_sweep_allocates_at_most_two_and_a_half_stage_stacks(monkeypatch, case):
    # every sweep writes into the start's workspace, so what it allocates above
    # the memory held at the last stop is f's result and temporary and the
    # inverse's complex pass: 2.0 stacks, 2.3 in a substep's first sweep.
    # Fresh stage-sized temporaries every sweep read 4.1, at most 4.4
    settled = pde._stages_settled
    held, peaks = None, []

    def traced(residual, residual_prev):
        nonlocal held
        current, peak = tracemalloc.get_traced_memory()
        if held is not None:        # the first stop's peak holds the workspace itself
            peaks.append((peak - held) / STAGE_STACK_BYTES)
        tracemalloc.reset_peak()
        held = current
        return settled(residual, residual_prev)

    _run_starter(case)      # warm caches
    monkeypatch.setattr(pde, "_stages_settled", traced)
    tracemalloc.start()
    try:
        _run_starter(case)
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 15
    assert max(peaks) <= 2.5, peaks


def _run_starter(case):
    if case == "grain":     # the seeded criterion-9 datum on a 64^2 box, starter only
        pfc_experiment(Grid((64, 64), (64.0, 64.0)), 0.01, 0.05, seed=1)
        return
    grid = Grid((128, 128), (2 * np.pi, 2 * np.pi))
    model = allen_cahn(0.01) if case == "AC" else pfc(0.01)
    solution = trig_mode_solution(grid)
    source = discrete_source(model, grid, solution)
    gauss_rk6_start(model, grid, solution.u(0.0), 1.0 / 25, k=6, source=source)


@pytest.mark.parametrize("case", ["AC", "PFC", "grain"])
def test_one_more_sweep_moves_accepted_stages_by_at_most_the_tolerance(monkeypatch, case):
    # the wrapped stop runs one more sweep after each acceptance; that
    # sweep's residual is how far it moves the accepted stages
    settled = pde._stages_settled
    moves, by_estimate, pending = [], 0, False

    def one_more(residual, residual_prev):
        nonlocal by_estimate, pending
        if pending:
            moves.append(residual)
            pending = False
            return True
        pending = settled(residual, residual_prev)
        by_estimate += pending and residual > pde.STAGE_TOL
        return False

    monkeypatch.setattr(pde, "_stages_settled", one_more)
    _run_starter(case)
    assert len(moves) == 5 and by_estimate > 0
    assert max(moves) <= pde.STAGE_TOL


def test_contraction_stop_needs_a_contracting_pair():
    tol = pde.STAGE_TOL
    assert pde._stages_settled(tol, np.inf)
    for r in (2 * tol, 1e-10, 1.0, np.inf, np.nan):
        assert not pde._stages_settled(r, np.inf)
        assert not pde._stages_settled(r, r)
        assert not pde._stages_settled(r, r / 2)
    assert pde._stages_settled(1e-13, 1e-10)      # theta 1e-3: bound 1e-16
    assert not pde._stages_settled(1e-12, 1e-10)  # theta 1e-2: bound 1.01e-14


# ------------------------------------------------------------------ energy

def test_energy_constant_states():
    grid = Grid((32, 32), (16.0, 16.0))
    model = pfc(0.25)
    u0 = np.zeros(grid.shape)
    expected = (1 + 0.25) ** 2 / 4.0 * grid.volume
    assert energy(model, grid, u0) == pytest.approx(expected, rel=1e-14)

    ac = allen_cahn(0.1)
    assert energy(ac, grid, np.ones(grid.shape)) == pytest.approx(0.0, abs=1e-12)


def test_energy_matches_direct_quadrature():
    grid = Grid((32, 32), (32.0, 32.0))
    model = pfc(0.25)
    patches = default_patches(grid.lengths)
    coords = grid.coordinates()
    amp = np.zeros(grid.shape)
    for patch in patches:
        inside = np.ones(grid.shape, dtype=bool)
        for axis, c in enumerate(patch.center):
            inside &= np.abs(coords[axis] - c) <= patch.side / 2.0
        amp[inside] = patch.amplitude
    rng = np.random.default_rng(1)
    u = 0.285 + amp * rng.uniform(-1, 1, grid.shape)

    got = energy(model, grid, u)
    # independent oracle: apply L spectrally, then accumulate the quadrature
    # with an explicit double loop
    lu = grid.ifft(model.l_symbol(grid.k2) * grid.fft(u))
    acc = 0.0
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            acc += 0.5 * u[i, j] * lu[i, j] + model.potential(u[i, j])
    acc *= grid.cell_volume
    assert abs(got - acc) < 1e-10 * abs(acc)


def test_modified_energy_constant_history_equals_energy():
    grid = small_grid(16)
    model = allen_cahn(0.05)
    scheme = bdf_coefficients(3)
    report = certify_scheme(scheme, model.constants())
    u = 0.3 * np.sin(grid.coordinates()[0])
    flow = SpectralFlow(model, grid, scheme, 0.01, [u.copy() for _ in range(scheme.k)])
    eg = modified_energy(flow, report)
    assert eg == pytest.approx(energy(model, grid, u), rel=1e-14)


def test_modified_energy_k1_degenerates():
    grid = small_grid(16)
    model = allen_cahn(0.05)
    scheme = bdf_coefficients(1)
    report = certify_scheme(scheme, model.constants())
    u = 0.3 * np.sin(grid.coordinates()[0])
    flow = SpectralFlow(model, grid, scheme, 0.01, [u])
    assert modified_energy(flow, report) == pytest.approx(
        energy(model, grid, u), rel=1e-14
    )
    # a one-step window has no differences: the tracker adds exactly zero
    trace, _ = simulate(model, grid, scheme, report, u, tau=0.01, n_steps=3)
    assert trace.modified_energy == trace.energy


def test_modified_energy_rejects_nonzero_mean_differences():
    grid = small_grid(16)
    model = pfc(0.25)
    scheme = bdf_coefficients(2)
    report = certify_scheme(scheme, model.constants())
    u = 0.285 + 0.01 * np.sin(grid.coordinates()[0])
    states = [u, u + 0.05]  # mean jumps between states
    flow = SpectralFlow(model, grid, scheme, 0.01, states)
    with pytest.raises(InvariantViolationError):
        modified_energy(flow, report)


def test_tracker_rejects_nonzero_mean_differences():
    # the zero-mean check is the tracker's own: a certified run makes it once,
    # after the starter
    grid = small_grid(16)
    model = pfc(0.25)
    scheme = bdf_coefficients(3)
    report = certify_scheme(scheme, model.constants())
    u = 0.285 + 0.01 * np.sin(grid.coordinates()[0])
    flow = SpectralFlow(model, grid, scheme, 0.01, [u, u, u + 0.05])
    with pytest.raises(InvariantViolationError, match="state difference has mean"):
        pde._QuadFormTracker(flow, report)


def test_tracker_keeps_no_history_of_its_own():
    # the flow's ring is a run's only history: besides small Gram matrices,
    # the tracker holds its weights, their product and one difference row
    grid = small_grid(16)
    model = pfc(0.25)
    scheme = lmm6_scheme()
    report = certify_scheme(scheme, model.constants())
    rng = np.random.default_rng(3)
    u0 = 0.285 + 0.1 * rng.uniform(-1, 1, grid.shape)
    flow = SpectralFlow(model, grid, scheme, 0.01, gauss_rk6_start(model, grid, u0, 0.01, 6))
    tracker = pde._QuadFormTracker(flow, report)
    for _ in range(scheme.k + 1):
        flow.step()
        tracker.push(flow)
    arrays = {name: x for name, x in vars(tracker).items() if isinstance(x, np.ndarray)}
    assert arrays
    for name, x in arrays.items():
        assert x.nbytes <= 3 * grid.k2.size * np.dtype(complex).itemsize, name


def test_dissipation_within_certified_step_bound():
    # the theorem regime proper: tau at the certified bound
    grid = Grid((32, 32), (32.0, 32.0))
    model = pfc(0.25)
    scheme = lmm6_scheme()
    report = certify_scheme(scheme, model.constants())
    rng = np.random.default_rng(8)
    u0 = 0.285 + 0.2 * rng.uniform(-1, 1, grid.shape)
    trace, _ = simulate(model, grid, scheme, report, u0, tau=report.tau_max, n_steps=10)
    for n in range(scheme.k, len(trace.steps)):
        prev = trace.modified_energy[n - 1]
        assert trace.modified_energy[n] <= prev + 1e-9 * max(1.0, abs(prev))


def test_modified_energy_dominates_energy_and_decays():
    grid = Grid((32, 32), (32.0, 32.0))
    model = pfc(0.25)
    scheme = lmm6_scheme()
    report = certify_scheme(scheme, model.constants())
    rng = np.random.default_rng(7)
    u0 = 0.285 + 0.1 * rng.uniform(-1, 1, grid.shape)
    trace, flow = simulate(model, grid, scheme, report, u0, tau=0.01, n_steps=200)
    k = scheme.k
    for n in range(k - 1, len(trace.steps)):
        eg, e = trace.modified_energy[n], trace.energy[n]
        assert eg >= e - 1e-10 * max(1.0, abs(e))
    for n in range(k, len(trace.steps)):
        prev = trace.modified_energy[n - 1]
        assert trace.modified_energy[n] <= prev + 1e-9 * max(1.0, abs(prev))
    # rolling tracker agrees with the direct quadratic-form evaluation
    direct = modified_energy(flow, report)
    assert direct == pytest.approx(trace.modified_energy[-1], rel=1e-12)

    # independent oracle for the quadratic part E_G - E: differences of the
    # final window in physical space, full complex spectra, and explicit
    # loops over the certificate entries
    freq = [2 * np.pi * np.fft.fftfreq(n, d=l / n) for n, l in zip(grid.shape, grid.lengths)]
    k2 = freq[0][:, None] ** 2 + freq[1][None, :] ** 2
    m, l = -k2, (1.0 - k2) ** 2 + 1.0
    inv_m = np.zeros_like(m)
    inv_m[m != 0] = 1.0 / m[m != 0]
    du_hat = [np.fft.fftn(flow.state(i - 1) - flow.state(i)) for i in range(1, k)]

    def inner(i, j, weight):
        z = np.conj(du_hat[i]) * weight * du_hat[j]
        return grid.cell_volume / grid.npoints * float(np.sum(z).real)

    chat = [float(c) for c in reform(scheme).chat]
    quad = 0.0
    for i in range(k - 1):
        for j in range(k - 1):
            quad -= report.G_a[i, j] / flow.tau * inner(i, j, inv_m)
            quad += report.G_b[i, j] * inner(i, j, l)
        quad += report.constants.ell_f * chat[i] * inner(i, i, 1.0)
    assert trace.modified_energy[-1] - trace.energy[-1] == pytest.approx(quad, rel=1e-9)
    direct_quad = direct - energy(model, grid, flow.state(0))
    assert direct_quad == pytest.approx(quad, rel=1e-9)


def test_history_ring_matches_plain_transforms():
    # 2k+1 pushes wrap the k-slot ring twice: after each one, every slot
    # must read back the transforms of a plain list kept in lag order, and
    # the tracker's slot-ordered Gram matrices, read by lag through the
    # flow's head, the ones of that list's differences; the oldest slot's
    # difference reaches out of the ring and must carry no coefficient
    grid = small_grid(16)
    model = pfc(0.25)
    scheme = lmm6_scheme()
    k = scheme.k
    report = certify_scheme(scheme, model.constants())
    mode = np.sin(grid.coordinates()[0])

    def source(t):      # f(u*) as a field, the linear part as a half spectrum
        return np.cos(t) * mode, grid.fft(np.sin(t) * mode)

    rng = np.random.default_rng(11)
    noise = [0.1 * rng.uniform(-1, 1, grid.shape) for _ in range(3 * k + 1)]
    # one mean, as a mass-conserving run keeps it; the tracker checks this
    fields = [0.285 + x - np.mean(x) for x in noise]
    flow = SpectralFlow(model, grid, scheme, 0.01, fields[:k], t0=0.5, source=source)
    tracker = pde._QuadFormTracker(flow, report)
    background = float(np.mean(fields[0]))
    w_hats = [grid.fft(u - background) for u in fields]
    # f of the deviation plus background, as the flow forms the first k, and
    # of the pushed field after them
    f_args = [u - background + background for u in fields[:k]] + fields[k:]
    for n in range(k - 1, len(fields)):
        if n >= k:
            flow.push(w_hats[n], fields[n])
            tracker.push(flow)
        for i in range(k):
            t = 0.5 + (n - i) * 0.01
            f_star, g_lin = source(flow.time(i))
            assert flow.time(i) == pytest.approx(t, abs=1e-15)
            assert np.array_equal(flow.deviation_hat(i), w_hats[n - i])
            f_hat = flow.mhat * grid.fft(model.f(f_args[n - i]) - f_star) + g_lin
            assert np.array_equal(flow.slot(i)[pde._F], f_hat)
            assert np.allclose(flow.state(i), fields[n - i], rtol=0, atol=1e-14)
        deltas = np.array([w_hats[n - i] - w_hats[n - i - 1] for i in range(k - 1)])
        flat = deltas.view(np.float64).reshape(k - 1, -1)
        gram = (tracker.weights[:, None] * flat) @ flat.T
        lags = (flow.head - np.arange(k)) % k
        by_lag = tracker.gram[:, lags][:, :, lags]
        assert np.max(np.abs(by_lag[:, :-1, :-1] - gram)) <= 1e-12 * np.max(np.abs(gram))
        coef = tracker.coef[flow.head]
        assert not np.any(coef[:, lags[-1]]) and not np.any(coef[:, :, lags[-1]])
        assert np.any(coef[:, lags[:-1]][:, :, lags[:-1]])


@pytest.mark.parametrize("with_source", [False, True])
def test_fused_update_matches_per_lag_sum(with_source):
    # 2k+1 updates use every ring head at least twice; each new transform
    # must be the per-lag sum (c_i w_i + d_i F_i) / pivot over the lag-ordered
    # slots, d_i = tau m Bhat_i, or tau Bhat_i when F carries m and the source,
    # so a wrong head permutation fails
    grid = small_grid(16)
    model = pfc(0.25)
    scheme = lmm6_scheme()
    k, tau = scheme.k, 0.01
    mode = np.sin(grid.coordinates()[0])
    source = (lambda t: (np.cos(t) * mode, grid.fft(np.sin(t) * mode))) if with_source else None
    rng = np.random.default_rng(13)
    fields = [0.285 + 0.1 * rng.uniform(-1, 1, grid.shape) for _ in range(k)]
    flow = SpectralFlow(model, grid, scheme, tau, fields, source=source)
    A, B, Bhat = ([float(x) for x in c] for c in (scheme.A, scheme.B, scheme.Bhat))
    tml = tau * flow.mhat * flow.lhat
    pivot = A[0] - B[0] * tml
    for _ in range(2 * k + 1):
        expected = np.zeros_like(flow.deviation_hat(0))
        for i in range(1, k + 1):
            slot = flow.slot(i - 1)
            expected += (tml * B[i] - A[i]) * slot[pde._W]
            if with_source:
                expected += tau * Bhat[i - 1] * slot[pde._F]
            else:
                expected += tau * flow.mhat * Bhat[i - 1] * slot[pde._F]
        expected /= pivot
        flow.step()
        got = flow.deviation_hat(0)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("certified", [False, True])
@pytest.mark.parametrize(
    "model", [allen_cahn(0.05), cahn_hilliard(0.5), pfc(0.25)], ids=lambda m: m.name
)
def test_loop_energy_matches_energy_of_the_full_field(model, certified):
    # the loop takes the energy from the deviation's transform in hand plus
    # a scalar zero-mode term for the background (the initial mean of the
    # mass-conserving models); it must equal the energy of u transformed anew
    grid = Grid((32, 32), (32.0, 32.0))
    scheme = lmm6_scheme()
    report = certify_scheme(scheme, model.constants()) if certified else None
    u0 = 0.285 + 0.1 * np.random.default_rng(17).uniform(-1, 1, grid.shape)
    states = []
    trace, _ = simulate(
        model, grid, scheme, report, u0, tau=0.01, n_steps=20,
        on_state=lambda n, t, u: states.append(u.copy()),
    )
    assert len(states) == len(trace.energy) == 20 + scheme.k
    for e, u in zip(trace.energy, states):
        assert e == pytest.approx(energy(model, grid, u), rel=1e-13)


def _record_update_transforms(monkeypatch):
    """FFT calls by multistep update as (name, shape of the input): those
    inside the update and those of ``energy`` calls up to the next one."""
    updates, inside = [], [False]

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            if inside[0] and updates:
                updates[-1].append((name, np.shape(args[0])))
            return fn(*args, **kwargs)
        return wrapper

    def spanned(fn, is_step):
        def wrapper(*args, **kwargs):
            if is_step:
                updates.append([])
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False
        return wrapper

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, recorded(name, getattr(np.fft, name)))
    monkeypatch.setattr(pde.SpectralFlow, "step", spanned(pde.SpectralFlow.step, True))
    monkeypatch.setattr(pde, "energy", spanned(pde.energy, False))
    return updates


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "rfft2", "rfftn", "irfft", "irfft2", "irfftn")


def _assert_one_split_inverse_and_one_forward(updates, grid, steps):
    # per update: the checked inverse as irfftn runs it, 1-D complex passes
    # over the leading grid axes and then one real pass, each taking the
    # whole half spectrum (the residue check of the self-conjugate planes
    # reads their intermediate, so no call takes a plane slice), then one
    # forward transform of f(u)
    half = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
    per_update = [("ifft", half)] * (grid.dim - 1) + [("irfft", half), ("rfftn", grid.shape)]
    assert len(updates) == steps
    assert all(update == per_update for update in updates)


def test_multistep_update_costs_one_split_inverse_and_one_forward_transform(monkeypatch):
    # the energy and the Gram tracker reuse the transforms in hand
    updates = _record_update_transforms(monkeypatch)
    grid = Grid((32, 32), (32.0, 32.0))
    model = pfc(0.25)
    scheme = lmm6_scheme()
    report = certify_scheme(scheme, model.constants())
    u0 = 0.285 + 0.1 * np.random.default_rng(5).uniform(-1, 1, grid.shape)
    trace, _ = simulate(model, grid, scheme, report, u0, tau=0.01, n_steps=12)
    assert np.isfinite(trace.modified_energy[-1])
    _assert_one_split_inverse_and_one_forward(updates, grid, 12)


def test_sourced_update_costs_one_split_inverse_and_one_forward_transform(monkeypatch):
    # the manufactured source takes no transform per time: the flow subtracts
    # f(u*) from f(u) before the forward transform it takes anyway
    updates = _record_update_transforms(monkeypatch)
    grid = small_grid(32)
    convergence_study(allen_cahn(0.01), grid, lmm6_scheme(), trig_mode_solution(grid), [8, 10])
    _assert_one_split_inverse_and_one_forward(updates, grid, (8 - 5) + (10 - 5))


def test_sourced_gauss_sweep_costs_as_many_transforms_as_unsourced(monkeypatch):
    # per substep one forward transform of w, per sweep one forward transform
    # of f (less f(u*) with a source) and one inverse of the stages
    grid = small_grid(32)
    model = allen_cahn(0.01)
    solution = trig_mode_solution(grid)
    source = discrete_source(model, grid, solution)     # its set-up transform is not counted
    ffts = 0

    def counted(fn):
        def wrapper(*args, **kwargs):
            nonlocal ffts
            ffts += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    tried = _record_substeps(monkeypatch)
    sweeps = _record_sweeps(monkeypatch)
    per_sweep = []
    for src in (None, source):
        ffts = 0
        tried.clear()
        sweeps.clear()
        gauss_rk6_start(model, grid, solution.u(0.0), 1.0 / 25, k=6, source=src)
        assert tried == [1.0 / 25] and sweeps
        per_sweep.append((ffts - 5) / len(sweeps))
    assert per_sweep == [2.0, 2.0]


@pytest.mark.parametrize("model", [allen_cahn(0.01), pfc(0.01)], ids=lambda m: m.name)
def test_sourced_update_matches_full_spectrum_oracle(model):
    # one six-step update from exact states at t0 = 1 against the update
    # with the source transformed whole, g^ = fft(u*_t) - m (l fft(u*) +
    # fft(f(u*))), all transforms full complex ones
    grid = small_grid(32)
    scheme = lmm6_scheme()
    solution = trig_mode_solution(grid)
    tau, t0 = 0.05, 1.0
    times = [t0 + j * tau for j in range(scheme.k)]
    states = [solution.u(t) for t in times]
    flow = SpectralFlow(model, grid, scheme, tau, states, t0=t0,
                        source=discrete_source(model, grid, solution))
    got = flow.step()

    freq = [2 * np.pi * np.fft.fftfreq(n, d=l / n) for n, l in zip(grid.shape, grid.lengths)]
    k2 = freq[0][:, None] ** 2 + freq[1][None, :] ** 2
    m, l = model.m_symbol(k2), model.l_symbol(k2)
    A, B, Bhat = (np.array([float(x) for x in c]) for c in (scheme.A, scheme.B, scheme.Bhat))
    background = float(np.mean(states[0])) if model.mass_conserving else 0.0
    rhs = np.zeros(grid.shape, dtype=complex)
    for i in range(1, scheme.k + 1):
        u, t = states[scheme.k - i], times[scheme.k - i]
        w_hat = np.fft.fftn(u - background)
        f_hat = np.fft.fftn(model.f(u))
        g_hat = np.fft.fftn(solution.rate(t) * solution.mode) - m * (l * np.fft.fftn(u) + f_hat)
        rhs += -A[i] * w_hat + tau * m * (B[i] * l * w_hat + Bhat[i - 1] * f_hat)
        rhs += tau * Bhat[i - 1] * g_hat
    want = np.fft.ifftn(rhs / (A[0] - tau * m * B[0] * l)).real + background
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "model, match",
    [
        (allen_cahn(0.25), "after step"),
        # a radius no finite field reaches leaves the energy check to trip
        (allen_cahn(0.25, radius=1e150), "energy is inf after step 11"),
    ],
    ids=["radius", "inf-energy"],
)
def test_non_finite_run_raises_with_step(model, match):
    # far beyond tau_max the Allen-Cahn run overflows within a few steps
    grid = small_grid(16)
    scheme = lmm6_scheme()
    report = certify_scheme(scheme, model.constants())
    u0 = 0.05 * np.random.default_rng(1).standard_normal(grid.shape)
    with np.errstate(all="ignore"), pytest.raises(InvariantViolationError, match=match):
        simulate(model, grid, scheme, report, u0, tau=50.0, n_steps=35)


def test_run_leaving_truncation_interval_raises():
    # Allen-Cahn from small noise heads for +-1; the certificate of a model
    # truncated at R = 0.5 is void once max|u| reaches 0.5
    grid = small_grid(16)
    model = allen_cahn(0.1, radius=0.5)
    scheme = lmm6_scheme()
    report = certify_scheme(scheme, model.constants())
    u0 = 0.05 * np.random.default_rng(12).standard_normal(grid.shape)
    seen = []
    with pytest.raises(InvariantViolationError, match="truncation radius 0.5 after step"):
        simulate(
            model, grid, scheme, report, u0, tau=0.05, n_steps=200,
            on_state=lambda n, t, u: seen.append(np.max(np.abs(u))),
        )
    assert seen and max(seen) < 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_tau_is_a_usage_error_before_the_starter(monkeypatch, tau):
    # a bad tau is refused up front, not after the starter halves its substep
    # six times and reports a StarterFailureError (an internal-invariant class),
    # for tau = inf with RuntimeWarnings from its divides
    grid = small_grid(16)
    model = allen_cahn(0.1)
    scheme = bdf_coefficients(2)
    u0 = 0.1 * np.sin(grid.coordinates()[0])

    def stage_solver(*args, **kwargs):
        raise AssertionError("the starter solved a stage")

    monkeypatch.setattr(pde, "_stage_solver", stage_solver)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        simulate(model, grid, scheme, None, u0, tau=tau, n_steps=3)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        SpectralFlow(model, grid, scheme, tau, [u0, u0])


@pytest.mark.parametrize("certified", [False, True])
def test_only_a_certified_run_tracks_step_differences(monkeypatch, certified):
    # an uncertified run records no E_G and builds no Gram tracker, so its
    # updates form no step differences
    built = []
    tracker = pde._QuadFormTracker
    monkeypatch.setattr(pde, "_QuadFormTracker", lambda *args: built.append(1) or tracker(*args))
    grid = small_grid(16)
    model = allen_cahn(0.1)
    scheme = bdf_coefficients(3)
    report = certify_scheme(scheme, model.constants()) if certified else None
    u0 = 0.1 * np.sin(grid.coordinates()[0])
    trace, _ = simulate(model, grid, scheme, report, u0, tau=0.01, n_steps=4)
    assert len(built) == certified
    assert np.isfinite(trace.modified_energy[-1]) == certified


# ----------------------------------------------------------- study drivers

def test_convergence_stationary_solution_hits_rounding():
    grid = small_grid(32)
    model = allen_cahn(0.01)
    coords = grid.coordinates()
    mode = np.sin(coords[0]) * np.sin(coords[1])
    from imexlmm.pde import ManufacturedSolution

    stationary = ManufacturedSolution(mode, amplitude=lambda t: 1.0, rate=lambda t: 0.0)
    rows = convergence_study(model, grid, lmm6_scheme(), stationary, [10, 20])
    for row in rows:
        assert row.error_inf < 1e-11


@pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf")])
def test_convergence_study_refuses_nonpositive_T(monkeypatch, T):
    # the check used to be simulate's on tau = T / N, whose message names a
    # tau the caller never passed
    grid = small_grid(16)
    runs = []
    monkeypatch.setattr(pde, "simulate", lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ValueError, match="T must be finite and positive"):
        convergence_study(allen_cahn(0.01), grid, lmm6_scheme(), trig_mode_solution(grid),
                          [8, 10], T=T)
    assert not runs


@pytest.mark.parametrize("n_list", [[8, 8], [10, 8]])
def test_convergence_study_needs_strictly_rising_step_counts(n_list):
    # a repeated N made the rate span log(N / prev) zero: nan rates
    grid = small_grid(16)
    with pytest.raises(ValueError, match="increase strictly"):
        convergence_study(allen_cahn(0.01), grid, lmm6_scheme(), trig_mode_solution(grid), n_list)


def test_convergence_sixth_order_small_case():
    grid = Grid((64, 64), (2 * np.pi, 2 * np.pi))
    model = allen_cahn(0.01)
    rows = convergence_study(
        model, grid, lmm6_scheme(), trig_mode_solution(grid), [20, 40]
    )
    assert rows[1].rate_inf > 5.0
    # N = 40 error is spatially exact, so it matches the fine-grid value
    assert rows[1].error_inf == pytest.approx(2.863e-10, rel=0.5)


def test_pfc_experiment_zero_amplitude_is_steady():
    grid = Grid((32, 32), (32.0, 32.0))
    patches = [PatchSpec((16.0, 16.0), 10.0, 0.0)]
    result = pfc_experiment(grid, tau=0.01, T=0.2, seed=1, patches=patches)
    e = result.trace.energy
    assert max(e) - min(e) < 1e-9 * max(1.0, abs(e[0]))
    assert max(result.trace.max_abs) == pytest.approx(0.285, abs=1e-12)


@pytest.mark.parametrize("tau", [0.0, -0.01])
def test_pfc_experiment_rejects_nonpositive_tau(tau):
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        pfc_experiment(Grid((16, 16), (16.0, 16.0)), tau=tau, T=1.0)


@pytest.mark.parametrize("name, tau, T", [("T", 0.01, float("inf")), ("T", 0.01, float("nan")),
                                          ("tau", float("nan"), 1.0)])
def test_pfc_experiment_rejects_nonfinite_times(name, tau, T):
    # T = inf raised OverflowError from int(round(T / tau)), an ArithmeticError
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        pfc_experiment(Grid((16, 16), (16.0, 16.0)), tau=tau, T=T)


def test_pfc_experiment_records_offset_and_mass():
    grid = Grid((32, 32), (32.0, 32.0))
    result = pfc_experiment(grid, tau=0.01, T=0.3, seed=1)
    assert result.energy_offset == pytest.approx((1.25 ** 2 / 4) * 32.0 * 32.0)
    masses = result.trace.mass
    assert max(masses) - min(masses) < 1e-12 * abs(masses[0])
    assert result.max_abs < pfc(0.25).truncation_radius   # the default model
    assert result.max_abs < 2.0


def test_trace_csv_round_trip(tmp_path):
    grid = Grid((32, 32), (32.0, 32.0))
    result = pfc_experiment(grid, tau=0.01, T=0.1, seed=1)
    path = tmp_path / "trace.csv"
    result.trace.write_csv(path, header_comment="test run")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "step,t,E,E_G,mass,max_abs"
    assert len(lines) == 2 + len(result.trace.steps)
