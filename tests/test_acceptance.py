"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.  Tolerances are fixed here, not calibrated.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from imexlmm.barrier import QuadExt, verify_farkas_certificate
from imexlmm.certify import (
    ModelConstants,
    build_U,
    certify_scheme,
    recover_G,
    series_from_factor,
    spectral_factorize,
)
from imexlmm.chebpoly import ChebSeries, evaluate, global_min
from imexlmm.models import Grid, allen_cahn, pfc
from imexlmm.pde import convergence_study, pfc_experiment, trig_mode_solution
from imexlmm.schemes import (
    bdf_coefficients,
    lmm6_parameters,
    lmm6_scheme,
    lmm_from_parameters,
    reform,
)

F = Fraction


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeded limit {self.limit}s"
            )


def bdf_vector(k, which="a"):
    coeffs = reform(bdf_coefficients(k))
    return ChebSeries(tuple(float(x) for x in getattr(coeffs, which)))


def test_criterion_01_bdf_table_reproduction():
    expected_a = {
        1: [F(1)],
        2: [F(3, 2), F(-1, 2)],
        3: [F(11, 6), F(-7, 6), F(1, 3)],
        4: [F(25, 12), F(-23, 12), F(13, 12), F(-1, 4)],
        5: [F(137, 60), F(-163, 60), F(137, 60), F(-21, 20), F(1, 5)],
        6: [F(49, 20), F(-71, 20), F(79, 20), F(-163, 60), F(31, 30), F(-1, 6)],
    }
    expected_bhat = {
        1: [], 2: [F(1)], 3: [F(2), F(-1)], 4: [F(3), F(-3), F(1)],
        5: [F(4), F(-6), F(4), F(-1)], 6: [F(5), F(-10), F(10), F(-5), F(1)],
    }
    with Timer(1.0) as t:
        for k in range(1, 7):
            coeffs = reform(bdf_coefficients(k))
            assert list(coeffs.a) == expected_a[k], f"k={k} a column"
            assert list(coeffs.bhat[: k - 1]) == expected_bhat[k], f"k={k} bhat column"
    print(f"\nACCEPTANCE 1 PASS: BDF tables k=1..6 exact ({t.elapsed:.3f}s)")


def test_criterion_02_generating_polynomial_minima():
    with Timer(1.0) as t:
        m2 = global_min(bdf_vector(2)).min_value
        m3 = global_min(bdf_vector(3)).min_value
        m4 = global_min(bdf_vector(4)).min_value
        m5 = global_min(bdf_vector(5)).min_value
        assert abs(m2 - 1.0) < 1e-10
        assert abs(m3 - 95.0 / 96.0) < 1e-10
        assert abs(m4 - (664.0 / 729.0 - 43.0 * np.sqrt(43.0) / 2916.0)) < 1e-10
        assert abs(m5 - 0.185546) < 1e-5
    print(f"\nACCEPTANCE 2 PASS: polynomial minima k=2..5 ({t.elapsed:.3f}s)")


def test_criterion_03_certificate_matrices():
    published = {
        2: ([[0.25]], 1e-10),
        3: ([[65.0 / 96.0, -7.0 / 12.0], [0.0, 1.0 / 6.0]], 1e-10),
        4: ([[1.219233, -1.595139, 0.804452],
             [0.0, 0.701926, -0.697752],
             [0.0, 0.0, 0.312746]], 1e-5),
        5: ([[2.084535, -2.591196, 2.073333, -0.946751],
             [0.0, 1.787561, -1.597106, 1.584577],
             [0.0, 0.0, 0.955657, -0.779076],
             [0.0, 0.0, 0.0, 0.754560]], 1e-5),
    }
    for k, (expected, tol) in published.items():
        series = bdf_vector(k)
        gamma = global_min(series).min_value
        G = recover_G(build_U(spectral_factorize(series, gamma), gamma))
        err = np.max(np.abs(G - np.array(expected)))
        assert err < tol, f"k={k}: max error {err:.2e} vs tolerance {tol}"
    print("\nACCEPTANCE 3 PASS: certificate matrices k=2..5")


def test_criterion_04_sixth_order_scheme():
    scheme = lmm_from_parameters(lmm6_parameters())
    table = lmm6_scheme()
    assert scheme == table
    assert list(scheme.A) == [
        F(2617, 200), F(-6897, 200), F(4481, 120), F(-319, 12),
        F(647, 40), F(-4231, 600), F(911, 600),
    ]
    assert list(scheme.B) == [
        F(1525, 288), F(-2999, 7200), F(-4001, 720), F(79, 144),
        F(557, 288), F(-827, 1440), F(-23, 100),
    ]
    assert list(scheme.Bhat) == [
        F(225751, 7200), F(-122377, 1440), F(15329, 144),
        F(-11159, 144), F(44923, 1440), F(-39781, 7200),
    ]
    report = certify_scheme(scheme, ModelConstants(ell_f=1.0, zeta=1.0, eta=1.0))
    assert abs(report.alpha_max - 1.0) < 1e-9
    assert abs(report.beta_max - 0.363757) < 1e-5
    ga = [
        [11.525734, -19.376783, 13.720328, -8.056395, 2.746382],
        [0.0, 9.695922, -15.358795, 9.044053, -3.015320],
        [0.0, 0.0, 7.490199, -10.224600, 3.509334],
        [0.0, 0.0, 0.0, 4.502521, -3.783101],
        [0.0, 0.0, 0.0, 0.0, 1.030518],
    ]
    gb = [
        [4.424381, 3.844372, -1.572744, -1.143033, 0.562442],
        [0.0, 4.382517, 4.102580, -1.605295, -1.734487],
        [0.0, 0.0, 3.984379, 4.202963, 0.218659],
        [0.0, 0.0, 0.0, 3.978051, 3.973025],
        [0.0, 0.0, 0.0, 0.0, 1.889072],
    ]
    assert np.max(np.abs(report.G_a - np.array(ga))) < 1e-5
    assert np.max(np.abs(report.G_b - np.array(gb))) < 1e-5
    eig_a = np.linalg.eigvalsh(report.G_a + report.G_a.T).min()
    eig_b = np.linalg.eigvalsh(report.G_b + report.G_b.T).min()
    assert abs(eig_a - 0.078211) < 1e-5
    assert abs(eig_b - 0.406943) < 1e-5
    print("\nACCEPTANCE 4 PASS: six-step scheme, certificates and eigenvalues")


def test_criterion_05_bdf6_refusal():
    report = certify_scheme(
        bdf_coefficients(6), ModelConstants(ell_f=1.0, zeta=1.0, eta=1.0)
    )
    assert report.refused
    assert report.alpha_max < 0.0
    assert "a" in report.refusal_reason
    witness = evaluate(bdf_vector(6), 0.0)
    assert abs(witness - (-7.0 / 15.0)) < 1e-12
    print("\nACCEPTANCE 5 PASS: BDF6 refused, witness T(0;a) = -7/15")


def test_criterion_06_barrier_certificate():
    with Timer(5.0) as t:
        report = verify_farkas_certificate()
        lam = report.lam
        nonzeros = {i + 1: lam[i] for i in range(14) if lam[i]}
        assert set(nonzeros) == {5, 9, 11, 13}
        assert nonzeros[5] == QuadExt(F(5, 9), F(-5, 27))      # (5/27)(3 - sqrt3)
        assert nonzeros[9] == QuadExt(2, -1)                   # 2 - sqrt3
        assert nonzeros[11] == QuadExt(F(3, 8), F(-1, 8))      # (1/8)(3 - sqrt3)
        assert nonzeros[13] == QuadExt(1)
        assert (-report.qt_lambda).is_positive()
    print(
        f"\nACCEPTANCE 6 PASS: exact order-7 certificate, "
        f"q.lambda = {report.qt_lambda} ({t.elapsed:.2f}s)"
    )


def test_criterion_07_stability_angles():
    from imexlmm.stability import char_polys, root_condition, stability_angle

    with Timer(30.0) as t:
        rho = char_polys(lmm6_scheme()).as_arrays()[0]
        assert root_condition(rho).zero_stable
        angle_bdf6 = stability_angle(bdf_coefficients(6))
        angle_lmm6 = stability_angle(lmm6_scheme())
        assert abs(angle_bdf6 - 17.84) < 0.05, angle_bdf6
        assert abs(angle_lmm6 - 26.15) < 0.05, angle_lmm6
    print(
        f"\nACCEPTANCE 7 PASS: angles BDF6 {angle_bdf6:.3f} deg, "
        f"six-step {angle_lmm6:.3f} deg ({t.elapsed:.1f}s)"
    )


def test_criterion_08_convergence_tables():
    published_ac = {25: 3.654e-9, 40: 2.863e-10, 50: 8.208e-11,
                    64: 2.025e-11, 80: 5.753e-12}
    published_pfc = {25: 1.433e-8, 40: 9.123e-10, 50: 2.378e-10,
                     64: 5.321e-11, 80: 1.370e-11}
    n_list = [25, 40, 50, 64, 80]
    grid = Grid((128, 128), (2 * np.pi, 2 * np.pi))
    scheme = lmm6_scheme()
    with Timer(300.0) as t:
        rows_ac = convergence_study(
            allen_cahn(0.01), grid, scheme, trig_mode_solution(grid), n_list
        )
        rows_pfc = convergence_study(
            pfc(0.01), grid, scheme, trig_mode_solution(grid), n_list
        )
    for rows, published, window, label in (
        (rows_ac, published_ac, (5.3, 6.0), "AC"),
        (rows_pfc, published_pfc, (5.7, 6.3), "PFC"),
    ):
        for row in rows:
            ref = published[row.n_steps]
            assert ref / 3.0 < row.error_inf < ref * 3.0, (
                f"{label} N={row.n_steps}: {row.error_inf:.3e} vs {ref:.3e}"
            )
            if row.rate_inf is not None:
                assert window[0] <= row.rate_inf <= window[1], (
                    f"{label} N={row.n_steps}: rate {row.rate_inf:.2f}"
                )
    print(
        f"\nACCEPTANCE 8 PASS: convergence tables (AC rates "
        f"{[f'{r.rate_inf:.2f}' for r in rows_ac[1:]]}, PFC rates "
        f"{[f'{r.rate_inf:.2f}' for r in rows_pfc[1:]]}) ({t.elapsed:.0f}s)"
    )


def test_criterion_09_energy_dissipation_desk_scale():
    grid = Grid((128, 128), (128.0, 128.0))
    with Timer(600.0) as t:
        result = pfc_experiment(grid, tau=0.01, T=200.0, seed=1)
    trace = result.trace
    k = 6
    worst_increase = -np.inf
    for n in range(k, len(trace.steps)):
        prev = trace.modified_energy[n - 1]
        increase = trace.modified_energy[n] - prev
        worst_increase = max(worst_increase, increase - 1e-9 * max(1.0, abs(prev)))
    assert worst_increase <= 0.0, f"modified energy rose by {worst_increase:.3e}"
    assert result.max_abs < 2.0, result.max_abs
    masses = trace.mass
    assert max(masses) - min(masses) <= 1e-12 * abs(masses[0])
    assert result.max_abs < pfc(0.25).truncation_radius   # the default model
    print(
        f"\nACCEPTANCE 9 PASS: desk-scale grain growth, max|u| = "
        f"{result.max_abs:.4f}, mass drift "
        f"{max(masses) - min(masses):.2e} ({t.elapsed:.0f}s)"
    )


def test_criterion_10_property_suites():
    rng = np.random.default_rng(20240809)

    # factorization round trip
    for _ in range(200):
        k = int(rng.integers(1, 8))
        p = rng.standard_normal(k)
        gamma = float(rng.uniform(0.1, 2.0))
        s = series_from_factor(p, gamma)
        series = ChebSeries(tuple(s))
        gmax = global_min(series).min_value
        gamma_new = float(rng.uniform(0.05, 1.0)) * gmax
        p_new = spectral_factorize(series, gamma_new)
        back = series_from_factor(p_new, gamma_new)
        assert np.max(np.abs(back - s)) < 1e-9 * max(1.0, float(np.max(np.abs(s))))

    # PSD propagation through recover_G
    for _ in range(200):
        k = int(rng.integers(2, 8))
        U = build_U(rng.standard_normal(k), float(rng.uniform(0.0, 2.0)))
        assert np.linalg.eigvalsh(U + U.T).min() >= -1e-10
        G = recover_G(U)
        assert np.linalg.eigvalsh(G + G.T).min() >= -1e-10

    # quadratic decomposition identity
    for _ in range(200):
        k = int(rng.integers(2, 8))
        p = rng.standard_normal(k)
        gamma = float(rng.uniform(0.0, 1.0))
        U = build_U(p, gamma)
        G = recover_G(U)
        s = series_from_factor(p, gamma)
        x = rng.standard_normal(k)
        lhs = x @ U @ x
        rhs = x[0] * (s @ x) - x[:-1] @ G @ x[:-1] + x[1:] @ G @ x[1:]
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    # global minimum vs dense sampling
    xs = np.linspace(-1.0, 1.0, 1_000_001)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        series = ChebSeries(tuple(rng.uniform(-1.0, 1.0, k)))
        got = global_min(series).min_value
        want = float(np.min(evaluate(series, xs)))
        assert abs(got - want) < 1e-9

    print("\nACCEPTANCE 10 PASS: property suites, 200 instances each")
