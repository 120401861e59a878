"""Energy certificates: factorization, U/G recovery, full scheme reports."""

from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from imexlmm.certify import (
    CertificateInfeasibleError,
    ModelConstants,
    build_U,
    certify_scheme,
    recover_G,
    series_from_factor,
    spectral_factorize,
    tau_max_bound,
)
from imexlmm.chebpoly import ChebSeries, global_min, global_minima
from imexlmm.schemes import (
    SchemeError,
    bdf_coefficients,
    lmm6_scheme,
    lmm_from_parameters,
    reform,
    series_map,
)

AC_CONSTANTS = ModelConstants(ell_f=2.0, zeta=1.0, eta=1.0)

BDF_GA = {
    2: [[0.25]],
    3: [[65.0 / 96.0, -7.0 / 12.0], [0.0, 1.0 / 6.0]],
    4: [[1.219233, -1.595139, 0.804452],
        [0.0, 0.701926, -0.697752],
        [0.0, 0.0, 0.312746]],
    5: [[2.084535, -2.591196, 2.073333, -0.946751],
        [0.0, 1.787561, -1.597106, 1.584577],
        [0.0, 0.0, 0.955657, -0.779076],
        [0.0, 0.0, 0.0, 0.754560]],
}

LMM6_GA = [
    [11.525734, -19.376783, 13.720328, -8.056395, 2.746382],
    [0.0, 9.695922, -15.358795, 9.044053, -3.015320],
    [0.0, 0.0, 7.490199, -10.224600, 3.509334],
    [0.0, 0.0, 0.0, 4.502521, -3.783101],
    [0.0, 0.0, 0.0, 0.0, 1.030518],
]
LMM6_GB = [
    [4.424381, 3.844372, -1.572744, -1.143033, 0.562442],
    [0.0, 4.382517, 4.102580, -1.605295, -1.734487],
    [0.0, 0.0, 3.984379, 4.202963, 0.218659],
    [0.0, 0.0, 0.0, 3.978051, 3.973025],
    [0.0, 0.0, 0.0, 0.0, 1.889072],
]


def bdf_a_series(k):
    return ChebSeries(tuple(float(x) for x in reform(bdf_coefficients(k)).a))


def bdf_certificate(k):
    series = bdf_a_series(k)
    gamma = global_min(series).min_value
    p = spectral_factorize(series, gamma)
    return recover_G(build_U(p, gamma))


def test_gamma_max_examples():
    assert global_min(bdf_a_series(2)).min_value == pytest.approx(1.0, abs=1e-12)
    assert global_min(ChebSeries((0.5, 0.0, 0.0))).min_value == 0.5
    assert global_min(bdf_a_series(6)).min_value < 0.0


def test_factorize_bdf2_identities():
    p = spectral_factorize(bdf_a_series(2), 1.0)
    # p is determined up to global sign; the quadratic identities are not
    assert p[0] ** 2 + p[1] ** 2 == pytest.approx(0.5, abs=1e-12)
    assert 2 * p[0] * p[1] == pytest.approx(-0.5, abs=1e-12)
    assert np.abs(p) == pytest.approx([0.5, 0.5], abs=1e-10)


def test_factorize_trivial_constant():
    p = spectral_factorize(ChebSeries((0.75, 0.0, 0.0)), 0.75)
    assert np.all(p == 0.0)


def test_factorize_rejects_large_gamma():
    with pytest.raises(CertificateInfeasibleError):
        spectral_factorize(bdf_a_series(2), 1.1)


TOUCHING_SERIES = {
    # T(x; s) - min vanishes at both endpoints
    "both-endpoints": cheb.poly2cheb([1.0, 0.0, -1.0]),
    # double zero at x = 0.3 and a simple one at x = -1
    "interior-and-minus-one": cheb.poly2cheb(np.polymul([1.0, -0.6, 0.09], [1.0, 1.0])[::-1]),
    # T = 3/8 + (x - 1)^2 / 4: the stationary point is the endpoint x = 1
    "stationary-endpoint": np.array([0.75, -0.5, 0.125]),
    # x^2 touches 0 at x = 0 only
    "interior-only": cheb.poly2cheb([0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("s", TOUCHING_SERIES.values(), ids=TOUCHING_SERIES.keys())
def test_factorize_at_the_minimum_where_the_series_touches_it(s):
    gamma = global_min(ChebSeries(tuple(s))).min_value
    p = spectral_factorize(s, gamma)
    assert np.max(np.abs(series_from_factor(p, gamma) - s)) <= 1e-14 * np.max(np.abs(s))


@pytest.mark.parametrize("w", [(2, 0, Fraction(1, 4)), (Fraction(-1, 4), Fraction(15, 8), Fraction(-1, 8))])
def test_certify_schemes_whose_b_touches_at_an_endpoint(w):
    report = certify_scheme(lmm_from_parameters(w), AC_CONSTANTS)
    assert not report.refused
    assert report.cert_a is not None and report.cert_b is not None


def test_feasible_tables_in_eighths_all_certify():
    # every table with both minima positive gets both certificates
    rng = np.random.default_rng(0)
    certified = 0
    for k in range(2, 6):
        M, c = (np.array(x, dtype=float) for x in series_map(k))
        w = rng.integers(-16, 17, (1000, k))
        minima = global_minima((w @ M.T / 8 + c).reshape(-1, k)).reshape(-1, 2)
        for row in w[(minima > 0).all(axis=1)][:100]:
            try:
                scheme = lmm_from_parameters([Fraction(int(v), 8) for v in row])
            except SchemeError:
                continue
            report = certify_scheme(scheme, AC_CONSTANTS)
            assert report.cert_a is not None and report.cert_b is not None, row
            certified += 1
    assert certified >= 200


def test_build_U_trivial():
    U = build_U(np.zeros(4), 0.3)
    assert U == pytest.approx(np.diag([0.3, 0.0, 0.0, 0.0]))


def test_build_U_bdf2():
    p = spectral_factorize(bdf_a_series(2), 1.0)
    U = build_U(p, 1.0)
    assert U == pytest.approx(np.array([[1.25, -0.5], [0.0, 0.25]]), abs=1e-10)
    # diagonal-sum identity recovers the series
    assert U[0, 0] + U[1, 1] == pytest.approx(1.5, abs=1e-12)
    assert U[0, 1] == pytest.approx(-0.5, abs=1e-12)


def test_recover_G_zero():
    assert recover_G(np.zeros((3, 3))).shape == (2, 2)
    assert np.all(recover_G(np.zeros((3, 3))) == 0.0)


@pytest.mark.parametrize("k,tol", [(2, 1e-10), (3, 1e-10), (4, 1e-5), (5, 1e-5)])
def test_recover_G_matches_published_tables(k, tol):
    G = bdf_certificate(k)
    assert np.max(np.abs(G - np.array(BDF_GA[k]))) < tol


def test_recover_G_solves_shift_equation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = rng.integers(2, 8)
        U = np.triu(rng.standard_normal((k, k)))
        G = recover_G(U)
        n = k - 1
        J = np.zeros((n, n))
        for i in range(1, n):
            J[i, i - 1] = 1.0
        assert np.max(np.abs(G - J.T @ G @ J - U[1:, 1:])) < 1e-12
        assert np.max(np.abs(np.tril(G, -1))) == 0.0


def test_psd_propagation():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = rng.integers(2, 8)
        p = rng.standard_normal(k)
        gamma = rng.uniform(0.0, 2.0)
        U = build_U(p, gamma)
        assert np.linalg.eigvalsh(U + U.T).min() >= -1e-10
        G = recover_G(U)
        assert np.linalg.eigvalsh(G + G.T).min() >= -1e-10
        x = rng.standard_normal(k)
        assert x @ U @ x >= gamma * x[0] ** 2 - 1e-10 * (x @ x)


def test_rank_one_decomposition_of_certificates():
    # (U + U^T)/2 - gamma e1 e1^T equals the outer product p p^T
    report = certify_scheme(lmm6_scheme(), AC_CONSTANTS)
    for cert in (report.cert_a, report.cert_b):
        sym = 0.5 * (cert.U + cert.U.T)
        sym[0, 0] -= cert.gamma
        assert np.max(np.abs(sym - np.outer(cert.p, cert.p))) < 1e-10


def test_quadratic_decomposition_identity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        k = rng.integers(2, 8)
        p = rng.standard_normal(k)
        gamma = rng.uniform(0.0, 1.0)
        U = build_U(p, gamma)
        G = recover_G(U)
        s = series_from_factor(p, gamma)
        x = rng.standard_normal(k)
        lhs = x @ U @ x
        rhs = x[0] * (s @ x) - x[:-1] @ G @ x[:-1] + x[1:] @ G @ x[1:]
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_factorization_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(200):
        k = rng.integers(1, 8)
        p = rng.standard_normal(k)
        gamma = rng.uniform(0.1, 2.0)
        s = series_from_factor(p, gamma)
        series = ChebSeries(tuple(s))
        gmax = global_min(series).min_value
        assert gmax >= gamma - 1e-9
        gamma_new = rng.uniform(0.0, 1.0) * gmax
        if gamma_new <= 0.0:
            continue
        p_new = spectral_factorize(series, gamma_new)
        s_back = series_from_factor(p_new, gamma_new)
        assert np.max(np.abs(s_back - s)) < 1e-9 * max(1.0, np.max(np.abs(s)))


def test_gamma_monotonicity():
    series = bdf_a_series(4)
    gmax = global_min(series).min_value
    for fraction in (1e-6, 0.25, 0.5, 0.99, 1.0):
        p = spectral_factorize(series, fraction * gmax)
        U = build_U(p, fraction * gmax)
        assert np.linalg.eigvalsh(U + U.T).min() >= -1e-10


def test_certify_bdf5():
    report = certify_scheme(bdf_coefficients(5), AC_CONSTANTS)
    assert not report.refused
    assert report.alpha_max == pytest.approx(0.185546, abs=1e-5)
    assert report.beta_max == pytest.approx(0.5, abs=1e-12)
    assert np.all(report.G_b == 0.0)
    assert report.tau_max > 0.0


def test_certify_refuses_on_b_alone():
    # min T(x; a) = 0.5 passes, min T(x; b) = -3.25 does not
    report = certify_scheme(lmm_from_parameters([Fraction(-3, 2), Fraction(-3, 2)]), AC_CONSTANTS)
    assert report.refused
    assert report.alpha_max == pytest.approx(0.5, abs=1e-12)
    assert report.beta_max == pytest.approx(-3.25, abs=1e-12)
    assert "T(x; b)" in report.refusal_reason and "T(x; a)" not in report.refusal_reason
    assert report.cert_b is None and report.tau_max is None


def test_certify_bdf6_refuses():
    report = certify_scheme(bdf_coefficients(6), AC_CONSTANTS)
    assert report.refused
    assert report.cert_a is None and report.tau_max is None
    assert "T(x; a)" in report.refusal_reason
    # the violating minimum lies strictly below the x = 0 witness -7/15
    assert report.alpha_max < -7.0 / 15.0
    payload = report.to_json_dict()
    assert payload["refused"] is True and payload["G_a"] is None


def test_certify_lmm6_matches_published_matrices():
    report = certify_scheme(lmm6_scheme(), AC_CONSTANTS)
    assert report.alpha_max == pytest.approx(1.0, abs=1e-9)
    assert report.beta_max == pytest.approx(0.363757, abs=1e-5)
    assert np.max(np.abs(report.G_a - np.array(LMM6_GA))) < 1e-5
    assert np.max(np.abs(report.G_b - np.array(LMM6_GB))) < 1e-5
    assert np.linalg.eigvalsh(report.G_a + report.G_a.T).min() == pytest.approx(
        0.078211, abs=1e-5
    )
    assert np.linalg.eigvalsh(report.G_b + report.G_b.T).min() == pytest.approx(
        0.406943, abs=1e-5
    )


def test_certificates_satisfy_row_sums():
    # sum along each diagonal of U reproduces the coefficient vector
    report = certify_scheme(lmm6_scheme(), AC_CONSTANTS)
    coeffs = reform(lmm6_scheme())
    for cert, vec in ((report.cert_a, coeffs.a), (report.cert_b, coeffs.b)):
        k = len(cert.p)
        for m in range(k):
            diag = sum(cert.U[i, i + m] for i in range(k - m))
            assert diag == pytest.approx(float(vec[m]), abs=1e-9)


def test_tau_max_closed_forms():
    # eta = 1: tau_max = alpha / (l_f (1/2 + 2 chat1) zeta^2)
    c = ModelConstants(ell_f=4.0, zeta=2.0, eta=1.0)
    assert tau_max_bound(0.5, 0.0, 1.5, c) == pytest.approx(
        0.5 / (4.0 * 3.5 * 4.0), rel=1e-12
    )
    # eta = 1/2: eta_bar = 1
    c2 = ModelConstants(ell_f=2.0, zeta=1.5, eta=0.5)
    denom = (2.0 * 0.5 + 2.0 * 2.0 * 1.0) ** 2 * 0.5 * 0.5 * 1.5 ** 4
    assert tau_max_bound(1.0, 0.25, 1.0, c2) == pytest.approx(
        0.25 / denom, rel=1e-12
    )


def test_gamma_fraction_scales_certificates():
    full = certify_scheme(lmm6_scheme(), AC_CONSTANTS)
    half = certify_scheme(lmm6_scheme(), AC_CONSTANTS, gamma_fraction=0.5)
    assert half.cert_a.gamma == pytest.approx(0.5 * full.cert_a.gamma)
    assert half.tau_max < full.tau_max


def test_model_constants_validation():
    with pytest.raises(ValueError):
        ModelConstants(ell_f=0.0, zeta=1.0, eta=1.0)
    with pytest.raises(ValueError):
        ModelConstants(ell_f=1.0, zeta=1.0, eta=1.5)


@pytest.mark.parametrize("ell_f, zeta", [(float("nan"), 1.0), (float("inf"), 1.0),
                                         (1.0, float("nan")), (1.0, float("inf"))])
def test_model_constants_must_be_finite(ell_f, zeta):
    # NaN passed the old `<= 0` test (tau_max NaN) and inf gave tau_max = 0
    with pytest.raises(ValueError, match="finite and positive"):
        ModelConstants(ell_f=ell_f, zeta=zeta, eta=1.0)
