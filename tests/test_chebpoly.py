"""Chebyshev series evaluation and global minimum."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from imexlmm import chebpoly
from imexlmm.chebpoly import (
    INTERVAL_TOL,
    REAL_TOL,
    ChebSeries,
    evaluate,
    global_min,
    global_minima,
)
from imexlmm.schemes import bdf_coefficients, lmm6_scheme, reform

BDF6_A = ChebSeries(tuple(float(x) for x in reform(bdf_coefficients(6)).a))
BDF3_A = ChebSeries(tuple(float(x) for x in reform(bdf_coefficients(3)).a))


def dense_min(series, n=1_000_001):
    """Brute-force minimum on a uniform grid: the independent oracle."""
    x = np.linspace(-1.0, 1.0, n)
    vals = evaluate(series, x)
    i = int(np.argmin(vals))
    return float(vals[i]), float(x[i])


def test_eval_bdf6_at_zero():
    assert evaluate(BDF6_A, 0.0) == pytest.approx(-7.0 / 15.0, abs=1e-15)


def test_eval_constant_series():
    s = ChebSeries((0.75, 0.0, 0.0, 0.0))
    for x in (-1.0, -0.2, 0.0, 0.9, 1.0):
        assert evaluate(s, x) == 0.75


def test_eval_bdf3_matches_monomial_form():
    # 3/2 - 7x/6 + 2x^2/3 written in the monomial basis
    x = 7.0 / 8.0
    expected = 1.5 - 7.0 / 6.0 * x + 2.0 / 3.0 * x * x
    assert evaluate(BDF3_A, x) == pytest.approx(expected, abs=1e-15)


def test_eval_domain_error():
    with pytest.raises(ValueError):
        evaluate(BDF3_A, 1.5)


def test_eval_matches_cosine_expansion():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k = rng.integers(1, 9)
        s = ChebSeries(tuple(rng.uniform(-2, 2, k)))
        thetas = rng.uniform(0.0, np.pi, 50)
        for theta in thetas:
            direct = sum(c * np.cos(m * theta) for m, c in enumerate(s.s))
            assert abs(evaluate(s, np.cos(theta)) - direct) < 1e-12


def test_global_min_bdf_family():
    res3 = global_min(BDF3_A)
    assert res3.min_value == pytest.approx(95.0 / 96.0, abs=1e-12)
    assert res3.argmin == pytest.approx(7.0 / 8.0, abs=1e-9)

    a4 = ChebSeries(tuple(float(x) for x in reform(bdf_coefficients(4)).a))
    exact4 = 664.0 / 729.0 - 43.0 * np.sqrt(43.0) / 2916.0
    assert global_min(a4).min_value == pytest.approx(exact4, abs=1e-12)

    a5 = ChebSeries(tuple(float(x) for x in reform(bdf_coefficients(5)).a))
    assert global_min(a5).min_value == pytest.approx(0.185546, abs=1e-5)


def test_global_min_constant_series():
    res = global_min(ChebSeries((0.5, 0.0, 0.0)))
    assert res.min_value == 0.5
    assert res.argmin == -1.0


def test_global_min_linear_series():
    # descends toward x = +1 for negative slope
    res = global_min(ChebSeries((1.5, -0.5)))
    assert res.min_value == 1.0
    assert res.argmin == 1.0


def test_global_min_agrees_with_dense_oracle():
    rng = np.random.default_rng(20240811)
    for _ in range(60):
        k = rng.integers(1, 9)
        s = ChebSeries(tuple(rng.uniform(-1, 1, k)))
        got = global_min(s).min_value
        want, _ = dense_min(s)
        assert abs(got - want) < 1e-9


def test_min_endpoints_included():
    # series whose derivative has no interior root in [-1, 1]
    s = ChebSeries((0.0, 3.0, 0.0, 0.1))
    res = global_min(s)
    assert -1.0 in res.critical_points and 1.0 in res.critical_points


@pytest.mark.parametrize(
    "coeffs, min_value, argmin",
    [
        ((0.0, 0.0, 1.0, 0.0, 0.0), -1.0, 0.0),
        ((0.0, 1.0, 0.0, 0.0), -1.0, -1.0),
        ((0.0, 0.0, 0.0), 0.0, -1.0),
        ((1.0, -0.5, 0.0), 0.5, 1.0),
    ],
    ids=["T2-padded", "T1-padded", "zero", "linear-padded"],
)
def test_global_min_with_exact_trailing_zeros(coeffs, min_value, argmin):
    # the true degree comes from trimming the exact zeros, not from the length
    res = global_min(ChebSeries(coeffs))
    assert res.min_value == pytest.approx(min_value, abs=1e-15)
    assert res.argmin == pytest.approx(argmin, abs=1e-15)
    assert -1.0 in res.critical_points and 1.0 in res.critical_points


def reference_min(row):
    """Reference minimum of one row through ``chebroots``: ``chebval`` at -1,
    the accepted and clipped roots of the derivative, and 1."""
    roots = cheb.chebroots(cheb.chebder(row))
    accepted = (np.abs(roots.imag) <= REAL_TOL * np.maximum(1.0, np.abs(roots.real))) & (
        np.abs(roots.real) <= 1.0 + INTERVAL_TOL
    )
    x = [-1.0, *np.clip(roots.real[accepted], -1.0, 1.0), 1.0]
    return cheb.chebval(x, row).min()


def _minima_stacks():
    rng = np.random.default_rng(77)
    for k in range(1, 9):
        stack = rng.uniform(-3.0, 3.0, (40, k))
        stack[::5, -1] = 0.0  # derivative ends in an exact zero
        stack[1::10, -2:] = 0.0
        yield f"random-k{k}", stack
    lmm6 = reform(lmm6_scheme())
    rows = [lmm6.a, lmm6.b, BDF6_A.s, (0.75, 0.0, 0.0, 0.0, 0.0, 0.0)]
    yield "lmm6-bdf6-constant", np.array([[float(x) for x in r] for r in rows])


@pytest.mark.parametrize("stack", [s for _, s in _minima_stacks()],
                         ids=[name for name, _ in _minima_stacks()])
def test_global_minima_match_global_min(stack):
    want = np.array([reference_min(row) for row in stack])
    assert np.array_equal(global_minima(stack), want)
    assert np.array_equal([global_min(ChebSeries(tuple(row))).min_value for row in stack], want)


def test_colleague_cache_is_read_only():
    for g in range(2, 7):
        for cached in chebpoly._colleague(g):
            with pytest.raises(ValueError):
                cached[0] = 0.0
    for _, stack in _minima_stacks():
        assert np.array_equal(global_minima(stack), [reference_min(row) for row in stack])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_global_minima_closed_form_is_bitwise_global_min(k):
    rng = np.random.default_rng(k)
    stack = rng.uniform(-3.0, 3.0, (60, k))
    if k == 3:
        stack[0:5, 2] = 0.0                   # d1 = 0: no stationary point
        stack[5:10, 1] = 8.0 * stack[5:10, 2]  # vertex -d0/d1 = -2, outside
        stack[10:15, 1] = 4.0 * stack[10:15, 2]  # vertex at -1
        stack[15:20, 1] = -4.0 * stack[15:20, 2]  # vertex at 1
    want = np.array([reference_min(row) for row in stack])
    assert np.array_equal(global_minima(stack), want)
    assert np.array_equal([global_min(ChebSeries(tuple(row))).min_value for row in stack], want)


def test_global_minima_known_values():
    lmm6 = reform(lmm6_scheme())
    rows = [[float(x) for x in r] for r in (lmm6.a, lmm6.b, BDF6_A.s)]
    min_a, min_b, min_bdf6 = global_minima(np.array(rows))
    assert min_a == pytest.approx(1.0, abs=1e-9)
    assert min_b == pytest.approx(0.363757, abs=1e-5)
    # the minimum of BDF6's a lies below its exact witness T(0; a) = -7/15
    assert min_bdf6 <= -7.0 / 15.0 + 1e-15
