"""Exact-arithmetic tests for the multistep coefficient tables."""

import json
import random
from fractions import Fraction

import pytest

from imexlmm import schemes
from imexlmm.schemes import (
    SchemeCoefficients,
    SchemeError,
    bdf_coefficients,
    lmm6_parameters,
    lmm6_scheme,
    lmm_from_parameters,
    parameters_from_scheme,
    reform,
    scheme_from_json,
    scheme_to_json,
    series_map,
    verify_order_conditions,
)

F = Fraction

# Published cumulative coefficients of the BDF family, k = 1..6.
BDF_A_COLUMNS = {
    1: [F(1)],
    2: [F(3, 2), F(-1, 2)],
    3: [F(11, 6), F(-7, 6), F(1, 3)],
    4: [F(25, 12), F(-23, 12), F(13, 12), F(-1, 4)],
    5: [F(137, 60), F(-163, 60), F(137, 60), F(-21, 20), F(1, 5)],
    6: [F(49, 20), F(-71, 20), F(79, 20), F(-163, 60), F(31, 30), F(-1, 6)],
}
BDF_BHAT_COLUMNS = {
    1: [],
    2: [F(1)],
    3: [F(2), F(-1)],
    4: [F(3), F(-3), F(1)],
    5: [F(4), F(-6), F(4), F(-1)],
    6: [F(5), F(-10), F(10), F(-5), F(1)],
}

LMM6_A = [F(2617, 200), F(-6897, 200), F(4481, 120), F(-319, 12),
          F(647, 40), F(-4231, 600), F(911, 600)]
LMM6_B = [F(1525, 288), F(-2999, 7200), F(-4001, 720), F(79, 144),
          F(557, 288), F(-827, 1440), F(-23, 100)]
LMM6_BHAT = [F(225751, 7200), F(-122377, 1440), F(15329, 144),
             F(-11159, 144), F(44923, 1440), F(-39781, 7200)]
LMM6_a = [F(2617, 200), F(-107, 5), F(1913, 120), F(-1277, 120),
          F(83, 15), F(-911, 600)]
LMM6_b = [F(1381, 288), F(13963, 3600), F(-1007, 600), F(-4067, 3600),
          F(5791, 7200), F(23, 100)]


@pytest.mark.parametrize("k", range(1, 7))
def test_bdf_matches_published_columns(k):
    coeffs = reform(bdf_coefficients(k))
    assert list(coeffs.a) == BDF_A_COLUMNS[k]
    assert list(coeffs.bhat[: k - 1]) == BDF_BHAT_COLUMNS[k]
    assert coeffs.bhat[-1] == 0
    # implicit weights of a BDF table are concentrated at i = 0
    assert bdf_coefficients(k).B == (F(1),) + (F(0),) * k


def test_bdf_range_error():
    with pytest.raises(ValueError):
        bdf_coefficients(0)
    with pytest.raises(ValueError):
        bdf_coefficients(7)


def test_bdf_equals_zero_parameter_family():
    for k in range(1, 7):
        assert bdf_coefficients(k) == lmm_from_parameters([F(0)] * k)


def test_bdf1_reform():
    coeffs = reform(bdf_coefficients(1))
    assert coeffs.a == (F(1),)
    assert coeffs.b == (F(1, 2),)
    assert coeffs.bhat == (F(0),)
    assert coeffs.chat == ()


def test_bdf3_reform_chat():
    coeffs = reform(bdf_coefficients(3))
    assert coeffs.bhat == (F(2), F(-1), F(0))
    assert coeffs.chat == (F(3, 2), F(1, 2))


def test_one_step_euler_splitting():
    s = lmm_from_parameters([F(0)])
    assert s.A == (F(1), F(-1))
    assert s.B == (F(1), F(0))
    assert s.Bhat == (F(1),)


def test_two_step_parameter_point_recovers_bdf2():
    s = lmm_from_parameters([F(0), F(0)])
    assert s.A == (F(3, 2), F(-2), F(1, 2))
    assert s.B == (F(1), F(0), F(0))
    assert s.Bhat == (F(2), F(-1))


def test_lmm6_reproduces_published_table():
    s = lmm6_scheme()
    assert list(s.A) == LMM6_A
    assert list(s.B) == LMM6_B
    assert list(s.Bhat) == LMM6_BHAT
    coeffs = reform(s)
    assert list(coeffs.a) == LMM6_a
    assert list(coeffs.b) == LMM6_b


def test_lmm6_order_six_exactly():
    report = verify_order_conditions(lmm6_scheme())
    assert report.order == 6
    assert report.consistency_residual == 0
    assert all(r == 0 for r in report.implicit_residuals[:6])
    assert all(r == 0 for r in report.explicit_residuals[:6])


def test_bdf6_order_six():
    assert verify_order_conditions(bdf_coefficients(6)).order == 6


@pytest.mark.parametrize("scheme", [*map(bdf_coefficients, range(1, 7)), lmm6_scheme()],
                         ids=[*(f"bdf{k}" for k in range(1, 7)), "lmm6"])
def test_order_is_exactly_the_step_count(scheme):
    assert verify_order_conditions(scheme).order == scheme.k


@pytest.mark.parametrize("k, p", [(k, p) for k in range(2, 7) for p in range(1, k)])
def test_bdf_padded_with_zero_lags_keeps_its_order(k, p):
    # BDF_p written as a k-step table: every order below k, odd ones included
    s, pad = bdf_coefficients(p), (0,) * (k - p)
    padded = SchemeCoefficients(k=k, A=s.A + pad, B=s.B + pad, Bhat=s.Bhat + pad)
    assert verify_order_conditions(padded).order == p


def test_perturbed_table_reports_order_zero():
    s = bdf_coefficients(2)
    broken = SchemeCoefficients(
        k=2, A=(s.A[0] + 1,) + s.A[1:], B=s.B, Bhat=s.Bhat
    )
    report = verify_order_conditions(broken)
    assert report.order == 0
    assert report.consistency_residual == 1
    with pytest.raises(SchemeError):
        broken.validate()


def test_normalization_consequence():
    # sum(Bhat) = 1 forces bhat_{k-1} = -Bhat_k
    for scheme in [lmm6_scheme()] + [bdf_coefficients(k) for k in range(2, 7)]:
        coeffs = reform(scheme)
        assert coeffs.bhat[scheme.k - 2] == -scheme.Bhat[-1]


def test_parameter_round_trip_exact():
    rng = random.Random(20240811)
    for k in range(1, 8):
        for _ in range(8):
            w = [
                F(rng.randint(-500, 500), rng.randint(1, 60)) for _ in range(k)
            ]
            s = lmm_from_parameters(w)
            assert verify_order_conditions(s).order >= k
            assert list(parameters_from_scheme(s).w) == w


def test_chat_is_nonincreasing_and_nonnegative():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(2, 7)
        w = [F(rng.randint(-99, 99), rng.randint(1, 13)) for _ in range(k)]
        chat = reform(lmm_from_parameters(w)).chat
        assert all(c >= 0 for c in chat)
        assert all(chat[i] >= chat[i + 1] for i in range(len(chat) - 1))


def test_json_round_trip_is_exact():
    s = lmm6_scheme()
    text = scheme_to_json(s)
    payload = json.loads(text)
    assert payload["A"][0] == "2617/200"
    assert all("." not in entry for entry in payload["A"] + payload["B"] + payload["Bhat"])
    assert scheme_from_json(text) == s


def test_constructor_rejects_ill_posed_tables():
    with pytest.raises(SchemeError):
        SchemeCoefficients(k=1, A=(F(0), F(1)), B=(F(1), F(0)), Bhat=(F(1),))
    with pytest.raises(SchemeError):
        SchemeCoefficients(k=1, A=(F(1), F(-1)), B=(F(0), F(1)), Bhat=(F(1),))


def test_lmm6_parameters_literal():
    w = lmm6_parameters()
    assert list(w.w) == [F(64, 5), F(-141, 5), F(111), F(-1034), F(9886), F(-23, 100)]


@pytest.mark.parametrize("k", range(1, 9))
def test_series_map_reproduces_reformed_series(k):
    # reform of a built table is the oracle, equal as Fractions
    M, c = series_map(k)
    rng = random.Random(300 + k)
    for _ in range(10):
        w = [F(rng.randint(-400, 400), rng.randint(1, 30)) for _ in range(k)]
        r = reform(lmm_from_parameters(w))
        assert [ci + sum(m * x for m, x in zip(row, w)) for row, ci in zip(M, c)] == list(r.a + r.b)


def test_series_map_builds_no_table(monkeypatch):
    # the series are reform's sums of parameter_map: no table is built, so
    # no SchemeError can occur (for odd k the table at e_k has B_0 = 0)
    def refuse(*args, **kwargs):
        raise AssertionError("series_map built a table")

    for name in ("lmm_from_parameters", "reform", "SchemeCoefficients"):
        monkeypatch.setattr(schemes, name, refuse)
    series_map.cache_clear()
    for k in range(1, 9):
        M, c = series_map(k)
        assert len(M) == len(c) == 2 * k and all(len(row) == k for row in M)
