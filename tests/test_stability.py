"""Characteristic polynomials, root condition, slices, sector angles."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from imexlmm import stability
from imexlmm.schemes import SchemeCoefficients, bdf_coefficients, lmm6_scheme, lmm_from_parameters
from imexlmm.stability import (
    UndefinedAngleError,
    char_polys,
    region_slice,
    root_condition,
    stability_angle,
)

F = Fraction


def test_char_polys_bdf6_display():
    polys = char_polys(bdf_coefficients(6))
    assert polys.rho == (F(49, 20), F(-6), F(15, 2), F(-20, 3), F(15, 4), F(-6, 5), F(1, 6))
    assert polys.sigma == (F(1),) + (F(0),) * 6
    assert polys.sigma_hat == (F(0), F(6), F(-15), F(20), F(-15), F(6), F(-1))


def test_char_polys_bdf1():
    polys = char_polys(bdf_coefficients(1))
    assert polys.rho == (F(1), F(-1))
    assert polys.sigma == (F(1), F(0))
    assert polys.sigma_hat == (F(0), F(1))


def test_char_polys_lmm6_leading():
    assert char_polys(lmm6_scheme()).rho[0] == F(2617, 200)


def test_consistency_identities_exact():
    for scheme in [bdf_coefficients(k) for k in range(1, 7)] + [lmm6_scheme()]:
        polys = char_polys(scheme)
        k = scheme.k
        assert sum(polys.rho) == 0
        assert sum((k - i) * polys.rho[i] for i in range(k + 1)) == 1
        assert sum(polys.sigma) == 1
        assert sum(polys.sigma_hat) == 1


def test_root_condition_zero_stable_schemes():
    for scheme in (bdf_coefficients(6), lmm6_scheme()):
        rho = char_polys(scheme).as_arrays()[0]
        result = root_condition(rho)
        assert result.zero_stable
        assert not result.violations


def test_root_condition_double_root_on_circle():
    result = root_condition([1.0, -2.0, 1.0])  # (xi - 1)^2
    assert not result.zero_stable
    assert any("repeated" in v for v in result.violations)


def test_root_condition_unstable_root():
    result = root_condition([1.0, -2.5])  # root at 2.5
    assert not result.zero_stable


def test_root_condition_degree_zero():
    assert root_condition([3.0]).zero_stable
    with pytest.raises(ValueError, match="zero polynomial"):
        root_condition([0.0, 0.0])


def test_region_point_checks():
    bdf6 = bdf_coefficients(6)
    s = region_slice(bdf6, "implicit", window=(-1.0, -1.0 + 1e-9, 0.0, 1e-9),
                     resolution=2)
    assert s.mask.all()  # z_I = -1 lies in the implicit region

    lmm6 = lmm6_scheme()
    s = region_slice(lmm6, "imex", fixed_value=-10.0 + 0j,
                     window=(0.0, 1e-9, 0.0, 1e-9), resolution=2)
    assert s.mask.all()  # z_E = 0 at z_I = -10 is stable


def test_origin_reduces_to_zero_stability():
    for scheme in (bdf_coefficients(6), lmm6_scheme()):
        s = region_slice(scheme, "explicit", window=(0.0, 1e-12, 0.0, 1e-12),
                         resolution=2)
        assert s.mask.all() == root_condition(
            char_polys(scheme).as_arrays()[0]
        ).zero_stable


def test_slice_conjugate_symmetry():
    s = region_slice(
        lmm6_scheme(), "explicit", window=(-0.08, 0.04, -0.06, 0.06),
        resolution=(21, 21),
    )
    assert np.array_equal(s.mask, s.mask[::-1, :])


def test_explicit_slice_not_everywhere_stable():
    s = region_slice(
        lmm6_scheme(), "explicit", window=(-0.5, 0.5, -0.5, 0.5),
        resolution=(15, 15),
    )
    assert s.mask.any() and not s.mask.all()


def test_stability_angle_bdf1_is_a_stable():
    assert stability_angle(bdf_coefficients(1)) == 90.0


def test_stability_angle_bdf2_is_a_stable():
    assert stability_angle(bdf_coefficients(2)) == 90.0


def test_stability_angle_bdf6():
    assert stability_angle(bdf_coefficients(6)) == pytest.approx(17.84, abs=0.05)


def test_stability_angle_lmm6():
    assert stability_angle(lmm6_scheme()) == pytest.approx(26.15, abs=0.05)


# Hairer & Wanner, Solving ODEs II, V.2 (BDF); the paper's six-step value
PUBLISHED_ANGLES = {"bdf3": 86.03, "bdf4": 73.35, "bdf5": 51.84, "bdf6": 17.84, "lmm6": 26.15}
OFFSET = np.radians(0.01)


def _locus_minimizer(s, n=200_001):
    """Dense boundary locus z(theta) = rho/sigma: the point of least
    pi - |arg z| over theta in (0, pi]."""
    rho, sigma, _ = char_polys(s).as_arrays()
    xi = np.exp(1j * np.linspace(np.pi / n, np.pi, n))
    z = np.polyval(rho, xi) / np.polyval(sigma, xi)
    return z[np.argmin(np.pi - np.abs(np.angle(z)))]


@pytest.mark.parametrize("name", list(PUBLISHED_ANGLES))
def test_stability_angle_matches_published(name):
    assert stability_angle(SCHEMES[name]) == pytest.approx(PUBLISHED_ANGLES[name], abs=0.005)


@pytest.mark.parametrize("name", list(PUBLISHED_ANGLES))
def test_point_just_outside_the_angle_is_unstable(name):
    s = SCHEMES[name]
    rho, sigma, _ = char_polys(s).as_arrays()
    r = abs(_locus_minimizer(s))
    z = -r * np.exp(1j * (np.radians(stability_angle(s)) + OFFSET))
    assert not root_condition(rho - z * sigma).zero_stable


@pytest.mark.parametrize("name", list(PUBLISHED_ANGLES))
def test_ray_just_inside_the_angle_is_stable(name):
    s = SCHEMES[name]
    rho, sigma, sigma_hat = char_polys(s).as_arrays()
    zi = -np.logspace(-3, 6, 20_001) * np.exp(1j * (np.radians(stability_angle(s)) - OFFSET))
    assert stability._points_stable(rho, sigma, sigma_hat, zi, np.zeros_like(zi)).all()


def test_bdf4_sampled_counterexample_lies_outside_the_angle():
    # the sampled bisection reported 73.3987 degrees; this point inside that
    # sector is unstable
    s = bdf_coefficients(4)
    rho, sigma, _ = char_polys(s).as_arrays()
    z = -1.906 * np.exp(1j * np.radians(73.37))
    assert not root_condition(rho - z * sigma).zero_stable
    assert stability_angle(s) < 73.37


def test_stability_angle_sees_a_crossing_of_the_negative_axis():
    # z_I = -1 is stable and the stationary points of arg z alone give about
    # 0.1 degrees, but the locus crosses the negative real axis: the angle is 0
    s = SchemeCoefficients(
        3, [F(3, 4), F(-3, 2), F(1), F(-1, 4)], [F(3, 2), F(1), F(5, 4), F(0)], [F(1, 3)] * 3
    )
    rho, sigma, sigma_hat = char_polys(s).as_arrays()
    zi = -np.logspace(-3, 6, 20_001)
    assert stability._points_stable(rho, sigma, sigma_hat, -1.0, 0.0)[0]
    assert not stability._points_stable(rho, sigma, sigma_hat, zi, np.zeros_like(zi)).all()
    assert stability_angle(s) < 1e-9


def test_stability_angle_requires_zero_stability():
    # seven-step tables from this parametrization are not zero-stable
    bdf7_like = lmm_from_parameters([F(0)] * 7)
    with pytest.raises(UndefinedAngleError):
        stability_angle(bdf7_like)


# rho = -sigma: at z_I = -1 the characteristic polynomial vanishes identically
RHO_IS_MINUS_SIGMA = SchemeCoefficients(k=1, A=(1, -1), B=(-1, 1), Bhat=(1,))


def test_stability_angle_is_zero_when_the_polynomial_vanishes_at_minus_one():
    assert stability_angle(RHO_IS_MINUS_SIGMA) == 0.0


@pytest.mark.parametrize(
    "A, B, Bhat, unstable, angle",
    [
        # rho and sigma share xi + 1; the reduced locus crosses the negative
        # axis at z = -2/3, where xi = -1 is a double root; just right of it
        # the other root leaves the disk
        ((F(1, 2), F(0), F(-1, 2)), (F(-1), F(-1, 2), F(1, 2)), (F(1), F(0)), -0.6, 0.0),
        # rho = c sigma: the characteristic polynomial vanishes at z = c only
        ((F(1, 2), F(1, 2)), (F(-2), F(-2)), (F(1),), -0.25, 0.0),
        ((F(-1, 3), F(-1, 3)), (F(-1), F(-1)), (F(1),), 1 / 3, 90.0),
    ],
    ids=["shared-root", "proportional-negative", "proportional-positive"],
)
def test_stability_angle_divides_out_the_common_factor(A, B, Bhat, unstable, angle):
    s = SchemeCoefficients(len(A) - 1, A, B, Bhat)
    assert stability_angle(s) == angle
    rho, sigma, sigma_hat = char_polys(s).as_arrays()
    assert not stability._points_stable(rho, sigma, sigma_hat, unstable, 0.0)[0]


@pytest.mark.parametrize(
    "A, B, angle",
    [
        # the reduced rho vanishes at e^{+-1.696i}: the locus passes through 0
        ((F(-4, 3), F(-1, 3), F(0), F(1, 3), F(4, 3)),
         (F(-3), F(-10, 3), F(-1), F(-5, 3), F(-1)), 71.6999724),
        # sigma / (xi^2 + 1) vanishes at e^{+-1.738i}: the locus passes through infinity
        ((F(4), F(-1), F(3), F(-1), F(-1)), (F(3), F(1), F(6), F(1), F(3)), 73.0773268),
    ],
    ids=["rho-root", "sigma-root"],
)
def test_stability_angle_takes_one_sided_limits_at_unit_circle_roots(A, B, angle):
    # no stationary point of arg z attains the infimum there; the candidates
    # near the root alone read 71.6999763 and 73.0773291.  The expected
    # values are the limits computed in 30-digit arithmetic
    s = SchemeCoefficients(len(A) - 1, A, B, B[1:])
    assert stability_angle(s) == pytest.approx(angle, abs=1e-6)


def test_region_slice_marks_a_vanishing_polynomial_unstable():
    sl = region_slice(RHO_IS_MINUS_SIGMA, "implicit", window=(-2.0, 0.0, -1.0, 1.0), resolution=3)
    assert sl.re_axis[1] == -1.0 and sl.im_axis[1] == 0.0
    expected = np.ones((3, 3), dtype=bool)
    expected[1, 1] = False
    assert np.array_equal(sl.mask, expected)


def test_region_slice_rejects_bad_input():
    with pytest.raises(ValueError):
        region_slice(lmm6_scheme(), "sideways")
    with pytest.raises(ValueError):
        region_slice(lmm6_scheme(), "implicit", resolution=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "plane, fixed_value, window",
    [("implicit", 0j, (np.nan, 5.0, -10.0, 10.0)),
     ("implicit", 0j, (np.inf, 5.0, -10.0, 10.0)),
     ("implicit", 0j, (-15.0, 5.0, 1e308, -1e308)),  # finite ends, overflowing span
     ("imex", complex(np.nan, 0.0), (-15.0, 5.0, -10.0, 10.0))],
    ids=["window-nan", "window-inf", "window-overflow", "zi-nan"],
)
def test_region_slice_rejects_non_finite_axes(plane, fixed_value, window):
    with pytest.raises(ValueError, match="must give finite axes"):
        region_slice(lmm6_scheme(), plane, fixed_value=fixed_value, window=window, resolution=4)


# ------------------------------------------- Schur-Cohn against eigenvalues

SCHEMES = {f"bdf{k}": bdf_coefficients(k) for k in range(1, 7)}
SCHEMES["lmm6"] = lmm6_scheme()

# (z_I, z_E) point sets: the three slice planes and the angle rays
PLANE_WINDOWS = {
    "implicit": (-15.0, 5.0, -10.0, 10.0),
    "explicit": (-1.5, 0.5, -1.0, 1.0),
    "imex": (-15.0, 5.0, -10.0, 10.0),
}


def _point_set(kind):
    if kind == "rays":
        phi = np.linspace(0.0, np.pi / 2, 40)
        zi = (-np.logspace(-3, 6, 200)[None, :] * np.exp(1j * phi[:, None])).ravel()
        return zi, np.zeros_like(zi)
    window = PLANE_WINDOWS[kind]
    re = np.linspace(window[0], window[1], 101)
    im = np.linspace(window[2], window[3], 101)
    pts = (re[None, :] + 1j * im[:, None]).ravel()
    if kind == "implicit":
        return pts, np.zeros_like(pts)
    if kind == "explicit":
        return np.zeros_like(pts), pts
    return np.full_like(pts, -10.0), pts


@pytest.mark.parametrize("kind", ["implicit", "explicit", "imex", "rays"])
@pytest.mark.parametrize("name", list(SCHEMES))
def test_schur_cohn_matches_eigenvalue_path(name, kind):
    rho, sigma, sigma_hat = char_polys(SCHEMES[name]).as_arrays()
    zi, ze = _point_set(kind)
    coeffs = (rho[None, :] - zi[:, None] * sigma[None, :]
              - ze[:, None] * sigma_hat[None, :])
    mask = stability._points_stable(rho, sigma, sigma_hat, zi, ze)
    eigen = stability._eigen_stable(coeffs)
    if kind != "rays":  # the window crosses the region's boundary
        assert mask.any() and not mask.all()
    assert np.array_equal(mask, eigen)


def reference_root_condition(row):
    # the root condition as np.roots and a loop over root pairs decide it:
    # leading near-zeros trimmed, every root within 1 + 1e-7, and no two
    # roots of modulus >= 1 - 1e-7 closer than 1e-6; an all-zero row has
    # every xi as a root
    mags = np.abs(row)
    if not mags.any():
        return False
    c = row[int(np.argmax(mags > 1e-14 * mags.max())):]
    if len(c) <= 1:
        return True
    roots = np.roots(c)
    boundary = roots[np.abs(roots) >= 1.0 - 1e-7]
    repeated = any(abs(boundary[i] - boundary[j]) < 1e-6
                   for i in range(len(boundary)) for j in range(i + 1, len(boundary)))
    return bool(np.all(np.abs(roots) <= 1.0 + 1e-7)) and not repeated


def _rows_near_the_circle(seed=5, n=700):
    # degrees 1..7 padded to 8 coefficients with zero or near-zero leads;
    # roots on, just off and away from the unit circle, some near-double
    rng = np.random.default_rng(seed)
    moduli = [1.0, 1 + 1e-8, 1 - 1e-8, 1 - 5e-8, 1 + 2e-7, 1 - 2e-7, 1 + 3e-7, 1 - 3e-7, 0.5, 1.5]
    rows = [np.zeros(8, dtype=complex), np.eye(8, dtype=complex)[7] * 2.0]
    for _ in range(n):
        d = int(rng.integers(1, 8))
        roots = rng.choice(moduli, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
        if d >= 2 and rng.random() < 0.3:
            gap = rng.choice([0.0, 1e-7, 5e-7, 2e-6])
            roots[1] = roots[0] + gap * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        c = np.poly(roots) * rng.uniform(0.1, 10.0)
        for lead in (0.0, 1e-13, 1e-15, 1e-16):
            row = np.zeros(8, dtype=complex)
            row[8 - len(c):] = c
            if len(c) < 8:
                row[7 - len(c)] = lead * np.abs(c).max()
            rows.append(row)
    return np.array(rows)


def test_eigenvalue_path_matches_root_condition():
    # every companion-eigenvalue path against the reference, verdict for
    # verdict, on points whose roots sit on or near the unit circle:
    # (xi - 1)^2, roots +-1, roots 0 and 1/2, (xi - 1/2)^2, then slices
    # close to the origin and a seeded stack with degenerate leads
    batches = [np.array([[1.0, -2.0, 1.0], [1.0, 0.0, -1.0],
                         [1.0, -0.5, 0.0], [1.0, -1.0, 0.25]], dtype=complex)]
    y = np.linspace(-2.0, 2.0, 41)
    for scheme in [bdf_coefficients(k) for k in range(1, 7)] + [lmm6_scheme()]:
        rho, sigma, sigma_hat = char_polys(scheme).as_arrays()
        batches.append(rho[None, :] - 1j * y[:, None] * sigma[None, :])
        batches.append(rho[None, :] - (1e-9 * y[:, None] + 1e-9j) * sigma_hat[None, :])
    batches.append(_rows_near_the_circle())
    outcomes = set()
    for batch in batches:
        expected = [reference_root_condition(r) for r in batch]
        assert stability._eigen_stable(batch).tolist() == expected
        assert stability._rows_stable(batch).tolist() == expected
        assert [r.any() and root_condition(r).zero_stable for r in batch] == expected
        outcomes.update(expected)
    assert outcomes == {True, False}


def test_rows_near_the_circle_go_to_eigenvalues(monkeypatch):
    seen = []

    def spy(coeffs):
        seen.append(coeffs.copy())
        return eigen_stable(coeffs)

    eigen_stable = stability._eigen_stable
    monkeypatch.setattr(stability, "_eigen_stable", spy)
    rows = np.array([
        [1.0, -0.25, 0.0],    # roots 0, 1/4: decided stable
        [1.0, 0.0, -4.0],     # roots +-2: decided unstable
        [1.0, -1.0, 0.0],     # simple root 1: stable
        [1.0, -2.0, 1.0],     # (xi - 1)^2: unstable
        [1e-20, 1.0, -0.5],   # degenerate lead, trimmed: root 1/2, stable
        [0.0, 1.0, -2.0],     # degenerate lead, trimmed: root 2, unstable
    ], dtype=complex)
    stable = stability._rows_stable(rows)
    assert stable.tolist() == [True, False, True, False, True, False]
    assert len(seen) == 1 and np.array_equal(seen[0], rows[2:])


@pytest.mark.parametrize("lead, expected", [(1e-13, False), (1e-15, True)])
def test_degenerate_lead_is_decided_by_one_threshold(lead, expected):
    # lead * xi^2 + xi - 1/2: a lead above LEAD_TOL keeps the root near
    # -1/lead (unstable), one below it is trimmed to the root 1/2 (stable);
    # one rule trims the degree for every path
    row = np.array([[lead, 1.0, -0.5]], dtype=complex)
    assert stability._degrees(row).tolist() == [2 if lead > stability.LEAD_TOL else 1]
    assert len(root_condition(row[0]).roots) == stability._degrees(row)[0]
    assert stability._rows_stable(row).tolist() == [expected]
    assert stability._eigen_stable(row).tolist() == [expected]
    assert root_condition(row[0]).zero_stable == expected


def test_explicit_origin_goes_to_eigenvalues_and_stays_stable(monkeypatch):
    # z_E = 0 leaves rho, whose root xi = 1 is simple
    sizes = []
    eigen_stable = stability._eigen_stable
    monkeypatch.setattr(
        stability, "_eigen_stable", lambda c: sizes.append(len(c)) or eigen_stable(c)
    )
    for scheme in (bdf_coefficients(6), lmm6_scheme()):
        s = region_slice(scheme, "explicit", window=(0.0, 1e-12, 0.0, 1e-12),
                         resolution=2)
        assert s.mask.all()
    assert sizes == [4, 4]


def test_lmm6_slice_sends_few_points_to_eigensolves(monkeypatch):
    counted = []
    eigvals, roots = np.linalg.eigvals, np.roots

    def counting_eigvals(a):
        counted.append(int(np.prod(np.shape(a)[:-2])))
        return eigvals(a)

    def counting_roots(p):
        counted.append(1)
        return roots(p)

    monkeypatch.setattr(stability.np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(stability.np, "roots", counting_roots)
    s = region_slice(lmm6_scheme(), "implicit")
    assert s.mask.size == 400 * 400
    assert sum(counted) <= 0.01 * s.mask.size


LMM6_SLICE_SHA256 = "d566615df7346f4d9f65c966379ae17ce05677344cf182a4183ec73b131515f3"


def test_lmm6_slice_mask_is_the_recorded_one():
    # recorded from the all-points eigenvalue classifier
    mask = region_slice(lmm6_scheme(), "implicit").mask
    assert int(mask.sum()) == 57184
    assert hashlib.sha256(np.packbits(mask).tobytes()).hexdigest() == LMM6_SLICE_SHA256


# ------------------------------------------- runs between locus crossings

def _all_points_mask(scheme, plane, fixed_value, window, resolution):
    # the slice as the per-point root condition decides it, point by point
    n_re, n_im = (resolution, resolution) if np.isscalar(resolution) else resolution
    pts = np.linspace(*window[:2], n_re)[None, :] + 1j * np.linspace(*window[2:], n_im)[:, None]
    if plane == "implicit":
        zi, ze = pts, np.zeros_like(pts)
    else:
        zi, ze = np.full_like(pts, fixed_value if plane == "imex" else 0j), pts
    rho, sigma, sigma_hat = char_polys(scheme).as_arrays()
    return stability._points_stable(rho, sigma, sigma_hat, zi, ze).reshape(pts.shape)


DEFAULT_WINDOW = (-15.0, 5.0, -10.0, 10.0)
RUN_CASES = {
    **{f"{name}-implicit": (SCHEMES[name], "implicit", 0j, DEFAULT_WINDOW, 400)
       for name in SCHEMES},
    "lmm6-explicit-0.5": (lmm6_scheme(), "explicit", 0j, (-0.5, 0.5, -0.5, 0.5), 400),
    "lmm6-explicit-3": (lmm6_scheme(), "explicit", 0j, (-3.0, 3.0, -3.0, 3.0), 400),
    "lmm6-imex-real": (lmm6_scheme(), "imex", -10.0, (-0.5, 0.5, -0.5, 0.5), 400),
    "lmm6-imex-complex": (lmm6_scheme(), "imex", -3.0 + 1j, (-0.5, 0.5, -0.5, 0.5), 400),
    "lmm6-origin": (lmm6_scheme(), "implicit", 0j, (-5e-3, 5e-3, -5e-3, 5e-3), 400),
    # cells of 5e-8 < ROOT_TOL: the verdict turns at |xi| = 1 + ROOT_TOL, not at 1
    "lmm6-origin-1e-5": (lmm6_scheme(), "implicit", 0j, (-5e-6, 5e-6, -5e-6, 5e-6), 200),
    "bdf6-explicit-origin": (SCHEMES["bdf6"], "explicit", 0j, (-5e-3, 5e-3, -5e-3, 5e-3), 101),
    "lmm6-reversed-window": (lmm6_scheme(), "implicit", 0j, (5.0, -15.0, 10.0, -10.0), 101),
    "lmm6-resolution-2": (lmm6_scheme(), "implicit", 0j, (-1.0, 0.2, -0.5, 0.5), 2),
    "lmm6-resolution-2x3": (lmm6_scheme(), "imex", -10.0, (-1.0, 0.2, -0.5, 0.5), (2, 3)),
    "rho-is-minus-sigma": (RHO_IS_MINUS_SIGMA, "implicit", 0j, (-2.0, 0.0, -1.0, 1.0), 51),
    "rho-is-minus-sigma-imex": (RHO_IS_MINUS_SIGMA, "imex", -1.0, (-2.0, 0.0, -1.0, 1.0), 51),
}


@pytest.mark.parametrize("case", list(RUN_CASES))
def test_run_mask_matches_every_point(case):
    scheme, plane, fixed_value, window, resolution = RUN_CASES[case]
    mask = region_slice(scheme, plane, fixed_value, window, resolution).mask
    assert np.array_equal(mask, _all_points_mask(scheme, plane, fixed_value, window, resolution))


def test_degenerate_crossing_row_is_decided_point_by_point(monkeypatch):
    # P(-1) / Q(-1) is real in the implicit plane, so on the row Im z = 0 the
    # crossing polynomial loses its lead (the locus meets the row at xi = -1)
    tested = []
    points_stable = stability._points_stable
    monkeypatch.setattr(
        stability, "_points_stable", lambda *a: tested.append(a[3]) or points_stable(*a)
    )
    window, resolution = (-15.0, 5.0, -1.0, 1.0), (101, 3)
    s = region_slice(lmm6_scheme(), "implicit", window=window, resolution=resolution)
    z = np.concatenate(tested)
    assert np.array_equal(np.sort(z[z.imag == 0.0].real), s.re_axis)
    assert (z.imag == 1.0).sum() < 25  # the other rows go by runs
    assert np.array_equal(s.mask, _all_points_mask(lmm6_scheme(), "implicit", 0j, window, resolution))


# angles from the boundary locus, to the last bit
RECORDED_ANGLES = {
    "bdf1": 90.0,
    "bdf2": 90.0,
    "bdf3": 86.03236686021164,
    "bdf4": 73.35167047457846,
    "bdf5": 51.839755836049896,
    "bdf6": 17.83977779224568,
    "lmm6": 26.153620668609403,
}


@pytest.mark.parametrize("name", list(RECORDED_ANGLES))
def test_stability_angle_is_the_recorded_float(name):
    assert stability_angle(SCHEMES[name]) == RECORDED_ANGLES[name]
