"""Exact Q(sqrt(3)) arithmetic and the seven-step infeasibility certificate."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from imexlmm import barrier, exactalg
from imexlmm.barrier import (
    CertificateInvalidError,
    FarkasSystem,
    QuadExt,
    build_farkas_system,
    certificate_multipliers,
    evaluate_feasibility,
    kernel_vectors,
    search_feasible,
    verify_farkas_certificate,
)
from imexlmm.chebpoly import ChebSeries, evaluate, global_min, global_minima
from imexlmm.schemes import lmm6_parameters, lmm_from_parameters, reform, series_map

F = Fraction


def q3(p, q=0):
    return QuadExt(F(p), F(q))


# ----------------------------------------------------------- QuadExt field

def rand_elem(rng):
    return QuadExt(
        F(rng.randint(-40, 40), rng.randint(1, 12)),
        F(rng.randint(-40, 40), rng.randint(1, 12)),
    )


def test_field_axioms_on_random_elements():
    rng = random.Random(99)
    for _ in range(300):
        a, b, c = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a:  # p^2 = 3 q^2 has no rational solutions, so inverses exist
            assert a * (1 / a) == q3(1)
        assert a - a == q3(0)


def test_sign_decision_is_exact():
    assert q3(0, 1).is_positive()                    # sqrt(3) > 0
    assert q3(-1, 1).is_positive()                   # sqrt(3) > 1
    assert not q3(-2, 1).is_positive()               # sqrt(3) < 2
    assert q3(2, -1).is_positive()                   # 2 > sqrt(3)
    assert not q3(0, 0).is_positive()
    assert q3(0, 0).is_nonnegative()
    # 433/250 < sqrt(3) < 26/15 (433^2 = 187489 < 187500, 676 > 675)
    assert q3(F(-433, 250), 1).is_positive()
    assert not q3(F(-26, 15), 1).is_positive()


def test_division_by_zero_norm():
    with pytest.raises(ZeroDivisionError):
        _ = q3(1) / q3(0, 0)


def test_string_format():
    assert str(q3(F(-107, 112), F(107, 336))) == "-107/112 + 107/336·sqrt(3)"


# -------------------------------------------------- golden assembly (k = 7)

C1, C2, C3, C4, C5 = q3(-3734, 2183), q3(-41, 24), q3(-233, 134), q3(-7, 4), q3(-67, 29)
D1, D2, D3, D4, D5 = q3(-3734, -2183), q3(-41, -24), q3(-233, -134), q3(-7, -4), q3(-67, -29)
_Z = q3(0)

GOLDEN_Q1 = (
    (_Z,) * 7,
    (C1 / 720, C2 * 7 / 96, C3 / 288, C4 * 7 / 480, C4 / 1440, _Z, _Z),
    (q3(F(91, 720)), q3(F(1, 1440)), q3(F(-35, 288)), q3(F(-59, 1440)),
     q3(F(-7, 1440)), q3(F(-1, 5040)), _Z),
    (q3(F(649, 180)), q3(F(35, 12)), q3(F(8, 9)), q3(F(7, 60)),
     q3(F(1, 180)), _Z, _Z),
    (q3(F(1197, 80)), q3(F(2237, 160)), q3(F(189, 32)), q3(F(201, 160)),
     q3(F(21, 160)), q3(F(3, 560)), _Z),
    (D1 / 720, D2 * 7 / 96, D3 / 288, D4 * 7 / 480, D4 / 1440, _Z, _Z),
    (q3(F(-2156, 45)), q3(F(-1708, 45)), q3(F(-133, 9)), q3(F(-136, 45)),
     q3(F(-14, 45)), q3(F(-4, 315)), _Z),
)
GOLDEN_q1 = (
    q3(1), -(C5 * 7) / 120, q3(F(403, 420)), q3(F(-7, 15)),
    q3(F(-333, 70)), -(D5 * 7) / 120, q3(F(2416, 105)),
)
GOLDEN_Q2 = (
    (q3(F(-1, 2)), _Z, _Z, _Z, _Z, _Z, _Z),
    (C5 * 7 / 240, C1 / 2160, C2 * 7 / 384, C3 / 1440, C4 * 7 / 2880,
     C4 / 10080, _Z),
    (q3(F(-49, 120)), q3(F(343, 2160)), q3(F(31, 384)), q3(F(7, 1440)),
     q3(F(-1, 960)), q3(F(-1, 10080)), q3(1)),
    (q3(F(7, 30)), q3(F(649, 540)), q3(F(35, 48)), q3(F(8, 45)),
     q3(F(7, 360)), q3(F(1, 1260)), _Z),
    (q3(F(9, 20)), q3(F(147, 80)), q3(F(169, 128)), q3(F(63, 160)),
     q3(F(17, 320)), q3(F(3, 1120)), q3(-27)),
    (D5 * 7 / 240, D1 / 2160, D2 * 7 / 384, D3 / 1440, D4 * 7 / 2880,
     D4 / 10080, _Z),
    (q3(F(-104, 15)), q3(F(-1148, 135)), q3(F(-13, 3)), q3(F(-49, 45)),
     q3(F(-2, 15)), q3(F(-2, 315)), q3(64)),
)
GOLDEN_q2 = (q3(F(1, 2)),) * 7


def test_assembly_matches_golden_entries():
    system = build_farkas_system(7)
    for i in range(7):
        for j in range(7):
            assert system.Q[i][j] == GOLDEN_Q1[i][j], (i + 1, j + 1)
            assert system.Q[7 + i][j] == GOLDEN_Q2[i][j], (i + 1, j + 1)
    assert tuple(system.q[:7]) == GOLDEN_q1
    assert tuple(system.q[7:]) == GOLDEN_q2


def _chebyshev_value(coeffs, x):
    """sum_m c_m T_m(x) by the three-term recurrence, exactly."""
    t = [F(1), x]
    while len(t) < len(coeffs):
        t.append(2 * x * t[-1] - t[-2])
    return sum(c * tm for c, tm in zip(coeffs, t))


def _quadext_assembly(k):
    """Q and q by QuadExt matrix products of the nodes with series_map(k)."""
    Z = [[barrier._exact_cos_node(m * j, k - 1) for m in range(k)] for j in range(k)]
    M, c = series_map(k)
    Q = [[-x for x in row] for part in (M[:k], M[k:]) for row in exactalg.matmul(Z, part)]
    q = exactalg.matvec(Z, c[:k]) + exactalg.matvec(Z, c[k:])
    return tuple(tuple(row) for row in Q), tuple(q)


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_integer_assembly_matches_quadext_assembly(k):
    system = build_farkas_system(k)
    assert (system.Q, system.q) == _quadext_assembly(k)


def _random_rational(rng, large):
    if large:
        return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
    return F(rng.randint(-40, 40), rng.randint(1, 12))


@pytest.mark.parametrize("k", [4, 7])
def test_residuals_match_quadext_assembly(k):
    # q - Q w by QuadExt sums over the assembly oracle; the k = 7 nodes carry
    # sqrt(3), so its residuals check the sqrt(3) part of the integer rows too
    Q, q = _quadext_assembly(k)
    system = build_farkas_system(k)
    rng = random.Random(500 + k)
    for trial in range(12):
        w = [_random_rational(rng, trial % 2 == 0) for _ in range(k)]
        expected = [qi - sum((x * wj for x, wj in zip(row, w)), start=q3(0))
                    for row, qi in zip(Q, q)]
        assert system.residuals(w) == expected


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_left_product_matches_quadext_sums(k):
    system = build_farkas_system(k)
    rows = [(*(-x for x in row), qi) for row, qi in zip(system.Q, system.q)]
    rng = random.Random(300 + k)
    for trial in range(50):
        rational, large = trial % 3 == 0, trial % 2 == 0
        v = [QuadExt(_random_rational(rng, large), 0 if rational else _random_rational(rng, large))
             for _ in range(2 * k)]
        expected = [sum((vi * row[j] for vi, row in zip(v, rows)), start=q3(0))
                    for j in range(k + 1)]
        assert system.left_product(v) == expected


# the nodes cos(j*pi/(k-1)) for the k != 7 with (k-1) | 6 are rational
RATIONAL_NODES = {
    2: (F(1), F(-1)),
    3: (F(1), F(0), F(-1)),
    4: (F(1), F(1, 2), F(-1, 2), F(-1)),
}


@pytest.mark.parametrize("k", sorted(RATIONAL_NODES))
def test_assembly_residuals_are_node_values_of_tables(k):
    nodes = RATIONAL_NODES[k]
    system = build_farkas_system(k)
    rng = random.Random(1000 + k)
    for _ in range(25):
        w = [F(rng.randint(-500, 500), rng.randint(1, 60)) for _ in range(k)]
        coeffs = reform(lmm_from_parameters(w))
        expected = [_chebyshev_value(c, x) for c in (coeffs.a, coeffs.b) for x in nodes]
        assert system.residuals(w) == [q3(v) for v in expected]


def test_assembly_rejects_nodes_outside_field():
    with pytest.raises(ValueError):
        build_farkas_system(6)  # cos(j*pi/5) is not in Q(sqrt(3))


def test_certificate_verifies_exactly():
    report = verify_farkas_certificate()
    lam = report.lam
    nonzeros = {i + 1 for i in range(14) if lam[i]}
    assert nonzeros == {5, 9, 11, 13}
    assert lam[8] == q3(2, -1)
    assert lam[8].is_positive()
    assert lam[12] == q3(1)
    # q^T lambda, exact dot product in the extension field
    assert report.qt_lambda == q3(F(-107, 112), F(107, 336))
    assert (-report.qt_lambda).is_positive()


def _corrupt_kernel_vector(monkeypatch):
    r1, r2, r3 = kernel_vectors()
    r2 = r2[:4] + (r2[4] + q3(F(1, 1000)),) + r2[5:]
    monkeypatch.setattr(barrier, "kernel_vectors", lambda: (r1, r2, r3))


def _replace_multipliers(monkeypatch, index, value):
    lam = list(certificate_multipliers())
    lam[index - 1] = value
    monkeypatch.setattr(barrier, "certificate_multipliers", lambda: tuple(lam))


def _negate_lambda_entry(monkeypatch):
    _replace_multipliers(monkeypatch, 5, -certificate_multipliers()[4])


def _widen_lambda_support(monkeypatch):
    _replace_multipliers(monkeypatch, 1, q3(1))


def _break_lambda_kernel(monkeypatch):
    # zero kernel vectors pass their identity for any Q; one changed entry of
    # Q in row 13, where lambda is 1, then leaves lambda outside the kernel
    system = build_farkas_system(7)
    lam = certificate_multipliers()
    P = [list(row) for row in system.P]
    P[12][6] -= system.den  # Q[12][6] + 1: row i of den (-Q | q) is P_i + sqrt(3) R_i
    broken = FarkasSystem(7, system.den, tuple(map(tuple, P)), system.R)
    monkeypatch.setattr(barrier, "build_farkas_system", lambda k: broken)
    monkeypatch.setattr(barrier, "kernel_vectors", lambda: ((q3(0),) * 14,) * 3)
    monkeypatch.setattr(barrier, "certificate_multipliers", lambda: lam)


def _flip_q_sign(monkeypatch):
    system = build_farkas_system(7)
    P, R = (tuple((*row[:-1], -row[-1]) for row in rows) for rows in (system.P, system.R))
    flipped = FarkasSystem(7, system.den, P, R)
    monkeypatch.setattr(barrier, "build_farkas_system", lambda k: flipped)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_kernel_vector, "Q^T r(2) != 0"),
        (_negate_lambda_entry, "lambda has a negative entry"),
        (_widen_lambda_support, "unexpected lambda support"),
        (_break_lambda_kernel, "Q^T lambda != 0"),
        (_flip_q_sign, "is not negative"),
    ],
    ids=["kernel-vector", "negative-lambda", "lambda-support", "lambda-kernel", "q-sign"],
)
def test_certificate_refuses_corrupted_input(corrupt, message, monkeypatch):
    corrupt(monkeypatch)
    with pytest.raises(CertificateInvalidError, match=re.escape(message)):
        verify_farkas_certificate()


def test_kernel_vectors_annihilate_Q():
    Q = build_farkas_system(7).Q

    def qt(vec):
        return [
            sum((Q[i][j] * vec[i] for i in range(14)), start=q3(0))
            for j in range(7)
        ]

    for r in kernel_vectors():
        assert not any(qt(r))
    assert not any(qt(certificate_multipliers()))


def test_random_w_always_violates_some_row():
    system = build_farkas_system(7)
    rng = random.Random(20240809)
    for _ in range(10_000):
        w = [F(rng.randint(-10_000, 10_000), rng.randint(1, 100)) for _ in range(7)]
        residuals = system.residuals(w)
        assert any(not r.is_nonnegative() for r in residuals)


def test_feasibility_known_points():
    res = evaluate_feasibility(lmm6_parameters())
    assert res.feasible
    assert res.min_a == pytest.approx(1.0, abs=1e-9)
    assert res.min_b == pytest.approx(0.363757, abs=1e-5)

    bdf6 = evaluate_feasibility([F(0)] * 6)
    assert not bdf6.feasible
    assert bdf6.min_a < 0.0
    assert bdf6.min_b == pytest.approx(0.5, abs=1e-12)

    bdf2 = evaluate_feasibility([F(0), F(0)])
    assert bdf2.feasible
    assert bdf2.min_a == pytest.approx(1.0, abs=1e-12)
    assert bdf2.min_b == pytest.approx(0.5, abs=1e-12)


def test_feasibility_bounded_by_chebyshev_nodes():
    import numpy as np

    rng = random.Random(5)
    for _ in range(25):
        w = [F(rng.randint(-300, 300), rng.randint(1, 20)) for _ in range(7)]
        res = evaluate_feasibility(w)
        coeffs = reform(lmm_from_parameters(w))
        nodes = [float(np.cos(j * np.pi / 6)) for j in range(7)]
        node_min_a = min(
            evaluate(ChebSeries(tuple(float(x) for x in coeffs.a)), x) for x in nodes
        )
        node_min_b = min(
            evaluate(ChebSeries(tuple(float(x) for x in coeffs.b)), x) for x in nodes
        )
        assert res.min_a <= node_min_a + 1e-12
        assert res.min_b <= node_min_b + 1e-12


def test_search_k6_from_known_start():
    result = search_feasible(6, budget=80, seed=0)
    assert result.feasible
    assert min(result.min_a, result.min_b) >= 0.36


def test_search_k2_finds_feasible_region():
    result = search_feasible(2, budget=100, seed=1)
    assert result.feasible


def test_search_k7_never_feasible():
    result = search_feasible(7, budget=400, seed=3)
    assert not result.feasible


def test_search_is_deterministic():
    a = search_feasible(3, budget=120, seed=7)
    b = search_feasible(3, budget=120, seed=7)
    assert a.w == b.w and a.min_a == b.min_a and a.min_b == b.min_b


def _sequential_search(k, budget, seed, kappa=1.0):
    """First-improvement pattern search scoring one float trial at a time.

    The reference for the visiting order, the accepted moves and the budget
    accounting that ``search_feasible`` keeps while it scores in batches.
    Returns the best vector and the number of evaluations.
    """
    M, c = (np.array(x, dtype=float) for x in series_map(k))

    def score(w):
        a, b = np.split((M * np.array(w)).sum(axis=1) + c, 2)
        return min(global_min(ChebSeries(a)).min_value,
                   global_min(ChebSeries(b)).min_value / kappa)

    rng = random.Random(seed)
    starts = [[float(x) for x in lmm6_parameters().w]] if k == 6 else []
    starts.append([0.0] * k)
    while len(starts) < barrier.SEARCH_STARTS:
        starts.append([rng.uniform(-50.0, 50.0) for _ in range(k)])
    share = max(2 * k + 1, budget // len(starts))
    evals, best_w, best = 0, None, -float("inf")
    for start in starts:
        if evals >= budget:
            break
        stop = min(budget, evals + share)
        current, s = list(start), score(start)
        evals += 1
        if s > best:
            best_w, best = list(current), s
        scales = [max(1.0, abs(x)) for x in current]
        step = 0.5
        while step > 1e-6 and evals < stop:
            improved = False
            for i in range(k):
                for sign in (1.0, -1.0):
                    if evals >= stop:
                        break
                    trial = list(current)
                    trial[i] += sign * step * scales[i]
                    t = score(trial)
                    evals += 1
                    if t > s + barrier.SEARCH_GAIN * abs(s):
                        current, s, improved = trial, t, True
            if s > best:
                best_w, best = list(current), s
            if not improved:
                step /= 2.0
    return [F(x) for x in best_w], evals


# (7, 83, 0) stops after 7 of the 14 moves of a sweep; in (2, 2000, 1) all 20
# starts stop on step <= 1e-6 before their share of 100, 1720 evaluations in all;
# (4, 9, 2) runs a single start and (3, 1, 0) only scores it
@pytest.mark.parametrize("k, budget, seed, kappa", [
    *(pytest.param(*case, 1.0, id="-".join(map(str, case))) for case in [
        (2, 60, 3), (4, 100, 1), (5, 300, 2), (6, 200, 0), (7, 83, 0),
        (2, 2000, 1), (4, 9, 2), (3, 1, 0)]),
    (5, 300, 2, 0.3),
])
def test_batched_search_keeps_sequential_order(k, budget, seed, kappa):
    result = search_feasible(k, budget=budget, seed=seed, kappa=kappa)
    w, evaluations = _sequential_search(k, budget, seed, kappa)
    assert list(result.w.w) == w
    assert result.evaluations == evaluations


@pytest.mark.parametrize("k", range(2, 8))
def test_search_scores_each_round_in_one_call(k, monkeypatch):
    # the starts walk in lockstep, so a search makes at most as many float
    # scoring calls as one start has evaluations
    calls = []

    def counted(series):
        calls.append(len(series))
        return global_minima(series)

    monkeypatch.setattr(barrier, "global_minima", counted)
    budget = 100
    search_feasible(k, budget=budget, seed=1)
    assert len(calls) <= max(2 * k + 1, budget // barrier.SEARCH_STARTS)


@pytest.mark.parametrize("seed", [1, 2])
def test_search_scores_few_moves_beyond_its_evaluations(seed, monkeypatch):
    # a round sends each live walk's next SEARCH_BATCH moves, not the rest of
    # its sweep, so few scored series are thrown away after an improvement
    rows = []

    def counted(series):
        rows.append(len(series))
        return global_minima(series)

    monkeypatch.setattr(barrier, "global_minima", counted)
    evaluations = sum(search_feasible(k, budget=100, seed=seed).evaluations for k in range(2, 8))
    assert sum(rows) <= 1.2 * 2 * evaluations  # two series, a and b, per evaluation


@pytest.mark.parametrize("budget", [0, float("inf"), float("nan")])
def test_search_rejects_bad_budget(budget):
    with pytest.raises(ValueError, match="search budget must be finite and at least 1"):
        search_feasible(3, budget=budget)


@pytest.mark.parametrize("kappa", [0.0, -1.0, float("inf"), float("nan")])
def test_search_rejects_bad_kappa(kappa):
    # kappa = inf would clamp every score to min(min_a, 0)
    with pytest.raises(ValueError, match="kappa must be finite and positive"):
        search_feasible(3, budget=10, kappa=kappa)


@pytest.mark.parametrize("k", range(2, 8))
def test_search_reports_exact_reevaluation(k):
    result = search_feasible(k, budget=100, seed=1)
    exact = evaluate_feasibility(result.w)
    assert (result.min_a, result.min_b, result.feasible) == (
        exact.min_a, exact.min_b, exact.feasible)
