"""The benchmark's three workloads: set-up, one unit of work, and its gates.

``setup(name, seed, sizes)`` builds a workload from its seed; ``run(lap)`` does
one unit of work through the public ``imexlmm`` API and returns a ``Unit``,
calling ``lap()`` between the parts of the unit that are timed separately;
``check(output)`` compares that unit's outputs with the paper's published
values after the clock has stopped and returns the failed operations.  The
tolerances are those of the acceptance suite, unchanged.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports ``imexlmm`` from there.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import imexlmm  # noqa: E402
from imexlmm import barrier, certify, chebpoly, models, pde, schemes, stability  # noqa: E402

DEFAULT_SEED = 1
REFERENCE = json.loads((HERE / "reference.json").read_text())
SLICE_REFERENCE_FILE = HERE / "slice_lmm6_implicit_400.bin"
SLICE_RESOLUTION = 400


@dataclass(frozen=True)
class Sizes:
    name: str
    grain_T: float       # simulated time of one grain-growth unit (tau = 0.01)
    conv_n: tuple        # step counts N of both convergence tables
    search_budget: int   # feasibility evaluations per k in the k = 2..7 sweep
    slice_stride: int    # 1: the full 400 x 400 slice; s: every s-th point of it
    setup_probes: int    # fresh processes timed for setup_s


FULL = Sizes("full", 4.0, (25, 40, 50, 64, 80), 100, 1, 7)
QUICK = Sizes("quick", 0.3, (25, 40), 10, 3, 1)
SIZES = {s.name: s for s in (FULL, QUICK)}


@dataclass
class Unit:
    """One unit of work: its outputs, the operations it attempted, and the
    count and time base of its throughput (``ops_per_s``)."""

    output: object
    attempted: int
    rate_count: int
    rate_laps: slice | None = None  # the laps whose time is the base; None: all


def _no_lap(kernel=None):
    pass


def _rel_close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


class GrainGrowth:
    """Criterion-9 desk-scale PFC grain growth, cut short, plus the trace CSV."""

    KERNEL = "spectral"

    TAU = 0.01
    SLACK = 1e-9          # relative slack on E_G increases
    MASS_TOL = 1e-12      # mass drift relative to |mass_0|
    MAX_ABS = 2.0
    REFERENCE_REL = 1e-8

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.T = sizes.grain_T
        self.grid = models.Grid((128, 128), (128.0, 128.0))
        self.model = models.pfc(0.25)
        self.scheme = schemes.lmm6_scheme()
        self.report = certify.certify_scheme(self.scheme, self.model.constants())
        rng = random.Random(seed)
        lx, ly = self.grid.lengths
        self.patches = tuple(
            pde.PatchSpec((rng.uniform(0.0, lx), rng.uniform(0.0, ly)), 10.0, amp)
            for amp in (0.25, 0.30, 0.35)
        )
        self.planned = int(round(self.T / self.TAU)) - (self.scheme.k - 1)

    def run(self, lap=_no_lap) -> Unit:
        result = pde.pfc_experiment(
            self.grid, self.TAU, self.T, seed=self.seed, patches=self.patches,
            model=self.model, scheme=self.scheme, report=self.report,
        )
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            result.trace.write_csv(
                os.path.join(tmp, "trace.csv"), header_comment=f"grain_growth seed={self.seed}"
            )
        steps = len(result.trace.steps) - self.scheme.k
        return Unit(result, steps, steps)

    def reference(self):
        if self.seed != DEFAULT_SEED:
            return None
        return REFERENCE["grain_growth"].get(f"seed={self.seed},T={self.T:g}")

    def check(self, result) -> list:
        tr = result.trace
        k = self.scheme.k
        E = np.asarray(tr.energy)
        EG = np.asarray(tr.modified_energy)
        mass = np.asarray(tr.mass)
        max_abs = np.asarray(tr.max_abs)
        finite = np.isfinite(E) & np.isfinite(mass) & np.isfinite(max_abs)
        finite[k - 1:] &= np.isfinite(EG[k - 1:])
        rise = np.zeros(len(E), dtype=bool)
        prev = EG[k - 1:-1]
        rise[k:] = EG[k:] - prev > self.SLACK * np.maximum(1.0, np.abs(prev))
        drift = (np.maximum.accumulate(mass) - np.minimum.accumulate(mass)
                 > self.MASS_TOL * abs(mass[0]))
        bad = ~finite | ~(max_abs < self.MAX_ABS) | rise | drift
        # one failure per failed step: bad starting values fail the first
        # update, a final state off the reference fails the last one
        bad[k] |= bad[:k].any()
        ref = self.reference()
        off_reference = ref is not None and not (
            _rel_close(E[-1], ref["E"], self.REFERENCE_REL)
            and _rel_close(EG[-1], ref["E_G"], self.REFERENCE_REL)
        )
        bad[-1] |= off_reference
        failures = [
            f"step {n}: finite={bool(finite[n])} max|u|={max_abs[n]:.6g} "
            f"E_G rise={bool(rise[n])} mass drift={bool(drift[n])}"
            for n in np.flatnonzero(bad[k:]) + k
        ]
        if off_reference:
            failures[-1] += (
                f"; final E={E[-1]!r}, E_G={EG[-1]!r} differ from the reference "
                f"E={ref['E']!r}, E_G={ref['E_G']!r}"
            )
        return failures


class ConvergenceTables:
    """Criterion-8 temporal convergence tables for AC and PFC, six-step scheme."""

    KERNEL = "spectral_stages"

    PUBLISHED = {
        "AC": {25: 3.654e-9, 40: 2.863e-10, 50: 8.208e-11, 64: 2.025e-11, 80: 5.753e-12},
        "PFC": {25: 1.433e-8, 40: 9.123e-10, 50: 2.378e-10, 64: 5.321e-11, 80: 1.370e-11},
    }
    RATE_WINDOWS = {"AC": (5.3, 6.0), "PFC": (5.7, 6.3)}
    ERROR_FACTOR = 3.0

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed  # the tables are deterministic; recorded, unused
        self.n_list = list(sizes.conv_n)
        self.grid = models.Grid((128, 128), (2 * np.pi, 2 * np.pi))
        self.models = {"AC": models.allen_cahn(0.01), "PFC": models.pfc(0.01)}
        self.scheme = schemes.lmm6_scheme()
        self.solution = pde.trig_mode_solution(self.grid)
        self.planned = len(self.models) * len(self.n_list)

    def run(self, lap=_no_lap) -> Unit:
        tables = {}
        for label, model in self.models.items():
            if tables:
                lap()
            tables[label] = pde.convergence_study(
                model, self.grid, self.scheme, self.solution, self.n_list
            )
        steps = len(self.models) * sum(n - (self.scheme.k - 1) for n in self.n_list)
        return Unit(tables, self.planned, steps)

    def check(self, tables) -> list:
        failures = []
        for label, rows in tables.items():
            lo, hi = self.RATE_WINDOWS[label]
            for row in rows:
                ref = self.PUBLISHED[label][row.n_steps]
                ok = ref / self.ERROR_FACTOR < row.error_inf < ref * self.ERROR_FACTOR
                if row.rate_inf is not None:
                    ok = ok and lo <= row.rate_inf <= hi
                if not ok:
                    failures.append(
                        f"{label} N={row.n_steps}: error {row.error_inf:.4g} "
                        f"(published {ref:.4g}), rate {row.rate_inf}"
                    )
        return failures


def _mixed_neighbourhood(mask):
    """Cells whose 3 x 3 neighbourhood holds both stable and unstable cells,
    i.e. cells within one cell of the region's boundary."""
    n, m = mask.shape
    padded = np.pad(mask, 1, mode="edge")
    any_true = np.zeros_like(mask)
    any_false = np.zeros_like(mask)
    for di in range(3):
        for dj in range(3):
            window = padded[di:di + n, dj:dj + m]
            any_true |= window
            any_false |= ~window
    return any_true & any_false


class SchemeDesign:
    """The analysis desk: certification, feasibility search, the exact k=7
    barrier, A(theta) angles and one implicit-plane stability slice."""

    KERNEL = "exact"

    CONSTANTS = dict(ell_f=1.0, zeta=1.0, eta=1.0)
    BDF_MINIMA = {
        2: (1.0, 1e-10),
        3: (95.0 / 96.0, 1e-10),
        4: (664.0 / 729.0 - 43.0 * math.sqrt(43.0) / 2916.0, 1e-10),
        5: (0.185546, 1e-5),
    }
    BDF6_WITNESS = -7.0 / 15.0
    LMM6_ALPHA, LMM6_BETA = 1.0, 0.363757
    QT_LAMBDA = barrier.QuadExt(Fraction(-107, 112), Fraction(107, 336))
    ANGLES = {"BDF6": 17.84, "six-step": 26.15}
    ANGLE_TOL = 0.05
    SEARCH_K = tuple(range(2, 8))

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.budget = sizes.search_budget
        self.stride = sizes.slice_stride
        self.bdf = [schemes.bdf_coefficients(k) for k in range(1, 7)]
        self.lmm6 = schemes.lmm6_scheme()
        self.constants = certify.ModelConstants(**self.CONSTANTS)
        self.resolution = (SLICE_RESOLUTION - 1) // self.stride + 1
        self.planned = len(self.bdf) + 1 + len(self.SEARCH_K) + 1 + 2 + 1

    def run(self, lap=_no_lap) -> Unit:
        reports = [certify.certify_scheme(s, self.constants) for s in self.bdf + [self.lmm6]]
        lap()
        searches = []
        for k in self.SEARCH_K:
            if k >= self.SEARCH_K[-3]:  # the three longest searches get a lap each
                lap()
            searches.append(barrier.search_feasible(k, budget=self.budget, seed=self.seed))
        lap()
        farkas = barrier.verify_farkas_certificate()
        angles = {
            "BDF6": stability.stability_angle(self.bdf[5]),
            "six-step": stability.stability_angle(self.lmm6),
        }
        lap("batched_eig")
        region = stability.region_slice(
            self.lmm6, "implicit", resolution=(self.resolution, self.resolution)
        )
        evaluations = sum(s.evaluations for s in searches)
        output = (reports, searches, farkas, angles, region)
        return Unit(output, self.planned, evaluations, rate_laps=slice(1, 5))

    def check(self, output) -> list:
        reports, searches, farkas, angles, region = output
        failures = []
        bdf1 = reports[0]
        if bdf1.refused:
            failures.append(f"BDF1 refused: {bdf1.refusal_reason}")
        for k, (want, tol) in self.BDF_MINIMA.items():
            r = reports[k - 1]
            if r.refused or abs(r.alpha_max - want) >= tol:
                failures.append(f"BDF{k}: min T(x; a) = {r.alpha_max!r}, published {want!r}")
        bdf6 = reports[5]
        a6 = schemes.reform(self.bdf[5]).a
        witness = chebpoly.evaluate(chebpoly.ChebSeries(tuple(float(x) for x in a6)), 0.0)
        if not (bdf6.refused and bdf6.alpha_max < 0.0
                and abs(witness - self.BDF6_WITNESS) < 1e-12):
            failures.append(f"BDF6: refused={bdf6.refused}, witness T(0; a) = {witness!r}")
        lmm6 = reports[6]
        if (lmm6.refused or abs(lmm6.alpha_max - self.LMM6_ALPHA) >= 1e-9
                or abs(lmm6.beta_max - self.LMM6_BETA) >= 1e-5):
            failures.append(
                f"six-step: alpha_max={lmm6.alpha_max!r}, beta_max={lmm6.beta_max!r}"
            )
        for k, found in zip(self.SEARCH_K, searches):
            # k <= 5 starts from the BDF point and k = 6 from the six-step
            # scheme, both feasible; k = 7 is infeasible by the barrier
            if found.feasible != (k <= 6):
                failures.append(f"search k={k}: feasible={found.feasible}")
        if farkas.qt_lambda != self.QT_LAMBDA:
            failures.append(f"q^T lambda = {farkas.qt_lambda}, published {self.QT_LAMBDA}")
        for label, want in self.ANGLES.items():
            if not abs(angles[label] - want) < self.ANGLE_TOL:
                failures.append(f"angle {label}: {angles[label]!r} deg, published {want}")
        failures += self._check_slice(region.mask)
        return failures

    def _check_slice(self, mask) -> list:
        packed = np.frombuffer(SLICE_REFERENCE_FILE.read_bytes(), dtype=np.uint8)
        n = SLICE_RESOLUTION
        ref = np.unpackbits(packed)[: n * n].reshape(n, n).astype(bool)
        ref = ref[:: self.stride, :: self.stride]
        if mask.shape != ref.shape:
            return [f"slice shape {mask.shape}, reference {ref.shape}"]
        off = (mask != ref) & ~_mixed_neighbourhood(ref)
        if off.any():
            return [f"slice: {int(off.sum())} cells differ from the reference away from its boundary"]
        return []


WORKLOADS = {
    "grain_growth": GrainGrowth,
    "convergence_tables": ConvergenceTables,
    "scheme_design": SchemeDesign,
}


def setup(name: str, seed: int, sizes: Sizes):
    return WORKLOADS[name](seed, sizes)
