"""Span recording around the public callables of ``imexlmm``.

The traced benchmark run replaces module attributes of the program with
wrappers for the duration of one set-up and one unit of work, then puts the
originals back.  Each call of a wrapped callable records one span: name,
start, end, index of the enclosing span, run id, and a work count with its
computed byte size where the call has one (points transformed, matrices
decomposed, bytes written).  Spans stay in memory until the run ends.

Wrappers are installed where the caller looks the name up: ``barrier``
imports ``global_min``, ``lmm_from_parameters`` and ``reform`` by name, so
those names are replaced in ``barrier`` as well as in their home modules.
``numpy.fft`` and ``numpy.linalg.eigvals`` are counted by giving ``models``,
``pde`` and ``stability`` a copy of the ``numpy`` namespace whose transforms
and eigensolvers are wrapped; every other module keeps the real ``numpy``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import types
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

FFT_KINDS = {
    **dict.fromkeys(("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"), "complex"),
    **dict.fromkeys(("rfft", "rfft2", "rfftn"), "real_forward"),
    **dict.fromkeys(("irfft", "irfft2", "irfftn"), "real_inverse"),
}

# layers whose self times are reported; "bench" is the benchmark's own code
LAYERS = ("bench", "pde", "fft", "io", "certify", "chebpoly", "schemes", "barrier", "stability")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root span
    run: int
    work: int = 0    # points transformed, matrices decomposed, ...
    nbytes: int = 0  # computed bytes for that work, or bytes written

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder for a single-threaded caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, work=None):
        """``fn`` recording one span per call; ``work(args, kwargs, result)``
        returns the (work, nbytes) pair stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span.work, span.nbytes = work(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _fft_work(kind):
    def work(args, kwargs, result):
        if kind == "complex":
            points, itemsize = result.size, result.itemsize
        elif kind == "real_forward":
            points, itemsize = np.size(args[0]) // 2, result.itemsize
        else:
            points, itemsize = result.size // 2, np.asarray(args[0]).itemsize
        return points, points * itemsize

    return work


def _eigvals_work(args, kwargs, result):
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2], dtype=np.int64)), 0


def _roots_work(args, kwargs, result):
    # numpy.roots strips leading and trailing zeros and hands the companion
    # matrix of what is left to eigvals only when its degree is at least 1
    nz = np.flatnonzero(np.atleast_1d(args[0]))
    return int(len(nz) > 0 and nz[-1] > nz[0]), 0


def _write_csv_work(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return 0, os.path.getsize(path)


def _namespace_copy(module, **overrides):
    view = types.ModuleType(module.__name__, module.__doc__)
    view.__dict__.update(vars(module))
    view.__dict__.update(overrides)
    return view


@contextlib.contextmanager
def installed(tracer: Tracer, api):
    """Replace the program's public callables with span-recording wrappers
    until the block exits; ``api`` is the imported ``imexlmm`` package."""
    barrier, certify, chebpoly = api.barrier, api.certify, api.chebpoly
    models, pde, schemes, stability = api.models, api.pde, api.schemes, api.stability

    def source_factory(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return tracer.wrap("pde.source", fn(*args, **kwargs))

        return wrapped

    fft = {name: tracer.wrap(f"fft.{name}", getattr(np.fft, name), _fft_work(kind))
           for name, kind in FFT_KINDS.items()}
    numpy_fft = _namespace_copy(np, fft=_namespace_copy(np.fft, **fft))
    numpy_eig = _namespace_copy(
        np,
        linalg=_namespace_copy(
            np.linalg,
            eigvals=tracer.wrap("stability.eig", np.linalg.eigvals, _eigvals_work),
        ),
        roots=tracer.wrap("stability.eig", np.roots, _roots_work),
    )

    # (owner, attribute, span name, work) -- one line per place a name is looked up
    targets = [
        (pde, "pfc_experiment", "pde.pfc_experiment", None),
        (pde, "simulate", "pde.simulate", None),
        (pde, "convergence_study", "pde.convergence_study", None),
        (pde.SpectralFlow, "step", "pde.step", None),
        (pde, "energy", "pde.energy", None),
        (pde, "gauss_rk6_start", "pde.starter", None),
        (pde.EnergyTrace, "write_csv", "io.write_csv", _write_csv_work),
        (certify, "certify_scheme", "certify.certify_scheme", None),
        (pde, "certify_scheme", "certify.certify_scheme", None),
        (certify, "spectral_factorize", "certify.spectral_factorize", None),
        (chebpoly, "global_min", "chebpoly.global_min", None),
        (certify, "global_min", "chebpoly.global_min", None),
        (barrier, "global_min", "chebpoly.global_min", None),
        (schemes, "lmm_from_parameters", "schemes.lmm_from_parameters", None),
        (barrier, "lmm_from_parameters", "schemes.lmm_from_parameters", None),
        (schemes, "reform", "schemes.reform", None),
        (certify, "reform", "schemes.reform", None),
        (pde, "reform", "schemes.reform", None),
        (barrier, "reform", "schemes.reform", None),
        (barrier, "evaluate_feasibility", "barrier.evaluate_feasibility", None),
        (barrier, "search_feasible", "barrier.search_feasible", None),
        (barrier, "build_farkas_system", "barrier.build_farkas_system", None),
        (barrier, "verify_farkas_certificate", "barrier.verify_farkas_certificate", None),
        (stability, "region_slice", "stability.region_slice", None),
        (stability, "stability_angle", "stability.stability_angle", None),
    ]
    replacements = [
        (owner, attr, tracer.wrap(name, getattr(owner, attr), work))
        for owner, attr, name, work in targets
    ]
    replacements += [
        (pde, "discrete_source", source_factory(pde.discrete_source)),
        (models, "np", numpy_fft),
        (pde, "np", numpy_fft),
        (stability, "np", numpy_eig),
    ]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield tracer
    finally:
        for owner, attr, value in originals:
            setattr(owner, attr, value)


def _percentile_us(durations, q):
    """Nearest-rank percentile of durations in seconds, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1] * 1e6


def _has_ancestor(spans, span, names):
    p = span.parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def per_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics averaged over the traced runs (one set-up plus one
    unit each); latency percentiles pool the calls of all runs.

    Averages, not medians, so that the layer self times of a run add up to
    ``trace.setup_s + trace.wall_s`` exactly.
    """
    spans = tracer.spans
    n_runs = max(1, len({s.run for s in spans}))
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = defaultdict(float)
    durations = defaultdict(list)
    work = defaultdict(int)
    nbytes = defaultdict(int)
    for i, s in enumerate(spans):
        own = s.duration - child[i]
        calls[s.name] += 1
        busy[s.name] += s.duration
        self_time[s.name] += own
        layer_self[s.layer] += own
        durations[s.name].append(s.duration)
        work[s.name] += s.work
        nbytes[s.name] += s.nbytes

    # FFTs per multistep update: those issued inside pde.step or pde.energy
    # from the first update of each run on (the starter's and the initial
    # energies' transforms are set-up of the loop, not part of a step)
    first_step = {}
    for s in spans:
        if s.name == "pde.step" and s.run not in first_step:
            first_step[s.run] = s.start
    step_fft_calls = step_fft_points = step_fft_bytes = 0
    for s in spans:
        if (s.layer == "fft" and s.run in first_step and s.start >= first_step[s.run]
                and _has_ancestor(spans, s, ("pde.step", "pde.energy"))):
            step_fft_calls += 1
            step_fft_points += s.work
            step_fft_bytes += s.nbytes
    steps = calls["pde.step"]

    def per_run(value):
        return value / n_runs

    def per_step(value):
        return value / steps if steps else 0.0

    def total(prefix, table):
        return sum(v for name, v in table.items() if name.startswith(prefix))

    roots = defaultdict(float)
    for s in spans:
        if s.parent < 0:
            roots[s.name] += s.duration

    m = {
        "pde.step.calls": (per_run(calls["pde.step"]), "count"),
        "pde.step.busy_s": (per_run(busy["pde.step"]), "s"),
        "pde.step.p50_us": (_percentile_us(durations["pde.step"], 0.50), "us"),
        "pde.step.p99_us": (_percentile_us(durations["pde.step"], 0.99), "us"),
        "pde.energy.busy_s": (per_run(busy["pde.energy"]), "s"),
        "pde.simulate.self_s": (per_run(self_time["pde.simulate"]), "s"),
        "pde.starter.calls": (per_run(calls["pde.starter"]), "count"),
        "pde.starter.busy_s": (per_run(busy["pde.starter"]), "s"),
        "pde.source.calls": (per_run(calls["pde.source"]), "count"),
        "pde.source.busy_s": (per_run(busy["pde.source"]), "s"),
        "pde.convergence_study.self_s": (per_run(self_time["pde.convergence_study"]), "s"),
        "fft.calls_per_step": (per_step(step_fft_calls), "calls/step"),
        "fft.points_per_step": (per_step(step_fft_points), "points/step"),
        "fft.computed_bytes_per_step": (per_step(step_fft_bytes), "B/step"),
        "fft.busy_s": (per_run(total("fft.", busy)), "s"),
        "io.write_csv.busy_s": (per_run(busy["io.write_csv"]), "s"),
        "io.trace_bytes": (per_run(nbytes["io.write_csv"]), "B"),
        "certify.certify_scheme.calls": (per_run(calls["certify.certify_scheme"]), "count"),
        "certify.certify_scheme.busy_s": (per_run(busy["certify.certify_scheme"]), "s"),
        "certify.spectral_factorize.busy_s": (per_run(busy["certify.spectral_factorize"]), "s"),
        "chebpoly.global_min.calls": (per_run(calls["chebpoly.global_min"]), "count"),
        "chebpoly.global_min.busy_s": (per_run(busy["chebpoly.global_min"]), "s"),
        "schemes.lmm_from_parameters.calls": (per_run(calls["schemes.lmm_from_parameters"]), "count"),
        "schemes.lmm_from_parameters.busy_s": (per_run(busy["schemes.lmm_from_parameters"]), "s"),
        "schemes.reform.busy_s": (per_run(busy["schemes.reform"]), "s"),
        "barrier.evaluate_feasibility.calls": (per_run(calls["barrier.evaluate_feasibility"]), "count"),
        "barrier.evaluate_feasibility.busy_s": (per_run(busy["barrier.evaluate_feasibility"]), "s"),
        "barrier.evaluate_feasibility.p50_us": (
            _percentile_us(durations["barrier.evaluate_feasibility"], 0.50), "us"),
        "barrier.evaluate_feasibility.p99_us": (
            _percentile_us(durations["barrier.evaluate_feasibility"], 0.99), "us"),
        "barrier.verify_farkas_certificate.busy_s": (
            per_run(busy["barrier.verify_farkas_certificate"]), "s"),
        "stability.region_slice.busy_s": (per_run(busy["stability.region_slice"]), "s"),
        "stability.stability_angle.busy_s": (per_run(busy["stability.stability_angle"]), "s"),
        "stability.eig_matrices": (per_run(work["stability.eig"]), "count"),
        "stability.eig.busy_s": (per_run(busy["stability.eig"]), "s"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (per_run(layer_self[layer]), "s")
    m["trace.setup_s"] = (per_run(roots["bench.setup"]), "s")
    m["trace.wall_s"] = (per_run(roots["bench.unit"]), "s")
    m["trace.spans"] = (per_run(len(spans)), "count")
    return m
