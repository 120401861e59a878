"""Benchmark of imexlmm: one command for every workload, untraced or traced.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload grain_growth --seed 1 --seconds 30 --trace 0

One process with one caller runs units of the workload back to back (a
closed loop) until the next unit would end past ``--seconds``, and always
runs at least one.  Every unit's outputs are checked against the paper's
published values after its clock stops; a failed check fails the run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over fresh
interpreters, from ``import imexlmm`` to built inputs), ``wall_s`` and
``ops_per_s`` (median unit time and total throughput over the units, after
a warm-up unit of the shortened workload) and ``peak_rss_mb``.  Times are in
reference seconds: each lap of a unit is scaled by a fixed reference
kernel's nominal over its measured time, the kernel being timed just before
and after the lap (see ``speed.py``); the raw wall times are kept in the
metadata.  ``--trace 1``
alternates an untraced unit with a traced set-up plus unit and reports the
per-layer metrics derived from the recorded spans, with the tracing
overhead.  The last line of standard output is the result as JSON; the line
before it holds the run's metadata.  Both, and the spans of a traced run,
are also written under ``perfbench/out/``.  Exit status: 0 when every check
passed, 1 when one failed, 2 on a usage error or when the checkout has no
``src/imexlmm``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("grain_growth", "convergence_tables", "scheme_design")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cap_threads():
    """BLAS/OpenMP pools get at most one thread per available core; set
    before numpy is first imported."""
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            n = 0
        if not 1 <= n <= NPROC:
            os.environ[var] = str(NPROC)


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.messages += failures

    def crash(self, planned, exc):
        self.attempted += planned
        self.failed += planned
        self.messages.append(f"unit raised {exc!r}")


def _timed_unit(wl):
    t0 = time.perf_counter()
    unit = wl.run()
    return unit, time.perf_counter() - t0


def _lapped_unit(wl, clock):
    clock.start()
    unit = wl.run(clock.lap)
    clock.lap()
    return unit, clock.laps


def _probe_setup(args, sizes):
    """(set-up seconds, reference kernel seconds) of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), args.workload, str(args.seed), sizes.name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    setup, ref = out.stdout.split()[-2:]
    return float(setup), float(ref)


def _untraced(args, sizes, W, tally):
    import speed

    start = time.perf_counter()
    probes = [_probe_setup(args, sizes) for _ in range(sizes.setup_probes)]
    # warm-up: one unit of the shortened workload runs the same code paths
    warm = W.setup(args.workload, args.seed, W.QUICK)
    try:
        unit = warm.run()
    except Exception as exc:  # a unit that raises fails all its operations
        tally.crash(warm.planned, exc)
        return {}, {}
    tally.add(unit.attempted, warm.check(unit.output))
    wl = W.setup(args.workload, args.seed, sizes)
    clock = speed.LapClock(wl.KERNEL)
    nominal = speed.KERNELS[wl.KERNEL].nominal_s
    walls, raw_walls, refs, rate_counts, rate_seconds, elapsed = [], [], {}, [], [], []
    lap_samples = []
    while True:
        unit_start = time.perf_counter()
        try:
            unit, laps = _lapped_unit(wl, clock)
        except Exception as exc:  # a unit that raises fails all its operations
            tally.crash(wl.planned, exc)
            break
        tally.add(unit.attempted, wl.check(unit.output))
        elapsed.append(time.perf_counter() - unit_start)
        lap_samples.append([dataclasses.asdict(lap) for lap in laps])
        walls.append(clock.reference(laps))
        raw_walls.append(clock.wall(laps))
        for lap in laps:
            refs.setdefault(lap.kernel, []).append(lap.ref_after)
        rate_counts.append(unit.rate_count)
        rate_seconds.append(clock.reference(laps[unit.rate_laps or slice(None)]))
        if time.perf_counter() - start + statistics.median(elapsed) > args.seconds:
            break
    if not walls:
        return {}, {}
    metrics = {
        "setup_s": (statistics.median(s * nominal / r for s, r in probes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (sum(rate_counts) / sum(rate_seconds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "kernels_nominal_s": {k: speed.KERNELS[k].nominal_s for k in refs},
        "kernels_median_s": {k: statistics.median(v) for k, v in refs.items()},
        "raw_setup_s": statistics.median(s for s, _ in probes),
        "raw_wall_s": statistics.median(raw_walls),
        "setup_probes_s": probes,
        "walls_s": walls,
        "raw_walls_s": raw_walls,
        "laps": lap_samples,
        "rate_counts": rate_counts,
        "rate_seconds": rate_seconds,
    }
    return metrics, samples


def _traced(args, sizes, W, tally):
    import tracing

    tracer = tracing.Tracer()
    wl = W.setup(args.workload, args.seed, sizes)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        try:
            unit, wall = _timed_unit(wl)
        except Exception as exc:  # a unit that raises fails all its operations
            tally.crash(wl.planned, exc)
            break
        untraced.append(wall)
        tally.add(unit.attempted, wl.check(unit.output))
        tracer.run = len(traced)
        try:
            with tracing.installed(tracer, W.imexlmm):
                with tracer.span("bench.setup"):
                    wl_traced = W.setup(args.workload, args.seed, sizes)
                with tracer.span("bench.unit") as span:
                    unit = wl_traced.run()
        except Exception as exc:  # as above, for the traced unit
            tally.crash(wl.planned, exc)
            break
        traced.append(span.duration)
        tally.add(unit.attempted, wl_traced.check(unit.output))
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > args.seconds:
            break
    if not traced:
        return {}, {}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
    metrics = tracing.per_layer_metrics(tracer)
    untraced_wall = statistics.fmean(untraced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    return metrics, {"untraced_walls_s": untraced, "traced_walls_s": traced}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _metadata(args, sizes, W):
    src = ROOT / "src"
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": dataclasses.asdict(sizes),
        "loop": "closed loop, one caller, one process",
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": W.np.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "fft": "numpy.fft (pocketfft), one thread per transform",
    }


def main(argv=None, sizes: str = "full") -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "imexlmm" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'imexlmm'}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    _cap_threads()
    import workloads as W

    size = W.SIZES[sizes]
    meta = _metadata(args, size, W)
    tally = Tally()
    measure = _traced if args.trace else _untraced
    metrics, samples = measure(args, size, W, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"metadata": meta, "result": result, "samples": samples,
              "failures": tally.messages}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for message in record["failures"][:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    meta["timing"] = {k: v for k, v in samples.items() if not isinstance(v, list)}
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
