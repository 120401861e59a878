"""Fast self-check of the benchmark on shortened workloads.

Run from the root of a checkout:  python3 perfbench/selfcheck.py

For every workload it runs ``run.main`` with the "quick" sizes, untraced and
traced, and confirms that each end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit, that the run passes its gates, that
the layer self times of a traced run add up to its traced wall time, and
that the exact counts repeat between two traced runs.  It then breaks one
gate on purpose (a grain-growth reference value) and confirms that the run
fails.  Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "fft.calls_per_step",
    "fft.points_per_step",
    "pde.step.calls",
    "pde.starter.calls",
    "pde.source.calls",
    "stability.eig_matrices",
    "barrier.evaluate_feasibility.calls",
    "certify.certify_scheme.calls",
    "chebpoly.global_min.calls",
    "schemes.lmm_from_parameters.calls",
)


class SelfCheckError(Exception):
    pass


def require(condition, message):
    if not condition:
        raise SelfCheckError(message)


def quick_run(workload, trace, seed=1):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            sizes="quick",
        )
    return code, json.loads(out.getvalue().splitlines()[-1])


def check_emitted(workload, trace, result, declared):
    tag = f"{workload} --trace {trace}"
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys {sorted(result)}")
    require(result["correct"] and result["failed"] == 0, f"{tag}: gates failed: {result}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted")
    metrics = result["metrics"]
    require(set(metrics) == set(declared),
            f"{tag}: metric names differ: missing {sorted(set(declared) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        entry = metrics[name]
        require(entry["unit"] == unit, f"{tag}: {name} has unit {entry['unit']}, declared {unit}")
        require(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
                f"{tag}: {name} = {entry['value']!r}")
        if trace == 0:
            require(entry["value"] > 0, f"{tag}: end-to-end metric {name} is {entry['value']}")


def check_accounting(workload, metrics):
    value = {name: m["value"] for name, m in metrics.items()}
    layers = sum(v for name, v in value.items() if name.startswith("layer."))
    traced = value["trace.setup_s"] + value["trace.wall_s"]
    require(abs(layers - traced) <= 1e-9 * max(1.0, traced),
            f"{workload}: layer self times sum to {layers}, traced set-up plus wall is {traced}")


def check_failed_gate():
    import workloads

    key = "seed=1,T=" + format(workloads.QUICK.grain_T, "g")
    saved = dict(workloads.REFERENCE["grain_growth"][key])
    workloads.REFERENCE["grain_growth"][key]["E"] = saved["E"] * (1.0 + 1e-6)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code, result = quick_run("grain_growth", 0)
    finally:
        workloads.REFERENCE["grain_growth"][key] = saved
    require(code != 0, "a broken gate still exited 0")
    require(result["correct"] is False and result["failed"] >= 1,
            f"a broken gate was not counted: {result}")


def main() -> int:
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    try:
        for workload in (w["name"] for w in SPEC["workloads"]):
            code, result = quick_run(workload, 0)
            require(code == 0, f"{workload} --trace 0 exited {code}")
            check_emitted(workload, 0, result, e2e)
            traced = []
            for _ in range(2):
                code, result = quick_run(workload, 1)
                require(code == 0, f"{workload} --trace 1 exited {code}")
                check_emitted(workload, 1, result, per_layer)
                check_accounting(workload, result["metrics"])
                traced.append(result["metrics"])
            for name in EXACT_COUNTS:
                require(traced[0][name]["value"] == traced[1][name]["value"],
                        f"{workload}: {name} changed between traced runs")
            print(f"selfcheck: {workload} ok", file=sys.stderr)
        check_failed_gate()
        print("selfcheck: a broken gate fails the run: ok", file=sys.stderr)
    except SelfCheckError as exc:
        print(f"selfcheck: FAILED: {exc}", file=sys.stderr)
        return 1
    print("selfcheck: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
