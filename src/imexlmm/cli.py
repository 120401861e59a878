"""Command-line entry point.

Subcommands cover the full workflow: scheme construction, energy
certification, the order-7 infeasibility check, stability scans, phase-field
simulation and convergence studies.  Structured artifacts are JSON, traces
and tables are CSV; floats are written with 17 significant digits so repeated
runs with identical arguments produce byte-identical files.  Each subcommand
returns its text, and ``main`` writes it once to ``--out`` or to stdout after
the config echo: a refused ``certify`` still writes its report, exits 2 and 3
write nothing, and ``simulate`` writes its trace and snapshots as files.

Exit codes: 0 success, 1 certification refused, 2 usage error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import barrier, certify, pde, schemes, stability
from .models import Grid, MODEL_BUILDERS

OUTPUT_DIR_ENV = "IMEXLMM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header: str, rows) -> str:
    """CSV text: ints as written, None as an empty cell, other numbers by _fmt."""
    def cell(x) -> str:
        return "" if x is None else str(x) if isinstance(x, int) else _fmt(x)
    return "\n".join([header, *(",".join(map(cell, row)) for row in rows)]) + "\n"


def _out_path(name: str) -> Path:
    base = os.environ.get(OUTPUT_DIR_ENV)
    p = Path(name)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _echo_config(args: argparse.Namespace):
    skip = {"func", "config"}
    pairs = [
        f"{key}={value}"
        for key, value in sorted(vars(args).items())
        if key not in skip and value is not None
    ]
    print("# config: " + " ".join(pairs))


def _load_scheme(path: str) -> schemes.SchemeCoefficients:
    text = _out_path(path).read_text()
    while text.startswith("#"):  # a config echo captured with the table from stdout
        text = text.partition("\n")[2]
    try:
        return schemes.scheme_from_json(text)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scheme file {path}: {exc!r}") from exc


def _write_text(path: str | None, text: str):
    """Write ``text`` to ``path`` (under the output directory), or to stdout
    when no path is given."""
    if not path:
        print(text, end="")
        return
    target = _out_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    print(f"wrote {target}")


def _parse_fraction_list(text: str):
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except ZeroDivisionError as exc:
        raise ValueError(f"bad fraction list {text!r}: {exc}") from exc


# ---------------------------------------------------------------- scheme ---

def cmd_scheme(args) -> tuple[int, str]:
    if args.variant == "bdf":
        scheme = schemes.bdf_coefficients(args.k)
    elif args.variant == "from-params":
        scheme = schemes.lmm_from_parameters(_parse_fraction_list(args.w))
    else:  # lmm6
        scheme = schemes.lmm6_scheme()
    scheme.validate()
    return EXIT_OK, schemes.scheme_to_json(scheme) + "\n"


# --------------------------------------------------------------- certify ---

def cmd_certify(args) -> tuple[int, str]:
    scheme = _load_scheme(args.scheme)
    constants = certify.ModelConstants(ell_f=args.ell_f, zeta=args.zeta, eta=args.eta)
    report = certify.certify_scheme(scheme, constants, gamma_fraction=args.gamma_fraction)
    if report.refused:
        print(f"refused: {report.refusal_reason}", file=sys.stderr)
    code = EXIT_REFUSED if report.refused else EXIT_OK
    return code, json.dumps(report.to_json_dict(), indent=2) + "\n"


# --------------------------------------------------------------- barrier ---

def cmd_barrier_verify(args) -> tuple[int, str]:
    report = barrier.verify_farkas_certificate()
    return EXIT_OK, f"PASS {report.qt_lambda}\n{report.summary()}\n"


def cmd_barrier_search(args) -> tuple[int, str]:
    result = barrier.search_feasible(
        k=args.k, budget=args.budget, seed=args.seed, kappa=args.kappa
    )
    return EXIT_OK, json.dumps({
        "k": args.k,
        "w": [str(x) for x in result.w.w],
        "min_a": result.min_a,
        "min_b": result.min_b,
        "feasible": result.feasible,
        "evaluations": result.evaluations,
    }, indent=2) + "\n"


# ------------------------------------------------------------- stability ---

def cmd_stability_slice(args) -> tuple[int, str]:
    scheme = _load_scheme(args.scheme)
    window = tuple(float(x) for x in args.window.split(","))
    if len(window) != 4:
        raise argparse.ArgumentTypeError("window must be re0,re1,im0,im1")
    result = stability.region_slice(
        scheme,
        plane=args.plane,
        fixed_value=complex(args.zi.replace("i", "j").replace(" ", "")),
        window=window,
        resolution=args.resolution,
    )
    return EXIT_OK, _csv("x,y,stable", ((x, y, int(ok)) for x, y, ok in result.rows()))


def cmd_stability_angle(args) -> tuple[int, str]:
    scheme = _load_scheme(args.scheme)
    angle = stability.stability_angle(scheme)
    return EXIT_OK, f"A(theta)-stability angle: {_fmt(angle)} degrees\n"


# -------------------------------------------------------------- simulate ---

def _snapshot_writer(pattern: str, grid: Grid, every: int):
    def write(step: int, t: float, u: np.ndarray):
        if step % every:
            return
        stem = _out_path(pattern.format(step=step))
        stem.parent.mkdir(parents=True, exist_ok=True)
        u.astype(np.float64).tofile(stem.with_suffix(".bin"))
        sidecar = {
            "grid": list(grid.shape),
            "domain": list(grid.lengths),
            "t": t,
        }
        stem.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")

    return write


def cmd_simulate(args) -> tuple[int, str]:
    certify.require_positive("--tau", args.tau)
    certify.require_positive("--T", args.T)   # before int(round(T / tau))
    scheme = _load_scheme(args.scheme)
    model = MODEL_BUILDERS[args.model](args.epsilon)
    grid = Grid((args.grid, args.grid), (args.domain, args.domain))
    on_state = None
    if args.snapshots:
        mode, _, value = args.snapshots.partition(":")
        if mode != "every" or not value.isdigit() or int(value) < 1:
            raise argparse.ArgumentTypeError("snapshots must look like every:N with N >= 1")
        on_state = _snapshot_writer("snapshot_{step:06d}", grid, int(value))
    report = certify.certify_scheme(scheme, model.constants())
    if report.refused:
        print(f"refused: {report.refusal_reason}", file=sys.stderr)
        return EXIT_REFUSED, ""

    if args.model == "pfc":
        result = pde.pfc_experiment(
            grid,
            tau=args.tau,
            T=args.T,
            seed=args.seed,
            model=model,
            scheme=scheme,
            report=report,
            on_state=on_state,
        )
        trace = result.trace
        offset = f" energy_offset={_fmt(result.energy_offset)}"
    else:
        rng = np.random.default_rng(args.seed)
        u0 = 0.05 * rng.standard_normal(grid.shape)
        n_steps = int(round(args.T / args.tau)) - (scheme.k - 1)
        trace, _ = pde.simulate(
            model, grid, scheme, report, u0, args.tau, n_steps, on_state=on_state
        )
        offset = ""
    header = (
        f"model={args.model} epsilon={model.epsilon} tau={args.tau} T={args.T} "
        f"seed={args.seed}{offset} tau_max={_fmt(report.tau_max)}"
    )
    trace.write_csv(_out_path(args.trace), header_comment=header)
    return EXIT_OK, f"wrote {_out_path(args.trace)}\n"


# -------------------------------------------------------------- converge ---

def cmd_converge(args) -> tuple[int, str]:
    scheme = _load_scheme(args.scheme)
    n_list = [int(x) for x in args.N.split(",")]
    grid = Grid((args.grid, args.grid), (2 * np.pi, 2 * np.pi))
    model = MODEL_BUILDERS[args.example](args.epsilon)
    solution = pde.trig_mode_solution(grid)
    rows = pde.convergence_study(model, grid, scheme, solution, n_list, T=args.T)
    return EXIT_OK, _csv("N,tau,e_inf,rate_inf,e_2,rate_2", (
        (r.n_steps, r.tau, r.error_inf, r.rate_inf, r.error_two, r.rate_two) for r in rows))


# ------------------------------------------------------------------ main ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imexlmm",
        description="energy-dissipative IMEX multistep methods for gradient flows",
    )
    parser.add_argument("--config", help="key=value file; flags override its entries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scheme", help="construct a coefficient table")
    ps = p.add_subparsers(dest="variant", required=True)
    p_bdf = ps.add_parser("bdf", help="backward differentiation table")
    p_bdf.add_argument("--k", type=int, required=True)
    p_bdf.add_argument("--out")
    p_bdf.set_defaults(func=cmd_scheme)
    p_par = ps.add_parser("from-params", help="table from free parameters w_1..w_k")
    p_par.add_argument("--w", required=True, help="comma-separated fractions")
    p_par.add_argument("--out")
    p_par.set_defaults(func=cmd_scheme)
    p_l6 = ps.add_parser("lmm6", help="the six-step energy-dissipative method")
    p_l6.add_argument("--out")
    p_l6.set_defaults(func=cmd_scheme)

    p = sub.add_parser("certify", help="energy-dissipation certificate")
    p.add_argument("--scheme", required=True)
    p.add_argument("--ell-f", dest="ell_f", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--gamma-fraction", dest="gamma_fraction", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("barrier", help="order-7 infeasibility tools")
    pb = p.add_subparsers(dest="variant", required=True)
    p_ver = pb.add_parser("verify", help="check the exact infeasibility certificate")
    p_ver.set_defaults(func=cmd_barrier_verify)
    p_sea = pb.add_parser("search", help="pattern search for feasible parameters")
    p_sea.add_argument("--k", type=int, required=True)
    p_sea.add_argument("--budget", type=int, default=2000)
    p_sea.add_argument("--seed", type=int, default=0)
    p_sea.add_argument("--kappa", type=float, default=1.0)
    p_sea.add_argument("--out")
    p_sea.set_defaults(func=cmd_barrier_search)

    p = sub.add_parser("stability", help="linear stability analysis")
    pst = p.add_subparsers(dest="variant", required=True)
    p_sl = pst.add_parser("slice", help="scan one stability-region slice")
    p_sl.add_argument("--scheme", required=True)
    p_sl.add_argument("--plane", choices=("implicit", "explicit", "imex"), required=True)
    p_sl.add_argument("--zi", default="0+0j", help="fixed z_I for the imex plane")
    p_sl.add_argument("--window", default="-15,5,-10,10", help="re0,re1,im0,im1")
    p_sl.add_argument("--resolution", type=int, default=400)
    p_sl.add_argument("--out", required=True)
    p_sl.set_defaults(func=cmd_stability_slice)
    p_an = pst.add_parser("angle", help="A(theta) sector angle")
    p_an.add_argument("--scheme", required=True)
    p_an.set_defaults(func=cmd_stability_angle)

    p = sub.add_parser("simulate", help="run a phase-field simulation")
    p.add_argument("--model", choices=sorted(MODEL_BUILDERS), default="pfc")
    p.add_argument("--scheme", required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--domain", type=float, default=128.0)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", default="trace.csv")
    p.add_argument("--snapshots", help="every:N writes snapshot_<step>.bin/.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", help="manufactured-solution convergence table")
    p.add_argument("--example", choices=("ac", "pfc"), required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--N", default="25,40,50,64,80")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_converge)
    return parser


def _apply_config_file(argv):
    """Expand a key=value config file (``--config FILE`` or ``--config=FILE``)
    into trailing flags.

    Explicit flags win: a key is skipped whenever its flag already appears
    in argv (in either --flag value or --flag=value form).
    """
    for idx, token in enumerate(argv):
        flag, eq, value = token.partition("=")
        if flag == "--config":
            path = Path(value if eq else argv[idx + 1])
            break
    else:
        return argv
    extra = []
    present = {token.split("=", 1)[0] for token in argv if token.startswith("--")}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        if flag not in present:
            extra.extend([f"{flag}={value.strip()}"])
    return argv + extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except (OSError, IndexError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _echo_config(args)
    try:
        code, text = args.func(args)
        _write_text(getattr(args, "out", None), text)  # simulate, verify and angle have no --out
        return code
    except ArithmeticError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (argparse.ArgumentTypeError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
