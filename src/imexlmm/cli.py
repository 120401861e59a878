"""Command-line entry point.

Subcommands cover the full workflow: scheme construction, energy
certification, the order-7 infeasibility check, stability scans, phase-field
simulation and convergence studies.  Structured artifacts are JSON, traces
and tables are CSV; floats are written with 17 significant digits so repeated
runs with identical arguments produce byte-identical files.

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
    return schemes.scheme_from_json(_out_path(path).read_text())


def _write_text(path: str, text: str):
    target = _out_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    print(f"wrote {target}")


def _parse_fraction_list(text: str):
    return [Fraction(part.strip()) for part in text.split(",") if part.strip()]


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


# ---------------------------------------------------------------- scheme ---

def cmd_scheme(args) -> int:
    if args.variant == "bdf":
        scheme = schemes.bdf_coefficients(args.k)
    elif args.variant == "from-params":
        scheme = schemes.lmm_from_parameters(_parse_fraction_list(args.w))
    else:  # lmm6
        scheme = schemes.lmm6_scheme()
    scheme.validate()
    text = schemes.scheme_to_json(scheme) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


# --------------------------------------------------------------- certify ---

def cmd_certify(args) -> int:
    scheme = _load_scheme(args.scheme)
    constants = certify.ModelConstants(ell_f=args.ell_f, zeta=args.zeta, eta=args.eta)
    report = certify.certify_scheme(scheme, constants, gamma_fraction=args.gamma_fraction)
    text = report.to_json(indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    if report.refused:
        print(f"refused: {report.refusal_reason}", file=sys.stderr)
        return EXIT_REFUSED
    return EXIT_OK


# --------------------------------------------------------------- barrier ---

def cmd_barrier_verify(args) -> int:
    report = barrier.verify_farkas_certificate()
    print("PASS " + str(report.qt_lambda))
    print(report.summary())
    return EXIT_OK


def cmd_barrier_search(args) -> int:
    result = barrier.search_feasible(
        k=args.k, budget=args.budget, seed=args.seed, kappa=args.kappa
    )
    payload = {
        "k": args.k,
        "w": [str(x) for x in result.w.w],
        "min_a": result.min_a,
        "min_b": result.min_b,
        "feasible": result.feasible,
        "evaluations": result.evaluations,
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


# ------------------------------------------------------------- stability ---

def cmd_stability_slice(args) -> int:
    scheme = _load_scheme(args.scheme)
    window = tuple(float(x) for x in args.window.split(","))
    if len(window) != 4:
        raise argparse.ArgumentTypeError("window must be re0,re1,im0,im1")
    result = stability.region_slice(
        scheme,
        plane=args.plane,
        fixed_value=_parse_complex(args.zi),
        window=window,
        resolution=args.resolution,
    )
    lines = ["x,y,stable"]
    for x, y, ok in result.rows():
        lines.append(f"{_fmt(x)},{_fmt(y)},{int(ok)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_stability_angle(args) -> int:
    scheme = _load_scheme(args.scheme)
    angle = stability.stability_angle(scheme, n_radii=args.radii)
    print(f"A(theta)-stability angle: {_fmt(angle)} degrees")
    return EXIT_OK


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


def cmd_simulate(args) -> int:
    scheme = _load_scheme(args.scheme)
    model = MODEL_BUILDERS[args.model](args.epsilon)
    grid = Grid((args.grid, args.grid), (args.domain, args.domain))
    on_state = None
    if args.snapshots:
        mode, _, value = args.snapshots.partition(":")
        if mode != "every" or not value.isdigit():
            raise argparse.ArgumentTypeError("snapshots must look like every:2000")
        on_state = _snapshot_writer("snapshot_{step:06d}", grid, int(value))
    report = certify.certify_scheme(scheme, model.constants())
    if report.refused:
        print(f"refused: {report.refusal_reason}", file=sys.stderr)
        return EXIT_REFUSED

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
        header = (
            f"model=pfc epsilon={model.epsilon} tau={args.tau} T={args.T} "
            f"seed={args.seed} energy_offset={_fmt(result.energy_offset)} "
            f"tau_max={_fmt(report.tau_max)}"
        )
    else:
        rng = np.random.default_rng(args.seed)
        u0 = 0.05 * rng.standard_normal(grid.shape)
        n_steps = max(0, int(round(args.T / args.tau)) - (scheme.k - 1))
        trace, _ = pde.simulate(
            model, grid, scheme, report, u0, args.tau, n_steps, on_state=on_state
        )
        header = (
            f"model={args.model} epsilon={model.epsilon} tau={args.tau} "
            f"T={args.T} seed={args.seed} tau_max={_fmt(report.tau_max)}"
        )
    trace.write_csv(_out_path(args.trace), header_comment=header)
    print(f"wrote {_out_path(args.trace)}")
    return EXIT_OK


# -------------------------------------------------------------- converge ---

def cmd_converge(args) -> int:
    scheme = _load_scheme(args.scheme)
    n_list = [int(x) for x in args.N.split(",")]
    grid = Grid((args.grid, args.grid), (2 * np.pi, 2 * np.pi))
    model = MODEL_BUILDERS[args.example](args.epsilon)
    solution = pde.trig_mode_solution(grid)
    rows = pde.convergence_study(model, grid, scheme, solution, n_list, T=args.T)
    lines = ["N,tau,e_inf,rate_inf,e_2,rate_2"]
    for r in rows:
        ri = "" if r.rate_inf is None else _fmt(r.rate_inf)
        r2 = "" if r.rate_two is None else _fmt(r.rate_two)
        lines.append(
            f"{r.n_steps},{_fmt(r.tau)},{_fmt(r.error_inf)},{ri},"
            f"{_fmt(r.error_two)},{r2}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


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
    p_an.add_argument("--radii", type=int, default=200)
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
    """Expand a key=value config file into trailing flags.

    Explicit flags win: a key is skipped whenever its flag already appears
    in argv (in either --flag value or --flag=value form).
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    path = Path(argv[idx + 1])
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
        return args.func(args)
    except (
        barrier.CertificateInvalidError,
        pde.InvariantViolationError,
        pde.IllPosedStepError,
        ArithmeticError,
    ) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (argparse.ArgumentTypeError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
