"""End-to-end command-line checks (run in-process)."""

import json
from fractions import Fraction

import numpy as np
import pytest

from imexlmm.cli import main


def run(argv):
    return main(argv)


@pytest.fixture
def lmm6_file(tmp_path):
    path = tmp_path / "lmm6.json"
    assert run(["scheme", "lmm6", "--out", str(path)]) == 0
    return path


def test_scheme_bdf_json(tmp_path, capsys):
    out = tmp_path / "bdf3.json"
    assert run(["scheme", "bdf", "--k", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [Fraction(x) for x in payload["A"]] == [
        Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3)
    ]
    header = capsys.readouterr().out
    assert header.startswith("# config:")
    assert "k=3" in header


def test_scheme_from_params_matches_lmm6(tmp_path, lmm6_file):
    out = tmp_path / "byparams.json"
    w = "64/5,-141/5,111,-1034,9886,-23/100"
    assert run(["scheme", "from-params", "--w", w, "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == json.loads(lmm6_file.read_text())


def test_certify_refusal_exit_code(tmp_path, capsys):
    bdf6 = tmp_path / "bdf6.json"
    run(["scheme", "bdf", "--k", "6", "--out", str(bdf6)])
    code = run([
        "certify", "--scheme", str(bdf6),
        "--ell-f", "1", "--zeta", "1", "--eta", "1",
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "refused" in captured.err
    assert "min T(x; a)" in captured.err
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["refused"] is True
    assert payload["alpha_max"] < 0


@pytest.mark.parametrize("w", ["2,0,1/4", "-1/4,15/8,-1/8"])
def test_certify_exits_zero_when_b_touches_its_minimum_at_an_endpoint(tmp_path, w):
    scheme = tmp_path / "scheme.json"
    assert run(["scheme", "from-params", f"--w={w}", "--out", str(scheme)]) == 0
    assert run(["certify", "--scheme", str(scheme), "--ell-f", "1", "--zeta", "1", "--eta", "1"]) == 0


def test_certify_lmm6_report(tmp_path, lmm6_file):
    out = tmp_path / "report.json"
    code = run([
        "certify", "--scheme", str(lmm6_file),
        "--ell-f", "10.75", "--zeta", "1.0478", "--eta", "0.5",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["refused"] is False
    assert payload["alpha_max"] == pytest.approx(1.0, abs=1e-9)
    assert len(payload["G_a"]) == 5 and len(payload["G_a"][0]) == 5
    assert payload["tau_max"] > 0


@pytest.mark.parametrize(
    "argv, key",
    [(["scheme", "lmm6"], "A"),
     (["barrier", "search", "--k", "2", "--budget", "60", "--seed", "1"], "w")],
    ids=["scheme", "barrier-search"],
)
def test_json_goes_to_stdout_without_out(argv, key, capsys):
    assert run(argv) == 0
    config, _, text = capsys.readouterr().out.partition("\n")
    assert config.startswith("# config:")
    assert key in json.loads(text)


@pytest.mark.parametrize(
    "argv",
    [["scheme", "lmm6"],
     ["certify", "--scheme", "{lmm6}", "--ell-f", "10.75", "--zeta", "1.0478", "--eta", "0.5"],
     ["certify", "--scheme", "{bdf6}", "--ell-f", "1", "--zeta", "1", "--eta", "1"],
     ["barrier", "search", "--k", "2", "--budget", "60", "--seed", "1"]],
    ids=["scheme", "certify", "certify-refused", "barrier-search"],
)
def test_stdout_matches_out_file(argv, tmp_path, lmm6_file, capsys):
    # one payload: stdout past the config echo is the --out file, byte for byte
    bdf6 = tmp_path / "bdf6.json"
    assert run(["scheme", "bdf", "--k", "6", "--out", str(bdf6)]) == 0
    argv = [token.format(lmm6=lmm6_file, bdf6=bdf6) for token in argv]
    out = tmp_path / "out.txt"
    code = run(argv + ["--out", str(out)])
    capsys.readouterr()
    assert run(argv) == code
    echo, _, text = capsys.readouterr().out.partition("\n")
    assert echo.startswith("# config:")
    assert text.encode() == out.read_bytes()


def test_scheme_stdout_loads_as_a_scheme_file(tmp_path, lmm6_file, capsys):
    # stdout leads with the config echo; a scheme file is read past leading # lines
    assert run(["scheme", "lmm6"]) == 0
    piped = tmp_path / "piped.json"
    piped.write_text(capsys.readouterr().out)
    assert piped.read_text().startswith("# config:")
    reports = []
    for scheme in (piped, lmm6_file):
        out = tmp_path / f"report-{scheme.stem}.json"
        assert run(["certify", "--scheme", str(scheme), "--ell-f", "10.75",
                    "--zeta", "1.0478", "--eta", "0.5", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_barrier_verify_prints_exact_value(capsys):
    assert run(["barrier", "verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS -107/112 + 107/336·sqrt(3)" in out


def test_barrier_search_output(tmp_path):
    out = tmp_path / "w.json"
    assert run([
        "barrier", "search", "--k", "2", "--budget", "60", "--seed", "1",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["feasible"] is True
    assert len(payload["w"]) == 2


def test_stability_angle_output(lmm6_file, capsys):
    assert run(["stability", "angle", "--scheme", str(lmm6_file)]) == 0
    out = capsys.readouterr().out
    assert "degrees" in out


def test_stability_slice_csv(tmp_path, lmm6_file):
    out = tmp_path / "slice.csv"
    assert run([
        "stability", "slice", "--scheme", str(lmm6_file),
        "--plane", "imex", "--zi=-10+0i",
        "--window=-0.02,0.02,-0.02,0.02", "--resolution", "5",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,stable"
    assert len(lines) == 1 + 25
    assert all(line.split(",")[2] in ("0", "1") for line in lines[1:])


def test_simulate_trace_and_snapshots(tmp_path, lmm6_file, monkeypatch):
    monkeypatch.setenv("IMEXLMM_OUTPUT_DIR", str(tmp_path))
    code = run([
        "simulate", "--model", "pfc", "--scheme", str(lmm6_file),
        "--grid", "32", "--domain", "32", "--tau", "0.01", "--T", "0.2",
        "--seed", "1", "--trace", "trace.csv", "--snapshots", "every:10",
    ])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[1] == "step,t,E,E_G,mass,max_abs"
    assert (tmp_path / "snapshot_000000.bin").exists()
    sidecar = json.loads((tmp_path / "snapshot_000000.json").read_text())
    assert sidecar["grid"] == [32, 32]
    assert sidecar["domain"] == [32.0, 32.0]


def test_simulate_ac_trace_header(tmp_path, lmm6_file):
    trace = tmp_path / "trace.csv"
    code = run([
        "simulate", "--model", "ac", "--scheme", str(lmm6_file),
        "--grid", "16", "--domain", "16", "--tau", "0.01", "--T", "0.1",
        "--trace", str(trace),
    ])
    assert code == 0
    header, columns = trace.read_text().splitlines()[:2]
    assert header.startswith("# model=ac ")
    assert "tau_max=" in header and "energy_offset" not in header
    assert columns == "step,t,E,E_G,mass,max_abs"


def test_simulate_creates_the_trace_directory(tmp_path, lmm6_file, monkeypatch):
    # the run once finished, wrote its snapshots, then exited 2 on the missing directory
    monkeypatch.setenv("IMEXLMM_OUTPUT_DIR", str(tmp_path))
    code = run([
        "simulate", "--model", "ac", "--scheme", str(lmm6_file),
        "--grid", "16", "--domain", "16", "--tau", "0.01", "--T", "0.1",
        "--trace", "t/trace.csv", "--snapshots", "every:5",
    ])
    assert code == 0
    lines = (tmp_path / "t" / "trace.csv").read_text().splitlines()
    assert lines[1] == "step,t,E,E_G,mass,max_abs" and len(lines) == 2 + 11  # steps 0..10
    assert (tmp_path / "snapshot_000005.bin").exists()


def test_converge_csv(tmp_path, lmm6_file):
    out = tmp_path / "table.csv"
    code = run([
        "converge", "--example", "ac", "--scheme", str(lmm6_file),
        "--N", "8,10", "--grid", "32", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,tau,e_inf,rate_inf,e_2,rate_2"
    assert len(lines) == 3


def test_determinism_byte_identical(tmp_path, lmm6_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run([
            "converge", "--example", "ac", "--scheme", str(lmm6_file),
            "--N", "8,10", "--grid", "32", "--out", str(out),
        ])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--no-such-flag"],
        ["scheme", "bdf", "--k", "9"],
        ["certify", "--scheme", "{lmm6}", "--ell-f=-1", "--zeta", "1", "--eta", "1"],
        ["certify", "--scheme", "{missing}", "--ell-f", "1", "--zeta", "1", "--eta", "1"],
        ["simulate", "--model", "ac", "--scheme", "{lmm6}", "--grid", "16",
         "--tau", "0", "--T", "1", "--trace", "{out}"],
        ["simulate", "--model", "pfc", "--scheme", "{lmm6}", "--grid", "16",
         "--tau", "0", "--T", "1", "--trace", "{out}"],
        ["simulate", "--model", "ac", "--scheme", "{lmm6}", "--grid", "16",
         "--tau", "0.01", "--T", "0.1", "--snapshots", "every:0", "--trace", "{out}"],
        ["barrier", "search", "--k", "3", "--budget", "0", "--out", "{out}"],
        ["barrier", "search", "--k", "3", "--kappa", "0", "--out", "{out}"],
        ["barrier", "search", "--k", "3", "--kappa", "inf", "--out", "{out}"],
        ["simulate", "--model", "ac", "--scheme", "{lmm6}", "--grid", "16",
         "--tau", "0.01", "--T", "0.02", "--trace", "{out}"],
        ["simulate", "--model", "pfc", "--scheme", "{lmm6}", "--grid", "16",
         "--tau", "0.01", "--T", "0.02", "--trace", "{out}"],
        ["stability", "angle", "--scheme", "{empty}"],
        ["stability", "angle", "--scheme", "{a_int}"],
        ["stability", "angle", "--scheme", "{a_div0}"],
        ["scheme", "from-params", "--w", "1/0"],
        ["certify", "--scheme", "{lmm6}", "--ell-f", "nan", "--zeta", "1", "--eta", "1"],
        ["certify", "--scheme", "{lmm6}", "--ell-f", "1", "--zeta", "inf", "--eta", "1"],
        ["simulate", "--model", "ac", "--scheme", "{lmm6}", "--grid", "16", "--domain=-16",
         "--tau", "0.01", "--T", "0.1", "--trace", "{out}"],
        ["simulate", "--model", "ac", "--scheme", "{lmm6}", "--grid", "16", "--domain=0",
         "--tau", "0.01", "--T", "0.1", "--trace", "{out}"],
        ["converge", "--example", "ac", "--scheme", "{lmm6}", "--N", "8,8", "--grid", "16",
         "--out", "{out}"],
        ["simulate", "--model", "ac", "--scheme", "{lmm6}", "--grid", "16",
         "--tau", "0.01", "--T", "inf", "--trace", "{out}"],
        ["simulate", "--model", "ac", "--scheme", "{lmm6}", "--grid", "16", "--epsilon", "nan",
         "--tau", "0.01", "--T", "0.1", "--trace", "{out}"],
        ["converge", "--example", "ac", "--scheme", "{lmm6}", "--N", "8,10", "--grid", "16",
         "--epsilon", "nan", "--out", "{out}"],
        ["converge", "--example", "ac", "--scheme", "{lmm6}", "--N", "8,10", "--grid", "16",
         "--T", "-1", "--out", "{out}"],
        ["stability", "slice", "--scheme", "{lmm6}", "--plane", "implicit",
         "--window=nan,5,-10,10", "--resolution", "4", "--out", "{out}"],
        ["stability", "slice", "--scheme", "{lmm6}", "--plane", "implicit",
         "--window=inf,5,-10,10", "--resolution", "4", "--out", "{out}"],
        ["stability", "slice", "--scheme", "{lmm6}", "--plane", "implicit",
         "--window=-15,5,1e308,-1e308", "--resolution", "4", "--out", "{out}"],
        ["stability", "slice", "--scheme", "{lmm6}", "--plane", "imex", "--zi=nan",
         "--resolution", "4", "--out", "{out}"],
    ],
    ids=["unknown-flag", "bdf-k9", "negative-ell-f", "missing-scheme",
         "ac-tau-0", "pfc-tau-0", "snapshots-every-0",
         "search-budget-0", "search-kappa-0", "search-kappa-inf",
         "ac-T-short", "pfc-T-short",
         "scheme-empty", "scheme-a-int", "scheme-a-div0", "params-div0",
         "ell-f-nan", "zeta-inf", "domain-negative", "domain-0", "converge-repeated-N",
         "T-inf", "epsilon-nan", "converge-epsilon-nan", "converge-T-negative",
         "slice-window-nan", "slice-window-inf", "slice-window-overflow", "slice-zi-nan"],
)
def test_usage_error_exit_code(argv, tmp_path, lmm6_file, capsys):
    paths = {"lmm6": lmm6_file, "missing": tmp_path / "missing.json", "out": tmp_path / "out.csv"}
    table = json.loads(lmm6_file.read_text())
    for name, payload in (("empty", {}), ("a_int", {**table, "A": 5}),
                          ("a_div0", {**table, "A": ["1/0", "-1"]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    argv = [token.format(**paths) for token in argv]
    capsys.readouterr()
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects unknown flags itself
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    echo, _, rest = captured.out.partition("\n")
    assert rest == ""  # nothing past the config echo, which argparse errors precede
    assert not echo or echo.startswith("# config:")
    assert not paths["out"].exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "ac", "--scheme", "{lmm6}",
         "--grid", "16", "--domain", "6.283185307179586",
         "--tau", "50", "--T", "2000", "--trace", "{out}"],
        ["converge", "--example", "ac", "--scheme", "{lmm6}",
         "--N", "6,8", "--grid", "16", "--T", "50", "--out", "{out}"],
    ],
    ids=["simulate", "converge"],
)
def test_non_finite_run_exit_code(argv, tmp_path, lmm6_file, capsys):
    paths = {"lmm6": lmm6_file, "out": tmp_path / "out.csv"}
    with np.errstate(all="ignore"):
        code = run([token.format(**paths) for token in argv])
    assert code == 3
    assert "after step" in capsys.readouterr().err


def test_starter_failure_exit_code(tmp_path, lmm6_file, capsys):
    # tau far beyond the starter's reach: an invariant failure, not a refusal
    trace = tmp_path / "trace.csv"
    code = run([
        "simulate", "--model", "ac", "--scheme", str(lmm6_file), "--grid", "16",
        "--domain", "16", "--tau", "1000", "--T", "10000", "--trace", str(trace),
    ])
    assert code == 3
    assert "stage iteration" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("model", ["pfc", "ac"])
def test_simulate_refused_scheme_exit_code(model, tmp_path, capsys):
    bdf6 = tmp_path / "bdf6.json"
    assert run(["scheme", "bdf", "--k", "6", "--out", str(bdf6)]) == 0
    trace = tmp_path / "trace.csv"
    code = run([
        "simulate", "--model", model, "--scheme", str(bdf6),
        "--grid", "16", "--domain", "16", "--tau", "0.01", "--T", "0.1",
        "--trace", str(trace),
    ])
    assert code == 1
    assert "refused" in capsys.readouterr().err
    assert not trace.exists()


def test_config_file_defaults_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=4\n")
    for config in (["--config", str(cfg)], [f"--config={cfg}"]):
        out = tmp_path / "bdf.json"
        assert run(config + ["scheme", "bdf", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["k"] == 4
        out2 = tmp_path / "bdf2.json"
        assert run(config + ["scheme", "bdf", "--k", "2", "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["k"] == 2
