"""The benchmark's span tracer against the current program."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imexlmm
from imexlmm import barrier, certify, chebpoly, models, pde, schemes, stability

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "imexlmm"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_installs_and_restores(monkeypatch):
    # every name the traced bench patches must exist where it is looked up;
    # a renamed or deleted one fails here, not only in the bench selfcheck
    tracing = _load_tracing(monkeypatch)
    owners = (barrier, certify, chebpoly, models, pde, schemes, stability,
              pde.SpectralFlow, pde.EnergyTrace)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, imexlmm):
        assert barrier.reform is not before[0]["reform"]
        schemes.reform(schemes.lmm6_scheme())
    assert [dict(vars(owner)) for owner in owners] == before
    assert {"schemes.lmm_from_parameters", "schemes.reform"} <= {s.name for s in tracer.spans}


def test_module_exports_resolve():
    # a name left in __all__ after its definition is deleted fails here
    for module in (barrier, certify, chebpoly, models, pde, schemes, stability):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_module_constants_are_read():
    # a module-level constant whose last reader is deleted fails here; a name
    # exported in __all__ counts as read
    read, assigned = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            names = [target.id for target in targets if isinstance(target, ast.Name)]
            if "__all__" in names:
                read.update(ast.literal_eval(node.value))
            assigned += [(path.name, name) for name in names if name.lstrip("_").isupper()]
    unread = [f"{module}:{name}" for module, name in assigned if name not in read]
    assert not unread, f"constants never read: {unread}"


def _bdf2():
    return schemes.bdf_coefficients(2)


def _grid():
    return models.Grid((4, 4), (1.0, 1.0))


def _trace():
    trace = pde.EnergyTrace()
    trace.append(0, 0.0, 1.0, 1.0, 0.5, 0.75)
    return trace


# one instance of each result record and the fields its repr names, in order
RECORDS = {
    "FeasibilityResult": (lambda: barrier.evaluate_feasibility([0, 0]),
                          ("min_a", "min_b", "feasible")),
    "SearchResult": (lambda: barrier.search_feasible(2, budget=10, seed=1),
                     ("w", "min_a", "min_b", "feasible", "evaluations")),
    "FarkasSystem": (lambda: barrier.build_farkas_system(3), ("k", "den", "P", "R")),
    "FarkasReport": (barrier.verify_farkas_certificate, ("lam", "qt_lambda")),
    "ModelConstants": (lambda: certify.ModelConstants(1.0, 1.0, 0.5), ("ell_f", "zeta", "eta")),
    "EnergyCertificate": (lambda: certify.certify_scheme(_bdf2(), models.pfc(0.25).constants()).cert_a,
                          ("gamma", "p", "U", "G")),
    "DissipationReport": (lambda: certify.certify_scheme(_bdf2(), models.pfc(0.25).constants()),
                          ("alpha_max", "beta_max", "cert_a", "cert_b", "tau_max", "constants",
                           "refused", "refusal_reason")),
    "ChebSeries": (lambda: chebpoly.ChebSeries((1, 0.5)), ("s",)),
    "MinResult": (lambda: chebpoly.global_min(chebpoly.ChebSeries((1.0, 0.5, 0.25))),
                  ("min_value", "argmin", "critical_points")),
    "Grid": (_grid, ("shape", "lengths")),
    "ModelSpec": (lambda: models.allen_cahn(0.1),
                  ("name", "epsilon", "m_symbol", "l_symbol", "f", "potential", "ell_f", "zeta",
                   "eta", "mass_conserving", "truncation_radius")),
    "EnergyTrace": (_trace, ("steps", "times", "energy", "modified_energy", "mass", "max_abs")),
    "ManufacturedSolution": (lambda: pde.trig_mode_solution(_grid()), ("mode", "amplitude", "rate")),
    "ConvergenceRow": (lambda: pde.ConvergenceRow(25, 0.04, 1e-9, None, 2e-9, None),
                       ("n_steps", "tau", "error_inf", "rate_inf", "error_two", "rate_two")),
    "PatchSpec": (lambda: pde.default_patches((64.0, 64.0))[0], ("center", "side", "amplitude")),
    "PfcExperimentResult": (lambda: pde.pfc_experiment(models.Grid((16, 16), (16.0, 16.0)), 0.01, 0.06),
                            ("trace", "energy_offset", "max_abs")),
    "SchemeCoefficients": (_bdf2, ("k", "A", "B", "Bhat")),
    "ReformedCoefficients": (lambda: schemes.reform(_bdf2()), ("a", "b", "bhat", "chat")),
    "ParameterVector": (schemes.lmm6_parameters, ("w",)),
    "OrderReport": (lambda: schemes.verify_order_conditions(_bdf2()),
                    ("order", "consistency_residual", "implicit_residuals", "explicit_residuals")),
    "CharPolys": (lambda: stability.char_polys(_bdf2()), ("rho", "sigma", "sigma_hat")),
    "RootConditionResult": (lambda: stability.root_condition([1.0, -0.5]),
                            ("zero_stable", "roots", "violations")),
    "RegionSlice": (lambda: stability.region_slice(_bdf2(), "implicit", resolution=(3, 2)),
                    ("re_axis", "im_axis", "mask")),
}


@pytest.mark.parametrize("name", [name for name in RECORDS if name != "EnergyTrace"])
def test_record_fields_are_read_only(name):
    # EnergyTrace holds the growing columns of a run; every other record is
    # read-only, PfcExperimentResult since it became a NamedTuple
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_repr_names_its_fields(name):
    make, fields = RECORDS[name]
    record = make()
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"


def test_value_records_compare_and_hash_by_value():
    # criterion 4's scheme == table and the search's a.w == b.w rest on this
    table = schemes.lmm6_scheme()
    again = schemes.scheme_from_json(schemes.scheme_to_json(table))
    assert again is not table and again == table and hash(again) == hash(table)
    w = schemes.lmm6_parameters()
    assert schemes.ParameterVector([str(x) for x in w.w]) == w
    assert schemes.ParameterVector((1, 2)) != schemes.ParameterVector((1, 3))


def test_dataclass_fields_are_read():
    # a record field that nothing reads as an attribute fails here; by name,
    # over src/, tests/ and perfbench/.  A record class either declares
    # annotated fields in its body (the NamedTuples, Grid and EnergyTrace) or
    # subclasses one that does and holds its fields (the NamedTuples that
    # validate in __new__)
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute))
    records = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            fields = [field for base in node.bases
                      for field in records.get(getattr(base, "id", None), (None, []))[1]]
            fields += [item.target.id for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            if fields:
                records[node.name] = (path.name, fields)
    missed = [name for name, (_, fields) in RECORDS.items()
              if not set(fields) <= set(records.get(name, (None, []))[1])]
    assert not missed, f"record classes or fields the detector does not find: {missed}"
    unread = [f"{module}:{name}.{field}" for name, (module, fields) in records.items()
              for field in fields if field not in read]
    assert not unread, f"record fields never read: {unread}"


def test_import_builds_no_dataclass():
    # the records are NamedTuples and plain classes, so that importing the
    # package builds no dataclass: a fresh interpreter in which building one
    # raises imports the package, every submodule and the command line
    script = "\n".join([
        "import dataclasses, importlib, pkgutil",
        "def refuse(cls, *args, **kwargs):",
        "    raise AssertionError(f'dataclass {cls.__qualname__} built at import')",
        "dataclasses._process_class = refuse",
        "import imexlmm, imexlmm.cli",
        "for info in pkgutil.iter_modules(imexlmm.__path__):",
        "    if info.name != '__main__':  # importing it runs the command line",
        "        importlib.import_module(f'imexlmm.{info.name}')",
        "print(imexlmm.__file__)",
    ])
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).parent == SRC


def test_module_imports_are_read():
    # an import whose last reader is deleted fails here; __init__.py only
    # re-exports, so it is not checked
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{path.name}:{name}" for name in names if name not in read]
    assert not unread, f"imports never read: {unread}"


# functions kept though nothing in src/ calls them, each with its reason
NO_SRC_CALLER = {
    "barrier.py:Q": "the QuadExt view of the integer rows that the golden tables compare",
    "barrier.py:q": "the QuadExt view of the integer rows that the golden tables compare",
    "barrier.py:residuals": "q - Q w in exact arithmetic: the assembly oracle of the rows",
    "chebpoly.py:evaluate": "perfbench/workloads.py and the chebpoly tests evaluate series",
    "pde.py:modified_energy": "the public E_G of a flow's window, the oracle of simulate's tracker",
    "schemes.py:parameters_from_scheme": "the round-trip oracle of lmm_from_parameters",
    "stability.py:root_condition": "the reference root test of test_stability.py and criterion 7",
}


def _names_defined_by(cls: ast.ClassDef) -> set:
    # methods and annotated fields of the class body, and attributes stored on self
    names = {item.name for item in cls.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
    names |= {item.target.id for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    return names | {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"}


def test_module_functions_have_a_caller_in_src():
    # a function or method that only tests or perfbench call fails here unless
    # NO_SRC_CALLER names it; by name, over src/ less __init__.py, and reads
    # inside a function's own definition do not count.  A bare name reaches
    # module functions only.  An attribute read inside class C of a name that C
    # defines counts toward C alone, and only as self.name: x.q in
    # FarkasSystem.left_product reads a QuadExt, not the view FarkasSystem.q
    defined, reads = [], {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            own = _names_defined_by(node) if owner else set()
            members = node.body if owner else [node]
            defined += [(path.name, owner, item) for item in members
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    reads.setdefault(sub.id, []).append((path.name, None, sub.lineno))
                elif isinstance(sub, ast.Attribute) and sub.attr not in own:
                    reads.setdefault(sub.attr, []).append((path.name, "*", sub.lineno))
                elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "self":
                    reads.setdefault(sub.attr, []).append((path.name, owner, sub.lineno))
    assert defined
    uncalled = [f"{module}:{item.name}" for module, owner, item in defined
                if all(cls not in ("*", owner)
                       or where == module and item.lineno <= line <= item.end_lineno
                       for where, cls, line in reads.get(item.name, []))]
    assert sorted(uncalled) == sorted(NO_SRC_CALLER), (
        f"list in NO_SRC_CALLER with a reason, or delete: {uncalled}")


def test_module_functions_are_read():
    # a function or method whose last caller is deleted fails here; by name,
    # over src/, tests/ and perfbench/; dunder methods run implicitly
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [f"{path.name}:{item.name}" for item in members
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))]
    assert defined
    unread = [name for name in defined if name.split(":")[1] not in read]
    assert not unread, f"functions never read: {unread}"
