"""The benchmark's span tracer against the current program."""

import ast
import importlib.util
import sys
from pathlib import Path

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


def test_dataclass_fields_are_read():
    # a result field that nothing reads as an attribute fails here; by name,
    # over src/, tests/ and perfbench/
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute))
    fields = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            decorators = [d.func if isinstance(d, ast.Call) else d
                          for d in getattr(node, "decorator_list", [])]
            if isinstance(node, ast.ClassDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators
            ):
                fields += [f"{path.name}:{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    assert fields
    unread = [field for field in fields if field.rsplit(".", 1)[1] not in read]
    assert not unread, f"dataclass fields never read: {unread}"


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
    "barrier.py:residuals": "q - Q w in exact arithmetic: the assembly oracle of the rows",
    "chebpoly.py:evaluate": "perfbench/workloads.py and the chebpoly tests evaluate series",
    "schemes.py:parameters_from_scheme": "the round-trip oracle of lmm_from_parameters",
    "stability.py:root_condition": "the reference root test of test_stability.py and criterion 7",
}


def test_module_functions_have_a_caller_in_src():
    # a function or method that only tests or perfbench call fails here unless
    # NO_SRC_CALLER names it; by name, over src/ less __init__.py, and reads
    # inside a function's own definition do not count
    defined, reads = [], {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [(path.name, item) for item in members
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path.name, node.lineno))
    assert defined
    uncalled = [f"{module}:{item.name}" for module, item in defined
                if all(where == module and item.lineno <= line <= item.end_lineno
                       for where, line in reads.get(item.name, []))]
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
