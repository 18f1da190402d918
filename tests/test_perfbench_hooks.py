"""The benchmark's hooks into the package still name real code.

`perfbench/tracer.py` wraps the package functions listed in `TRACED` by
their module globals and reports each missing one instead of failing, so
a rename would silently empty a per-layer metric.  `perfbench/reference.py`
imports package names inside its functions, so a rename would only
surface midway through a benchmark run.  Both are read from the
benchmark's source without importing or editing it.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_pairs() -> list[tuple[str, str]]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def _top_level(module: str, kind: type) -> set[str]:
    path = ROOT / "src" / Path(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, kind)}


def test_every_traced_name_is_a_function_its_module_defines():
    pairs = _traced_pairs()
    assert pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if attr not in _top_level(module, ast.FunctionDef)
    ]
    assert missing == [], "traced but not defined: " + ", ".join(missing)
    assert "CounterRng" in _top_level("git_topo.rng", ast.ClassDef)


def test_every_package_name_the_benchmark_imports_resolves():
    imported = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "git_topo"
            ):
                imported += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name.startswith("git_topo")
                ]
    assert imported
    missing = [
        f"{source}: {module}" + (f".{name}" if name else "")
        for source, module, name in imported
        if not _resolves(module, name)
    ]
    assert missing == [], "imported but not defined: " + ", ".join(missing)


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(mod, name)


def test_quiver_tables_keep_the_shape_the_tracer_reads():
    """The tracer's `_strata_result` hook reads `args[0].dim_vector` and
    `len(result)` of quiver `enumerate_strata`."""
    from git_topo.families import quiver
    from git_topo.groups import OrbitConvention

    spec = quiver.kronecker_spec()
    params = list(inspect.signature(quiver.enumerate_strata).parameters.values())
    assert [p.name for p in params] == ["spec", "convention"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    table = quiver.enumerate_strata(spec, OrbitConvention.PARABOLIC)
    assert type(table) is list and len(table) == 1
    assert spec.dim_vector == (1, 1)
