"""The benchmark's tracer hooks still name real functions.

`perfbench/tracer.py` wraps the package functions listed in `TRACED` by
their module globals and reports each missing one instead of failing, so
a rename would silently empty a per-layer metric.  This reads `TRACED`
from the tracer's source without importing or editing it.
"""

import ast
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
