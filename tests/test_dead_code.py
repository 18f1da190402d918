"""Every top-level function and class, and every method, in the package
has a non-test caller.

Code that only the tests call is a second path that has to change in
step with the real one, so it is either wired into a command or script or
deleted.  Uses are counted in `src/` and `scripts/`, outside the
definition itself; an import alone does not count.

- A top-level name is resolved per module, through each module's imports
  and re-exports: it counts as used where it is loaded as a bare name in
  its own module or in a module that imports it, or as an attribute of
  its module.  Three families each defining `enumerate_strata` need
  three uses.
- A method counts as used where `self.x` or `cls.x` is loaded inside its
  own class (or `x` in the class body), or where `obj.x` is loaded on
  any other object, whose class is not known statically.  Dunder methods
  are called by Python and are not checked.

The allowlist holds the few named oracles that tests and the benchmark
check the package against.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "git_topo"

TEST_ORACLES = {
    "families.control.invariant_subspace_dim": "control checks and perfbench/reference.py",
    "families.quiver.sub_dimension_vectors": "quiver stratum tables and perfbench/reference.py",
}


def _module_name(path: Path) -> str:
    if PACKAGE not in path.parents:
        return "scripts." + path.stem
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class _Module:
    def __init__(self, path: Path) -> None:
        self.path = path
        self.name = _module_name(path)
        self.tree = ast.parse(path.read_text(), str(path))
        self.defs = {
            node.name: node
            for node in self.tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        self.imports: list[ast.AST] = [
            node
            for node in ast.walk(self.tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]


class _Index:
    """The scanned modules, with each module's import bindings resolved."""

    def __init__(self, paths: list[Path]) -> None:
        self.modules = {mod.name: mod for mod in map(_Module, paths)}
        # local name -> ("module", name) or ("symbol", module, attribute)
        self.bindings: dict[str, dict[str, tuple]] = {}
        for mod in self.modules.values():
            table = self.bindings[mod.name] = {}
            for node in mod.imports:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            table[alias.asname] = ("module", alias.name)
                        else:
                            head = alias.name.split(".")[0]
                            table[head] = ("module", head)
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    full = f"{node.module}.{alias.name}"
                    if full in self.modules:
                        table[local] = ("module", full)
                    else:
                        table[local] = ("symbol", node.module, alias.name)

    def symbol(self, module: str, attr: str):
        """The (module, name) that defines attr as seen from module."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        if attr in mod.defs:
            return (module, attr)
        bound = self.bindings[module].get(attr)
        if bound is not None and bound[0] == "symbol":
            return self.symbol(bound[1], bound[2])
        return None

    def module_of(self, module: str, expr: ast.AST) -> str | None:
        """The scanned module an expression evaluates to, if any."""
        if isinstance(expr, ast.Name):
            bound = self.bindings[module].get(expr.id)
            if bound is not None and bound[0] == "module":
                return bound[1]
        elif isinstance(expr, ast.Attribute):
            base = self.module_of(module, expr.value)
            if base is not None and f"{base}.{expr.attr}" in self.modules:
                return f"{base}.{expr.attr}"
        return None

    def name_use(self, module: str, name: str):
        if name in self.bindings[module]:
            bound = self.bindings[module][name]
            return self.symbol(bound[1], bound[2]) if bound[0] == "symbol" else None
        return self.symbol(module, name)


def _collect_uses(index: _Index):
    """Used top-level symbols, per-class method uses and any-object uses."""
    symbols: set[tuple[str, str]] = set()
    own_class: set[tuple[str, str, str]] = set()
    any_object: set[str] = set()

    for mod in index.modules.values():

        def visit(node, top, cls, method, module=mod.name):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used = index.name_use(module, node.id)
                if used is not None and used != (module, top):
                    symbols.add(used)
                if cls is not None and method is None:
                    own_class.add((module, cls, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                target = index.module_of(module, node.value)
                if target is not None:
                    used = index.symbol(target, node.attr)
                    if used is not None and used != (module, top):
                        symbols.add(used)
                elif (
                    cls is not None
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                ):
                    if node.attr != method:
                        own_class.add((module, cls, node.attr))
                else:
                    any_object.add(node.attr)
            for child in ast.iter_child_nodes(node):
                if cls is not None and method is None and isinstance(child, ast.FunctionDef):
                    for part in child.decorator_list + [child.args]:
                        visit(part, top, cls, None)
                    for stmt in child.body:
                        visit(stmt, top, cls, child.name)
                else:
                    visit(child, top, cls, method)

        for node in mod.tree.body:
            if isinstance(node, ast.ClassDef):
                visit(node, node.name, node.name, None)
            elif isinstance(node, ast.FunctionDef):
                visit(node, node.name, None, None)
            else:
                visit(node, None, None, None)
    return symbols, own_class, any_object


def test_no_test_only_code_in_src():
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    index = _Index(sources)
    symbols, own_class, any_object = _collect_uses(index)
    unused = []
    for mod in index.modules.values():
        if PACKAGE not in mod.path.parents:
            continue
        short = mod.name[len("git_topo."):] if "." in mod.name else mod.name
        where = mod.path.relative_to(ROOT)
        for name, node in mod.defs.items():
            qualified = f"{short}.{name}"
            if (mod.name, name) not in symbols and qualified not in TEST_ORACLES:
                unused.append(f"{qualified} ({where}:{node.lineno})")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("__"):
                    continue
                if (mod.name, name, item.name) in own_class or item.name in any_object:
                    continue
                unused.append(f"{qualified}.{item.name} ({where}:{item.lineno})")
    assert unused == [], "defined in src/ but used only by tests: " + ", ".join(unused)
