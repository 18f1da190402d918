"""Every top-level function and class in the package has a non-test caller.

Code that only the tests call is a second path that has to change in
step with the real one, so it is either wired into a command or script or
deleted.  A name counts as used when it is loaded (as a bare name or as an
attribute) somewhere in `src/` or `scripts/` outside its own definition;
an import alone does not count.  The allowlist holds the few named
oracles that tests and the benchmark check the package against.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "git_topo"

TEST_ORACLES = {
    "negative_weight_dim": "criterion 9 checks each stratum's m against the weights",
    "euler_form": "criterion 9 checks quiver stratum values against the Euler form",
    "invariant_subspace_dim": "control checks and perfbench/reference.py",
    "dimension_inequality": "the codimension test behind the connectivity bound",
}


def _loaded_names(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_no_test_only_code_in_src():
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    uses: Counter = Counter()
    for tree in trees.values():
        uses += _loaded_names(tree)
    unused = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = _loaded_names(node)[node.name]
            if uses[node.name] - own == 0 and node.name not in TEST_ORACLES:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == [], "defined in src/ but used only by tests: " + ", ".join(unused)
