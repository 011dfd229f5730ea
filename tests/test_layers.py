"""The package's modules import each other in layers, with no cycle."""

import ast
import os

import tricomplex

SRC = os.path.dirname(tricomplex.__file__)
BASE = {"algebra", "errors", "geometry"}

#: Each module and the package modules it may import, function-level
#: imports included.  Every module imports only modules listed before it,
#: so the graph is acyclic.
LAYERS = {
    "errors": set(),
    "algebra": {"errors"},
    "geometry": {"algebra", "errors"},
    "functions": BASE,
    "series": BASE,
    "poly": BASE,
    "calculus": BASE,
    "derivatives": BASE,
    "cosexponential": BASE | {"functions"},
    "cli": BASE | {"functions", "series", "poly", "calculus", "derivatives", "cosexponential"},
    "__main__": {"cli"},
}


def package_imports(module: str) -> set[str]:
    """The package modules ``module`` imports anywhere in its source,
    relative or absolute."""
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("tricomplex", node.module))) if node.level else node.module
            names += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("tricomplex.")} & set(LAYERS)


def test_every_module_has_a_layer():
    modules = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py")}
    assert modules - {"__init__"} == set(LAYERS)


def test_imports_follow_the_layers():
    order = list(LAYERS)
    for module, allowed in LAYERS.items():
        assert allowed <= set(order[: order.index(module)]), module
        assert package_imports(module) <= allowed, module
    assert package_imports("algebra") == {"errors"}
    assert package_imports("geometry") == {"algebra", "errors"}


def test_no_module_imports_dataclasses():
    # the records are named tuples and slotted classes, so no command pays
    # for importing dataclasses (and inspect with it) at start-up
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
            imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
            assert "dataclasses" not in {module.split(".")[0] for module in imported}, name
