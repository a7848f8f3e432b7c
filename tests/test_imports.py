"""Every name a package module imports is used in that module, and every
top-level definition is named somewhere in the package.

``__init__.py`` is exempt from both: its imports are the package's
re-exports, and a re-export alone does not keep a definition alive.
"""

import ast
import pathlib
import re

import weakbsde
from weakbsde.runner import CHECK_HANDLERS
from weakbsde.scenario import KNOWN_CHECKS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weakbsde"
# public definitions that no pipeline path calls, kept on purpose
ENTRY_POINTS = {
    # the single-candidate certificate; the batched dual scan is held to
    # it bit for bit
    "dual.dual_objective",
}


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # string annotations ("Scenario") count as uses too
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == \
        ["os (line 1)"]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8"))
              for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _definitions(tree):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _names(tree) -> list:
    """Every identifier the tree reads or writes, one entry per use."""
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def _orphans(sources: dict) -> list:
    """module.name of each top-level definition that no module names
    outside the definition itself."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    uses = [name for tree in trees.values() for name in _names(tree)]
    found = []
    for mod, tree in trees.items():
        for name, node in _definitions(tree):
            if not name.startswith("__") \
                    and uses.count(name) == _names(node).count(name):
                found.append(f"{mod}.{name}")
    return sorted(found)


def test_scan_flags_an_unnamed_definition():
    sources = {"a": "X = 1\ndef f(n):\n    return f(n - 1)\n",
               "b": "def g():\n    return X\n"}
    assert _orphans(sources) == ["a.f", "b.g"]


def test_package_defines_nothing_it_never_names():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert sources
    assert sorted(set(_orphans(sources)) - ENTRY_POINTS) == []


def test_known_checks_are_the_runner_handlers():
    assert KNOWN_CHECKS == tuple(CHECK_HANDLERS)


def test_readme_api_table_lists_the_exports():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Python API\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[2] for line in table.splitlines()
            if line.startswith("| `")]
    listed = [name for row in rows for name in re.findall(r"`([^`]+)`", row)]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(weakbsde.__all__) - {"__version__"}
