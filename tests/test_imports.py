"""Every name a package module imports is used in that module, every
top-level definition is named somewhere in the package, and every
defaulted keyword of a public function is passed by some package call.

``__init__.py`` is exempt from the first two: its imports are the
package's re-exports, and a re-export alone does not keep a definition
alive.
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
    # the one-candidate certificate; the tests hold it to the path-tree
    # reference
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


# module.function(keyword) of each defaulted keyword of a public function
# or method that no package call passes, kept on purpose
UNPASSED_KEYWORDS = {
    # configs reach the builders through make_driver / make_loss's **params
    "drivers.make_logcosh_z(sign)": "set through a driver config's params",
    "drivers.make_call_spread_loss(lo)": "set through a loss config's params",
    "drivers.make_call_spread_loss(hi)": "set through a loss config's params",
    "drivers.make_power_loss(p)": "set through a loss config's params",
    "cli.main(argv)": "the console entry reads sys.argv; tests pass argv",
    "primal.brute_force_weak_formulation(q)":
        "the oracle's grid size; tests run it coarser",
    "primal.brute_force_weak_formulation(rounds)":
        "the oracle's refinements; tests pin each round's counts",
}


def _defaulted(fn, method: bool) -> list:
    """(keyword, position or None) of each parameter of fn with a default;
    a method's position leaves out self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
    found += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return found


def _public_functions(tree):
    """(qualified name, node, is a method) of each public top-level function
    and each public method of a public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, True


def _unpassed_keywords(sources: dict) -> list:
    """module.function(keyword) of each defaulted keyword of a public
    function that no call in the sources passes, by name or by position.

    Calls are matched on the called name alone, so any function of that
    name counts; a call with a *starred argument passes no keyword by
    position and a **mapping none by name."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    named, positions = {}, {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            named.setdefault(name, set()).update(
                kw.arg for kw in call.keywords if kw.arg)
            if not any(isinstance(a, ast.Starred) for a in call.args):
                positions[name] = max(positions.get(name, 0), len(call.args))
    found = []
    for mod, tree in trees.items():
        for qual, fn, method in _public_functions(tree):
            short = qual.rsplit(".", 1)[-1]
            for kw, at in _defaulted(fn, method):
                if kw in named.get(short, ()) or \
                        (at is not None and at < positions.get(short, 0)):
                    continue
                found.append(f"{mod}.{qual}({kw})")
    return sorted(found)


def test_scan_flags_a_keyword_no_call_passes():
    sources = {"a": "def f(x, y=1, *, z=2, w=3):\n    return x\n"
                    "class C:\n    def m(self, u=0, v=0):\n        return u\n"
                    "def _g(q=0):\n    return q\n",
               "b": "f(1, 2, w=4)\nC().m(5)\n_g()\nf(*xs)\n"}
    assert _unpassed_keywords(sources) == ["a.C.m(v)", "a.f(z)"]


def test_every_public_keyword_is_passed_by_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    found = _unpassed_keywords(sources)
    # a keyword no package call sets is a constant; an allowlisted one that
    # the scan no longer reports is a stale entry
    assert sorted(set(found) - set(UNPASSED_KEYWORDS)) == []
    assert sorted(set(UNPASSED_KEYWORDS) - set(found)) == []


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


# backticked capitals in README.md that name no constant: the status words
# and the output-directory environment variable
README_CAPITALS = {"PASS", "FAIL", "SKIPPED", "WEAKBSDE_OUT"}


def test_readme_constants_are_package_names():
    """Every backticked ALL_CAPS name of two or more characters in
    README.md (a single capital, such as `N`, is a symbol) is a
    module-level name of a package module, so a deleted constant cannot
    stay in the docs."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", text))
    defined = {name for p in PACKAGE.glob("*.py")
               for name, _ in _definitions(ast.parse(p.read_text(
                   encoding="utf-8")))}
    assert named
    assert sorted(named - README_CAPITALS - defined) == []
