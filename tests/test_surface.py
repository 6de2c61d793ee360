"""The package surface carries no dead weight.

Seven static checks on the source tree, with the standard library's ast only:
no module imports a name it never uses; every name the package exports is
used somewhere other than its own definition: in the package, a demo or the
README (an export only tests call is surface nobody else needs); distinct
points have one rule, `distcore._unique_rows`, so no module but checks.py,
whose canonical_support check is an independent witness, calls np.unique
over rows; and only the LP layer, `_lp.py`, and `transport.py`, for its lazy
`linear_sum_assignment`, import scipy, and none imports scipy's private
linprog module; a code's joint law has one reader, `codec._code_law`, so no
other module calls `joint_from_encoder` and the decoder-K message is raised
from one line; a caller's output support has one reader, `distcore.as_support`,
called by the oracle in tradeoff.py alone; and HiGHS's numeric window has one
owner, `_lp.py`, so no other module reads `_OPTIONS` or names one of its value
limits.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dplab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """Names bound at module level by import statements, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def _used(nodes):
    """Identifiers read anywhere under the given nodes, as names or attributes."""
    used = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _used_outside(tree, name):
    """Identifiers read in a module outside the top-level definition of name."""
    return _used(node for node in tree.body
                 if getattr(node, "name", None) != name
                 and not isinstance(node, (ast.Import, ast.ImportFrom)))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _used(node for node in tree.body if not isinstance(node, (ast.Import, ast.ImportFrom)))
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_export_has_a_user():
    exports = _imported(_tree(PACKAGE / "__init__.py"))
    assert exports
    trees = [_tree(p) for p in MODULES if p.name != "__init__.py"]
    demos = _used(_tree(p) for p in sorted((ROOT / "demos").glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    idle = []
    for name in exports:
        if (name in demos or re.search(rf"\b{re.escape(name)}\b", readme)
                or any(name in _used_outside(t, name) for t in trees)):
            continue
        idle.append(name)
    assert not idle, f"exports with no user outside the tests: {sorted(idle)}"


def _unique_over_rows(tree):
    """Lines of np.unique calls given an axis, by keyword or as the fifth argument."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and (len(node.args) >= 5 or any(k.arg == "axis" for k in node.keywords))]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "checks.py"],
                         ids=lambda p: p.name)
def test_distinct_rows_have_one_rule(path):
    lines = _unique_over_rows(_tree(path))
    assert not lines, f"{path.name} calls np.unique over rows (lines {lines}); use _unique_rows"


def _scipy_imports(tree):
    """Every scipy module or name an import statement anywhere in the tree
    binds, as a dotted path."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "scipy"):
            names += [f"{node.module}.{a.name}" for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_lp_layer_imports_scipy(path):
    names = _scipy_imports(_tree(path))
    private = [n for n in names if n.startswith("scipy.optimize._linprog_highs")]
    assert not private, f"{path.name} imports scipy's private linprog module: {private}"
    if path.name not in ("_lp.py", "transport.py"):
        assert not names, f"{path.name} imports scipy ({names}); only _lp.py and transport.py may"


def _calls(tree, name):
    """Lines of calls to name, as a bare name or an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_a_codes_law_has_one_reader():
    callers = {p.name: _calls(_tree(p), "joint_from_encoder") for p in MODULES}
    assert {name: len(lines) for name, lines in callers.items() if lines} == {"codec.py": 1}
    importers = [p.name for p in MODULES if "joint_from_encoder" in _imported(_tree(p))]
    assert importers == ["__init__.py", "codec.py"]
    message = "decoder K does not match encoder K"
    uses = {p.name: p.read_text(encoding="utf-8").count(message) for p in MODULES}
    assert {name: n for name, n in uses.items() if n} == {"codec.py": 1}


def test_a_callers_support_has_one_reader():
    callers = {p.name: _calls(_tree(p), "as_support") for p in MODULES}
    assert {name: len(lines) for name, lines in callers.items() if lines} == {"tradeoff.py": 1}
    importers = [p.name for p in MODULES if "as_support" in _imported(_tree(p))]
    assert importers == ["tradeoff.py"]


def test_highs_options_have_one_owner():
    limits = r"\b(small_matrix_value|large_matrix_value|infinite_cost|infinite_bound)\b"
    for path in MODULES:
        if path.name == "_lp.py":
            continue
        reads = [node.lineno for node in ast.walk(_tree(path))
                 if isinstance(node, ast.Attribute) and node.attr == "_OPTIONS"]
        assert not reads, f"{path.name} reads _lp._OPTIONS (lines {reads})"
        named = re.findall(limits, path.read_text(encoding="utf-8"))
        assert not named, f"{path.name} names HiGHS limits {named}; only _lp.py may"
