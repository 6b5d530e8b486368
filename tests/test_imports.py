"""Every module-level import of the package and its tests is used, and
every module-level function and class of the package is used by the package.
Importing the package and computing a photon-number distribution leaves
``scipy.stats`` unloaded.

Standard library only: each file is parsed with ``ast``.  A name a
top-level import binds must be read somewhere in the same module.  A
top-level ``def`` or ``class`` of ``src/snspd_stats`` must be referenced
somewhere in the package, as a name, an attribute, an imported name or a
string in ``__all__``; code only the tests call does not belong there.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "snspd_stats").glob("*.py"))
FILES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in bound.items() if name not in used]


def test_no_unused_module_imports():
    assert FILES
    unused = [entry for path in FILES for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _references(tree: ast.Module):
    """Names a module reads, the attributes and imported names it uses and its ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))


def test_every_package_definition_is_used_by_the_package():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
              for path, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unused == [], "defined but not used in the package:\n" + "\n".join(unused)


def test_import_path_leaves_scipy_stats_unloaded():
    code = ("import sys\n"
            "import snspd_stats, snspd_stats.cli\n"
            "from snspd_stats import StateSpec, photon_number_dist\n"
            "photon_number_dist(StateSpec.fock(3), eta=0.5, nu=0.1)\n"
            "print('scipy.stats' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"
