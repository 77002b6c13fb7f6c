"""Every public name in the package is used by the program, not only by tests.

A public name is a module-level function, class or assigned name, or a
method of a public class, that does not start with an underscore.  It is
used when the code in src/, scripts/ or perfbench/ (the benchmark's own
tests aside) reads it: as a name that is not assigned to, an attribute,
an imported name, or a string constant that is exactly the name, as
perfbench's patches name what they wrap.  Docstrings and comments do not
count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "websift"
PROGRAM = [path for folder in ("src", "scripts", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py"))
           if path != ROOT / "perfbench" / "test_perfbench.py"]

# name -> why it stays although nothing but tests uses it
ALLOWED: dict[str, str] = {}


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _public(node.name):
                yield node.name
            if isinstance(node, ast.ClassDef) and _public(node.name):
                yield from (item.name for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _public(item.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets
                        if isinstance(target, ast.Name) and _public(target.id))


def uses(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_no_public_name_exists_only_for_tests():
    defined = {name for path in sorted(PACKAGE.rglob("*.py"))
               for name in public_definitions(ast.parse(path.read_text("utf-8")))}
    used = {name for path in PROGRAM for name in uses(ast.parse(path.read_text("utf-8")))}
    assert sorted(defined - used - ALLOWED.keys()) == []
