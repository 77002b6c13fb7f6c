"""Every public name in the package is used by the program, not only by tests.

A public name is a module-level function, class or assigned name, or a
method of a public class, that does not start with an underscore.  It is
used when it appears as a word in src/, scripts/ or perfbench/ (the
benchmark's own tests aside) more often than it is defined.
"""

import ast
import re
from collections import Counter
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


def test_no_public_name_exists_only_for_tests():
    defined = Counter(name for path in sorted(PACKAGE.rglob("*.py"))
                      for name in public_definitions(ast.parse(path.read_text("utf-8"))))
    words = Counter(word for path in PROGRAM
                    for word in re.findall(r"\w+", path.read_text("utf-8")))
    unused = sorted(name for name, count in defined.items()
                    if words[name] <= count and name not in ALLOWED)
    assert unused == []
