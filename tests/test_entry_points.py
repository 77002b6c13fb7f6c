"""Every public name and defaulted parameter is used by the program, not only by tests.

A public name is a module-level function, class or assigned name, or a
method of a public class, that does not start with an underscore.  It is
used when the code in src/, scripts/ or perfbench/ (the benchmark's own
tests aside) reads it: as a name that is not assigned to, an attribute,
an imported name, or a string constant that is exactly the name, as
perfbench's patches name what they wrap.  Docstrings and comments do not
count.

A defaulted parameter of a public function, method or constructor
(`__init__` of a public class) is set when some call in that code names
the callable (a function or method by its name, a constructor by its
class, or `cls` inside one of the class's classmethods) and passes the
parameter by keyword, by position, through `*args` or through
`**kwargs`.  One that no call sets serves only its default, so it
belongs in a module constant.  Calls are matched by name alone, so a
call to another callable of the same name also counts.  Dataclass
fields are not parameters here.
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

# "callable(parameter)" -> why it stays although no program call sets it
ALLOWED_DEFAULTS: dict[str, str] = {
    "Pipeline(host)": "deployment setting: the interface capture listens on",
    "SynthWebServer(host)": "deployment setting: the interface the synthetic site listens on",
}


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


def _decorated(node, decorator: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == decorator for d in node.decorator_list)


def _defaulted(label: str, args: ast.arguments, skip_first: bool):
    """(label(parameter), position or None) for each parameter with a default."""
    positional = [*args.posonlyargs, *args.args][1 if skip_first else 0:]
    for index in range(len(positional) - len(args.defaults), len(positional)):
        yield f"{label}({positional[index].arg})", positional[index].arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{label}({arg.arg})", arg.arg, None


def defaulted_parameters(tree: ast.Module):
    """(callable name, label, parameter, position) for each defaulted parameter.

    A method's callable name is its own, a constructor's its class's.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            for label, param, pos in _defaulted(node.name, node.args, False):
                yield node.name, label, param, pos
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    name, label = node.name, node.name
                elif _public(item.name):
                    name, label = item.name, f"{node.name}.{item.name}"
                else:
                    continue
                bound = not _decorated(item, "staticmethod")  # self or cls comes first
                for label, param, pos in _defaulted(label, item.args, bound):
                    yield name, label, param, pos


def calls(tree: ast.Module):
    """(callable name, ast.Call) for each call; `cls(...)` in a classmethod names its class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _decorated(item, "classmethod"):
                    cls = item.args.args[0].arg
                    yield from ((node.name, call) for call in ast.walk(item)
                                if isinstance(call, ast.Call)
                                and isinstance(call.func, ast.Name) and call.func.id == cls)


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True  # by keyword, or through **kwargs
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return position is not None  # through *args
    return position is not None and position < len(call.args)


def unset_defaults() -> list[str]:
    params = [entry for path in sorted(PACKAGE.rglob("*.py"))
              for entry in defaulted_parameters(ast.parse(path.read_text("utf-8")))]
    program_calls: dict[str, list[ast.Call]] = {}
    for path in PROGRAM:
        for name, call in calls(ast.parse(path.read_text("utf-8"))):
            program_calls.setdefault(name, []).append(call)
    return sorted(label for name, label, param, pos in params
                  if not any(_sets(call, param, pos) for call in program_calls.get(name, ())))


def test_every_defaulted_parameter_is_set_by_the_program():
    unset = unset_defaults()
    flagged = [label for label in unset if label not in ALLOWED_DEFAULTS]
    assert not flagged, f"no program call sets {', '.join(flagged)}"
    stale = sorted(ALLOWED_DEFAULTS.keys() - set(unset))
    assert not stale, f"a program call now sets {', '.join(stale)}: drop it from ALLOWED_DEFAULTS"


def test_census_reads_keywords_positions_and_unpacking():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0): pass\n"
        "    @classmethod\n"
        "    def make(cls, v): return cls(v)\n"
        "    def m(self, z=0): pass\n")
    params = {label: (name, param, pos)
              for name, label, param, pos in defaulted_parameters(tree)}
    assert sorted(params) == ["K(x)", "K(y)", "K.m(z)", "f(b)", "f(c)", "f(d)", "f(e)"]
    program = ast.parse("f(0, 1, e=5)\nf(*xs)\nk.m(**kw)\n")
    found = list(calls(tree)) + list(calls(program))
    set_by = {label for label, (name, param, pos) in params.items()
              if any(_sets(call, param, pos) for callee, call in found if callee == name)}
    # f(b) by position, f(c) through *args, f(e) by keyword, K(x) through cls(v)
    # in a classmethod, K.m(z) through **kwargs; f(d) and K(y) are set by nothing
    assert sorted(set_by) == ["K(x)", "K.m(z)", "f(b)", "f(c)", "f(e)"]


def imported_modules(tree: ast.Module):
    """Every module an import statement names, `from a import b` as both a and a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_an_http_server_or_client():
    # the one HTTP server and client are wire's, on plain sockets
    found = sorted(f"{path.relative_to(ROOT)}: {name}"
                   for path in sorted(PACKAGE.rglob("*.py"))
                   for name in imported_modules(ast.parse(path.read_text("utf-8")))
                   if name in ("http.server", "http.client"))
    assert found == []


def test_import_census_reads_every_import_form():
    tree = ast.parse("import http.server\nfrom http import client\nfrom . import wire\n")
    assert list(imported_modules(tree)) == ["http.server", "http", "http.client"]


def create_connection_calls(tree: ast.Module):
    """The name of the class around each `socket.create_connection(...)` call, None outside one."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "create_connection"
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "socket"):
                yield cls
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else cls)
    yield from walk(tree, None)


def test_one_class_opens_every_client_connection():
    # every client socket, to the gateway, the proxy or an origin, is a wire._Connection
    found = sorted(f"{path.relative_to(ROOT)}: {cls}"
                   for path in sorted(PACKAGE.rglob("*.py"))
                   for cls in create_connection_calls(ast.parse(path.read_text("utf-8"))))
    assert found == ["src/websift/wire.py: _Connection"]


def test_connection_census_reads_calls_by_their_class():
    tree = ast.parse("import socket\nsocket.create_connection(a)\n"
                     "class C:\n    def f(self):\n        return socket.create_connection(b)\n"
                     "create_connection(c)\n")
    assert list(create_connection_calls(tree)) == [None, "C"]


def string_constants(tree: ast.Module, value: str):
    """The line of each string constant that equals `value`, in any case."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and node.value.lower() == value.lower()]


def test_only_wire_reads_transfer_codings():
    # wire de-chunks every body and refuses any other transfer coding, so a stored
    # body carries none and no other module has a Transfer-Encoding to read
    found = sorted(f"{path.relative_to(ROOT)}:{line}"
                   for path in sorted(PACKAGE.rglob("*.py")) if path != PACKAGE / "wire.py"
                   for line in string_constants(ast.parse(path.read_text("utf-8")),
                                                "Transfer-Encoding"))
    assert found == []


def test_string_census_reads_constants_in_any_case():
    tree = ast.parse('"""Transfer-Encoding"""\nh("transfer-encoding")\nf"Transfer-Encoding: {v}"\n')
    assert string_constants(tree, "Transfer-Encoding") == [1, 2]
