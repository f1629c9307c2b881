"""No function of the package takes a mutable default argument, and no
class field has a mutable default.

A mutable default is one object shared by every call, and any caller can
pass its own in its place: a hidden knob. A cache belongs in
``functools.cache``, a fresh container in the function body. A field
default of a ``NamedTuple`` (an annotated assignment in a class body) is
likewise one object shared by every instance.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTABLE_CALLS = ("dict", "list", "set")
MUTABLE_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def is_mutable(node) -> bool:
    """A literal or comprehension of a dict, list or set, or a call of
    ``dict``, ``list`` or ``set``."""
    if isinstance(node, MUTABLE_NODES):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_CALLS
    )


def mutable_defaults(source: str, module: str) -> list[str]:
    """``module:line function(parameter)`` for each mutable default of any
    function, method or lambda in ``source``, and ``module:line
    Class.field`` for each annotated assignment of one in a class body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            found += [
                f"{module}:{stmt.lineno} {node.name}.{ast.unparse(stmt.target)}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and stmt.value and is_mutable(stmt.value)
            ]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [(arg, d) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        name = getattr(node, "name", "<lambda>")
        found += [
            f"{module}:{default.lineno} {name}({arg.arg})"
            for arg, default in pairs
            if is_mutable(default)
        ]
    return found


def test_finder_sees_each_form():
    source = (
        "def f(a, b={}, *, c=[], d=None):\n    pass\n"
        "def g(e=set(), f=dict(x=1), g=list(), h=(), i=frozenset()):\n    pass\n"
        "h = lambda j={k: 1 for k in ()}: j\n"
        "class R(NamedTuple):\n"
        "    a: dict = {}\n    b: list = list()\n    c: set = {1}\n"
        "    d: tuple = ()\n    e: int\n    f: dict | None = None\n"
    )
    assert mutable_defaults(source, "m.py") == [
        "m.py:1 f(b)",
        "m.py:1 f(c)",
        "m.py:3 g(e)",
        "m.py:3 g(f)",
        "m.py:3 g(g)",
        "m.py:7 R.a",
        "m.py:8 R.b",
        "m.py:9 R.c",
        "m.py:5 <lambda>(j)",
    ]


def test_no_mutable_default_arguments():
    found = [
        hit
        for path in sorted((ROOT / "src").rglob("*.py"))
        for hit in mutable_defaults(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not found, f"mutable defaults: {found}"
