"""Every module-level name of the package has a use."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench")


def defined_names(node):
    """Names a module-level statement defines: a function, a class and its
    methods, or the targets of a plain ``NAME = ...`` assignment."""
    if isinstance(node, ast.FunctionDef):
        yield node.name
    elif isinstance(node, ast.ClassDef):
        yield node.name
        yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef))
    elif isinstance(node, ast.Assign):
        yield from (target.id for target in node.targets if isinstance(target, ast.Name))


def module_defs(private: bool):
    """(module file, name) of each public (or, with ``private``, each
    underscore-prefixed) module-level function, class and assigned name,
    and each such method of a module-level class.  Dunder names such as
    ``__post_init__`` are called by Python itself and left out."""
    for path in sorted((ROOT / "src" / "ergolab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in defined_names(node):
                if name.startswith("_") == private and not name.startswith("__"):
                    yield path.name, name


def unused(private: bool) -> list[str]:
    """The names ``module_defs`` gives that no word outside their own
    definitions in ``SEARCHED`` names."""
    defs = list(module_defs(private))
    words = Counter(
        word
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    def_count = Counter(name for _, name in defs)
    return sorted(f"{module}: {name}" for module, name in defs if words[name] <= def_count[name])


def test_every_public_name_is_used():
    names = unused(private=False)
    assert not names, f"defined but never used: {names}"


def test_every_private_name_is_used():
    # A helper a refactor leaves without callers fails here too.
    names = unused(private=True)
    assert not names, f"defined but never used: {names}"
