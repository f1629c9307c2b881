"""Every public function and method of the package has a use."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench")


def public_defs():
    """(module file, name) of each public module-level function and each
    public method of a module-level class."""
    for path in sorted((ROOT / "src" / "ergolab").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in members:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield path.name, item.name


def test_every_public_name_is_used():
    defs = list(public_defs())
    words = Counter(
        word
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    def_count = Counter(name for _, name in defs)
    unused = sorted(f"{module}: {name}" for module, name in defs if words[name] <= def_count[name])
    assert not unused, f"defined but never used: {unused}"
