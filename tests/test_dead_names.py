"""Every module-level name of the package has a use."""

import ast
import importlib
import re
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench")
ROLES = ("claim", "oracle", "fixture")

# Each public name that nothing in src/ or perfbench/ names, with its role:
# a claim of the paper and the test that checks it, an oracle and what it
# is the reference for, or a fixture constructor.
TEST_ONLY = {
    "averages.py: direct_average": (
        "oracle",
        "brute-force A_N by evaluate per term, for the term generator's rows (orbit_series, "
        "product_term_generator) and the torus ergodic_average_stream",
    ),
    "correlations.py: min_gap_decay_check": (
        "claim", "pair correlations decay exponentially in the gap: criterion 2"
    ),
    "dyadic.py: dyadic_classes": (
        "oracle", "every block of L_s, for decompose (test_partition_property_exhaustive)"
    ),
    "dyadic.py: chain_inequality_check": ("claim", "the dyadic chaining inequality: criterion 5"),
    "dyadic.py: power_gap_check": (
        "claim", "(n - m)^(1+eps) <= n^(1+eps) - m^(1+eps): criterion 5"
    ),
    "dyadic.py: ks_ratio_bound": ("claim", "the scale comparison of 2^s and N: TestKsRatio"),
    "matrix_growth.py: jordan_block_growth": (
        "claim", "unit-modulus Jordan blocks grow at least linearly: criterion 9"
    ),
    "systems.py: bernoulli_system": ("fixture", "an i.i.d. shift from its letter weights"),
    "systems.py: torus_point_from_fractions": ("fixture", "a torus point from exact rationals"),
    "systems.py: cylinder_indicator": ("fixture", "the indicator of a word"),
    "systems.py: centered_cylinder_indicator": ("fixture", "a word's indicator less its mean"),
    "systems.py: trig_cosine": ("fixture", "one cosine character"),
}


def defined_names(node):
    """(name, defining node) for what a module-level statement defines: a
    function, a class and its methods, or the targets of a plain
    ``NAME = ...`` assignment."""
    if isinstance(node, ast.FunctionDef):
        yield node.name, node
    elif isinstance(node, ast.ClassDef):
        yield node.name, node
        yield from ((item.name, item) for item in node.body if isinstance(item, ast.FunctionDef))
    elif isinstance(node, ast.Assign):
        yield from ((target.id, node) for target in node.targets if isinstance(target, ast.Name))


def module_defs(private: bool):
    """(module file, name, source of its definition) of each public (or,
    with ``private``, each underscore-prefixed) module-level function,
    class and assigned name, and each such method of a module-level class.
    Dunder names such as ``__post_init__`` are called by Python itself and
    left out."""
    for path in sorted((ROOT / "src" / "ergolab").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            for name, where in defined_names(node):
                if name.startswith("_") == private and not name.startswith("__"):
                    yield path.name, name, "\n".join(lines[where.lineno - 1 : where.end_lineno])


def unused(private: bool, searched=SEARCHED) -> list[str]:
    """The names ``module_defs`` gives that no word in the ``searched``
    directories names outside the name's own definitions, as
    ``module: name``.  A recursive call is inside its own definition, so it
    is no use."""
    defs = list(module_defs(private))
    words = Counter(
        word
        for top in searched
        for path in sorted((ROOT / top).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    own = Counter()
    for _, name, source in defs:
        own[name] += re.findall(r"\w+", source).count(name)
    return sorted(f"{module}: {name}" for module, name, _ in defs if words[name] <= own[name])


def test_every_public_name_is_used():
    names = unused(private=False)
    assert not names, f"defined but never used: {names}"


def test_every_private_name_is_used():
    # A helper a refactor leaves without callers fails here too.
    names = unused(private=True)
    assert not names, f"defined but never used: {names}"


def test_names_only_tests_use_have_a_role():
    # A name no command reaches stays only as a claim, an oracle or a
    # fixture; a listed name that is gone or that src/ now uses fails too.
    only_tests = set(unused(private=False, searched=("src", "perfbench")))
    unlisted = sorted(only_tests - TEST_ONLY.keys())
    assert not unlisted, f"used by tests only, with no role: {unlisted}"
    stale = sorted(TEST_ONLY.keys() - only_tests)
    assert not stale, f"listed, but gone or used outside tests: {stale}"
    assert all(role in ROLES for role, _ in TEST_ONLY.values())


# perfbench/tracing.py names lab functions by string. A renamed function
# would leave its per-layer metric at 0 with no error, so each name must
# resolve to a function of its module, apart from the spans tracing makes
# itself and the names known to be stale, each with why.
TRACING = ROOT / "perfbench" / "tracing.py"
TRACING_TABLES = ("CHECKERS", "CUMULANT_SPANS", "WRITE_SPANS", "COUNT_ONLY", "special", "hooks")
TRACING_READS = ("count", "total", "attr", "where", "ids", "wrap")
TRACING_SPANS = ("cli.task", "averages.term_matrix")
STALE_IN_TRACING = {
    "systems.sample_windows": "no workload samples windows: the shift paths use read plans",
    "averages.ensemble_member_statistics": "ensemble points run as averages.orbit_series",
    "matrix_growth.norm_power": "matrix powers come from the eigenbasis (growth_profile)",
}


def tracing_names() -> set[str]:
    """Lab function names ``tracing.py`` refers to: the entries of its name
    tables, the first argument of its span reads and wraps, and the names
    it compares a span name with."""
    names = set()
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        found = []
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in TRACING_TABLES for t in node.targets
        ):
            found = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) in TRACING_READS:
                found = node.args[:1]
        elif isinstance(node, ast.Compare):
            found = node.comparators
        names |= {n.value for n in found if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return {name for name in names if "." in name and not name.endswith(".")}


def test_tracing_names_resolve():
    names = tracing_names()
    assert "cli.pmap" in names and "averages.product_term_generator" in names
    missing = []
    for name in sorted(names - set(TRACING_SPANS)):
        module, attr = name.split(".")
        value = getattr(importlib.import_module(f"ergolab.{module}"), attr, None)
        if not isinstance(value, types.FunctionType):
            missing.append(name)
    assert sorted(STALE_IN_TRACING) == sorted(set(missing) & STALE_IN_TRACING.keys()), (
        "a listed stale name resolves again, or tracing no longer names it"
    )
    unlisted = sorted(set(missing) - STALE_IN_TRACING.keys())
    assert not unlisted, f"tracing names functions the lab does not have: {unlisted}"
