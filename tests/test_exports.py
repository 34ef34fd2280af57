"""Every exported name has a caller outside the tests, and every name a module
imports from a sibling is exported by it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "capvertex"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _is_all(node):
    return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets)


def _all(path):
    """The module's ``__all__``, or None where it declares none."""
    return next((ast.literal_eval(n.value) for n in ast.parse(path.read_text()).body
                 if _is_all(n)), None)


def _references(path):
    """The identifiers a file uses: names, attributes, imported names and the
    parts of dotted-name strings (``bench/spans.py`` hooks names by string).
    Neither ``__all__`` lists nor ``def`` and ``class`` statements are uses."""
    tree = ast.parse(path.read_text())
    skip = {id(n) for a in ast.walk(tree) if _is_all(a) for n in ast.walk(a)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            out.update(node.value.split("."))
    return out


def _callers():
    """Every identifier used by the package (its re-exports aside), the
    benchmark and the CI scripts."""
    used = set().union(*map(_references, [*MODULES, *(ROOT / "bench").glob("*.py")]))
    for script in (ROOT / ".github" / "scripts").glob("*"):
        used.update(re.findall(r"\w+", script.read_text()))
    return used


def _reexports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names]


def test_every_exported_name_has_a_caller_outside_the_tests():
    used = _callers()
    exported = [(p.stem, name) for p in MODULES for name in _all(p) or []]
    assert [e for e in exported if e[1] not in used] == []
    assert [name for name in _reexports() if name not in used] == []


@pytest.mark.parametrize("path", [PACKAGE / "__init__.py", *MODULES], ids=lambda p: p.stem)
def test_every_name_imported_from_a_sibling_is_in_its_all(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            # a module without __all__ (errors) exports every public name
            exported = _all(PACKAGE / f"{node.module}.py")
            missing += [(node.module, a.name) for a in node.names
                        if exported is not None and not a.name.startswith("_")
                        and a.name not in exported]
    assert missing == []
