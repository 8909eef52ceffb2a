"""No module of g2mu imports, or reads as an attribute, a private name
(one underscore, not a dunder) of a sibling module, and none imports a
name that it never reads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "g2mu"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _sibling(node):
    """The sibling module that `from <module> import ...` names, '' for the
    package itself (`from . import x`, `from g2mu import x`), or None."""
    module = node.module or ""
    if node.level == 0:
        if module != "g2mu" and not module.startswith("g2mu."):
            return None
        module = module[len("g2mu."):]
    return module


def private_reaches(source):
    """['module._name', ...]: the private names of sibling modules that the
    source imports or reads as attributes of an imported sibling module."""
    tree = ast.parse(source)
    modules, out = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _sibling(node)) is not None:
            for alias in node.names:
                if not module:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    out.append(f"{module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("g2mu.") and alias.asname:
                    modules[alias.asname] = alias.name[len("g2mu."):]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            out.append(f"{modules[node.value.id]}.{node.attr}")
    return out


def test_the_checker_finds_imports_and_attribute_reads():
    source = ("from .g2 import _canonical_sign, typed_contraction_kernel\n"
              "from . import linalg as la, oracle\n"
              "from g2mu.epstein import _private_table\n"
              "import g2mu.fourier as fr\n"
              "x = la._echelon(oracle.KINDS, fr._apply, linalg._int_rows, y._z, la.__doc__)\n")
    assert sorted(private_reaches(source)) == sorted([
        "g2._canonical_sign", "epstein._private_table", "linalg._echelon", "fourier._apply"])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_a_sibling_private_name(path):
    assert private_reaches(path.read_text()) == []


def unread_imports(source):
    """[name, ...]: the names that the source's imports bind and that it
    never reads (no load of the name anywhere in the module)."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_checker_finds_unread_imports():
    source = ("import math, os.path\n"
              "from itertools import chain, combinations as comb\n"
              "from . import linalg as la\n"
              "def f(x):\n"
              "    import mpmath\n"
              "    return mpmath.cos(math.pi) + la.det(chain(x))\n")
    assert unread_imports(source) == ["os", "comb"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_that_it_never_reads(path):
    assert unread_imports(path.read_text()) == []
