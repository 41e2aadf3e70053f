"""The public API is what the package's own programs use: every public name
is referenced in ``src/``, ``demos/`` or the acceptance suite, so no public
function, class or method exists only for the unit tests to call."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twotier
from twotier import experiments, games, inverse, power, simulation

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "twotier").glob("*.py"))
USERS = [*MODULES, *sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _all_list(tree):
    """The names in a module's ``__all__``, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def public_api(trees):
    """(label, name, is_method) for each name in a module's ``__all__`` and
    each public method or property of such a class.  Dataclass fields are
    annotated assignments, not functions, so they are not listed."""
    api = []
    for tree in trees:
        names = _all_list(tree)
        api += [(name, name, False) for name in names]
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        api.append((f"{node.name}.{item.name}", item.name, True))
    return api


def references(trees):
    """Names read in the code (``name``) and attributes read (``x.name``),
    as two sets.  Imports, ``__all__`` strings, definitions and assignment
    targets are no reads."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def unreferenced(modules, users):
    """Labels of the public names of ``modules`` that no code in ``users``
    reads: a function or class by name or as a module attribute, a method
    or property as an attribute."""
    names, attributes = references(users)
    api = dict.fromkeys(public_api(modules))  # a package re-export is listed once
    return [label for label, name, method in api if not (name in attributes or (not method and name in names))]


def _parse(paths):
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in paths]


def test_every_public_name_is_used_outside_the_unit_tests():
    assert unreferenced(_parse(MODULES), _parse(USERS)) == []


def test_package_exports_each_module_list_once():
    modules = (games, power, inverse, simulation, experiments)  # in the package's import order
    assert twotier.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(twotier.__all__)) == len(twotier.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(twotier, name) is getattr(module, name), f"{module.__name__}.{name}"


def loaded(code):
    """The modules loaded when a fresh interpreter has run ``code``, whose
    asserts must hold, as the last line of its output lists them at exit."""
    probe = f"import atexit, sys\natexit.register(lambda: print(*sys.modules))\n{code}"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "code",
    [
        # as ``python -m twotier.cli power "1/2; 3,2,1"`` runs it
        "import runpy; sys.argv = ['twotier', 'power', '1/2; 3,2,1']; runpy.run_module('twotier.cli', run_name='__main__')",
        "import twotier; twotier.shapley_shubik(twotier.WeightedVotingGame.from_text('1/2; 3,2,1'))",
    ],
    ids=["cli-power", "package-index"],
)
def test_exact_core_loads_no_simulation_and_no_scipy(code):
    modules = loaded(code)
    assert {"twotier.games", "twotier.power"} <= modules
    assert {"twotier.simulation", "twotier.experiments", "scipy"}.isdisjoint(modules)


def test_star_import_binds_exactly_all():
    loaded("import twotier; ns = {}; exec('from twotier import *', ns); assert set(ns) - {'__builtins__'} == set(twotier.__all__)")


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twotier.no_such_name
    # a dunder probe imports no module
    assert "twotier.games" not in loaded("import twotier; assert not hasattr(twotier, '__wrapped__')")


def test_imports_and_all_lists_are_no_references():
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "__all__ = ['used', 'imported', 'Spec']\n"
        "def used(): pass\n"
        "def imported(): pass\n"
        "@dataclass\n"
        "class Spec:\n"
        "    size: int\n"
        "    def read(self): pass\n"
        "    def unread(self): pass\n"
        "    @property\n"
        "    def shown(self): pass\n"
        "    def _private(self): pass\n"
    )
    user = ast.parse(
        "from module import used, imported, Spec\n"
        "__all__ = ['imported', 'unread']\n"
        "used = used\n"
        "spec = Spec(3)\n"
        "spec.read()\n"
        "print(spec.shown, spec.size)\n"
        "unread = 1\n"
    )
    assert unreferenced([module], [user]) == ["imported", "Spec.unread"]
