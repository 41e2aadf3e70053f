"""The public API is what the package's own programs use: every public name
is referenced in ``src/``, ``demos/`` or the acceptance suite, so no public
function, class or method exists only for the unit tests to call."""

import ast
from pathlib import Path

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
