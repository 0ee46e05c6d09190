"""The package keeps only what the program reads.

Every top-level function, class and module constant of ``src/modinv`` must
be read, as a name or an attribute, by code of the package outside its own
definition and outside ``__init__.py``.  Code that is itself unread does not
count, so a helper reached only from an unread function is unread too.
References the tests make do not count: a reference that only tests read
lives in the test file that reads it.

The same holds one level down, for the members of every top-level class:
each annotated field, property and method other than a dunder must be read
as an attribute by package code outside its own definition.  A field only
ever passed to the constructor is unread: a keyword argument is no read.

An exception class is read only by an ``except`` clause that names it.  A
class that is only raised tells no handler anything its builtin base does
not, so every exception class of the package must be named in one.
"""

import ast
import builtins
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modinv"

# Library entry points that nothing in the package calls, each with its reason.
ALLOWED = {
    "modular_data_from_json": "validates modular data that comes from outside the "
                              "program; the inverse of modular_data_to_json",
}


# Class members, as "Class.member", that nothing in the package reads, each
# with its reason.
ALLOWED_MEMBERS = {}


def _bound_names(node):
    """Names a top-level statement defines: a def, a class or a plain assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _read_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unread_names(roots=(), src=SRC):
    """Top-level names of the package that no read code reaches, to a fixpoint.

    The ``roots`` count as read, and so does what their code reads.
    """
    defined = {}   # name -> the statements that bind it
    always = []    # top-level statements that bind nothing: imports, the __main__ guard
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = _bound_names(node)
            for name in names:
                defined.setdefault(name, []).append(node)
            if not names:
                always.append(node)
    reads = [(None, _read_names(node)) for node in always]
    for name, nodes in defined.items():
        reads += [(name, _read_names(node) - {name}) for node in nodes]
    unread = set()
    while True:
        read = set().union(*(r for owner, r in reads if owner not in unread))
        more = set(defined) - read - unread - set(roots)
        if not more:
            return unread
        unread |= more


def _members(cls):
    """(name, statement) of each annotated field, property and non-dunder method."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node


def _attribute_reads(node):
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _trees(src):
    return [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))
            if path.name != "__init__.py"]


def unread_members(allowed=(), src=SRC):
    """"Class.member" of every member of a top-level class of the package that
    no package code reads as an attribute outside the member's own definition.

    A read is matched by the member's name alone, whatever the object it is
    read from.  The ``allowed`` members are left out.
    """
    trees = _trees(src)
    reads = sum((_attribute_reads(tree) for tree in trees), Counter())
    return {f"{cls.name}.{name}" for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) for name, node in _members(cls)
            if reads[name] == _attribute_reads(node)[name]} - set(allowed)


def _is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def unhandled_exceptions(src=SRC):
    """Top-level exception classes of the package that no ``except`` clause
    of package code names, as a name or an attribute.

    A class is an exception class when one of its bases is a builtin
    exception or, to a fixpoint, an exception class of the package.
    """
    trees = _trees(src)
    bases = {cls.name: set().union(*map(_read_names, cls.bases)) for tree in trees
             for cls in tree.body if isinstance(cls, ast.ClassDef)}
    errors = set()
    while more := {name for name, read in bases.items() if name not in errors
                   and any(b in errors or _is_builtin_exception(b) for b in read)}:
        errors |= more
    caught = set().union(*(_read_names(node.type) for tree in trees for node in ast.walk(tree)
                           if isinstance(node, ast.ExceptHandler) and node.type))
    return errors - caught


def test_every_top_level_name_is_read_by_the_program():
    assert unread_names(ALLOWED) == set()


def test_the_allowed_names_are_defined_and_unread():
    # an entry that the program came to read, or that was deleted, leaves the list
    assert set(ALLOWED) <= unread_names()


def test_a_helper_of_unread_code_is_unread(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import sys\n"
        "LIMIT = 3\n"
        "def _helper(x):\n    return _helper(x - 1) if x else LIMIT\n"
        "def entry():\n    return _helper(2)\n"
        "def main():\n    return 0\n"
        "if __name__ == '__main__':\n    sys.exit(main())\n")
    assert unread_names(src=tmp_path) == {"LIMIT", "_helper", "entry"}
    assert unread_names({"entry"}, src=tmp_path) == set()


def test_every_class_member_is_read_by_the_program():
    assert unread_members(ALLOWED_MEMBERS) == set()


def test_the_allowed_members_are_defined_and_unread():
    assert set(ALLOWED_MEMBERS) <= unread_members()


def test_a_member_is_read_only_as_an_attribute_outside_its_definition(tmp_path):
    (tmp_path / "rec.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Rec:\n"
        "    x: int\n"
        "    y: int\n"
        "    def walk(self, n):\n        return self.walk(n - 1) if n else 0\n")
    (tmp_path / "use.py").write_text(
        "from .rec import Rec\n"
        "def make():\n    return Rec(x=1, y=2).x\n"
        "def reset(rec):\n    object.__setattr__(rec, 'y', 0)\n    rec.walk = None\n")
    # another module reads x; y is only passed to the constructor, and walk is
    # only assigned and read by itself
    assert unread_members(src=tmp_path) == {"Rec.y", "Rec.walk"}
    assert unread_members({"Rec.y", "Rec.walk"}, src=tmp_path) == set()


def test_every_exception_class_is_named_by_a_handler():
    assert unhandled_exceptions() == set()


def test_an_exception_class_is_read_only_by_an_except_clause(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Base(ValueError):\n    pass\n"
        "class Derived(Base):\n    pass\n"
        "class Missing(KeyError):\n    pass\n"
        "class Plain:\n    pass\n")
    (tmp_path / "use.py").write_text(
        "from . import errors\n"
        "def run(f):\n"
        "    try:\n        return f()\n"
        "    except (errors.Base, KeyError):\n        raise errors.Derived('raised only')\n"
        "    except Exception:\n        raise errors.Missing()\n")
    # Derived and Missing are raised but no handler names them; Plain is no exception
    assert unhandled_exceptions(src=tmp_path) == {"Derived", "Missing"}
