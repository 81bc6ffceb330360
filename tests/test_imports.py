"""Every name a ``gridloss`` module imports is used in that module, every
public name is read by some module of the package, and so is every name a
module assigns at its top level.  The controller parameters m, k and tau
enter the public API only as fields of ``ControllerParams``, and every
numeric argument and every record argument of the public API has a row in
``tests/test_inputs.py``.

The package's ``__init__`` re-exports names and is left out. An import
kept for its side effect carries ``# noqa: F401`` on its line, as flake8
reads it; ``from __future__`` imports are directives, not names.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import gridloss
from test_inputs import RECORDS, TABLE

PACKAGE = Path(gridloss.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
_NOQA_F401 = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[\w\s,]*\bF401\b")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(_NOQA_F401.search(line) for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        # ``import a.b`` binds ``a``; ``import a.b as c`` and ``from a import b as c`` bind ``c``
        imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return sorted(imported - names_read(tree))


def names_read(tree: ast.AST) -> set[str]:
    """Every name the tree reads (loads) as an ``ast.Name``."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def assigned_names(source: str) -> list[str]:
    """Names bound by a module-level assignment, ``__all__`` aside."""
    body = ast.parse(source).body
    targets = [t for node in body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in body if isinstance(node, ast.AnnAssign)]
    return sorted({n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)} - {"__all__"})


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_every_public_name_has_a_caller_in_the_package():
    # code that only tests call belongs with the tests, not in the public API
    read = set()
    for module in MODULES:
        read |= names_read(ast.parse((PACKAGE / module).read_text()))
    assert sorted(set(gridloss.__all__) - read) == []


def test_every_module_level_name_is_read_in_the_package():
    # a constant that its last reader left behind fails here
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(names_read(ast.parse(source)) for source in sources.values()))
    assert [f"{module}: {name}" for module, source in sources.items()
            for name in assigned_names(source) if name not in read] == []


# records, whose types check their own fields; each taker refuses any other
# type by the argument's name
RECORD_ARGUMENTS = {"spectrum", "params", "graph", "ss", "config", "trajectory"}

# arguments that hold no number, as "<argument>": records, names, paths and seeds
NOT_NUMBERS = {*RECORD_ARGUMENTS, "kind", "parameter_name", "path", "seed"}


def _public_callables():
    for name in gridloss.__all__:
        obj = getattr(gridloss, name)
        errors = isinstance(obj, type) and issubclass(obj, BaseException)  # they take a message alone
        if callable(obj) and not errors:
            yield name, obj


def test_controller_parameters_enter_only_through_controller_params():
    # ControllerParams is the one place m, k and tau are checked, so no other
    # public function or class takes them as arguments of its own
    takers = []
    for name, obj in _public_callables():
        if name != "ControllerParams":
            takers += [f"{name}({arg})" for arg in inspect.signature(obj).parameters if arg in ("m", "k", "tau")]
    assert takers == []


def test_every_numeric_argument_has_a_row_in_the_input_table():
    # the input contract is one table: an argument missing from it, and not
    # on the explicit list of non-numbers, is a boundary no test holds
    missing = [f"{name}-{arg}" for name, obj in _public_callables() for arg in inspect.signature(obj).parameters
               if f"{name}-{arg}" not in TABLE and arg not in NOT_NUMBERS]
    assert missing == []


def test_every_record_argument_has_a_row_in_the_record_table():
    # a record argument missing from RECORDS is a type no test refuses
    missing = [f"{name}-{arg}" for name, obj in _public_callables() for arg in inspect.signature(obj).parameters
               if arg in RECORD_ARGUMENTS and f"{name}-{arg}" not in RECORDS]
    assert missing == []


def test_every_input_contract_entry_names_a_public_argument():
    # an entry whose argument has left the API is stale: it would excuse, or
    # claim to test, an argument that no longer exists
    qualified = {f"{name}-{arg}" for name, obj in _public_callables() for arg in inspect.signature(obj).parameters}
    bare = {key.split("-", 1)[1] for key in qualified}
    assert sorted((set(TABLE) | set(RECORDS)) - qualified) + sorted(set(NOT_NUMBERS) - bare) == []


def test_assigned_names_finds_every_binding():
    source = "_A = 1\n_B: int = 2\nx, (y, z) = 1, (2, 3)\n__all__ = ['x']\ndef f():\n    local = 1\n"
    assert assigned_names(source) == ["_A", "_B", "x", "y", "z"]
    assert names_read(ast.parse(source)) == {"int"}  # the annotation; no target counts as read


@pytest.mark.parametrize(("source", "unused"), [
    ("import os\nimport sys\nprint(sys.argv)\n", ["os"]),
    ("import os.path\nos.path.join('a')\n", []),
    ("from a import (\n    b,\n    c as d,\n)\nb()\n", ["d"]),
    ("from a import b  # noqa: F401  (a side effect)\n", []),
    ("from a import b  # noqa: E402\n", ["b"]),
    ("from __future__ import annotations\ndef f(x: int) -> 'str': ...\n", []),
    ("from a import T\ndef f(x: T) -> None: ...\n", []),
], ids=["plain", "dotted", "multi-line", "noqa-f401", "other-noqa", "future", "annotation"])
def test_the_check_finds_what_it_should(source, unused):
    assert unused_imports(source) == unused
