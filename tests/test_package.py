"""The package's public names, and that everything under ``src/`` is used."""

import ast
from pathlib import Path

import toricstab
from toricstab import errors

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "toricstab"
PERFBENCH = TESTS.parent / "perfbench"

PACKAGE_ERRORS = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.ToricStabError)
}

# The integer functions of ``math``; everything else there is floating point.
INTEGER_MATH = {"gcd", "lcm", "prod", "factorial", "comb"}

REMOVED = (
    "slope_of",
    "slope_upper_bound",
    "jump_to_lambda_vector",
    "jump_to_lambda_matrix",
    "candidate_slope",
    "validate_lambda_vector",
    "enumerate_candidates",
    "is_cone",
    "BadIndex",
    "NotSmoothCone",
    "jump_data",
    "lambda_vector_to_jump",
    "in_semigroup",
    "weight_space_dim",
    "admissible_slope_bound",
    "BadRank",
    "Polytope",
)


def test_every_public_name_resolves_once():
    names = toricstab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(toricstab, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in toricstab.__all__
        assert not hasattr(toricstab, name)


def _identifiers(tree):
    """Every name, attribute name and imported name referenced in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_top_level_definition_is_reachable():
    # Top-level definitions and relative imports of every module of the package.
    defs, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs[mod, name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod, alias.asname or alias.name] = (node.module, alias.name)

    def resolve(mod, name):
        while (mod, name) in imports:
            mod, name = imports[mod, name]
        return (mod, name) if (mod, name) in defs else None

    # Roots: the public API, the CLI, and the testkit names the tests and the
    # benchmark use.  A name reaches the definition it resolves to in its
    # module; an attribute reaches every top-level definition of that name.
    outside = set()
    for path in [*TESTS.glob("*.py"), *PERFBENCH.glob("*.py")]:
        outside.update(_identifiers(ast.parse(path.read_text(encoding="utf-8"))))
    todo = [resolve("__init__", name) for name in toricstab.__all__]
    todo += [("cli", "main")] + [("testkit", n) for n in outside if ("testkit", n) in defs]
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo.append(resolve(key[0], node.id))
            elif isinstance(node, ast.Attribute):
                todo += [k for k in defs if k[1] == node.attr]
    unreached = sorted(
        f"{mod}.{name}"
        for (mod, name), node in defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (mod, name) not in reached
    )
    assert unreached == []


def _private_imports(source):
    """``_``-prefixed names imported from a module of the package (a
    relative or ``toricstab`` import), as ``(line, name)`` pairs.  Such a
    name is its module's own: a second module that imports it shares a
    rule the tests should check it against, not reuse."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "toricstab"
        ):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    return sorted(found)


def test_no_module_imports_a_private_name_from_a_sibling():
    snippet = (
        "from __future__ import annotations\n"
        "from .stability import _status_against, decide\n"
        "from toricstab.fan import _walls\n"
        "from . import _helpers\n"
        "from os import _exit\n"
    )
    assert _private_imports(snippet) == [(2, "_status_against"), (3, "_walls"), (4, "_helpers")]
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := _private_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


MODULES = {path.stem for path in SRC.glob("*.py")}


def _private_reads(source):
    """``_``-prefixed attributes read off a module of the package, as
    ``(line, "module._name")`` pairs; a module is a name that ``import
    toricstab...`` or ``from toricstab import <module>`` binds.  A test that
    reads one checks the program against its own private rule, where an
    oracle should be independent of it; a name passed as a string, as to
    ``count_calls``, only counts calls and stays allowed."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] != "toricstab":
                    continue
                if a.asname:
                    modules.add(a.asname)
                else:
                    modules |= {"toricstab"} | {f"toricstab.{m}" for m in MODULES}
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module == "toricstab":
            modules |= {a.asname or a.name for a in node.names if a.name in MODULES}
    return sorted(
        (node.lineno, f"{ast.unparse(node.value)}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.startswith("__") and ast.unparse(node.value) in modules
    )


def test_no_test_reads_a_private_attribute_of_the_package():
    snippet = (
        "import toricstab\n"
        "import toricstab.fan as tf\n"
        "from toricstab import charts, fan as f, decide\n"
        "from toricstab.fan import Fan\n"
        "f._pair(1)\n"
        "count_calls(charts, '_regular')\n"
        "x = tf._walls + toricstab.lattice._row + toricstab._v\n"
        "y = Fan._cache, decide._x, other._y, f.__name__\n"
    )
    assert _private_reads(snippet) == [
        (5, "f._pair"), (7, "tf._walls"), (7, "toricstab._v"), (7, "toricstab.lattice._row"),
    ]
    found = {
        path.name: uses
        for path in sorted(TESTS.glob("*.py"))
        if (uses := _private_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _float_uses(source):
    """Float literals, uses of the name ``float`` and imports from ``math``
    beyond its integer functions, as ``(line, what)`` pairs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import math") for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in INTEGER_MATH]
    return sorted(found)


def test_no_floats_in_the_package():
    snippet = "x = 1.5\ny = float(2) + 3j\nimport math\nfrom math import gcd, sqrt\n"
    assert _float_uses(snippet) == [
        (1, "literal 1.5"), (2, "float"), (2, "literal 3j"), (3, "import math"), (4, "math.sqrt"),
    ]
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := _float_uses(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# The functions of ``cli.py`` that turn command-line text into integers.
TEXT_PARSERS = {"_parse_int", "_parse_range"}


def _int_conversions(source, parsers=()):
    """``int(...)`` calls, ``map(int, ...)`` and ``isinstance(..., int)``
    outside the top-level functions named in ``parsers``, as ``(line,
    what)`` pairs.  ``int`` truncates a non-integer and ``isinstance`` lets
    a bool through; numbers are checked with ``type(x) is int`` where they
    enter (``Fan``, the constructors, divisors, volume tables, jump data) and never
    converted below that."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name in parsers:
            continue
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            name, args = node.func.id, node.args
            if name == "int":
                found.append((node.lineno, "int()"))
            elif name == "map" and args and ast.unparse(args[0]) == "int":
                found.append((node.lineno, "map(int)"))
            elif name == "isinstance" and len(args) == 2:
                kinds = args[1].elts if isinstance(args[1], ast.Tuple) else [args[1]]
                if any(ast.unparse(k) == "int" for k in kinds):
                    found.append((node.lineno, "isinstance int"))
    return sorted(found)


def test_no_integer_conversions_below_the_gate():
    snippet = (
        "def parse(text):\n    return int(text)\n"
        "def f(rows, x):\n"
        "    rows = [tuple(map(int, r)) for r in rows]\n"
        "    if isinstance(x, (int, Fraction)) or isinstance(x, dict):\n"
        "        return int(x), type(x) is int, rng.randint(1, 2)\n"
    )
    assert _int_conversions(snippet, parsers={"parse"}) == [
        (4, "map(int)"), (5, "isinstance int"), (6, "int()"),
    ]
    assert _int_conversions(snippet) == [
        (2, "int()"), (4, "map(int)"), (5, "isinstance int"), (6, "int()"),
    ]
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := _int_conversions(
            path.read_text(encoding="utf-8"), TEXT_PARSERS if path.name == "cli.py" else ()
        ))
    }
    assert found == {}


def _process_caches(source):
    """``cache`` or ``lru_cache`` (bare, called or as a ``functools``
    attribute) on a function that takes parameters, and imports of
    ``weakref``, as ``(line, what)`` pairs.  Such a cache keeps every fan it
    was handed for the life of the process; data derived from a fan is kept
    on that fan object instead (``Fan.flats``, ``Fan.flat_basis``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("cache", "lru_cache"):
                    found.append((node.lineno, f"{name} on {node.name}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import weakref") for alias in node.names
                      if alias.name == "weakref"]
        elif isinstance(node, ast.ImportFrom) and node.module == "weakref":
            found.append((node.lineno, "from weakref"))
    return sorted(found)


def test_no_process_lifetime_caches_in_the_package():
    snippet = (
        "import functools, weakref\n"
        "from functools import cache, lru_cache\n"
        "@cache\ndef parser():\n    pass\n"
        "@lru_cache(maxsize=None)\ndef flats(fan):\n    pass\n"
        "@functools.cache\ndef basis(*, rays):\n    pass\n"
        "class Fan:\n    @functools.lru_cache\n    def bases(self):\n        pass\n"
        "from weakref import WeakKeyDictionary\n"
    )
    assert _process_caches(snippet) == [
        (1, "import weakref"), (7, "lru_cache on flats"), (10, "cache on basis"),
        (14, "lru_cache on bases"), (16, "from weakref"),
    ]
    found = {
        path.name: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := _process_caches(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _main_handlers(source):
    """What each ``except`` clause of the top-level ``main`` catches, as
    ``(line, name)`` pairs; a bare ``except`` is ``(line, None)``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "main":
            for handler in ast.walk(node):
                if isinstance(handler, ast.ExceptHandler):
                    caught = handler.type
                    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
                    found += [(handler.lineno, n and ast.unparse(n)) for n in names]
    return found


def test_cli_main_catches_only_package_errors():
    # A broad catch such as ValueError would turn an internal fault into a
    # usage error.  The one exception is the SystemExit argparse raises.
    snippet = (
        "def main():\n"
        "    try:\n        run()\n"
        "    except (ParseError, ValueError):\n        pass\n"
        "    except errors.NonAmple as e:\n        pass\n"
        "    except:\n        pass\n"
        "def helper():\n"
        "    try:\n        run()\n    except OSError:\n        pass\n"
    )
    assert _main_handlers(snippet) == [
        (4, "ParseError"), (4, "ValueError"), (6, "errors.NonAmple"), (8, None),
    ]
    caught = _main_handlers((SRC / "cli.py").read_text(encoding="utf-8"))
    assert caught and all(name is not None for _, name in caught)
    assert [name for _, name in caught if name not in PACKAGE_ERRORS] == ["SystemExit"]


def _raised_names(source):
    """The class each ``raise`` names, as ``(line, name)`` pairs: the called
    or named class, its last attribute for ``errors.X``, and None for a
    bare ``raise``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "attr", getattr(exc, "id", None))
            found.append((node.lineno, name))
    return sorted(found)


def test_package_raises_only_its_own_errors():
    # A caller catches ToricStabError; a builtin exception raised for bad
    # input would pass through.  The Fan gate's TypeError is the one exception,
    # and testkit is the test fixtures' module.
    snippet = (
        "def f(x):\n"
        "    if x:\n        raise ValueError(x)\n"
        "    raise errors.NonAmple('no') from None\n"
        "try:\n    f(1)\nexcept KeyError:\n    raise\n"
        "raise SystemExit\n"
    )
    assert _raised_names(snippet) == [
        (3, "ValueError"), (4, "NonAmple"), (8, None), (9, "SystemExit"),
    ]
    found = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "testkit.py"
        for _, name in _raised_names(path.read_text(encoding="utf-8"))
        if name not in PACKAGE_ERRORS
    }
    assert found == {("fan.py", "TypeError")}


def test_every_package_error_is_raised():
    # An error class that no module raises is dead API, left behind when its
    # last raiser goes; ToricStabError is only the base class.
    raised = {
        name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "testkit.py"
        for _, name in _raised_names(path.read_text(encoding="utf-8"))
    }
    assert sorted(PACKAGE_ERRORS - raised) == ["ToricStabError"]
