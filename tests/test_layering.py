"""Layering rules of the package, read from its source with ast.

1. No module imports another module's _-prefixed name: what one module
   shares with another is public.
2. Only experiments.write_artifacts writes to the file system (os.replace,
   os.makedirs, os.remove and their kin, or open in a write mode), so every
   artifact is written atomically in one place.
3. Every public top-level function or class of a module (outside
   __init__.py) is used by name in the package's code, outside its own
   definition, or in bench/: what no caller needs is deleted. A use is a
   name, an attribute or, for the benchmark's tracer, which patches by name,
   a string.
4. No module calls numpy's module-level np.any, np.all, np.max, np.min or
   np.sum: the ndarray method runs the same reduction, bit for bit, without
   the wrapper's Python dispatch, which costs more than the arithmetic on
   the package's short per-mode vectors.
5. No module calls math.hypot: it differs from the C library's hypot, which
   numpy's hypot and abs(complex(x, y)) call, in the last bit on some
   inputs, so it would break the Jacobi's bit-identity with its textbook
   reference.
6. No module calls np.linalg.eig or np.linalg.eigvals: every matrix the
   package decomposes (a Laplacian, the coupling matrix, a coupled stability
   Hessian, the scaled Jacobian M = S J S of the fixed-point map, I + M and
   S (I + M)^-1 S) is symmetric, so np.linalg.eigvalsh applies.
7. No module tests symmetry with a tolerance, so no x - x.T (or x.T - x)
   appears: a matrix is symmetric when np.array_equal(x, x.T), the rule
   SourceSpec applies to C and eig_symmetric to its input.

The test suite keeps one rule of its own: every hypothesis @settings(...)
under tests/ sets derandomize=True, so the tier-1 counts do not move by
chance from one run to the next.
"""

from __future__ import annotations

import ast
import pathlib

import kernelfield

SRC = pathlib.Path(kernelfield.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
BENCH = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted((SRC.parents[1] / "bench").glob("*.py"))}
TESTS = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))}

_OS_WRITES = {"replace", "rename", "makedirs", "mkdir", "remove", "unlink", "rmdir"}
_NP_REDUCTIONS = {"any", "all", "max", "min", "sum"}
_GENERAL_EIGENSOLVERS = {"eig", "eigvals"}


def _imports_private(tree: ast.Module) -> list[str]:
    """`from <package module> import _name` statements, as "module._name"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("kernelfield")):
            found += [f"{node.module or ''}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def _writes(call: ast.Call) -> bool:
    """Whether call is an os file-system write or an open() in a write mode."""
    fn = call.func
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id == "os":
        return fn.attr in _OS_WRITES
    if isinstance(fn, ast.Name) and fn.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
        # A mode that is not a literal may write.
        return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))
    return False


def _writers(name: str, tree: ast.Module) -> set[str]:
    """The functions of module name (or the module body) that call a write."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{name}.{node.name}"
        if isinstance(node, ast.Call) and _writes(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, name)
    return found


def _dotted(node: ast.AST) -> str:
    """The dotted name a Name or a chain of Attributes reads, such as "np.linalg"; "" otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def _calls(name: str, tree: ast.Module, module: str, attrs: set[str]) -> list[str]:
    """Calls module.attr, attr in attrs, in module name, as "name:line module.attr";
    module may be dotted, such as "np.linalg"."""
    return [f"{name}:{node.lineno} {module}.{node.func.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and _dotted(node.func.value) == module and node.func.attr in attrs]


def _transpose_differences(name: str, tree: ast.Module) -> list[str]:
    """x - x.T and x.T - x in module name, as "name:line"."""
    def transposes(a: ast.AST, b: ast.AST) -> bool:
        return isinstance(b, ast.Attribute) and b.attr == "T" and ast.dump(b.value) == ast.dump(a)

    return [f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and (transposes(node.left, node.right) or transposes(node.right, node.left))]


def _random_settings(name: str, tree: ast.Module) -> list[str]:
    """settings(...) calls in module name without derandomize=True, as "name:line"."""
    return [f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _dotted(node.func) in {"settings", "hypothesis.settings"}
            and not any(kw.arg == "derandomize" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True for kw in node.keywords)]


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names, attributes and string constants used in tree, outside node skip."""
    found = set()

    def visit(node):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _unused(modules: dict[str, ast.Module], outside: dict[str, ast.Module]) -> list[str]:
    """The public top-level functions and classes of modules but __init__, as "module.name",
    that neither the outside code, nor another such module, nor their own module outside
    their definition uses."""
    code = {name: tree for name, tree in modules.items() if name != "__init__"}
    uses = {name: _uses(tree) for name, tree in code.items()}
    used_outside = set().union(*map(_uses, outside.values()))
    found = []
    for name, tree in code.items():
        elsewhere = used_outside.union(*(u for m, u in uses.items() if m != name))
        found += [f"{name}.{node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in elsewhere
                  and node.name not in _uses(tree, skip=node)]
    return found


def test_no_module_imports_a_private_name():
    found = {name: _imports_private(tree) for name, tree in MODULES.items()}
    assert {name: names for name, names in found.items() if names} == {}


def test_only_write_artifacts_writes_files():
    writers = set().union(*(_writers(name, tree) for name, tree in MODULES.items()))
    assert writers == {"experiments.write_artifacts"}


def test_every_public_function_and_class_has_a_user():
    assert _unused(MODULES, BENCH) == []


def test_no_module_calls_a_numpy_reduction_wrapper():
    assert [call for name, tree in MODULES.items()
            for call in _calls(name, tree, "np", _NP_REDUCTIONS)] == []


def test_no_module_calls_math_hypot():
    assert [call for name, tree in MODULES.items()
            for call in _calls(name, tree, "math", {"hypot"})] == []


def test_no_module_calls_a_general_eigensolver():
    assert [call for name, tree in MODULES.items()
            for call in _calls(name, tree, "np.linalg", _GENERAL_EIGENSOLVERS)] == []


def test_no_module_tests_symmetry_with_a_tolerance():
    assert [diff for name, tree in MODULES.items() for diff in _transpose_differences(name, tree)] == []


def test_every_hypothesis_settings_is_derandomized():
    assert [call for name, tree in TESTS.items() for call in _random_settings(name, tree)] == []


def test_the_rules_see_what_they_forbid():
    tree = ast.parse("from .experiments import _write_atomic\n"
                     "def save(p):\n    with open(p, 'w') as fh:\n        os.makedirs(p)\n"
                     "def load(p):\n    return open(p).read(), open(p, mode='rb')\n")
    assert _imports_private(tree) == ["experiments._write_atomic"]
    assert _writers("m", tree) == {"m.save"}
    # The wrappers are calls through np; the methods and other np functions are not.
    tree = ast.parse("a = np.max(x)\nb = x.max()\nc = np.maximum(x, y)\n"
                     "d = np.any(x < 0) or np.all(x) or np.min(x) or np.sum(x)\n")
    assert _calls("m", tree, "np", _NP_REDUCTIONS) == ["m:1 np.max", "m:4 np.any", "m:4 np.all",
                                                       "m:4 np.min", "m:4 np.sum"]
    # math.hypot is a call through math; np.hypot and abs(complex(...)) are not.
    tree = ast.parse("a = math.hypot(t, 1.0)\nb = np.hypot(t, 1.0)\nc = abs(complex(t, 1.0))\n")
    assert _calls("m", tree, "math", {"hypot"}) == ["m:1 math.hypot"]
    # np.linalg.eig and eigvals are calls through np.linalg; eigvalsh and eigh are not.
    tree = ast.parse("a = np.linalg.eig(m)\nb = np.linalg.eigvalsh(m)\nc = np.linalg.eigvals(m)\n"
                     "d = np.linalg.eigh(m)\ne = linalg.eigvals(m)\n")
    assert _calls("m", tree, "np.linalg", _GENERAL_EIGENSOLVERS) == ["m:1 np.linalg.eig",
                                                                   "m:3 np.linalg.eigvals"]
    # A difference of a matrix and its own transpose, either way round; not of another's.
    tree = ast.parse("a = np.abs(mat - mat.T).max()\nb = s.c.T - s.c\nc = mat - other.T\n"
                     "d = mat + mat.T\ne = np.array_equal(mat, mat.T)\n")
    assert sorted(_transpose_differences("m", tree)) == ["m:1", "m:2"]
    # settings without derandomize, or with it not True, draws at random.
    tree = ast.parse("@settings(max_examples=5, derandomize=True)\ndef f(): pass\n"
                     "@settings(max_examples=5)\ndef g(): pass\n"
                     "@hypothesis.settings(derandomize=False)\ndef h(): pass\n")
    assert _random_settings("m", tree) == ["m:3", "m:5"]
    # recurse only calls itself, and __init__'s export of orphan is not a use.
    modules = {"m": ast.parse("def recurse(n):\n    return recurse(n - 1)\n"
                              "def orphan():\n    pass\n"
                              "def called():\n    pass\n"
                              "class Traced:\n    pass\n"
                              "def _private():\n    pass\n"),
               "n": ast.parse("from .m import called\ncalled()\n"),
               "__init__": ast.parse("from .m import orphan\n__all__ = ['orphan']\n")}
    bench = {"tracer": ast.parse("TRACED = {'m': ('Traced',)}\n")}
    assert _unused(modules, bench) == ["m.recurse", "m.orphan"]
