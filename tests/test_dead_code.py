"""No dead code in the package: every import is used, every module-level name is read and
every name a function stores is read in it.

The test toolchain ships no linter, so this walks the source with ``ast``.
``__init__.py`` only re-exports; a name in its module's ``__all__`` or
spelled as a dunder is public by declaration.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "privsample"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _declared_all(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _loads(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _sibling_imports(tree):
    """(bound name, sibling module, imported name) for each ``from .`` import.

    ``from . import formats`` gives ("formats", "formats", None).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    yield bound, alias.name, None
                else:
                    yield bound, node.module, alias.name


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name) for a in node.names)


def _module_level(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _dead_stores(tree):
    """(function, name) for each name a function stores and never reads.

    A read anywhere in the function counts, a nested function's included,
    except as the container of an item store: ``ends[i] = x`` alone leaves
    ``ends`` unread.  ``_`` and the names the function declares global or
    nonlocal are left out.
    """
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes = list(ast.walk(func))
            declared = {name for node in nodes
                        if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
            stored = {node.id for node in nodes
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            filled = {id(node.value) for node in nodes
                      if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)}
            read = {node.id for node in nodes if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load) and id(node) not in filled}
            for name in sorted(stored - read - declared - {"_"}):
                yield func.name, name


def _references() -> dict:
    """Per module, the names that it or a sibling module reads from it."""
    refs = {name: _loads(tree) for name, tree in TREES.items()}
    for tree in TREES.values():
        modules = {}
        for bound, module, name in _sibling_imports(tree):
            if name is None:
                modules[bound] = module
            else:
                refs[module].add(name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                refs[modules[node.value.id]].add(node.attr)
    return refs


def test_every_import_is_used():
    unused = [
        f"{module}: {name}"
        for module, tree in TREES.items() if module != "__init__"
        for name in _imported(tree)
        if name not in _loads(tree) | _declared_all(tree)
    ]
    assert unused == []


def test_every_module_level_name_is_read():
    refs = _references()
    unread = [
        f"{module}: {name}"
        for module, tree in TREES.items()
        for name in _module_level(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in refs[module] | _declared_all(tree)
    ]
    assert unread == []


def test_every_stored_local_is_read():
    dead = [f"{module}: {func}: {name}"
            for module, tree in TREES.items() for func, name in _dead_stores(tree)]
    assert dead == []


def test_the_check_sees_a_dead_helper_and_an_unused_import():
    tree = ast.parse("import os\nimport sys\n\ndef _unused():\n    pass\n\nprint(sys.argv)\n")
    assert [n for n in _imported(tree) if n not in _loads(tree)] == ["os"]
    assert [n for n in _module_level(tree) if n not in _loads(tree)] == ["_unused"]


def test_the_check_sees_a_local_stored_and_never_read():
    source = """
def f(xs):
    starts, ends = [0] * len(xs), [0] * len(xs)
    total = 0
    for i, (x, _) in enumerate(xs):
        starts[i], ends[i] = x, x + 1
        total += x
    spare = total
    return starts, total
"""
    assert list(_dead_stores(ast.parse(source))) == [("f", "ends"), ("f", "spare")]
