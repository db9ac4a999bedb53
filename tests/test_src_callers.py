"""src/frobpair holds only what the program runs.

The first check walks the syntax trees of src/frobpair and fails on any
function, method, class or module constant whose name nothing in src/
references outside its own definition.  A name counts as referenced where it
appears as a `Name` being read or as an `Attribute`, resolved as far as the
syntax allows: a `Name` never reaches a method, and a `self.m` or `cls.m`
read reaches only the enclosing class's own `m`.  Exempt are dunders, the
CLI's `main`, the names perfbench/*.py references (the benchmark calls or
traces them), and ALLOWED below.

The second check resolves every frobpair attribute that perfbench/*.py
references, and every function name its tracer wraps, against the loaded
package, so that a deletion the benchmark depends on fails here first.
perfbench/ is only read.

The third check fails on any module of src/frobpair that imports an
underscore name from another frobpair module, or reads one off a frobpair
module it imports: what two modules share is public.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "frobpair"
PERFBENCH = ROOT / "perfbench"

#: names with no caller in src/ that the acceptance criteria need, and that
#: stay even if perfbench/ stops calling them: the paper's rank-2 constraint
#: families (criterion 04) and the double-exponent search (criterion 06)
ALLOWED = frozenset({"check_rank2_constraints", "search_double_exponents"})

#: names perfbench/tracer.py wraps that frobpair no longer has: the tracer
#: skips a missing name, so its `tensor.permutation` layer already reads 0
STALE_TRACER_NAMES = frozenset({"tensor.LinMap.permutation"})


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: the owner of a reference that may reach a definition in any class or none
ANY_OWNER = "any"


def _definitions(tree):
    """(name, node, id of the class whose body holds it or None) for every
    function, method and class at any depth, and every module-level constant
    (a module-level assignment to a name)."""
    owners = {id(child): id(node) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for child in node.body}
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS):
            yield node.name, node, owners.get(id(node))
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node, None


def _references(tree):
    """(name, ids of the enclosing definition nodes, owner) for every name read
    as a `Name` and every `Attribute` in the tree, where owner is the class id
    (or None) that a definition it reaches must have: None for a `Name`, the
    enclosing class for a `self.`/`cls.` read, else ANY_OWNER."""
    out = []

    def visit(node, enclosing, cls):
        if isinstance(node, DEFINITIONS + (ast.Assign, ast.AnnAssign)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append((node.id, enclosing, None))
        elif isinstance(node, ast.Attribute):
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            out.append((node.attr, enclosing, cls if own else ANY_OWNER))
        cls = id(node) if isinstance(node, ast.ClassDef) else cls
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing, cls)

    visit(tree, frozenset(), None)
    return out


def _uncalled(trees, exempt):
    """'file:line name' for each definition in trees ({file name: tree}) that
    no reference outside it reaches, unless exempt names it or it is a dunder."""
    references = {}
    for tree in trees.values():
        for name, enclosing, owner in _references(tree):
            references.setdefault(name, []).append((enclosing, owner))
    uncalled = []
    for filename, tree in trees.items():
        for name, node, owner in _definitions(tree):
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(id(node) not in enclosing and reach in (ANY_OWNER, owner)
                       for enclosing, reach in references.get(name, ())):
                uncalled.append(f"{filename}:{node.lineno} {name}")
    return uncalled


def _perfbench_names():
    """Every attribute name perfbench/*.py references, every name it imports
    from frobpair, and every attribute name its tracer wraps."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("frobpair"):
                names.update(alias.name for alias in node.names)
    names.update(attr for _owner, attr in _tracer_targets())
    return names


def _tracer_targets():
    """(owner expression, attribute name) for each name the tracer's LAYERS wraps."""
    for node in _parse(PERFBENCH / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            for layer in node.value.elts:
                owner, attrs = layer.elts[1], layer.elts[2]
                for attr in attrs.elts:
                    yield owner, attr.value


def test_every_src_definition_has_a_caller_in_src():
    trees = {path.name: _parse(path) for path in sorted(SRC.glob("*.py"))}
    uncalled = _uncalled(trees, _perfbench_names() | ALLOWED | {"main"})
    assert not uncalled, "no caller in src/: " + ", ".join(uncalled)


def test_self_read_counts_only_for_its_own_class():
    # a method read only as self.m in another class, or as a bare name, has no
    # caller; self.m in its own class, cls.m, or x.m anywhere are callers
    source = """
class Reader:
    def go(self, text):
        return self.text, self.size, text

class Other:
    def text(self):
        return 1

    def size(self):
        return 2

    def width(self):
        return self.size()

class Counter:
    @classmethod
    def make(cls):
        return cls.count()

    @classmethod
    def count(cls):
        return 0

def outside(shape):
    return shape.go(), Counter.make(), Other().width()
"""
    entry_points = frozenset({"Reader", "Other", "Counter", "outside"})
    assert _uncalled({"mutant.py": ast.parse(source)}, entry_points) == ["mutant.py:7 text"]
    # the same read through any other name is a caller
    fixed = ast.parse(source + "\nOther().text()\n")
    assert _uncalled({"mutant.py": fixed}, entry_points) == []


def _frobpair_bindings(tree, missing, where):
    """{local name: object} for the frobpair modules and names a file imports;
    every imported name that frobpair lacks is added to missing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "frobpair":
                    continue
                module = importlib.import_module(alias.name)
                if alias.asname:
                    bound[alias.asname] = module
                else:  # `import frobpair.cli` binds frobpair, with cli loaded
                    bound["frobpair"] = importlib.import_module("frobpair")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "frobpair":
            for alias in node.names:
                try:  # a submodule, imported if it is not yet
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module), alias.name, None)
                    if obj is None:
                        missing.append(f"{where}:{node.lineno} {node.module}.{alias.name}")
                bound[alias.asname or alias.name] = obj
    return bound


def _resolve(node, bound, missing, where):
    """The object an expression over frobpair bindings names, or None if it
    is not one; every attribute it fails to find is added to missing."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, bound, missing, where)
        if owner is None:
            return None
        if not hasattr(owner, node.attr):
            missing.append(f"{where}:{node.lineno} {ast.unparse(node)}")
            return None
        return getattr(owner, node.attr)
    return None


def test_every_frobpair_name_perfbench_uses_exists():
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path)
        bound = _frobpair_bindings(tree, missing, path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                _resolve(node, bound, missing, path.name)
        if path.name == "tracer.py":
            for owner, attr in _tracer_targets():
                obj = _resolve(owner, bound, missing, path.name)
                name = f"{ast.unparse(owner)}.{attr}"
                if obj is not None and not hasattr(obj, attr) and name not in STALE_TRACER_NAMES:
                    missing.append(f"tracer.py LAYERS {name}")
    assert not missing, "perfbench/ names what frobpair lacks: " + ", ".join(sorted(set(missing)))


def _private_imports(tree, where):
    """'file:line name' for each underscore name (not a dunder) that tree imports
    from a frobpair module, or reads as an attribute of a frobpair module it
    imports as a whole."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "frobpair"
                                                 or node.module.startswith("frobpair.")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{where}:{node.lineno} {alias.name}")
                elif not node.module or node.module == "frobpair":  # `from . import cube`
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and node.attr.startswith("_") \
                and not node.attr.endswith("__"):
            found.append(f"{where}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_src_module_imports_a_private_name_of_another():
    found = [line for path in sorted(SRC.glob("*.py"))
             for line in _private_imports(_parse(path), path.name)]
    assert not found, "private names imported across modules: " + ", ".join(found)


def test_the_private_import_check_sees_both_forms():
    source = """
from __future__ import annotations
from . import cube as cube_mod
from .tensor import _move_plan, act
x = cube_mod._bits(3), cube_mod.edge_map, cube_mod.__name__
"""
    assert _private_imports(ast.parse(source), "mutant.py") == \
        ["mutant.py:4 _move_plan", "mutant.py:5 cube_mod._bits"]
