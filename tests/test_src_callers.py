"""src/frobpair holds only what the program runs.

The first check walks the syntax trees of src/frobpair and fails on any
function, method, class or module constant whose name nothing in src/
references outside its own definition.  A name counts as referenced where it
appears as a `Name` being read or as an `Attribute`.  Exempt are dunders, the
CLI's `main`, the names perfbench/*.py references (the benchmark calls or
traces them), and ALLOWED below.

The second check resolves every frobpair attribute that perfbench/*.py
references, and every function name its tracer wraps, against the loaded
package, so that a deletion the benchmark depends on fails here first.
perfbench/ is only read.
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


def _definitions(tree):
    """(name, node) for every function, method and class at any depth, and
    every module-level constant (a module-level assignment to a name)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def _references(tree):
    """(name, ids of the enclosing definition nodes) for every name read as a
    `Name` and every `Attribute` in the tree."""
    out = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Assign, ast.AnnAssign)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


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
    references = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            references.setdefault(name, []).append(enclosing)
    exempt = _perfbench_names() | ALLOWED | {"main"}
    uncalled = []
    for filename, tree in trees.items():
        for name, node in _definitions(tree):
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(id(node) not in enclosing for enclosing in references.get(name, ())):
                uncalled.append(f"{filename}:{node.lineno} {name}")
    assert not uncalled, "no caller in src/: " + ", ".join(uncalled)


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
