"""No public name without a caller, and no stale one in the docs.

Every name ``graphseq/__init__.py`` exports, and every public module-level
function or class of ``src/graphseq``, must be referenced by the package's
other modules or by ``perfbench/``. A name that only tests call is an API
nothing uses: give it a caller or delete it. A reference is a ``Name``, an
``Attribute`` or a name in a ``from ... import``; a definition does not
reference itself.

No module of the package names a private (``_``-prefixed) definition of
another: a function, class, method or module-level variable. A decision
two modules share goes behind a public name of the module that owns it.

Only ``graph.py`` decodes JSON, so every JSON input meets one rule for
bad JSON and for a value that is not an object. Only ``graph.py`` opens
an input file, through ``read_lines``, so every file meets one rule for
its encoding, a byte-order mark and a byte that is not UTF-8; writers may
still call ``write_text``. Only ``graph.py`` names
``EdgeList``: how a graph stores its edges is its own decision, and every
other module reads them as a sequence of ``(src, dst)`` pairs.

The README's library example runs as written, so a deleted or renamed
export cannot leave it stale.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree: ast.Module) -> set[str]:
    """Every ``Name``, ``Attribute`` and ``from ... import`` name in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def caller_less(root: Path) -> list[str]:
    """Exported or public module-level names of ``root``'s package that
    nothing in the package (``__init__`` aside) or its benchmark names."""
    package = root / "src" / "graphseq"
    modules = [_parse(p) for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    bench = [_parse(p) for p in sorted((root / "perfbench").glob("*.py"))]
    exported = {
        alias.name
        for node in _parse(package / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        node.name
        for tree in modules
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    referenced = set().union(*map(_referenced, modules + bench))
    return sorted((exported | public) - referenced)


def test_every_public_name_has_a_caller():
    unused = caller_less(ROOT)
    assert not unused, f"no caller in src/graphseq or perfbench: {', '.join(unused)}"


def _private_definitions(tree: ast.Module) -> set[str]:
    """``_``-prefixed, non-dunder module-level functions, classes and
    variables of ``tree``, and methods of its classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(n.name for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def foreign_private_names(root: Path) -> dict[str, list[str]]:
    """Per module of ``root``'s package, the private names it references
    that another module defines and it does not."""
    trees = {p.stem: _parse(p) for p in sorted((root / "src" / "graphseq").glob("*.py"))}
    defined = {stem: _private_definitions(tree) for stem, tree in trees.items()}
    found = {}
    for stem, tree in trees.items():
        others = set().union(*(d for s, d in defined.items() if s != stem)) - defined[stem]
        if foreign := _referenced(tree) & others:
            found[stem] = sorted(foreign)
    return found


def test_no_module_names_another_modules_private_definition():
    found = foreign_private_names(ROOT)
    assert not found, f"private names of other modules: {found}"


def json_decoders(root: Path) -> list[str]:
    """Modules of ``root``'s package, ``graph`` aside, that call
    ``json.loads`` or ``json.load``."""
    return [
        path.stem
        for path in sorted((root / "src" / "graphseq").glob("*.py"))
        if path.stem != "graph"
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("loads", "load")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            for node in ast.walk(_parse(path))
        )
    ]


def test_only_graph_decodes_json():
    found = json_decoders(ROOT)
    assert not found, f"json.loads or json.load outside graph.py: {found}"


def file_openers(root: Path) -> list[str]:
    """Modules of ``root``'s package, ``graph`` aside, that call ``open``,
    ``read_text`` or ``read_bytes``, as a function or a method."""
    return [
        path.stem
        for path in sorted((root / "src" / "graphseq").glob("*.py"))
        if path.stem != "graph"
        and any(
            isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute) and node.func.attr in ("open", "read_text", "read_bytes")
            )
            for node in ast.walk(_parse(path))
        )
    ]


def test_only_graph_opens_input_files():
    found = file_openers(ROOT)
    assert not found, f"open, read_text or read_bytes outside graph.py: {found}"


def edge_store_readers(root: Path) -> list[str]:
    """Modules of ``root``'s package, ``graph`` aside, that name ``EdgeList``."""
    return [
        path.stem
        for path in sorted((root / "src" / "graphseq").glob("*.py"))
        if path.stem != "graph" and "EdgeList" in _referenced(_parse(path))
    ]


def test_only_graph_names_the_edge_store():
    found = edge_store_readers(ROOT)
    assert not found, f"EdgeList named outside graph.py: {found}"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library example\n+```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
