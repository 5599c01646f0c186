"""No public name without a caller, and no stale one in the docs.

Every name ``graphseq/__init__.py`` exports, and every public module-level
function or class of ``src/graphseq``, must be referenced by the package's
other modules or by ``perfbench/``. A name that only tests call is an API
nothing uses: give it a caller or delete it. A reference is a ``Name``, an
``Attribute`` or a name in a ``from ... import``; a definition does not
reference itself.

The README's library example runs as written, so a deleted or renamed
export cannot leave it stale.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
    referenced = set()
    for tree in modules + bench:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted((exported | public) - referenced)


def test_every_public_name_has_a_caller():
    unused = caller_less(ROOT)
    assert not unused, f"no caller in src/graphseq or perfbench: {', '.join(unused)}"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library example\n+```python\n(.*?)^```", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
