"""No module of the package, of ``scripts`` or of ``tests`` imports a name
it never uses.

No linter ships with the project, so this reads each file's syntax tree:
an imported name counts as used when it appears anywhere in the file as a
name (``np`` in ``np.zeros`` too).  Package ``__init__`` files re-export
their imports and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/hdglab", "scripts", "tests")
               for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    """Names imported in ``path`` and never read there."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import os\nimport numpy as np\nfrom a.b import c, d\n"
                 "np.zeros(c)\n")
    assert unused_imports(f) == [(1, "os"), (3, "d")]
