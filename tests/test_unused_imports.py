"""No module of the library, of ``scripts/`` or of the tests imports a
name it never uses.  No linter ships with the project, so this reads
each module's syntax tree with the standard library; the package
``__init__`` is left out, since its imports are the package's
re-exports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "hnn_nearring").glob("*.py"),
                             *(ROOT / "scripts").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_name():
    source = "import os\nfrom typing import Optional, Tuple\nx: Optional[int] = os.sep\n"
    assert _unused_imports(source) == ["Tuple"]


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
