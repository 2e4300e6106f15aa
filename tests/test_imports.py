"""Every name a ``pmmwm`` module imports is read in that module.

No linter runs on the package, so this scan stands in for an unused-import
check. A name kept imported only for another module (or a benchmark tracer)
to look up through this one fails it too: that module should import the
name where it is defined.
"""

import ast
import pathlib

import pytest

import pmmwm

MODULES = sorted(p for p in pathlib.Path(pmmwm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted(imported - read)


def test_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .errors import ParseError, TooLarge\nraise TooLarge(np.pi)\n")
    assert unread_imports(source) == ["ParseError", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
