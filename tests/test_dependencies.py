"""numpy stays the only runtime dependency of the package."""

import ast
import sys
from pathlib import Path

ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_imports_only_the_standard_library_and_numpy():
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "dualwin").glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert not foreign
