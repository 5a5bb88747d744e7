"""Every script under demos/ runs to completion against the package sources,
and the package root exports only what the demos and the README use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import dualwin

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(script, tmp_path):
    # run from a scratch directory: a demo may write files (a plot) to its cwd
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_the_root_exports_only_what_the_demos_and_the_readme_use_plus_exceptions():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    sources += [path.read_text(encoding="utf-8") for path in DEMOS]
    used = {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "dualwin"
        for alias in node.names
    }
    exported = {
        name: value
        for name, value in vars(dualwin).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported
    unused = [
        name
        for name, value in exported.items()
        if name not in used and not (isinstance(value, type) and issubclass(value, Exception))
    ]
    assert not unused
