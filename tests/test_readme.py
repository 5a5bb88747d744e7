"""The README's Python snippets run, in order, against the package sources."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use the names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
