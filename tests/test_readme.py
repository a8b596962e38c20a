"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["metrics"].density == 2.0
    assert namespace["dot"].startswith("digraph activity {")
    assert len(namespace["scores"]) == len(namespace["y_test"]) > 0
    assert namespace["report"]["accuracy"] == 1.0
