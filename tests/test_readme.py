"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert len(blocks) >= 2
    namespace: dict = {}
    for m in blocks:  # later blocks use names the earlier ones define
        # pad with newlines so a traceback points at the README's own line
        source = "\n" * text.count("\n", 0, m.start(1)) + m.group(1)
        exec(compile(source, str(README), "exec"), namespace)
