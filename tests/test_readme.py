"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    # Later blocks use names the earlier ones define, as a reader's session would.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
