"""The README's library example runs as written against the public API."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})
    printed = out.getvalue().split()
    assert len(printed) == 3 and all(math.isfinite(float(v)) for v in printed)
