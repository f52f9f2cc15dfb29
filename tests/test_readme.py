"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None
    code = block.group(1)
    assert "srf_check(" in code and "killing_connection(" in code
    exec(compile(code, "README.md", "exec"), {})
