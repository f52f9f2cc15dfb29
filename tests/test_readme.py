"""The README's library example runs as documented, and the package is
stdlib-only, as README and ROADMAP promise."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_library_example_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None
    code = block.group(1)
    assert "srf_check(" in code and "killing_connection(" in code
    exec(compile(code, "README.md", "exec"), {})


def test_the_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "foliatk").glob("*.py"))
    assert sources
    outside = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update(f"{path.name}: {name}" for name in names
                           if name.partition(".")[0] not in sys.stdlib_module_names)
    assert not outside, sorted(outside)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
