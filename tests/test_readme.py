"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs(capsys):
    section = re.search(r"^## Library use\n(.*?)(?=^## |\Z)", README.read_text(), re.M | re.S)
    assert section is not None
    blocks = re.findall(r"^```python\n(.*?)^```", section.group(1), re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
