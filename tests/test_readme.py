"""README's Library example runs as written."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _library_block() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_block_runs(monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    exec(compile(_library_block(), "README.md", "exec"), {})
    table = capsys.readouterr().out
    assert table.startswith("verification report  n=5")
    assert table.count(" Verified\n") == 7 and table.count(" BeyondThreshold\n") == 1
