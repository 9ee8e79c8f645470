"""The README's library example runs as written, so a renamed or removed
export fails here instead of going stale in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library use", "exec"), {})
    score = float(capsys.readouterr().out)
    assert -1.0 <= score <= 1.0
