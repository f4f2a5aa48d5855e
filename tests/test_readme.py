"""The README's library example runs as written, from the repository root."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("(3, 4, 5) ")
