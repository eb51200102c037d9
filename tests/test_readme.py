"""README's library example, run from the repository root, prints what the
comments on its print lines say."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _library_example():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments(monkeypatch, capsys):
    code = _library_example()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected == ["{(4,6)}", "D4", "4 -1 2 -1 3 5 -2 1 -4"]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
