"""The README's library example runs against the current API."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_library_use_example_runs(capsys):
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
