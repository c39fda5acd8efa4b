"""README's "Library quick start" block, run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the lines whose value the block states in a comment
    assert (out[1], out[-1]) == ("1", "2")
