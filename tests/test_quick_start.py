"""README's library quick start runs as written: the fenced python block
under "Quick start (library)" is executed, and each line it prints is the
`# ...` comment on its `print(` line."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The source of the first python block under "Quick start (library)"."""
    section = README.read_text(encoding="utf-8").split("## Quick start (library)\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quick_start_prints_what_its_comments_say(capsys):
    code = quick_start()
    expected = [line.rsplit("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(expected) == 3
    exec(compile(code, "README.md, quick start (library)", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
