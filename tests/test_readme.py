"""The README's library quickstart runs as written and prints its stated
minimum clearance."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_prints_the_stated_clearance():
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), {})
    assert printed.getvalue() == "0.0945\n"
