"""The README's library quick start prints what its comments say.

The python block is run as it stands, with stdout captured.  Each
``print(...)  # comment`` line prints one line, and the comment must
start with that line, so a renamed method or a changed value shows up
here.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PRINT_LINE = re.compile(r"^print\(.*\)\s+#\s*(.*)$")


def _quick_start() -> str:
    match = re.search(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert match, "README has no python block"
    return match.group(1)


def test_quick_start_prints_match_their_comments():
    code = _quick_start()
    comments = [m.group(1) for m in map(PRINT_LINE.match, code.splitlines()) if m]
    assert comments
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)
