import contextlib
import io
import re
from pathlib import Path

from pipgeom.vieta import _reduced_tuples

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_readme_b_value_table_matches_the_reduced_tuples():
    rows = re.findall(r"^  \| (\d+) \| ([^|]+) \| \{([^}]*)\} \|$", README.read_text(), re.M)
    assert [int(n) for n, _, _ in rows] == list(range(2, 11))
    for n, count, text in rows:
        b_values = set()
        for part in text.split(", "):
            lo, _, hi = part.partition("..")
            b_values.update(range(int(lo), int(hi or lo) + 1))
        if n == "2":
            assert (count, b_values) == ("every (y, y)", {4})
            continue
        roots = _reduced_tuples(int(n))
        assert (int(count), b_values) == (len(roots), {b for _, b in roots}), n
