"""The README's Python example runs as written and names no removed API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs_and_prints_bond_dims():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["chain"].bond_dims == (2, 4, 4, 2)
    assert out.getvalue() == "(2, 4, 4, 2)\n"


def test_readme_names_no_removed_function():
    text = README.read_text(encoding="utf-8")
    for name in ("cut_matrix", "from_pure", "verify_invariance", "CharPolyCoeffs",
                 "group_dims", "_density_of", "mps_truncate", "MEMO_ENUMERATIONS"):
        assert not re.search(rf"\b{name}\b", text), name
