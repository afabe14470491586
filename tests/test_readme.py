"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_sketch_runs(capsys):
    # the extraction the workflow's smoke run uses on the installed package
    doc = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    exec(re.search(r"```python\n(.*?)```", doc, re.S).group(1), {})
    out = capsys.readouterr().out
    assert "RMSE" in out and out.count("noise scale") == 2
