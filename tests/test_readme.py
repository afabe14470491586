"""The README's library sketch runs as written, and its code references resolve."""

import dataclasses
import importlib
import os
import re
import subprocess
from pathlib import Path

import qbos

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
MODULES = ("cli", "device", "game", "gcm", "noise", "stats", "statevec")


def test_readme_library_sketch_runs(capsys):
    # the extraction the workflow's smoke run uses on the installed package
    doc = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    exec(re.search(r"```python\n(.*?)```", doc, re.S).group(1), {})
    out = capsys.readouterr().out
    assert "RMSE" in out and out.count("noise scale") == 2


def smoke_block() -> str:
    """The CLI smoke step's `run: |` block, read as YAML reads a literal block:
    its lines up to the first non-blank one with less indent than the first,
    that indent removed, trailing blank lines dropped."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = [line.strip() for line in lines].index("- name: CLI smoke run")
    assert lines[start + 1].strip() == "run: |"
    body = lines[start + 2:]
    indent = len(body[0]) - len(body[0].lstrip(" "))
    block = []
    for line in body:
        if line.strip() and not line.startswith(" " * indent):
            break
        block.append(line[indent:])
    return "\n".join(block).rstrip("\n") + "\n"


def test_readme_smoke_recipe_extracts_the_smoke_block(tmp_path):
    recipe = README.read_text(encoding="utf-8").split("### Running the CI smoke block locally")[1]
    [line] = [line for line in recipe.split("```")[1].splitlines()
              if '> "$tmp/smoke.sh"' in line]
    subprocess.run(["sh", "-c", line], cwd=ROOT, env={**os.environ, "tmp": str(tmp_path)},
                   check=True)
    assert (tmp_path / "smoke.sh").read_text(encoding="utf-8") == smoke_block()


def reference_heads():
    """What a README name may start with: qbos, its modules, the names qbos
    exports and the classes and functions its modules define."""
    heads = {"qbos": qbos}
    for name in MODULES:
        module = importlib.import_module(f"qbos.{name}")
        heads[name] = module
        heads.update({attr: obj for attr, obj in vars(module).items()
                      if getattr(obj, "__module__", None) == module.__name__})
    heads.update({attr: getattr(qbos, attr) for attr in dir(qbos) if not attr.startswith("_")})
    return heads


def resolves(obj, attrs):
    for i, attr in enumerate(attrs):
        if not hasattr(obj, attr):
            # a dataclass field without a class default resolves as the last part
            fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
            return i == len(attrs) - 1 and attr in {f.name for f in fields}
        obj = getattr(obj, attr)
    return True


def test_readme_code_references_resolve():
    heads = reference_heads()
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    # dotted names inside inline code, not a file path's tail such as qbos/device.py
    names = {name for span in spans
             for name in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
             if name.split(".")[0] in heads}
    assert len(names) >= 10  # the scan sees the README's references
    missing = sorted(name for name in names
                     if not resolves(heads[name.split(".")[0]], name.split(".")[1:]))
    assert missing == []
