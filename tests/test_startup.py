"""Start-up cost of the CLI: importing ``msaconform.cli`` loads no module
that the package does not need. ``dataclasses`` brings ``inspect``, ``ast``,
``dis`` and ``tokenize`` with it, and each ``@dataclass`` compiles its
methods when the class is made; ``html`` loads its table of named entities.
The records are ``typing.NamedTuple`` or slotted classes instead, and the
report escapes text itself. No wall time is asserted: it would be flaky."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# prints the modules that importing msaconform.cli adds to sys.modules
_IMPORT_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import msaconform.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_neither_dataclasses_nor_html():
    # -I: a fresh interpreter that ignores PYTHON* variables and the user's site directory
    out = subprocess.run([sys.executable, "-I", "-c", _IMPORT_CODE, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "msaconform.cli" in loaded  # the diff saw the import
    assert [name for name in loaded if name.split(".")[0] in ("dataclasses", "html")] == []


def test_no_dataclass_in_src():
    """No module of the package imports ``dataclasses`` or decorates a class with it."""
    found = []
    for path in sorted((SRC / "msaconform").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.ClassDef):
                names = [ast.unparse(dec) for dec in node.decorator_list]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if "dataclass" in name]
    assert found == []
