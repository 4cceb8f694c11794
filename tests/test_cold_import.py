"""A cold import of the package loads no `dataclasses`, `inspect` or `argparse`.

Every command is a fresh process, so what the import loads is paid on each
one.  One fresh interpreter, isolated (`-I`) and without site-packages
(`-S`), so that src/ is the only path beyond the standard library, imports
the package and its CLI module, reports which of the three modules are
loaded, and then runs one command through `cli.main`, which builds the
parser.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import cantorenv, cantorenv.cli
print(cantorenv.__file__, *sorted({"dataclasses", "inspect", "argparse"} & set(sys.modules)),
      file=sys.stderr)
sys.exit(cantorenv.cli.main(["validate", "systems/flip.json"]))
"""


def test_cold_import_loads_no_dataclasses_inspect_or_argparse():
    src = ROOT / "src"
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", CHILD, str(src)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    origin, *loaded = proc.stderr.split()
    assert src in Path(origin).resolve().parents
    assert loaded == []
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
