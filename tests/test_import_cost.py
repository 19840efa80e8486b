"""What a fresh interpreter pays to import the CLI.

The records write their constructors in plain source, so the import is
served from the modules' bytecode and compiles no source text at run time.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_compiles_no_spinact_source():
    # the frame just below the hook is the direct caller of compile();
    # importlib's own compiles of a missing .pyc come from frozen modules
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "callers = []\n"
        "def hook(event, args):\n"
        "    if event == 'compile':\n"
        "        callers.append(sys._getframe(1).f_code.co_filename)\n"
        "sys.addaudithook(hook)\n"
        "import spinact.cli\n"
        "spinact.cli.build_parser()\n"
        "print(json.dumps(callers))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    package = SRC / "spinact"
    callers = [Path(name) for name in json.loads(proc.stdout)]
    assert [name for name in callers if name.resolve().is_relative_to(package)] == []
