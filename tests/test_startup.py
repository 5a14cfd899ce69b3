"""What `import xq.cli` loads: the modules it adds to a bare interpreter.

Both interpreters run with -S, so that no `.pth` import of `site` loads a
module before `xq` does and hides it from the comparison."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def loaded(*code: str) -> set[str]:
    out = subprocess.run([sys.executable, "-S", "-c", "; ".join(code + (MODULES,))],
                         capture_output=True, text=True, check=True, timeout=120)
    return set(json.loads(out.stdout))


def test_importing_the_command_line_loads_no_dataclasses_inspect_or_random():
    bare = loaded()
    added = loaded("import sys", f"sys.path.insert(0, {SRC!r})", "import xq.cli") - bare
    assert "xq.cli" in added
    assert added & {"dataclasses", "inspect", "random"} == set()
