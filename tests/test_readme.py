"""The README's library quick-start runs as written."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_quick_start_runs(subprocess_env, tmp_path):
    (code,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["truth", "amplified", "empirical"]
