import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_path_digests_prints_one_stable_digest_per_configuration():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "tools" / "path_digests.py"), "aer_abs-1epoch", "csv",
           "abort"]
    runs = [subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=120) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["aer_abs-1epoch", "csv", "abort"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert runs[1].stdout == runs[0].stdout
