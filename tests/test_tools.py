import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_eviction_audit_runs_and_counts_draws():
    """``tools/eviction_audit.py`` re-declares ``_draw_slot``'s signature;
    a drift there would make its wrapper fail or see no draws."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "eviction_audit.py"),
                           "--seeds", "0"], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    draws = re.findall(r"^(aer_abs|aer_lass) (past|current)-task draws=(\d+) ",
                       proc.stdout, flags=re.M)
    assert len(draws) == 4, proc.stdout
    assert all(int(n) > 0 for *_, n in draws), proc.stdout
