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


def test_path_digests_prints_one_stable_digest_per_configuration():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "tools" / "path_digests.py"), "aer_abs-1epoch", "csv"]
    runs = [subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=120) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["aer_abs-1epoch", "csv"]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert runs[1].stdout == runs[0].stdout
