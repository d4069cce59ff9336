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


def test_unreached_lines_lists_lines_two_configurations_never_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "unreached_lines.py"),
                           "aer_abs-1epoch", "csv"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(re.fullmatch(r"src/aer/\w+\.py:\d+: \S.*", line) for line in lines)
    unreached = {line.split(": ", 1)[1] for line in lines}
    # neither configuration aborts or runs GDumb; both validate their config,
    # and single-epoch alternation warns through the CLI's formatter, since
    # the digests show every warning
    assert 'buffer.dump_jsonl(dump / "buffer.jsonl")' in unreached
    assert "gdumb_update(buffer, batch.features, batch.labels, batch.true_labels," in unreached
    assert "spec = resolve_method(cfg.validate().method)" not in unreached
    assert 'return f"warning: {message}\\n"' not in unreached
    assert re.fullmatch(rf"{len(lines)} of \d+ executable lines unreached\n", proc.stderr)
