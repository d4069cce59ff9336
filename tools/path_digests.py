"""One output digest per CLI path, for byte-identity checks across changes.

Runs small configurations through ``aer.cli.main`` in this process and
prints ``<name> <sha256>`` per configuration. Each digest covers every
output file except ``manifest.json`` (it carries a timestamp), by relative
path and content, plus the command's stdout with the output directory
masked. Together the configurations cover the paths the benchmark
workloads leave out: every method, both consolidation modes, single-epoch
and odd-epoch alternation, ``sweep-alpha``, ``ablate``, CSV datasets and
asymmetric noise.

Run from the repository root, on each side of a change, and compare::

    PYTHONPATH=src python tools/path_digests.py [NAME ...]
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

from aer.cli import main as aer_main
from aer.config import PRESETS
from aer.stream import make_synthetic, save_csv

BASE = {
    "run": {"method": "aer_abs", "batch_size": "16", "epochs_per_task": "4",
            "buffer_capacity": "100", "seeds": "0,1"},
    "dataset": {"classes": "10", "dims": "8", "per_class": "60", "tasks": "5"},
    "noise": {"kind": "symmetric", "rate": "0.4"},
}

# name -> (command arguments, INI overrides {(section, key): value})
CONFIGS = {f"run-{m}": (["run"], {("run", "method"): m}) for m in PRESETS}
CONFIGS.update({
    "buffer_fit": (["run"], {("run", "consolidation"): "buffer_fit"}),
    "mixmatch": (["run"], {("run", "consolidation"): "mixmatch",
                           ("consolidation", "epochs"): "3"}),
    "aer_abs-1epoch": (["run"], {("run", "epochs_per_task"): "1"}),
    "aer_lass-3epoch": (["run"], {("run", "method"): "aer_lass",
                                  ("run", "epochs_per_task"): "3"}),
    "sweep-alpha": (["sweep-alpha", "--alphas", "0,50,90"], {}),
    "ablate": (["ablate"], {}),
    "csv": (["run"], {("dataset", "kind"): "csv"}),
    "asymmetric": (["run"], {("noise", "kind"): "asymmetric"}),
})


def _write_ini(path, overrides, csv_path):
    sections = {s: dict(kv) for s, kv in BASE.items()}
    for (section, key), value in overrides.items():
        sections.setdefault(section, {})[key] = value
    if sections["dataset"].get("kind") == "csv":
        sections["dataset"] = {"kind": "csv", "path": str(csv_path), "tasks": "5"}
    path.write_text("".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in sections.items()))


def digest(name, command, overrides, work):
    """Run one configuration under ``work``; returns its sha256 hex digest."""
    csv_path = work / "data.csv"
    if not csv_path.exists():
        save_csv(make_synthetic(10, 8, 60, 1.0, 5), csv_path)
    ini, out = work / f"{name}.ini", work / name
    _write_ini(ini, overrides, csv_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = aer_main([command[0], "--config", str(ini), "--out", str(out),
                         *command[1:]])
    if code != 0:
        raise SystemExit(f"{name}: aer exited {code}")
    h = hashlib.sha256(stdout.getvalue().replace(str(out), "<out>").encode())
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"configurations to run (default all: {', '.join(CONFIGS)})")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in CONFIGS]
    if unknown:
        parser.error(f"unknown configuration(s): {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names or CONFIGS:
            command, overrides = CONFIGS[name]
            print(name, digest(name, command, overrides, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
