"""One output digest per CLI path, for byte-identity checks across changes.

Runs small configurations through ``aer.cli.main`` in this process, from
inside a temporary directory so that every path is relative, and prints
``<name> <sha256>`` per configuration. Each digest covers every output
file by relative path and content (``manifest.json`` without its
``created_utc`` timestamp, so the resolved config and its hash count) plus
the command's stdout and stderr. Every warning is shown (filter
``"always"``), so each one reaches the hashed stderr as a
``warning: <message>`` line, whatever configurations ran before it.
Together the configurations cover the paths the benchmark workloads leave
out: every method, both consolidation modes and mixmatch's fallback to
``buffer_fit`` on a buffer too small to split, single-epoch and odd-epoch
alternation, a single task (whose summary leaves the ``ff`` columns
empty), ``sweep-alpha``, ``ablate`` (``gate-closed`` at alpha 100, whose
gate admits nothing), the ``--seeds`` flag, CSV datasets, symmetric and
asymmetric noise over 2- and 5-class tasks, and reservoir/GDumb/ABS
buffers smaller than a batch; ``all-keys`` sets every INI key to a valid
non-default value, ``abort`` (learning rate 100) diverges in its second
task and exits 3, leaving a numerical-abort state dump (``model.ckpt``,
``buffer.jsonl``, ``context.json``), as ``abort-invalid`` (learning rate
1e6, whose matmuls meet invalid values) does, and as ``ablate-abort``
(``ablate`` at learning rate 1e12, whose dump is the first write into
``er/``) and ``gdumb-abort`` (GDumb's buffer fit at learning rate 1e6, whose
dump holds the model being fit) do; ``csv-gap`` reads a CSV without
class 2, ``csv-label-max`` one whose every label is 2**63 - 1 and
``csv-not-utf8`` one with a byte that is not UTF-8, and all three exit 4.
Each configuration declares the exit code it must end with.

Run from the repository root, on each side of a change, and compare::

    PYTHONPATH=src python tools/path_digests.py [NAME ...]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
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

# name -> (command arguments, INI overrides {(section, key): value}, exit code)
CONFIGS = {f"run-{m}": (["run"], {("run", "method"): m}, 0) for m in PRESETS}
CONFIGS.update({
    "buffer_fit": (["run"], {("run", "consolidation"): "buffer_fit"}, 0),
    "mixmatch": (["run"], {("run", "consolidation"): "mixmatch",
                           ("consolidation", "epochs"): "3"}, 0),
    # fewer than 4 buffer entries: mixmatch falls back to buffer_fit
    "mixmatch-buffer3": (["run"], {("run", "consolidation"): "mixmatch",
                                   ("run", "buffer_capacity"): "3",
                                   ("consolidation", "epochs"): "3"}, 0),
    "aer_abs-1epoch": (["run"], {("run", "epochs_per_task"): "1"}, 0),
    # one task: final forgetting is undefined, so the summary's ff columns are empty
    "one-task": (["run"], {("dataset", "tasks"): "1"}, 0),
    "aer_lass-3epoch": (["run"], {("run", "method"): "aer_lass",
                                  ("run", "epochs_per_task"): "3"}, 0),
    "sweep-alpha": (["sweep-alpha", "--alphas", "0,50,90"], {}, 0),
    # a buffer smaller than one batch: a single insertion call fills it,
    # then draws slots, some of them more than once
    "er-buffer8": (["run"], {("run", "method"): "er", ("run", "buffer_capacity"): "8"}, 0),
    "gdumb-buffer8": (["run"], {("run", "method"): "gdumb",
                                ("run", "buffer_capacity"): "8"}, 0),
    # one ABS step admits more rows than the capacity, so only the last
    # capacity-many admitted rows draw victims
    "abs-buffer2": (["run"], {("run", "buffer_capacity"): "2", ("run", "alpha"): "0"}, 0),
    "ablate": (["ablate"], {}, 0),
    # alpha 100: every gated rung offers no candidates in any batch and ends
    # with an empty buffer
    "gate-closed": (["ablate"], {("run", "alpha"): "100"}, 0),
    "seeds-flag": (["run", "--seeds", "1,0"], {}, 0),
    "csv": (["run"], {("dataset", "kind"): "csv", ("dataset", "path"): "data.csv"}, 0),
    # labels 0-9 without 2: a data error naming the class
    "csv-gap": (["run"], {("dataset", "kind"): "csv", ("dataset", "path"): "gap.csv"}, 4),
    # every label 2**63 - 1: a data error naming class 0
    "csv-label-max": (["run"], {("dataset", "kind"): "csv",
                                ("dataset", "path"): "label_max.csv"}, 4),
    # a 0xff byte on the third data line: a data error naming line 4
    "csv-not-utf8": (["run"], {("dataset", "kind"): "csv",
                               ("dataset", "path"): "not_utf8.csv"}, 4),
    "asymmetric": (["run"], {("noise", "kind"): "asymmetric"}, 0),
    # 5-class tasks: a symmetric flip draws among four options, and an
    # asymmetric one among the members of a 3+2 superclass split
    "symmetric-5way": (["run"], {("dataset", "tasks"): "2"}, 0),
    "asymmetric-5way": (["run"], {
        ("dataset", "tasks"): "2", ("noise", "kind"): "asymmetric",
        ("noise", "superclasses"): "0:0,1:0,2:0,3:1,4:1,5:2,6:2,7:2,8:3,9:3"}, 0),
    "all-keys": (["run"], {
        ("run", "method"): "aer_lass", ("run", "lr"): "0.05", ("run", "momentum"): "0.5",
        ("run", "batch_size"): "12", ("run", "epochs_per_task"): "3",
        ("run", "buffer_capacity"): "60", ("run", "alpha"): "60", ("run", "seeds"): "2,1",
        ("run", "consolidation"): "mixmatch", ("run", "hidden"): "16,8",
        ("run", "gdumb_fit_epochs"): "5", ("run", "gdumb_fit_lr"): "0.1",
        ("dataset", "kind"): "csv", ("dataset", "classes"): "6", ("dataset", "dims"): "4",
        ("dataset", "per_class"): "20", ("dataset", "cluster_spread"): "1.5",
        ("dataset", "tasks"): "2", ("dataset", "test_fraction"): "0.25",
        ("dataset", "seed"): "99", ("dataset", "path"): "data.csv",
        ("dataset", "standardize"): "false",
        ("noise", "kind"): "asymmetric", ("noise", "rate"): "0.3", ("noise", "seed"): "5",
        ("noise", "superclasses"): "0:0,1:0,2:0,3:1,4:1,5:2,6:2,7:3,8:3,9:3",
        ("consolidation", "epochs"): "3", ("consolidation", "lr"): "0.02",
        ("consolidation", "batch_size"): "16", ("consolidation", "lambda_u"): "0.1",
        ("consolidation", "temperature"): "0.4", ("consolidation", "mixup_alpha"): "0.5",
        ("consolidation", "threshold"): "0.6", ("consolidation", "num_augments"): "2",
        ("consolidation", "augment_strength"): "0.2"}, 0),
    "abort": (["run"], {("run", "lr"): "100"}, 3),
    # diverges to NaN: an invalid value in a matmul, then the numerical abort
    "abort-invalid": (["run"], {("run", "lr"): "1e6"}, 3),
    # the first variant aborts before any write, so its state dump makes out/er/
    "ablate-abort": (["ablate"], {("run", "lr"): "1e12"}, 3),
    # GDumb's fit on the buffer diverges: the dump holds the model being fit
    "gdumb-abort": (["run"], {("run", "method"): "gdumb", ("run", "gdumb_fit_lr"): "1e6"}, 3),
})


def _write_ini(path, overrides):
    sections = {s: dict(kv) for s, kv in BASE.items()}
    for (section, key), value in overrides.items():
        sections.setdefault(section, {})[key] = value
    path.write_text("".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in sections.items()))


def digest(name, command, overrides, expected_code):
    """Run one configuration in the current directory; returns its sha256
    hex digest."""
    csv_path = Path("data.csv")
    if not csv_path.exists():
        data = make_synthetic(10, 8, 60, 1.0, 5)
        save_csv(data, csv_path)
        save_csv(data.subset(data.labels_true != 2), Path("gap.csv"))
        lines = csv_path.read_bytes().split(b"\n")
        Path("label_max.csv").write_bytes(b"\n".join(
            lines[:1] + [line.rsplit(b",", 1)[0] + b",9223372036854775807"
                         for line in lines[1:-1]] + [b""]))
        lines[3] = lines[3].replace(b",", b",\xff", 1)
        Path("not_utf8.csv").write_bytes(b"\n".join(lines))
    ini, out = Path(f"{name}.ini"), Path(name)
    _write_ini(ini, overrides)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        code = aer_main([command[0], "--config", str(ini), "--out", str(out),
                         *command[1:]])
    if code != expected_code:
        raise SystemExit(f"{name}: aer exited {code}, expected {expected_code}: "
                         f"{stderr.getvalue()}")
    h = hashlib.sha256(stdout.getvalue().encode())
    h.update(stderr.getvalue().encode())
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                del manifest["created_utc"]
                data = json.dumps(manifest, sort_keys=True).encode()
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(data)
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"configurations to run (default all: {', '.join(CONFIGS)})")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in CONFIGS]
    if unknown:
        parser.error(f"unknown configuration(s): {', '.join(unknown)}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in args.names or CONFIGS:
                print(name, digest(name, *CONFIGS[name]), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
