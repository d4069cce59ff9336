"""List the executable ``aer`` source lines that no path-digest configuration runs.

Traces ``tools/path_digests.py``'s configurations line by line with
``sys.settrace`` (standard library only), starting before ``aer`` is
imported so that module-level lines count, and prints
``<file>:<line>: <source>`` for each line that carries bytecode but never
ran, then a count on stderr. A line listed here is either dead code or a
path the digests leave uncovered; tests may still reach it.

Run from the repository root::

    PYTHONPATH=src python tools/unreached_lines.py [NAME ...]
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import sys
from pathlib import Path


def executable_lines(path):
    """Line numbers that carry bytecode in the module at ``path``."""
    lines, codes = set(), [compile(Path(path).read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(names, package_dir):
    """Run the named configurations (all when empty) under a line tracer;
    returns ``{filename: set of line numbers run}`` for ``package_dir``."""
    prefix = os.path.join(str(package_dir), "")
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.settrace(on_call)
    try:
        path_digests = importlib.import_module("path_digests")
        with contextlib.redirect_stdout(io.StringIO()):
            path_digests.main(names)
    finally:
        sys.settrace(None)
    return hits


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="path_digests configurations to run (default all)")
    args = parser.parse_args(argv)
    spec = importlib.util.find_spec("aer")
    if spec is None:
        parser.error("aer is not importable; run with PYTHONPATH=src")
    package_dir = Path(spec.submodule_search_locations[0])
    hits = run_traced(args.names, package_dir)
    unreached = total = 0
    for path in sorted(package_dir.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - hits.get(str(path), set())):
            unreached += 1
            print(f"{os.path.relpath(path)}:{line}: {source[line - 1].strip()}")
    print(f"{unreached} of {total} executable lines unreached", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
