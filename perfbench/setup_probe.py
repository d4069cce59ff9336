"""The fixed cost of an aer run before its first task, in its own process.

Imports aer, loads the config, prepares the first seed's data and trains
the diversity reference model, then prints one JSON line describing the
numeric environment (numpy and its BLAS build, thread variables, CPUs)::

    python3 perfbench/setup_probe.py CONFIG.ini
"""

import json
import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def blas_build(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def main(config_path):
    import numpy

    from aer.config import load_config
    from aer.engine import prepare_data, train_reference

    cfg = load_config(config_path)
    prepare_data(cfg, cfg.seeds[0])
    train_reference(cfg)
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build(numpy),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
