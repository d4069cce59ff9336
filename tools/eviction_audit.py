"""Audit which entries the ABS and LASS selectors evict, split by partition.

Wraps the engine's ``replace_with_candidates`` (to learn the current task)
and ``buffer._draw_slot`` (to see every victim), then runs the standard
benchmark configuration per seed and prints, for each selector:

- per draw kind (past-task / current-task victim): the noisy share of the
  evicted entries and the mean noisy share of that partition at draw time;
- buffer purity of the current-task and past-task partitions at task ends
  (mean over task ends, median over seeds).

Run from the repository root::

    PYTHONPATH=src python tools/eviction_audit.py --seeds 0,1,2,3,4 --noise 0.4

Outputs are unchanged by the audit: the wrappers only read buffer state.
"""

import argparse
import inspect

import numpy as np

from aer import buffer as buffer_mod
from aer import engine
from aer.config import RunConfig


def audit(method, noise_rate, seeds):
    state = {"task": None}
    draws = {True: [], False: []}  # is-current -> [(evicted noisy, partition noisy share)]
    ends = {True: [], False: []}   # is-current -> per-seed lists of task-end purities
    real_replace, real_draw = engine.replace_with_candidates, buffer_mod._draw_slot
    signature = inspect.signature(real_replace)

    def replace(*args, **kwargs):
        state["task"] = signature.bind(*args, **kwargs).arguments["current_task"]
        return real_replace(*args, **kwargs)

    def draw(buffer, selector, rng, parts, p_current):
        k, j = real_draw(buffer, selector, rng, parts, p_current)
        slot = parts[k][j]
        size = buffer.size
        noisy = buffer.labels[:size] != buffer.true_labels[:size]
        is_cur = buffer.task_ids[:size] == state["task"]
        available = np.concatenate(parts)
        part = available[is_cur[available] == is_cur[slot]]
        draws[bool(is_cur[slot])].append((bool(noisy[slot]),
                                          float(noisy[part].mean())))
        return k, j

    engine.replace_with_candidates, buffer_mod._draw_slot = replace, draw
    try:
        cfg = RunConfig(method=method, noise_rate=noise_rate,
                        seeds=tuple(seeds)).validate()
        for seed in seeds:
            per_seed = {True: [], False: []}

            def on_task_end(t, model, buf):
                size = buf.size
                clean = buf.labels[:size] == buf.true_labels[:size]
                tasks = buf.task_ids[:size]
                for is_cur, mask in ((True, tasks == t), (False, tasks < t)):
                    if mask.any():
                        per_seed[is_cur].append(float(clean[mask].mean()))

            engine.run_single(cfg, seed, on_task_end=on_task_end)
            for is_cur in (True, False):
                ends[is_cur].append(float(np.mean(per_seed[is_cur])))
    finally:
        engine.replace_with_candidates, buffer_mod._draw_slot = real_replace, real_draw
    return draws, ends


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--noise", type=float, default=0.4)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for method in ("aer_abs", "aer_lass"):
        draws, ends = audit(method, args.noise, seeds)
        for is_cur, name in ((False, "past-task"), (True, "current-task")):
            rows = np.array(draws[is_cur], dtype=float).reshape(-1, 2)
            evicted, partition = rows.mean(axis=0) if len(rows) else (np.nan, np.nan)
            print(f"{method} {name} draws={len(rows)} "
                  f"noisy share of evicted {evicted:.3f}, "
                  f"noisy share of partition {partition:.3f}, "
                  f"task-end purity {np.median(ends[is_cur]):.3f}")


if __name__ == "__main__":
    main()
