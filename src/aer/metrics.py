"""Evaluation kit: accuracy matrix, FAA, final forgetting, loss-separation
traces and multi-seed aggregation, plus the CSV/JSONL writers for run
artifacts.
"""

import csv
import json
import math

import numpy as np

from .errors import InputError
from .mlp import per_sample_ce


class AccuracyMatrix:
    """a[j][t]: accuracy on task j's clean test split after training task t.

    Entries with j > t stay undefined (NaN), never zero.
    """

    def __init__(self, num_tasks):
        if num_tasks < 1:
            raise InputError(f"num_tasks must be >= 1, got {num_tasks}")
        self.num_tasks = int(num_tasks)
        self.values = np.full((self.num_tasks, self.num_tasks), np.nan)

    def set_entry(self, j, t, value):
        if not 0 <= j <= t < self.num_tasks:
            raise InputError(f"entry ({j}, {t}) outside the lower staircase")
        if not 0.0 <= value <= 1.0:
            raise InputError(f"accuracy must be in [0, 1], got {value}")
        self.values[j, t] = value

    def final_row(self):
        return self.values[:, self.num_tasks - 1]


def faa(matrix):
    """Final average accuracy: mean over tasks of the last column."""
    final = matrix.final_row()
    if np.any(np.isnan(final)):
        raise InputError("incomplete accuracy matrix: missing final-column entries")
    return float(final.mean())


def final_forgetting(matrix):
    """Mean over tasks of the peak-minus-final accuracy drop.

    For each task j <= T-2, f_j is the maximum accuracy over columns
    j..T-2 minus the final-column accuracy; undefined for T = 1.
    """
    t_count = matrix.num_tasks
    if t_count < 2:
        raise InputError("final forgetting is undefined for a single task")
    final = matrix.final_row()
    if np.any(np.isnan(final)):
        raise InputError("incomplete accuracy matrix: missing final-column entries")
    drops = []
    for j in range(t_count - 1):
        window = matrix.values[j, j:t_count - 1]
        if np.any(np.isnan(window)):
            raise InputError(f"incomplete accuracy matrix: row {j}")
        drops.append(window.max() - final[j])
    return float(np.mean(drops))


def separation_trace(buffer, model):
    """Mean buffer loss of clean vs mislabeled entries under the model.

    Returns (clean_mean, noisy_mean); an empty partition reports None.
    """
    losses = per_sample_ce(model.forward(buffer.features), buffer.labels)
    clean = buffer.labels == buffer.true_labels
    clean_mean = float(losses[clean].mean()) if clean.any() else None
    noisy_mean = float(losses[~clean].mean()) if (~clean).any() else None
    return clean_mean, noisy_mean


def standard_error(values):
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(len(values)))


SUMMARY_COLUMNS = [
    "label", "method", "noise_kind", "noise_rate", "alpha", "consolidation",
    "seeds", "faa_mean", "faa_se", "ff_mean", "ff_se",
    "purity_mean", "purity_se", "diversity_mean", "diversity_se",
]


def summary_row(label, cfg, records):
    """The ``summary.csv`` row of one variant: its config's settings, then
    the mean and standard error of each metric across its same-config
    records; both are None when any record lacks the metric."""
    if not records:
        raise InputError("no records to aggregate")
    key = records[0].config_key
    for r in records[1:]:
        if r.config_key != key:
            raise InputError(
                f"records disagree on config: {r.config_key!r} vs {key!r}")
    row = {"label": label, "method": cfg.method, "noise_kind": cfg.noise_kind,
           "noise_rate": cfg.noise_rate, "alpha": cfg.alpha,
           "consolidation": cfg.consolidation,
           "seeds": ";".join(str(s) for s in cfg.seeds)}
    for name, getter in (("faa", lambda r: r.faa()), ("ff", lambda r: r.ff()),
                         ("purity", lambda r: r.final_purity),
                         ("diversity", lambda r: r.final_diversity)):
        vals = [getter(r) for r in records]
        stats = (None, None) if None in vals else (float(np.mean(vals)),
                                                   standard_error(vals))
        row[f"{name}_mean"], row[f"{name}_se"] = stats
    return row


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary_csv(rows, path):
    """One row per seed-aggregate; column order is fixed and deterministic."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in SUMMARY_COLUMNS])


AUDIT_COLUMNS = ["offered", "offered_clean", "written", "written_clean",
                 "evicted_current", "evicted_current_noisy",
                 "evicted_past", "evicted_past_noisy"]
TRACE_COLUMNS = ["task", "epoch", "mode", "stream_loss", "buffer_clean_loss",
                 "buffer_noisy_loss", "buffer_purity", *AUDIT_COLUMNS]


def write_trace_csv(traces, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for rec in traces:
            writer.writerow([_fmt(rec.get(col)) for col in TRACE_COLUMNS])


def write_trace_jsonl(traces, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in traces:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
