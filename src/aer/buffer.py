"""Fixed-capacity rehearsal memory and its replacement samplers.

Holds a reservoir baseline, percentile-gated insertion, loss-proportional
replacement (LASS) and the asymmetric balanced variant (ABS) that replaces
high-loss current-task entries but low-loss past-task entries, choosing the
partition with a Bernoulli draw on the current task's share of the buffer.

A batch step of LASS/ABS victim draws keeps its not-yet-replaced slots as
ascending index arrays, one per partition (ABS: current and past task;
LASS: all slots). They are built once at the step's first replacement and
each drawn slot is cut from its array, so no draw rebuilds a buffer-sized
mask.
"""

import hashlib
import json
import math
import warnings

import numpy as np

from .errors import InputError, NumericalError
from .mlp import per_sample_ce


class MemoryBuffer:
    """Flat-array store of up to ``capacity`` labelled feature vectors.

    Cached per-sample losses back every score-based selection and must be
    refreshed (``refresh_losses``) before the scores are consumed. True
    labels are carried for purity audits only.
    """

    def __init__(self, capacity, dim):
        if capacity < 1:
            raise InputError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self.features = np.zeros((self.capacity, self.dim))
        self.labels = np.zeros(self.capacity, dtype=np.intp)
        self.true_labels = np.zeros(self.capacity, dtype=np.intp)
        self.task_ids = np.full(self.capacity, -1, dtype=np.intp)
        self.losses = np.zeros(self.capacity)
        self.ticks = np.zeros(self.capacity, dtype=np.int64)
        self.size = 0
        self.n_seen = 0
        self._tick = 0

    def __len__(self):
        return self.size

    def _write(self, i, features, label, true_label, task_id, loss):
        self.features[i] = features
        self.labels[i] = label
        self.true_labels[i] = true_label
        self.task_ids[i] = task_id
        self.losses[i] = loss
        self.ticks[i] = self._tick
        self._tick += 1

    def add(self, features, label, true_label, task_id, loss):
        if self.size >= self.capacity:
            raise InputError("buffer full; use a replacement policy")
        self._write(self.size, features, label, true_label, task_id, loss)
        self.size += 1
        return self.size - 1

    def overwrite(self, i, features, label, true_label, task_id, loss):
        if not 0 <= i < self.size:
            raise InputError(f"slot {i} out of range (size {self.size})")
        self._write(i, features, label, true_label, task_id, loss)

    def task_counts(self):
        ids, counts = np.unique(self.task_ids[:self.size], return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def refresh_losses(self, model):
        """Recompute cached losses of all entries under the given model."""
        if self.size == 0:
            return
        logits = model.forward(self.features[:self.size])
        self.losses[:self.size] = per_sample_ce(logits, self.labels[:self.size])

    def content_hash(self):
        """Digest of entry identities (features, labels, tasks, ticks).

        Cached losses are bookkeeping, not content, and are excluded.
        """
        h = hashlib.sha256()
        h.update(str(self.size).encode())
        h.update(np.ascontiguousarray(self.features[:self.size]).tobytes())
        h.update(np.ascontiguousarray(self.labels[:self.size]).tobytes())
        h.update(np.ascontiguousarray(self.true_labels[:self.size]).tobytes())
        h.update(np.ascontiguousarray(self.task_ids[:self.size]).tobytes())
        h.update(np.ascontiguousarray(self.ticks[:self.size]).tobytes())
        return h.hexdigest()

    def dump_jsonl(self, path):
        """One JSON entry per line for offline purity audits."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(self.size):
                fh.write(json.dumps({
                    "features": self.features[i].tolist(),
                    "label": int(self.labels[i]),
                    "true_label": int(self.true_labels[i]),
                    "task": int(self.task_ids[i]),
                    "loss": float(self.losses[i]),
                    "tick": int(self.ticks[i]),
                }) + "\n")


def reservoir_update(buffer, features, label, true_label, task_id, loss, rng):
    """Classic reservoir sampling: item n is kept with probability m/n."""
    buffer.n_seen += 1
    if buffer.size < buffer.capacity:
        buffer.add(features, label, true_label, task_id, loss)
        return
    j = int(rng.integers(0, buffer.n_seen))
    if j < buffer.capacity:
        buffer.overwrite(j, features, label, true_label, task_id, loss)


def insertion_candidates(losses, alpha):
    """Indices of the floor((1 - alpha/100) * n) lowest-loss batch samples.

    ``alpha`` is the percentage of the batch excluded from insertion;
    alpha 100 yields no candidates, alpha 0 keeps the whole batch. Ties
    break toward the lower index.
    """
    if not 0 <= alpha <= 100:
        raise InputError(f"alpha must be in [0, 100], got {alpha}")
    losses = np.asarray(losses, dtype=np.float64)
    n = len(losses)
    k = int(math.floor((100.0 - alpha) / 100.0 * n + 1e-9))
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(losses, kind="stable")
    return order[:k]


def _score_probabilities(scores):
    """Normalize nonnegative scores; all-zero scores fall back to uniform.

    The uniform fallback replaces an additive epsilon floor so that
    well-posed distributions come out exact (e.g. losses [1, 3] give
    probabilities [0.25, 0.75] with no epsilon bias).
    """
    scores = np.asarray(scores, dtype=np.float64)
    total = scores.sum()
    if total <= 0.0:
        return np.full(len(scores), 1.0 / len(scores))
    return scores / total


def lass_scores(buffer):
    """Loss-proportional replacement distribution over all entries."""
    if len(buffer) == 0:
        raise InputError("buffer is empty")
    return _score_probabilities(buffer.losses[:buffer.size])


def _abs_partition_probs(losses, is_current):
    """Within-partition scores: loss for current, (max - loss) for past."""
    if is_current:
        return _score_probabilities(losses)
    return _score_probabilities(losses.max() - losses)


def abs_select(buffer, current_task, rng):
    """Draw one entry index to replace under asymmetric balanced sampling.

    The partition (current vs past task) is chosen by a Bernoulli draw with
    P(current) = |current entries| / |buffer|; an empty chosen partition
    falls back to the other. Within the current partition the replacement
    probability grows with loss, within the past partition it shrinks.
    """
    if len(buffer) == 0:
        raise InputError("buffer is empty")
    parts, p_current = _available_slots(buffer, "abs", current_task)
    k, j = _draw_slot(buffer, "abs", rng, parts, p_current)
    return int(parts[k][j])


def _available_slots(buffer, selector, current_task):
    """Ascending slot arrays a victim draw may pick from, and the current
    task's share of the buffer: ``[current, past]`` and that share for ABS,
    ``[all]`` and None otherwise."""
    if selector != "abs":
        return [np.arange(buffer.size)], None
    current = buffer.task_ids[:buffer.size] == current_task
    cur = np.flatnonzero(current)
    return [cur, np.flatnonzero(~current)], len(cur) / buffer.size


def _draw_slot(buffer, selector, rng, parts, p_current):
    """One victim among the slot arrays ``parts`` (see ``_available_slots``);
    returns ``(k, j)``, the victim being ``parts[k][j]``.

    ABS picks the current partition (k = 0) with probability ``p_current``
    and falls back to the other one when the pick is empty. The draw inverts
    the cumulative probabilities at one ``rng.random()``, which selects the
    same index as ``rng.choice(len(probs), p=probs)`` and leaves ``rng`` in
    the same state.
    """
    losses = buffer.losses
    if selector == "lass":
        k = 0
        probs = _score_probabilities(losses[parts[0]])
    elif selector == "abs":
        k = 0 if rng.random() < p_current else 1
        if not len(parts[k]):
            k = 1 - k
        probs = _abs_partition_probs(losses[parts[k]], k == 0)
    else:
        raise InputError(f"unknown selector {selector!r}")
    cdf = probs.cumsum()
    if not 0.0 < cdf[-1] < math.inf or probs.min() < 0.0:
        raise NumericalError(f"{selector} victim draw: probabilities are not "
                             "finite and non-negative; check the cached losses")
    cdf /= cdf[-1]
    return k, int(cdf.searchsorted(rng.random(), side="right"))


def replace_with_candidates(buffer, features, labels, true_labels, task_ids,
                            losses, selector, current_task, rng):
    """Insert gated candidates, drawing victim slots via the selector.

    Below capacity the candidates are appended (reservoir-style fill). At
    capacity each candidate draws one slot without replacement within this
    batch step; if candidates outnumber the slots, later candidates recycle
    the earliest-replaced slots so the most recent capacity-many candidates
    stay resident. Scores derive from the cached losses refreshed at the
    start of the step.

    The available-slot arrays and the partition Bernoulli probability are
    built once, at the first replacement of the step, and each drawn slot
    is then cut from its array in place, so the arrays stay ascending and
    every draw scores the same subset in the same order as a fresh
    ``flatnonzero`` over the not-yet-replaced slots would.
    """
    n = len(features)
    parts = p_current = None
    replaced = []
    overflow = 0
    for i in range(n):
        if buffer.size < buffer.capacity:
            buffer.add(features[i], labels[i], true_labels[i], task_ids[i], losses[i])
            continue
        if len(replaced) >= buffer.capacity:
            slot = replaced[overflow % buffer.capacity]
            overflow += 1
        else:
            if parts is None:
                # built before any slot of the full buffer is overwritten;
                # overwritten slots leave the arrays, so their new task ids
                # never reach a draw
                parts, p_current = _available_slots(buffer, selector, current_task)
            k, j = _draw_slot(buffer, selector, rng, parts, p_current)
            part = parts[k]
            slot = int(part[j])
            parts[k] = np.concatenate((part[:j], part[j + 1:]))
            replaced.append(slot)
        buffer.overwrite(slot, features[i], labels[i], true_labels[i],
                         task_ids[i], losses[i])


def gdumb_update(buffer, features, label, true_label, task_id, rng):
    """Greedy class-balanced fill: evict from the most numerous class."""
    if buffer.size < buffer.capacity:
        buffer.add(features, label, true_label, task_id, 0.0)
        return
    labels = buffer.labels[:buffer.size]
    classes, counts = np.unique(labels, return_counts=True)
    own = counts[classes == label]
    max_count = counts.max()
    if own.size and own[0] >= max_count:
        return
    biggest = classes[counts == max_count]
    victim_class = biggest[int(rng.integers(len(biggest)))]
    slots = np.flatnonzero(labels == victim_class)
    slot = int(slots[int(rng.integers(len(slots)))])
    buffer.overwrite(slot, features, label, true_label, task_id, 0.0)


def purity(buffer):
    """Fraction of entries whose stored label matches the true label.

    Returns (overall, per-class dict); empty stored-label classes are
    excluded from the per-class report.
    """
    if len(buffer) == 0:
        raise InputError("buffer is empty")
    stored = buffer.labels[:buffer.size]
    true = buffer.true_labels[:buffer.size]
    per_class = {}
    for c in np.unique(stored):
        mask = stored == c
        per_class[int(c)] = float((true[mask] == c).mean())
    return float((stored == true).mean()), per_class


def diversity(buffer, reference_model):
    """Frequency-weighted intra-class spread of reference-model features.

    Per stored-label class: the mean over feature coordinates of the
    standard deviation of penultimate-layer activations across that
    class's entries. Classes with fewer than two entries report 0.
    """
    if len(buffer) == 0:
        raise InputError("buffer is empty")
    stored = buffer.labels[:buffer.size]
    feats = reference_model.penultimate(buffer.features[:buffer.size])
    per_class = {}
    overall = 0.0
    for c in np.unique(stored):
        mask = stored == c
        if mask.sum() < 2:
            warnings.warn(f"class {int(c)} has < 2 buffer entries; diversity 0")
            value = 0.0
        else:
            value = float(feats[mask].std(axis=0).mean())
        per_class[int(c)] = value
        overall += mask.sum() / buffer.size * value
    return float(overall), per_class
