"""Fixed-capacity rehearsal memory and its replacement samplers.

Holds a reservoir baseline, GDumb's greedy class-balanced fill,
percentile-gated insertion, loss-proportional replacement (LASS) and the
asymmetric balanced variant (ABS) that replaces high-loss current-task
entries but low-loss past-task entries, choosing the partition with a
Bernoulli draw on the current task's share of the buffer. Each insertion
policy takes one batch step's candidate rows as arrays in one call.
Reservoir, LASS and ABS admit rows by reservoir sampling, and LASS/ABS
choose only the victim, by cached losses scored under the model that
outlives the step. A step that admits a row first rescores the held
entries under the live model, except in a forgetting epoch, whose drift
the restored checkpoint discards: there the engine rescores once, under
the epoch-start model, and rows written during the epoch keep their
candidate loss (cf. loss-aware reservoir sampling, Buzzega et al., ICPR
2020, which scores an entry when it is inserted, not at every draw).

A batch step of LASS/ABS victim draws keeps its not-yet-replaced slots as
ascending index arrays, one per partition (ABS: current and past task;
LASS: all slots). They are built once, before the step's first draw, and
each drawn slot is cut from its array, so every draw scores the same slots
in the same order as a fresh ``flatnonzero`` over a buffer-sized mask would.
"""

import hashlib
import json
import math
import warnings
from collections import Counter

import numpy as np

from .errors import InputError, NumericalError
from .mlp import per_sample_ce

# one ``dump_jsonl`` line: features, label, true label, task, loss, tick
DUMP_LINE = ('{"features": %s, "label": %s, "true_label": %s, "task": %s, '
             '"loss": %s, "tick": %s}\n')


class MemoryBuffer:
    """Flat-array store of up to ``capacity`` labelled feature vectors.

    Its columns (``features``, read-only, ``labels``, ``true_labels``,
    ``task_ids``, ``losses``, ``ticks``) are the held entries: length-``size``
    views of private storage that ``add`` re-points, so a column read before
    an ``add`` does not see the new entry.
    Cached per-sample losses back every score-based selection; LASS/ABS
    refresh them in each step that draws a victim (``replace_with_candidates``)
    or, in a forgetting epoch, once at its start (``engine.train_task``).
    True labels are carried for purity audits only. ``n_seen`` counts every
    candidate row offered to reservoir and LASS/ABS insertion. ``counts``
    tallies, since the engine last cleared it, every row an insertion
    policy is offered (``offered``, ``offered_clean``), every row written
    (``written``, ``written_clean``) and every entry replaced, as
    ``evicted_current`` when its task is the incoming row's and
    ``evicted_past`` otherwise, each with a ``_noisy`` twin.
    """

    def __init__(self, capacity, dim):
        if capacity < 1:
            raise InputError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.dim = int(dim)
        self._features = np.zeros((self.capacity, self.dim))
        self._labels, self._true_labels, self._task_ids = (
            np.zeros(self.capacity, dtype=np.intp) for _ in range(3))
        self._losses = np.zeros(self.capacity)
        self._ticks = np.zeros(self.capacity, dtype=np.int64)
        self.size = self.n_seen = self._tick = 0
        self.counts = Counter()
        self._feature_text = [None] * self.capacity
        self._view_held()

    def __len__(self):
        return self.size

    def _view_held(self):
        """Point the public columns at the first ``size`` slots."""
        n = self.size
        self.features = self._features[:n]  # read-only: writes go through _write
        self.features.flags.writeable = False
        self.labels, self.true_labels, self.task_ids, self.losses, self.ticks = (
            self._labels[:n], self._true_labels[:n], self._task_ids[:n],
            self._losses[:n], self._ticks[:n])

    def _write(self, i, features, label, true_label, task_id, loss):
        """Store one entry in slot ``i``; the only writer of ``features``,
        so it also drops the slot's cached ``dump_jsonl`` feature text."""
        self._features[i] = features
        self._feature_text[i] = None
        self._labels[i] = label
        self._true_labels[i] = true_label
        self._task_ids[i] = task_id
        self._losses[i] = loss
        self._ticks[i] = self._tick
        self._tick += 1
        self.counts["written"] += 1
        self.counts["written_clean"] += int(label == true_label)

    def add(self, features, label, true_label, task_id, loss):
        if self.size >= self.capacity:
            raise InputError("buffer full; use a replacement policy")
        self._write(self.size, features, label, true_label, task_id, loss)
        self.size += 1
        self._view_held()

    def overwrite(self, i, features, label, true_label, task_id, loss):
        if not 0 <= i < self.size:
            raise InputError(f"slot {i} out of range (size {self.size})")
        kind = "evicted_current" if self.task_ids[i] == task_id else "evicted_past"
        self.counts[kind] += 1
        self.counts[kind + "_noisy"] += int(self.labels[i] != self.true_labels[i])
        self._write(i, features, label, true_label, task_id, loss)

    def refresh_losses(self, model, n=None):
        """Recompute the cached losses of the first n (default all) entries."""
        self.losses[:n] = per_sample_ce(model.forward(self.features[:n]), self.labels[:n])

    def content_hash(self):
        """Digest of entry identities (features, labels, tasks, ticks).

        Cached losses are bookkeeping, not content, and are excluded.
        """
        h = hashlib.sha256()
        h.update(str(self.size).encode())
        for column in (self.features, self.labels, self.true_labels, self.task_ids,
                       self.ticks):
            h.update(column.tobytes())
        return h.hexdigest()

    def dump_jsonl(self, path):
        """One JSON entry per line for offline purity audits.

        Each line is ``DUMP_LINE``: the keys in a fixed order, every
        number as ``json.dumps`` encodes it (a non-finite loss reads
        ``NaN``, ``Infinity`` or ``-Infinity``). A slot's feature text is
        encoded at its first dump after a write and reused until the next.
        """
        texts = self._feature_text
        for i, row in enumerate(self.features):
            if texts[i] is None:
                texts[i] = json.dumps(row.tolist())
        # one encoder call for every loss; no float's text holds ", "
        losses = json.dumps(self.losses.tolist())[1:-1].split(", ")
        columns = (texts[:self.size], self.labels.tolist(), self.true_labels.tolist(),
                   self.task_ids.tolist(), losses, self.ticks.tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(DUMP_LINE % row for row in zip(*columns))


def _append(buffer, features, labels, true_labels, task_ids, losses):
    """Count the candidate rows in ``counts`` (``offered``,
    ``offered_clean``), then append leading rows while the buffer is below
    capacity; returns how many were appended. Every insertion policy starts
    this way."""
    buffer.counts["offered"] += len(features)
    buffer.counts["offered_clean"] += int((labels == true_labels).sum())
    n = min(len(features), buffer.capacity - buffer.size)
    for i in range(n):
        buffer.add(features[i], labels[i], true_labels[i], task_ids[i], losses[i])
    return n


def _admit(buffer, features, labels, true_labels, task_ids, losses, rng):
    """Reservoir admission: append rows below capacity, count each in
    ``n_seen``, then admit the row counted n-th iff ``j = rng.integers(0, n)``
    is below capacity; returns the admitted rows and their ``j``. One draw
    over all the rows' n equals one draw per row, values and generator state."""
    n = _append(buffer, features, labels, true_labels, task_ids, losses)
    slots = rng.integers(0, buffer.n_seen + np.arange(n + 1, len(features) + 1))
    buffer.n_seen += len(features)
    admitted = np.flatnonzero(slots < buffer.capacity)
    return n + admitted, slots[admitted]


def reservoir_update(buffer, features, labels, true_labels, task_ids, losses, rng):
    """Reservoir sampling over the candidate rows in order: each admitted
    row (see ``_admit``) overwrites the slot it drew, a later row winning a
    slot drawn twice."""
    rows, slots = _admit(buffer, features, labels, true_labels, task_ids, losses, rng)
    for i, j in zip(rows, slots):
        buffer.overwrite(int(j), features[i], labels[i], true_labels[i],
                         task_ids[i], losses[i])


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
    return np.argsort(losses, kind="stable")[:k]


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


def _available_slots(buffer, selector, current_task):
    """Ascending slot arrays a victim draw may pick from, and the current
    task's share of the buffer: ``[current, past]`` and that share for ABS,
    ``[all]`` and None otherwise."""
    if selector != "abs":
        return [np.arange(buffer.size)], None
    current = buffer.task_ids == current_task
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
        scores = losses[parts[k]]  # current: loss; past: max - loss
        probs = _score_probabilities(scores if k == 0 else scores.max() - scores)
    else:
        raise InputError(f"unknown selector {selector!r}")
    cdf = probs.cumsum()
    if not 0.0 < cdf[-1] < math.inf or probs.min() < 0.0:
        raise NumericalError(f"{selector} victim draw: probabilities are not "
                             "finite and non-negative; check the cached losses")
    cdf /= cdf[-1]
    return k, int(cdf.searchsorted(rng.random(), side="right"))


def replace_with_candidates(buffer, features, labels, true_labels, task_ids,
                            losses, selector, current_task, rng, model=None):
    """Insert the rows that ``_admit`` admits, each over a victim slot the
    selector draws without replacement within this batch step; if admitted
    rows outnumber the slots, only the last capacity-many are drawn and
    written. Once a row is admitted, the entries held before the call are
    rescored under ``model`` (if given); rows appended by the call keep their
    candidate loss."""
    held = buffer.size
    rows, _ = _admit(buffer, features, labels, true_labels, task_ids, losses, rng)
    if not len(rows):
        return
    if model is not None and held:
        buffer.refresh_losses(model, held)
    # built before any slot of the full buffer is overwritten; overwritten
    # slots leave the arrays, so their new task ids never reach a draw
    parts, p_current = _available_slots(buffer, selector, current_task)
    for i in rows[-buffer.capacity:]:
        k, j = _draw_slot(buffer, selector, rng, parts, p_current)
        slot = int(parts[k][j])
        parts[k] = np.concatenate((parts[k][:j], parts[k][j + 1:]))
        buffer.overwrite(slot, features[i], labels[i], true_labels[i],
                         task_ids[i], losses[i])


def gdumb_update(buffer, features, labels, true_labels, task_ids, losses, rng):
    """Greedy class-balanced fill over the candidate rows in order: once the
    buffer is full, a row outside its most numerous classes overwrites a
    random entry of a random one of them; any other row is dropped."""
    n = _append(buffer, features, labels, true_labels, task_ids, losses)
    for i in range(n, len(features)):
        counts = np.bincount(buffer.labels, minlength=labels[i] + 1)
        max_count = counts.max()
        if counts[labels[i]] >= max_count:
            continue
        biggest = np.flatnonzero(counts == max_count)
        victim_class = biggest[int(rng.integers(len(biggest)))]
        slots = np.flatnonzero(buffer.labels == victim_class)
        slot = int(slots[int(rng.integers(len(slots)))])
        buffer.overwrite(slot, features[i], labels[i], true_labels[i],
                         task_ids[i], losses[i])


def purity(buffer):
    """Fraction of entries whose stored label matches the true label."""
    if len(buffer) == 0:
        raise InputError("buffer is empty")
    return float((buffer.labels == buffer.true_labels).mean())


def diversity(buffer, reference_model):
    """Frequency-weighted intra-class spread of reference-model features.

    Per stored-label class: the mean over feature coordinates of the
    standard deviation of penultimate-layer activations across that
    class's entries. Classes with fewer than two entries count 0 (warned).
    """
    if len(buffer) == 0:
        raise InputError("buffer is empty")
    feats = reference_model.penultimate(buffer.features)
    overall = 0.0
    for c in np.flatnonzero(np.bincount(buffer.labels)):
        mask = buffer.labels == c
        if mask.sum() < 2:
            warnings.warn(f"class {int(c)} has < 2 buffer entries; diversity 0")
            continue
        overall += mask.sum() / buffer.size * float(feats[mask].std(axis=0).mean())
    return float(overall)
