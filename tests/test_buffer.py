import math
import warnings

import numpy as np
import pytest

from aer.buffer import (MemoryBuffer, _append, _available_slots, _draw_slot,
                        _score_probabilities, diversity, gdumb_update,
                        insertion_candidates, purity, replace_with_candidates,
                        reservoir_update)
from aer.errors import InputError, NumericalError
from aer.mlp import MLP, per_sample_ce


def filled_buffer(losses, tasks=None, capacity=None, true_labels=None, dim=2):
    losses = list(losses)
    buf = MemoryBuffer(capacity or len(losses), dim)
    for i, loss in enumerate(losses):
        task = tasks[i] if tasks is not None else 0
        true = true_labels[i] if true_labels is not None else i % 2
        buf.add(np.full(dim, float(i)), i % 2, true, task, loss)
    return buf


def scalar_rows(values, labels=0, tasks=0):
    """Candidate row arrays of 1-d features ``values``; labels and true
    labels ``labels``, task ids ``tasks`` (scalars broadcast), losses 0."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    labels = np.broadcast_to(np.asarray(labels, dtype=np.intp), n)
    return (values[:, None], labels, labels,
            np.broadcast_to(np.asarray(tasks, dtype=np.intp), n), np.zeros(n))


def test_reservoir_stores_first_m_items():
    rng = np.random.default_rng(0)
    buf = MemoryBuffer(5, 1)
    reservoir_update(buf, *scalar_rows(range(5)), rng)
    assert len(buf) == 5
    assert buf.n_seen == 5
    assert np.array_equal(buf.features[:5, 0], np.arange(5.0))


def test_reservoir_m1_n2_keeps_second_half_the_time():
    rng = np.random.default_rng(42)
    kept_second = 0
    trials = 10_000
    for _ in range(trials):
        buf = MemoryBuffer(1, 1)
        reservoir_update(buf, *scalar_rows([0.0, 1.0]), rng)
        kept_second += buf.features[0, 0] == 1.0
    assert abs(kept_second / trials - 0.5) < 0.02


def test_candidates_alpha75_of_four_keeps_the_minimum():
    idx = insertion_candidates(np.array([0.1, 0.2, 0.3, 0.4]), 75)
    assert idx.tolist() == [0]
    idx = insertion_candidates(np.array([0.4, 0.2, 0.3, 0.1]), 75)
    assert idx.tolist() == [3]


def test_candidates_alpha0_keeps_all():
    idx = insertion_candidates(np.array([3.0, 1.0, 2.0]), 0)
    assert sorted(idx.tolist()) == [0, 1, 2]


def test_candidates_alpha100_keeps_none():
    idx = insertion_candidates(np.array([3.0, 1.0, 2.0]), 100)
    assert idx.size == 0
    assert idx.dtype == np.intp


def test_candidates_32_at_75_gives_8():
    losses = np.random.default_rng(3).random(32)
    idx = insertion_candidates(losses, 75)
    assert len(idx) == 8
    assert set(idx.tolist()) == set(np.argsort(losses)[:8].tolist())


def test_candidates_break_ties_by_lower_index():
    idx = insertion_candidates(np.array([0.5, 0.5, 0.5, 0.5]), 50)
    assert idx.tolist() == [0, 1]


def test_candidates_alpha_out_of_range_is_error():
    with pytest.raises(InputError):
        insertion_candidates(np.array([1.0]), 101)


def lass_scores(buf):
    """LASS's victim distribution over a whole buffer."""
    (slots,), _ = _available_slots(buf, "lass", 0)
    return _score_probabilities(buf.losses[slots])


def abs_select(buf, current_task, rng):
    """One ABS victim, drawn as the first draw of an insertion step draws it."""
    parts, p_current = _available_slots(buf, "abs", current_task)
    k, j = _draw_slot(buf, "abs", rng, parts, p_current)
    return int(parts[k][j])


def test_lass_equal_losses_is_uniform():
    buf = filled_buffer([0.7, 0.7, 0.7, 0.7])
    assert np.allclose(lass_scores(buf), 0.25, atol=1e-12)


def test_lass_direct_normalization():
    buf = filled_buffer([1.0, 3.0])
    probs = lass_scores(buf)
    assert abs(probs[0] - 0.25) < 1e-9
    assert abs(probs[1] - 0.75) < 1e-9
    assert abs(probs.sum() - 1.0) < 1e-12


def test_lass_all_zero_losses_uniform_fallback():
    buf = filled_buffer([0.0, 0.0, 0.0])
    assert np.allclose(lass_scores(buf), 1.0 / 3.0, atol=1e-12)


def test_abs_all_current_always_picks_current():
    rng = np.random.default_rng(1)
    buf = filled_buffer([0.5, 1.0, 2.0], tasks=[3, 3, 3])
    for _ in range(50):
        i = abs_select(buf, current_task=3, rng=rng)
        assert buf.task_ids[i] == 3


def test_abs_past_prefers_low_loss_entries():
    rng = np.random.default_rng(2)
    buf = filled_buffer([0.1, 2.0], tasks=[0, 0])
    picks = [abs_select(buf, current_task=5, rng=rng) for _ in range(200)]
    # reversed score gives the 0.1-loss entry probability ~1
    assert all(p == 0 for p in picks)


def test_abs_partition_frequency_matches_share():
    rng = np.random.default_rng(7)
    losses = np.random.default_rng(0).random(500) + 0.1
    tasks = [1] * 250 + [0] * 250
    buf = filled_buffer(losses, tasks=tasks)
    current = sum(buf.task_ids[abs_select(buf, 1, rng)] == 1 for _ in range(10_000))
    assert abs(current / 10_000 - 0.5) < 0.02


def test_abs_argmax_property():
    rng = np.random.default_rng(3)
    losses = [0.2, 0.9, 0.4, 0.05, 0.6, 0.3]
    tasks = [1, 1, 1, 0, 0, 0]
    buf = filled_buffer(losses, tasks=tasks)
    counts = np.zeros(6)
    for _ in range(4000):
        counts[abs_select(buf, 1, rng)] += 1
    cur = counts[:3]
    past = counts[3:]
    assert cur.argmax() == 1   # max-loss current entry replaced most often
    assert past.argmax() == 0  # min-loss past entry (index 3) replaced most often


def cand_arrays(values, task=9):
    n = len(values)
    feats = np.array([[v, v] for v in values], dtype=float)
    labels = np.zeros(n, dtype=np.intp)
    trues = np.zeros(n, dtype=np.intp)
    tasks = np.full(n, task, dtype=np.intp)
    losses = np.asarray(values, dtype=float)
    return feats, labels, trues, tasks, losses


def test_replace_appends_below_capacity():
    rng = np.random.default_rng(0)
    buf = MemoryBuffer(10, 2)
    replace_with_candidates(buf, *cand_arrays([1.0] * 8), selector="abs",
                            current_task=0, rng=rng)
    assert len(buf) == 8


def test_replace_full_buffer_changes_exactly_one():
    rng = np.random.default_rng(4)
    buf = filled_buffer([0.5, 0.6, 0.7, 0.8])
    before = buf.features[:4].copy()
    replace_with_candidates(buf, *cand_arrays([42.0]), selector="lass",
                            current_task=0, rng=rng)
    changed = (buf.features[:4] != before).any(axis=1).sum()
    assert changed == 1
    assert len(buf) == 4


def test_replace_overflow_keeps_last_m_by_draw_order():
    """When a step admits more rows than the capacity, the last
    capacity-many admitted rows stay resident."""
    buf = filled_buffer([0.5, 0.6, 0.7, 0.8], tasks=[0, 0, 1, 1])
    values = 10.0 + np.arange(8)
    # the admission draw replace_with_candidates makes first (n_seen 0)
    admitted = values[np.random.default_rng(5).integers(0, np.arange(1, 9)) < 4]
    assert len(admitted) > 4
    replace_with_candidates(buf, *cand_arrays(values), selector="abs",
                            current_task=1, rng=np.random.default_rng(5))
    assert len(buf) == 4 and buf.n_seen == 8
    assert sorted(buf.features[:4, 0].tolist()) == admitted[-4:].tolist()


def assert_columns_hold_entries(buf):
    """Every public column is the held entries only, and ``features``
    rejects a write."""
    for column in (buf.features, buf.labels, buf.true_labels, buf.task_ids,
                   buf.losses, buf.ticks):
        assert len(column) == buf.size
    with pytest.raises(ValueError, match="read-only"):
        buf.features[...] = 0.0


class RecordingBuffer(MemoryBuffer):
    """MemoryBuffer that records the slot and the features of every
    overwrite, and checks its columns after every write."""

    def __init__(self, capacity, dim):
        super().__init__(capacity, dim)
        self.slots = []
        self.written = []

    def add(self, *entry):
        super().add(*entry)
        assert_columns_hold_entries(self)

    def overwrite(self, i, *entry):
        self.slots.append(i)
        self.written.append(tuple(entry[0]))
        super().overwrite(i, *entry)
        assert_columns_hold_entries(self)


def reference_draw(buffer, selector, rng, available, current, p_current):
    """The victim draw as first written: ``flatnonzero`` over a boolean
    ``available`` mask and ``rng.choice`` with explicit probabilities."""
    losses = buffer.losses[:buffer.size]
    if selector == "lass":
        idx = np.flatnonzero(available)
        scores = losses[idx]
    else:
        is_cur = rng.random() < p_current
        part = available & (current if is_cur else ~current)
        if not part.any():
            is_cur, part = not is_cur, available
        idx = np.flatnonzero(part)
        scores = losses[idx] if is_cur else losses[idx].max() - losses[idx]
    total = scores.sum()
    probs = np.full(len(idx), 1.0 / len(idx)) if total <= 0.0 else scores / total
    return int(idx[rng.choice(len(idx), p=probs)])


def reference_replace(buffer, features, labels, true_labels, task_ids, losses,
                      selector, current_task, rng):
    """``replace_with_candidates`` as first written, behind the per-row
    admission of ``reference_reservoir_update``: a capacity-sized
    ``available`` mask rebuilt for every victim draw. Returns how many rows
    were admitted."""
    admitted = []
    for i in range(len(features)):
        buffer.n_seen += 1
        if buffer.size < buffer.capacity:
            buffer.add(features[i], labels[i], true_labels[i], task_ids[i], losses[i])
        elif int(rng.integers(0, buffer.n_seen)) < buffer.capacity:
            admitted.append(i)
    if not admitted:
        return 0
    current = buffer.task_ids[:buffer.size] == current_task
    p_current = current.sum() / buffer.size
    available = np.ones(buffer.size, dtype=bool)
    for i in admitted[-buffer.capacity:]:
        slot = reference_draw(buffer, selector, rng, available, current, p_current)
        available[slot] = False
        buffer.overwrite(slot, features[i], labels[i], true_labels[i],
                         task_ids[i], losses[i])
    return len(admitted)


BUFFER_KINDS = ("mixed", "all_current", "all_past", "zero_losses")


def random_buffer(rng, kind, current_task=2):
    """A full buffer of random capacity; about a fifth of the losses are 0."""
    capacity = int(rng.integers(1, 40))
    buf = RecordingBuffer(capacity, 2)
    for i in range(capacity):
        task = {"all_current": current_task,
                "all_past": int(rng.integers(0, current_task))}.get(
                    kind, int(rng.integers(0, current_task + 1)))
        loss = 0.0 if kind == "zero_losses" or rng.random() < 0.2 else float(rng.random())
        buf.add(np.full(2, float(i)), i % 2, 0, task, loss)
    return buf


def clone(buf):
    twin = RecordingBuffer(buf.capacity, buf.dim)
    for i in range(buf.size):
        twin.add(buf.features[i], buf.labels[i], buf.true_labels[i],
                 buf.task_ids[i], buf.losses[i])
    twin.n_seen = buf.n_seen
    return twin


@pytest.mark.parametrize("kind", BUFFER_KINDS)
@pytest.mark.parametrize("selector", ["lass", "abs"])
def test_replace_draws_match_reference_byte_for_byte(selector, kind):
    """Same slot sequence, same buffer bytes, ``n_seen`` and generator state
    as per-row admission followed by the mask-and-``rng.choice`` draw,
    including the uniform fallback, steps that admit no row and steps that
    admit more rows than the capacity."""
    rng = np.random.default_rng(100 + BUFFER_KINDS.index(kind))
    seen = {"none_admitted": 0, "overflow": 0}
    for trial in range(50):
        fast = random_buffer(rng, kind)
        fast.n_seen = int(rng.integers(0, 3 * fast.capacity))
        ref = clone(fast)
        n = int(rng.integers(1, 2 * fast.capacity + 2))
        cands = cand_arrays(100.0 + np.arange(n), task=2)
        rng_fast, rng_ref = np.random.default_rng(trial), np.random.default_rng(trial)
        replace_with_candidates(fast, *cands, selector, 2, rng_fast)
        admitted = reference_replace(ref, *cands, selector, 2, rng_ref)
        assert fast.slots == ref.slots
        assert fast.features.tobytes() == ref.features.tobytes()
        assert fast.n_seen == ref.n_seen
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
        seen["none_admitted"] += admitted == 0
        seen["overflow"] += admitted > fast.capacity
    assert all(seen.values()), seen


def test_every_buffer_policy_admits_the_same_rows():
    """From the same full buffer, ``n_seen`` and generator seed, reservoir,
    LASS and ABS insertion write the same candidate rows in the same order
    and leave the same ``n_seen``: admission is one rule, the selector
    decides only the victim. At most ``capacity`` rows are offered."""
    rng = np.random.default_rng(400)
    seen = {"admitted": 0, "rejected": 0}
    for trial in range(20):
        start = random_buffer(rng, "mixed")
        start.n_seen = int(rng.integers(start.capacity, 4 * start.capacity))
        n = int(rng.integers(1, start.capacity + 1))
        cands = cand_arrays(100.0 + np.arange(n), task=2)
        written, n_seen = [], []
        for insert in (lambda b, r: reservoir_update(b, *cands, r),
                       lambda b, r: replace_with_candidates(b, *cands, "lass", 2, r),
                       lambda b, r: replace_with_candidates(b, *cands, "abs", 2, r)):
            buf = clone(start)
            insert(buf, np.random.default_rng(trial))
            written.append(buf.written)
            n_seen.append(buf.n_seen)
        assert written[0] == written[1] == written[2]
        assert n_seen[0] == n_seen[1] == n_seen[2] == start.n_seen + n
        seen["admitted"] += len(written[0]) > 0
        seen["rejected"] += len(written[0]) < n
    assert all(seen.values()), seen


@pytest.mark.parametrize("insert", [
    lambda b, *c: reservoir_update(b, *c, np.random.default_rng(0)),
    lambda b, *c: gdumb_update(b, *c, np.random.default_rng(0)),
    lambda b, *c: replace_with_candidates(b, *c, "lass", 1, np.random.default_rng(0)),
    lambda b, *c: replace_with_candidates(b, *c, "abs", 1, np.random.default_rng(0)),
], ids=["reservoir", "gdumb", "lass", "abs"])
def test_every_insertion_policy_counts_the_rows_it_is_offered(insert):
    """Each call adds every candidate row to ``offered`` and the correctly
    labelled ones to ``offered_clean``, whether they are appended, written
    over a victim or dropped."""
    buf = MemoryBuffer(4, 1)
    labels = np.array([0, 1, 2, 0, 1, 2])
    for start, stop in ((0, 3), (0, 6)):
        n = stop - start
        insert(buf, np.arange(n, dtype=float)[:, None], labels[start:stop],
               np.array([0, 1, 0, 0, 2, 2])[start:stop], np.ones(n, dtype=np.intp),
               np.ones(n))
    assert (buf.counts["offered"], buf.counts["offered_clean"]) == (9, 6)


@pytest.mark.parametrize("kind", BUFFER_KINDS)
def test_abs_select_matches_reference_byte_for_byte(kind):
    rng = np.random.default_rng(200 + BUFFER_KINDS.index(kind))
    for trial in range(50):
        buf = random_buffer(rng, kind)
        available = np.ones(buf.size, dtype=bool)
        current = buf.task_ids[:buf.size] == 2
        rng_fast, rng_ref = np.random.default_rng(trial), np.random.default_rng(trial)
        for _ in range(20):
            assert abs_select(buf, 2, rng_fast) == reference_draw(
                buf, "abs", rng_ref, available, current, current.sum() / buf.size)
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("selector", ["lass", "abs"])
def test_bad_cached_loss_in_draw_is_numerical_error(selector, bad):
    """Non-finite or negative draw probabilities raise NumericalError (CLI
    exit 3) naming the selector; every entry is current-task, so ABS scores
    the bad loss directly."""
    buf = filled_buffer([0.5, bad, 2.0], tasks=[9, 9, 9])
    with pytest.raises(NumericalError, match=f"^{selector} victim draw"):
        replace_with_candidates(buf, *cand_arrays([1.0]), selector=selector,
                                current_task=9, rng=np.random.default_rng(0))


def test_purity_clean_buffer_is_one():
    buf = filled_buffer([0.1] * 6, true_labels=[0, 1, 0, 1, 0, 1])
    assert purity(buf) == 1.0


def test_purity_one_mislabeled_of_four():
    buf = MemoryBuffer(4, 2)
    buf.add(np.zeros(2), 0, 0, 0, 0.0)
    buf.add(np.zeros(2), 0, 0, 0, 0.0)
    buf.add(np.zeros(2), 1, 1, 0, 0.0)
    buf.add(np.zeros(2), 1, 0, 0, 0.0)  # stored 1, truly 0
    assert purity(buf) == 0.75


def test_diversity_duplicate_entries_is_zero():
    model = MLP(2, 3, hidden=(4,), lr=0.1, seed=0)
    buf = MemoryBuffer(4, 2)
    for _ in range(4):
        buf.add(np.array([1.0, 2.0]), 0, 0, 0, 0.0)
    assert diversity(buf, model) == 0.0


def test_diversity_two_entries_matches_hand_std():
    model = MLP(2, 3, hidden=(), lr=0.1, seed=0)  # penultimate = identity
    buf = MemoryBuffer(2, 2)
    buf.add(np.array([0.0, 0.0]), 0, 0, 0, 0.0)
    buf.add(np.array([2.0, 4.0]), 0, 0, 0, 0.0)
    # per-coordinate stds are 1 and 2; mean 1.5
    assert abs(diversity(buf, model) - 1.5) < 1e-12


def test_diversity_single_entry_class_warns_zero():
    model = MLP(2, 3, hidden=(), lr=0.1, seed=0)
    buf = MemoryBuffer(3, 2)
    buf.add(np.array([0.0, 0.0]), 0, 0, 0, 0.0)
    buf.add(np.array([1.0, 1.0]), 0, 0, 0, 0.0)
    buf.add(np.array([5.0, 5.0]), 1, 1, 0, 0.0)
    with pytest.warns(UserWarning, match="^class 1 has < 2 buffer entries"):
        overall = diversity(buf, model)
    # class 0 (stds 0.5, 0.5) weighs 2/3; class 1 counts 0
    assert abs(overall - 2 / 3 * 0.5) < 1e-12


def reference_reservoir_update(buffer, features, label, true_label, task_id, loss, rng):
    """``reservoir_update`` as first written: one candidate per call."""
    buffer.n_seen += 1
    if buffer.size < buffer.capacity:
        buffer.add(features, label, true_label, task_id, loss)
        return
    j = int(rng.integers(0, buffer.n_seen))
    if j < buffer.capacity:
        buffer.overwrite(j, features, label, true_label, task_id, loss)


def reference_gdumb_update(buffer, features, label, true_label, task_id, rng):
    """``gdumb_update`` as first written: one candidate per call, loss 0."""
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


def buffer_state(buf):
    return (buf.size, buf.n_seen, buf._tick, buf.slots, buf.features.tobytes(),
            buf.labels.tobytes(), buf.true_labels.tobytes(), buf.task_ids.tobytes(),
            buf.losses.tobytes(), buf.ticks.tobytes())


@pytest.mark.parametrize("policy", ["reservoir", "gdumb"])
def test_batch_insertion_matches_per_candidate_reference(policy):
    """One batch call leaves the same buffer arrays, ``n_seen``, ticks,
    overwritten-slot sequence and generator state as one call per candidate,
    over random batch sequences that include empty batches, batches that
    straddle the capacity, batches larger than the capacity and capacity 1;
    some reservoir runs start at an ``n_seen`` above 2**32."""
    rng = np.random.default_rng(300 + (policy == "gdumb"))
    seen = {"empty": 0, "straddle": 0, "capacity_1": 0, "slot_twice": 0}
    for trial in range(150):
        capacity = 1 if trial % 5 == 0 else int(rng.integers(2, 20))
        fast, ref = RecordingBuffer(capacity, 2), RecordingBuffer(capacity, 2)
        if policy == "reservoir" and trial % 7 == 0:
            fast.n_seen = ref.n_seen = 2 ** 32 + int(rng.integers(0, 2 ** 20))
        rng_fast, rng_ref = np.random.default_rng(trial), np.random.default_rng(trial)
        for _ in range(int(rng.integers(1, 12))):
            n = int(rng.integers(0, 2 * capacity + 3))
            rows = (rng.random((n, 2)), rng.integers(0, 4, n), rng.integers(0, 4, n),
                    rng.integers(0, 3, n), rng.random(n) if policy == "reservoir"
                    else np.zeros(n))
            size, n_slots = fast.size, len(fast.slots)
            if policy == "reservoir":
                reservoir_update(fast, *rows, rng_fast)
                for row in zip(*rows):
                    reference_reservoir_update(ref, *row, rng_ref)
            else:
                gdumb_update(fast, *rows, rng_fast)
                for row in zip(*rows):
                    reference_gdumb_update(ref, *row[:4], rng_ref)
            assert buffer_state(fast) == buffer_state(ref)
            assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
            new_slots = fast.slots[n_slots:]
            seen["empty"] += n == 0
            seen["straddle"] += size < capacity < size + n
            seen["capacity_1"] += capacity == 1 and n > 1
            seen["slot_twice"] += len(set(new_slots)) < len(new_slots)
    assert all(seen.values()), seen


def test_class_enumeration_matches_np_unique_with_missing_classes():
    """diversity and ``gdumb_update`` enumerate the classes present by
    ``bincount``; on random labels drawn from a few of 12 classes they agree
    with an ``np.unique`` enumeration (for GDumb, the per-candidate reference
    above)."""
    rng = np.random.default_rng(19)
    model = MLP(3, 12, hidden=(5,), lr=0.1, seed=0)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        classes = rng.choice(12, size=int(rng.integers(1, 5)), replace=False)
        labels, true = rng.choice(classes, n), rng.choice(classes, n)
        tasks = rng.choice([0, 2, 5], n)
        buf = MemoryBuffer(n, 3)
        for row in zip(rng.random((n, 3)), labels, true, tasks):
            buf.add(*row, 0.0)
        assert purity(buf) == float((labels == true).mean())
        feats = model.penultimate(buf.features[:n])
        spread = {int(c): float(feats[labels == c].std(axis=0).mean())
                  for c in np.unique(labels) if (labels == c).sum() >= 2}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert diversity(buf, model) == pytest.approx(
                sum((labels == c).sum() / n * v for c, v in spread.items()), rel=1e-12)
        ids, counts = np.unique(tasks, return_counts=True)
        assert np.bincount(buf.task_ids[:buf.size])[ids].tolist() == counts.tolist()

        fast, ref = RecordingBuffer(n, 3), RecordingBuffer(n, 3)
        m = int(rng.integers(0, 3 * n))
        rows = (rng.random((m, 3)), rng.choice(classes, m), rng.choice(classes, m),
                np.zeros(m, dtype=np.intp), np.zeros(m))
        gdumb_update(fast, *rows, np.random.default_rng(trial))
        rng_ref = np.random.default_rng(trial)
        for row in zip(*rows):
            reference_gdumb_update(ref, *row[:4], rng_ref)
        assert buffer_state(fast) == buffer_state(ref)


def test_gdumb_keeps_class_counts_within_one():
    rng = np.random.default_rng(9)
    buf = MemoryBuffer(30, 1)
    for c in range(4):
        gdumb_update(buf, *scalar_rows([float(c)] * 100, c, c // 2), rng)
    counts = np.bincount(buf.labels[:buf.size], minlength=4)
    assert len(buf) == 30
    assert counts.max() - counts.min() <= 1


def test_capacity_never_exceeded_and_task_counts_exact():
    rng = np.random.default_rng(11)
    buf = MemoryBuffer(7, 1)
    for start in range(0, 100, 5):
        i = np.arange(start, start + 5)
        reservoir_update(buf, *scalar_rows(i, i % 3, i % 4), rng)
        assert len(buf) <= 7
    counts = np.bincount(buf.task_ids[:buf.size])
    assert len(counts) <= 4 and counts.sum() == len(buf)


def test_content_hash_tracks_identity_not_losses():
    buf = filled_buffer([0.1, 0.2, 0.3])
    h0 = buf.content_hash()
    buf.losses[:3] = [9.0, 9.0, 9.0]
    assert buf.content_hash() == h0
    buf.overwrite(1, np.array([7.0, 7.0]), 1, 1, 2, 0.5)
    assert buf.content_hash() != h0


def test_dump_jsonl_roundtrip(tmp_path):
    import json
    buf = filled_buffer([0.25, 0.5], true_labels=[0, 0])
    path = tmp_path / "buffer.jsonl"
    buf.dump_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[1]["loss"] == 0.5
    assert lines[1]["features"] == [1.0, 1.0]


def reference_dump(buf):
    """``dump_jsonl``'s text as first written: one ``json.dumps`` of a
    dict per entry."""
    import json
    return "".join(json.dumps({
        "features": buf.features[i].tolist(),
        "label": int(buf.labels[i]),
        "true_label": int(buf.true_labels[i]),
        "task": int(buf.task_ids[i]),
        "loss": float(buf.losses[i]),
        "tick": int(buf.ticks[i]),
    }) + "\n" for i in range(buf.size))


def random_rows(rng, n, dim):
    """n candidate rows whose features and losses span many magnitudes."""
    scale = 10.0 ** rng.integers(-8, 9, size=(n, 1))
    return (rng.standard_normal((n, dim)) * scale, rng.integers(0, 10, n),
            rng.integers(0, 10, n), rng.integers(0, 5, n),
            rng.exponential(size=n) * 10.0 ** rng.integers(-5, 5, size=n))


def assert_dump_matches_reference(buf, path):
    buf.dump_jsonl(path)
    assert path.read_bytes() == reference_dump(buf).encode("utf-8")


@pytest.mark.parametrize("seed", range(5))
def test_dump_jsonl_bytes_match_per_row_json_dumps(tmp_path, seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 20))
    buf = MemoryBuffer(int(rng.integers(1, 60)), dim)
    reservoir_update(buf, *random_rows(rng, 2 * buf.capacity, dim), rng)
    buf.losses[:buf.size] = rng.standard_normal(buf.size) * 1e3
    assert_dump_matches_reference(buf, tmp_path / "buffer.jsonl")


def test_dump_jsonl_reencodes_rows_written_between_dumps(tmp_path):
    rng = np.random.default_rng(3)
    buf = MemoryBuffer(8, 3)
    path = tmp_path / "buffer.jsonl"
    features, labels, true_labels, tasks, losses = random_rows(rng, 8, 3)
    for i in range(5):
        buf.add(features[i], labels[i], true_labels[i], tasks[i], losses[i])
    assert_dump_matches_reference(buf, path)
    buf.overwrite(2, features[5], labels[5], true_labels[5], tasks[5], losses[5])
    buf.add(features[6], labels[6], true_labels[6], tasks[6], losses[6])
    buf.losses[0] = 7.5  # a rescore changes the loss, not the feature text
    assert_dump_matches_reference(buf, path)
    replace_with_candidates(buf, *random_rows(rng, 6, 3), "lass", 1, rng)
    assert_dump_matches_reference(buf, path)
    assert_dump_matches_reference(buf, path)  # every row cached
    with pytest.raises(ValueError, match="read-only"):
        buf.features[0] = 1.0  # a write that skips ``_write`` would go stale


@pytest.mark.parametrize("policy", ["append", "reservoir", "lass", "abs", "gdumb"])
def test_columns_hold_the_entries_through_every_policy(tmp_path, policy):
    """Through each insertion policy's appends and overwrites the columns
    stay the held entries (``RecordingBuffer``), and the content hash and
    dump bytes equal those of a twin at capacity ``size`` that holds the
    same entries by direct ``add`` calls."""
    rng = np.random.default_rng(["append", "reservoir", "lass", "abs", "gdumb"].index(policy))
    buf = RecordingBuffer(12, 3)
    assert_columns_hold_entries(buf)
    for step in range(8):
        rows = random_rows(rng, int(rng.integers(0, 8)), 3)
        if policy == "append":
            _append(buf, *rows)
        elif policy in ("lass", "abs"):
            replace_with_candidates(buf, *rows, policy, step % 3, rng)
        else:
            {"reservoir": reservoir_update, "gdumb": gdumb_update}[policy](buf, *rows, rng)
        twin = MemoryBuffer(max(buf.size, 1), 3)
        for i in range(buf.size):
            twin._tick = buf.ticks[i]
            twin.add(buf.features[i], buf.labels[i], buf.true_labels[i],
                     buf.task_ids[i], buf.losses[i])
        assert twin.content_hash() == buf.content_hash()
        buf.dump_jsonl(tmp_path / "buf.jsonl")
        twin.dump_jsonl(tmp_path / "twin.jsonl")
        assert (tmp_path / "buf.jsonl").read_bytes() == (tmp_path / "twin.jsonl").read_bytes()
    assert len(buf) == 12 and (policy == "append" or buf.slots)


@pytest.mark.parametrize("size", [0, 1, 4])
def test_dump_jsonl_of_a_partly_filled_buffer(tmp_path, size):
    buf = MemoryBuffer(6, 2)
    for i in range(size):
        buf.add(np.array([0.1 * i, -3.0]), i, i % 2, 0, 1.0 / (i + 3))
    assert_dump_matches_reference(buf, tmp_path / "buffer.jsonl")
    assert len((tmp_path / "buffer.jsonl").read_text().splitlines()) == size


def test_dump_jsonl_keeps_json_names_for_non_finite_losses(tmp_path):
    buf = filled_buffer([math.nan, math.inf, -math.inf, -0.0, 1e-300])
    path = tmp_path / "buffer.jsonl"
    assert_dump_matches_reference(buf, path)
    losses = [line.split('"loss": ')[1].split(",")[0]
              for line in path.read_text().splitlines()]
    assert losses == ["NaN", "Infinity", "-Infinity", "-0.0", "1e-300"]


def test_abs_buffer_more_diverse_than_lass_on_benchmark(bench):
    import numpy as np
    abs_runs = bench.suite("aer_abs_40")
    lass_runs = bench.suite("aer_lass_40", method="aer_lass")
    abs_div = np.median([r.final_diversity for r in abs_runs])
    lass_div = np.median([r.final_diversity for r in lass_runs])
    assert abs_div >= lass_div


def test_replace_crossing_capacity_in_one_call():
    rng = np.random.default_rng(13)
    buf = MemoryBuffer(4, 2)
    buf.add(np.zeros(2), 0, 0, 0, 0.5)
    # 6 candidates: 3 fills to capacity, then 3 selector replacements
    replace_with_candidates(buf, *cand_arrays([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                            selector="abs", current_task=9, rng=rng)
    assert len(buf) == 4


def test_crossing_step_rescores_held_rows_and_keeps_appended_losses():
    """A call that appends rows and then draws rescores, under ``model``,
    only the rows held before it; appended rows keep their candidate loss,
    and the draws equal those of a refresh made before the call."""
    model = MLP(2, 2, (4,), 0.1, 0.0, seed=[0])
    buf = RecordingBuffer(4, 2)
    for i, loss in enumerate([0.5, 0.6]):
        buf.add(np.full(2, float(i)), i % 2, i % 2, i, loss)
    twin = clone(buf)
    expected = per_sample_ce(model.forward(buf.features[:2]), buf.labels[:2])
    # n_seen 0: rows 0-1 are appended, rows 2-3 draw j < 3 and j < 4, both admitted
    cands = cand_arrays([1.0, 2.0, 3.0, 4.0], task=1)
    replace_with_candidates(buf, *cands, "abs", 1, np.random.default_rng(1), model)
    twin.refresh_losses(model)
    replace_with_candidates(twin, *cands, "abs", 1, np.random.default_rng(1))
    assert len(buf.slots) == 2 and buf.slots == twin.slots
    assert buf.losses.tobytes() == twin.losses.tobytes()
    kept = [s for s in range(4) if s not in buf.slots]
    assert min(kept) < 2 <= max(kept), buf.slots  # one held and one appended row kept
    for s in kept:
        assert buf.losses[s] == (expected[s] if s < 2 else cands[4][s - 2])
