import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aer.buffer import (MemoryBuffer, _available_slots, _score_probabilities,
                        insertion_candidates, reservoir_update)
from aer.consolidation import sharpen
from aer.metrics import AccuracyMatrix, faa, final_forgetting
from aer.mlp import MLP, ce_gradient, per_sample_ce, restore_checkpoint, save_checkpoint

losses_lists = st.lists(st.floats(min_value=0.0, max_value=100.0,
                                  allow_nan=False), min_size=1, max_size=64)


@given(losses_lists, st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_insertion_candidates_size_and_membership(losses, alpha):
    losses = np.array(losses)
    idx = insertion_candidates(losses, alpha)
    expected = math.floor((100.0 - alpha) / 100.0 * len(losses) + 1e-9)
    assert len(idx) == expected
    if len(idx):
        cutoff = np.sort(losses)[len(idx) - 1]
        assert np.all(losses[idx] <= cutoff)


@given(st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_lass_scores_are_a_distribution(losses):
    buf = MemoryBuffer(len(losses), 1)
    for i, value in enumerate(losses):
        buf.add(np.array([0.0]), 0, 0, 0, value)
    (slots,), _ = _available_slots(buf, "lass", 0)
    probs = _score_probabilities(buf.losses[slots])
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-12


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=80),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_reservoir_capacity_invariant(capacity, n_items, batch, seed):
    rng = np.random.default_rng(seed)
    buf = MemoryBuffer(capacity, 1)
    for start in range(0, n_items, batch):
        i = np.arange(start, min(start + batch, n_items))
        zeros = np.zeros(len(i), dtype=np.intp)
        reservoir_update(buf, i[:, None].astype(float), zeros, zeros, zeros,
                         np.zeros(len(i)), rng)
        assert len(buf) <= capacity
    assert len(buf) == min(capacity, n_items)
    assert buf.n_seen == n_items


@given(st.lists(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                         min_size=3, max_size=3), min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_sharpen_temperature_one_identity_and_rows_normalised(rows):
    raw = np.array(rows) + 1e-6
    probs = raw / raw.sum(axis=1, keepdims=True)
    assert np.allclose(sharpen(probs, 1.0), probs, atol=1e-9)
    sharp = sharpen(probs, 0.4)
    assert np.allclose(sharp.sum(axis=1), 1.0, atol=1e-9)


@st.composite
def staircase_matrices(draw):
    t_count = draw(st.integers(min_value=2, max_value=6))
    m = AccuracyMatrix(t_count)
    for j in range(t_count):
        for t in range(j, t_count):
            m.set_entry(j, t, draw(st.floats(min_value=0.0, max_value=1.0,
                                             allow_nan=False)))
    return m


@given(staircase_matrices())
@settings(max_examples=50, deadline=None)
def test_faa_and_ff_bounds_and_purity(matrix):
    value = faa(matrix)
    assert 0.0 <= value <= 1.0
    drop = final_forgetting(matrix)
    assert -1.0 <= drop <= 1.0
    # pure functions of the matrix
    assert faa(matrix) == value
    assert final_forgetting(matrix) == drop


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_checkpoint_roundtrip_random_architectures(in_dim, classes, seed):
    rng = np.random.default_rng(seed)
    hidden = tuple(int(h) for h in rng.integers(1, 9, size=rng.integers(0, 3)))
    model = MLP(in_dim, classes, hidden=hidden, lr=0.1, momentum=0.5, seed=seed)
    model.train_step(rng.standard_normal((4, in_dim)), rng.integers(0, classes, 4))
    ckpt = save_checkpoint(model)
    clone = MLP(in_dim, classes, hidden=hidden, lr=0.1, momentum=0.5, seed=seed + 1)
    restore_checkpoint(clone, ckpt)
    assert save_checkpoint(clone) == ckpt


@given(st.integers(min_value=3, max_value=10), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_masked_gradient_zero_outside_mask(classes, n, seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, classes))
    mask = sorted(rng.choice(classes, size=2, replace=False).tolist())
    labels = rng.choice(mask, size=n)
    grad = ce_gradient(logits, labels, class_mask=set(mask))
    outside = [c for c in range(classes) if c not in mask]
    assert np.all(grad[:, outside] == 0.0)
    losses = per_sample_ce(logits, labels, class_mask=set(mask))
    assert np.all(losses >= 0)
