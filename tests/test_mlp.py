import math

import numpy as np
import pytest

from aer.errors import InputError, NumericalError
from aer.mlp import (MLP, augment, ce_gradient, per_sample_ce, prob_mse,
                     prob_mse_gradient, restore_checkpoint, save_checkpoint,
                     soft_ce_gradient, soft_cross_entropy, softmax)


def small_model(seed=0, hidden=(5, 4), in_dim=3, classes=4, lr=0.1):
    return MLP(in_dim, classes, hidden=hidden, lr=lr, seed=seed)


def params_bytes(model):
    return save_checkpoint(model).data


def test_zero_weight_model_gives_zero_logits():
    m = small_model()
    for w in m.weights:
        w[:] = 0.0
    x = np.random.default_rng(1).standard_normal((6, 3))
    assert np.all(m.forward(x) == 0.0)


def test_identical_rows_give_identical_logits():
    m = small_model(seed=3)
    row = np.random.default_rng(2).standard_normal(3)
    logits = m.forward(np.stack([row, row, row]))
    assert np.array_equal(logits[0], logits[1])
    assert np.array_equal(logits[1], logits[2])


def test_single_layer_matches_manual_matmul():
    m = MLP(3, 4, hidden=(), lr=0.1, seed=0)
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)
    m.weights[0][:] = w
    m.biases[0][:] = b
    x = rng.standard_normal((7, 3))
    assert np.allclose(m.forward(x), x @ w + b, atol=1e-12)


def test_forward_dimension_mismatch_is_error():
    m = small_model()
    with pytest.raises(InputError):
        m.forward(np.zeros((2, 5)))


def test_uniform_logits_loss_is_ln_c():
    logits = np.zeros((4, 7))
    losses = per_sample_ce(logits, np.array([0, 3, 5, 6]))
    assert np.allclose(losses, math.log(7), atol=1e-12)


def test_loss_vanishes_with_growing_margin():
    labels = np.array([1])
    prev = None
    for margin in (1.0, 5.0, 20.0, 80.0):
        logits = np.zeros((1, 3))
        logits[0, 1] = margin
        loss = per_sample_ce(logits, labels)[0]
        if prev is not None:
            assert loss < prev
        prev = loss
    assert prev < 1e-30


def test_masked_uniform_two_classes_is_ln_2():
    logits = np.zeros((3, 6))
    losses = per_sample_ce(logits, np.array([2, 4, 2]), class_mask={2, 4})
    assert np.allclose(losses, math.log(2), atol=1e-12)


def test_label_outside_mask_is_error():
    logits = np.zeros((2, 5))
    with pytest.raises(InputError):
        per_sample_ce(logits, np.array([0, 3]), class_mask={1, 3})


def test_losses_are_nonnegative():
    rng = np.random.default_rng(11)
    logits = rng.standard_normal((50, 6)) * 10
    labels = rng.integers(0, 6, size=50)
    assert np.all(per_sample_ce(logits, labels) >= 0)


def test_masked_gradient_exactly_zero_outside_mask():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal((8, 10))
    labels = rng.integers(2, 5, size=8)
    grad = ce_gradient(logits, labels, class_mask={2, 3, 4})
    outside = [c for c in range(10) if c not in (2, 3, 4)]
    assert np.all(grad[:, outside] == 0.0)
    assert np.any(grad[:, [2, 3, 4]] != 0.0)


def test_lr_zero_leaves_parameters_unchanged():
    m = small_model(lr=0.0)
    before = [w.copy() for w in m.weights] + [b.copy() for b in m.biases]
    x = np.random.default_rng(0).standard_normal((4, 3))
    m.train_step(x, np.array([0, 1, 2, 3]))
    after = list(m.weights) + list(m.biases)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


def relative_grad_error(model, x, labels, mask=None, h=1e-5):
    """Per-layer norm ratio between analytic and central-difference grads."""
    logits, cache = model.forward(x, cache=True)
    grads = model.views(model.backward(cache, ce_gradient(logits, labels, mask)))
    worst = 0.0
    params = []
    for i in range(model.num_layers):
        params.append((model.weights[i], grads[2 * i]))
        params.append((model.biases[i], grads[2 * i + 1]))
    for tensor, analytic in params:
        numeric = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        num_flat = numeric.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = per_sample_ce(model.forward(x), labels, mask).mean()
            flat[k] = orig - h
            down = per_sample_ce(model.forward(x), labels, mask).mean()
            flat[k] = orig
            num_flat[k] = (up - down) / (2 * h)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        worst = max(worst, np.linalg.norm(analytic - numeric) / denom)
    return worst


def test_linear_unit_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    m = MLP(4, 3, hidden=(), lr=0.05, seed=9)
    x = rng.standard_normal((6, 4))
    labels = rng.integers(0, 3, size=6)
    assert relative_grad_error(m, x, labels) < 1e-4


def test_hidden_network_gradient_matches_finite_differences():
    rng = np.random.default_rng(43)
    m = small_model(seed=4)
    x = rng.standard_normal((5, 3))
    labels = rng.integers(0, 4, size=5)
    assert relative_grad_error(m, x, labels) < 1e-4
    assert relative_grad_error(m, x, labels, mask={0, 1, 2}) < 1e-4


@pytest.mark.parametrize("loss, gradient", [
    (soft_cross_entropy, soft_ce_gradient),
    (prob_mse, prob_mse_gradient),
])
def test_soft_target_gradients_match_finite_differences(loss, gradient, h=1e-5):
    """The MixMatch gradients are d(batch-mean loss)/d(logits)."""
    rng = np.random.default_rng(44)
    logits = 2.0 * rng.standard_normal((6, 4))
    targets = softmax(rng.standard_normal((6, 4)))
    numeric = np.zeros_like(logits)
    for idx in np.ndindex(logits.shape):
        up, down = logits.copy(), logits.copy()
        up[idx] += h
        down[idx] -= h
        numeric[idx] = (loss(up, targets).mean() - loss(down, targets).mean()) / (2 * h)
    analytic = gradient(logits, targets)
    assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-6


def test_repeated_batch_loss_nonincreasing_convex_case():
    rng = np.random.default_rng(8)
    m = MLP(4, 3, hidden=(), lr=0.05, seed=1)
    x = rng.standard_normal((16, 4))
    labels = rng.integers(0, 3, size=16)
    first = m.train_step(x, labels).mean()
    second = m.train_step(x, labels).mean()
    assert second <= first


def test_checkpoint_roundtrip_is_bitwise():
    m = small_model(seed=12)
    ckpt = save_checkpoint(m)
    m2 = small_model(seed=99)
    restore_checkpoint(m2, ckpt)
    assert params_bytes(m2) == ckpt.data


def test_checkpoint_survives_training():
    m = small_model(seed=2)
    ckpt = save_checkpoint(m)
    rng = np.random.default_rng(3)
    for _ in range(10):
        m.train_step(rng.standard_normal((8, 3)), rng.integers(0, 4, size=8))
    assert params_bytes(m) != ckpt.data
    restore_checkpoint(m, ckpt)
    assert params_bytes(m) == ckpt.data


def test_checkpoint_architecture_mismatch_is_error():
    ckpt = save_checkpoint(small_model())
    other = MLP(3, 4, hidden=(6, 4), lr=0.1, seed=0)
    with pytest.raises(InputError):
        restore_checkpoint(other, ckpt)
    fewer = MLP(3, 4, hidden=(5,), lr=0.1, seed=0)
    with pytest.raises(InputError):
        restore_checkpoint(fewer, ckpt)


def test_checkpoint_bad_magic_is_error():
    m = small_model()
    data = b"NOTCKPT!" + save_checkpoint(m).data[8:]
    with pytest.raises(InputError):
        restore_checkpoint(m, type("C", (), {"data": data, "epoch": 0}))


def test_augment_strength_zero_is_identity():
    x = np.random.default_rng(0).standard_normal((10, 4))
    out = augment(x, seed=5, strength=0.0)
    assert np.array_equal(out, x)
    assert out is not x


def test_augment_same_seed_is_deterministic():
    x = np.random.default_rng(1).standard_normal((10, 4))
    assert np.array_equal(augment(x, 77, 0.3), augment(x, 77, 0.3))
    assert not np.array_equal(augment(x, 77, 0.3), augment(x, 78, 0.3))


def test_augment_empirical_std_matches_strength():
    x = np.zeros((100_000, 1))
    out = augment(x, seed=123, strength=0.4)
    std = (out - x).std()
    assert abs(std - 0.4) / 0.4 < 0.05


def test_identical_seeds_give_identical_trajectories():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((32, 3))
    labels = rng.integers(0, 4, size=32)
    m1, m2 = small_model(seed=21), small_model(seed=21)
    for _ in range(5):
        m1.train_step(x, labels)
        m2.train_step(x, labels)
    assert params_bytes(m1) == params_bytes(m2)


def test_nonfinite_gradient_raises_numerical_error():
    m = small_model()
    bad = np.zeros_like(m.params)
    for i, g in enumerate(m.views(bad)):
        if i % 2 == 0:
            g[:] = np.nan
    with pytest.raises(NumericalError):
        m.apply_step(bad)


def test_bias_overflow_in_a_step_raises_numerical_error():
    """Finite gradients that overflow only a bias fail the step itself, not
    a later forward pass."""
    m = small_model()
    big = np.finfo(np.float64).max
    m.biases[0][0] = big
    grad = np.zeros_like(m.params)
    m.views(grad)[1][0] = -big
    with np.errstate(over="ignore"), pytest.raises(
            NumericalError, match="non-finite parameters after SGD step"):
        m.apply_step(grad, lr=1.0)
    assert all(np.isfinite(w).all() for w in m.weights)


def test_nan_feature_reaches_the_logits_guard():
    m = small_model()
    x = np.zeros((2, 3))
    x[1, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite logits"):
        m.forward(x)


class ReferenceMLP(MLP):
    """The out-of-place formulas the in-place kernels must match bit for bit:
    ``np.where`` ReLU, stored masks and a freshly allocated momentum buffer."""

    def forward(self, features, cache=False):
        a = np.asarray(features, dtype=np.float64)
        inputs, relu_masks = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(a)
            z = a @ w + b
            if i < self.num_layers - 1:
                mask = z > 0
                relu_masks.append(mask)
                a = np.where(mask, z, 0.0)
            else:
                a = z
        if not np.all(np.isfinite(a)):
            raise NumericalError("non-finite logits in forward pass")
        return (a, (inputs, relu_masks)) if cache else a

    def backward(self, cache, dlogits):
        inputs, relu_masks = cache
        grads = [None] * (2 * self.num_layers)
        delta = np.asarray(dlogits, dtype=np.float64)
        for i in reversed(range(self.num_layers)):
            grads[2 * i] = inputs[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * relu_masks[i - 1]
        return grads

    def apply_step(self, grads, lr=None):
        step = self.lr if lr is None else float(lr)
        velocity = self.views(self.velocity)
        velocity_w, velocity_b = velocity[0::2], velocity[1::2]
        for i in range(self.num_layers):
            velocity_w[i][:] = self.momentum * velocity_w[i] + grads[2 * i]
            velocity_b[i][:] = self.momentum * velocity_b[i] + grads[2 * i + 1]
            self.weights[i] -= step * velocity_w[i]
            self.biases[i] -= step * velocity_b[i]


@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("n", [1, 32, 500])
def test_train_steps_are_byte_identical_to_reference(n, momentum):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, 6))
    x[::3] = 0.0  # rows whose pre-activations equal the biases, exactly 0 at init
    labels = rng.integers(0, 5, size=n)
    masked_labels = labels % 3
    models = [cls(6, 5, hidden=(16, 8), lr=0.05, momentum=momentum, seed=n)
              for cls in (MLP, ReferenceMLP)]
    for m in models:
        m.weights[0][:, 0] = 0.0  # a unit whose pre-activation stays exactly 0
    for step in range(6):
        if step % 2:
            args = (x, masked_labels, {0, 1, 2}, 0.02)
        else:
            args = (x, labels, None, None)
        fast, ref = (m.train_step(*args) for m in models)
        assert fast.tobytes() == ref.tobytes()
        assert save_checkpoint(models[0]).data == save_checkpoint(models[1]).data


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_restore_writes_into_the_flat_vectors(momentum):
    """After a restore every per-tensor list still views ``params`` or
    ``velocity``, and training continues as the reference does."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((24, 6))
    labels = rng.integers(0, 5, size=24)
    source = MLP(6, 5, hidden=(16, 8), lr=0.05, momentum=momentum, seed=1)
    for _ in range(3):
        source.train_step(x, labels)
    ckpt = save_checkpoint(source)
    models = [cls(6, 5, hidden=(16, 8), lr=0.05, momentum=momentum, seed=2)
              for cls in (MLP, ReferenceMLP)]
    for m in models:
        m.train_step(x[::2], labels[::2])
        restore_checkpoint(m, ckpt)
        assert save_checkpoint(m).data == ckpt.data
        for flat, tensors in ((m.params, m.weights + m.biases),
                              (m.velocity, m.views(m.velocity))):
            assert all(np.shares_memory(t, flat) for t in tensors)
    for _ in range(3):
        fast, ref = (m.train_step(x, labels) for m in models)
        assert fast.tobytes() == ref.tobytes()
        assert save_checkpoint(models[0]).data == save_checkpoint(models[1]).data


def reference_mask_columns(logits, class_mask):
    if class_mask is None:
        return np.arange(logits.shape[1])
    cols = np.array(sorted(int(c) for c in class_mask), dtype=np.intp)
    if cols.size == 0:
        raise InputError("class_mask must be non-empty")
    if cols[0] < 0 or cols[-1] >= logits.shape[1]:
        raise InputError(f"class_mask {cols.tolist()} outside 0..{logits.shape[1] - 1}")
    return cols


def reference_per_sample_ce(logits, labels, class_mask=None):
    """``per_sample_ce`` as first written: a sorted column array built per
    call and an ``np.isin`` label check."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    cols = reference_mask_columns(logits, class_mask)
    if class_mask is not None:
        allowed = np.isin(labels, cols)
        if not np.all(allowed):
            bad = labels[~allowed][0]
            raise InputError(f"label {bad} outside class mask {cols.tolist()}")
    elif labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise InputError("label outside 0..C-1")
    sub = logits[:, cols]
    peak = sub.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(sub - peak).sum(axis=1))
    return np.maximum(lse - logits[np.arange(len(labels)), labels], 0.0)


def reference_ce_gradient(logits, labels, class_mask=None):
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    cols = reference_mask_columns(logits, class_mask)
    sub = logits[:, cols]
    peak = sub.max(axis=1, keepdims=True)
    expd = np.exp(sub - peak)
    probs = expd / expd.sum(axis=1, keepdims=True)
    grad = np.zeros_like(logits)
    grad[:, cols] = probs
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad / len(labels)


@pytest.mark.parametrize("mask", [(4, 1, 3), [3, 4, 1], {1, 3, 4},
                                  np.array([4, 3, 1]), (9, *range(8)), None],
                         ids=["tuple", "list", "set", "ndarray", "wide", "unmasked"])
@pytest.mark.parametrize("n", [1, 32, 500])
def test_masked_ce_is_byte_identical_to_reference(mask, n):
    """Loss and gradient bytes equal the per-call formulas, for network
    logits and for C- and Fortran-ordered copies of them. With 8 or more
    softmax columns the row sums round differently unless the columns are
    copied the same way."""
    rng = np.random.default_rng(n)
    logits = small_model(seed=n, in_dim=6, classes=10).forward(rng.standard_normal((n, 6)))
    cols = np.arange(10) if mask is None else np.array(sorted(mask))
    labels = cols[rng.integers(0, len(cols), size=n)]
    for layout in (logits, np.ascontiguousarray(logits), np.asfortranarray(logits)):
        for _ in range(2):  # the second call reads the memoised columns
            assert (per_sample_ce(layout, labels, mask).tobytes()
                    == reference_per_sample_ce(layout, labels, mask).tobytes())
            assert (ce_gradient(layout, labels, mask).tobytes()
                    == reference_ce_gradient(layout, labels, mask).tobytes())


def test_mask_memo_follows_a_mutated_list():
    logits = np.random.default_rng(0).standard_normal((4, 5))
    labels = np.array([1, 2, 1, 2])
    mask = [1, 2]
    first = per_sample_ce(logits, labels, mask)
    mask.append(4)
    assert (per_sample_ce(logits, labels, mask).tobytes()
            == reference_per_sample_ce(logits, labels, [1, 2, 4]).tobytes())
    assert first.tobytes() == reference_per_sample_ce(logits, labels, [1, 2]).tobytes()


@pytest.mark.parametrize("labels, mask", [
    ([1, 3], ()),                 # class_mask must be non-empty
    ([1, 3], {1, 3, 5}),          # class_mask [1, 3, 5] outside 0..4
    ([1, -1], (-1, 1)),           # class_mask [-1, 1] outside 0..4
    ([0, 3], {1, 3}),             # label 0 outside class mask [1, 3]
    ([7, 0], {1, 3}),             # an out-of-range label reported first
    ([3, -2, 0], [3, 1]),
    ([1, 5], None),               # label outside 0..C-1
    ([-1, 0], None),
])
def test_mask_and_label_errors_match_reference(labels, mask):
    """``ce_gradient`` rejects the labels ``per_sample_ce`` rejects, with
    the same message, rather than indexing a column outside the mask."""
    logits = np.zeros((len(labels), 5))
    with pytest.raises(InputError) as ref:
        reference_per_sample_ce(logits, labels, mask)
    for fn in (per_sample_ce, ce_gradient) * 2:  # a failing mask is not memoised
        with pytest.raises(InputError) as fast:
            fn(logits, labels, mask)
        assert str(fast.value) == str(ref.value)
