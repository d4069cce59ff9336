"""Minimal dense-network trainer.

A small fully-connected ReLU classifier with exact analytic gradients,
plain SGD (optional momentum), per-sample cross-entropy losses with an
optional class mask, byte-exact checkpoints and seeded Gaussian feature
jitter. Everything is float64 so gradient checks and checkpoint
round-trips are unambiguous.

Parameters, momentum buffers and gradients are each one contiguous flat
vector in the order ``[W0, b0, W1, b1, ...]`` (weights row-major). The
per-tensor lists ``weights`` and ``biases`` are reshaped views into the
parameter vector, so an SGD step is a few whole-vector operations.
"""

import functools
import math
import struct

import numpy as np

from .errors import InputError, NumericalError

CHECKPOINT_MAGIC = b"AERCKPT1"


class MLP:
    """Fully-connected ReLU network trained with SGD.

    ``hidden`` gives the hidden-layer widths; an empty tuple yields a bare
    linear classifier.

    ``params`` and ``velocity`` are flat float64 vectors laid out as
    ``[W0, b0, W1, b1, ...]``; ``weights``/``biases`` are views into
    ``params`` and ``views(velocity)`` gives the momentum per tensor. Write
    through the views (``w[:] = ...``); rebinding a list entry detaches it.

    :param in_dim: feature dimensionality
    :param num_classes: size of the output layer
    :param hidden: hidden layer widths, default two layers of 64
    :param lr: SGD learning rate (>= 0)
    :param momentum: SGD momentum coefficient, default 0
    :param seed: int or sequence of ints for the init generator
    """

    def __init__(self, in_dim, num_classes, hidden=(64, 64), lr=0.03,
                 momentum=0.0, seed=0):
        if in_dim < 1:
            raise InputError(f"in_dim must be >= 1, got {in_dim}")
        if num_classes < 2:
            raise InputError(f"num_classes must be >= 2, got {num_classes}")
        if lr < 0:
            raise InputError(f"lr must be >= 0, got {lr}")
        rng = np.random.default_rng(seed)
        sizes = [int(in_dim), *[int(h) for h in hidden], int(num_classes)]
        self._layout = []
        end = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                start, end = end, end + math.prod(shape)
                self._layout.append((slice(start, end), shape))
        self.params = np.zeros(end)
        self.velocity = np.zeros(end)
        tensors = self.views(self.params)
        self.weights, self.biases = tensors[0::2], tensors[1::2]
        for w in self.weights:
            w[:] = rng.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[0])
        self.lr = float(lr)
        self.momentum = float(momentum)

    def views(self, flat):
        """Per-tensor views ``[W0, b0, W1, b1, ...]`` of a flat vector laid
        out like ``params`` (``backward``'s gradient, for instance)."""
        return [flat[span].reshape(shape) for span, shape in self._layout]

    @property
    def in_dim(self):
        return self.weights[0].shape[0]

    @property
    def num_classes(self):
        return self.weights[-1].shape[1]

    @property
    def num_layers(self):
        return len(self.weights)

    def forward(self, features, cache=False):
        """Compute logits for a batch; optionally return the backprop cache.

        The cache is the list of each layer's input: the features, then the
        post-ReLU activations. ``backward`` derives the ReLU masks from it.
        Bias and ReLU are applied in place on the matmul output, and a NaN
        pre-activation survives the ReLU, so it reaches the finiteness check.
        """
        a = np.asarray(features, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.in_dim:
            raise InputError(
                f"expected features of shape (n, {self.in_dim}), got {a.shape}")
        inputs = []
        last = self.num_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(a)
            a = a @ w
            a += b
            if i < last:
                np.maximum(a, 0.0, out=a)
        if not np.isfinite(a).all():
            raise NumericalError("non-finite logits in forward pass")
        if cache:
            return a, inputs
        return a

    def penultimate(self, features):
        """Activations feeding the output layer (the input itself for a linear net)."""
        a = np.asarray(features, dtype=np.float64)
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            a = np.maximum(a @ w + b, 0.0)
        return a

    def predict(self, features):
        return np.argmax(self.forward(features), axis=1)

    def backward(self, cache, dlogits):
        """Backpropagate d(loss)/d(logits) into one flat gradient vector.

        ``cache`` is the list of layer inputs from ``forward(..., cache=True)``.
        The ReLU mask of hidden layer i - 1 is ``inputs[i] > 0``, which equals
        its pre-activation ``z > 0`` for every non-NaN ``z``. The result is
        laid out like ``params``, ``[dW0, db0, dW1, db1, ...]``; ``views``
        splits it per tensor.
        """
        inputs = cache
        grad = np.empty_like(self.params)
        layout = self._layout
        delta = np.asarray(dlogits, dtype=np.float64)
        for i in reversed(range(self.num_layers)):
            (wspan, wshape), (bspan, _) = layout[2 * i], layout[2 * i + 1]
            np.matmul(inputs[i].T, delta, out=grad[wspan].reshape(wshape))
            delta.sum(axis=0, out=grad[bspan])
            if i > 0:
                delta = delta @ self.weights[i].T
                delta *= inputs[i] > 0
        return grad

    def apply_step(self, grad, lr=None):
        """SGD update from a flat gradient laid out like ``params``
        (``[dW0, db0, dW1, db1, ...]``); mean reduction is the caller's.

        The momentum vector is updated in place (``v *= momentum; v += g``)
        and every parameter, biases included, must stay finite.
        """
        step = self.lr if lr is None else float(lr)
        if not np.isfinite(grad).all():
            raise NumericalError(
                f"non-finite gradient (max abs {np.max(np.abs(grad))!r})")
        v = self.velocity
        v *= self.momentum
        v += grad
        self.params -= step * v
        if not np.isfinite(self.params).all():
            raise NumericalError("non-finite parameters after SGD step")

    def train_step(self, features, labels, class_mask=None, lr=None):
        """Forward, per-sample CE, backward and SGD step; returns the losses."""
        logits, cache = self.forward(features, cache=True)
        losses = per_sample_ce(logits, labels, class_mask)
        grads = self.backward(cache, ce_gradient(logits, labels, class_mask))
        self.apply_step(grads, lr=lr)
        return losses


def _mask_columns(num_classes, class_mask):
    """(sorted column array, boolean lookup over 0..C-1) of a class mask.

    Memoised per ``(num_classes, mask)``: the engine passes the same few
    masks on every batch, so the sort and bounds check run once per mask.
    A mask is keyed by the tuple of its elements in iteration order; the
    returned arrays are shared between calls and therefore read-only.
    """
    key = None if class_mask is None else tuple(class_mask)
    return _mask_columns_memo(num_classes, key)


@functools.lru_cache(maxsize=64)
def _mask_columns_memo(num_classes, class_mask):
    if class_mask is None:
        cols = np.arange(num_classes)
    else:
        cols = np.array(sorted(int(c) for c in class_mask), dtype=np.intp)
        if cols.size == 0:
            raise InputError("class_mask must be non-empty")
        if cols[0] < 0 or cols[-1] >= num_classes:
            raise InputError(f"class_mask {cols.tolist()} outside 0..{num_classes - 1}")
    allowed = np.zeros(num_classes, dtype=bool)
    allowed[cols] = True
    cols.flags.writeable = False
    allowed.flags.writeable = False
    return cols, allowed


def _checked_ce_inputs(logits, labels, class_mask):
    """(float64 logits, intp labels, mask columns) of a masked-CE call.

    Every label must lie inside the class mask, or inside 0..C-1 without
    one: outside it the masked softmax assigns the label no probability.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or labels.ndim != 1 or len(labels) != len(logits):
        raise InputError("logits must be (n, C) and labels (n,)")
    cols, allowed = _mask_columns(logits.shape[1], class_mask)
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]
                        or not allowed[labels].all()):
        if class_mask is None:
            raise InputError("label outside 0..C-1")
        bad = labels[~np.isin(labels, cols)][0]
        raise InputError(f"label {bad} outside class mask {cols.tolist()}")
    return logits, labels, cols


def per_sample_ce(logits, labels, class_mask=None):
    """Per-sample cross-entropy, optionally restricted to a class mask.

    With a mask, the softmax runs over the masked classes only and the
    loss is undefined (an error) for labels outside the mask. Losses are
    clamped at 0 to absorb float cancellation.
    """
    logits, labels, cols = _checked_ce_inputs(logits, labels, class_mask)
    # ``sub`` is the fancy-index copy even without a mask: its memory
    # layout fixes the rounding of the row sums below
    sub = logits[:, cols]
    peak = sub.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(sub - peak).sum(axis=1))
    return np.maximum(lse - logits[np.arange(len(labels)), labels], 0.0)


def ce_gradient(logits, labels, class_mask=None):
    """Gradient of the batch-mean CE w.r.t. logits; exactly 0 outside the
    mask. Labels are checked as in ``per_sample_ce``."""
    logits, labels, cols = _checked_ce_inputs(logits, labels, class_mask)
    sub = logits[:, cols]
    peak = sub.max(axis=1, keepdims=True)
    expd = np.exp(sub - peak)
    probs = expd / expd.sum(axis=1, keepdims=True)
    grad = np.zeros_like(logits)
    grad[:, cols] = probs
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad / len(labels)


def softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    peak = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - peak)
    return expd / expd.sum(axis=1, keepdims=True)


def soft_cross_entropy(logits, targets):
    """Per-sample CE against probability-vector targets."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    peak = logits.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))
    return lse - (targets * logits).sum(axis=1)


def soft_ce_gradient(logits, targets):
    """Gradient of batch-mean soft-target CE w.r.t. logits."""
    return (softmax(logits) - np.asarray(targets, dtype=np.float64)) / len(logits)


def prob_mse(logits, targets):
    """Per-sample squared error between softmax outputs and target probabilities.

    Normalised by the class count, matching the usual consistency-loss
    convention for semi-supervised mixing.
    """
    p = softmax(logits)
    diff = p - np.asarray(targets, dtype=np.float64)
    return (diff ** 2).sum(axis=1) / logits.shape[1]


def prob_mse_gradient(logits, targets):
    """Gradient of batch-mean ``prob_mse`` w.r.t. logits (softmax Jacobian applied)."""
    logits = np.asarray(logits, dtype=np.float64)
    n, c = logits.shape
    p = softmax(logits)
    r = 2.0 * (p - np.asarray(targets, dtype=np.float64)) / (n * c)
    return p * (r - (r * p).sum(axis=1, keepdims=True))


def augment(features, seed, strength):
    """Seeded Gaussian jitter of the given per-coordinate strength.

    ``strength`` 0 returns an unmodified copy. ``seed`` may be an int or a
    ``numpy.random.Generator``.
    """
    if strength < 0:
        raise InputError(f"strength must be >= 0, got {strength}")
    x = np.asarray(features, dtype=np.float64)
    if strength == 0:
        return x.copy()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return x + rng.standard_normal(x.shape) * float(strength)


class Checkpoint:
    """Serialized parameter snapshot; restores bitwise."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = bytes(data)


def save_checkpoint(model):
    """Serialize parameters and momentum buffers.

    Byte layout: magic ``AERCKPT1``, little-endian u32 layer count, then per
    layer u32 rows, u32 cols, row-major f64 weights and f64 biases; momentum
    buffers follow in the same per-layer order, which is the byte image of
    the flat ``velocity`` vector.
    """
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", model.num_layers)]
    for w, b in zip(model.weights, model.biases):
        parts.append(struct.pack("<II", w.shape[0], w.shape[1]))
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(model.velocity, dtype="<f8").tobytes())
    return Checkpoint(b"".join(parts))


def restore_checkpoint(model, checkpoint):
    """Restore parameters from a checkpoint into a matching architecture.

    The bytes are copied into the model's existing ``params`` and
    ``velocity`` vectors, so the per-tensor views stay attached; the model
    is left untouched when the checkpoint does not match.
    """
    data = checkpoint.data
    if data[:8] != CHECKPOINT_MAGIC:
        raise InputError("not a checkpoint (bad magic)")
    offset = 8
    (layer_count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if layer_count != model.num_layers:
        raise InputError(
            f"architecture mismatch: checkpoint has {layer_count} layers, "
            f"model has {model.num_layers}")
    # a layer's W and b are adjacent both in ``params`` and in the
    # checkpoint, where its shape header comes first
    layers = []
    for w in model.weights:
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        if (rows, cols) != w.shape:
            raise InputError(
                f"architecture mismatch: checkpoint layer is {rows}x{cols}, "
                f"model layer is {w.shape[0]}x{w.shape[1]}")
        layers.append((offset, rows * cols + cols))
        offset += 8 * layers[-1][1]
    velocity = np.frombuffer(data, "<f8", model.velocity.size, offset)
    if offset + velocity.nbytes != len(data):
        raise InputError("corrupt checkpoint: trailing bytes")
    pos = 0
    for start, size in layers:
        model.params[pos:pos + size] = np.frombuffer(data, "<f8", size, start)
        pos += size
    model.velocity[:] = velocity
    return model
