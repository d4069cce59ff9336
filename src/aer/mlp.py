"""Minimal dense-network trainer.

A small fully-connected ReLU classifier with exact analytic gradients,
plain SGD (optional momentum), per-sample cross-entropy losses with an
optional class mask, byte-exact checkpoints and Gaussian feature jitter.
Everything is float64 so gradient checks and checkpoint round-trips are
unambiguous.

Parameters, momentum buffers and gradients are each one contiguous flat
vector in the order ``[W0, b0, W1, b1, ...]`` (weights row-major). The
per-tensor lists ``weights`` and ``biases`` are reshaped views into the
parameter vector, so an SGD step is a few whole-vector operations, and a
checkpoint is plain ``bytes``: a shape header, then both flat vectors.
"""

import functools
import math
import struct

import numpy as np

from .errors import InputError, NumericalError

CHECKPOINT_MAGIC = b"AERCKPT2"


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
        self.in_dim, self.num_classes, self.num_layers = sizes[0], sizes[-1], len(sizes) - 1
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
        return self.forward(features, cache=True)[1][-1]

    def predict(self, features, class_mask=None):
        """Argmax class per row, over the classes of ``class_mask`` if given."""
        cols = _mask_columns(self.num_classes, class_mask)[0]
        return cols[np.argmax(self.forward(features)[:, cols], axis=1)]

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
        losses, dlogits = per_sample_ce(logits, labels, class_mask, gradient=True)
        self.apply_step(self.backward(cache, dlogits), lr=lr)
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


def _masked_ce(logits, labels, class_mask, loss=True, gradient=True):
    """``(losses, grad)`` of the masked CE, each None unless asked for.

    One masked softmax stage serves both: the columns ``logits[:, cols]``
    are gathered once, and one ``exp`` and one row sum give the loss
    ``peak + log(sum) - logit[label]`` and the probabilities ``exp / sum``.
    """
    logits, labels, cols = _checked_ce_inputs(logits, labels, class_mask)
    # ``logits[:, cols]`` is the fancy-index copy even without a mask: its
    # memory layout fixes the rounding of the row sums
    sub = logits[:, cols]
    peak = sub.max(axis=1, keepdims=True)
    expd = np.exp(sub - peak)
    total = expd.sum(axis=1, keepdims=True)
    rows = np.arange(len(labels))
    losses = grad = None
    if loss:
        lse = peak[:, 0] + np.log(total[:, 0])
        losses = np.maximum(lse - logits[rows, labels], 0.0)
    if gradient:
        grad = np.zeros_like(logits)
        grad[:, cols] = expd / total
        grad[rows, labels] -= 1.0
        grad /= len(labels)
    return losses, grad


def per_sample_ce(logits, labels, class_mask=None, gradient=False):
    """Per-sample cross-entropy, optionally restricted to a class mask.

    With a mask, the softmax runs over the masked classes only and the
    loss is undefined (an error) for labels outside the mask. Losses are
    clamped at 0 to absorb float cancellation. With ``gradient=True`` the
    result is ``(losses, ce_gradient(...))`` from one masked softmax, byte
    for byte what the two separate calls return.
    """
    losses, grad = _masked_ce(logits, labels, class_mask, gradient=gradient)
    return (losses, grad) if gradient else losses


def ce_gradient(logits, labels, class_mask=None):
    """Gradient of the batch-mean CE w.r.t. logits; exactly 0 outside the
    mask. Labels are checked as in ``per_sample_ce``."""
    return _masked_ce(logits, labels, class_mask, loss=False)[1]


def softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    peak = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - peak)
    return expd / expd.sum(axis=1, keepdims=True)


def logsumexp(x):
    """Row-wise log-sum-exp of a 2-D float64 array, shifted by the row max."""
    peak = x.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(x - peak).sum(axis=1))


def soft_ce_gradient(logits, targets):
    """Gradient of batch-mean soft-target CE w.r.t. logits."""
    return (softmax(logits) - np.asarray(targets, dtype=np.float64)) / len(logits)


def prob_mse_gradient(logits, targets):
    """Gradient w.r.t. logits of the batch mean of the per-sample squared
    error between softmax outputs and target probabilities, divided by the
    class count (the usual consistency-loss convention for semi-supervised
    mixing); the softmax Jacobian is applied."""
    logits = np.asarray(logits, dtype=np.float64)
    n, c = logits.shape
    p = softmax(logits)
    r = 2.0 * (p - np.asarray(targets, dtype=np.float64)) / (n * c)
    return p * (r - (r * p).sum(axis=1, keepdims=True))


def augment(features, rng, strength):
    """Gaussian jitter of the given per-coordinate strength, drawn from the
    ``numpy.random.Generator`` ``rng``; ``strength`` 0 returns an unmodified
    copy and draws nothing."""
    if strength < 0:
        raise InputError(f"strength must be >= 0, got {strength}")
    x = np.asarray(features, dtype=np.float64)
    if strength == 0:
        return x.copy()
    return x + rng.standard_normal(x.shape) * float(strength)


def _checkpoint_header(model):
    dims = [d for w in model.weights for d in w.shape]
    return CHECKPOINT_MAGIC + struct.pack(f"<{1 + len(dims)}I", model.num_layers, *dims)


def save_checkpoint(model):
    """Serialize parameters and momentum into ``bytes``.

    Byte layout: magic ``AERCKPT2``, little-endian u32 layer count, u32 rows
    and cols of each weight matrix, then the flat ``params`` and ``velocity``
    vectors (``[W0, b0, W1, b1, ...]``, weights row-major) as little-endian f64.
    """
    body = np.concatenate((model.params, model.velocity)).astype("<f8", copy=False)
    return _checkpoint_header(model) + body.tobytes()


def restore_checkpoint(model, data):
    """Restore ``save_checkpoint``'s bytes into a matching architecture.

    The image is copied into the model's existing ``params`` and
    ``velocity`` vectors, so the per-tensor views stay attached; the model
    is left untouched when the image does not match.
    """
    if data[:8] != CHECKPOINT_MAGIC:
        raise InputError("not a checkpoint (bad magic)")
    header = _checkpoint_header(model)
    if data[:len(header)] != header:
        raise InputError(_header_mismatch(model, data))
    size = model.params.size
    if len(data) != len(header) + 16 * size:
        raise InputError(f"corrupt checkpoint: {len(data)} bytes, "
                         f"expected {len(header) + 16 * size}")
    body = np.frombuffer(data, "<f8", offset=len(header))
    model.params[:], model.velocity[:] = body[:size], body[size:]
    return model


def _header_mismatch(model, data):
    """How the header of checkpoint ``data`` differs from ``model``'s."""
    if len(data) >= 12:
        (layers,) = struct.unpack_from("<I", data, 8)
        if layers != model.num_layers:
            return (f"architecture mismatch: checkpoint has {layers} layers, "
                    f"model has {model.num_layers}")
    if len(data) < 12 + 8 * model.num_layers:
        return f"corrupt checkpoint: header cut short at {len(data)} bytes"
    for i, w in enumerate(model.weights):
        rows, cols = struct.unpack_from("<II", data, 12 + 8 * i)
        if (rows, cols) != w.shape:
            return (f"architecture mismatch: checkpoint layer {i} is {rows}x{cols}, "
                    f"model layer is {w.shape[0]}x{w.shape[1]}")
