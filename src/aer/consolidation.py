"""End-of-task buffer consolidation.

Either a plain supervised pass over the buffer (``buffer_fit``) or the
semi-supervised refinement: fit a two-component Gaussian mixture on the
buffer losses, split entries into pure and uncertain sets by the low-mean
posterior, co-refine uncertain labels from augmented model predictions,
then train on mixup-combined batches with a supervised term plus a
weighted consistency term.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .mlp import (augment, logsumexp, per_sample_ce, prob_mse_gradient,
                  soft_ce_gradient, softmax)

VARIANCE_FLOOR = 1e-6


@dataclass
class GmmFit:
    """Two components ordered by mean; ``posterior_low`` is per-sample
    membership of the low-mean (clean-looking) component."""
    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    posterior_low: np.ndarray
    log_likelihoods: list = field(default_factory=list)


def _responsibilities(x, means, variances, weights):
    # log weight + log normal density, one column per component
    logp = np.log(weights) - 0.5 * (np.log(2.0 * math.pi * variances)
                                    + (x[:, None] - means) ** 2 / variances)
    norm = logsumexp(logp)
    return np.exp(logp - norm[:, None]), float(norm.sum())


def fit_gmm_em(losses):
    """Fit a two-component 1-D Gaussian mixture by EM.

    Initialised from a median split (lower half vs upper half); stops when
    the log-likelihood improvement drops below 1e-6, or after 200
    iterations. Variances are floored at 1e-6 with a warning; components
    come back ordered by mean.
    """
    x = np.asarray(losses, dtype=np.float64)
    if x.ndim != 1 or len(x) < 4:
        raise InputError(f"need a flat vector of >= 4 losses, got shape {x.shape}")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise InputError("losses must be finite and >= 0")
    order = np.argsort(x, kind="stable")
    half = len(x) // 2
    lo, hi = x[order[:half]], x[order[half:]]
    means = np.array([lo.mean(), hi.mean()])
    variances = np.array([lo.var(), hi.var()])
    weights = np.array([len(lo) / len(x), len(hi) / len(x)])
    if np.any(variances < VARIANCE_FLOOR):
        warnings.warn("near-zero mixture variance floored at 1e-6")
    variances = np.maximum(variances, VARIANCE_FLOOR)

    ll_trace = []
    for _ in range(200):
        resp, ll = _responsibilities(x, means, variances, weights)
        ll_trace.append(ll)
        if len(ll_trace) > 1 and ll - ll_trace[-2] < 1e-6:
            break
        mass = resp.sum(axis=0)
        for k in range(2):
            if mass[k] < 1e-12:
                continue
            means[k] = (resp[:, k] * x).sum() / mass[k]
            var_k = (resp[:, k] * (x - means[k]) ** 2).sum() / mass[k]
            if var_k < VARIANCE_FLOOR:
                warnings.warn("near-zero mixture variance floored at 1e-6")
            variances[k] = max(var_k, VARIANCE_FLOOR)
        weights = mass / len(x)

    if means[0] > means[1]:
        means, variances, weights = means[::-1], variances[::-1], weights[::-1]
    resp, _ = _responsibilities(x, means, variances, weights)
    return GmmFit(means.copy(), variances.copy(), weights.copy(),
                  resp[:, 0].copy(), ll_trace)


def split_pure_uncertain(fit, threshold):
    """Index sets (pure, uncertain) from thresholding the low-mean posterior."""
    if not 0.0 < threshold < 1.0:
        raise InputError(f"threshold must be in (0, 1), got {threshold}")
    pure = np.flatnonzero(fit.posterior_low >= threshold)
    uncertain = np.flatnonzero(fit.posterior_low < threshold)
    return pure, uncertain


def sharpen(probs, temperature):
    """Raise probabilities to 1/temperature and renormalise rows."""
    if temperature <= 0:
        raise InputError(f"temperature must be > 0, got {temperature}")
    p = np.asarray(probs, dtype=np.float64) ** (1.0 / temperature)
    return p / p.sum(axis=1, keepdims=True)


def corefine_labels(model, features, noisy_labels, posterior_low, num_classes,
                    num_augments=3, augment_strength=0.1, *, rng):
    """Blend stored one-hot labels with averaged augmented predictions.

    Each refined row is u * onehot(label) + (1 - u) * mean over
    ``num_augments`` jittered forward passes of the softmax output.
    """
    if num_augments < 1:
        raise InputError(f"num_augments must be >= 1, got {num_augments}")
    features = np.asarray(features, dtype=np.float64)
    u = np.asarray(posterior_low, dtype=np.float64)[:, None]
    onehot = np.eye(num_classes)[np.asarray(noisy_labels, dtype=np.intp)]
    avg = np.zeros((len(features), num_classes))
    for _ in range(num_augments):
        avg += softmax(model.forward(augment(features, rng, augment_strength)))
    avg /= num_augments
    return u * onehot + (1.0 - u) * avg


def _cosine_lr(base, step, total):
    return base * 0.5 * (1.0 + math.cos(math.pi * step / total))


def buffer_fit(model, buffer, epochs, lr, batch_size=64, *, rng):
    """Plain supervised fine-tuning on a non-empty buffer with cosine-decayed lr."""
    x, y = buffer.features, buffer.labels
    for epoch in range(epochs):
        lr_e = _cosine_lr(lr, epoch, epochs)
        order = rng.permutation(buffer.size)
        for start in range(0, buffer.size, batch_size):
            sel = order[start:start + batch_size]
            model.train_step(x[sel], y[sel], lr=lr_e)
    return model


def _mixmatch_step(model, mixed_x, mixed_t, n_labeled, lambda_u, lr):
    """One SGD step on L_s (soft CE, the first ``n_labeled`` >= 1 rows) +
    lambda_u * L_u (consistency, the rest)."""
    logits, cache = model.forward(mixed_x, cache=True)
    dlogits = np.zeros_like(logits)
    dlogits[:n_labeled] = soft_ce_gradient(logits[:n_labeled], mixed_t[:n_labeled])
    if n_labeled < len(mixed_x):
        dlogits[n_labeled:] = lambda_u * prob_mse_gradient(
            logits[n_labeled:], mixed_t[n_labeled:])
    model.apply_step(model.backward(cache, dlogits), lr=lr)


def _buffer_accuracy(model, buffer, classes=None):
    pred = model.predict(buffer.features, classes)
    return {
        "stored_label_accuracy": float((pred == buffer.labels).mean()),
        "true_label_accuracy": float((pred == buffer.true_labels).mean()),
    }


def _split_audit(buffer, pure, num_classes):
    """The pure set's precision and recall against the true labels (recall
    None when the buffer holds no clean entry) and its entries per stored
    label."""
    clean = buffer.labels == buffer.true_labels
    n_clean, pure_clean = int(clean.sum()), int(clean[pure].sum())
    return {"pure_precision": pure_clean / len(pure),
            "pure_recall": pure_clean / n_clean if n_clean else None,
            "pure_class_counts": np.bincount(buffer.labels[pure],
                                             minlength=num_classes).tolist()}


def _mixup_fit(model, x, y, fit, pure, uncertain, cfg, rng):
    """Train on mixup batches of one-hot pure and co-refined, sharpened
    uncertain targets (see ``consolidate``)."""
    c = model.num_classes
    targets = np.zeros((len(x), c))
    targets[pure] = np.eye(c)[y[pure]]
    if len(uncertain):
        refined = corefine_labels(model, x[uncertain], y[uncertain],
                                  fit.posterior_low[uncertain], c,
                                  cfg.num_augments, cfg.augment_strength, rng=rng)
        targets[uncertain] = sharpen(refined, cfg.temperature)

    xt = np.hstack((x, targets))
    batch = cfg.consolidation_batch
    for epoch in range(cfg.consolidation_epochs):
        lr_e = _cosine_lr(cfg.consolidation_lr, epoch, cfg.consolidation_epochs)
        order = rng.permutation(pure)
        cycled = (rng.permutation(uncertain)[np.arange(len(order)) % len(uncertain)]
                  if len(uncertain) else order[:0])
        for s in range(0, len(order), batch):
            labeled = order[s:s + batch]
            rows = np.concatenate((labeled, cycled[s:s + batch]))
            partner = rows[rng.permutation(len(rows))]
            lam = rng.beta(cfg.mixup_alpha, cfg.mixup_alpha, size=(len(rows), 1))
            lam = np.maximum(lam, 1.0 - lam)
            mixed = lam * xt[rows] + (1.0 - lam) * xt[partner]
            _mixmatch_step(model, mixed[:, :-c], mixed[:, -c:], len(labeled),
                           cfg.lambda_u, lr_e)


def consolidate(model, buffer, cfg, rng, classes=None):
    """Consolidate the model on a non-empty buffer by ``cfg.consolidation``;
    returns a report dict whose ``pre``/``post`` buffer accuracies predict
    over ``classes`` (every class when None).

    ``buffer_fit`` fine-tunes on the stored labels with the consolidation
    settings. ``mixmatch`` recomputes losses with a fresh forward pass,
    splits them by a two-component mixture fit, co-refines and sharpens
    the uncertain labels, then trains on mixup batches of pure + refined
    targets. It falls back to the same ``buffer_fit`` when the buffer is
    too small to fit a mixture or the pure set comes out empty. Never
    reads true labels for training; a report with a pure set audits it
    against them (``_split_audit``).

    Each epoch permutes the pure and then the uncertain entries. A batch is
    ``batch`` pure rows followed by as many uncertain rows, cycling through
    their permutation; it draws its partner permutation, then its
    ``Beta(alpha, alpha)`` weights, and mixes features and targets as one
    ``[features | targets]`` array.
    """
    if cfg.consolidation not in ("buffer_fit", "mixmatch"):
        raise InputError(f"unknown consolidation mode {cfg.consolidation!r}")
    report = {"kind": cfg.consolidation, "fallback": None,
              "pre": _buffer_accuracy(model, buffer, classes)}
    if cfg.consolidation == "mixmatch" and buffer.size < 4:
        warnings.warn("buffer too small for a mixture fit; falling back to buffer_fit")
        report["fallback"] = "buffer_fit"
    elif cfg.consolidation == "mixmatch":
        x, y = buffer.features, buffer.labels
        fit = fit_gmm_em(per_sample_ce(model.forward(x), y))
        pure, uncertain = split_pure_uncertain(fit, cfg.gmm_threshold)
        report["gmm"] = {"means": fit.means.tolist(), "variances": fit.variances.tolist(),
                         "weights": fit.weights.tolist()}
        report["n_pure"], report["n_uncertain"] = len(pure), len(uncertain)
        if len(pure):
            report.update(_split_audit(buffer, pure, model.num_classes))
            _mixup_fit(model, x, y, fit, pure, uncertain, cfg, rng)
        else:
            warnings.warn("empty pure set; falling back to buffer_fit")
            report["fallback"] = "buffer_fit"
    if cfg.consolidation == "buffer_fit" or report["fallback"]:
        buffer_fit(model, buffer, cfg.consolidation_epochs, cfg.consolidation_lr,
                   cfg.consolidation_batch, rng=rng)
    report["post"] = _buffer_accuracy(model, buffer, classes)
    return report
