import warnings

import numpy as np
import pytest

from aer import consolidation
from aer.buffer import MemoryBuffer
from aer.config import RunConfig
from aer.consolidation import (_buffer_accuracy, _cosine_lr, _mixmatch_step,
                               buffer_fit, consolidate, corefine_labels, fit_gmm_em,
                               sharpen, split_pure_uncertain)
from aer.errors import InputError
from aer.mlp import MLP, per_sample_ce, save_checkpoint, soft_ce_gradient
from aer.stream import make_synthetic
from conftest import median_faa


def two_mode_sample(n0=500, n1=500, seed=0):
    rng = np.random.default_rng(seed)
    low = rng.normal(0.1, 0.05, n0)
    high = rng.normal(2.0, 0.2, n1)
    return np.abs(np.concatenate([low, high]))


def test_gmm_recovers_separated_means():
    fit = fit_gmm_em(two_mode_sample())
    assert abs(fit.means[0] - 0.1) < 0.1
    assert abs(fit.means[1] - 2.0) < 0.1


def test_gmm_recovers_mixture_weights():
    fit = fit_gmm_em(two_mode_sample(1400, 600, seed=3))
    assert abs(fit.weights[0] - 0.7) < 0.05
    assert abs(fit.weights[1] - 0.3) < 0.05


def test_gmm_loglikelihood_is_monotone():
    fit = fit_gmm_em(two_mode_sample(seed=5))
    diffs = np.diff(fit.log_likelihoods)
    assert np.all(diffs >= -1e-9)


def test_gmm_identical_losses_gives_half_posteriors():
    with pytest.warns(UserWarning):
        fit = fit_gmm_em(np.full(20, 0.4))
    assert np.allclose(fit.posterior_low, 0.5, atol=1e-12)
    assert fit.variances[0] == pytest.approx(1e-6)


def test_gmm_needs_at_least_four_points():
    with pytest.raises(InputError):
        fit_gmm_em(np.array([0.1, 0.2, 0.3]))


def test_gmm_rejects_bad_losses():
    with pytest.raises(InputError):
        fit_gmm_em(np.array([0.1, np.nan, 0.3, 0.4]))
    with pytest.raises(InputError):
        fit_gmm_em(np.array([0.1, -0.2, 0.3, 0.4]))


def test_split_well_separated_assigns_low_cluster_to_pure():
    losses = two_mode_sample(200, 200, seed=1)
    fit = fit_gmm_em(losses)
    pure, uncertain = split_pure_uncertain(fit, 0.5)
    assert np.all(losses[pure] < 1.0)
    assert np.all(losses[uncertain] > 1.0)
    assert len(pure) + len(uncertain) == len(losses)
    assert not set(pure) & set(uncertain)


def test_split_shrinks_as_threshold_rises():
    fit = fit_gmm_em(two_mode_sample(300, 300, seed=2))
    sizes = [len(split_pure_uncertain(fit, thr)[0])
             for thr in (0.2, 0.5, 0.8, 0.99)]
    assert sizes == sorted(sizes, reverse=True)


def test_split_threshold_bounds():
    fit = fit_gmm_em(two_mode_sample(50, 50))
    with pytest.raises(InputError):
        split_pure_uncertain(fit, 0.0)
    with pytest.raises(InputError):
        split_pure_uncertain(fit, 1.0)


def test_sharpen_temperature_one_is_identity():
    p = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    assert np.allclose(sharpen(p, 1.0), p, atol=1e-12)


def test_sharpen_low_temperature_approaches_hardmax():
    p = np.array([[0.2, 0.3, 0.5]])
    sharp = sharpen(p, 0.01)
    assert sharp[0, 2] > 0.999
    assert np.allclose(sharp.sum(axis=1), 1.0, atol=1e-12)


def test_corefine_u_one_returns_onehot():
    model = MLP(3, 4, hidden=(5,), lr=0.1, seed=0)
    x = np.random.default_rng(0).standard_normal((6, 3))
    labels = np.array([0, 1, 2, 3, 1, 2])
    refined = corefine_labels(model, x, labels, np.ones(6), 4,
                              rng=np.random.default_rng(1))
    assert np.allclose(refined, np.eye(4)[labels], atol=1e-12)


def test_corefine_u_zero_single_clean_augment_is_softmax():
    from aer.mlp import softmax
    model = MLP(3, 4, hidden=(5,), lr=0.1, seed=0)
    x = np.random.default_rng(0).standard_normal((5, 3))
    refined = corefine_labels(model, x, np.zeros(5, dtype=int), np.zeros(5), 4,
                              num_augments=1, augment_strength=0.0,
                              rng=np.random.default_rng(1))
    assert np.allclose(refined, softmax(model.forward(x)), atol=1e-12)


def test_corefine_rows_are_distributions():
    model = MLP(3, 4, hidden=(5,), lr=0.1, seed=0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 3))
    u = rng.random(8)
    refined = corefine_labels(model, x, rng.integers(0, 4, 8), u, 4,
                              num_augments=3, augment_strength=0.2, rng=rng)
    assert np.allclose(refined.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(refined >= 0)


def test_mixmatch_step_lambda_zero_reduces_to_supervised():
    rng = np.random.default_rng(4)
    mixed_x = rng.standard_normal((12, 3))
    mixed_t = rng.dirichlet(np.ones(4), size=12)
    a = MLP(3, 4, hidden=(5,), lr=0.1, seed=7)
    b = MLP(3, 4, hidden=(5,), lr=0.1, seed=7)
    _mixmatch_step(a, mixed_x, mixed_t, n_labeled=6, lambda_u=0.0, lr=0.1)
    logits, cache = b.forward(mixed_x[:6], cache=True)
    b.apply_step(b.backward(cache, soft_ce_gradient(logits, mixed_t[:6])), lr=0.1)
    assert save_checkpoint(a) == save_checkpoint(b)


def noisy_buffer(n=120, noise=0.3, seed=0, dim=4, classes=4):
    ds = make_synthetic(classes, dim, n // classes, 1.0, seed)
    rng = np.random.default_rng(seed + 1)
    buf = MemoryBuffer(len(ds), dim)
    for i in range(len(ds)):
        true = int(ds.labels_true[i])
        stored = true
        if rng.random() < noise:
            stored = int((true + 1) % classes)
        buf.add(ds.features[i], stored, true, 0, 0.0)
    return buf


def consolidation_cfg(**overrides):
    base = dict(classes=4, dims=4, per_class=30, tasks=1, consolidation="mixmatch",
                consolidation_epochs=20, consolidation_lr=0.05)
    base.update(overrides)
    return RunConfig(**base).validate()


def test_mixmatch_never_reads_true_labels():
    cfg = consolidation_cfg()

    def run(poison):
        buf = noisy_buffer()
        if poison:
            buf.true_labels[:buf.size] = 0
        model = MLP(4, 4, hidden=(8,), lr=0.1, seed=3)
        for _ in range(30):
            sel = np.random.default_rng(0).permutation(buf.size)[:32]
            model.train_step(buf.features[sel], buf.labels[sel])
        consolidate(model, buf, cfg, rng=np.random.default_rng(9))
        return save_checkpoint(model)

    assert run(False) == run(True)


def test_mixmatch_empty_pure_set_falls_back():
    cfg = consolidation_cfg(gmm_threshold=0.9)
    buf = MemoryBuffer(8, 4)
    for i in range(8):
        buf.add(np.random.default_rng(i).standard_normal(4), i % 4, i % 4, 0, 0.0)
    model, direct = (MLP(4, 4, hidden=(8,), lr=0.1, seed=1) for _ in range(2))
    # identical logits for identical losses: zero the weights so every loss
    # is ln(4) and the mixture degenerates to posteriors of exactly 0.5
    for w in model.weights + direct.weights:
        w[:] = 0.0
    rng, direct_rng = np.random.default_rng(2), np.random.default_rng(2)
    with pytest.warns(UserWarning):
        report = consolidate(model, buf, cfg, rng)
    assert report["fallback"] == "buffer_fit"
    assert not {"pure_precision", "pure_recall", "pure_class_counts"} & set(report)
    # the split draws nothing, so the fallback is the plain buffer_fit call
    buffer_fit(direct, buf, cfg.consolidation_epochs, cfg.consolidation_lr,
               cfg.consolidation_batch, rng=direct_rng)
    assert save_checkpoint(model) == save_checkpoint(direct)
    assert rng.bit_generator.state == direct_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 3])
def test_mixmatch_small_buffer_is_a_buffer_fit(n):
    """Fewer than 4 entries: the report, warning and model bytes are those
    of ``buffer_fit`` on the consolidation settings, the same single call
    that ``buffer_fit`` mode makes without a warning."""
    buf = MemoryBuffer(4, 4)
    for i in range(n):
        buf.add(np.random.default_rng(i).standard_normal(4), i % 4, (i + 1) % 4, 0, 0.0)
    fallback_warning = "buffer too small for a mixture fit; falling back to buffer_fit"
    for mode, fallback, warned in [("mixmatch", "buffer_fit", [fallback_warning]),
                                   ("buffer_fit", None, [])]:
        cfg = consolidation_cfg(consolidation=mode, consolidation_epochs=3,
                                consolidation_batch=2)
        model = MLP(4, 4, hidden=(8,), lr=0.1, momentum=0.9, seed=1)
        direct = MLP(4, 4, hidden=(8,), lr=0.1, momentum=0.9, seed=1)
        pre = _buffer_accuracy(model, buf)
        rng, direct_rng = np.random.default_rng(2), np.random.default_rng(2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = consolidate(model, buf, cfg, rng)
        assert [str(w.message) for w in caught] == warned
        buffer_fit(direct, buf, cfg.consolidation_epochs, cfg.consolidation_lr,
                   cfg.consolidation_batch, rng=direct_rng)
        assert save_checkpoint(model) == save_checkpoint(direct)
        assert rng.bit_generator.state == direct_rng.bit_generator.state
        assert report == {"kind": mode, "fallback": fallback, "pre": pre,
                          "post": _buffer_accuracy(direct, buf)}


@pytest.mark.parametrize("mode", ["buffer_fit", "mixmatch"])
def test_report_accuracies_predict_over_the_given_classes(mode):
    cfg = consolidation_cfg(consolidation=mode, consolidation_epochs=0)
    buf = noisy_buffer()
    model = MLP(4, 4, hidden=(8,), lr=0.1, seed=3)
    logits = model.forward(buf.features[:buf.size])
    pred = np.array([1, 3])[np.argmax(logits[:, [1, 3]], axis=1)]
    report = consolidate(model, buf, cfg, np.random.default_rng(0), classes=(3, 1))
    for key in ("pre", "post"):
        assert report[key] == {
            "stored_label_accuracy": float((pred == buf.labels[:buf.size]).mean()),
            "true_label_accuracy": float((pred == buf.true_labels[:buf.size]).mean())}


def test_mixmatch_report_shape():
    cfg = consolidation_cfg(consolidation_epochs=3)
    buf = noisy_buffer()
    model = MLP(4, 4, hidden=(8,), lr=0.1, seed=3)
    report = consolidate(model, buf, cfg, rng=np.random.default_rng(1))
    assert report["fallback"] is None
    assert report["n_pure"] + report["n_uncertain"] == len(buf)
    assert len(report["gmm"]["means"]) == 2
    assert 0 <= report["post"]["true_label_accuracy"] <= 1


def expected_split_audit(buffer, pure, classes):
    labels = buffer.labels[:buffer.size]
    clean = labels == buffer.true_labels[:buffer.size]
    return {"pure_precision": clean[pure].sum() / len(pure),
            "pure_recall": clean[pure].sum() / clean.sum() if clean.any() else None,
            "pure_class_counts": [int((labels[pure] == c).sum()) for c in range(classes)]}


@pytest.mark.parametrize("noise", [0.3, 1.0])
def test_mixmatch_report_audits_the_split_against_true_labels(monkeypatch, noise):
    """Precision is the clean share of the pure set, recall the share of the
    clean entries that are pure (None when no entry is clean)."""
    cfg = consolidation_cfg(consolidation_epochs=1)
    buf = noisy_buffer(noise=noise)
    splits = []
    monkeypatch.setattr(consolidation, "split_pure_uncertain", lambda fit, thr: (
        splits.append(split_pure_uncertain(fit, thr)) or splits[-1]))
    model = MLP(4, 4, hidden=(8,), lr=0.1, seed=3)
    report = consolidate(model, buf, cfg, rng=np.random.default_rng(1))
    assert report["fallback"] is None
    expected = expected_split_audit(buf, splits[0][0], 4)
    assert {k: report[k] for k in expected} == expected
    assert sum(report["pure_class_counts"]) == report["n_pure"]
    assert (report["pure_recall"] is None) == (noise == 1.0)


def reference_mixmatch_consolidate(model, buffer, cfg, rng):
    """``consolidate`` in mixmatch mode with its first mixup loop: per step, the
    rows are gathered and stacked, then drawn for and mixed on their own.
    Covers the non-fallback path only."""
    report = {"kind": "mixmatch", "fallback": None,
              "pre": _buffer_accuracy(model, buffer)}
    x = buffer.features[:buffer.size].copy()
    y = buffer.labels[:buffer.size].copy()
    c = model.num_classes
    fit = fit_gmm_em(per_sample_ce(model.forward(x), y))
    pure, uncertain = consolidation.split_pure_uncertain(fit, cfg.gmm_threshold)
    report["gmm"] = {"means": fit.means.tolist(), "variances": fit.variances.tolist(),
                     "weights": fit.weights.tolist()}
    report["n_pure"] = int(len(pure))
    report["n_uncertain"] = int(len(uncertain))
    report.update(expected_split_audit(buffer, pure, c))
    targets = np.zeros((buffer.size, c))
    targets[pure] = np.eye(c)[y[pure]]
    if len(uncertain):
        refined = corefine_labels(model, x[uncertain], y[uncertain],
                                  fit.posterior_low[uncertain], c,
                                  cfg.num_augments, cfg.augment_strength, rng=rng)
        targets[uncertain] = sharpen(refined, cfg.temperature)
    batch = cfg.consolidation_batch
    for epoch in range(cfg.consolidation_epochs):
        lr_e = _cosine_lr(cfg.consolidation_lr, epoch, cfg.consolidation_epochs)
        order = rng.permutation(pure)
        uorder = rng.permutation(uncertain) if len(uncertain) else None
        upos = 0
        for start in range(0, len(order), batch):
            lsel = order[start:start + batch]
            if uorder is not None and len(uorder):
                usel = uorder[(upos + np.arange(len(lsel))) % len(uorder)]
                upos += len(lsel)
                allx = np.vstack([x[lsel], x[usel]])
                allt = np.vstack([targets[lsel], targets[usel]])
            else:
                allx, allt = x[lsel], targets[lsel]
            widx = rng.permutation(len(allx))
            lam = rng.beta(cfg.mixup_alpha, cfg.mixup_alpha, size=(len(allx), 1))
            lam = np.maximum(lam, 1.0 - lam)
            mixed_x = lam * allx + (1.0 - lam) * allx[widx]
            mixed_t = lam * allt + (1.0 - lam) * allt[widx]
            _mixmatch_step(model, mixed_x, mixed_t, len(lsel), cfg.lambda_u, lr_e)
    report["post"] = _buffer_accuracy(model, buffer)
    return report


@pytest.mark.parametrize("n_pure, n_uncertain, batch", [
    (48, 0, 16),    # no uncertain entries
    (40, 5, 16),    # fewer uncertain entries than a batch: they wrap around
    (37, 20, 16),   # a pure count that is not a multiple of the batch
    (7, 3, 1),      # batch 1
    (10, 25, 64),   # a batch larger than the pure set
])
def test_mixmatch_epoch_batches_match_per_step_reference(monkeypatch, n_pure,
                                                         n_uncertain, batch):
    """The epoch-wide mixup gives the per-step loop's model bytes, report
    and generator state."""
    cfg = consolidation_cfg(consolidation_epochs=3, consolidation_batch=batch,
                            mixup_alpha=0.4, lambda_u=0.5)
    buf = noisy_buffer(n=n_pure + n_uncertain + 3, seed=n_pure)
    split = np.random.default_rng(n_uncertain).permutation(buf.size)
    monkeypatch.setattr(consolidation, "split_pure_uncertain", lambda fit, thr: (
        np.sort(split[:n_pure]), np.sort(split[n_pure:n_pure + n_uncertain])))
    results = []
    for run in (consolidate, reference_mixmatch_consolidate):
        model = MLP(4, 4, hidden=(8, 6), lr=0.1, momentum=0.9, seed=3)
        rng = np.random.default_rng(11)
        report = run(model, buf, cfg, rng)
        results.append((save_checkpoint(model), report, rng.bit_generator.state))
    assert results[0][1]["n_pure"] == n_pure
    assert results[0] == results[1]


def test_buffer_fit_zero_epochs_is_identity():
    buf = noisy_buffer()
    model = MLP(4, 4, hidden=(8,), lr=0.1, seed=5)
    before = save_checkpoint(model)
    buffer_fit(model, buf, epochs=0, lr=0.1, rng=np.random.default_rng(0))
    assert save_checkpoint(model) == before


def test_buffer_fit_overfits_clean_buffer():
    buf = noisy_buffer(noise=0.0, seed=2)
    model = MLP(4, 4, hidden=(16, 16), lr=0.1, seed=5)
    buffer_fit(model, buf, epochs=80, lr=0.1, rng=np.random.default_rng(0))
    acc = (model.predict(buf.features[:buf.size]) == buf.labels[:buf.size]).mean()
    assert acc > 0.99


def test_buffer_fit_epoch_loss_nonincreasing():
    buf = noisy_buffer(noise=0.1, seed=4)
    model = MLP(4, 4, hidden=(16,), lr=0.05, seed=6)
    rng = np.random.default_rng(1)
    means = []
    for _ in range(6):
        losses = per_sample_ce(model.forward(buf.features[:buf.size]),
                               buf.labels[:buf.size])
        means.append(losses.mean())
        buffer_fit(model, buf, epochs=1, lr=0.05, rng=rng)
    diffs = np.diff(means)
    assert np.all(diffs <= 1e-6)


def test_gmm_split_tracks_buffer_noise_fraction():
    # buffer with ~40% mislabeled entries, scored by a model fit on clean
    # data from the same clusters
    ds = make_synthetic(4, 6, 150, 1.0, seed=12)
    train, held = ds.subset(np.arange(0, 400)), ds.subset(np.arange(400, 600))
    model = MLP(6, 4, hidden=(16, 16), lr=0.1, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(40):
        sel = rng.permutation(len(train))[:32]
        model.train_step(train.features[sel], train.labels_true[sel])
    buf = MemoryBuffer(len(held), 6)
    for i in range(len(held)):
        true = int(held.labels_true[i])
        stored = true if rng.random() >= 0.4 else int((true + 1) % 4)
        buf.add(held.features[i], stored, true, 0, 0.0)
    losses = per_sample_ce(model.forward(buf.features[:buf.size]),
                           buf.labels[:buf.size])
    fit = fit_gmm_em(losses)
    pure, uncertain = split_pure_uncertain(fit, 0.5)
    true_noise = (buf.labels[:buf.size] != buf.true_labels[:buf.size]).mean()
    u_frac = len(uncertain) / buf.size
    assert abs(u_frac - true_noise) < 0.15


def test_consolidation_helps_in_subcritical_regime(bench):
    plain = bench.suite("aer_abs_40")
    cons = bench.suite("aer_abs_40_mixmatch", consolidation="mixmatch")
    assert median_faa(cons) >= median_faa(plain)
