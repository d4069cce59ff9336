"""Training orchestration.

Runs per-task training with either the standard every-epoch rehearsal
protocol or the alternating schedule: learning epochs train on stream plus
replay with the buffer frozen, forgetting epochs train on the stream only,
update the buffer through gated insertion plus score-based replacement,
and restore the model checkpoint taken at the epoch start so only
learning-epoch updates persist.
"""

import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import buffer as buffer_mod
from .buffer import (MemoryBuffer, gdumb_update, insertion_candidates,
                     replace_with_candidates, reservoir_update)
from .config import PRESETS, config_hash, parse_superclasses
from .consolidation import buffer_fit, consolidate
from .errors import ConfigError, InputError, NumericalError, ParseError
from .metrics import AccuracyMatrix, faa, final_forgetting, separation_trace
from .mlp import MLP, ce_gradient, per_sample_ce, restore_checkpoint, save_checkpoint
from .stream import (Batch, NoiseSpec, default_superclass_pairs, inject_noise,
                     load_csv, make_synthetic, split_tasks, split_train_test,
                     standardize)


def resolve_method(name):
    if name not in PRESETS:
        raise ConfigError(f"unknown method {name!r}; known: {', '.join(PRESETS)}")
    return PRESETS[name]


def alternation_schedule(epochs):
    """Epoch modes of an alternating task: learning first, then strict
    alternation with forgetting.

    A single epoch cannot alternate; it degenerates to one learning epoch
    (warned), which ``train_task`` runs unfrozen, with buffer updates.
    """
    if epochs < 1:
        raise InputError(f"epochs must be >= 1, got {epochs}")
    if epochs == 1:
        warnings.warn("single-epoch task: alternation impossible, "
                      "running one learning epoch with buffer updates enabled")
    return tuple("learning" if e % 2 == 0 else "forgetting" for e in range(epochs))


def replay_batch(buffer, k, rng):
    """Uniform draw of k entries; with replacement only when the buffer is
    smaller than k. An empty buffer yields an empty batch."""
    size = len(buffer)
    if size == 0:
        return Batch(np.zeros((0, buffer.dim)), np.zeros(0, dtype=np.intp),
                     np.zeros(0, dtype=np.intp))
    sel = rng.choice(size, size=k, replace=size < k)
    return Batch(buffer.features[sel], buffer.labels[sel], buffer.true_labels[sel])


@dataclass
class RunRecord:
    """Per-run traces, the accuracy matrix and final buffer statistics."""
    method_label: str
    seed: int
    config_key: str
    traces: list = field(default_factory=list)
    matrix: AccuracyMatrix = None
    final_purity: float = None
    final_diversity: float = None
    consolidation_reports: list = field(default_factory=list)
    noise_report: dict = None
    checkpoint_checks: int = 0
    buffer_hash_checks: int = 0

    def faa(self):
        return faa(self.matrix)

    def ff(self):
        if self.matrix.num_tasks < 2:
            return None
        return final_forgetting(self.matrix)


def load_splits(cfg):
    """Load the configured dataset and split it into standardized
    (train, test) sets with clean labels.

    Every class of a CSV dataset, 0 to its largest label, must have test
    rows; a class without is a ``ParseError`` that names it.
    """
    if cfg.dataset_kind == "csv":
        base = load_csv(cfg.dataset_path)
    else:
        base = make_synthetic(cfg.classes, cfg.dims, cfg.per_class,
                              cfg.cluster_spread, cfg.dataset_seed)
    train, test = split_train_test(base, cfg.test_fraction, cfg.dataset_seed)
    if cfg.dataset_kind == "csv":
        untested = np.flatnonzero(np.bincount(test.labels_true,
                                              minlength=base.num_classes) == 0)
        if len(untested):
            c = untested[0]
            fault = ("no rows" if c not in train.labels_true else
                     f"no test rows at dataset.test_fraction = {cfg.test_fraction}")
            raise ParseError(f"{cfg.dataset_path}: class {c} has {fault}")
        if base.num_classes % cfg.tasks:
            raise ConfigError(
                f"dataset.tasks: {base.num_classes} classes not divisible by "
                f"{cfg.tasks} tasks")
        if cfg.standardize_features:
            train, test = standardize(train, test)
    return train, test


def prepare_data(cfg, run_seed):
    """Build the noisy train stream and clean per-task test splits.

    The dataset and the frozen noise depend only on the dataset/noise
    seeds; the run seed controls batch order, so runs with different seeds
    pair up on identical data.
    """
    train, test = load_splits(cfg)
    stream = split_tasks(train, cfg.tasks, run_seed, cfg.batch_size)
    noise_report = None
    if cfg.noise_rate > 0:
        if cfg.noise_kind == "asymmetric":
            if cfg.superclass_spec:
                superclasses = parse_superclasses(cfg.superclass_spec,
                                                  train.num_classes)
            else:
                superclasses = default_superclass_pairs(train.num_classes)
        else:
            superclasses = None
        spec = NoiseSpec(cfg.noise_kind, cfg.noise_rate, superclasses,
                         cfg.noise_seed)
        noise_report = inject_noise(train, spec, stream.class_groups)
    test_sets = []
    for g in stream.class_groups:
        mask = np.isin(test.labels_true, g)
        test_sets.append((test.features[mask], test.labels_true[mask]))
    return SimpleNamespace(train=train, stream=stream, test_sets=test_sets,
                           noise_report=noise_report)


def _accuracy(model, features, labels):
    if len(features) == 0:
        raise InputError("empty test split")
    return float((model.predict(features) == labels).mean())


def train_task(model, stream, buffer, cfg, spec, t, rngs):
    """One task of training; returns (traces, checkpoint_checks, hash_checks).

    An alternating task of two or more epochs is ``frozen``: learning
    epochs replay from a buffer they must leave unchanged (hash-checked)
    and only forgetting epochs insert, after which the epoch-start
    checkpoint is restored (checked bitwise). Any other task inserts in
    every epoch. Replay is masked to the classes of tasks ``0..t``.
    """
    task_classes = stream.task_classes(t)
    seen_sorted = tuple(sorted(c for g in stream.class_groups[:t + 1] for c in g))
    epochs = cfg.epochs_per_task
    frozen = spec.alternate and epochs > 1
    modes = alternation_schedule(epochs) if spec.alternate else ("learning",) * epochs
    traces = []
    ckpt_checks = 0
    hash_checks = 0
    for e, mode in enumerate(modes):
        forgetting = mode == "forgetting"
        inserting = spec.uses_buffer and (forgetting or not frozen)
        if forgetting:
            ckpt = save_checkpoint(model)
        elif frozen:
            pre_hash = buffer.content_hash()
        loss_sum, loss_count = 0.0, 0
        for batch in stream.batches(t, e):
            if (inserting and spec.selector in ("lass", "abs")
                    and not spec.gdumb and len(buffer)):
                buffer.refresh_losses(model)
            losses = None
            if not spec.gdumb:
                smask = task_classes if spec.ace else None
                logits, cache = model.forward(batch.features, cache=True)
                losses = per_sample_ce(logits, batch.labels, smask)
                grads = model.backward(cache,
                                       ce_gradient(logits, batch.labels, smask))
                if not forgetting and spec.uses_buffer and len(buffer):
                    replay = replay_batch(buffer, cfg.batch_size, rngs.replay)
                    rmask = seen_sorted if spec.ace else None
                    rlogits, rcache = model.forward(replay.features, cache=True)
                    rgrads = model.backward(
                        rcache, ce_gradient(rlogits, replay.labels, rmask))
                    grads += rgrads
                model.apply_step(grads)
                loss_sum += float(losses.sum())
                loss_count += len(losses)
            if inserting:
                if spec.gdumb:
                    for i in range(len(batch)):
                        gdumb_update(buffer, batch.features[i], batch.labels[i],
                                     batch.true_labels[i], t, rngs.buffer)
                else:
                    if spec.alpha_gate:
                        cand = insertion_candidates(losses, cfg.alpha)
                    else:
                        cand = np.arange(len(batch))
                    if len(cand):
                        if spec.selector == "reservoir":
                            for i in cand:
                                reservoir_update(
                                    buffer, batch.features[i], batch.labels[i],
                                    batch.true_labels[i], t, losses[i],
                                    rngs.buffer)
                        else:
                            replace_with_candidates(
                                buffer, batch.features[cand], batch.labels[cand],
                                batch.true_labels[cand],
                                np.full(len(cand), t, dtype=np.intp),
                                losses[cand], spec.selector, t, rngs.buffer)
        trace = {"task": t, "epoch": e, "mode": mode,
                 "stream_loss": loss_sum / loss_count if loss_count else None,
                 "buffer_clean_loss": None, "buffer_noisy_loss": None,
                 "buffer_purity": None}
        if spec.uses_buffer and len(buffer):
            clean_mean, noisy_mean = separation_trace(buffer, model)
            trace["buffer_clean_loss"] = clean_mean
            trace["buffer_noisy_loss"] = noisy_mean
            trace["buffer_purity"] = buffer_mod.purity(buffer)[0]
        traces.append(trace)
        if forgetting:
            restore_checkpoint(model, ckpt)
            if save_checkpoint(model).data != ckpt.data:
                raise NumericalError(
                    f"checkpoint neutrality violated in task {t} epoch {e}")
            ckpt_checks += 1
        elif frozen:
            if buffer.content_hash() != pre_hash:
                raise NumericalError(
                    f"buffer mutated during learning epoch {e} of task {t}")
            hash_checks += 1
    return traces, ckpt_checks, hash_checks


def _dump_state(model, buffer, out_dir, seed, context):
    import json
    from pathlib import Path
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    dump = path / f"abort_state_seed{seed}"
    dump.mkdir(exist_ok=True)
    (dump / "model.ckpt").write_bytes(save_checkpoint(model).data)
    if buffer is not None and len(buffer):
        buffer.dump_jsonl(dump / "buffer.jsonl")
    (dump / "context.json").write_text(json.dumps(context, sort_keys=True))
    return dump


def run_single(cfg, seed, spec=None, reference_model=None, on_task_end=None,
               dump_dir=None):
    """Execute one seeded run of the configured method; returns a RunRecord."""
    spec = spec or resolve_method(cfg.method)
    if cfg.consolidation != "none" and not spec.consolidates:
        raise ConfigError(
            f"run.consolidation: {spec.label} has no rehearsal buffer to consolidate")
    data = prepare_data(cfg, seed)
    record = RunRecord(method_label=spec.label, seed=seed,
                       config_key=f"{config_hash(cfg, include_seeds=False)}:{spec.label}",
                       noise_report=data.noise_report)
    model = MLP(data.train.dim, data.train.num_classes, cfg.hidden, cfg.lr,
                cfg.momentum, seed=[seed, 20])
    t_count = cfg.tasks

    if spec.joint:
        record.traces = _fit_joint(model, data.train, cfg, seed)
        record.matrix = AccuracyMatrix(t_count)
        per_task = [_accuracy(model, x, y) for x, y in data.test_sets]
        for j in range(t_count):
            for t in range(j, t_count):
                record.matrix.set_entry(j, t, per_task[j])
        record.traces[-1]["accuracy_row"] = per_task
        if on_task_end is not None:
            on_task_end(t_count - 1, model, None)
        return record

    rngs = SimpleNamespace(replay=np.random.default_rng([seed, 21]),
                           buffer=np.random.default_rng([seed, 22]),
                           consolidation=np.random.default_rng([seed, 23]))
    buffer = MemoryBuffer(cfg.buffer_capacity, data.train.dim) if spec.uses_buffer else None
    record.matrix = AccuracyMatrix(t_count)
    for t in range(t_count):
        try:
            traces, ckpts, hashes = train_task(model, data.stream, buffer, cfg,
                                               spec, t, rngs)
            record.traces.extend(traces)
            record.checkpoint_checks += ckpts
            record.buffer_hash_checks += hashes
            if cfg.consolidation != "none" and len(buffer):
                report = consolidate(model, buffer, cfg, rngs.consolidation)
                report["task"] = t
                record.consolidation_reports.append(report)
            eval_model = model
            if spec.gdumb:
                eval_model = MLP(data.train.dim, data.train.num_classes,
                                 cfg.hidden, cfg.gdumb_fit_lr, cfg.momentum,
                                 seed=[seed, 24, t])
                buffer_fit(eval_model, buffer, cfg.gdumb_fit_epochs,
                           cfg.gdumb_fit_lr, rng=rngs.consolidation)
            row = [_accuracy(eval_model, *data.test_sets[j]) for j in range(t + 1)]
        except NumericalError as exc:
            if dump_dir is not None:
                dump = _dump_state(model, buffer, dump_dir, seed,
                                   {"task": t, "seed": seed, "error": str(exc)})
                raise NumericalError(f"{exc} (state dump at {dump})") from exc
            raise
        for j, acc in enumerate(row):
            record.matrix.set_entry(j, t, acc)
        record.traces[-1]["accuracy_row"] = row
        if on_task_end is not None:
            on_task_end(t, eval_model, buffer)
    if spec.uses_buffer and len(buffer):
        record.final_purity = buffer_mod.purity(buffer)[0]
        if reference_model is not None:
            record.final_diversity = buffer_mod.diversity(buffer, reference_model)[0]
    return record


def _fit_joint(model, train, cfg, seed):
    """Fine-tune ``model`` on all of ``train`` as one task, batch order
    seeded by ``seed``; returns the epoch traces. Fine-tuning has no
    buffer, replay or consolidation, so it draws from no generator."""
    merged = split_tasks(train, 1, seed, cfg.batch_size)
    return train_task(model, merged, None, cfg, PRESETS["finetune"], 0, None)[0]


def train_reference(cfg):
    """Train the clean joint reference model used by the diversity metric."""
    train, _ = load_splits(cfg)
    model = MLP(train.dim, train.num_classes, cfg.hidden, cfg.lr, cfg.momentum,
                seed=[cfg.dataset_seed, 927])
    _fit_joint(model, train, cfg, cfg.dataset_seed)
    return model
