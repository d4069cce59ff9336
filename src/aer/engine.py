"""Training orchestration.

Runs per-task training with either the standard every-epoch rehearsal
protocol or the alternating schedule: learning epochs train on stream plus
replay with the buffer frozen, forgetting epochs train on the stream only,
update the buffer through gated, reservoir-admitted score-based replacement,
and restore the model checkpoint taken at the epoch start so only
learning-epoch updates persist.
"""

import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import buffer as buffer_mod
from .buffer import (MemoryBuffer, gdumb_update, insertion_candidates,
                     replace_with_candidates, reservoir_update)
from .config import PRESETS, config_hash, parse_superclasses
from .consolidation import buffer_fit, consolidate
from .errors import ConfigError, NumericalError, ParseError
from .metrics import (AUDIT_COLUMNS, AccuracyMatrix, faa, final_forgetting,
                      separation_trace)
from .mlp import MLP, ce_gradient, per_sample_ce, restore_checkpoint, save_checkpoint
from .stream import (Batch, inject_noise, load_csv, make_synthetic, split_tasks,
                     split_train_test, standardize)


def resolve_method(name):
    if name not in PRESETS:
        raise ConfigError(f"unknown method {name!r}; known: {', '.join(PRESETS)}")
    return PRESETS[name]


def replay_batch(buffer, k, rng):
    """Uniform draw of k entries of a non-empty buffer; with replacement
    only when the buffer is smaller than k."""
    size = len(buffer)
    sel = rng.choice(size, size=k, replace=size < k)
    return Batch(buffer.features[sel], buffer.labels[sel], buffer.true_labels[sel])


@dataclass
class RunRecord:
    """Per-run traces, the accuracy matrix and final buffer statistics."""
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


def prepare_data(cfg, run_seed):
    """Load the configured dataset, split it into standardized train and
    test sets, and build the noisy train stream and clean per-task test
    splits.

    Every class of a CSV dataset (``load_csv`` checks that each has rows)
    must have test rows, and there must be at least two classes; a
    ``ParseError`` names the first class without test rows, or the file
    whose labels hold one class. The dataset and the frozen noise
    depend only on the dataset/noise seeds; the run seed controls batch
    order, so runs with different seeds pair up on identical data. At
    ``noise_rate`` 0 the train labels stay clean.
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
            raise ParseError(f"{cfg.dataset_path}: class {untested[0]} has no test rows "
                             f"at dataset.test_fraction = {cfg.test_fraction}")
        if base.num_classes < 2:
            raise ParseError(f"{cfg.dataset_path}: labels hold one class, need >= 2")
        if base.num_classes % cfg.tasks:
            raise ConfigError(
                f"dataset.tasks: {base.num_classes} classes not divisible by "
                f"{cfg.tasks} tasks")
        if cfg.standardize_features:
            train, test = standardize(train, test)
    stream = split_tasks(train, cfg.tasks, run_seed, cfg.batch_size)
    noise_report = None
    if cfg.noise_rate > 0:
        superclasses = None
        if cfg.noise_kind == "asymmetric" and cfg.superclass_spec:
            superclasses = parse_superclasses(cfg.superclass_spec, train.num_classes)
        noise_report = inject_noise(train, cfg.noise_kind, cfg.noise_rate,
                                    cfg.noise_seed, stream.class_groups, superclasses)
    test_sets = []
    for g in stream.class_groups:
        mask = np.isin(test.labels_true, g)
        test_sets.append((test.features[mask], test.labels_true[mask]))
    return SimpleNamespace(train=train, stream=stream, test_sets=test_sets,
                           noise_report=noise_report)


def _accuracy(model, features, labels, classes=None):
    return float((model.predict(features, classes) == labels).mean())


def train_task(model, stream, buffer, cfg, spec, t, rngs):
    """One task of training; returns (traces, checkpoint_checks, hash_checks).

    An alternating task of two or more epochs is ``frozen``: its even
    epochs learn, replaying from a buffer they must leave unchanged
    (hash-checked), and only its odd epochs, which forget, insert, after
    which the epoch-start checkpoint is restored (checked bitwise). Any
    other task learns and inserts in every epoch; a single-epoch
    alternating one warns that it cannot alternate. Replay is masked to
    the classes of tasks ``0..t``. An inserting batch hands its candidate
    rows (the alpha-gated slice or the whole batch) to the method's
    insertion policy in one call, before the SGD step. LASS/ABS draw their
    victims by losses under the model that outlives the step: in a
    forgetting epoch that is the checkpoint, so the buffer is rescored
    once at the epoch start and the call gets no model; otherwise the call
    rescores under the live model, which scored the batch. Each epoch's
    trace carries its ``AUDIT_COLUMNS`` from the buffer's ``counts``,
    cleared at the epoch start: the buffer counts the rows its policy is
    offered, writes and evicts. GDumb's stream model never trains, so its
    trace leaves the stream and buffer loss columns empty.
    """
    smask = stream.task_classes(t) if spec.ace else None
    rmask = stream.seen_classes(t) if spec.ace else None
    epochs = cfg.epochs_per_task
    frozen = spec.alternate and epochs > 1
    if spec.alternate and epochs == 1:
        warnings.warn("single-epoch task: alternation impossible, "
                      "running one learning epoch with buffer updates enabled")
    traces = []
    ckpt_checks = 0
    hash_checks = 0
    for e in range(epochs):
        forgetting = frozen and e % 2 == 1
        inserting = spec.policy is not None and (forgetting or not frozen)
        if forgetting:
            ckpt = save_checkpoint(model)
            if spec.policy in ("lass", "abs") and len(buffer):
                buffer.refresh_losses(model)
        elif frozen:
            pre_hash = buffer.content_hash()
        counts = buffer.counts if buffer is not None else Counter()
        counts.clear()
        loss_sum, loss_count = 0.0, 0
        for batch in stream.batches(t, e):
            if spec.policy == "gdumb":  # trains on its buffer only
                gdumb_update(buffer, batch.features, batch.labels, batch.true_labels,
                             np.full(len(batch), t), np.zeros(len(batch)), rngs.buffer)
                continue
            logits, cache = model.forward(batch.features, cache=True)
            losses, dlogits = per_sample_ce(logits, batch.labels, smask, gradient=True)
            grads = model.backward(cache, dlogits)
            if not forgetting and spec.policy is not None and len(buffer):
                replay = replay_batch(buffer, cfg.batch_size, rngs.replay)
                rlogits, rcache = model.forward(replay.features, cache=True)
                grads += model.backward(rcache, ce_gradient(rlogits, replay.labels, rmask))
            loss_sum += float(losses.sum())
            loss_count += len(losses)
            if inserting:
                if spec.alpha_gate:
                    rows = insertion_candidates(losses, cfg.alpha)
                else:
                    rows = np.arange(len(batch))
                cand = (buffer, batch.features[rows], batch.labels[rows],
                        batch.true_labels[rows], np.full(len(rows), t), losses[rows])
                if spec.policy == "reservoir":
                    reservoir_update(*cand, rngs.buffer)
                else:
                    replace_with_candidates(*cand, spec.policy, t, rngs.buffer,
                                            None if forgetting else model)
            model.apply_step(grads)
        trace = {"task": t, "epoch": e, "mode": "forgetting" if forgetting else "learning",
                 "stream_loss": loss_sum / loss_count if loss_count else None,
                 "buffer_clean_loss": None, "buffer_noisy_loss": None,
                 "buffer_purity": None, **{c: counts[c] for c in AUDIT_COLUMNS}}
        if spec.policy is not None and len(buffer):
            if spec.policy != "gdumb":
                trace["buffer_clean_loss"], trace["buffer_noisy_loss"] = \
                    separation_trace(buffer, model)
            trace["buffer_purity"] = buffer_mod.purity(buffer)
        traces.append(trace)
        if forgetting:
            restore_checkpoint(model, ckpt)
            if save_checkpoint(model) != ckpt:
                raise NumericalError(
                    f"checkpoint neutrality violated in task {t} epoch {e}")
            ckpt_checks += 1
        elif frozen:
            if buffer.content_hash() != pre_hash:
                raise NumericalError(
                    f"buffer mutated during learning epoch {e} of task {t}")
            hash_checks += 1
    return traces, ckpt_checks, hash_checks


def _end_task(trace, row, buffer, t, num_classes):
    """Add the task-end fields to ``trace``: the accuracy row, and the
    buffer's entries per task ``0..t`` and per stored label (None without a
    buffer)."""
    trace["accuracy_row"] = row
    trace["buffer_task_counts"] = trace["buffer_class_counts"] = None
    if buffer is not None:
        trace["buffer_task_counts"] = np.bincount(buffer.task_ids, minlength=t + 1).tolist()
        trace["buffer_class_counts"] = np.bincount(
            buffer.labels, minlength=num_classes).tolist()


def _dump_state(model, buffer, out_dir, seed, context):
    import json
    from pathlib import Path
    dump = Path(out_dir) / f"abort_state_seed{seed}"
    dump.mkdir(parents=True, exist_ok=True)
    (dump / "model.ckpt").write_bytes(save_checkpoint(model))
    if buffer is not None and len(buffer):
        buffer.dump_jsonl(dump / "buffer.jsonl")
    (dump / "context.json").write_text(json.dumps(context, sort_keys=True))
    return dump


def run_single(cfg, seed, reference_model=None, on_task_end=None, dump_dir=None):
    """Execute one seeded run of the method ``cfg.method`` names, after
    validating ``cfg``; returns a RunRecord. After task t, the accuracy row
    and the consolidation report predict over the classes of tasks 0..t."""
    spec = resolve_method(cfg.validate().method)
    data = prepare_data(cfg, seed)
    record = RunRecord(config_key=config_hash(cfg, include_seeds=False),
                       noise_report=data.noise_report)
    model = MLP(data.train.dim, data.train.num_classes, cfg.hidden, cfg.lr,
                cfg.momentum, seed=[seed, 20])
    t_count = cfg.tasks
    record.matrix = AccuracyMatrix(t_count)

    if spec.joint:
        record.traces = _fit_joint(model, data.train, cfg, seed)
        per_task = [_accuracy(model, x, y) for x, y in data.test_sets]
        for j in range(t_count):
            for t in range(j, t_count):
                record.matrix.set_entry(j, t, per_task[j])
        _end_task(record.traces[-1], per_task, None, t_count - 1, data.train.num_classes)
        if on_task_end is not None:
            on_task_end(t_count - 1, model, None)
        return record

    rngs = SimpleNamespace(replay=np.random.default_rng([seed, 21]),
                           buffer=np.random.default_rng([seed, 22]),
                           consolidation=np.random.default_rng([seed, 23]))
    buffer = (MemoryBuffer(cfg.buffer_capacity, data.train.dim)
              if spec.policy is not None else None)
    for t in range(t_count):
        try:
            traces, ckpts, hashes = train_task(model, data.stream, buffer, cfg,
                                               spec, t, rngs)
            record.traces.extend(traces)
            record.checkpoint_checks += ckpts
            record.buffer_hash_checks += hashes
            seen = data.stream.seen_classes(t)
            if cfg.consolidation != "none" and len(buffer):
                report = consolidate(model, buffer, cfg, rngs.consolidation, seen)
                report["task"] = t
                record.consolidation_reports.append(report)
            if spec.policy == "gdumb":
                model = MLP(data.train.dim, data.train.num_classes,
                            cfg.hidden, cfg.gdumb_fit_lr, cfg.momentum,
                            seed=[seed, 24, t])
                buffer_fit(model, buffer, cfg.gdumb_fit_epochs,
                           cfg.gdumb_fit_lr, rng=rngs.consolidation)
            row = [_accuracy(model, *data.test_sets[j], seen) for j in range(t + 1)]
        except NumericalError as exc:
            if dump_dir is not None:
                dump = _dump_state(model, buffer, dump_dir, seed,
                                   {"task": t, "seed": seed, "error": str(exc)})
                raise NumericalError(f"{exc} (state dump at {dump})") from exc
            raise
        for j, acc in enumerate(row):
            record.matrix.set_entry(j, t, acc)
        _end_task(record.traces[-1], row, buffer, t, data.train.num_classes)
        if on_task_end is not None:
            on_task_end(t, model, buffer)
    if spec.policy is not None and len(buffer):
        record.final_purity = buffer_mod.purity(buffer)
        if reference_model is not None:
            record.final_diversity = buffer_mod.diversity(buffer, reference_model)
    return record


def _fit_joint(model, train, cfg, seed):
    """Fine-tune ``model`` on all of ``train`` as one task, batch order
    seeded by ``seed``; returns the epoch traces. Fine-tuning has no
    buffer, replay or consolidation, so it draws from no generator."""
    merged = split_tasks(train, 1, seed, cfg.batch_size)
    return train_task(model, merged, None, cfg, PRESETS["finetune"], 0, None)[0]


def train_reference(cfg):
    """Train the clean joint reference model used by the diversity metric."""
    train = prepare_data(replace(cfg, noise_rate=0.0), cfg.dataset_seed).train
    model = MLP(train.dim, train.num_classes, cfg.hidden, cfg.lr, cfg.momentum,
                seed=[cfg.dataset_seed, 927])
    _fit_joint(model, train, cfg, cfg.dataset_seed)
    return model
