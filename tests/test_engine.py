import copy
import dataclasses
import re
import warnings

import numpy as np
import pytest
from types import SimpleNamespace

from aer import buffer as buffer_mod
from aer import consolidation as consolidation_mod
from aer import engine
from aer.buffer import MemoryBuffer
from aer.config import RunConfig
from aer.engine import (PRESETS, prepare_data, replay_batch, resolve_method,
                        run_single, train_reference, train_task)
from aer.errors import ConfigError, NumericalError
from aer.mlp import MLP, per_sample_ce, save_checkpoint
from aer.stream import Dataset, TaskStream, split_tasks


def tiny_cfg(**overrides):
    base = dict(method="aer_abs", classes=4, dims=6, per_class=60, tasks=2,
                epochs_per_task=4, batch_size=16, buffer_capacity=40,
                noise_rate=0.3, seeds=(0,))
    base.update(overrides)
    return RunConfig(**base).validate()


def make_rngs(seed=0):
    return SimpleNamespace(replay=np.random.default_rng([seed, 1]),
                           buffer=np.random.default_rng([seed, 2]),
                           consolidation=np.random.default_rng([seed, 3]))


@pytest.mark.parametrize("epochs", range(1, 12))
def test_alternating_task_modes_start_learning_and_alternate(epochs):
    """An alternating task's trace modes start with learning and then
    alternate strictly, so learning and forgetting epochs differ in number
    by at most one; a single epoch warns once and runs one learning
    epoch."""
    cfg = tiny_cfg(epochs_per_task=epochs)
    data = prepare_data(cfg, 0)
    model = MLP(cfg.dims, cfg.classes, cfg.hidden, cfg.lr, seed=[0, 20])
    buf = MemoryBuffer(cfg.buffer_capacity, cfg.dims)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traces, _, _ = train_task(model, data.stream, buf, cfg, PRESETS["aer_abs"],
                                  0, make_rngs())
    modes = [trace["mode"] for trace in traces]
    assert len(modes) == epochs and modes[0] == "learning"
    assert all(a != b for a, b in zip(modes, modes[1:]))
    assert modes.count("learning") - modes.count("forgetting") in (0, 1)
    messages = [str(w.message) for w in caught]
    assert messages == (["single-epoch task: alternation impossible, running one "
                         "learning epoch with buffer updates enabled"]
                        if epochs == 1 else [])


@pytest.mark.filterwarnings("ignore:single-epoch task")
@pytest.mark.parametrize("epochs, ckpt_checks, hash_checks", [(1, 0, 0), (2, 1, 1)])
def test_alternating_task_inserts_and_checks_by_epoch_count(epochs, ckpt_checks,
                                                            hash_checks):
    """One epoch cannot alternate, so it inserts while learning and checks
    nothing; two epochs freeze the buffer for learning, insert while
    forgetting, and take one checkpoint and one hash check."""
    cfg = tiny_cfg(epochs_per_task=epochs)
    data = prepare_data(cfg, 0)
    model = MLP(cfg.dims, cfg.classes, cfg.hidden, cfg.lr, seed=[0, 20])
    buf = MemoryBuffer(cfg.buffer_capacity, cfg.dims)
    rngs = make_rngs()
    for t in range(cfg.tasks):
        _, ckpts, hashes = train_task(model, data.stream, buf, cfg,
                                      PRESETS["aer_abs"], t, rngs)
        assert len(buf) > 0 and t in buf.task_ids[:buf.size]
        assert (ckpts, hashes) == (ckpt_checks, hash_checks)


def filled_buffer(n, dim=3):
    buf = MemoryBuffer(n, dim)
    for i in range(n):
        buf.add(np.full(dim, float(i)), i % 2, i % 2, 0, 0.1 * i)
    return buf


def test_replay_whole_buffer_is_a_permutation():
    buf = filled_buffer(12)
    batch = replay_batch(buf, 12, np.random.default_rng(0))
    assert sorted(batch.features[:, 0].tolist()) == [float(i) for i in range(12)]


def test_replay_small_buffer_draws_with_replacement():
    buf = filled_buffer(3)
    batch = replay_batch(buf, 10, np.random.default_rng(1))
    assert len(batch) == 10


def test_replay_uniformity():
    buf = filled_buffer(50)
    rng = np.random.default_rng(5)
    counts = np.zeros(50)
    draws = 0
    for _ in range(3125):
        batch = replay_batch(buf, 32, rng)
        for v in batch.features[:, 0]:
            counts[int(v)] += 1
        draws += 32
    expected = draws / 50
    sigma = np.sqrt(draws * (1 / 50) * (49 / 50))
    assert np.all(np.abs(counts - expected) < 3 * sigma + 3)


def test_unknown_method_is_config_error():
    with pytest.raises(ConfigError):
        resolve_method("mystery")


def test_forgetting_epochs_checkpoint_neutral_and_learning_epochs_freeze_buffer():
    cfg = tiny_cfg()
    rec = run_single(cfg, 0)
    # 2 tasks x 4 epochs: 2 forgetting and 2 learning epochs per task
    assert rec.checkpoint_checks == 4
    assert rec.buffer_hash_checks == 4


def test_forgetting_epoch_has_zero_net_parameter_change():
    cfg = tiny_cfg(tasks=1, epochs_per_task=2)
    data = prepare_data(cfg, 0)
    model = MLP(cfg.dims, cfg.classes, cfg.hidden, cfg.lr, seed=[0, 20])
    buf = MemoryBuffer(cfg.buffer_capacity, cfg.dims)
    spec = PRESETS["aer_abs"]
    rngs = make_rngs()
    # run the learning epoch, snapshot, then the forgetting epoch via train_task
    # is internal; instead verify through the in-run counters plus a manual probe
    traces, ckpts, hashes = train_task(model, data.stream, buf, cfg, spec, 0, rngs)
    assert ckpts == 1 and hashes == 1
    assert [t["mode"] for t in traces] == ["learning", "forgetting"]


def test_alpha_100_never_inserts():
    cfg = tiny_cfg(alpha=100.0)
    data = prepare_data(cfg, 0)
    model = MLP(cfg.dims, cfg.classes, cfg.hidden, cfg.lr, seed=[0, 20])
    buf = MemoryBuffer(cfg.buffer_capacity, cfg.dims)
    rngs = make_rngs()
    for t in range(cfg.tasks):
        train_task(model, data.stream, buf, cfg, PRESETS["aer_abs"], t, rngs)
    assert len(buf) == 0


def test_task0_with_empty_buffer_trains_plain():
    """The engine consolidates only a non-empty buffer; the consolidation
    functions themselves assume one."""
    for consolidation in ("none", "buffer_fit", "mixmatch"):
        cfg = tiny_cfg(tasks=1, epochs_per_task=2, alpha=100.0,
                       consolidation=consolidation)
        rec = run_single(cfg, 0)
        assert rec.final_purity is None
        assert rec.consolidation_reports == []
        assert rec.matrix.values[0, 0] > 0.4


def test_replay_mask_covers_earlier_tasks_for_a_fresh_model():
    """The replay mask is the classes of tasks 0..t, taken from the stream,
    so a model that never trained task 0 replays task-0 entries at t = 1."""
    cfg = tiny_cfg(method="er_ace")
    data = prepare_data(cfg, 0)
    buf = MemoryBuffer(cfg.buffer_capacity, cfg.dims)
    for c in data.stream.task_classes(0):
        buf.add(np.zeros(cfg.dims), c, c, 0, 0.0)
    model = MLP(cfg.dims, cfg.classes, cfg.hidden, cfg.lr, seed=[0, 20])
    traces, _, _ = train_task(model, data.stream, buf, cfg, PRESETS["er_ace"], 1,
                              make_rngs())
    assert len(traces) == cfg.epochs_per_task


def test_true_labels_never_influence_training():
    cfg = tiny_cfg()
    data = prepare_data(cfg, 0)

    def run_with_true_labels(true_labels):
        ds = Dataset(data.train.features.copy(), true_labels,
                     data.train.labels_noisy.copy(), data.train.num_classes)
        # keep task membership identical to the unpoisoned stream
        stream = split_tasks(Dataset(data.train.features.copy(),
                                     data.train.labels_true.copy(),
                                     data.train.labels_noisy.copy(),
                                     data.train.num_classes),
                             cfg.tasks, 0, cfg.batch_size)
        stream.dataset.labels_true[:] = true_labels
        model = MLP(cfg.dims, cfg.classes, cfg.hidden, cfg.lr, seed=[0, 20])
        buf = MemoryBuffer(cfg.buffer_capacity, cfg.dims)
        rngs = make_rngs()
        for t in range(cfg.tasks):
            train_task(model, stream, buf, cfg, PRESETS["aer_abs"], t, rngs)
        return save_checkpoint(model)

    honest = run_with_true_labels(data.train.labels_true.copy())
    poisoned = run_with_true_labels(np.zeros_like(data.train.labels_true))
    assert honest == poisoned


def test_reference_model_trains_on_clean_labels():
    """The reference model is the same whatever noise the run injects."""
    cfgs = [tiny_cfg(noise_rate=0.0),
            tiny_cfg(noise_kind="symmetric", noise_rate=0.3, noise_seed=1),
            tiny_cfg(noise_kind="asymmetric", noise_rate=0.45, noise_seed=7)]
    params = {save_checkpoint(train_reference(cfg)) for cfg in cfgs}
    assert len(params) == 1


def test_run_single_is_deterministic():
    cfg = tiny_cfg()
    a = run_single(cfg, 0)
    b = run_single(cfg, 0)
    assert np.array_equal(a.matrix.values, b.matrix.values, equal_nan=True)
    assert a.traces == b.traces
    assert a.final_purity == b.final_purity


def test_joint_fills_constant_rows_and_zero_ff():
    cfg = tiny_cfg(method="joint")
    rec = run_single(cfg, 0)
    assert rec.ff() == 0.0
    for j in range(cfg.tasks):
        row = rec.matrix.values[j, j:]
        assert np.all(row == row[0])


def test_ace_scores_each_task_over_the_classes_seen_so_far(bench):
    """An ACE method never trains the logits of unseen classes down, so
    just after task 0 its accuracy is only meaningful over task 0's two
    classes; predicted over every class it was near 0 (0.005 median)."""
    records = bench.suite("aer_abs_40")
    assert np.median([r.matrix.values[0, 0] for r in records]) > 0.6


def test_finetune_forgets_task0(bench):
    records = bench.suite("finetune_clean", method="finetune", noise_rate=0.0,
                          seeds=(0,))
    rec = records[0]
    assert rec.matrix.values[0, 4] < 0.2
    assert rec.matrix.values[0, 0] > 0.9


def test_gdumb_buffer_balanced_and_no_model_training():
    cfg = tiny_cfg(method="gdumb", noise_rate=0.0)
    data = prepare_data(cfg, 0)
    model = MLP(cfg.dims, cfg.classes, cfg.hidden, cfg.lr, seed=[0, 20])
    before = save_checkpoint(model)
    buf = MemoryBuffer(20, cfg.dims)
    rngs = make_rngs()
    for t in range(cfg.tasks):
        train_task(model, data.stream, buf, cfg, PRESETS["gdumb"], t, rngs)
    assert save_checkpoint(model) == before
    counts = np.bincount(buf.labels[:buf.size], minlength=cfg.classes)
    assert counts.max() - counts.min() <= 1


def test_gdumb_run_evaluates_fresh_model():
    cfg = tiny_cfg(method="gdumb", epochs_per_task=2, noise_rate=0.2)
    rec = run_single(cfg, 0)
    assert rec.faa() > 0.5
    assert rec.final_purity is not None
    # the stream model never trains, so no loss of it is traced
    for trace in rec.traces:
        assert (trace["stream_loss"], trace["buffer_clean_loss"],
                trace["buffer_noisy_loss"]) == (None, None, None)
        assert trace["buffer_purity"] is not None and trace["offered"] > 0


def test_er_ace_abs_updates_buffer_without_alternation():
    cfg = tiny_cfg(method="er_ace_abs")
    rec = run_single(cfg, 0)
    assert rec.checkpoint_checks == 0
    assert all(t["mode"] == "learning" for t in rec.traces)
    assert rec.final_purity is not None


@pytest.mark.parametrize("seed", range(5))
def test_abs_keeps_every_past_task(seed):
    """On the standard benchmark, ABS ends the last task holding at least
    capacity / (2 * tasks) entries of every task: reservoir admission keeps
    each task's share of the buffer near capacity / tasks."""
    cfg = RunConfig(method="aer_abs").validate()
    counts = {}

    def on_task_end(t, model, buffer):
        if t == cfg.tasks - 1:
            counts.update(enumerate(np.bincount(buffer.task_ids[:buffer.size])))

    run_single(cfg, seed, on_task_end=on_task_end)
    floor = cfg.buffer_capacity // (2 * cfg.tasks)
    assert all(counts.get(t, 0) >= floor for t in range(cfg.tasks)), counts


def test_numerical_abort_writes_state_dump(tmp_path):
    cfg = tiny_cfg(lr=1e12)
    with pytest.raises(NumericalError, match="state dump"):
        run_single(cfg, 0, dump_dir=tmp_path)
    dumps = list(tmp_path.glob("abort_state_seed0/*"))
    names = {p.name for p in dumps}
    assert "model.ckpt" in names and "context.json" in names


def test_consolidation_requires_buffer_method():
    with pytest.raises(ConfigError):
        tiny_cfg(method="finetune", consolidation="mixmatch")


@pytest.mark.parametrize("field, ini, value", [
    ("lr", "run.lr", float("nan")),
    ("alpha", "run.alpha", 150.0),
    ("consolidation", "run.consolidation", "mixmatch"),
])
def test_run_single_validates_its_config(field, ini, value):
    """A library config that skipped ``validate`` fails before training,
    with a ``ConfigError`` that names the field."""
    cfg = dataclasses.replace(tiny_cfg(method="finetune"), **{field: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(ini)}: "):
        run_single(cfg, 0)


def test_trace_records_have_accuracy_rows_at_task_end():
    cfg = tiny_cfg()
    rec = run_single(cfg, 0)
    rows = [t for t in rec.traces if "accuracy_row" in t]
    assert len(rows) == cfg.tasks
    assert len(rows[-1]["accuracy_row"]) == cfg.tasks


@pytest.mark.parametrize("method", ["aer_abs", "aer_lass", "er", "gdumb"])
def test_task_end_records_count_the_buffer_by_task_and_class(method):
    """Each task-end record holds the bincounts, by task id over 0..t and by
    stored label over every class, of the buffer ``on_task_end`` sees."""
    cfg = tiny_cfg(method=method)
    seen = []

    def on_task_end(t, model, buf):
        seen.append((np.bincount(buf.task_ids[:buf.size], minlength=t + 1).tolist(),
                     np.bincount(buf.labels[:buf.size], minlength=cfg.classes).tolist(),
                     buf.size))

    rec = run_single(cfg, 0, on_task_end=on_task_end)
    ends = [t for t in rec.traces if "accuracy_row" in t]
    assert len(ends) == len(seen) == cfg.tasks
    for t, (trace, (tasks, classes, size)) in enumerate(zip(ends, seen)):
        assert trace["buffer_task_counts"] == tasks
        assert trace["buffer_class_counts"] == classes
        assert len(tasks) == t + 1 and len(classes) == cfg.classes
        assert sum(tasks) == sum(classes) == size > 0
    others = [t for t in rec.traces if "accuracy_row" not in t]
    assert not any("buffer_task_counts" in t or "buffer_class_counts" in t for t in others)


@pytest.mark.parametrize("method", ["finetune", "joint"])
def test_task_end_buffer_counts_are_none_without_a_buffer(method):
    rec = run_single(tiny_cfg(method=method), 0)
    ends = [t for t in rec.traces if "accuracy_row" in t]
    assert ends
    assert all(t["buffer_task_counts"] is None and t["buffer_class_counts"] is None
               for t in ends)


def test_mixmatch_reports_audit_their_split(monkeypatch):
    """Each report's pure-set precision, recall and class counts equal what
    its task's buffer and split give."""
    cfg = tiny_cfg(consolidation="mixmatch", consolidation_epochs=2, noise_rate=0.4)
    splits, buffers = [], []
    real_split = consolidation_mod.split_pure_uncertain

    def split(fit, threshold):
        result = real_split(fit, threshold)
        splits.append(result[0])
        return result

    monkeypatch.setattr(consolidation_mod, "split_pure_uncertain", split)
    rec = run_single(cfg, 0, on_task_end=lambda t, model, buf: buffers.append(
        (buf.labels[:buf.size].copy(), buf.true_labels[:buf.size].copy())))
    assert len(rec.consolidation_reports) == len(splits) == cfg.tasks
    for report, pure, (labels, true) in zip(rec.consolidation_reports, splits, buffers):
        assert report["fallback"] is None and len(pure)
        clean = labels == true
        assert report["pure_precision"] == clean[pure].sum() / len(pure)
        assert report["pure_recall"] == clean[pure].sum() / clean.sum()
        assert report["pure_class_counts"] == [int((labels[pure] == c).sum())
                                               for c in range(cfg.classes)]


def audited_run(cfg):
    """``run_single`` at seed 0; returns its record and its final buffer."""
    ends = []
    rec = run_single(cfg, 0, on_task_end=lambda t, model, buf: ends.append(buf))
    return rec, ends[-1]


@pytest.mark.parametrize("method", ["aer_abs", "aer_lass"])
def test_frozen_learning_epochs_count_nothing(method):
    """The twin of the hash check: a learning epoch of an alternating task
    offers, writes and evicts nothing, and its forgetting epochs do."""
    rec, _ = audited_run(tiny_cfg(method=method))
    learning = [t for t in rec.traces if t["mode"] == "learning"]
    assert learning and all(t[c] == 0 for t in learning for c in engine.AUDIT_COLUMNS)
    forgetting = [t for t in rec.traces if t["mode"] == "forgetting"]
    assert all(t["offered"] > 0 and t["written"] > 0 for t in forgetting)
    assert sum(t["evicted_past"] for t in forgetting) > 0


@pytest.mark.parametrize("method", ["aer_abs", "aer_lass", "er_ace_abs", "er", "gdumb"])
def test_trace_counts_add_up_to_the_final_buffer(method):
    rec, buf = audited_run(tiny_cfg(method=method))
    total = {c: sum(t[c] for t in rec.traces) for c in engine.AUDIT_COLUMNS}
    assert total["written"] - total["evicted_current"] - total["evicted_past"] == buf.size
    assert total["written"] == buf._tick
    assert total["evicted_current"] + total["evicted_past"] > 0
    assert 0 < total["written_clean"] < total["written"] <= total["offered"]


@pytest.mark.parametrize("method", ["aer_abs", "er", "gdumb"])
def test_noise_free_run_counts_no_noisy_rows(method):
    rec, _ = audited_run(tiny_cfg(method=method, noise_rate=0.0))
    for t in rec.traces:
        assert t["evicted_current_noisy"] == t["evicted_past_noisy"] == 0
        assert t["written_clean"] == t["written"]
        assert t["offered_clean"] == t["offered"]
    assert sum(t["written"] for t in rec.traces) > 0


@pytest.mark.parametrize("method", ["aer_abs", "aer_lass", "er_ace_abs"])
def test_every_refresh_is_followed_by_a_victim_draw(method, monkeypatch):
    """LASS/ABS rescore the buffer only where a victim draw reads the scores
    before the next rescoring: in a step that draws one, or at the start of
    a forgetting epoch."""
    events = []
    real_refresh, real_draw = MemoryBuffer.refresh_losses, buffer_mod._draw_slot

    def refresh(self, *args, **kwargs):
        events.append("refresh")
        return real_refresh(self, *args, **kwargs)

    def draw(*args, **kwargs):
        events.append("draw")
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(MemoryBuffer, "refresh_losses", refresh)
    monkeypatch.setattr(buffer_mod, "_draw_slot", draw)
    run_single(tiny_cfg(method=method), 0)
    assert "refresh" in events
    for i, event in enumerate(events):
        if event == "refresh":
            assert events[i + 1:i + 2] == ["draw"], i


def test_refresh_at_every_inserting_step_draws_the_same_victims(monkeypatch):
    """In a task that does not alternate, a refresh added at the top of
    every inserting step moves no victim: the in-call refresh scores under
    the same pre-step model."""
    cfg = tiny_cfg(method="er_ace_abs")
    live = {}

    class Recording(MemoryBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            live["buffer"], self.slots = self, []

        def overwrite(self, i, *entry):
            self.slots.append(i)
            super().overwrite(i, *entry)

    class Tracked(MLP):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live["model"] = self

    def run():
        ends = []
        run_single(cfg, 0, on_task_end=lambda t, model, buf:
                   ends.append((buf.n_seen, buf.content_hash())))
        return live["buffer"].slots, ends

    monkeypatch.setattr(engine, "MemoryBuffer", Recording)
    monkeypatch.setattr(engine, "MLP", Tracked)
    plain = run()
    real_batches = TaskStream.batches
    added = []

    def batches(self, t, e):
        for batch in real_batches(self, t, e):
            if len(live["buffer"]):
                live["buffer"].refresh_losses(live["model"])
                added.append(t)
            yield batch

    monkeypatch.setattr(TaskStream, "batches", batches)
    assert run() == plain
    assert added and plain[0]


@pytest.mark.parametrize("method", ["aer_abs", "aer_lass", "er", "er_ace", "gdumb"])
def test_forgetting_epochs_rescore_once_at_their_start(method, monkeypatch):
    """Alternating LASS/ABS methods rescore the buffer once, at the top of
    each forgetting epoch that starts with a non-empty buffer (every one but
    the run's first), and nowhere else; the other policies never rescore."""
    events = []
    real_refresh, real_batches = MemoryBuffer.refresh_losses, TaskStream.batches

    def refresh(self, model):
        events.append("refresh")
        return real_refresh(self, model)

    def batches(self, t, e):
        events.append((t, e))
        return real_batches(self, t, e)

    monkeypatch.setattr(MemoryBuffer, "refresh_losses", refresh)
    monkeypatch.setattr(TaskStream, "batches", batches)
    cfg = tiny_cfg(method=method)
    record = run_single(cfg, 0)
    spec = PRESETS[method]
    forgetting = [(trace["task"], trace["epoch"]) for trace in record.traces
                  if trace["mode"] == "forgetting"]
    refreshed = [events[i + 1] for i, ev in enumerate(events) if ev == "refresh"]
    assert refreshed == (forgetting[1:] if spec.policy in ("lass", "abs") else [])


@pytest.mark.parametrize("method", ["aer_abs", "aer_lass"])
def test_forgetting_epoch_draws_equal_draws_on_the_checkpoint_scores(method,
                                                                     monkeypatch):
    """Every victim draw of a forgetting epoch equals a draw on shadow
    scores: the losses of the entries held at the epoch start under the
    epoch-start model, which the epoch's checkpoint restores, and the
    candidate loss of each row written since, although the model takes SGD
    steps between the epoch start and the draw."""
    live = {"draws": 0, "after_write": 0}

    class Tracked(MLP):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live["model"] = self

    class Shadowed(MemoryBuffer):
        def __init__(self, *args):
            super().__init__(*args)
            live["buffer"], self.shadow = self, np.zeros(self.capacity)
            self.written = False

        def _write(self, i, *entry):
            self.shadow[i] = entry[-1]
            self.written = True
            super()._write(i, *entry)

    real_batches, real_draw = TaskStream.batches, buffer_mod._draw_slot

    def batches(self, t, e):
        buf = live["buffer"]
        n = buf.size
        if n:
            logits = live["model"].forward(buf.features[:n])
            buf.shadow[:n] = per_sample_ce(logits, buf.labels[:n])
        buf.written = False
        return real_batches(self, t, e)

    def draw(buf, selector, rng, parts, p_current):
        twin = SimpleNamespace(losses=buf.shadow)
        expected = real_draw(twin, selector, copy.deepcopy(rng), parts, p_current)
        got = real_draw(buf, selector, rng, parts, p_current)
        assert got == expected
        live["draws"] += 1
        live["after_write"] += buf.written
        return got

    monkeypatch.setattr(engine, "MLP", Tracked)
    monkeypatch.setattr(engine, "MemoryBuffer", Shadowed)
    monkeypatch.setattr(TaskStream, "batches", batches)
    monkeypatch.setattr(buffer_mod, "_draw_slot", draw)
    run_single(tiny_cfg(method=method), 0)
    assert live["draws"] and live["after_write"], live
