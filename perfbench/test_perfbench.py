"""Tests of the benchmark's tracer: self-time arithmetic, the outcome
ratios on a hand-built buffer, and that tracing leaves outputs unchanged.

Run with the aer sources importable::

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench_run  # noqa: E402
import tracer as bench_tracer  # noqa: E402
from aer import cli  # noqa: E402
from aer.buffer import MemoryBuffer  # noqa: E402

TINY_CONFIG = """\
[run]
method = {method}
epochs_per_task = 4
buffer_capacity = 12
batch_size = 8
seeds = 0,1
consolidation = {consolidation}
hidden = 8

[dataset]
classes = 4
dims = 4
per_class = 30
tasks = 2
seed = 5

[noise]
rate = 0.4
seed = 6

[consolidation]
epochs = 3
"""


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


@pytest.fixture
def traced():
    tracer = bench_tracer.Tracer()
    undo = bench_tracer.install(tracer)
    try:
        yield tracer
    finally:
        undo()


def test_self_time_subtracts_direct_children_only():
    # outer [0, 100] holds a [10, 40] (which holds c [15, 25]) and b [50, 90]
    tracer = bench_tracer.Tracer(clock=FakeClock([0, 10, 15, 25, 40, 50, 90, 100]))
    outer = tracer.open("outer")
    a = tracer.open("a")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(outer)
    assert bench_tracer.self_times(tracer.spans) == [30, 20, 10, 40]
    assert [s[bench_tracer.PARENT] for s in tracer.spans] == [-1, 0, 1, 0]
    agg = bench_tracer.aggregate(tracer.spans)
    assert agg["outer"] == {"calls": 1, "self_ns": 30, "total_ns": 100}
    assert sum(r["self_ns"] for r in agg.values()) == 100


def test_total_time_counts_a_recursive_name_once():
    tracer = bench_tracer.Tracer(clock=FakeClock([0, 2, 7, 10]))
    outer = tracer.open("f")
    inner = tracer.open("f")
    tracer.close(inner)
    tracer.close(outer)
    assert bench_tracer.aggregate(tracer.spans)["f"] == {
        "calls": 2, "self_ns": 10, "total_ns": 10}


def test_closing_out_of_order_is_an_error():
    tracer = bench_tracer.Tracer()
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def _tiny_buffer():
    # slots 0-3: task 0 (slot 1 mislabeled), slots 4-5: task 1 (slot 5 mislabeled)
    buf = MemoryBuffer(6, 2)
    for i, (label, true, task) in enumerate([(0, 0, 0), (1, 0, 0), (1, 1, 0),
                                             (0, 0, 0), (2, 2, 1), (3, 2, 1)]):
        buf.add(np.full(2, float(i)), label, true, task, float(i))
    return buf


def test_outcome_ratios_on_a_hand_built_buffer(traced):
    from aer import consolidation, engine

    buf = _tiny_buffer()
    traced.last_batch = SimpleNamespace(labels=np.array([2, 3, 2, 3]),
                                        true_labels=np.array([2, 3, 3, 3]))
    cand = engine.insertion_candidates(np.array([0.1, 0.2, 0.3, 0.9]), 25)
    assert cand.tolist() == [0, 1, 2]
    model = SimpleNamespace(forward=lambda x: np.zeros((len(x), 4)))
    buf.refresh_losses(model)
    buf.refresh_losses(model)
    # LASS draws in proportion to loss: only slots 1 and 5 (both mislabeled) can go
    buf.losses[:] = [0.0, 5.0, 0.0, 0.0, 0.0, 5.0]
    engine.replace_with_candidates(
        buf, np.zeros((2, 2)), np.array([2, 3]), np.array([2, 3]),
        np.array([1, 1]), np.array([0.1, 0.2]), "lass", 1, np.random.default_rng(0))
    traced.consolidation_buffer = _tiny_buffer()
    pure, _ = consolidation.split_pure_uncertain(
        SimpleNamespace(posterior_low=np.array([0.9, 0.8, 0.1, 0.7, 0.9, 0.6])), 0.65)
    assert pure.tolist() == [0, 1, 3, 4]
    m = bench_tracer.layer_metrics(traced)
    assert m["buffer.gate.candidates"] == 3
    assert m["buffer.gate.precision"] == pytest.approx(2 / 3)
    assert m["buffer.refresh.calls"] == 2
    assert m["buffer.refresh.rows"] == 12
    assert m["buffer.refresh.useful_ratio"] == 0.5
    assert m["buffer.select.calls"] == 1
    assert m["buffer.select.draws"] == 2
    assert m["buffer.evict.count"] == 2
    assert m["buffer.evict.precision"] == 1.0
    assert m["consolidation.pure_count"] == 4
    assert m["consolidation.pure_precision"] == 0.75


def test_eviction_precision_counts_mislabeled_victims(traced):
    buf = _tiny_buffer()
    for slot in (1, 5, 0):
        buf.overwrite(slot, np.zeros(2), 0, 0, 1, 0.0)
    m = bench_tracer.layer_metrics(traced)
    assert m["buffer.evict.count"] == 3
    assert m["buffer.evict.precision"] == pytest.approx(2 / 3)


def test_past_task_share_and_invariant_counts_at_run_end(traced, tmp_path):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG.format(method="aer_abs", consolidation="none"))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert [(r["checkpoint_checks"], r["buffer_hash_checks"]) for r in traced.runs] \
        == [(4, 4), (4, 4)]
    assert bench_run.check_invariants(traced.runs, [0, 1], "alternating_abs") == []
    traced.runs[1]["buffer_hash_checks"] = 3
    assert bench_run.check_invariants(traced.runs, [0, 1], "alternating_abs") == [
        "aer_abs seed 1: 4 checkpoint and 3 buffer-hash checks, expected 4 and 4"]
    shares = traced.past_task_shares
    assert len(shares) == 2 and all(0.0 <= s <= 1.0 for s in shares)
    run_ids = {s[bench_tracer.RUN] for s in traced.spans
               if s[bench_tracer.NAME] == "engine.run"}
    assert run_ids == {1, 2}


@pytest.mark.parametrize("command,consolidation", [("run", "mixmatch"),
                                                   ("ablate", "none")])
def test_tracing_leaves_the_output_digest_unchanged(tmp_path, command, consolidation):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG.format(method="aer_abs", consolidation=consolidation))
    args = [command, "--config", str(cfg_path), "--out"]
    assert cli.main(args + [str(tmp_path / "plain")]) == 0
    tracer = bench_tracer.Tracer()
    undo = bench_tracer.install(tracer)
    try:
        assert cli.main(args + [str(tmp_path / "traced")]) == 0
    finally:
        undo()
    assert tracer.spans and tracer.runs
    assert bench_run.check_outputs(tmp_path / "plain") == []
    assert bench_run.check_outputs(tmp_path / "traced") == []
    assert bench_run.output_digest(tmp_path / "plain") == \
        bench_run.output_digest(tmp_path / "traced")


def test_output_checks_catch_a_changed_artifact(tmp_path):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text(TINY_CONFIG.format(method="aer_abs", consolidation="none"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    digest = bench_run.output_digest(out)
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text().replace("Z", "+00:00"))
    assert bench_run.output_digest(out) == digest

    trace = out / "trace_seed1.jsonl"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    row = records[-1]["accuracy_row"]
    row[0] += -0.25 if row[0] > 0.5 else 0.25
    trace.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert bench_run.output_digest(out) != digest
    problems = bench_run.check_outputs(out)
    assert len(problems) == 1 and "faa_mean" in problems[0]

    (out / "buffer_task1_seed0.jsonl").unlink()
    assert any("buffer_task1_seed0.jsonl missing" in p
               for p in bench_run.check_outputs(out))


def test_install_then_undo_restores_every_name():
    from aer import engine, mlp
    before = (engine.per_sample_ce, mlp.MLP.forward, cli.run_single)
    undo = bench_tracer.install(bench_tracer.Tracer())
    assert engine.per_sample_ce is not before[0]
    undo()
    assert (engine.per_sample_ce, mlp.MLP.forward, cli.run_single) == before
