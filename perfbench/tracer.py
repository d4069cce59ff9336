"""Span tracer for the aer benchmark.

``install`` wraps the public functions of each aer module at the name every
caller looks up (``engine`` binds ``per_sample_ce``, ``consolidate`` and the
buffer helpers by name, so patching only the defining module would miss
those calls). Every wrapped call records one span: name, start, end, parent
span and run id, where a run is one ``run_single`` call. Spans stay in
memory; ``layer_metrics`` reduces them, with the outcome counts taken from
call arguments and buffer state, to the per-layer metrics of the benchmark.
Nothing in the program is modified on disk.

Run as a script, it executes the aer CLI in-process with tracing on and
writes the per-layer metrics as JSON::

    python3 perfbench/tracer.py TRACE_OUT.json run --config cfg.ini --out DIR
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """In-memory span recorder plus the outcome counters of the buffer,
    gate and consolidation layers."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.counts = Counter()
        self.last_batch = None
        self.refresh_pending = False
        self.consolidation_buffer = None
        self.last_buffer = None
        self.past_task_shares = []
        self.runs = []

    def open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0, 0, parent, self.run_id])
        self.stack.append(sid)
        self.spans[sid][START] = self.clock()
        return sid

    def close(self, sid):
        self.spans[sid][END] = self.clock()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (open: {popped})")

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording a span per call; ``before(*args)`` runs
        before the span opens, ``after(result, *args)`` after it closes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    def wrap_generator(self, name, gen_fn, on_item=None):
        """Return ``gen_fn`` with one span around each resumption."""
        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            while True:
                sid = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(sid)
                if on_item is not None:
                    on_item(item)
                yield item
        return traced

    def count_only(self, fn, before):
        """Return ``fn`` preceded by ``before(*args)``, without a span, so
        its time stays in the caller's self time."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before(*args, **kwargs)
            return fn(*args, **kwargs)
        return counted


def self_times(spans):
    """Per-span self time: its duration minus the durations of its direct
    children. Spans of one thread nest, so children never overlap."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def aggregate(spans):
    """name -> {"calls", "self_ns", "total_ns"}; ``total_ns`` counts only
    outermost spans of a name, so recursion is not counted twice."""
    out = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0})
    selfs = self_times(spans)
    for sid, span in enumerate(spans):
        row = out[span[NAME]]
        row["calls"] += 1
        row["self_ns"] += selfs[sid]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["total_ns"] += span[END] - span[START]
    return dict(out)


# --- outcome hooks: they read call arguments and buffer state only --------

def _gate_outcome(tracer, cand, losses, alpha):
    batch = tracer.last_batch
    if batch is None or len(batch.labels) != len(losses):
        return
    tracer.counts["gate.candidates"] += len(cand)
    tracer.counts["gate.clean"] += int((batch.labels[cand] == batch.true_labels[cand]).sum())


def _evict_outcome(tracer, buffer, i, *args, **kwargs):
    tracer.counts["evict.count"] += 1
    tracer.counts["evict.noisy"] += int(buffer.labels[i] != buffer.true_labels[i])


def _refresh_outcome(tracer, buffer, *args, **kwargs):
    tracer.counts["refresh.rows"] += buffer.size
    tracer.refresh_pending = True


def _draw_outcome(tracer, *args, **kwargs):
    tracer.counts["select.draws"] += 1
    if tracer.refresh_pending:
        tracer.counts["refresh.useful"] += 1
        tracer.refresh_pending = False


def _split_outcome(tracer, result):
    buffer = tracer.consolidation_buffer
    pure = result[0]
    if buffer is None or not len(pure):
        return
    tracer.counts["pure.count"] += len(pure)
    tracer.counts["pure.clean"] += int(
        (buffer.labels[pure] == buffer.true_labels[pure]).sum())


def _run_started(tracer):
    tracer.run_id = len(tracer.runs) + 1
    tracer.last_buffer = None


def _run_finished(tracer, record, resolve_method, cfg, seed, spec=None, **kwargs):
    spec = spec or resolve_method(cfg.method)
    buffer = tracer.last_buffer
    if buffer is not None and buffer.size:
        final_task = cfg.tasks - 1
        past = buffer.task_ids[:buffer.size] != final_task
        tracer.past_task_shares.append(float(past.mean()))
    tracer.runs.append({
        "label": spec.label, "seed": seed, "alternate": spec.alternate,
        "epochs": cfg.epochs_per_task, "tasks": cfg.tasks,
        "checkpoint_checks": record.checkpoint_checks,
        "buffer_hash_checks": record.buffer_hash_checks,
    })
    tracer.run_id = 0


def install(tracer):
    """Patch the aer modules in this process; returns an undo callable."""
    patches = []

    def undo():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    try:
        _install(tracer, patches)
    except BaseException:
        undo()
        raise
    return undo


def _install(tracer, patches):
    from aer import buffer, cli, consolidation, engine, metrics, mlp, stream

    def patch(owner, attr, value):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def span(owner, attr, name, **hooks):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    def bump(key, amount=1):
        tracer.counts[key] += amount

    # mlp: one "loss" span per CE or soft-target loss/gradient call,
    # patched in every module that binds the function by name
    span(mlp.MLP, "forward", "mlp.forward",
         before=lambda model, features, cache=False: bump("forward.rows", len(features)))
    span(mlp.MLP, "backward", "mlp.backward")
    span(mlp.MLP, "apply_step", "mlp.apply_step")
    for owner in (mlp, engine, buffer, metrics, consolidation):
        span(owner, "per_sample_ce", "mlp.loss")
    for owner in (mlp, engine):
        span(owner, "ce_gradient", "mlp.loss")
    span(consolidation, "soft_ce_gradient", "mlp.loss")
    span(consolidation, "prob_mse_gradient", "mlp.loss")
    span(engine, "save_checkpoint", "mlp.checkpoint")
    span(engine, "restore_checkpoint", "mlp.checkpoint")

    # stream
    span(engine, "prepare_data", "stream.prepare_data")
    patch(stream.TaskStream, "batches", tracer.wrap_generator(
        "stream.batches", stream.TaskStream.batches,
        on_item=lambda batch: setattr(tracer, "last_batch", batch)))

    # buffer
    patch(buffer.MemoryBuffer, "__init__", tracer.count_only(
        buffer.MemoryBuffer.__init__,
        lambda buf, *a, **k: setattr(tracer, "last_buffer", buf)))
    span(buffer.MemoryBuffer, "refresh_losses", "buffer.refresh",
         before=lambda *a, **k: _refresh_outcome(tracer, *a, **k))
    span(engine, "replace_with_candidates", "buffer.select")
    patch(buffer, "_draw_slot", tracer.count_only(
        buffer._draw_slot, lambda *a, **k: _draw_outcome(tracer)))
    span(engine, "reservoir_update", "buffer.reservoir")
    span(engine, "insertion_candidates", "buffer.gate",
         after=lambda r, *a, **k: _gate_outcome(tracer, r, *a, **k))
    patch(buffer.MemoryBuffer, "overwrite", tracer.count_only(
        buffer.MemoryBuffer.overwrite,
        lambda *a, **k: _evict_outcome(tracer, *a, **k)))
    span(buffer.MemoryBuffer, "content_hash", "buffer.audit")
    span(buffer, "purity", "buffer.audit")
    span(buffer.MemoryBuffer, "dump_jsonl", "buffer.dump")

    # engine
    span(cli, "run_single", "engine.run",
         before=lambda *a, **k: _run_started(tracer),
         after=lambda r, *a, **k: _run_finished(tracer, r, engine.resolve_method, *a, **k))
    span(engine, "replay_batch", "engine.replay")

    # consolidation
    span(engine, "consolidate", "consolidation",
         before=lambda model, buf, *a, **k: setattr(tracer, "consolidation_buffer", buf))
    span(consolidation, "fit_gmm_em", "consolidation.gmm",
         after=lambda fit, *a, **k: bump("gmm.iters", len(fit.log_likelihoods)))
    span(consolidation, "corefine_labels", "consolidation.corefine")
    span(consolidation, "split_pure_uncertain", "consolidation.split",
         after=lambda r, *a, **k: _split_outcome(tracer, r))
    patch(consolidation, "_mixmatch_step", tracer.count_only(
        consolidation._mixmatch_step, lambda *a, **k: bump("consolidation.steps")))

    # metrics and cli
    span(engine, "separation_trace", "metrics.separation")
    for name in ("write_summary_csv", "write_trace_csv", "write_trace_jsonl"):
        span(cli, name, "metrics.writers")
    span(cli, "train_reference", "cli.reference")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Reduce the spans and counters to the benchmark's per-layer metrics
    (seconds, counts and ratios keyed by metric name)."""
    agg = aggregate(tracer.spans)
    c = tracer.counts

    def row(name):
        return agg.get(name, {"calls": 0, "self_ns": 0, "total_ns": 0})

    def sec(name, kind):
        return row(name)[kind] / 1e9

    m = {
        "stream.prepare_data.s": sec("stream.prepare_data", "total_ns"),
        "stream.batches.s": sec("stream.batches", "total_ns"),
        "mlp.forward.rows": c["forward.rows"],
        "mlp.checkpoint.self_s": sec("mlp.checkpoint", "self_ns"),
    }
    for part in ("forward", "backward", "apply_step", "loss"):
        m[f"mlp.{part}.calls"] = row(f"mlp.{part}")["calls"]
        m[f"mlp.{part}.self_s"] = sec(f"mlp.{part}", "self_ns")
    m.update({
        "buffer.refresh.calls": row("buffer.refresh")["calls"],
        "buffer.refresh.rows": c["refresh.rows"],
        "buffer.refresh.self_s": sec("buffer.refresh", "self_ns"),
        "buffer.refresh.total_s": sec("buffer.refresh", "total_ns"),
        "buffer.refresh.useful_ratio": _ratio(c["refresh.useful"],
                                              row("buffer.refresh")["calls"]),
        "buffer.select.calls": row("buffer.select")["calls"],
        "buffer.select.draws": c["select.draws"],
        "buffer.select.self_s": sec("buffer.select", "self_ns"),
        "buffer.reservoir.calls": row("buffer.reservoir")["calls"],
        "buffer.reservoir.self_s": sec("buffer.reservoir", "self_ns"),
        "buffer.gate.self_s": sec("buffer.gate", "self_ns"),
        "buffer.gate.candidates": c["gate.candidates"],
        "buffer.gate.precision": _ratio(c["gate.clean"], c["gate.candidates"]),
        "buffer.evict.count": c["evict.count"],
        "buffer.evict.precision": _ratio(c["evict.noisy"], c["evict.count"]),
        "buffer.past_task_share": _ratio(sum(tracer.past_task_shares),
                                         len(tracer.past_task_shares)),
        "buffer.audit.self_s": sec("buffer.audit", "self_ns"),
        "engine.self_s": sec("engine.run", "self_ns"),
        "engine.replay.calls": row("engine.replay")["calls"],
        "engine.replay.self_s": sec("engine.replay", "self_ns"),
        "engine.checkpoint_checks": sum(r["checkpoint_checks"] for r in tracer.runs),
        "engine.buffer_hash_checks": sum(r["buffer_hash_checks"] for r in tracer.runs),
        "consolidation.calls": row("consolidation")["calls"],
        "consolidation.self_s": sec("consolidation", "self_ns"),
        "consolidation.total_s": sec("consolidation", "total_ns"),
        "consolidation.steps": c["consolidation.steps"],
        "consolidation.gmm.self_s": sec("consolidation.gmm", "self_ns"),
        "consolidation.gmm.iters": c["gmm.iters"],
        "consolidation.corefine.self_s": sec("consolidation.corefine", "self_ns"),
        "consolidation.pure_count": c["pure.count"],
        "consolidation.pure_precision": _ratio(c["pure.clean"], c["pure.count"]),
        "metrics.separation.calls": row("metrics.separation")["calls"],
        "metrics.separation.total_s": sec("metrics.separation", "total_ns"),
        "metrics.writers.s": sec("metrics.writers", "total_ns"),
        "cli.reference.s": sec("cli.reference", "total_ns"),
        "cli.artifacts.s": (sec("metrics.writers", "total_ns")
                            + sec("buffer.dump", "total_ns")),
    })
    return m


def main(argv):
    """Run the aer CLI traced; write {"metrics", "runs", "spans"}."""
    out_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from aer import cli
    code = cli.main(cli_args)
    out_path.write_text(json.dumps({
        "metrics": layer_metrics(tracer),
        "runs": tracer.runs,
        "spans": len(tracer.spans),
    }, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
