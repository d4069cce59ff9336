import numpy as np
import pytest

from aer.buffer import MemoryBuffer
from aer.errors import InputError
from aer.config import RunConfig
from aer.metrics import (SUMMARY_COLUMNS, AccuracyMatrix, faa, final_forgetting,
                         separation_trace, standard_error, summary_row,
                         write_summary_csv, write_trace_csv)
from aer.mlp import MLP, per_sample_ce


def matrix_from(rows):
    """rows[j] holds accuracies for t = j..T-1."""
    m = AccuracyMatrix(len(rows))
    for j, row in enumerate(rows):
        for k, v in enumerate(row):
            m.set_entry(j, j + k, v)
    return m


def test_entries_above_staircase_are_rejected():
    m = AccuracyMatrix(3)
    with pytest.raises(InputError):
        m.set_entry(2, 1, 0.5)
    assert np.isnan(m.values[2, 1])


def test_faa_all_ones():
    m = matrix_from([[1.0, 1.0], [1.0]])
    assert faa(m) == 1.0


def test_faa_final_row_mean():
    m = matrix_from([[0.9, 0.8], [0.6]])
    assert faa(m) == pytest.approx(0.7)


def test_faa_incomplete_matrix_is_error():
    m = AccuracyMatrix(2)
    m.set_entry(0, 1, 0.5)
    with pytest.raises(InputError):
        faa(m)


def test_ff_hand_computed_case():
    m = matrix_from([[0.9, 0.8, 0.5], [0.7, 0.6], [0.8]])
    assert final_forgetting(m) == pytest.approx(0.25)
    assert faa(m) == pytest.approx((0.5 + 0.6 + 0.8) / 3)


def test_ff_constant_rows_is_zero():
    m = matrix_from([[0.8, 0.8, 0.8], [0.6, 0.6], [0.9]])
    assert final_forgetting(m) == 0.0


def test_ff_single_task_is_error():
    m = matrix_from([[0.9]])
    with pytest.raises(InputError):
        final_forgetting(m)


def test_ff_nonincreasing_rows_equal_first_minus_last():
    rng = np.random.default_rng(0)
    t_count = 5
    rows = []
    for j in range(t_count):
        vals = np.sort(rng.random(t_count - j))[::-1]
        rows.append(vals.tolist())
    m = matrix_from(rows)
    expected = np.mean([rows[j][0] - rows[j][-1] for j in range(t_count - 1)])
    assert final_forgetting(m) == pytest.approx(expected)


def test_separation_noise_free_buffer_has_no_noisy_mean():
    model = MLP(2, 3, hidden=(4,), lr=0.1, seed=0)
    buf = MemoryBuffer(4, 2)
    for i in range(4):
        buf.add(np.array([float(i), 0.0]), i % 3, i % 3, 0, 0.0)
    clean_mean, noisy_mean = separation_trace(buf, model)
    assert noisy_mean is None
    assert clean_mean is not None and clean_mean >= 0


def test_separation_duplicate_entries_match_per_entry_loss():
    model = MLP(2, 3, hidden=(4,), lr=0.1, seed=1)
    buf = MemoryBuffer(4, 2)
    x = np.array([0.5, -1.0])
    for _ in range(2):
        buf.add(x, 0, 0, 0, 0.0)   # clean
    for _ in range(2):
        buf.add(x, 1, 0, 0, 0.0)   # mislabeled
    clean_mean, noisy_mean = separation_trace(buf, model)
    losses_clean = per_sample_ce(model.forward(x[None, :]), np.array([0]))[0]
    losses_noisy = per_sample_ce(model.forward(x[None, :]), np.array([1]))[0]
    assert clean_mean == pytest.approx(losses_clean)
    assert noisy_mean == pytest.approx(losses_noisy)


def test_separation_empty_buffer():
    model = MLP(2, 3, hidden=(4,), lr=0.1, seed=0)
    assert separation_trace(MemoryBuffer(4, 2), model) == (None, None)


class FakeRecord:
    def __init__(self, faa_value, key="k", purity=None, ff=None):
        self._faa = faa_value
        self._ff = ff
        self.config_key = key
        self.final_purity = purity
        self.final_diversity = None

    def faa(self):
        return self._faa

    def ff(self):
        return self._ff


CFG = RunConfig(method="er_ace_abs", seeds=(3, 1)).validate()


def test_aggregate_single_record_has_zero_se():
    row = summary_row("x", CFG, [FakeRecord(0.5)])
    assert list(row) == SUMMARY_COLUMNS
    assert (row["faa_mean"], row["faa_se"]) == (0.5, 0.0)
    assert row["label"] == "x"
    assert row["method"] == "er_ace_abs"
    assert row["seeds"] == "3;1"
    assert (row["noise_kind"], row["noise_rate"], row["alpha"], row["consolidation"]) == (
        CFG.noise_kind, CFG.noise_rate, CFG.alpha, CFG.consolidation)
    assert (row["diversity_mean"], row["diversity_se"]) == (None, None)


def test_aggregate_two_records():
    row = summary_row("x", CFG, [FakeRecord(0.4, ff=0.1), FakeRecord(0.6, ff=0.3)])
    assert row["faa_mean"] == pytest.approx(0.5)
    assert row["faa_se"] == pytest.approx(0.1)
    assert row["ff_mean"] == pytest.approx(0.2)
    assert row["ff_se"] == pytest.approx(0.1)


def test_aggregate_mismatched_configs_is_error():
    with pytest.raises(InputError, match="records disagree on config: 'b' vs 'a'"):
        summary_row("x", CFG, [FakeRecord(0.4, key="a"), FakeRecord(0.6, key="b")])


def test_summary_row_without_records_is_error():
    with pytest.raises(InputError, match="no records to aggregate"):
        summary_row("x", CFG, [])


def test_summary_row_leaves_ff_empty_when_any_record_lacks_it():
    row = summary_row("x", CFG, [FakeRecord(0.4, ff=0.1), FakeRecord(0.6, ff=None)])
    assert (row["ff_mean"], row["ff_se"]) == (None, None)
    assert row["faa_mean"] == pytest.approx(0.5)


def test_standard_error_matches_definition():
    vals = [0.2, 0.4, 0.9]
    assert standard_error(vals) == pytest.approx(np.std(vals, ddof=1) / np.sqrt(3))


def test_summary_csv_is_deterministic(tmp_path):
    rows = [{"label": "x", "method": "er", "noise_kind": "symmetric",
             "noise_rate": 0.4, "alpha": 75.0, "consolidation": "none",
             "seeds": "0;1", "faa_mean": 0.5, "faa_se": 0.01,
             "ff_mean": None, "ff_se": None, "purity_mean": 0.9,
             "purity_se": 0.0, "diversity_mean": None, "diversity_se": None}]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_summary_csv(rows, a)
    write_summary_csv(rows, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.splitlines()[0].startswith("label,method,noise_kind")
    assert "0.5" in text


def test_trace_csv_columns(tmp_path):
    traces = [{"task": 0, "epoch": 1, "mode": "forgetting", "stream_loss": 0.3,
               "buffer_clean_loss": 0.2, "buffer_noisy_loss": 0.9,
               "buffer_purity": 0.8}]
    path = tmp_path / "trace.csv"
    write_trace_csv(traces, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("task,epoch,mode,stream_loss,buffer_clean_loss,buffer_noisy_loss,"
                        "buffer_purity,offered,offered_clean,written,written_clean,"
                        "evicted_current,evicted_current_noisy,evicted_past,evicted_past_noisy")
    assert lines[1].startswith("0,1,forgetting,0.3")
