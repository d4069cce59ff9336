import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aer.cli import main

TINY = """
[run]
method = aer_abs
lr = 0.05
batch_size = 8
epochs_per_task = 2
buffer_capacity = 16
alpha = 75
seeds = 0

[dataset]
kind = synthetic
classes = 4
dims = 6
per_class = 40
cluster_spread = 1.0
tasks = 2
test_fraction = 0.2
seed = 7

[noise]
kind = symmetric
rate = 0.3
seed = 11
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


def test_run_minimal_config_succeeds(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2  # header + one aggregate row
    assert "aer_abs" in summary[1]
    manifest = json.loads((out / "manifest.json").read_text())
    for rel in manifest["outputs"]:
        assert (out / rel).exists()
    assert manifest["config"]["lr"] == 0.05
    assert manifest["config"]["momentum"] == 0.0  # defaults echoed
    captured = capsys.readouterr()
    assert "label" in captured.out


def test_rerun_produces_identical_summary_bytes(tiny_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(tiny_config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(tiny_config), "--out", str(out_b)]) == 0
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def test_run_writes_traces_and_buffer_dumps(tiny_config, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(tiny_config), "--out", str(out)])
    assert (out / "trace_seed0.csv").exists()
    assert (out / "trace_seed0.jsonl").exists()
    assert (out / "noise_manifest.json").exists()
    dumps = sorted(out.glob("buffer_task*_seed0.jsonl"))
    assert len(dumps) == 2


def test_missing_dataset_file_exits_4_and_names_path(tmp_path, capsys):
    cfg = tmp_path / "csv.ini"
    cfg.write_text("[dataset]\nkind = csv\npath = /nowhere/data.csv\ntasks = 2\n"
                   "[run]\nseeds = 0\n")
    assert main(["run", "--config", str(cfg)]) == 4
    assert "/nowhere/data.csv" in capsys.readouterr().err


def test_invalid_method_exits_2_with_field_message(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nmethod = pixiedust\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "run.method" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nmethox = er\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "run.methox" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.ini")]) == 2
    assert "none.ini" in capsys.readouterr().err


def test_numerical_abort_exits_3_with_dump(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "explode.ini"
    cfg.write_text(TINY.replace("lr = 0.05", "lr = 1e12"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "state dump" in err
    assert (out / "abort_state_seed0" / "context.json").exists()


def test_sweep_alpha_one_row_per_alpha(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep-alpha", "--config", str(tiny_config),
                 "--alphas", "0,50,90", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("alpha=0,")
    assert lines[3].startswith("alpha=90,")
    assert (out / "alpha=50" / "trace_seed0.csv").exists()


def test_sweep_alpha_rejects_out_of_range(tiny_config, capsys):
    assert main(["sweep-alpha", "--config", str(tiny_config),
                 "--alphas", "0,150"]) == 2
    assert "150" in capsys.readouterr().err


def test_ablate_emits_expected_rows(tiny_config, tmp_path):
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(tiny_config), "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["er", "er_ace", "er_ace_alpha", "er_ace_alpha_aer",
                      "er_ace_abs", "full_aer_abs", "full_minus_ace"]


def test_seeds_override(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_config), "--seeds", "3,4",
                 "--out", str(out)]) == 0
    assert (out / "trace_seed3.csv").exists()
    assert (out / "trace_seed4.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == [3, 4]


def test_env_var_sets_output_root(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("AER_OUT_ROOT", str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(tiny_config)]) == 0
    produced = list((tmp_path / "envroot").glob("run-aer_abs-*/summary.csv"))
    assert len(produced) == 1


def test_sweep_with_single_alpha_matches_run(tiny_config, tmp_path):
    out_run, out_sweep = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "--config", str(tiny_config), "--out", str(out_run)]) == 0
    assert main(["sweep-alpha", "--config", str(tiny_config), "--alphas", "75",
                 "--out", str(out_sweep)]) == 0
    run_row = (out_run / "summary.csv").read_text().splitlines()[1].split(",")
    sweep_row = (out_sweep / "summary.csv").read_text().splitlines()[1].split(",")
    # identical metrics; only the label differs
    assert run_row[1:] == sweep_row[1:]


# --- the exit-code contract over malformed CSVs and boundary config values ---

CONTRACT_RUN = """
[run]
method = {method}
batch_size = {batch_size}
epochs_per_task = {epochs}
buffer_capacity = {capacity}
alpha = {alpha}
lr = {lr}
seeds = {seeds}
hidden = {hidden}
consolidation = {consolidation}
gdumb_fit_epochs = {gdumb_epochs}
gdumb_fit_lr = {gdumb_lr}

[dataset]
kind = {kind}
{path}
classes = {classes}
dims = {dims}
per_class = {per_class}
tasks = {tasks}
test_fraction = {test_fraction}
seed = {dataset_seed}

[noise]
kind = {noise_kind}
rate = {noise_rate}
seed = {noise_seed}

[consolidation]
epochs = 2
"""
FIELD = re.compile(r"\b(run|dataset|noise|consolidation)\.\w+")


def run_cli(tmp, **values):
    """Run ``aer run`` in-process on a generated config; returns (code, stderr)."""
    fields = dict(method="er", batch_size=8, epochs=1, capacity=8, alpha=50,
                  lr=0.05, seeds="0", hidden="8", consolidation="none",
                  gdumb_epochs=2, gdumb_lr=0.05, kind="synthetic", path="",
                  classes=4, dims=3, per_class=10, tasks=2, test_fraction=0.2,
                  dataset_seed=1234, noise_kind="symmetric", noise_rate=0.2,
                  noise_seed=777)
    fields.update(values)
    cfg = Path(tmp) / "contract.ini"
    cfg.write_text(CONTRACT_RUN.format(**fields))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    err = err.getvalue()
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    return code, err


def csv_rows(classes, per_class, seed):
    rng = np.random.default_rng(seed)
    return [",".join([repr(float(v)) for v in rng.standard_normal(2)] + [str(c)])
            for c in range(classes) for _ in range(per_class)]


@st.composite
def malformed_csvs(draw):
    """(csv text, expected exit code, text the message must contain)."""
    classes = draw(st.sampled_from([4, 5, 6]))
    rows = csv_rows(classes, 10, draw(st.integers(0, 99)))
    fault = draw(st.sampled_from(["none", "cell", "ragged", "gap", "few"]))
    r = draw(st.integers(0, len(rows) - 1))
    # the run has 2 tasks: an odd class count is a config error, reported
    # after parse faults and classes without test rows
    expect = (2, "dataset.tasks: 5 classes") if classes % 2 else (0, "")
    if fault == "cell":
        cell = draw(st.sampled_from(["nan", "inf", "-inf", "", "1e999", "x"]))
        rows[r] = ",".join([cell] + rows[r].split(",")[1:])
        expect = (4, f"line {r + 2}:")
    elif fault == "ragged":
        rows[r] = rows[r] + ",0.5" if draw(st.booleans()) else rows[r].split(",", 1)[1]
        expect = (4, f"line {r + 2}:")
    elif fault == "gap":
        gap = draw(st.integers(0, classes - 2))
        rows = [row for row in rows if not row.endswith(f",{gap}")]
        expect = (4, f"class {gap} has no rows")
    elif fault == "few":
        # 1-4 rows hold no test row at test_fraction 0.2
        few = draw(st.integers(0, classes - 1))
        kept = rows[10 * few:10 * few + draw(st.integers(1, 4))]
        rows = [row for row in rows if not row.endswith(f",{few}")] + kept
        expect = (4, f"class {few} has no test rows")
    return "f0,f1,label\n" + "\n".join(rows) + "\n", *expect


@given(malformed_csvs())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_csv_exits_4_naming_line_or_class(tmp_path, case):
    text, code, where = case
    data = tmp_path / "data.csv"
    data.write_text(text)
    got, err = run_cli(tmp_path, kind="csv", path=f"path = {data}")
    assert got == code, err
    assert where in err


# valid values at or near each bound; combinations can still clash
# (classes vs tasks, test_fraction vs per_class, noise vs classes per task)
BOUNDARY_VALUES = {
    "method": ["finetune", "joint", "er", "gdumb", "aer_abs", "aer_lass"],
    "consolidation": ["none", "buffer_fit", "mixmatch"],
    "batch_size": [1, 8], "epochs": [1, 2], "capacity": [1, 8],
    "alpha": [0, 100], "lr": [0.05, 1e300], "tasks": [1, 2],
    "test_fraction": [0.2, 0.5, 0.9], "noise_kind": ["symmetric", "asymmetric"],
    "noise_rate": [0, 0.5, 1], "classes": [2, 4], "dims": [1, 3],
    "per_class": [4, 10], "seeds": ["0", "1,0"], "hidden": ["", "1", "8,1"],
    "dataset_seed": [0, 7], "noise_seed": [0, 11], "gdumb_epochs": [0, 2],
    "gdumb_lr": [1e-300, 0.05],
}
OUT_OF_RANGE = [("batch_size", 0), ("epochs", 0), ("capacity", 0), ("alpha", -1),
                ("alpha", 101), ("lr", 0), ("tasks", 0), ("test_fraction", 0),
                ("test_fraction", 1), ("noise_rate", 1.5), ("classes", 1),
                ("dims", 0), ("per_class", 0), ("method", "nope"),
                ("seeds", "-1"), ("seeds", "0,0"), ("hidden", "0"),
                ("hidden", "4,0"), ("hidden", "-2"), ("dataset_seed", -5),
                ("noise_seed", -3), ("gdumb_epochs", -3), ("gdumb_lr", -1),
                ("gdumb_lr", 0)]


@given(st.fixed_dictionaries({k: st.sampled_from(v) for k, v in BOUNDARY_VALUES.items()}),
       st.none() | st.sampled_from(OUT_OF_RANGE))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_boundary_config_values_exit_with_documented_code(tmp_path, values, bad):
    if bad is not None:
        values[bad[0]] = bad[1]
    code, err = run_cli(tmp_path, **values)
    if bad is not None:
        assert code == 2, err
    if code == 2:
        assert FIELD.search(err), err
    elif code == 3:
        assert err.startswith("numerical abort: ")


def test_label_gap_is_named_before_the_divisibility_check(tmp_path):
    data = tmp_path / "data.csv"
    rows = [row for row in csv_rows(5, 10, 0) if not row.endswith(",2")]
    data.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
    code, err = run_cli(tmp_path, kind="csv", path=f"path = {data}")
    assert code == 4
    assert "class 2 has no rows" in err


def test_empty_synthetic_test_split_is_rejected_before_training(tmp_path):
    code, err = run_cli(tmp_path, per_class=4, test_fraction=0.2)
    assert code == 2
    assert "dataset.test_fraction" in err
    assert not (tmp_path / "out").exists()
