import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aer
from aer.cli import ABLATION_VARIANTS, main
from aer.config import PRESETS, config_hash, load_config

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
    cfg.write_text("[run]\nkind = csv\n")  # a dataset key under the wrong section
    assert main(["run", "--config", str(cfg)]) == 2
    assert "run.kind: unknown option" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.ini")]) == 2
    assert "none.ini" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"[run]\nmethod = er\xff\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: config file {cfg}: not UTF-8 text\n")


def test_one_class_superclass_exits_2_naming_the_field(tiny_config, tmp_path, capsys):
    tiny_config.write_text(TINY.replace(
        "kind = symmetric", "kind = asymmetric\nsuperclasses = 0:0,1:1,2:1,3:1"))
    assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: noise.superclasses: asymmetric noise impossible: "
        "class 0 has no partner inside its superclass within its task\n")


def test_numerical_abort_exits_3_with_dump(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "explode.ini"
    cfg.write_text(TINY.replace("lr = 0.05", "lr = 1e12"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "state dump" in err
    assert (out / "abort_state_seed0" / "context.json").exists()


def test_numerical_abort_prints_no_overflow_warning(tmp_path):
    """A diverging run ends in the numerical abort alone: numpy's overflow
    warnings, which name no field or stage, stay off stderr."""
    (tmp_path / "explode.ini").write_text(TINY.replace("lr = 0.05", "lr = 1e12"))
    env = dict(os.environ, PYTHONPATH=str(Path(aer.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "aer.cli", "run", "--config",
                           "explode.ini", "--out", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "overflow" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("numerical abort: ")


def test_numerical_abort_prints_no_invalid_value_warning(tmp_path):
    """A run whose matmuls meet invalid values (NaN from inf - inf) ends in
    the numerical abort alone, as an overflowing one does."""
    (tmp_path / "nan.ini").write_text(
        "[run]\nmethod = aer_abs\nlr = 1e6\nbatch_size = 16\nepochs_per_task = 4\n"
        "buffer_capacity = 100\nseeds = 0,1\n"
        "[dataset]\nclasses = 10\ndims = 8\nper_class = 60\ntasks = 5\n"
        "[noise]\nkind = symmetric\nrate = 0.4\n")
    env = dict(os.environ, PYTHONPATH=str(Path(aer.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "aer.cli", "run", "--config",
                           "nan.ini", "--out", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "encountered" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("numerical abort: ")


def test_buffer_too_large_to_allocate_exits_2_naming_the_size_options(tmp_path):
    """A buffer of 10**15 entries needs over 100 PiB, beyond any address
    space, so its allocation fails at once and touches no memory: a
    configuration error that names the options sizing the arrays."""
    (tmp_path / "huge.ini").write_text(
        TINY.replace("buffer_capacity = 16", f"buffer_capacity = {10**15}"))
    env = dict(os.environ, PYTHONPATH=str(Path(aer.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "aer.cli", "run", "--config",
                           "huge.ini", "--out", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.fullmatch(r"configuration error: Unable to allocate .*; sized by "
                        r"run\.buffer_capacity, .*dataset\.classes\n", proc.stderr)
    assert not (tmp_path / "out").exists()  # the allocation precedes every write


@pytest.mark.parametrize("command, blocked", [("run", ""), ("ablate", "/er")])
def test_out_naming_a_file_exits_4_at_the_first_write(tiny_config, tmp_path, capsys,
                                                      command, blocked):
    """An ``--out`` that names a file fails when the first output is
    written, as a data error naming that path; the file is left as it was."""
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main([command, "--config", str(tiny_config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("data error: [Errno ") and f"'{out}{blocked}'" in err, err
    assert out.read_text() == "keep"


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


@pytest.fixture(scope="module")
def ablated(tmp_path_factory):
    """The output directory of ``aer ablate`` on the tiny config."""
    root = tmp_path_factory.mktemp("ablate")
    (root / "tiny.ini").write_text(TINY)
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        assert main(["ablate", "--config", str(root / "tiny.ini"),
                     "--out", str(root / "out")]) == 0
    return root / "out"


@pytest.mark.parametrize("label, method", ABLATION_VARIANTS)
def test_run_writes_what_ablate_writes_for_each_rung(ablated, tmp_path, label, method):
    """``aer run`` with ``run.method`` set to a rung's preset writes the
    summary columns, trace files and buffer dumps of that rung under
    ``aer ablate``; only the label differs, for full_aer_abs."""
    config = tmp_path / "tiny.ini"
    config.write_text(TINY.replace("method = aer_abs", f"method = {method}"))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    run_row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    ablate_rows = (ablated / "summary.csv").read_text().splitlines()[1:]
    ablate_row = next(row.split(",") for row in ablate_rows if row.startswith(f"{label},"))
    assert run_row[:2] == [method, method]
    assert run_row[1:] == ablate_row[1:]
    files = {p.name: p.read_bytes() for p in out.iterdir()
             if p.name not in ("summary.csv", "manifest.json")}
    assert files == {p.name: p.read_bytes() for p in (ablated / label).iterdir()}
    assert sum(name.startswith(("trace_", "buffer_task")) for name in files) == 4


@pytest.mark.parametrize("method", [m for m, spec in PRESETS.items() if spec.alpha_gate])
def test_sweep_alpha_accepts_every_gated_preset(tiny_config, tmp_path, method):
    tiny_config.write_text(TINY.replace("method = aer_abs", f"method = {method}"))
    out = tmp_path / "sweep"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["sweep-alpha", "--config", str(tiny_config),
                     "--alphas", "0,90", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["alpha=0", method], ["alpha=90", method]]


def test_a_run_leaves_numpy_ma_unimported(tmp_path):
    """A run's class enumerations avoid ``np.unique``, which imports
    ``numpy.ma``; the two runs train the reference model, fit GDumb's
    buffer and consolidate with MixMatch."""
    for method, consolidation in (("aer_abs", "mixmatch"), ("gdumb", "none")):
        (tmp_path / f"{method}.ini").write_text(
            TINY.replace("method = aer_abs", f"method = {method}\n"
                         f"consolidation = {consolidation}\ngdumb_fit_epochs = 2")
            + "\n[consolidation]\nepochs = 2\n")
    script = ("import sys, warnings; from aer.cli import main; "
              "warnings.simplefilter('ignore'); "
              "codes = [main(['run', '--config', f'{m}.ini', '--out', m]) "
              "for m in ('aer_abs', 'gdumb')]; "
              "print(codes, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(aer.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"
    assert (tmp_path / "aer_abs" / "consolidation_seed0.json").exists()


MAJORITY_TINY = TINY.replace("kind = symmetric", "kind = asymmetric").replace(
    "rate = 0.3", "rate = 0.6")
MAJORITY_WARNINGS = [
    "noise.rate: at 0.6 a wrong class ties or outnumbers the true one under "
    "some noisy label (majority_flip)",
    "noise.superclasses: asymmetric noise draws exactly the symmetric flips, "
    "since each class's partner is the one other class of its task"]


def test_warnings_print_as_one_line_without_code_location(tmp_path):
    (tmp_path / "w.ini").write_text(MAJORITY_TINY)
    env = dict(os.environ, PYTHONPATH=str(Path(aer.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "aer.cli", "run", "--config", "w.ini",
                           "--out", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [f"warning: {m}" for m in MAJORITY_WARNINGS]


def test_main_leaves_the_warning_state_as_found(tmp_path):
    (tmp_path / "w.ini").write_text(MAJORITY_TINY)
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning) as caught:
        assert main(["run", "--config", str(tmp_path / "w.ini"),
                     "--out", str(tmp_path / "out")]) == 0
    assert [str(w.message) for w in caught] == MAJORITY_WARNINGS
    assert warnings.formatwarning is formatwarning


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
    assert produced[0].parent.name == f"run-aer_abs-{config_hash(load_config(tiny_config))[:12]}"


def test_default_out_dir_is_keyed_by_what_the_variants_run(tiny_config, tmp_path,
                                                           monkeypatch):
    """A base field that every variant overrides does not split the
    default directory: ablate's method and sweep-alpha's alpha."""
    monkeypatch.setenv("AER_OUT_ROOT", str(tmp_path / "envroot"))
    for command, extra, field, other in (
            ("ablate", [], "method = aer_abs", "method = gdumb"),
            ("sweep-alpha", ["--alphas", "0,50"], "alpha = 75", "alpha = 60")):
        for text in (TINY, TINY.replace(field, other)):
            tiny_config.write_text(text)
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("ignore")
                assert main([command, "--config", str(tiny_config), *extra]) == 0
    names = sorted(p.name for p in (tmp_path / "envroot").iterdir())
    assert [re.sub("-[0-9a-f]{12}$", "", name) for name in names] == [
        "ablate", "sweep-alpha-aer_abs"]


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
    fault = draw(st.sampled_from(["none", "cell", "ragged", "gap", "few", "one_class",
                                  "not_utf8", "huge_label"]))
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
    elif fault == "one_class":
        rows = [row.rsplit(",", 1)[0] + ",0" for row in rows]
        expect = (4, "data.csv: labels hold one class")
    elif fault == "not_utf8":
        # a lone 0xff byte once written with surrogateescape
        rows[r] = rows[r].replace(",", ",\udcff", 1)
        expect = (4, f"line {r + 2}: not UTF-8 text")
    elif fault == "huge_label":
        rows[r] = rows[r].rsplit(",", 1)[0] + ",99999999999999999999999"
        expect = (4, f"line {r + 2}: unknown label 99999999999999999999999")
    return "f0,f1,label\n" + "\n".join(rows) + "\n", *expect


@given(malformed_csvs())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_csv_exits_4_naming_line_or_class(tmp_path, case):
    text, code, where = case
    data = tmp_path / "data.csv"
    data.write_bytes(text.encode("utf-8", "surrogateescape"))
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
                ("gdumb_lr", 0), ("lr", "nan"), ("lr", "inf"), ("gdumb_lr", "nan"),
                ("seeds", "0 1"), ("hidden", "8 8")]


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


def test_far_label_gap_exits_4_before_the_split(tmp_path):
    """Labels {0, 1, 10**12}: the gap is named before the split, whose work
    grows with the largest label."""
    far = [row.rsplit(",", 1)[0] + f",{10**12}" for row in csv_rows(1, 10, 1)]
    (tmp_path / "data.csv").write_text(
        "f0,f1,label\n" + "\n".join(csv_rows(2, 10, 0) + far) + "\n")
    (tmp_path / "g.ini").write_text(
        TINY.replace("kind = synthetic", "kind = csv\npath = data.csv"))
    env = dict(os.environ, PYTHONPATH=str(Path(aer.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "aer.cli", "run", "--config", "g.ini",
                           "--out", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "data error: data.csv: class 2 has no rows\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tasks", [1, 2])
def test_one_class_csv_exits_4_naming_the_file(tmp_path, tasks):
    data = tmp_path / "data.csv"
    data.write_text("f0,f1,label\n" + "\n".join(csv_rows(1, 10, 0)) + "\n")
    code, err = run_cli(tmp_path, kind="csv", path=f"path = {data}", tasks=tasks)
    assert code == 4
    assert err == f"data error: {data}: labels hold one class, need >= 2\n"


def test_empty_synthetic_test_split_is_rejected_before_training(tmp_path):
    code, err = run_cli(tmp_path, per_class=4, test_fraction=0.2)
    assert code == 2
    assert "dataset.test_fraction" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, text, message", [
    (["run"], "--seeds", "-1", "--seeds: run.seeds: must be >= 0, got -1"),
    (["run"], "--seeds", "0,0", "--seeds: run.seeds: must be distinct, got [0, 0]"),
    (["run"], "--seeds", "a", "--seeds: run.seeds: cannot parse 'a'"),
    (["sweep-alpha"], "--alphas", "0,101",
     "--alphas: run.alpha: must be within [0, 100], got 101.0"),
    (["run"], "--seeds", "1 2", "--seeds: run.seeds: cannot parse '1 2'"),
    (["sweep-alpha"], "--alphas", "5 0", "--alphas: run.alpha: cannot parse '5 0'"),
    (["run"], "--seeds", "", "--seeds: run.seeds: need at least one seed"),
    (["sweep-alpha"], "--alphas", "50,50", "--alphas: must be distinct, got [50, 50]"),
    (["sweep-alpha"], "--alphas", "0,50,50.0", "--alphas: must be distinct, got [0, 50, 50]"),
    (["sweep-alpha", "er"], "--alphas", "0,90",
     "--alphas: er has no alpha gate to sweep"),
])
def test_bad_flag_value_exits_2_naming_the_flag(tiny_config, tmp_path, capsys,
                                               command, flag, text, message):
    """``command`` is the subcommand, then optionally the config's method."""
    subcommand, *method = command
    if method:
        tiny_config.write_text(TINY.replace("method = aer_abs", f"method = {method[0]}"))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(tiny_config), flag, text,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()
