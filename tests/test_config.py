import dataclasses
import re
from pathlib import Path

import pytest

from aer.config import (MethodSpec, RunConfig, config_hash, load_config,
                        parse_superclasses)
from aer.errors import ConfigError


def test_spec_defaults():
    cfg = RunConfig()
    assert cfg.lr == 0.03
    assert cfg.batch_size == 32
    assert cfg.epochs_per_task == 10
    assert cfg.buffer_capacity == 500
    assert cfg.alpha == 75.0
    assert cfg.lambda_u == 0.01
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.consolidation_epochs == 255
    assert cfg.consolidation_batch == 64
    assert cfg.num_augments == 3
    assert cfg.temperature == 0.5
    assert cfg.mixup_alpha == 0.75
    assert cfg.gmm_threshold == 0.5
    assert cfg.hidden == (64, 64)
    assert cfg.momentum == 0.0


@pytest.mark.parametrize("policy", ["lasso", "", "ABS"])
def test_method_spec_rejects_an_unknown_policy(policy):
    with pytest.raises(ConfigError, match=r"^policy: must be one of None, reservoir, "
                                          r"gdumb, lass, abs, got"):
        MethodSpec("typo", policy=policy)


def test_hash_stable_under_key_reordering(tmp_path):
    a = tmp_path / "a.ini"
    b = tmp_path / "b.ini"
    a.write_text("[run]\nlr = 0.05\nbatch_size = 16\n")
    b.write_text("[run]\nbatch_size = 16\nlr = 0.05\n")
    assert config_hash(load_config(a)) == config_hash(load_config(b))


def test_hash_changes_with_values(tmp_path):
    a = tmp_path / "a.ini"
    b = tmp_path / "b.ini"
    a.write_text("[run]\nlr = 0.05\n")
    b.write_text("[run]\nlr = 0.06\n")
    assert config_hash(load_config(a)) != config_hash(load_config(b))


def test_hash_without_seeds_ignores_seed_list():
    a = RunConfig(seeds=(0, 1))
    b = RunConfig(seeds=(5,))
    assert config_hash(a) != config_hash(b)
    assert config_hash(a, include_seeds=False) == config_hash(b, include_seeds=False)


def test_load_config_applies_defaults(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[run]\nmethod = er\n")
    cfg = load_config(path)
    assert cfg.method == "er"
    assert cfg.buffer_capacity == 500


def test_validation_messages_name_the_field():
    with pytest.raises(ConfigError, match="run.alpha"):
        RunConfig(alpha=120).validate()
    with pytest.raises(ConfigError, match="dataset.tasks"):
        RunConfig(classes=10, tasks=3).validate()
    with pytest.raises(ConfigError, match="dataset.tasks"):
        RunConfig(classes=10, tasks=0).validate()
    with pytest.raises(ConfigError, match="noise.rate"):
        RunConfig(noise_rate=1.5).validate()
    with pytest.raises(ConfigError, match="run.method"):
        RunConfig(method="nope").validate()
    with pytest.raises(ConfigError, match="run.consolidation"):
        RunConfig(method="gdumb", consolidation="mixmatch").validate()
    with pytest.raises(ConfigError, match="dataset.test_fraction"):
        RunConfig(per_class=4, test_fraction=0.2).validate()


@pytest.mark.parametrize("kind", ["synthetic", "csv"])
@pytest.mark.parametrize("field, value, message", [
    ("classes", 1, "dataset.classes: must be >= 2, got 1"),
    ("dims", 0, "dataset.dims: must be >= 1, got 0"),
    ("per_class", 0, "dataset.per_class: must be >= 1, got 0"),
    ("cluster_spread", -0.5, "dataset.cluster_spread: must be >= 0, got -0.5"),
])
def test_synthetic_fields_are_checked_for_every_dataset_kind(kind, field, value, message):
    cfg = RunConfig(dataset_kind=kind, dataset_path="data.csv", **{field: value})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cfg.validate()


def test_bad_values_name_field_on_parse(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[run]\nlr = fast\n")
    with pytest.raises(ConfigError, match="run.lr"):
        load_config(path)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("ini", [f.metadata["ini"] for f in dataclasses.fields(RunConfig)
                                 if f.type is float])
def test_non_finite_float_fails_its_fields_rule(tmp_path, ini, text):
    section, key = ini.split(".")
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(ini)}: must be .+, got {text}$"):
        load_config(path)


@pytest.mark.parametrize("ini, text", [("run.seeds", "0 1"), ("run.hidden", "64 64"),
                                       ("run.seeds", "1 2, 3")])
def test_list_items_do_not_merge_across_spaces(tmp_path, ini, text):
    section, key = ini.split(".")
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(ConfigError, match=f"^{ini}: cannot parse '{text}'$"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[general]\nlr = 0.05\n")
    with pytest.raises(ConfigError, match="general"):
        load_config(path)


def test_parse_superclasses_roundtrip():
    mapping = parse_superclasses("0:0, 1:0, 2:1, 3:1", 4)
    assert mapping == {0: 0, 1: 0, 2: 1, 3: 1}
    with pytest.raises(ConfigError, match="missing"):
        parse_superclasses("0:0,1:0", 4)
    with pytest.raises(ConfigError):
        parse_superclasses("0=0", 2)


def test_inline_comments_are_stripped(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[run]\nlr = 0.05  ; tuned\nseeds = 1,2 # two seeds\n")
    cfg = load_config(path)
    assert cfg.lr == 0.05
    assert cfg.seeds == (1, 2)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_ini_block_lists_every_option_and_loads_to_defaults(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    keys, section = set(), None
    for line in block.splitlines():
        if m := re.fullmatch(r"\[(\w+)\]", line.strip()):
            section = m.group(1)
        elif m := re.match(r";?\s*(\w+)\s*=", line):
            keys.add(f"{section}.{m.group(1)}")
    assert keys == {f.metadata["ini"] for f in dataclasses.fields(RunConfig)}
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert load_config(path) == RunConfig()


# (INI key, text, RunConfig field, parsed value); every value differs from
# its default, and together they pass validation
EVERY_KEY = [
    ("run.method", "aer_lass", "method", "aer_lass"),
    ("run.lr", "0.1", "lr", 0.1),
    ("run.momentum", "0.9", "momentum", 0.9),
    ("run.batch_size", "16", "batch_size", 16),
    ("run.epochs_per_task", "3", "epochs_per_task", 3),
    ("run.buffer_capacity", "200", "buffer_capacity", 200),
    ("run.alpha", "60", "alpha", 60.0),
    ("run.seeds", "7, 3", "seeds", (7, 3)),
    ("run.consolidation", "mixmatch", "consolidation", "mixmatch"),
    ("run.hidden", "32,16,8", "hidden", (32, 16, 8)),
    ("run.gdumb_fit_epochs", "5", "gdumb_fit_epochs", 5),
    ("run.gdumb_fit_lr", "0.2", "gdumb_fit_lr", 0.2),
    ("dataset.kind", "csv", "dataset_kind", "csv"),
    ("dataset.classes", "6", "classes", 6),
    ("dataset.dims", "4", "dims", 4),
    ("dataset.per_class", "50", "per_class", 50),
    ("dataset.cluster_spread", "2.5", "cluster_spread", 2.5),
    ("dataset.tasks", "3", "tasks", 3),
    ("dataset.test_fraction", "0.3", "test_fraction", 0.3),
    ("dataset.seed", "99", "dataset_seed", 99),
    ("dataset.path", "data/x.csv", "dataset_path", "data/x.csv"),
    ("dataset.standardize", "off", "standardize_features", False),
    ("noise.kind", "asymmetric", "noise_kind", "asymmetric"),
    ("noise.rate", "0.25", "noise_rate", 0.25),
    ("noise.seed", "5", "noise_seed", 5),
    ("noise.superclasses", "0:0,1:0,2:1,3:1", "superclass_spec", "0:0,1:0,2:1,3:1"),
    ("consolidation.epochs", "12", "consolidation_epochs", 12),
    ("consolidation.lr", "0.01", "consolidation_lr", 0.01),
    ("consolidation.batch_size", "16", "consolidation_batch", 16),
    ("consolidation.lambda_u", "0.5", "lambda_u", 0.5),
    ("consolidation.temperature", "0.7", "temperature", 0.7),
    ("consolidation.mixup_alpha", "0.4", "mixup_alpha", 0.4),
    ("consolidation.threshold", "0.8", "gmm_threshold", 0.8),
    ("consolidation.num_augments", "2", "num_augments", 2),
    ("consolidation.augment_strength", "0.3", "augment_strength", 0.3),
]


def test_every_field_round_trips_through_its_ini_key(tmp_path):
    assert {field for _, _, field, _ in EVERY_KEY} == {
        f.name for f in dataclasses.fields(RunConfig)}
    defaults = RunConfig()
    sections = {}
    for ini, text, field, value in EVERY_KEY:
        assert getattr(defaults, field) != value, field
        section, key = ini.split(".")
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    path = tmp_path / "every.ini"
    path.write_text("".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()))
    cfg = load_config(path)
    assert dataclasses.asdict(cfg) == {field: value for _, _, field, value in EVERY_KEY}
    assert cfg == RunConfig(**{field: value for _, _, field, value in EVERY_KEY})
