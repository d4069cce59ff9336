import pytest

from aer.config import RunConfig, config_hash, load_config, parse_superclasses
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


def test_bad_values_name_field_on_parse(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[run]\nlr = fast\n")
    with pytest.raises(ConfigError, match="run.lr"):
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
