"""Run configuration: method registry, defaults, INI parsing, validation
and manifest hashing.

The config file is a flat INI document with one section per concern
(``run``, ``dataset``, ``noise``, ``consolidation``); every omitted key
falls back to the documented default and the resolved values are echoed
into the experiment manifest.
"""

import configparser
import dataclasses
import hashlib
import json
from dataclasses import dataclass

from .errors import ConfigError

CONSOLIDATION_MODES = ("none", "buffer_fit", "mixmatch")


@dataclass(frozen=True)
class MethodSpec:
    """Feature flags that compose a training method.

    ``ace`` masks the stream loss to current-task classes and the replay
    loss to all seen classes; ``alpha_gate`` keeps only the lowest-loss
    slice of each batch as insertion candidates; ``alternate`` enables the
    learning/forgetting schedule with checkpointing; ``selector`` picks how
    victims are chosen once the buffer is full.
    """
    label: str
    uses_buffer: bool = True
    ace: bool = False
    alpha_gate: bool = False
    alternate: bool = False
    selector: str = "reservoir"
    joint: bool = False
    gdumb: bool = False

    @property
    def consolidates(self):
        """Whether end-of-task consolidation has a rehearsal buffer to refit;
        GDumb's buffer only feeds its own per-task fit."""
        return self.uses_buffer and not self.gdumb


PRESETS = {
    "finetune": MethodSpec("finetune", uses_buffer=False),
    "joint": MethodSpec("joint", uses_buffer=False, joint=True),
    "er": MethodSpec("er"),
    "er_ace": MethodSpec("er_ace", ace=True),
    "gdumb": MethodSpec("gdumb", gdumb=True),
    "aer_abs": MethodSpec("aer_abs", ace=True, alpha_gate=True, alternate=True,
                          selector="abs"),
    "aer_lass": MethodSpec("aer_lass", ace=True, alpha_gate=True, alternate=True,
                           selector="lass"),
    "er_ace_abs": MethodSpec("er_ace_abs", ace=True, alpha_gate=True,
                             selector="abs"),
}


@dataclass
class RunConfig:
    """Flattened experiment configuration with documented defaults.

    A single ``batch_size`` covers both the stream and the replay draw.
    """
    # run
    method: str = "aer_abs"
    lr: float = 0.03
    momentum: float = 0.0
    batch_size: int = 32
    epochs_per_task: int = 10
    buffer_capacity: int = 500
    alpha: float = 75.0
    seeds: tuple = (0, 1, 2, 3, 4)
    consolidation: str = "none"
    hidden: tuple = (64, 64)
    gdumb_fit_epochs: int = 30
    gdumb_fit_lr: float = 0.05
    # dataset
    dataset_kind: str = "synthetic"
    classes: int = 10
    dims: int = 16
    per_class: int = 500
    cluster_spread: float = 1.0
    tasks: int = 5
    test_fraction: float = 0.2
    dataset_seed: int = 1234
    dataset_path: str = None
    standardize_features: bool = True
    # noise
    noise_kind: str = "symmetric"
    noise_rate: float = 0.4
    noise_seed: int = 777
    superclass_spec: str = None
    # consolidation
    consolidation_epochs: int = 255
    consolidation_lr: float = 0.05
    consolidation_batch: int = 64
    lambda_u: float = 0.01
    temperature: float = 0.5
    mixup_alpha: float = 0.75
    gmm_threshold: float = 0.5
    num_augments: int = 3
    augment_strength: float = 0.1

    def validate(self):
        def bad(field, msg):
            raise ConfigError(f"{field}: {msg}")

        if self.method not in PRESETS:
            bad("run.method", f"must be one of {', '.join(PRESETS)}, got {self.method!r}")
        if self.lr <= 0:
            bad("run.lr", f"must be > 0, got {self.lr}")
        if self.momentum < 0 or self.momentum >= 1:
            bad("run.momentum", f"must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            bad("run.batch_size", f"must be >= 1, got {self.batch_size}")
        if self.epochs_per_task < 1:
            bad("run.epochs_per_task", f"must be >= 1, got {self.epochs_per_task}")
        if self.buffer_capacity < 1:
            bad("run.buffer_capacity", f"must be >= 1, got {self.buffer_capacity}")
        if not 0 <= self.alpha <= 100:
            bad("run.alpha", f"must be within [0, 100], got {self.alpha}")
        if not self.seeds:
            bad("run.seeds", "need at least one seed")
        if self.consolidation not in CONSOLIDATION_MODES:
            bad("run.consolidation",
                f"must be one of {', '.join(CONSOLIDATION_MODES)}, got {self.consolidation!r}")
        if self.consolidation != "none" and not PRESETS[self.method].consolidates:
            bad("run.consolidation",
                f"{self.method} has no rehearsal buffer to consolidate")
        if self.dataset_kind not in ("synthetic", "csv"):
            bad("dataset.kind", f"must be synthetic|csv, got {self.dataset_kind!r}")
        if self.dataset_kind == "csv" and not self.dataset_path:
            bad("dataset.path", "required when dataset.kind = csv")
        if self.tasks < 1:
            bad("dataset.tasks", f"must be >= 1, got {self.tasks}")
        if self.dataset_kind == "synthetic":
            if self.classes < 2:
                bad("dataset.classes", f"must be >= 2, got {self.classes}")
            if self.dims < 1:
                bad("dataset.dims", f"must be >= 1, got {self.dims}")
            if self.per_class < 1:
                bad("dataset.per_class", f"must be >= 1, got {self.per_class}")
            if self.cluster_spread < 0:
                bad("dataset.cluster_spread", f"must be >= 0, got {self.cluster_spread}")
            if self.classes % self.tasks:
                bad("dataset.tasks",
                    f"{self.classes} classes not divisible by {self.tasks} tasks")
        if not 0 < self.test_fraction < 1:
            bad("dataset.test_fraction", f"must be in (0, 1), got {self.test_fraction}")
        if (self.dataset_kind == "synthetic"
                and int(self.test_fraction * self.per_class) < 1):
            bad("dataset.test_fraction",
                f"{self.test_fraction} of {self.per_class} examples per class "
                "leaves no test example")
        if self.noise_kind not in ("symmetric", "asymmetric"):
            bad("noise.kind", f"must be symmetric|asymmetric, got {self.noise_kind!r}")
        if not 0 <= self.noise_rate <= 1:
            bad("noise.rate", f"must be in [0, 1], got {self.noise_rate}")
        if self.consolidation_epochs < 0:
            bad("consolidation.epochs", f"must be >= 0, got {self.consolidation_epochs}")
        if self.consolidation_lr <= 0:
            bad("consolidation.lr", f"must be > 0, got {self.consolidation_lr}")
        if self.consolidation_batch < 1:
            bad("consolidation.batch_size", f"must be >= 1, got {self.consolidation_batch}")
        if self.lambda_u < 0:
            bad("consolidation.lambda_u", f"must be >= 0, got {self.lambda_u}")
        if self.temperature <= 0:
            bad("consolidation.temperature", f"must be > 0, got {self.temperature}")
        if self.mixup_alpha <= 0:
            bad("consolidation.mixup_alpha", f"must be > 0, got {self.mixup_alpha}")
        if not 0 < self.gmm_threshold < 1:
            bad("consolidation.threshold", f"must be in (0, 1), got {self.gmm_threshold}")
        if self.num_augments < 1:
            bad("consolidation.num_augments", f"must be >= 1, got {self.num_augments}")
        if self.augment_strength < 0:
            bad("consolidation.augment_strength",
                f"must be >= 0, got {self.augment_strength}")
        return self

    def as_dict(self):
        d = dataclasses.asdict(self)
        d["seeds"] = list(self.seeds)
        d["hidden"] = list(self.hidden)
        return d


def config_hash(cfg, include_seeds=True):
    """sha256 of the canonical JSON form; stable under field reordering."""
    d = cfg.as_dict()
    if not include_seeds:
        d.pop("seeds")
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def parse_superclasses(text, num_classes):
    """Parse ``class:superclass`` comma pairs into a full map."""
    mapping = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            c, s = part.split(":")
            mapping[int(c)] = int(s)
        except ValueError:
            raise ConfigError(
                f"noise.superclasses: expected class:superclass pairs, got {part!r}"
            ) from None
    missing = [c for c in range(num_classes) if c not in mapping]
    if missing:
        raise ConfigError(f"noise.superclasses: missing classes {missing}")
    return mapping


_SECTION_FIELDS = {
    "run": {
        "method": ("method", str),
        "lr": ("lr", float),
        "momentum": ("momentum", float),
        "batch_size": ("batch_size", int),
        "epochs_per_task": ("epochs_per_task", int),
        "buffer_capacity": ("buffer_capacity", int),
        "alpha": ("alpha", float),
        "seeds": ("seeds", "int_tuple"),
        "consolidation": ("consolidation", str),
        "hidden": ("hidden", "int_tuple"),
        "gdumb_fit_epochs": ("gdumb_fit_epochs", int),
        "gdumb_fit_lr": ("gdumb_fit_lr", float),
    },
    "dataset": {
        "kind": ("dataset_kind", str),
        "classes": ("classes", int),
        "dims": ("dims", int),
        "per_class": ("per_class", int),
        "cluster_spread": ("cluster_spread", float),
        "tasks": ("tasks", int),
        "test_fraction": ("test_fraction", float),
        "seed": ("dataset_seed", int),
        "path": ("dataset_path", str),
        "standardize": ("standardize_features", "bool"),
    },
    "noise": {
        "kind": ("noise_kind", str),
        "rate": ("noise_rate", float),
        "seed": ("noise_seed", int),
        "superclasses": ("superclass_spec", str),
    },
    "consolidation": {
        "epochs": ("consolidation_epochs", int),
        "lr": ("consolidation_lr", float),
        "batch_size": ("consolidation_batch", int),
        "lambda_u": ("lambda_u", float),
        "temperature": ("temperature", float),
        "mixup_alpha": ("mixup_alpha", float),
        "threshold": ("gmm_threshold", float),
        "num_augments": ("num_augments", int),
        "augment_strength": ("augment_strength", float),
    },
}


def _coerce(field, raw, kind):
    try:
        if kind is str:
            return raw.strip()
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "int_tuple":
            return tuple(int(v) for v in raw.replace(" ", "").split(",") if v)
    except ValueError:
        raise ConfigError(f"{field}: cannot parse {raw!r}") from None
    raise AssertionError(kind)


def load_config(path):
    """Read an INI config file into a validated RunConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    values = {}
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTION_FIELDS[section]:
                raise ConfigError(f"{section}.{key}: unknown option")
            field, kind = _SECTION_FIELDS[section][key]
            values[field] = _coerce(f"{section}.{key}", raw, kind)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg
