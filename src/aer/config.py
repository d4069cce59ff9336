"""Run configuration: method registry, defaults, INI parsing, validation
and manifest hashing.

The config file is a flat INI document with one section per concern
(``run``, ``dataset``, ``noise``, ``consolidation``); every omitted key
falls back to the documented default and the resolved values are echoed
into the experiment manifest.

Each option is declared once, as a ``RunConfig`` field that carries its
``section.key`` INI name, default and single-value rule; the INI key table,
the parsing by type and the single-value checks are derived from the fields.
"""

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ConfigError

CONSOLIDATION_MODES = ("none", "buffer_fit", "mixmatch")
POLICIES = (None, "reservoir", "gdumb", "lass", "abs")


@dataclass(frozen=True)
class MethodSpec:
    """Feature flags that compose a training method.

    ``policy`` names the buffer's insertion policy: None (no buffer),
    ``reservoir``, ``gdumb`` (GDumb's class-balanced fill), or ``lass`` /
    ``abs`` (reservoir admission, victims drawn by loss). ``ace`` masks the
    stream loss to current-task classes and the replay loss to all seen
    classes; ``alpha_gate`` keeps only the lowest-loss slice of each batch
    as insertion candidates; ``alternate`` enables the learning/forgetting
    schedule with checkpointing.
    """
    label: str
    policy: str = "reservoir"
    ace: bool = False
    alpha_gate: bool = False
    alternate: bool = False
    joint: bool = False

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"policy: must be one of {', '.join(map(str, POLICIES))}, "
                              f"got {self.policy!r}")


PRESETS = {spec.label: spec for spec in (
    MethodSpec("finetune", policy=None),
    MethodSpec("joint", policy=None, joint=True),
    MethodSpec("er"),
    MethodSpec("er_ace", ace=True),
    MethodSpec("gdumb", policy="gdumb"),
    MethodSpec("aer_abs", policy="abs", ace=True, alpha_gate=True, alternate=True),
    MethodSpec("aer_lass", policy="lass", ace=True, alpha_gate=True, alternate=True),
    MethodSpec("er_ace_abs", policy="abs", ace=True, alpha_gate=True),
    # ablation rungs: AER's parts one at a time (``aer ablate``)
    MethodSpec("er_ace_alpha", ace=True, alpha_gate=True),
    MethodSpec("er_ace_alpha_aer", ace=True, alpha_gate=True, alternate=True),
    MethodSpec("full_minus_ace", policy="abs", alpha_gate=True, alternate=True),
)}


def _option(ini, default, rule=None):
    """A config field: its ``section.key`` INI name, its default and an
    optional single-value rule ``(words, is_bad)``, reported as
    ``<ini>: must be <words>, got <value>`` when ``is_bad(value)``."""
    return dataclasses.field(default=default, metadata={"ini": ini, "rule": rule})


def _ge(lo):
    return f">= {lo}", lambda v: v < lo


def _gt(lo):
    return f"> {lo}", lambda v: v <= lo


def _one_of(choices, words=None):
    return words or "one of " + ", ".join(choices), lambda v: v not in choices


@dataclass
class RunConfig:
    """Flattened experiment configuration with documented defaults.

    Every field declares one INI option here and nowhere else (``_option``).
    A single ``batch_size`` covers both the stream and the replay draw.
    """
    method: str = _option("run.method", "aer_abs", _one_of(PRESETS))
    lr: float = _option("run.lr", 0.03, _gt(0))
    momentum: float = _option("run.momentum", 0.0, ("in [0, 1)", lambda v: v < 0 or v >= 1))
    batch_size: int = _option("run.batch_size", 32, _ge(1))
    epochs_per_task: int = _option("run.epochs_per_task", 10, _ge(1))
    buffer_capacity: int = _option("run.buffer_capacity", 500, _ge(1))
    alpha: float = _option("run.alpha", 75.0,
                           ("within [0, 100]", lambda v: not 0 <= v <= 100))
    seeds: tuple = _option("run.seeds", (0, 1, 2, 3, 4))
    consolidation: str = _option("run.consolidation", "none", _one_of(CONSOLIDATION_MODES))
    hidden: tuple = _option("run.hidden", (64, 64))
    gdumb_fit_epochs: int = _option("run.gdumb_fit_epochs", 30, _ge(0))
    gdumb_fit_lr: float = _option("run.gdumb_fit_lr", 0.05, _gt(0))
    dataset_kind: str = _option("dataset.kind", "synthetic",
                                _one_of(("synthetic", "csv"), "synthetic|csv"))
    classes: int = _option("dataset.classes", 10, _ge(2))
    dims: int = _option("dataset.dims", 16, _ge(1))
    per_class: int = _option("dataset.per_class", 500, _ge(1))
    cluster_spread: float = _option("dataset.cluster_spread", 1.0, _ge(0))
    tasks: int = _option("dataset.tasks", 5, _ge(1))
    test_fraction: float = _option("dataset.test_fraction", 0.2,
                                   ("in (0, 1)", lambda v: not 0 < v < 1))
    dataset_seed: int = _option("dataset.seed", 1234, _ge(0))
    dataset_path: str = _option("dataset.path", None)
    standardize_features: bool = _option("dataset.standardize", True)
    noise_kind: str = _option("noise.kind", "symmetric",
                              _one_of(("symmetric", "asymmetric"), "symmetric|asymmetric"))
    noise_rate: float = _option("noise.rate", 0.4, ("in [0, 1]", lambda v: not 0 <= v <= 1))
    noise_seed: int = _option("noise.seed", 777, _ge(0))
    superclass_spec: str = _option("noise.superclasses", None)
    consolidation_epochs: int = _option("consolidation.epochs", 255, _ge(0))
    consolidation_lr: float = _option("consolidation.lr", 0.05, _gt(0))
    consolidation_batch: int = _option("consolidation.batch_size", 64, _ge(1))
    lambda_u: float = _option("consolidation.lambda_u", 0.01, _ge(0))
    temperature: float = _option("consolidation.temperature", 0.5, _gt(0))
    mixup_alpha: float = _option("consolidation.mixup_alpha", 0.75, _gt(0))
    gmm_threshold: float = _option("consolidation.threshold", 0.5,
                                   ("in (0, 1)", lambda v: not 0 < v < 1))
    num_augments: int = _option("consolidation.num_augments", 3, _ge(1))
    augment_strength: float = _option("consolidation.augment_strength", 0.1, _ge(0))

    def validate(self):
        """Check every field's single-value rule (a NaN or infinite float
        breaks it too), then the rules that span fields or hold for one
        dataset kind only; returns ``self``."""
        def bad(field, msg):
            raise ConfigError(f"{field}: {msg}")

        for f in dataclasses.fields(self):
            if f.metadata["rule"] is not None:
                words, is_bad = f.metadata["rule"]
                value = getattr(self, f.name)
                if is_bad(value) or f.type is float and not math.isfinite(value):
                    shown = repr(value) if f.type is str else value
                    bad(f.metadata["ini"], f"must be {words}, got {shown}")
        if not self.seeds:
            bad("run.seeds", "need at least one seed")
        if min(self.seeds) < 0:
            bad("run.seeds", f"must be >= 0, got {min(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            bad("run.seeds", f"must be distinct, got {list(self.seeds)}")
        if any(h < 1 for h in self.hidden):
            bad("run.hidden", f"each width must be >= 1, got {list(self.hidden)}")
        # consolidation refits a rehearsal buffer; GDumb's buffer only feeds
        # its own per-task fit
        if self.consolidation != "none" and PRESETS[self.method].policy in (None, "gdumb"):
            bad("run.consolidation",
                f"{self.method} has no rehearsal buffer to consolidate")
        if self.dataset_kind == "csv" and not self.dataset_path:
            bad("dataset.path", "required when dataset.kind = csv")
        if self.dataset_kind == "synthetic":
            if self.classes % self.tasks:
                bad("dataset.tasks",
                    f"{self.classes} classes not divisible by {self.tasks} tasks")
            if int(self.test_fraction * self.per_class) < 1:
                bad("dataset.test_fraction",
                    f"{self.test_fraction} of {self.per_class} examples per class "
                    "leaves no test example")
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


_FIELD_BY_INI = {f.metadata["ini"]: f for f in dataclasses.fields(RunConfig)}
_SECTIONS = {ini.split(".")[0] for ini in _FIELD_BY_INI}


def parse_option(ini, raw):
    """Parse the text ``raw`` of INI option ``ini`` (``section.key``) by its
    field's type; returns ``(field name, value)``. A tuple option is a
    comma-separated list of ints; empty items are skipped."""
    if ini not in _FIELD_BY_INI:
        raise ConfigError(f"{ini}: unknown option")
    field = _FIELD_BY_INI[ini]
    try:
        if field.type is bool:
            value = configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        elif field.type is tuple:
            value = tuple(int(v) for v in raw.split(",") if v.strip())
        else:
            value = raw.strip() if field.type is str else field.type(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{ini}: cannot parse {raw!r}") from None
    return field.name, value


def load_config(path):
    """Read an INI config file into a validated RunConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path}: not UTF-8 text") from None
    except configparser.Error as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        values.update(parse_option(f"{section}.{key}", raw)
                      for key, raw in parser.items(section))
    return RunConfig(**values).validate()
