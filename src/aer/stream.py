"""Class-incremental data streams with frozen label noise.

Builds seeded Gaussian-cluster datasets (or loads CSV files), splits them
into disjoint-class tasks, injects symmetric or asymmetric label noise
within each task's label set, and serves shuffled minibatches whose order
depends only on (seed, task, epoch).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, ParseError


@dataclass
class Batch:
    """One minibatch. True labels ride along for metrics only."""
    features: np.ndarray
    labels: np.ndarray        # noisy labels, the only labels training sees
    true_labels: np.ndarray   # evaluation-only

    def __len__(self):
        return len(self.features)


@dataclass
class Dataset:
    features: np.ndarray
    labels_true: np.ndarray
    labels_noisy: np.ndarray
    num_classes: int

    def __len__(self):
        return len(self.features)

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, index):
        return Dataset(self.features[index], self.labels_true[index],
                       self.labels_noisy[index], self.num_classes)


@dataclass
class NoiseSpec:
    """Frozen label-noise description.

    ``kind`` is ``symmetric`` (resample uniformly among the other classes of
    the example's task) or ``asymmetric`` (flip to a fixed partner class
    inside the same superclass). ``superclass_map`` maps class id to
    superclass id and is required for asymmetric noise.

    Symmetric flips stay inside the task, so with k classes per task each
    label keeps a share 1 - rate of its own class and receives rate / (k - 1)
    of every other class. At rate >= 1 - 1/k another class ties (at
    equality, in expectation) or outnumbers class c among the examples
    labelled c, so a wrong label is the majority. For the standard 2-class
    tasks that is any rate >= 0.5.
    """
    kind: str
    rate: float
    superclass_map: dict = None
    seed: int = 0

    def validate(self, num_classes):
        if self.kind not in ("symmetric", "asymmetric"):
            raise InputError(f"noise kind must be symmetric|asymmetric, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise InputError(f"noise rate must be in [0, 1], got {self.rate}")
        if self.kind == "asymmetric":
            if not self.superclass_map:
                raise InputError("asymmetric noise requires a superclass map")
            missing = [c for c in range(num_classes) if c not in self.superclass_map]
            if missing:
                raise InputError(f"superclass map missing classes {missing}")
            sizes = {}
            for c in range(num_classes):
                sizes.setdefault(self.superclass_map[c], []).append(c)
            small = {s: members for s, members in sizes.items() if len(members) < 2}
            if small:
                raise InputError(f"every superclass needs >= 2 classes, got {small}")


def default_superclass_pairs(num_classes):
    """Consecutive class pairs form superclasses: {0,1}, {2,3}, ..."""
    if num_classes % 2:
        raise ConfigError("noise.superclasses: pairwise superclasses need an even "
                          f"class count, got {num_classes}")
    return {c: c // 2 for c in range(num_classes)}


def make_synthetic(classes, dims, per_class, cluster_spread, seed):
    """Seeded Gaussian-cluster dataset with well-separated class means.

    Means are random unit directions scaled so the minimum pairwise
    distance is max(6 * cluster_spread, 1), comfortably above the 4-sigma
    separation a linear probe needs. Raises ``ConfigError`` when the
    requested dimensionality cannot host that many separated directions
    (e.g. more than two classes in one dimension).
    """
    if classes < 2:
        raise ConfigError(f"classes must be >= 2, got {classes}")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if dims < 1:
        raise ConfigError(f"dims must be >= 1, got {dims}")
    if cluster_spread < 0:
        raise ConfigError(f"cluster_spread must be >= 0, got {cluster_spread}")
    rng = np.random.default_rng(seed)
    best_dirs, best_gap = None, 0.0
    for _ in range(32):
        raw = rng.standard_normal((classes, dims))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            continue
        unit = raw / norms
        diff = unit[:, None, :] - unit[None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        gap = dist[~np.eye(classes, dtype=bool)].min()
        if gap > best_gap:
            best_dirs, best_gap = unit, gap
    if best_dirs is None or best_gap < 1e-9:
        raise ConfigError(
            f"dataset.dims: cannot separate {classes} class means in {dims} dimension(s)")
    scale = max(6.0 * cluster_spread, 1.0) / best_gap
    means = best_dirs * scale
    labels = np.repeat(np.arange(classes), per_class)
    features = means[labels] + rng.standard_normal((len(labels), dims)) * cluster_spread
    order = rng.permutation(len(labels))
    features, labels = features[order], labels[order]
    return Dataset(features, labels, labels.copy(), classes)


def split_train_test(dataset, test_fraction, seed):
    """Per-class holdout split; call before injecting noise."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(len(dataset), dtype=bool)
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels_true == c)
        if len(idx) == 0:
            continue
        n_test = int(test_fraction * len(idx))
        chosen = rng.permutation(idx)[:n_test]
        test_mask[chosen] = True
    return dataset.subset(~test_mask), dataset.subset(test_mask)


class TaskStream:
    """Ordered class-incremental tasks over a fixed dataset.

    Immutable after construction (noise is injected into the underlying
    dataset before training starts). Batch order for (task, epoch) is a
    pure function of the stream seed.
    """

    def __init__(self, dataset, class_groups, batch_size, seed):
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.class_groups = tuple(tuple(int(c) for c in g) for g in class_groups)
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self._task_indices = [
            np.flatnonzero(np.isin(dataset.labels_true, g)) for g in self.class_groups
        ]

    @property
    def num_tasks(self):
        return len(self.class_groups)

    def task_classes(self, t):
        return self.class_groups[t]

    def task_size(self, t):
        return len(self._task_indices[t])

    def batches(self, t, epoch):
        """Yield the task's examples once, shuffled by (seed, t, epoch)."""
        if t >= self.num_tasks:
            raise InputError(f"task {t} out of range (T={self.num_tasks})")
        idx = self._task_indices[t]
        order = np.random.default_rng([self.seed, t, epoch]).permutation(len(idx))
        ds = self.dataset
        for start in range(0, len(idx), self.batch_size):
            sel = idx[order[start:start + self.batch_size]]
            yield Batch(ds.features[sel], ds.labels_noisy[sel], ds.labels_true[sel])


def split_tasks(dataset, num_tasks, seed, batch_size=32):
    """Contiguous class groups assigned to tasks; class count must divide evenly."""
    if num_tasks < 1:
        raise ConfigError(f"num_tasks must be >= 1, got {num_tasks}")
    if dataset.num_classes % num_tasks:
        raise ConfigError(
            f"class count {dataset.num_classes} not divisible by {num_tasks} tasks")
    per = dataset.num_classes // num_tasks
    groups = [tuple(range(i * per, (i + 1) * per)) for i in range(num_tasks)]
    return TaskStream(dataset, groups, batch_size, seed)


def inject_noise(dataset, spec, class_groups=None):
    """Corrupt ``labels_noisy`` in place; true labels are preserved.

    Flips never leave the example's class group (its task). Symmetric noise
    at rate >= 1 - 1/k, for k classes per group, makes a wrong label the
    majority of each class (see ``NoiseSpec``). Returns an audit report with
    per-class corruption counts.
    """
    spec.validate(dataset.num_classes)
    if class_groups is None:
        class_groups = [tuple(range(dataset.num_classes))]
    group_of = {}
    for g in class_groups:
        for c in g:
            group_of[int(c)] = tuple(g)
    missing = [c for c in range(dataset.num_classes) if c not in group_of]
    if missing:
        raise InputError(f"class groups do not cover classes {missing}")
    y = dataset.labels_true
    rng = np.random.default_rng(spec.seed)
    flips = rng.random(len(dataset)) < spec.rate
    noisy = y.copy()
    if spec.kind == "symmetric":
        if spec.rate > 0:
            singleton = {c for c in group_of if len(group_of[c]) < 2}
            if singleton:
                raise ConfigError(
                    "noise.kind: symmetric noise impossible: classes "
                    f"{sorted(singleton)} have no alternative class in their task")
        for i in np.flatnonzero(flips):
            others = [c for c in group_of[y[i]] if c != y[i]]
            noisy[i] = others[rng.integers(len(others))]
    else:
        partner = {}
        for c in range(dataset.num_classes):
            members = sorted(k for k in group_of[c]
                             if spec.superclass_map[k] == spec.superclass_map[c])
            if len(members) < 2:
                raise ConfigError(
                    f"noise.superclasses: asymmetric noise impossible: class {c} "
                    "has no partner inside its superclass within its task")
            partner[c] = members[(members.index(c) + 1) % len(members)]
        lut = np.array([partner[c] for c in range(dataset.num_classes)])
        noisy[flips] = lut[y[flips]]
    dataset.labels_noisy[:] = noisy
    corrupted = dataset.labels_noisy != y
    per_class = {int(c): int((corrupted & (y == c)).sum())
                 for c in range(dataset.num_classes)}
    return {
        "kind": spec.kind,
        "rate": spec.rate,
        "seed": spec.seed,
        "total_corrupted": int(corrupted.sum()),
        "fraction_corrupted": float(corrupted.mean()) if len(dataset) else 0.0,
        "per_class_corrupted": per_class,
    }


def save_csv(dataset, path):
    """Write ``f0..f{d-1},label`` rows; float repr round-trips exactly."""
    d = dataset.dim
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"f{i}" for i in range(d)] + ["label"]) + "\n")
        for row, lab in zip(dataset.features, dataset.labels_true):
            fh.write(",".join([repr(float(v)) for v in row] + [str(int(lab))]) + "\n")


def load_csv(path, num_classes=None):
    """Parse a ``f0..f{d-1},label`` file; errors carry the 1-based line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("line 1: empty file, expected a header row")
    header = [h.strip() for h in lines[0].split(",")]
    d = len(header) - 1
    expected = [f"f{i}" for i in range(d)] + ["label"]
    if d < 1 or header != expected:
        raise ParseError(f"line 1: expected header f0..f{{d-1}},label, got {lines[0]!r}")
    feats, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ParseError(f"line {lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            row = [float(v) for v in parts[:-1]]
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric feature value") from None
        if not np.isfinite(row).all():
            raise ParseError(f"line {lineno}: non-finite feature value")
        feats.append(row)
        try:
            lab = int(parts[-1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer label {parts[-1]!r}") from None
        if lab < 0 or (num_classes is not None and lab >= num_classes):
            raise ParseError(f"line {lineno}: unknown label {lab}")
        labels.append(lab)
    if not feats:
        raise ParseError("line 2: no data rows")
    labels = np.array(labels, dtype=np.intp)
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(np.array(feats, dtype=np.float64), labels, labels.copy(),
                   num_classes)


def standardize(train, *others):
    """Per-feature standardization with statistics fitted on the train split."""
    mean = train.features.mean(axis=0)
    std = np.maximum(train.features.std(axis=0), 1e-12)
    out = []
    for ds in (train, *others):
        out.append(Dataset((ds.features - mean) / std, ds.labels_true.copy(),
                           ds.labels_noisy.copy(), ds.num_classes))
    return out if len(out) > 1 else out[0]
