import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from aer.config import RunConfig
from aer.engine import prepare_data
from aer.errors import ConfigError, InputError, ParseError
from aer.mlp import MLP
from aer.stream import (Dataset, default_superclass_pairs,
                        inject_noise, load_csv, make_synthetic, save_csv,
                        split_tasks, split_train_test, standardize)


def test_synthetic_zero_spread_is_linearly_separable():
    ds = make_synthetic(2, 4, 40, cluster_spread=0.0, seed=3)
    model = MLP(4, 2, hidden=(), lr=0.2, seed=0)
    for _ in range(60):
        model.train_step(ds.features, ds.labels_true)
    assert (model.predict(ds.features) == ds.labels_true).mean() == 1.0


def test_synthetic_same_seed_identical():
    a = make_synthetic(5, 8, 20, 1.0, seed=11)
    b = make_synthetic(5, 8, 20, 1.0, seed=11)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels_true, b.labels_true)
    c = make_synthetic(5, 8, 20, 1.0, seed=12)
    assert not np.array_equal(a.features, c.features)


def test_synthetic_mean_separation_at_least_four_spreads():
    spread = 1.3
    ds = make_synthetic(6, 10, 30, spread, seed=5)
    means = np.stack([ds.features[ds.labels_true == c].mean(axis=0) for c in range(6)])
    for i in range(6):
        for j in range(i + 1, 6):
            # empirical means wander ~spread/sqrt(n) from the true centers
            assert np.linalg.norm(means[i] - means[j]) > 4.0 * spread


def test_synthetic_infeasible_dims_is_error():
    with pytest.raises(ConfigError):
        make_synthetic(3, 1, 10, 1.0, seed=0)


def test_synthetic_argument_validation():
    with pytest.raises(ConfigError):
        make_synthetic(1, 4, 10, 1.0, seed=0)
    with pytest.raises(ConfigError):
        make_synthetic(3, 4, 0, 1.0, seed=0)


def test_clean_joint_mlp_accuracy_exceeds_95(bench):
    records = bench.suite("joint_clean", method="joint", noise_rate=0.0,
                          seeds=(0,))
    assert records[0].faa() > 0.95


def test_split_train_test_is_per_class():
    ds = make_synthetic(4, 6, 50, 1.0, seed=2)
    train, test = split_train_test(ds, 0.2, seed=9)
    assert len(train) == 160 and len(test) == 40
    for c in range(4):
        assert (test.labels_true == c).sum() == 10


def test_noise_rate_zero_changes_nothing():
    ds = make_synthetic(4, 6, 30, 1.0, seed=1)
    report = inject_noise(ds, "symmetric", 0.0, 4)
    assert np.array_equal(ds.labels_noisy, ds.labels_true)
    assert report["total_corrupted"] == 0


def test_noise_rate_one_flips_everything():
    ds = make_synthetic(4, 6, 30, 1.0, seed=1)
    inject_noise(ds, "symmetric", 1.0, 4)
    assert np.all(ds.labels_noisy != ds.labels_true)


def test_noise_binomial_bound():
    ds = make_synthetic(10, 4, 1000, 1.0, seed=8)
    report = inject_noise(ds, "symmetric", 0.4, 99)
    assert 0.39 <= report["fraction_corrupted"] <= 0.41


def test_noise_stays_inside_task_groups():
    ds = make_synthetic(10, 8, 50, 1.0, seed=3)
    stream = split_tasks(ds, 5, seed=0)
    inject_noise(ds, "symmetric", 0.5, 7, stream.class_groups)
    for g in stream.class_groups:
        members = np.isin(ds.labels_true, g)
        assert np.all(np.isin(ds.labels_noisy[members], g))


def test_symmetric_offdiagonal_roughly_uniform():
    ds = make_synthetic(10, 4, 2000, 1.0, seed=6)
    inject_noise(ds, "symmetric", 0.4, 13)
    confusion = np.zeros((10, 10))
    for t, n in zip(ds.labels_true, ds.labels_noisy):
        confusion[t, n] += 1
    off = confusion[0, 1:]
    expected = off.sum() / 9
    assert np.all(np.abs(off - expected) < 4 * np.sqrt(expected))


def test_asymmetric_uses_fixed_partner():
    ds = make_synthetic(6, 8, 200, 1.0, seed=2)
    inject_noise(ds, "asymmetric", 0.3, 21, superclasses=default_superclass_pairs(6))
    corrupted = ds.labels_noisy != ds.labels_true
    assert corrupted.any()
    # pairwise superclasses: the only partner of 2k is 2k+1 and vice versa
    partners = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    for t, n in zip(ds.labels_true[corrupted], ds.labels_noisy[corrupted]):
        assert n == partners[t]


def test_asymmetric_without_map_uses_consecutive_pairs():
    ds = make_synthetic(4, 6, 200, 1.0, seed=1)
    pairs = make_synthetic(4, 6, 200, 1.0, seed=1)
    report = inject_noise(ds, "asymmetric", 0.2, 0)
    assert report == inject_noise(pairs, "asymmetric", 0.2, 0,
                                  superclasses=default_superclass_pairs(4))
    assert report["total_corrupted"] > 0
    assert np.array_equal(ds.labels_noisy, pairs.labels_noisy)


def test_asymmetric_partner_outside_task_is_error():
    ds = make_synthetic(4, 6, 20, 1.0, seed=1)
    # superclass {0, 2} straddles the two tasks {0,1} and {2,3}
    stream = split_tasks(ds, 2, seed=0)
    with pytest.raises(ConfigError):
        inject_noise(ds, "asymmetric", 0.2, 0, stream.class_groups,
                     {0: 0, 2: 0, 1: 1, 3: 1})


def test_noise_report_counts_match():
    ds = make_synthetic(4, 6, 100, 1.0, seed=5)
    report = inject_noise(ds, "symmetric", 0.25, 3)
    recount = {c: int(((ds.labels_noisy != ds.labels_true)
                       & (ds.labels_true == c)).sum()) for c in range(4)}
    assert report["per_class_corrupted"] == recount
    assert report["total_corrupted"] == sum(recount.values())


@dataclass
class ReferenceNoiseSpec:
    """The noise description ``inject_noise`` took before it had one path,
    kept with its validation as the reference for the single draw."""
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


def reference_inject_noise(dataset, spec, class_groups=None):
    """Symmetric flips drawn one ``rng.integers`` call per flipped row,
    asymmetric flips through a partner lookup table."""
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


def _noise_case(rng):
    """A random ``inject_noise`` argument set: 2-12 classes in shuffled groups
    of unequal size, rates at 0, 1, in between and out of range, and
    superclass maps that are missing, partial or split across groups."""
    n = int(rng.integers(2, 13))
    labels = rng.integers(0, n, size=int(rng.integers(0, 120)))
    dataset = Dataset(np.zeros((len(labels), 1)), labels, labels.copy(), n)
    groups = None
    if rng.random() < 0.8:
        classes = rng.permutation(n)
        cuts = rng.choice(np.arange(1, n), size=int(rng.integers(n // 2 + 1)),
                          replace=False)
        groups = [tuple(int(c) for c in g) for g in np.split(classes, np.sort(cuts))]
        if rng.random() < 0.05:
            groups = groups[1:]
    kind = "bogus" if rng.random() < 0.03 else str(rng.choice(["symmetric", "asymmetric"]))
    rate = float(rng.choice([0.0, 1.0, rng.random(), rng.random(), -0.1, 1.5],
                            p=[0.15, 0.15, 0.3, 0.3, 0.05, 0.05]))
    superclasses = None
    if rng.random() < 0.4:
        # a few superclasses per group, so most classes have a partner
        superclasses = {c: 100 * i + int(rng.integers(max(1, len(g) // 2)))
                        for i, g in enumerate(groups or [range(n)]) for c in g}
    elif rng.random() < 0.5:
        superclasses = {c: int(rng.integers(1 + n // 3)) for c in range(n)}
    if superclasses is not None and rng.random() < 0.05:
        superclasses.pop(int(rng.integers(n)), None)
    return dataset, kind, rate, int(rng.integers(2**32)), groups, superclasses


def _outcome(call, dataset):
    try:
        report = call()
    except (ConfigError, InputError) as exc:
        return type(exc), str(exc)
    return dataset.labels_noisy.tolist(), report


def test_single_draw_matches_the_per_flip_reference():
    """Labels, reports, exception types and messages equal the reference on
    random cases. Asymmetric noise without a map is compared with the
    consecutive pairs its caller used to pass; the reference report lacks
    only ``majority_flip``, checked here against ``rate >= 1 - 1/k``
    (symmetric, some k-class group) and ``rate >= 0.5`` (asymmetric)."""
    rng = np.random.default_rng(2024)
    kinds = Counter()
    for _ in range(1200):
        dataset, kind, rate, seed, groups, superclasses = _noise_case(rng)
        n = dataset.num_classes
        ref_map = superclasses
        if kind == "asymmetric" and superclasses is None and 0 <= rate <= 1:
            if n % 2:
                with pytest.raises(ConfigError, match="even class count"):
                    inject_noise(dataset, kind, rate, seed, groups)
                kinds["odd, no default pairs"] += 1
                continue
            ref_map = default_superclass_pairs(n)
        ref_data = dataset.subset(np.arange(len(dataset)))
        expected = _outcome(lambda: reference_inject_noise(
            ref_data, ReferenceNoiseSpec(kind, rate, ref_map, seed), groups), ref_data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = _outcome(lambda: inject_noise(dataset, kind, rate, seed, groups,
                                                superclasses), dataset)
        if isinstance(got[1], dict):
            sizes = [len(g) for g in groups or [range(n)] if len(g) > 1]
            assert got[1].pop("majority_flip") == (
                rate >= 0.5 if kind == "asymmetric" else
                any(rate >= 1 - 1 / k for k in sizes))
            kinds[kind, got[1]["total_corrupted"] > 0] += 1
        else:
            kinds[got[0]] += 1
        assert got == expected
    # the cases reach every branch
    assert min(kinds.values()) >= 10, kinds
    assert set(kinds) == {("symmetric", True), ("symmetric", False),
                          ("asymmetric", True), ("asymmetric", False),
                          ConfigError, InputError, "odd, no default pairs"}


def _noise_report(**overrides):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = prepare_data(RunConfig(**overrides).validate(), 0).noise_report
    return report, [str(w.message) for w in caught]


@pytest.mark.parametrize("overrides, majority", [
    ({}, False),
    ({"tasks": 5, "noise_rate": 0.6}, True),
    ({"tasks": 2, "noise_rate": 0.6}, False),
    ({"noise_kind": "asymmetric", "noise_rate": 0.5}, True),
    ({"noise_kind": "asymmetric", "noise_rate": 0.4}, False),
])
def test_majority_flip_is_recorded_and_warned(overrides, majority):
    report, messages = _noise_report(**overrides)
    assert report["majority_flip"] is majority
    assert any("majority_flip" in m for m in messages) is majority


@pytest.mark.parametrize("overrides, identical", [
    ({"noise_kind": "asymmetric"}, True),
    ({"noise_kind": "asymmetric", "tasks": 2,
      "superclass_spec": "0:0,1:0,2:0,3:1,4:1,5:2,6:2,7:2,8:3,9:3"}, False),
])
def test_warns_when_asymmetric_noise_draws_the_symmetric_flips(overrides, identical):
    report, messages = _noise_report(**overrides)
    assert any("exactly the symmetric flips" in m for m in messages) is identical
    if identical:
        symmetric, _ = _noise_report(**{**overrides, "noise_kind": "symmetric"})
        assert report["per_class_corrupted"] == symmetric["per_class_corrupted"]


def test_split_ten_classes_into_five_tasks():
    ds = make_synthetic(10, 6, 10, 1.0, seed=0)
    stream = split_tasks(ds, 5, seed=0)
    assert stream.num_tasks == 5
    assert all(len(g) == 2 for g in stream.class_groups)


def test_split_single_task_is_joint():
    ds = make_synthetic(6, 6, 10, 1.0, seed=0)
    stream = split_tasks(ds, 1, seed=0)
    assert stream.class_groups == (tuple(range(6)),)


def test_split_groups_partition_classes():
    ds = make_synthetic(12, 6, 5, 1.0, seed=0)
    stream = split_tasks(ds, 4, seed=0)
    seen = [c for g in stream.class_groups for c in g]
    assert sorted(seen) == list(range(12))
    assert len(set(seen)) == len(seen)


def test_split_indivisible_is_error():
    ds = make_synthetic(10, 6, 5, 1.0, seed=0)
    with pytest.raises(ConfigError):
        split_tasks(ds, 3, seed=0)


def test_single_batch_when_batch_size_covers_task():
    ds = make_synthetic(4, 6, 25, 1.0, seed=0)
    stream = split_tasks(ds, 2, seed=0, batch_size=50)
    batches = list(stream.batches(0, 0))
    assert len(batches) == 1
    assert len(batches[0]) == 50


def test_batches_partition_task_each_epoch():
    ds = make_synthetic(4, 6, 25, 1.0, seed=0)
    stream = split_tasks(ds, 2, seed=0, batch_size=16)
    batches = list(stream.batches(1, 2))
    assert sum(len(b) for b in batches) == 50
    assert [len(b) for b in batches] == [16, 16, 16, 2]
    assert all(np.isin(b.true_labels, stream.task_classes(1)).all() for b in batches)


def test_batch_order_depends_only_on_seed_task_epoch():
    ds = make_synthetic(4, 6, 25, 1.0, seed=0)
    a = split_tasks(ds, 2, seed=5, batch_size=8)
    b = split_tasks(ds, 2, seed=5, batch_size=8)
    for (ba, bb) in zip(a.batches(0, 3), b.batches(0, 3)):
        assert np.array_equal(ba.features, bb.features)
        assert np.array_equal(ba.labels, bb.labels)
    first = next(iter(a.batches(0, 0)))
    second = next(iter(a.batches(0, 1)))
    assert not np.array_equal(first.features, second.features)


def test_csv_roundtrip_is_exact(tmp_path):
    ds = make_synthetic(3, 4, 10, 1.0, seed=7)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels_true, ds.labels_true)
    assert back.num_classes == 3


def test_csv_three_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n0.5,1.0,0\n-1.5,2.0,1\n3.25,-0.75,1\n")
    ds = load_csv(path)
    assert len(ds) == 3
    assert ds.num_classes == 2
    assert np.allclose(ds.features[2], [3.25, -0.75])


def test_csv_ragged_row_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n0.5,1.0,0\n0.5,1\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path)


def test_csv_non_numeric_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\nx,1.0,0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_error_names_line(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n0.5,1.0,1\n{cell},1.0,0\n")
    with pytest.raises(ParseError, match="line 3: non-finite feature value"):
        load_csv(path)


def test_csv_unknown_label_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n0.1,1.0,-1\n")
    with pytest.raises(ParseError, match="^line 2: unknown label -1$"):
        load_csv(path)


@pytest.mark.parametrize("raw, line", [
    (b"f0,f1,label\r0.1,0.2,0\r0.3,\xff,1\r", 3),          # \r-only line breaks
    (b"f0,f1,label\r\n0.1,0.2,0\r\n0.3,\xff,1\r\n", 3),   # one break per \r\n
    (b"f0,f1,label\n0.1,\x0c0.2,0\n0.3,\xff,1\n", 4),      # a form feed splits a row
    (b"f0,f1,label\r\xff", 2),                             # bad byte after a break
    (b"\xff", 1),
], ids=["cr", "crlf", "form-feed", "after-break", "first-byte"])
def test_csv_not_utf8_line_is_numbered_as_splitlines(tmp_path, raw, line):
    """The not-UTF-8 error numbers lines as every other ``ParseError``
    does: the ``str.splitlines`` line that holds the bad byte."""
    lines = raw.decode("utf-8", "replace").splitlines()
    assert next(i for i, text in enumerate(lines, 1) if "\ufffd" in text) == line
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=f"^line {line}: not UTF-8 text$"):
        load_csv(path)


@pytest.mark.parametrize("labels, gap", [((0, 1, 3), 2), ((0, 1, 10**12), 2),
                                         ((2**63 - 1, 2**63 - 1), 0)],
                         ids=["3", "10**12", "2**63-1"])
def test_csv_label_gap_names_the_first_class_without_rows(tmp_path, labels, gap):
    """``load_csv`` numbers the classes 0 to the largest label, so it names a
    skipped one; a far label allocates nothing label-sized, and the largest
    ``intp`` label overflows no arithmetic of the gap search."""
    path = tmp_path / "gap.csv"
    path.write_text("f0,label\n" + "".join(f"0.5,{lab}\n" for lab in labels))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError,
                           match=f"^{re.escape(str(path))}: class {gap} has no rows$"):
            load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_csv_bad_header_is_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0.1,1.0,0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(path)


def test_standardize_uses_train_statistics():
    rng = np.random.default_rng(0)
    train = Dataset(rng.normal(5.0, 3.0, (200, 2)), np.zeros(200, dtype=np.intp),
                    np.zeros(200, dtype=np.intp), 2)
    test = Dataset(rng.normal(5.0, 3.0, (50, 2)), np.zeros(50, dtype=np.intp),
                   np.zeros(50, dtype=np.intp), 2)
    strain, stest = standardize(train, test)
    assert np.allclose(strain.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(strain.features.std(axis=0), 1.0, atol=1e-12)
    expected = (test.features - train.features.mean(axis=0)) / train.features.std(axis=0)
    assert np.allclose(stest.features, expected)
