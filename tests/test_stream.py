import numpy as np
import pytest

from aer.errors import ConfigError, InputError, ParseError
from aer.mlp import MLP
from aer.stream import (Dataset, NoiseSpec, default_superclass_pairs,
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
    report = inject_noise(ds, NoiseSpec("symmetric", 0.0, seed=4))
    assert np.array_equal(ds.labels_noisy, ds.labels_true)
    assert report["total_corrupted"] == 0


def test_noise_rate_one_flips_everything():
    ds = make_synthetic(4, 6, 30, 1.0, seed=1)
    inject_noise(ds, NoiseSpec("symmetric", 1.0, seed=4))
    assert np.all(ds.labels_noisy != ds.labels_true)


def test_noise_binomial_bound():
    ds = make_synthetic(10, 4, 1000, 1.0, seed=8)
    report = inject_noise(ds, NoiseSpec("symmetric", 0.4, seed=99))
    assert 0.39 <= report["fraction_corrupted"] <= 0.41


def test_noise_stays_inside_task_groups():
    ds = make_synthetic(10, 8, 50, 1.0, seed=3)
    stream = split_tasks(ds, 5, seed=0)
    inject_noise(ds, NoiseSpec("symmetric", 0.5, seed=7), stream.class_groups)
    for g in stream.class_groups:
        members = np.isin(ds.labels_true, g)
        assert np.all(np.isin(ds.labels_noisy[members], g))


def test_symmetric_offdiagonal_roughly_uniform():
    ds = make_synthetic(10, 4, 2000, 1.0, seed=6)
    inject_noise(ds, NoiseSpec("symmetric", 0.4, seed=13))
    confusion = np.zeros((10, 10))
    for t, n in zip(ds.labels_true, ds.labels_noisy):
        confusion[t, n] += 1
    off = confusion[0, 1:]
    expected = off.sum() / 9
    assert np.all(np.abs(off - expected) < 4 * np.sqrt(expected))


def test_asymmetric_uses_fixed_partner():
    ds = make_synthetic(6, 8, 200, 1.0, seed=2)
    spec = NoiseSpec("asymmetric", 0.3, default_superclass_pairs(6), seed=21)
    inject_noise(ds, spec)
    corrupted = ds.labels_noisy != ds.labels_true
    assert corrupted.any()
    # pairwise superclasses: the only partner of 2k is 2k+1 and vice versa
    partners = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    for t, n in zip(ds.labels_true[corrupted], ds.labels_noisy[corrupted]):
        assert n == partners[t]


def test_asymmetric_without_map_is_error():
    ds = make_synthetic(4, 6, 20, 1.0, seed=1)
    with pytest.raises(InputError):
        inject_noise(ds, NoiseSpec("asymmetric", 0.2, None, seed=0))


def test_asymmetric_partner_outside_task_is_error():
    ds = make_synthetic(4, 6, 20, 1.0, seed=1)
    # superclass {0, 2} straddles the two tasks {0,1} and {2,3}
    spec = NoiseSpec("asymmetric", 0.2, {0: 0, 2: 0, 1: 1, 3: 1}, seed=0)
    stream = split_tasks(ds, 2, seed=0)
    with pytest.raises(ConfigError):
        inject_noise(ds, spec, stream.class_groups)


def test_noise_report_counts_match():
    ds = make_synthetic(4, 6, 100, 1.0, seed=5)
    report = inject_noise(ds, NoiseSpec("symmetric", 0.25, seed=3))
    recount = {c: int(((ds.labels_noisy != ds.labels_true)
                       & (ds.labels_true == c)).sum()) for c in range(4)}
    assert report["per_class_corrupted"] == recount
    assert report["total_corrupted"] == sum(recount.values())


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
    assert sum(len(b) for b in batches) == stream.task_size(1) == 50
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
    path.write_text("f0,f1,label\n0.1,1.0,7\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path, num_classes=4)


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
