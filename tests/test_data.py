import collections

import numpy as np
import pytest

from trustfed import data, nn
from trustfed.errors import DomainError


def row_counter(dataset):
    counter = collections.Counter()
    for i in range(len(dataset)):
        counter[(dataset.x[i].tobytes(), int(dataset.y[i]))] += 1
    return counter


class TestGenDataset:
    def test_zero_samples_rejected(self):
        with pytest.raises(DomainError):
            data.gen_dataset(0, 2, 4, seed=0)

    def test_labels_balanced(self):
        ds = data.gen_dataset(100, 2, 4, seed=1)
        counts = np.bincount(ds.y, minlength=2)
        assert counts.tolist() == [50, 50]

    def test_unbalanced_remainder_within_one(self):
        ds = data.gen_dataset(101, 4, 6, seed=2)
        counts = np.bincount(ds.y, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_centrally_trained_model_reaches_90_percent(self):
        # Oracle: the generated task must be learnable by the package's own
        # trainer, otherwise downstream accuracy metrics are meaningless.
        train = data.gen_dataset(2000, 4, 10, seed=3)
        holdout = data.gen_dataset(500, 4, 10, seed=4)
        model = nn.init_mlp(10, 16, 4, seed=5)
        cfg = nn.TrainConfig(learning_rate=0.1, local_epochs=5, batch_size=32, seed=6)
        trained = nn.sgd_train(model, train.x, train.y, cfg)
        probs = nn.forward_batch(trained, holdout.x)
        accuracy = (probs.argmax(axis=1) == holdout.y).mean()
        assert accuracy >= 0.90

    def test_needs_enough_dimensions(self):
        with pytest.raises(DomainError):
            data.gen_dataset(10, 5, 3, seed=0)


def reference_gen_dataset(n, n_classes, n_features, seed, separation):
    """The generator as first written: gather a class mean per row and add the draws."""
    rng = np.random.default_rng(seed)
    counts = [n // n_classes + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    y = np.repeat(np.arange(n_classes), counts)
    y = y[rng.permutation(n)]
    means = np.zeros((n_classes, n_features))
    means[np.arange(n_classes), np.arange(n_classes)] = separation
    return means[y] + rng.standard_normal((n, n_features)), y


class TestGeneratorMatchesReference:
    @pytest.mark.parametrize("n, n_classes, n_features, separation, seed", [
        (103, 4, 4, 5.0, 0),
        (250, 3, 11, 4.0, 7),
        (64, 5, 20, 0.0, 3),
        (77, 2, 9, -2.5, 11),
        (40, 6, 6, -0.0, 5),
        (1, 1, 3, 5.0, 2),
    ])
    def test_same_bytes_as_the_reference(self, n, n_classes, n_features, separation, seed):
        ds = data.gen_dataset(n, n_classes, n_features, seed, separation)
        x, y = reference_gen_dataset(n, n_classes, n_features, seed, separation)
        assert ds.x.tobytes() == x.tobytes()
        assert ds.y.tobytes() == y.astype(np.int64).tobytes()

    # Draws of +-0.0 are too rare to meet in a seeded run, so feed crafted
    # ones through gen_dataset: a -0.0 off the class column reads +0.0, as 0.0 + z does.
    @pytest.mark.parametrize("separation", [3.0, 0.0, -0.0, -1.5])
    def test_signed_zeros_match_the_reference(self, monkeypatch, separation):
        z = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, -0.0, 1.0], [2.0, -0.0, 0.0]])

        class CraftedRng:
            def __init__(self, seed):
                pass

            def permutation(self, n):
                return np.arange(n)

            def standard_normal(self, shape):
                assert shape == z.shape
                return z.copy()

        monkeypatch.setattr(np.random, "default_rng", CraftedRng)
        ds = data.gen_dataset(4, 2, 3, 0, separation)
        x, y = reference_gen_dataset(4, 2, 3, 0, separation)
        assert ds.y.tolist() == y.tolist() == [0, 0, 1, 1]
        assert ds.x.tobytes() == x.tobytes() != z.tobytes()


class TestDatasetArrays:
    def test_arrays_cannot_be_made_writable(self):
        # Memoized datasets are shared across runs, so no holder may change them.
        ds = data.gen_dataset(30, 3, 4, seed=2)
        for arr in (ds.x, ds.y, ds.subset([0, 2]).x, ds.subset([0, 2]).y):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_arrays_are_converted_to_float64_and_int64(self):
        ds = data.Dataset(np.ones((3, 2), dtype=np.float32), np.array([0, 1, 1], dtype=np.int32), 2)
        assert (ds.x.dtype, ds.y.dtype) == (np.float64, np.int64)
        assert (ds.x == 1.0).all() and ds.y.tolist() == [0, 1, 1]
        assert not (ds.x.flags.writeable or ds.y.flags.writeable)

    def test_non_integer_labels_rejected(self):
        # A cast would have read [0.7, 1.2, 1.9] as [0, 1, 1].
        with pytest.raises(DomainError):
            data.Dataset(np.ones((3, 2)), [0.7, 1.2, 1.9], 2)

    def test_exact_float_labels_become_int64(self):
        ds = data.Dataset(np.ones((3, 2)), [0.0, 1.0, 1.0], 2)
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("labels", [[0, 2, 1], [0, -1, 1], [0, 1], [[0, 1, 1]], [0, np.nan, 1]])
    def test_labels_must_be_one_per_row_and_in_range(self, labels):
        with pytest.raises(DomainError):
            data.Dataset(np.ones((3, 2)), labels, 2)

    @pytest.mark.parametrize("x", [np.ones(3), np.ones((3, 2, 1))], ids=["vector", "3-d"])
    def test_features_must_be_a_matrix(self, x):
        with pytest.raises(DomainError, match="features must be an"):
            data.Dataset(x, [0, 1, 1], 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            data.Dataset(np.array([[1.0, bad], [0.0, 1.0]]), [0, 1], 2)


class TestPartition:
    def test_iid_histogram_roughly_uniform(self):
        ds = data.gen_dataset(15000, 5, 6, seed=7)
        spec = data.PartitionSpec(10, 0.0, 1000, seed=8)
        parts = data.partition_non_iid(ds, spec)
        for part in parts:
            counts = np.bincount(part.y, minlength=5)
            # Bin(1000, 1/5) has sigma ~ 12.6; allow ~5 sigma.
            assert np.abs(counts - 200).max() < 65

    def test_full_heterogeneity_single_class(self):
        ds = data.gen_dataset(4000, 4, 5, seed=9)
        spec = data.PartitionSpec(4, 1.0, 500, seed=10)
        parts = data.partition_non_iid(ds, spec)
        for client, part in enumerate(parts):
            assert (part.y == client % 4).all()

    def test_dominant_fraction_matches_mixture_expectation(self):
        # phi + (1 - phi) / n_classes = 0.5 + 0.5 / 5 = 0.6
        ds = data.gen_dataset(16000, 5, 6, seed=11)
        spec = data.PartitionSpec(10, 0.5, 1000, seed=12)
        parts = data.partition_non_iid(ds, spec)
        for client, part in enumerate(parts):
            frac = (part.y == client % 5).mean()
            assert abs(frac - 0.6) <= 0.05

    def test_insufficient_data_rejected(self):
        ds = data.gen_dataset(100, 2, 3, seed=13)
        with pytest.raises(DomainError):
            data.partition_non_iid(ds, data.PartitionSpec(3, 0.0, 50, seed=0))

    def test_exhausted_class_rejected(self):
        # Enough rows in all, but client 0 draws its dominant class 0 twice
        # (phi = 1) and the data hold one row of it.
        ds = data.Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 1, 1], 2)
        with pytest.raises(DomainError, match="class 0 exhausted while partitioning"):
            data.partition_non_iid(ds, data.PartitionSpec(2, 1.0, 2, seed=0))

    def test_is_multiset_partition_of_input(self):
        ds = data.gen_dataset(3000, 3, 4, seed=14)
        spec = data.PartitionSpec(5, 0.3, 400, seed=15)
        parts = data.partition_non_iid(ds, spec)
        available = row_counter(ds)
        drawn = collections.Counter()
        for part in parts:
            drawn.update(row_counter(part))
        for key, count in drawn.items():
            assert count <= available[key]

    def test_seed_reproducibility(self):
        ds = data.gen_dataset(3000, 3, 4, seed=16)
        spec = data.PartitionSpec(5, 0.4, 300, seed=17)
        a = data.partition_non_iid(ds, spec)
        b = data.partition_non_iid(ds, spec)
        for pa, pb in zip(a, b):
            assert (pa.x == pb.x).all() and (pa.y == pb.y).all()


def reference_partition_non_iid(data_set, spec):
    """partition_non_iid as first written: each class's shuffled rows kept as a
    list of numpy scalars and popped from its end."""
    need = spec.n_clients * spec.per_client_size
    if len(data_set) < need:
        raise DomainError(f"need at least {need} samples, got {len(data_set)}")
    rng = np.random.default_rng(spec.seed)
    pools = []
    for c in range(data_set.n_classes):
        idx = np.flatnonzero(data_set.y == c)
        pools.append(list(idx[rng.permutation(idx.size)]))
    parts = []
    for client in range(spec.n_clients):
        chosen = []
        for _ in range(spec.per_client_size):
            if spec.non_iid_degree > 0.0 and rng.random() < spec.non_iid_degree:
                c = client % data_set.n_classes
            else:
                c = int(rng.integers(data_set.n_classes))
            if not pools[c]:
                raise DomainError(f"class {c} exhausted while partitioning")
            chosen.append(pools[c].pop())
        parts.append(data_set.subset(np.array(chosen, dtype=np.int64)))
    return parts


class TestPartitionMatchesReference:
    # Tight pools, so that most cases run a class dry part way through, each
    # at its own draw; the last two fill every client.
    @pytest.mark.parametrize("n, n_classes, n_clients, per_client, phi, seed, exhausted", [
        (60, 3, 4, 15, 1.0, 1, 0),
        (60, 3, 4, 15, 0.0, 3, 0),
        (120, 3, 6, 20, 0.4, 0, 2),
        (120, 3, 6, 20, 0.4, 2, 1),
        (101, 4, 5, 20, 0.9, 6, 0),
        (120, 3, 6, 20, 0.4, 9, None),
        (300, 5, 6, 40, 0.3, 7, None),
    ])
    def test_same_parts_or_the_same_failing_draw(self, per_sample_draws, n, n_classes, n_clients,
                                                 per_client, phi, seed, exhausted):
        ds = data.gen_dataset(n, n_classes, n_classes + 1, seed)
        spec = data.PartitionSpec(n_clients, phi, per_client, seed + 100)

        def raw(_, spec):   # the generator's own arrays, as harness._synthetic_data cuts them
            x, y = data._gen_arrays(n, n_classes, n_classes + 1, seed, data.DEFAULT_SEPARATION)
            return data._partition(x, y, n_classes, spec)

        outcomes = []
        for partition in (reference_partition_non_iid, data.partition_non_iid, raw):
            start = per_sample_draws[0]
            try:
                parts = partition(ds, spec)
            except DomainError as exc:
                outcomes.append((str(exc), per_sample_draws[0] - start))
            else:
                outcomes.append([(p.x.tobytes(), p.y.tobytes(), p.n_classes) for p in parts])
        assert outcomes[0] == outcomes[1] == outcomes[2]
        if exhausted is None:
            assert len(outcomes[0]) == n_clients
        else:
            assert outcomes[0][0] == f"class {exhausted} exhausted while partitioning"

    def test_pool_size_rule_is_the_partitioners(self):
        spec = data.PartitionSpec(3, 0.0, 50, seed=0)
        spec.check_pool_size(150)
        with pytest.raises(DomainError, match="need at least 150 samples, got 149"):
            spec.check_pool_size(149)
        with pytest.raises(DomainError, match="need at least 150 samples, got 149"):
            data.partition_non_iid(data.gen_dataset(149, 2, 3, seed=0), spec)


class TestPoison:
    def spec(self, pdr, edge_case=False):
        return data.PoisonSpec(target_class=0, trigger_coords=(1, 2),
                               trigger_value=5.0, pdr=pdr, edge_case=edge_case)

    def test_zero_rate_is_identity(self):
        ds = data.gen_dataset(50, 3, 4, seed=18)
        out, flags = data.poison(ds, self.spec(0.0), seed=19)
        assert not flags.any()
        assert (out.x == ds.x).all() and (out.y == ds.y).all()

    def test_full_rate_poisons_everything(self):
        ds = data.gen_dataset(40, 3, 4, seed=20)
        out, flags = data.poison(ds, self.spec(1.0), seed=21)
        assert flags.all()
        assert (out.y == 0).all()
        assert (out.x[:, [1, 2]] == 5.0).all()

    def test_exact_count_at_one_third(self):
        ds = data.gen_dataset(100, 4, 5, seed=22)
        _, flags = data.poison(ds, self.spec(0.33), seed=23)
        assert flags.sum() == 33

    def test_count_rounds_up(self):
        ds = data.gen_dataset(10, 2, 3, seed=24)
        _, flags = data.poison(ds, self.spec(0.25), seed=25)
        assert flags.sum() == 3  # ceil(2.5)

    def test_unflagged_rows_bit_exact(self):
        ds = data.gen_dataset(200, 4, 6, seed=26)
        out, flags = data.poison(ds, self.spec(0.4), seed=27)
        clean = ~flags
        assert (out.x[clean] == ds.x[clean]).all()
        assert (out.y[clean] == ds.y[clean]).all()

    def test_seeded_reproducibility(self):
        ds = data.gen_dataset(80, 3, 5, seed=28)
        out1, flags1 = data.poison(ds, self.spec(0.5), seed=29)
        out2, flags2 = data.poison(ds, self.spec(0.5), seed=29)
        assert (flags1 == flags2).all()
        assert (out1.x == out2.x).all()

    def test_edge_case_prefers_tail_samples(self):
        ds = data.gen_dataset(600, 2, 4, seed=30)
        out_edge, flags_edge = data.poison(ds, self.spec(0.05, edge_case=True), seed=31)
        dist = np.empty(len(ds))
        for c in range(2):
            members = ds.y == c
            mu = ds.x[members].mean(axis=0)
            dist[members] = np.linalg.norm(ds.x[members] - mu, axis=1)
        assert dist[flags_edge].mean() > dist.mean()
        assert flags_edge.sum() == 30

    def test_edge_case_draws_only_from_a_large_enough_tail(self):
        ds = data.gen_dataset(600, 2, 4, seed=30)
        tail = data._edge_candidates(ds)
        _, flags = data.poison(ds, self.spec(0.02, edge_case=True), seed=31)
        assert tail.size >= 12
        assert flags.sum() == 12  # ceil(0.02 * 600)
        assert set(np.flatnonzero(flags)) <= set(tail)

    # A class absent from the data has no tail; nothing takes a mean of no rows.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edge_case_skips_a_class_absent_from_the_data(self):
        two = data.gen_dataset(300, 2, 4, seed=34)
        three = data.Dataset(two.x, two.y, 3)
        _, flags = data.poison(three, self.spec(0.05, edge_case=True), seed=35)
        _, expected = data.poison(two, self.spec(0.05, edge_case=True), seed=35)
        assert (flags == expected).all() and flags.sum() == 15


class TestTriggeredTestset:
    def spec(self):
        return data.PoisonSpec(target_class=1, trigger_coords=(0,),
                               trigger_value=9.0, pdr=1.0)

    def test_empty_input(self):
        ds = data.Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        assert len(data.triggered_testset(ds, self.spec())) == 0

    def test_out_of_range_trigger_rejected_on_empty_input(self):
        ds = data.Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DomainError, match="trigger coordinate"):
            data.triggered_testset(ds, data.PoisonSpec(0, (5,)))

    def test_all_target_class_gives_empty(self):
        ds = data.Dataset(np.ones((5, 3)), np.ones(5, dtype=int), 2)
        assert len(data.triggered_testset(ds, self.spec())) == 0

    def test_counts_and_relabeling(self):
        ds = data.gen_dataset(90, 3, 4, seed=32)
        out = data.triggered_testset(ds, self.spec())
        assert len(out) == int((ds.y != 1).sum())
        assert (out.y == 1).all()
        assert (out.x[:, 0] == 9.0).all()


class TestCsv:
    def test_roundtrip(self, tmp_path):
        ds = data.gen_dataset(30, 3, 4, seed=33)
        path = tmp_path / "samples.csv"
        rows = np.column_stack([ds.x, ds.y])
        np.savetxt(path, rows, delimiter=",")
        loaded = data.load_csv(path)
        assert loaded.n_classes == 3
        assert np.allclose(loaded.x, ds.x)
        assert (loaded.y == ds.y).all()

    # Near-integers are not labels: a cast would truncate 2.9999999 to class 2
    # and -0.9999999 to class 0.  Past 2**53 a float64 is no exact integer.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("label", ["2.9999999", "-0.9999999", "inf", "nan", "1e20"])
    def test_labels_must_be_exact_integers(self, tmp_path, label):
        path = tmp_path / "near.csv"
        path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(DomainError, match="exact integers"):
            data.load_csv(path, n_classes=4)

    # With n_classes unset, the class count comes from the labels; a label that
    # int() cannot read exactly must still end in the label rule's DomainError.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e20", "2.5"])
    def test_inferred_class_count_refuses_inexact_labels(self, tmp_path, label):
        path = tmp_path / "near.csv"
        path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(DomainError, match="exact integers"):
            data.load_csv(path)

    # An inferred class count above the row count is refused before anything
    # loops over the classes (1e15 would give 10**15 of them).
    @pytest.mark.parametrize("label", ["11", "1e15"])
    def test_inferred_class_count_above_the_row_count_is_refused(self, tmp_path, label):
        path = tmp_path / "wide.csv"
        path.write_text("".join(f"{i}.0,{i}.5,{i % 2}\n" for i in range(10)) + f"10.0,10.5,{label}\n")
        with pytest.raises(DomainError, match="classes but the CSV has 11 rows"):
            data.load_csv(path)

    def test_exact_float_labels_load_with_inferred_class_count(self, tmp_path):
        path = tmp_path / "floats.csv"
        path.write_text("1.0,2.0,0.0\n3.0,4.0,2.0\n5.0,6.0,1.0\n")
        loaded = data.load_csv(path)
        assert loaded.n_classes == 3 and loaded.y.dtype == np.int64
        assert loaded.y.tolist() == [0, 2, 1]

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0.5\n")
        with pytest.raises(DomainError):
            data.load_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "labels_only.csv"
        path.write_text("0\n1\n1\n")
        with pytest.raises(DomainError, match="at least one feature column and a label column"):
            data.load_csv(path)
