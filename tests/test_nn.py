import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trustfed import nn
from trustfed.errors import DomainError, NumericalError, ShapeError
from trustfed.hashing import blob_digest, model_digest


def single_layer(u, b):
    return nn.ModelParams((nn.Layer(np.asarray(u, float), np.asarray(b, float)),))


def random_model(rng, dims):
    layers = []
    for out_dim, in_dim in zip(dims[1:], dims[:-1]):
        layers.append(nn.Layer(rng.standard_normal((out_dim, in_dim)),
                               rng.standard_normal(out_dim)))
    return nn.ModelParams(tuple(layers))


def perturbed(model, k, which, idx, eps):
    """Copy of ``model`` with one parameter entry shifted by ``eps``."""
    layers = []
    for i, layer in enumerate(model.layers):
        w = layer.weights.copy()
        b = layer.bias.copy()
        if i == k:
            if which == "w":
                w[idx] += eps
            else:
                b[idx] += eps
        layers.append(nn.Layer(w, b))
    return nn.ModelParams(tuple(layers))


def fd_gradients(model, x, y, step=1e-5):
    """Central finite differences of the mean cross-entropy, per parameter."""
    grads = []
    for k, layer in enumerate(model.layers):
        gw = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            up = nn.loss(perturbed(model, k, "w", idx, step), x, y)
            down = nn.loss(perturbed(model, k, "w", idx, -step), x, y)
            gw[idx] = (up - down) / (2 * step)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.bias.shape):
            up = nn.loss(perturbed(model, k, "b", idx, step), x, y)
            down = nn.loss(perturbed(model, k, "b", idx, -step), x, y)
            gb[idx] = (up - down) / (2 * step)
        grads.append((gw, gb))
    return grads


class TestForward:
    def test_zero_model_is_uniform(self):
        model = single_layer(np.zeros((4, 3)), np.zeros(4))
        probs = nn.forward(model, np.array([0.3, -1.0, 2.0]))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_log2_bias_splits_two_thirds(self):
        model = single_layer(np.zeros((2, 3)), np.array([math.log(2.0), 0.0]))
        probs = nn.forward(model, np.ones(3))
        assert np.allclose(probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_matches_naive_reimplementation(self):
        # Independent straight-line forward pass as the oracle.
        rng = np.random.default_rng(11)
        model = random_model(rng, [6, 5, 3])
        x = rng.standard_normal(6)
        h = x.copy()
        for layer in model.layers[:-1]:
            h = np.maximum(layer.weights @ h + layer.bias, 0.0)
        z = model.layers[-1].weights @ h + model.layers[-1].bias
        expect = np.exp(z - z.max())
        expect /= expect.sum()
        assert np.allclose(nn.forward(model, x), expect, atol=1e-12)

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model = random_model(rng, [4, 7, 5])
            probs = nn.forward(model, 3.0 * rng.standard_normal(4))
            assert probs.min() >= 0.0
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        model = single_layer(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            nn.forward(model, np.zeros(4))


class TestLoss:
    def test_uniform_prediction_is_log_classes(self):
        model = single_layer(np.zeros((4, 2)), np.zeros(4))
        x = np.random.default_rng(0).standard_normal((7, 2))
        y = np.array([0, 1, 2, 3, 0, 1, 2])
        assert nn.loss(model, x, y) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_certain_prediction_is_zero(self):
        model = single_layer(np.zeros((2, 2)), np.array([1000.0, 0.0]))
        assert nn.loss(model, np.zeros((1, 2)), np.array([0])) == 0.0

    def test_is_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, [3, 4, 2])
        x = rng.standard_normal((10, 3))
        y = rng.integers(0, 2, size=10)
        singles = [nn.loss(model, x[i : i + 1], y[i : i + 1]) for i in range(10)]
        assert nn.loss(model, x, y) == pytest.approx(np.mean(singles), rel=1e-12)

    def test_empty_dataset_rejected(self):
        model = single_layer(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(DomainError):
            nn.loss(model, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestSgdTrain:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, [4, 6, 3])
        cfg = nn.TrainConfig(learning_rate=0.0, local_epochs=3, batch_size=4, seed=1)
        out = nn.sgd_train(model, rng.standard_normal((9, 4)), rng.integers(0, 3, 9), cfg)
        for a, b in zip(out.layers, model.layers):
            assert (a.weights == b.weights).all()
            assert (a.bias == b.bias).all()

    def test_single_full_batch_step_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, [4, 3, 2])
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, size=6)
        lr = 0.05
        cfg = nn.TrainConfig(learning_rate=lr, local_epochs=1, batch_size=100, seed=0)
        out = nn.sgd_train(model, x, y, cfg)
        fd = fd_gradients(model, x, y)
        for (gw, gb), before, after in zip(fd, model.layers, out.layers):
            step_w = (before.weights - after.weights) / lr
            step_b = (before.bias - after.bias) / lr
            assert np.allclose(step_w, gw, rtol=1e-4, atol=1e-7)
            assert np.allclose(step_b, gb, rtol=1e-4, atol=1e-7)

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, [5, 8, 3])
        x = rng.standard_normal((30, 5))
        y = rng.integers(0, 3, size=30)
        cfg = nn.TrainConfig(learning_rate=0.1, local_epochs=2, batch_size=8, seed=42)
        a = nn.sgd_train(model, x, y, cfg)
        b = nn.sgd_train(model, x, y, cfg)
        assert nn.to_bytes(a) == nn.to_bytes(b)

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(13)
        n = 60
        y = np.repeat([0, 1], n // 2)
        x = np.where(y[:, None] == 0, -2.0, 2.0) + rng.standard_normal((n, 3))
        model = random_model(np.random.default_rng(1), [3, 6, 2])
        cfg = nn.TrainConfig(learning_rate=0.1, local_epochs=3, batch_size=16, seed=7)
        trained = nn.sgd_train(model, x, y, cfg)
        assert nn.loss(trained, x, y) < nn.loss(model, x, y)

    def test_divergence_raises_numerical_error(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, [3, 4, 2])
        x = 10.0 * rng.standard_normal((8, 3))
        y = rng.integers(0, 2, size=8)
        cfg = nn.TrainConfig(learning_rate=1e200, local_epochs=3, batch_size=8, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                nn.sgd_train(model, x, y, cfg)


class TestGradients:
    def test_backprop_matches_finite_differences_many_probes(self):
        rng = np.random.default_rng(77)
        probes = 0
        for _ in range(10):
            dims = [int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 4))]
            model = random_model(rng, dims)
            x = rng.standard_normal((5, dims[0]))
            y = rng.integers(0, dims[-1], size=5)
            analytic = nn.gradients(model, x, y)
            fd = fd_gradients(model, x, y)
            for g, (gw, gb) in zip(analytic, fd):
                scale_w = np.maximum(np.abs(gw), 1e-3)
                scale_b = np.maximum(np.abs(gb), 1e-3)
                assert (np.abs(g.weights - gw) / scale_w).max() < 1e-4
                assert (np.abs(g.bias - gb) / scale_b).max() < 1e-4
                probes += gw.size + gb.size
        assert probes >= 50


class TestBatchAndLabels:
    """Each labelled entry point takes one exact integer label in range per row
    and refuses anything else, rather than wrapping, truncating or dropping."""

    ENTRIES = {
        "sgd_train": lambda m, x, y: nn.sgd_train(m, x, y, nn.TrainConfig(0.1, 2, 4, seed=0)),
        "gradients": nn.gradients,
        "loss": nn.loss,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("rows, labels", [
        (3, [0, -1, 1]),          # would wrap to the last class
        (3, [0, 2, 1]),           # equal to the class count
        (6, [0, 1, 1]),           # more rows than labels: the extra rows were dropped
        (2, [0, 1, 1]),           # fewer rows than labels
        (3, [0.5, 1.5, 1.0]),     # would truncate to [0, 1, 1]
    ], ids=["negative", "class-count", "more-rows", "fewer-rows", "non-integer"])
    def test_bad_labels_rejected(self, entry, rows, labels):
        model = random_model(np.random.default_rng(4), [3, 4, 2])
        x = np.random.default_rng(5).standard_normal((rows, 3))
        with pytest.raises(DomainError):
            self.ENTRIES[entry](model, x, np.array(labels))

    def test_exact_float_labels_read_as_integers(self):
        model = random_model(np.random.default_rng(6), [3, 4, 2])
        x = np.random.default_rng(7).standard_normal((5, 3))
        y = np.array([0, 1, 1, 0, 1])
        train = self.ENTRIES["sgd_train"]
        assert nn.to_bytes(train(model, x, y.astype(float))) == nn.to_bytes(train(model, x, y))

    @pytest.mark.parametrize("entry", sorted(ENTRIES) + ["forward_batch"])
    def test_empty_batch_rejected(self, entry):
        model = single_layer(np.zeros((2, 3)), np.zeros(2))
        call = self.ENTRIES.get(entry, lambda m, x, y: nn.forward_batch(m, x))
        with pytest.raises(DomainError):
            call(model, np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_forward_takes_one_vector(self):
        model = single_layer(np.zeros((2, 3)), np.zeros(2))
        for x in (np.zeros((1, 3)), np.float64(0.0), np.zeros(2)):
            with pytest.raises(ShapeError):
                nn.forward(model, x)


class TestUltimateGradient:
    def test_hand_example(self):
        before = single_layer([[1.0]], [0.0])
        after = single_layer([[0.9]], [0.0])
        g = nn.extract_ultimate_gradient(before, after, 0.1)
        assert np.allclose(g.du, [[1.0]], atol=1e-12)

    def test_no_change_gives_zero(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, [3, 4, 2])
        g = nn.extract_ultimate_gradient(model, model, 0.3)
        assert (g.du == 0).all() and (g.db == 0).all()

    def test_reconstruction_inverts_extraction(self):
        rng = np.random.default_rng(15)
        before = random_model(rng, [4, 5, 3])
        after = random_model(rng, [4, 5, 3])
        lr = 0.05
        g = nn.extract_ultimate_gradient(before, after, lr)
        u0, b0 = before.ultimate()
        u1, b1 = after.ultimate()
        assert np.allclose(u0 - lr * g.du, u1, atol=1e-12)
        assert np.allclose(b0 - lr * g.db, b1, atol=1e-12)

    def test_single_step_extraction_equals_analytic_gradient(self):
        # One full-batch step moves the ultimate layer by exactly -lr times
        # the analytic gradient, so extraction must recover it to roundoff.
        rng = np.random.default_rng(44)
        model = random_model(rng, [5, 6, 3])
        x = rng.standard_normal((12, 5))
        y = rng.integers(0, 3, size=12)
        lr = 0.07
        cfg = nn.TrainConfig(learning_rate=lr, local_epochs=1, batch_size=100, seed=0)
        after = nn.sgd_train(model, x, y, cfg)
        extracted = nn.extract_ultimate_gradient(model, after, lr)
        analytic = nn.gradients(model, x, y)[-1]
        assert np.allclose(extracted.du, analytic.weights, atol=1e-12)
        assert np.allclose(extracted.db, analytic.bias, atol=1e-12)

    def test_architecture_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeError):
            nn.extract_ultimate_gradient(
                random_model(rng, [3, 4, 2]), random_model(rng, [3, 5, 2]), 0.1)

    def test_zero_learning_rate_rejected(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, [3, 4, 2])
        with pytest.raises(DomainError):
            nn.extract_ultimate_gradient(model, model, 0.0)


class TestByClassGradient:
    def test_hand_example(self):
        g = nn.UltimateGradient(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                np.array([5.0, 6.0]), 0, 0)
        assert np.allclose(nn.by_class_gradient(g), [3.0, 7.0, 5.0, 6.0])

    def test_zero_gradient(self):
        g = nn.UltimateGradient(np.zeros((3, 4)), np.zeros(3), 0, 0)
        assert (nn.by_class_gradient(g) == 0).all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(30)
        du = rng.standard_normal((3, 5))
        db = rng.standard_normal(3)
        g = nn.UltimateGradient(du, db, 0, 0)
        expect = np.zeros(6)
        for i in range(3):
            for j in range(5):
                expect[i] += du[i, j]
        for i in range(3):
            expect[3 + i] = db[i]
        assert np.allclose(nn.by_class_gradient(g), expect, atol=1e-15)


def reference_to_bytes(model):
    """The canonical serialization, written out independently of ``nn``."""
    out = [struct.pack("<I", len(model.layers))]
    for layer in model.layers:
        out.append(struct.pack("<II", layer.out_dim, layer.in_dim))
    for layer in model.layers:
        out.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        out.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    return b"".join(out)


def reference_lincomb(models, coeffs):
    """sum(c_i * m_i), accumulated layer by layer from zeros, written out independently of ``nn``."""
    layers = []
    for k in range(len(models[0].layers)):
        w = np.zeros_like(models[0].layers[k].weights)
        b = np.zeros_like(models[0].layers[k].bias)
        for c, m in zip(coeffs, models):
            w += c * m.layers[k].weights
            b += c * m.layers[k].bias
        layers.append(nn.Layer(w, b))
    return nn.ModelParams(tuple(layers))


# Finite float64 values, with the ones a byte format can get wrong drawn often.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072e-308, 1e300, -1e300,
               1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
# Weights as aggregation and the attacks use them, so most combinations stay finite.
COEFFS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]), st.floats(-1.0, 1.0))
DIMS = st.lists(st.integers(1, 5), min_size=2, max_size=4)


@st.composite
def models(draw, dims=DIMS):
    dims = draw(dims)
    layers = []
    for out_dim, in_dim in zip(dims[1:], dims[:-1]):
        w = draw(st.lists(FLOATS, min_size=out_dim * in_dim, max_size=out_dim * in_dim))
        b = draw(st.lists(FLOATS, min_size=out_dim, max_size=out_dim))
        layers.append(nn.Layer(np.array(w).reshape(out_dim, in_dim), np.array(b)))
    return nn.ModelParams(tuple(layers))


class TestSerialization:
    def test_bytes_are_kept_on_the_model(self):
        model = random_model(np.random.default_rng(23), [6, 4, 3])
        assert nn.to_bytes(model) is nn.to_bytes(model)
        assert nn.to_bytes(model) == reference_to_bytes(model)
        assert model_digest(model) is model_digest(model)

    @settings(deadline=None)
    @given(models())
    def test_roundtrip_gives_back_the_same_bytes(self, model):
        blob = nn.to_bytes(model)
        assert blob == reference_to_bytes(model)
        assert nn.to_bytes(nn.from_bytes(blob)) == blob

    @settings(deadline=None)
    @given(models())
    def test_digest_hashes_the_reference_bytes(self, model):
        assert model_digest(model) == blob_digest(reference_to_bytes(model))

    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(19)
        model = random_model(rng, [6, 4, 3])
        again = nn.from_bytes(nn.to_bytes(model))
        assert nn.to_bytes(again) == nn.to_bytes(model)
        for a, b in zip(model.layers, again.layers):
            assert (a.weights == b.weights).all()
            assert (a.bias == b.bias).all()

    def test_header_layout(self):
        model = single_layer(np.ones((2, 3)), np.zeros(2))
        blob = nn.to_bytes(model)
        assert blob[:4] == (1).to_bytes(4, "little")
        assert blob[4:8] == (2).to_bytes(4, "little")
        assert blob[8:12] == (3).to_bytes(4, "little")
        assert len(blob) == 12 + 8 * (6 + 2)

    def test_truncated_blob_rejected(self):
        model = single_layer(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            nn.from_bytes(nn.to_bytes(model)[:-4])

    @pytest.mark.parametrize("extra", [b"\x00" * 8, b"\x00" * 3], ids=["one-float", "part-float"])
    def test_trailing_bytes_rejected(self, extra):
        model = single_layer(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ShapeError):
            nn.from_bytes(nn.to_bytes(model) + extra)

    @pytest.mark.parametrize("header", [
        struct.pack("<3I", 1, 2, 3),                # one layer too few
        struct.pack("<7I", 3, 4, 6, 3, 4, 2, 3),    # one layer too many
        struct.pack("<5I", 2, 4, 6, 3, 5),          # wrong in-dim of the second layer
        struct.pack("<5I", 2, 5, 6, 3, 4),          # wrong out-dim of the first layer
        struct.pack("<5I", 2, 3, 4, 4, 6),          # same parameter count, dims do not chain
        struct.pack("<I", 0),                       # no layers
        struct.pack("<I", 2**32 - 1),               # more layers than the blob has header
    ], ids=["fewer-layers", "more-layers", "in-dim", "out-dim", "unchained", "zero-layers",
            "huge-count"])
    def test_header_disagreeing_with_payload_rejected(self, header):
        model = random_model(np.random.default_rng(5), [6, 4, 3])
        payload = nn.to_bytes(model)[4 + 8 * len(model.layers):]
        with pytest.raises(ShapeError):
            nn.from_bytes(header + payload)

    @pytest.mark.parametrize("blob", [b"", b"\x01\x00"], ids=["empty", "short-count"])
    def test_blob_without_a_header_rejected(self, blob):
        with pytest.raises(ShapeError):
            nn.from_bytes(blob)


class TestLincomb:
    @settings(deadline=None)
    @given(DIMS, st.integers(1, 4), st.data())
    def test_matches_the_per_layer_loop_bit_for_bit(self, dims, k, data):
        terms = [data.draw(models(st.just(dims))) for _ in range(k)]
        coeffs = data.draw(st.lists(COEFFS, min_size=k, max_size=k))

        def outcome(combine):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return nn.to_bytes(combine(terms, coeffs))
            except NumericalError:
                return "non-finite"

        assert outcome(nn.lincomb) == outcome(reference_lincomb)

    def test_signed_zero_terms_add_up_as_from_zeros(self):
        model = single_layer(np.array([[-0.0, 1.0]]), np.array([-0.0]))
        out = nn.lincomb([model], [1.0])
        assert nn.to_bytes(out) == nn.to_bytes(reference_lincomb([model], [1.0]))
        assert not np.signbit(out.layers[0].weights[0, 0])

    @pytest.mark.parametrize("n_models, n_coeffs", [(0, 0), (2, 1), (1, 2)])
    def test_models_and_coefficients_must_match(self, n_models, n_coeffs):
        model = single_layer(np.ones((2, 2)), np.ones(2))
        with pytest.raises(DomainError, match="matching nonempty models and coefficients"):
            nn.lincomb([model] * n_models, [1.0] * n_coeffs)


class TestModelParams:
    def test_needs_a_layer(self):
        with pytest.raises(ShapeError, match="at least one layer"):
            nn.ModelParams(())

    @pytest.mark.parametrize("weights", [np.zeros(3), np.zeros((3, 2, 1))], ids=["vector", "3-d"])
    def test_layer_weights_must_be_a_matrix(self, weights):
        with pytest.raises(ShapeError, match="weight matrix and a bias vector"):
            nn.Layer(weights, np.zeros(3))

    def test_layer_bias_must_match_the_output_rows(self):
        with pytest.raises(ShapeError, match="bias length 2 does not match 3 output rows"):
            nn.Layer(np.zeros((3, 2)), np.zeros(2))

    def test_dimension_chain_enforced(self):
        with pytest.raises(ShapeError):
            nn.ModelParams((nn.Layer(np.zeros((3, 2)), np.zeros(3)),
                            nn.Layer(np.zeros((2, 4)), np.zeros(2))))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericalError):
            nn.Layer(np.array([[np.inf]]), np.zeros(1))

    def test_parameters_are_immutable(self):
        model = single_layer(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            model.layers[0].weights[0, 0] = 1.0


class TestImmutableArrays:
    """Layer arrays sit in immutable ``bytes``: numpy refuses to make them
    writable again, so a model's kept bytes and digest cannot go stale."""

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.integers(0, 2**32 - 1))
    def test_no_public_constructor_returns_a_writable_array(self, dims, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, dims)
        x = rng.standard_normal((6, dims[0]))
        y = rng.integers(0, dims[-1], 6)
        trained = nn.sgd_train(model, x, y, nn.TrainConfig(0.1, 1, 4, seed))
        built = [
            model,
            trained,
            nn.init_mlp(dims[0], dims[1], dims[-1], seed),
            nn.lincomb([model, trained], [0.5, 0.5]),
            nn.from_bytes(nn.to_bytes(model)),
            nn.ModelParams(tuple(nn.gradients(model, x, y))),
        ]
        arrays = [arr for m in built for layer in m.layers for arr in (layer.weights, layer.bias)]
        ug = nn.extract_ultimate_gradient(model, trained, 0.1, client_id=3, round_index=1)
        direct = nn.UltimateGradient(rng.standard_normal((dims[-1], dims[-2])),
                                     rng.standard_normal(dims[-1]), 3, 1)
        arrays += [ug.du, ug.db, direct.du, direct.db]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_layer_keeps_its_own_copy_of_a_writable_input(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        layer = nn.Layer(w, b)
        w[0, 0] = 9.0
        b[1] = 9.0
        assert (layer.weights == 1.0).all() and (layer.bias == 0.0).all()


def reference_flatten(model):
    """Every parameter in ``_views`` order, concatenated independently of ``nn``."""
    return np.concatenate([np.ravel(arr) for layer in model.layers
                           for arr in (layer.weights, layer.bias)])


def models_by_source(seed, dims=(4, 5, 3)):
    """One model from each way of building one, keyed by the builder's name."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, list(dims))
    x = rng.standard_normal((9, dims[0]))
    y = rng.integers(0, dims[-1], 9)
    trained = nn.sgd_train(model, x, y, nn.TrainConfig(0.1, 2, 4, seed))
    return {
        "init_mlp": nn.init_mlp(dims[0], dims[1], dims[-1], seed),
        "constructor": model,
        "sgd_train": trained,
        "lincomb": nn.lincomb([model, trained], [0.25, 0.75]),
        "from_bytes": nn.from_bytes(nn.to_bytes(trained)),
        "gradients": nn.ModelParams(tuple(nn.gradients(model, x, y))),
    }


INTERNAL = ("sgd_train", "lincomb", "from_bytes")


def buffer_of(arr):
    """The object at the end of an array's ``base`` chain."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr


class TestOneVector:
    """A model's parameters are one read-only vector: ``flatten`` returns it
    as kept, and internally built layers are views into it."""

    @pytest.mark.parametrize("source", sorted(models_by_source(0)))
    def test_flatten_is_the_kept_read_only_vector(self, source):
        model = models_by_source(41)[source]
        flat = nn.flatten(model)
        assert flat is nn.flatten(model)
        assert flat.dtype == np.float64 and flat.ndim == 1
        assert same_bits(flat, reference_flatten(model))
        assert not flat.flags.writeable
        with pytest.raises(ValueError):
            flat.flags.writeable = True

    @pytest.mark.parametrize("source", INTERNAL)
    def test_internal_layers_are_views_into_the_vector(self, source):
        model = models_by_source(42)[source]
        flat = nn.flatten(model)
        for layer in model.layers:
            assert np.shares_memory(layer.weights, flat) and np.shares_memory(layer.bias, flat)
            assert buffer_of(layer.weights) is buffer_of(layer.bias) is buffer_of(flat)

    def test_gradient_layers_share_one_frozen_vector(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, [4, 5, 3])
        grads = nn.gradients(model, rng.standard_normal((7, 4)), rng.integers(0, 3, 7))
        buffers = {id(buffer_of(arr)) for layer in grads for arr in (layer.weights, layer.bias)}
        assert len(buffers) == 1 and isinstance(buffer_of(grads[0].weights), bytes)

    @settings(deadline=None)
    @given(models())
    def test_public_and_parsed_vectors_match_the_reference(self, model):
        for m in (model, nn.from_bytes(nn.to_bytes(model))):
            assert nn.flatten(m) is nn.flatten(m)
            assert same_bits(nn.flatten(m), reference_flatten(model))

    @pytest.mark.parametrize("source", ["constructor", "sgd_train"])
    def test_sgd_train_leaves_its_input_unchanged(self, source):
        model = models_by_source(44)[source]
        before, blob, digest = nn.flatten(model).copy(), nn.to_bytes(model), model_digest(model)
        rng = np.random.default_rng(45)
        nn.sgd_train(model, rng.standard_normal((8, 4)), rng.integers(0, 3, 8),
                     nn.TrainConfig(0.5, 3, 3, 7))
        assert same_bits(nn.flatten(model), before)
        assert nn.to_bytes(model) == blob == reference_to_bytes(model)
        assert model_digest(model) == blob_digest(blob)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_from_bytes_rejects_a_non_finite_parameter_anywhere(self, bad):
        model = random_model(np.random.default_rng(46), [3, 2, 2])
        blob = nn.to_bytes(model)
        header = 4 + 8 * len(model.layers)
        for k in range(nn.flatten(model).size):
            at = header + 8 * k
            poisoned = blob[:at] + struct.pack("<d", bad) + blob[at + 8:]
            with pytest.raises(NumericalError):
                nn.from_bytes(poisoned)


# Reference kernels: the straightforward out-of-place forms the in-place
# training path must reproduce bit for bit.

def ref_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_forward(weights, biases, x):
    acts = [x]
    h = x
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T + b
        if k < len(weights) - 1:
            h = np.maximum(z, 0.0)
            acts.append(h)
    return acts, ref_softmax(z)


def ref_grads(weights, biases, x, y):
    acts, delta = ref_forward(weights, biases, x)
    n = y.size
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad_w = [None] * len(weights)
    grad_b = [None] * len(weights)
    for k in range(len(weights) - 1, -1, -1):
        grad_w[k] = delta.T @ acts[k]
        grad_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ weights[k]) * (acts[k] > 0.0)
    return grad_w, grad_b


def ref_sgd(model, x, y, cfg):
    """Per-layer mini-batch SGD: ``w -= lr * g`` after every batch."""
    rng = np.random.default_rng(cfg.seed)
    weights = [layer.weights.copy() for layer in model.layers]
    biases = [layer.bias.copy() for layer in model.layers]
    n = y.size
    step = min(cfg.batch_size, n)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, step):
            batch = order[start : start + step]
            grad_w, grad_b = ref_grads(weights, biases, x[batch], y[batch])
            for k in range(len(weights)):
                weights[k] -= cfg.learning_rate * grad_w[k]
                biases[k] -= cfg.learning_rate * grad_b[k]
    return weights, biases


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelsMatchReference:
    @pytest.mark.parametrize("classes", range(1, 13))
    @pytest.mark.parametrize("rows", [1, 7, 64, 200, 1000])
    def test_softmax_bit_equal(self, classes, rows):
        rng = np.random.default_rng(1000 * classes + rows)
        z = 4.0 * rng.standard_normal((rows, classes))
        z[::3] += 700.0                       # near overflow
        z[1::5] -= 700.0                      # near underflow
        z[2::4] = rng.standard_normal()       # all logits of a row equal
        expect = ref_softmax(z)
        work = z.copy()
        out = nn._softmax(work)
        assert out is work
        assert same_bits(out, expect)

    def test_forward_and_gradients_bit_equal(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, [6, 9, 7, 4])
        x = rng.standard_normal((37, 6))
        y = rng.integers(0, 4, size=37)
        weights, biases = nn._raw(model)
        assert same_bits(nn.forward_batch(model, x), ref_forward(weights, biases, x)[1])
        grad_w, grad_b = ref_grads(weights, biases, x, y)
        for layer, w, b in zip(nn.gradients(model, x, y), grad_w, grad_b):
            assert same_bits(layer.weights, w) and same_bits(layer.bias, b)

    @pytest.mark.parametrize("dims, n, lr, epochs, batch", [
        ([20, 32, 5], 200, 0.01, 1, 200),      # one full-batch step (a desk client round)
        ([20, 32, 5], 130, 0.1, 4, 64),        # several epochs, partial last batch
        ([5, 8, 3], 30, 0.05, 3, 100),         # batch larger than n
        ([4, 6, 3], 9, 0.0, 3, 4),             # learning_rate = 0
        ([3, 2], 11, 0.3, 2, 5),               # one layer, two classes
    ])
    def test_sgd_train_bit_equal(self, dims, n, lr, epochs, batch):
        rng = np.random.default_rng(n + len(dims))
        model = random_model(rng, dims)
        x = rng.standard_normal((n, dims[0]))
        y = rng.integers(0, dims[-1], size=n)
        cfg = nn.TrainConfig(learning_rate=lr, local_epochs=epochs, batch_size=batch, seed=17)
        weights, biases = ref_sgd(model, x, y, cfg)
        out = nn.sgd_train(model, x, y, cfg)
        for layer, w, b in zip(out.layers, weights, biases):
            assert same_bits(layer.weights, w) and same_bits(layer.bias, b)

    def test_sgd_train_hand_built_three_layers(self):
        layers = (
            nn.Layer(np.array([[1.0, -0.5], [0.25, 0.75], [-1.0, 0.5]]), np.array([0.1, 0.0, -0.2])),
            nn.Layer(np.array([[0.5, -0.25, 1.0], [-0.75, 0.5, 0.25]]), np.array([0.0, 0.3])),
            nn.Layer(np.array([[1.0, -1.0], [0.5, 0.5], [-0.25, 1.5]]), np.array([0.0, 0.0, 0.1])),
        )
        model = nn.ModelParams(layers)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((23, 2))
        y = rng.integers(0, 3, size=23)
        cfg = nn.TrainConfig(learning_rate=0.3, local_epochs=5, batch_size=6, seed=2)
        weights, biases = ref_sgd(model, x, y, cfg)
        out = nn.sgd_train(model, x, y, cfg)
        for layer, w, b in zip(out.layers, weights, biases):
            assert same_bits(layer.weights, w) and same_bits(layer.bias, b)
