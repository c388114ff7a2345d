import numpy as np
import pytest

from trustfed import clients, data, nn
from trustfed.errors import DomainError, ShapeError
from trustfed.hashing import model_digest


def make_profile(seed, attack="none", pdr=0.3, n=80):
    ds = data.gen_dataset(n, 3, 6, seed=seed)
    spec = None
    if attack != "none":
        spec = data.PoisonSpec(target_class=0, trigger_coords=(4, 5),
                               trigger_value=5.0, pdr=pdr)
    return clients.ClientProfile(7, ds, attack, spec)


def small_global(seed=0):
    return nn.init_mlp(6, 8, 3, seed=seed)


class TestClientProfile:
    @pytest.mark.parametrize("attack", ["blackbox", "pgd", "pgd_mr"])
    def test_compromised_client_needs_a_poison_spec(self, attack):
        with pytest.raises(DomainError, match="needs a poison spec"):
            clients.ClientProfile(7, data.gen_dataset(20, 3, 6, seed=0), attack)


class TestLocalRound:
    def test_zero_learning_rate_is_refused(self):
        profile = make_profile(1)
        g = small_global()
        cfg = nn.TrainConfig(learning_rate=0.0, local_epochs=2, batch_size=16, seed=3)
        with pytest.raises(DomainError, match="learning_rate must be positive to extract a gradient"):
            clients.local_round(profile, g, cfg, round_index=1)

    def test_blackbox_with_zero_pdr_equals_benign(self):
        benign = make_profile(2)
        attacker = make_profile(2, attack="blackbox", pdr=0.0)
        g = small_global()
        cfg = nn.TrainConfig(learning_rate=0.05, local_epochs=1, batch_size=16, seed=4)
        sub_b = clients.local_round(benign, g, cfg, 1)
        sub_a = clients.local_round(attacker, g, cfg, 1)
        assert sub_a.model_digest == sub_b.model_digest

    def test_benign_training_reduces_local_loss(self):
        profile = make_profile(5, n=200)
        g = small_global(1)
        cfg = nn.TrainConfig(learning_rate=0.1, local_epochs=3, batch_size=32, seed=6)
        sub = clients.local_round(profile, g, cfg, 1)
        before = nn.loss(g, profile.data.x, profile.data.y)
        after = nn.loss(sub.model, profile.data.x, profile.data.y)
        assert after < before

    def test_submission_carries_round_gradient(self):
        profile = make_profile(8)
        g = small_global(2)
        lr = 0.05
        cfg = nn.TrainConfig(learning_rate=lr, local_epochs=2, batch_size=16, seed=9)
        sub = clients.local_round(profile, g, cfg, 3)
        u_global, b_global = g.ultimate()
        u_local, b_local = sub.model.ultimate()
        assert np.allclose(u_global - lr * sub.ug.du, u_local, atol=1e-12)
        assert np.allclose(b_global - lr * sub.ug.db, b_local, atol=1e-12)

    def test_attack_variants_produce_same_structure(self):
        g = small_global(3)
        cfg = nn.TrainConfig(learning_rate=0.05, local_epochs=1, batch_size=16, seed=10)
        params = clients.AttackParams(gamma=4.0, delta=1.0)
        subs = []
        for attack in ("none", "blackbox", "pgd", "pgd_mr"):
            profile = make_profile(11, attack=attack)
            subs.append(clients.local_round(profile, g, cfg, 1, params))
        shapes = {tuple(l.weights.shape for l in s.model.layers) for s in subs}
        assert len(shapes) == 1
        assert {s.ug.du.shape for s in subs} == {subs[0].ug.du.shape}

    def test_pgd_round_lands_inside_ball(self):
        g = small_global(4)
        cfg = nn.TrainConfig(learning_rate=0.2, local_epochs=4, batch_size=8, seed=12)
        delta = 0.5
        profile = make_profile(13, attack="pgd")
        sub = clients.local_round(profile, g, cfg, 1, clients.AttackParams(delta=delta))
        dist = np.linalg.norm(nn.flatten(sub.model) - nn.flatten(g))
        assert dist <= delta + 1e-9

    def test_replacement_runs_before_projection(self):
        # Projecting last caps the submission at delta even with a huge
        # replacement scale; the reverse order would blow far past the ball.
        g = small_global(20)
        cfg = nn.TrainConfig(learning_rate=0.2, local_epochs=2, batch_size=16, seed=21)
        delta = 0.4
        params = clients.AttackParams(gamma=50.0, delta=delta)
        profile = make_profile(22, attack="pgd_mr")
        sub = clients.local_round(profile, g, cfg, 1, params)
        dist = np.linalg.norm(nn.flatten(sub.model) - nn.flatten(g))
        assert dist <= delta + 1e-9

    @pytest.mark.parametrize("attack", ["pgd", "pgd_mr"])
    def test_projecting_attack_needs_its_parameters(self, attack):
        # Without them the attacker used to project silently with gamma = delta = 1.
        cfg = nn.TrainConfig(learning_rate=0.05, local_epochs=1, batch_size=16, seed=14)
        with pytest.raises(DomainError):
            clients.local_round(make_profile(15, attack=attack), small_global(5), cfg, 1)


class TestSubmissionInvariants:
    def test_mismatched_digest_rejected(self):
        g = small_global()
        zeros = nn.UltimateGradient(np.zeros_like(g.layers[-1].weights),
                                    np.zeros_like(g.layers[-1].bias), 0, 1)
        with pytest.raises(DomainError):
            clients.Submission(0, g, zeros, 10, "0" * 64, 1)

    def test_mismatched_gradient_shape_rejected(self):
        g = small_global()
        wrong = nn.UltimateGradient(np.zeros((2, 2)), np.zeros(2), 0, 1)
        with pytest.raises(DomainError):
            clients.Submission(0, g, wrong, 10, model_digest(g), 1)

    @pytest.mark.parametrize("client_id, round_index", [(3, 1), (0, 9)])
    def test_gradient_of_another_client_or_round_rejected(self, client_id, round_index):
        g = small_global()
        other = nn.UltimateGradient(np.zeros_like(g.layers[-1].weights),
                                    np.zeros_like(g.layers[-1].bias), client_id, round_index)
        with pytest.raises(DomainError):
            clients.Submission(0, g, other, 10, model_digest(g), 1)

    @pytest.mark.parametrize("data_size", [0, -3])
    def test_nonpositive_data_size_rejected(self, data_size):
        g = small_global()
        zeros = nn.UltimateGradient(np.zeros_like(g.layers[-1].weights),
                                    np.zeros_like(g.layers[-1].bias), 0, 1)
        with pytest.raises(DomainError, match="data_size must be positive"):
            clients.Submission(0, g, zeros, data_size, model_digest(g), 1)


class TestPgdProject:
    def test_identical_models_unchanged(self):
        g = small_global(5)
        out = clients.pgd_project(g, g, 0.7)
        assert nn.to_bytes(out) == nn.to_bytes(g)

    def test_inside_ball_returned_as_is(self):
        g = small_global(6)
        near = nn.lincomb([g, small_global(7)], [0.999, 0.001])
        dist = np.linalg.norm(nn.flatten(near) - nn.flatten(g))
        out = clients.pgd_project(near, g, dist * 2)
        assert nn.to_bytes(out) == nn.to_bytes(near)

    def test_projection_scales_to_exact_radius(self):
        g = small_global(8)
        other = small_global(9)
        dist = np.linalg.norm(nn.flatten(other) - nn.flatten(g))
        delta = dist / 2
        out = clients.pgd_project(other, g, delta)
        out_dist = np.linalg.norm(nn.flatten(out) - nn.flatten(g))
        assert abs(out_dist - delta) < 1e-9

    def test_idempotent(self):
        g = small_global(10)
        other = small_global(11)
        once = clients.pgd_project(other, g, 0.7)
        twice = clients.pgd_project(once, g, 0.7)
        assert np.allclose(nn.flatten(once), nn.flatten(twice), atol=1e-12)

    def test_always_within_radius(self):
        rng = np.random.default_rng(40)
        g = small_global(12)
        for k in range(20):
            other = small_global(100 + k)
            delta = float(rng.uniform(0.05, 3.0))
            out = clients.pgd_project(other, g, delta)
            assert np.linalg.norm(nn.flatten(out) - nn.flatten(g)) <= delta + 1e-9

    def test_nonpositive_radius_rejected(self):
        g = small_global(13)
        with pytest.raises(DomainError):
            clients.pgd_project(g, g, 0.0)

    # nn.ModelParams.check_architecture owns the rule, with its ShapeError.
    def test_different_architectures_raise_shape_error(self):
        with pytest.raises(ShapeError, match="models have different architectures"):
            clients.pgd_project(nn.init_mlp(6, 4, 3, seed=0), small_global(13), 1.0)


class TestModelReplace:
    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError, match="gamma must be nonnegative"):
            clients.model_replace(small_global(20), small_global(21), -1.0)

    def test_gamma_one_is_local(self):
        g, local = small_global(14), small_global(15)
        out = clients.model_replace(local, g, 1.0)
        assert np.allclose(nn.flatten(out), nn.flatten(local), atol=1e-12)

    def test_gamma_zero_is_global(self):
        g, local = small_global(16), small_global(17)
        out = clients.model_replace(local, g, 0.0)
        assert np.allclose(nn.flatten(out), nn.flatten(g), atol=1e-12)

    def test_queue_scale_dominates_plain_average(self):
        # With gamma = K and K - 1 peers submitting the global model, the
        # equal-weight average of the queue returns the attacker's local model.
        k = 5
        g, local = small_global(18), small_global(19)
        boosted = clients.model_replace(local, g, float(k))
        stack = [boosted] + [g] * (k - 1)
        avg = nn.lincomb(stack, [1.0 / k] * k)
        assert np.allclose(nn.flatten(avg), nn.flatten(local), atol=1e-9)
