"""Client behaviors: benign local training and the three compromise strategies.

A compromised client first trains on trigger-poisoned data (blackbox).  It may
then scale its update so one submission can dominate an unweighted average
(model replacement) and finally project the result onto an L2 ball around the
received global model to stay inconspicuous (the projection always runs last,
once per round).  All variants produce structurally identical submissions.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import Dataset, PoisonSpec, poison
from .errors import DomainError
from .hashing import model_digest
from .seeds import derive_seed

__all__ = [
    "Attack",
    "AttackParams",
    "ClientProfile",
    "Submission",
    "local_round",
    "pgd_project",
    "model_replace",
]


class Attack(str, enum.Enum):
    NONE = "none"
    BLACKBOX = "blackbox"
    PGD = "pgd"
    PGD_MR = "pgd_mr"


# The attacks whose rounds end with a pgd projection, which needs ``AttackParams``.
PROJECTING_ATTACKS = (Attack.PGD, Attack.PGD_MR)


@dataclass(frozen=True)
class AttackParams:
    """Strategy constants: replacement scale ``gamma``, projection radius ``delta``."""

    gamma: float = 1.0
    delta: float = 1.0


@dataclass(frozen=True)
class ClientProfile:
    client_id: int
    data: Dataset
    attack: Attack = Attack.NONE
    poison_spec: PoisonSpec = None

    def __post_init__(self):
        object.__setattr__(self, "attack", Attack(self.attack))
        if self.attack is not Attack.NONE and self.poison_spec is None:
            raise DomainError("a compromised client needs a poison spec")

    @property
    def is_malicious(self) -> bool:
        return self.attack is not Attack.NONE

    @property
    def data_size(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class Submission:
    """What a client hands to the contract for one round."""

    client_id: int
    model: nn.ModelParams
    ug: nn.UltimateGradient
    data_size: int
    model_digest: str
    round_index: int

    def __post_init__(self):
        u, b = self.model.ultimate()
        if self.ug.du.shape != u.shape or self.ug.db.shape != b.shape:
            raise DomainError("reported gradient shapes do not match the model")
        if (self.ug.client_id, self.ug.round_index) != (self.client_id, self.round_index):
            raise DomainError("reported gradient belongs to another client or round")
        if self.data_size < 1:
            raise DomainError("data_size must be positive")
        if self.model_digest != model_digest(self.model):
            raise DomainError("digest does not match the model's canonical bytes")


def pgd_project(local: nn.ModelParams, global_model: nn.ModelParams, delta: float) -> nn.ModelParams:
    """Project ``local`` onto the L2 ball of radius ``delta`` around the global model."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    local.check_architecture(global_model)
    diff = nn.flatten(local) - nn.flatten(global_model)
    norm = float(np.linalg.norm(diff))
    if norm <= delta:
        return local
    scale = delta / norm
    return nn.lincomb([global_model, local], [1.0 - scale, scale])


def model_replace(local: nn.ModelParams, global_model: nn.ModelParams, gamma: float) -> nn.ModelParams:
    """Return ``global + gamma * (local - global)``."""
    if gamma < 0:
        raise DomainError("gamma must be nonnegative")
    return nn.lincomb([global_model, local], [1.0 - gamma, gamma])


def local_round(
    profile: ClientProfile,
    global_model: nn.ModelParams,
    cfg: nn.TrainConfig,
    round_index: int,
    attack_params: AttackParams = None,
) -> Submission:
    """One client round: train locally, apply the attack transform, package up.

    The reported ultimate gradient covers the whole local round relative to
    the received global model, which is the only gradient the verification
    protocol ever transmits.  A ``pgd`` or ``pgd_mr`` client needs ``attack_params``.
    """
    projecting = profile.attack in PROJECTING_ATTACKS
    if projecting and attack_params is None:
        raise DomainError(f"a {profile.attack.value} client needs attack_params")
    train = profile.data
    if profile.is_malicious:
        train, _ = poison(profile.data, profile.poison_spec, derive_seed(cfg.seed, "poison"))
    model = nn.sgd_train(global_model, train.x, train.y, cfg)
    if projecting:
        if profile.attack is Attack.PGD_MR:
            model = model_replace(model, global_model, attack_params.gamma)
        model = pgd_project(model, global_model, attack_params.delta)
    if cfg.learning_rate > 0:
        ug = nn.extract_ultimate_gradient(
            global_model, model, cfg.learning_rate,
            client_id=profile.client_id, round_index=round_index,
        )
    else:
        u, b = global_model.ultimate()
        ug = nn.UltimateGradient(
            np.zeros_like(u), np.zeros_like(b),
            client_id=profile.client_id, round_index=round_index,
        )
    return Submission(
        client_id=profile.client_id,
        model=model,
        ug=ug,
        data_size=profile.data_size,
        model_digest=model_digest(model),
        round_index=round_index,
    )
