"""Experiment orchestration: configuration, round loop, metrics, emission.

One logical round serializes the asynchronous protocol as: sample clients,
collect local submissions, verify the queued clients, apply trust updates,
aggregate, evaluate.  Every random choice draws from its own labeled sub-seed
of the master seed, so two runs with the same configuration are bit-identical
(apart from wall-clock timings) and paired runs that differ in one knob keep
all other randomness aligned.
"""

import csv
import functools
import json
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import defense, ledger, nn
from .clients import (PROJECTING_ATTACKS, Attack, AttackParams, ClientProfile, calibrated_delta, check_delta,
                      local_round)
from .data import (Dataset, PartitionSpec, PoisonSpec, _gen_arrays, _partition, check_generator_shape,
                   gen_dataset, load_csv, triggered_testset)
from .errors import ConfigError, DegenerateAggregationError, DomainError, NumericalError
from .seeds import derive_seed

_TEST_FRACTION = 0.2   # holdout share of a CSV data set

__all__ = [
    "SimConfig",
    "RoundMetrics",
    "RunResult",
    "run",
    "eval_ma",
    "eval_ba",
    "eval_detection",
    "emit",
]


@dataclass
class SimConfig:
    """Everything a simulation run needs; defaults are the desk-scale setup."""

    n_clients: int = 40
    queue_size: int = 10          # submissions per aggregation
    verify_set_size: int = 10     # clients verified per round
    n_verifiers: int = 5
    verify_subset_size: int = 4   # clients per verifier
    rounds: int = 100
    attacker_ratio: float = 0.0
    non_iid_degree: float = 0.5
    poison_rate: float = 0.33
    attack: str = "none"
    verifier_policy: str = "open"
    bad_verifier_fraction: float = 0.0
    bad_verifier_mode: str = "reverse"
    defense_enabled: bool = True
    learning_rate: float = 0.01
    local_epochs: int = 1
    batch_size: int = 200
    hidden_width: int = 32
    n_classes: int = 5
    n_features: int = 20
    per_client_size: int = 200
    test_size: int = 1000
    trigger_coords: tuple = (1, 2, 3)
    trigger_value: float = 5.0
    target_class: int = 0
    edge_case: bool = False
    pgd_delta: float = None       # default: 0.8 * median benign warm-up norm
    data_csv: str = None
    pool_factor: float = 1.6      # synthetic pool size margin for partitioning
    data_separation: float = 5.0
    warm_start_size: int = 2000   # held-out samples to pre-train the initial model (0 = raw init)
    warm_start_epochs: int = 120
    verify_lag: int = 0           # delay trust updates by this many rounds
    force_unit_scores: bool = False
    seed: int = 1

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (_fits(f.type, value) or value is None and f.default is None):
                raise ConfigError(f"{f.name}: {value!r} is not a valid {f.type.__name__}")
        if self.queue_size > self.n_clients:
            raise ConfigError("queue_size cannot exceed n_clients")
        if self.verify_subset_size > self.verify_set_size:
            raise ConfigError("verify_subset_size cannot exceed verify_set_size")
        if self.defense_enabled and self.verify_set_size != self.queue_size:
            raise ConfigError(
                "simulation runs verify exactly the queued clients; "
                "set verify_set_size equal to queue_size"
            )
        if not 0.0 <= self.attacker_ratio <= 1.0:
            raise ConfigError("attacker_ratio must lie in [0, 1]")
        if not 0.0 <= self.bad_verifier_fraction <= 1.0:
            raise ConfigError("bad_verifier_fraction must lie in [0, 1]")
        if self.bad_verifier_fraction == 1.0 and _attacker_count(self) < self.n_clients:
            # Outsiders can only dilute honest clients, never replace them.
            raise ConfigError(
                "bad_verifier_fraction = 1 needs every client compromised (attacker_ratio = 1)"
            )
        for name, known in (("attack", [a.value for a in Attack]), ("verifier_policy", ledger.VERIFIER_POLICIES),
                            ("bad_verifier_mode", defense.CORRUPTION_MODES)):
            if getattr(self, name) not in known:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; expected one of {', '.join(known)}")
        if (self.attack in PROJECTING_ATTACKS and self.pgd_delta is None
                and _attacker_count(self) == self.n_clients):   # _measure_pgd_delta trains benign clients
            raise ConfigError("cannot calibrate pgd_delta without benign clients")
        if self.rounds < 1:
            raise ConfigError("rounds must be positive")
        if self.verify_lag < 0:
            raise ConfigError("verify_lag must be nonnegative")
        if self.warm_start_size < 0:
            raise ConfigError("warm_start_size must be nonnegative")
        _specs(self)
        if _warm_start_size(self):
            try:
                _warm_train_config(self.seed, self.warm_start_epochs)
            except DomainError as exc:
                raise ConfigError(f"warm_start_epochs: the warm start's {exc}") from exc
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        """Parse a flat ``key = value`` file (# starts a comment); ``validate`` checks the values."""
        known = {f.name: f for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8", errors="replace").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: key {key!r} is set twice")
            values[key] = _parse_value(known[key], text)
        return cls(**values)


def _parse_value(f, text: str):
    """``text`` read as field ``f``'s annotated type; "" or "none" unsets optional fields only."""
    if f.default is None and text.lower() in ("", "none"):
        return None
    words = {"on": True, "true": True, "yes": True, "off": False, "false": False, "no": False}
    try:
        return (tuple(map(int, text.split(","))) if f.type is tuple
                else words[text.lower()] if f.type is bool else f.type(text))
    except (KeyError, ValueError):
        return text  # ``validate`` rejects it, naming the field


def _fits(kind, value) -> bool:
    """Whether ``value`` passes as ``kind``; numpy integers pass as ints, ints in float range as floats."""
    if kind is tuple:
        return isinstance(value, tuple) and all(_fits(int, c) for c in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Integral if kind is int else kind)


def _specs(cfg: SimConfig):
    """The run's ``PoisonSpec`` (fitted to synthetic data), a client's ``nn.TrainConfig`` (seed 0, its rate
    passing ``nn.check_gradient_rate`` too) and the ``PartitionSpec``, each checked by its owner, as are a
    defended run's subset size (``defense.check_task_size``) and a pgd or pgd_mr run's given ``pgd_delta``
    (``clients.check_delta``); an owner's ``DomainError`` is a ``ConfigError``."""
    try:
        poison_spec = PoisonSpec(cfg.target_class, cfg.trigger_coords, cfg.trigger_value,
                                 cfg.poison_rate, cfg.edge_case)
        if cfg.data_csv is None:
            poison_spec.check_fits(cfg.n_features, cfg.n_classes)
        train_cfg = nn.TrainConfig(cfg.learning_rate, cfg.local_epochs, cfg.batch_size)
        nn.check_gradient_rate(cfg.learning_rate)   # after TrainConfig, whose message a negative rate gets
        if cfg.defense_enabled:
            defense.check_task_size(cfg.verify_subset_size)
        if cfg.attack in PROJECTING_ATTACKS and cfg.pgd_delta is not None:
            check_delta(cfg.pgd_delta)
        return (poison_spec, train_cfg,
                PartitionSpec(cfg.n_clients, cfg.non_iid_degree, cfg.per_client_size,
                              derive_seed(cfg.seed, "partition")))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    ma: float
    ba: float
    tpr: float          # None when the queue held no attacker
    tnr: float          # None when the queue held no benign client
    wall_time: float


@dataclass
class RunResult:
    config: SimConfig
    metrics: list
    summary: dict
    final_model: nn.ModelParams
    state: ledger.ContractState
    trust: ledger.TrustLedger


def eval_ma(model: nn.ModelParams, test: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    probs = nn.forward_batch(model, test.x)
    return float((probs.argmax(axis=1) == test.y).mean())


def eval_ba(model: nn.ModelParams, triggered: Dataset, target_class: int) -> float:
    """Fraction of triggered samples predicted as the attacker's target."""
    _check_triggered(triggered)
    probs = nn.forward_batch(model, triggered.x)
    return float((probs.argmax(axis=1) == target_class).mean())


def _check_triggered(triggered: Dataset):
    if len(triggered) == 0:
        raise DomainError("empty triggered test set: every test sample is of the target class")


def eval_detection(queue_client_ids, trust_ledger: ledger.TrustLedger, attacker_ids):
    """(TPR, TNR) over the round's queue, flagging trust strictly below ``ledger.TRUST_THRESHOLD``."""
    if not queue_client_ids:
        raise DomainError("empty queue")
    attackers = set(attacker_ids)
    flagged = {cid for cid in queue_client_ids if trust_ledger.trust(cid) < ledger.TRUST_THRESHOLD}
    queue_attackers = [cid for cid in queue_client_ids if cid in attackers]
    queue_benign = [cid for cid in queue_client_ids if cid not in attackers]
    tpr = None
    tnr = None
    if queue_attackers:
        tpr = sum(1 for cid in queue_attackers if cid in flagged) / len(queue_attackers)
    if queue_benign:
        tnr = sum(1 for cid in queue_benign if cid not in flagged) / len(queue_benign)
    return tpr, tnr


def _load_csv_data(cfg: SimConfig, partition: PartitionSpec):
    """Client partitions and test set from ``cfg.data_csv``, read afresh every run."""
    full = load_csv(cfg.data_csv)
    rng = np.random.default_rng(derive_seed(cfg.seed, "csv_split"))
    order = rng.permutation(len(full))
    n_test = max(1, int(round(_TEST_FRACTION * len(full))))
    train = order[n_test:]
    return tuple(_partition(full.x[train], full.y[train], full.n_classes, partition)), full.subset(order[:n_test])


def _pool_size(pool_factor, n_clients, per_client_size) -> int:
    """Rows of the synthetic pool the client partitions are cut from."""
    return int(math.ceil(pool_factor * n_clients * per_client_size))


@functools.lru_cache(maxsize=4)
def _synthetic_data(master, n_clients, non_iid_degree, per_client_size, pool_factor,
                    n_classes, n_features, data_separation, test_size):
    """Seeded client partitions and test set, memoized per process.

    Returns ``(parts, test)``: a tuple of per-client ``Dataset``s and the test
    ``Dataset``, all immutable, so runs in one process (an attack sweep at
    one seed) share them.  The partitions are cut from the generator's own
    arrays, which are neither frozen nor kept; each partition is frozen and
    validated as a ``Dataset``.  Bit for bit ``partition_non_iid`` of
    ``gen_dataset``'s pool.
    """
    pool_x, pool_y = _gen_arrays(_pool_size(pool_factor, n_clients, per_client_size), n_classes,
                                 n_features, derive_seed(master, "trainpool"), data_separation)
    test = gen_dataset(test_size, n_classes, n_features,
                       derive_seed(master, "test"), data_separation)
    parts = _partition(pool_x, pool_y, n_classes, PartitionSpec(
        n_clients, non_iid_degree, per_client_size, derive_seed(master, "partition")))
    return tuple(parts), test


def _attacker_count(cfg: SimConfig) -> int:
    return int(round(cfg.attacker_ratio * cfg.n_clients))


def _pick_attackers(cfg: SimConfig):
    rng = np.random.default_rng(derive_seed(cfg.seed, "attackers"))
    return frozenset(int(c) for c in rng.choice(cfg.n_clients, size=_attacker_count(cfg), replace=False))


def _verifier_population(cfg: SimConfig, attackers):
    """Open verifier pool and its dishonest members.

    The adversary's clients always verify dishonestly.  When the configured
    dishonest fraction exceeds the attacker ratio, non-client outsider
    identities join the open pool to make up the difference; outsiders never
    submit models, so the client-as-a-verifier policy screens them out by
    construction.  When the fraction is below the attacker ratio, a seeded
    subset of the compromised clients misbehaves as verifiers.
    """
    p = cfg.bad_verifier_fraction
    clients = list(range(cfg.n_clients))
    if p == 0.0:
        return clients, frozenset()
    n_att = len(attackers)
    want = p * cfg.n_clients
    if want <= n_att:
        rng = np.random.default_rng(derive_seed(cfg.seed, "bad_verifiers"))
        count = max(1, int(round(want)))
        bad = rng.choice(sorted(attackers), size=count, replace=False)
        return clients, frozenset(int(c) for c in bad)
    # outsider count o solves (n_att + o) / (n_clients + o) = p; validate()
    # rejects p = 1 here, where no finite o does.
    outsiders = int(round((p * cfg.n_clients - n_att) / (1.0 - p)))
    outsider_ids = list(range(cfg.n_clients, cfg.n_clients + outsiders))
    return clients + outsider_ids, frozenset(attackers) | frozenset(outsider_ids)


def _measure_pgd_delta(cfg: SimConfig, train_cfg, profiles, global_model) -> float:
    """The pgd radius, ``clients.calibrated_delta`` of the benign update norms on a
    throwaway warm-up round."""
    norms = []
    base = nn.flatten(global_model)
    for profile in profiles:
        if profile.is_malicious:
            continue
        warm_cfg = replace(train_cfg, seed=derive_seed(cfg.seed, "warmup", profile.client_id))
        trained = nn.sgd_train(global_model, profile.data.x, profile.data.y, warm_cfg)
        norms.append(float(np.linalg.norm(nn.flatten(trained) - base)))
    return calibrated_delta(norms)


def _warm_start_size(cfg: SimConfig) -> int:
    """Samples the run's warm start trains on; 0 (no warm start) on CSV data."""
    return cfg.warm_start_size if cfg.data_csv is None else 0


def _warm_train_config(master, warm_start_epochs) -> nn.TrainConfig:
    return nn.TrainConfig(0.1, warm_start_epochs, 64, derive_seed(master, "warm_start_train"))


@functools.lru_cache(maxsize=32)
def _warm_start(master, n_features, hidden_width, n_classes, warm_start_size,
                warm_start_epochs, data_separation) -> nn.ModelParams:
    """A run's initial model, memoized per process: the seeded raw init, pre-trained
    on a held-out seeded set of ``warm_start_size`` samples unless that is 0.

    Starting near the main task's optimum makes clients report drift-scale
    gradients while a poisoned objective keeps producing large coordinated
    ones.  The result depends only on the arguments and ``ModelParams``
    arrays are immutable, so runs in one process can share it.
    """
    model = nn.init_mlp(n_features, hidden_width, n_classes, derive_seed(master, "init"))
    if warm_start_size == 0:
        return model
    x, y = _gen_arrays(warm_start_size, n_classes, n_features,
                       derive_seed(master, "warm_start"), data_separation)
    return nn.sgd_train(model, x, y, _warm_train_config(master, warm_start_epochs))


def run(cfg: SimConfig) -> RunResult:
    """Execute the configured number of rounds and collect per-round metrics.

    numpy raises on overflow and invalid values inside the run, so a
    diverging client stops it at the first overflow with ``NumericalError``.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _run(cfg)
    except FloatingPointError as exc:
        raise NumericalError(str(exc)) from exc


def _run(cfg: SimConfig) -> RunResult:
    cfg.validate()
    poison_spec, train_cfg, partition = _specs(cfg)
    ledger.check_queue_capacity(cfg.queue_size)   # the contract's rules, asked before any data
    if cfg.defense_enabled:
        ledger.check_verifier_count(cfg.n_verifiers)
    if cfg.data_csv is not None:
        parts, test = _load_csv_data(cfg, partition)
    else:
        # _synthetic_data's pool, test set and partition rules and the model's shape, asked before any data
        pool_size = _pool_size(cfg.pool_factor, cfg.n_clients, cfg.per_client_size)
        for n in (pool_size, cfg.test_size):
            check_generator_shape(n, cfg.n_classes, cfg.n_features)
        partition.check_pool_size(pool_size)
        nn.check_mlp_shape(cfg.n_features, cfg.hidden_width, cfg.n_classes)
        parts, test = _synthetic_data(cfg.seed, cfg.n_clients, cfg.non_iid_degree,
                                      cfg.per_client_size, cfg.pool_factor, cfg.n_classes,
                                      cfg.n_features, cfg.data_separation, cfg.test_size)
    attackers = _pick_attackers(cfg)
    verifier_pool, bad_verifiers = _verifier_population(cfg, attackers)
    profiles = []
    for cid in range(cfg.n_clients):
        if cid in attackers:
            profiles.append(ClientProfile(cid, parts[cid], cfg.attack, poison_spec))
        else:
            profiles.append(ClientProfile(cid, parts[cid]))
    triggered = triggered_testset(test, poison_spec)
    _check_triggered(triggered)   # before the warm start: backdoor accuracy needs a sample to trigger

    global_model = _warm_start(cfg.seed, test.n_features, cfg.hidden_width, test.n_classes,
                               _warm_start_size(cfg), cfg.warm_start_epochs, cfg.data_separation)
    store = ledger.OffchainStore()
    state = ledger.ContractState(cfg.queue_size, store.put(nn.to_bytes(global_model)))
    trust = ledger.TrustLedger()
    trust.register(range(cfg.n_clients))

    attack_params = None
    if cfg.attack in PROJECTING_ATTACKS and attackers:
        delta = (cfg.pgd_delta if cfg.pgd_delta is not None
                 else _measure_pgd_delta(cfg, train_cfg, profiles, global_model))
        attack_params = AttackParams(gamma=float(cfg.queue_size), delta=delta)

    metrics = []
    due = {}   # round -> the reports whose trust updates apply in it
    for t in range(1, cfg.rounds + 1):
        started = time.perf_counter()
        state.round_counter = t
        submissions = _local_rounds(cfg, train_cfg, t, profiles, global_model, attack_params, state, store)
        if cfg.defense_enabled:
            due[t + cfg.verify_lag] = _verify(cfg, t, submissions, global_model, state, trust,
                                              verifier_pool, bad_verifiers)
            for report in due.pop(t, ()):
                for cid in sorted(report.scores):
                    trust.update(cid, report.scores[cid])
        global_model = _aggregate(state, trust, store, global_model)
        ma = eval_ma(global_model, test)
        ba = eval_ba(global_model, triggered, cfg.target_class)
        tpr, tnr = eval_detection(list(submissions), trust, attackers)
        metrics.append(RoundMetrics(t, ma, ba, tpr, tnr, time.perf_counter() - started))

    final = metrics[-1]
    wall = [m.wall_time for m in metrics]
    summary = {
        "config": cfg.to_dict(),
        "rounds": cfg.rounds,
        "final_ma": final.ma,
        "final_ba": final.ba,
        "final_tpr": final.tpr,
        "final_tnr": final.tnr,
        "mean_round_time": float(np.mean(wall)),
        "seed": cfg.seed,
        "attackers": sorted(attackers),
        "bad_verifiers": sorted(bad_verifiers),
    }
    return RunResult(cfg, metrics, summary, global_model, state, trust)


def _local_rounds(cfg: SimConfig, train_cfg, t, profiles, global_model, attack_params, state, store) -> dict:
    """Round ``t``'s sampled clients train, store and submit; returns their submissions by id."""
    rng = np.random.default_rng(derive_seed(cfg.seed, "round", t, "sample"))
    sampled = sorted(int(c) for c in rng.choice(cfg.n_clients, size=cfg.queue_size, replace=False))
    submissions = {}
    for cid in sampled:
        client_cfg = replace(train_cfg, seed=derive_seed(cfg.seed, "round", t, "client", cid))
        sub = local_round(profiles[cid], global_model, client_cfg, t, attack_params)
        store.put(nn.to_bytes(sub.model))
        ledger.submit(state, store, sub)
        submissions[cid] = sub
    return submissions


def _verify(cfg: SimConfig, t, submissions, global_model, state, trust, verifier_pool, bad_verifiers) -> list:
    """Round ``t``'s score reports on the queued clients, forced or corrupted as configured."""
    mset = ledger.select_verification_set(state)
    verifiers = ledger.select_verifiers(state, trust, cfg.n_verifiers, cfg.verifier_policy,
                                        derive_seed(cfg.seed, "round", t, "verifiers"),
                                        open_pool=verifier_pool)
    assignment = defense.assign_clients_to_verifiers(
        mset, verifiers, cfg.verify_subset_size, derive_seed(cfg.seed, "round", t, "assign"))
    snapshot = trust.snapshot()
    reports = []
    for vid in sorted(assignment):
        task = defense.make_task(vid, [submissions[c] for c in assignment[vid]],
                                 global_model, cfg.learning_rate, snapshot, t)
        report = defense.verify(task)
        if cfg.force_unit_scores:
            report = defense.ScoreReport(vid, {c: 1.0 for c in report.scores}, t)
        elif vid in bad_verifiers:
            report = defense.corrupt_report(report, cfg.bad_verifier_mode,
                                            derive_seed(cfg.seed, "round", t, "corrupt", vid))
        state.log(ledger.SCORES_RECEIVED, client_id=vid)
        reports.append(report)
    return reports


def _aggregate(state, trust, store, global_model) -> nn.ModelParams:
    """The contract's new global model, or ``global_model`` when every weight is zero."""
    spent = {sub.model_digest for sub in state.queue}
    spent.add(state.global_model_digest)
    try:
        global_model = ledger.aggregate(state, trust, store)
    except DegenerateAggregationError:
        pass  # keep the previous global model
    # Nothing reads an aggregated queue's blobs or a replaced global model
    # again.  A submission may share the new global model's digest.
    store.discard(spent - {state.global_model_digest})
    return global_model


def emit(result: RunResult, out_dir) -> dict:
    """Write per-round metrics as CSV plus a JSON summary; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "metrics.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["round", "ma", "ba", "tpr", "tnr", "wall_time"])
        for m in result.metrics:
            writer.writerow([
                m.round_index,
                f"{m.ma:.10g}",
                f"{m.ba:.10g}",
                "" if m.tpr is None else f"{m.tpr:.10g}",
                "" if m.tnr is None else f"{m.tnr:.10g}",
                f"{m.wall_time:.6g}",
            ])
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(result.summary, indent=2, sort_keys=True, default=np.generic.item) + "\n")
    events_path = out / "events.jsonl"
    with events_path.open("w") as handle:   # one record at a time, never the whole log
        handle.writelines(ledger._event_line(ev) + "\n" for ev in result.state.events)
    return {"metrics": csv_path, "summary": summary_path, "events": events_path}

