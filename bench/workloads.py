"""The benchmark's workloads, driven through trustfed's public calls.

Each workload is one iteration of a closed loop with a single caller.  It
returns the operations it performed as ``Op`` records; timing brackets only
the trustfed call itself.  ``size="smoke"`` shrinks every workload to a few
rounds (or trials) so the benchmark's own check runs in seconds.
"""

from dataclasses import dataclass, field
from pathlib import Path
import time

ROOT = Path(__file__).resolve().parent.parent
DESK_CFG = ROOT / "demos" / "desk_run.cfg"

ATTACKS = ("none", "blackbox", "pgd", "pgd_mr")
SWEEP_ROUNDS = 30
PLAN_M = 30
PLAN_TRIALS = 20000

# Smoke runs keep every code path but few rounds and a short warm start.
SMOKE = {"rounds": 2, "warm_start_epochs": 2}
SMOKE_TRIALS = 500

DESK_SHAPE = dict(n_clients=40, queue_size=10, verify_set_size=10, n_verifiers=5,
                  verify_subset_size=4, attacker_ratio=0.25, poison_rate=0.33,
                  non_iid_degree=0.5, verifier_policy="caav")
SCALE_SHAPE = dict(n_clients=200, queue_size=50, verify_set_size=50, n_verifiers=10,
                   verify_subset_size=20, rounds=100, attacker_ratio=0.25, poison_rate=0.33,
                   non_iid_degree=0.5, verifier_policy="caav", attack="blackbox",
                   defense_enabled=True)


@dataclass
class Op:
    """One timed trustfed call and what it returned."""

    name: str
    kind: str          # "run", "emit" or "report"
    seconds: float
    result: object
    extra: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def _sim(harness, name, cfg, size):
    if size == "smoke":
        for key, value in SMOKE.items():
            setattr(cfg, key, value)
    result, seconds = _timed(harness.run, cfg)
    return Op(name, "run", seconds, result)


def desk_run(seed, size, scratch):
    """``trustfed run --config demos/desk_run.cfg --seed <seed>``, emit included."""
    from trustfed import harness
    cfg = harness.SimConfig.from_file(DESK_CFG)
    cfg.seed = seed
    run = _sim(harness, "desk", cfg, size)
    paths, seconds = _timed(harness.emit, run.result, scratch)
    return [run, Op("desk.emit", "emit", seconds, paths, {"run": run.result})]


def attack_sweep(seed, size, scratch):
    """The evaluation grid: every attack, defended and undefended, one seed."""
    from trustfed import harness
    ops = []
    for attack in ATTACKS:
        for defended in (True, False):
            cfg = harness.SimConfig(**DESK_SHAPE, rounds=SWEEP_ROUNDS, attack=attack,
                                    defense_enabled=defended, seed=seed)
            ops.append(_sim(harness, f"{attack}.{'on' if defended else 'off'}", cfg, size))
    return ops


def federation_scale(seed, size, scratch):
    """200 clients, queue 50, 10 verifiers of 20 clients each."""
    from trustfed import harness
    return [_sim(harness, "scale", harness.SimConfig(**SCALE_SHAPE, seed=seed), size)]


def plan_coverage(seed, size, scratch):
    """``trustfed plan --M 30 --L 7`` and ``trustfed plan --M 30 --V 15``."""
    from trustfed import planner
    trials = SMOKE_TRIALS if size == "smoke" else PLAN_TRIALS
    by_subset, s1 = _timed(planner.coverage_report, PLAN_M, subset_size=7, trials=trials, seed=seed)
    by_count, s2 = _timed(planner.coverage_report, PLAN_M, v=15, trials=trials, seed=seed)
    return [Op("plan.L7", "report", s1, by_subset), Op("plan.V15", "report", s2, by_count)]


WORKLOADS = {
    "desk_run": desk_run,
    "attack_sweep": attack_sweep,
    "federation_scale": federation_scale,
    "plan_coverage": plan_coverage,
}

# Operations per iteration, so a crashed repetition still counts as attempted.
OPS_PER_ITERATION = {"desk_run": 2, "attack_sweep": 8, "federation_scale": 1, "plan_coverage": 2}
