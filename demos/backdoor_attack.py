"""Demonstrates the backdoor attack and the trust-weighted defense end to end.

Runs the same desk-scale federation three times: clean, attacked without the
defense, and attacked with the defense, then prints the accuracy story.
Takes about ten seconds.
"""

import numpy as np

from trustfed.harness import SimConfig, run

ROUNDS = 60
SEED = 6

print("== clean run (no attackers, plain size-weighted averaging)")
clean = run(SimConfig(rounds=ROUNDS, attacker_ratio=0.0, defense_enabled=False, seed=SEED))
print(f"   final main-task accuracy {clean.metrics[-1].ma:.3f}, "
      f"trigger-following rate {clean.metrics[-1].ba:.3f}")

print("== attacked run, defense off (a quarter of clients poison their data)")
undefended = run(SimConfig(rounds=ROUNDS, attacker_ratio=0.25, attack="blackbox",
                           defense_enabled=False, seed=SEED))
for m in undefended.metrics[::12]:
    print(f"   round {m.round_index:3d}: ma={m.ma:.3f} ba={m.ba:.3f}")
print(f"   the backdoor takes hold: final ba={undefended.metrics[-1].ba:.3f}")

print("== attacked run, defense on (verifier scores weight the aggregation)")
defended = run(SimConfig(rounds=ROUNDS, attacker_ratio=0.25, attack="blackbox",
                         defense_enabled=True, seed=SEED))
for m in defended.metrics[::12]:
    tpr = "-" if m.tpr is None else f"{m.tpr:.2f}"
    print(f"   round {m.round_index:3d}: ma={m.ma:.3f} ba={m.ba:.3f} tpr={tpr}")

attackers = set(defended.summary["attackers"])
trust = defended.trust
att_trust = np.mean([trust.trust(c) for c in attackers])
ben_trust = np.mean([trust.trust(c) for c in range(40) if c not in attackers])
print(f"   final ba={defended.metrics[-1].ba:.3f}; "
      f"mean trust: attackers {att_trust:.2f} vs benign {ben_trust:.2f}")
print("   compromised clients end up aggregated with near-zero weight.")
