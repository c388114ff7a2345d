"""Where the defense holds: one federation under two verifier shapes.

200 clients, a queue of 50, a quarter of them blackbox attackers and caav
verifiers; only V x L (verifiers x clients per verifier) changes.  At 25 x 4
the attackers lose trust and the benign clients keep it.  At 10 x 20 the
by-class filter suspects the benign side, and benign trust ends below
attacker trust (README, "Where the defense holds").  Which client anchors the
by-class split in round 1 is not visible through the public API; the defense
decision trace on the ROADMAP is to show it.  Takes about two seconds.
"""

import numpy as np

from trustfed import ledger
from trustfed.harness import SimConfig, run

SEED = 6
ROUNDS = 10
FEDERATION = dict(n_clients=200, queue_size=50, verify_set_size=50, rounds=ROUNDS,
                  attacker_ratio=0.25, poison_rate=0.33, non_iid_degree=0.5,
                  attack="blackbox", verifier_policy="caav", seed=SEED)


def share(value):
    return "-" if value is None else f"{value:.2f}"


for v, l in ((10, 20), (25, 4)):
    result = run(SimConfig(n_verifiers=v, verify_subset_size=l, **FEDERATION))
    attackers = set(result.summary["attackers"])
    trust = result.trust.snapshot()
    by_kind = {"attackers": [t for c, t in trust.items() if c in attackers],
               "benign": [t for c, t in trust.items() if c not in attackers]}
    print(f"== V x L = {v} x {l}, seed {SEED}")
    print("   round: TPR (queued attackers flagged)  TNR (queued benign clients kept)")
    for m in result.metrics:
        print(f"   {m.round_index:5d}: {share(m.tpr):>4}  {share(m.tnr):>4}")
    for kind, values in by_kind.items():
        eligible = sum(t > ledger.TRUST_THRESHOLD for t in values)
        print(f"   {kind}: mean trust {np.mean(values):.3f}, "
              f"{eligible} of {len(values)} still eligible to verify under caav")
