"""Walks through one verification task filter by filter.

Builds a cohort of five benign clients plus two colluding poisoners around a
shared global model, then shows what each filter sees: the alignment scores,
the by-class summaries, the 2-means split, and the combined {0, 1/2, 1}
verdicts.
"""

import numpy as np

from trustfed import defense, nn
from trustfed.clients import ClientProfile, local_round
from trustfed.data import PoisonSpec, gen_dataset

LR = 0.05
N_BENIGN, N_BAD = 5, 2

global_model = nn.init_mlp(10, 16, 3, seed=0)
# settle the global model first so honest gradients are drift-scale
warm = gen_dataset(1500, 3, 10, seed=1)
global_model = nn.sgd_train(global_model, warm.x, warm.y, nn.TrainConfig(0.1, 30, 64, seed=2))

poison = PoisonSpec(target_class=0, trigger_coords=(1, 2), trigger_value=4.0, pdr=0.4)
submissions = []
for cid in range(N_BENIGN + N_BAD):
    data = gen_dataset(150, 3, 10, seed=10 + cid)
    if cid >= N_BENIGN:
        profile = ClientProfile(cid, data, "blackbox", poison)
    else:
        profile = ClientProfile(cid, data)
    cfg = nn.TrainConfig(LR, 1, 150, seed=100 + cid)
    submissions.append(local_round(profile, global_model, cfg, round_index=1))

trust = {cid: 1.0 for cid in range(N_BENIGN + N_BAD)}
trust[N_BENIGN] = 0.4  # one poisoner already has history
task = defense.make_task(0, submissions, global_model, LR, trust, round_index=1)

print("reported gradient norms (poisoners marked *):")
for c in task.clients:
    mark = "*" if c.client_id >= N_BENIGN else " "
    print(f"  {mark}client {c.client_id}: |dU| = {np.linalg.norm(c.du):8.3f}")

s1 = defense.filter_gradient_similarity(task)
print(f"\nsimilarity filter suspects: {sorted(s1)}")
print("  (colluders share their strongest direction, so their deviations")
print("   over-align with the cohort mean gradient)")

mus = [nn.by_class_gradient(c) for c in task.clients]
print("\nby-class summaries (per-class row sums ++ bias gradient):")
for c, mu in zip(task.clients, mus):
    mark = "*" if c.client_id >= N_BENIGN else " "
    print(f"  {mark}client {c.client_id}: {np.round(mu, 2)}")

s2 = defense.filter_byclass_kmeans(task)
print(f"\nclustering filter suspects (cluster holding the least-trusted client): {sorted(s2)}")

report = defense.verify(task)
print("\ncombined verdicts (0 = both filters, 1 = neither, 1/2 = one):")
for cid in sorted(report.scores):
    print(f"  client {cid}: {report.scores[cid]}")

reversed_report = defense.corrupt_report(report, "reverse", seed=0)
print("\nwhat a reverse-scoring dishonest verifier would submit instead:")
print(" ", {cid: reversed_report.scores[cid] for cid in sorted(reversed_report.scores)})
