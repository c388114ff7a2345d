"""In-memory span tracer that wraps trustfed's public functions from outside.

``Tracer.install`` replaces every public function of the traced layers with a
timing wrapper, in the defining module and in every trustfed module that bound
the same function by name (``from .clients import local_round``), so nothing
under ``src/`` changes.  A span records its name, its parent span, the id of
the outermost span it belongs to (one ``harness.run`` or ``coverage_report``
call: the "run id"), its start and end, and an optional observation taken
from the call's arguments or result.  ``Layer.__post_init__`` is counted, not
timed: it fires tens of thousands of times per run.

Spans stay in memory until ``write`` dumps them as JSON lines.  ``uninstall``
restores every patched binding.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("nn", "hashing", "data", "clients", "ledger", "defense", "planner", "harness")

# Span fields, kept as plain lists for low overhead.
ID, PARENT, RUN, NAME, START, END, OBS = range(7)


def _run_info(args, kwargs, result):
    cfg = result.config
    return {
        "round_s": sum(m.wall_time for m in result.metrics),
        "client_rounds": cfg.rounds * cfg.queue_size,
        "defended": bool(cfg.defense_enabled),
        "events": dict(Counter(ev.kind for ev in result.state.events)),
    }


def _verify_info(args, kwargs, result):
    return [result.round_index, sorted(result.scores)]


def _emit_bytes(args, kwargs, result):
    return sum(Path(p).stat().st_size for p in result.values())


# What a span keeps besides its timing, per traced name.
OBSERVERS = {
    "nn.to_bytes": lambda a, k, r: len(r),
    "hashing.blob_digest": lambda a, k, r: len(a[0]),
    "ledger.OffchainStore.put": lambda a, k, r: [r, len(a[1])],
    "defense.verify": _verify_info,
    "planner.mc_coverage": lambda a, k, r: int(r.draws.sum()),
    "harness.run": _run_info,
    "harness.emit": _emit_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(spans), None, None, name, 0.0, 0.0, None]
            if parent is None:
                span[RUN] = span[ID]
            else:
                span[PARENT], span[RUN] = parent[ID], parent[RUN]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[OBS] = observe(args, kwargs, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "trustfed" or n.startswith("trustfed.")) and m is not None]
        for layer in LAYERS:
            mod = importlib.import_module(f"trustfed.{layer}")
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, bound, traced)
        ledger = importlib.import_module("trustfed.ledger")
        nn = importlib.import_module("trustfed.nn")
        for method in ("put", "fetch"):
            fn = getattr(ledger.OffchainStore, method)
            self._patch(ledger.OffchainStore, method,
                        self._wrap(f"ledger.OffchainStore.{method}", fn))
        self._patch(nn.Layer, "__post_init__",
                    self._count("nn.layer_validations", nn.Layer.__post_init__))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, header):
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(
                    ("id", "parent", "run", "name", "start", "end", "obs"), span))) + "\n")


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced iteration (see bench/NOTES.md)."""
    total = defaultdict(float)
    calls = Counter()
    children = defaultdict(list)
    by_id = {}
    for span in spans:
        total[span[NAME]] += span[END] - span[START]
        calls[span[NAME]] += 1
        by_id[span[ID]] = span
        children[span[PARENT]].append(span)

    def duration(group):
        return sum(s[END] - s[START] for s in group)

    def parent_name(span):
        return None if span[PARENT] is None else by_id[span[PARENT]][NAME]

    sgd = [s for s in spans if s[NAME] == "nn.sgd_train"]
    sgd_setup = [s for s in sgd if parent_name(s) == "harness.run"]
    sgd_round = [s for s in sgd if parent_name(s) == "clients.local_round"]

    round_self = 0.0
    events = Counter()
    defended_client_rounds = 0
    for run in (s for s in spans if s[NAME] == "harness.run"):
        info = run[OBS]
        events.update(info["events"])
        if info["defended"]:
            defended_client_rounds += info["client_rounds"]
        # Set-up children all end before the first client round starts.
        kids = children[run[ID]]
        first_round = min((s[START] for s in kids if s[NAME] == "clients.local_round"),
                          default=run[END])
        round_self += info["round_s"] - duration(s for s in kids if s[START] >= first_round)

    held = defaultdict(dict)   # run id -> digest -> bytes
    for s in spans:
        if s[NAME] == "ledger.OffchainStore.put":
            held[s[RUN]][s[OBS][0]] = s[OBS][1]

    scored = set()
    scores = 0
    for s in spans:
        if s[NAME] == "defense.verify":
            round_index, ids = s[OBS]
            scores += len(ids)
            scored.update((s[RUN], round_index, cid) for cid in ids)

    verify_calls = calls["defense.verify"]
    mc_s = total["planner.mc_coverage"]
    obs_sum = lambda name: sum(s[OBS] for s in spans if s[NAME] == name)

    return {
        "nn.sgd_train.setup_s": duration(sgd_setup),
        "nn.sgd_train.setup_calls": len(sgd_setup),
        "nn.sgd_train.round_s": duration(sgd_round),
        "nn.sgd_train.round_calls": len(sgd_round),
        "nn.layer_validations": counts["nn.layer_validations"],
        "nn.to_bytes.calls": calls["nn.to_bytes"],
        "nn.to_bytes.bytes": obs_sum("nn.to_bytes"),
        "nn.to_bytes.s": total["nn.to_bytes"],
        "nn.lincomb.calls": calls["nn.lincomb"],
        "nn.lincomb.s": total["nn.lincomb"],
        "nn.forward_batch.s": total["nn.forward_batch"],
        "hashing.blob_digest.calls": calls["hashing.blob_digest"],
        "hashing.blob_digest.bytes": obs_sum("hashing.blob_digest"),
        "hashing.blob_digest.s": total["hashing.blob_digest"],
        "data.setup_s": (total["data.gen_dataset"] + total["data.partition_non_iid"]
                         + total["data.triggered_testset"]),
        "data.poison.calls": calls["data.poison"],
        "data.poison.s": total["data.poison"],
        "clients.local_round.calls": calls["clients.local_round"],
        "clients.local_round.self_s": total["clients.local_round"] - duration(sgd_round),
        "clients.attack_transform_s": total["clients.pgd_project"] + total["clients.model_replace"],
        "ledger.submit.calls": calls["ledger.submit"],
        "ledger.submit.s": total["ledger.submit"],
        "ledger.store.put_calls": calls["ledger.OffchainStore.put"],
        "ledger.store.fetch_calls": calls["ledger.OffchainStore.fetch"],
        "ledger.store.bytes_held": sum(sum(d.values()) for d in held.values()),
        "ledger.aggregate_s": total["ledger.aggregate"] + total["ledger.fedavg_aggregate"],
        "ledger.select_verifiers_s": total["ledger.select_verifiers"],
        "ledger.verifier_shortfall": events["VerifierShortfall"],
        "ledger.degenerate_aggregation": events["DegenerateAggregation"],
        "defense.verify.calls": verify_calls,
        "defense.verify.s": total["defense.verify"],
        "defense.verify.us_per_task": 1e6 * total["defense.verify"] / verify_calls if verify_calls else 0.0,
        "defense.filter_similarity_s": total["defense.filter_gradient_similarity"],
        "defense.filter_byclass_s": total["defense.filter_byclass_kmeans"],
        "defense.make_task_s": total["defense.make_task"],
        "defense.scores_per_verified_client": scores / len(scored) if scored else 0.0,
        "defense.coverage": len(scored) / defended_client_rounds if defended_client_rounds else 0.0,
        "planner.closed_form_s": total["planner.expected_L"] + total["planner.expected_V"],
        "planner.mc_coverage.calls": calls["planner.mc_coverage"],
        "planner.mc_coverage.s": mc_s,
        "planner.mc_draws_per_s": obs_sum("planner.mc_coverage") / mc_s if mc_s else 0.0,
        "harness.round_self_s": round_self,
        "harness.eval_s": (total["harness.eval_ma"] + total["harness.eval_ba"]
                           + total["harness.eval_detection"]),
        "harness.emit.s": total["harness.emit"],
        "harness.emit.bytes": obs_sum("harness.emit"),
    }
