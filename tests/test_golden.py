"""Golden-behaviour gate: short runs must reproduce recorded results bit for bit.

Each case is a desk-shaped run of a few rounds.  The fixture holds the
SHA-256 of the final model's canonical bytes and every round's
(MA, BA, TPR, TNR) as space-separated ``float.hex`` strings (``None`` when the
queue held no attacker or no benign client), so any change to the
arithmetic, the order of random draws or the aggregation shows up as a
mismatch.  A second fixture holds the SHA-256 of each case's contract event
log, so a change to which events are logged, or in what order, shows up too.
Refactors and speed-ups must leave this file green without touching the
fixtures.

The bits hold per host class: the numpy version, numpy's SIMD level
(``np.exp`` gives other bits under AVX-512 than under AVX2) and the OpenBLAS
kernel core.  A third fixture records the class the others were recorded on,
and ``test_host_class_matches_the_recording`` names the field that differs
when this host is of another class.

Re-record (only when behaviour is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import ctypes
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
import pytest

from trustfed import ledger
from trustfed.harness import SimConfig, run
from trustfed.hashing import model_digest

FIXTURE = Path(__file__).with_name("golden_digests.json")
EVENTS_FIXTURE = Path(__file__).with_name("golden_events.json")
HOST_FIXTURE = Path(__file__).with_name("golden_host.json")

ROUNDS = 8
DESK = dict(n_clients=40, queue_size=10, verify_set_size=10, n_verifiers=5,
            verify_subset_size=4, attacker_ratio=0.25, poison_rate=0.33,
            non_iid_degree=0.5, rounds=ROUNDS)
ATTACKS = ("none", "blackbox", "pgd", "pgd_mr")


def _cases():
    cases = {}
    for seed in (6, 10, 15):
        for attack in ATTACKS:
            for policy in ("open", "caav"):
                for lag in (0, 2):
                    cases[f"{attack}-{policy}-lag{lag}-seed{seed}"] = dict(
                        attack=attack, verifier_policy=policy, verify_lag=lag, seed=seed)
    for attack in ATTACKS:
        cases[f"{attack}-undefended-seed6"] = dict(attack=attack, defense_enabled=False, seed=6)
    cases["blackbox-open-reverse-verifiers-seed10"] = dict(
        attack="blackbox", verifier_policy="open", bad_verifier_fraction=0.5, seed=10)
    cases["blackbox-caav-raw-init-seed15"] = dict(
        attack="blackbox", verifier_policy="caav", warm_start_size=0, seed=15)
    return cases


CASES = _cases()


def _hex(value):
    return "None" if value is None else float(value).hex()


@functools.lru_cache(maxsize=None)
def _run_once(items):
    """One run per case, shared by the digest and the event-log tests."""
    return run(SimConfig(**DESK, **dict(items)))


def _result(overrides):
    return _run_once(tuple(sorted(overrides.items())))


def observe(overrides) -> dict:
    result = _result(overrides)
    return {
        "model": model_digest(result.final_model),
        "rounds": [" ".join(_hex(v) for v in (m.ma, m.ba, m.tpr, m.tnr)) for m in result.metrics],
    }


def events_digest(overrides) -> str:
    log = "\n".join(ledger.export_events(_result(overrides).state))
    return hashlib.sha256(log.encode()).hexdigest()


def _openblas_core():
    """The kernel core numpy's bundled OpenBLAS runs, or None without one."""
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"))
    if not libs:
        return None
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def host_class() -> dict:
    """The fields of this host that decide a run's bits."""
    return {"numpy": np.__version__, "X86_V4": bool(__cpu_features__.get("X86_V4")),
            "openblas_core": _openblas_core()}


def test_host_class_matches_the_recording():
    recorded, here = json.loads(HOST_FIXTURE.read_text()), host_class()
    differ = [f"{k} is {here.get(k)!r} here, {v!r} in {HOST_FIXTURE.name}"
              for k, v in sorted(recorded.items()) if here.get(k) != v]
    if differ:
        pytest.fail("golden fixtures hold for another host class: " + "; ".join(differ),
                    pytrace=False)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def golden_events():
    return json.loads(EVENTS_FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_golden(case, golden):
    assert observe(CASES[case]) == golden[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_log_matches_golden(case, golden_events):
    assert events_digest(CASES[case]) == golden_events[case]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: observe(o) for name, o in sorted(CASES.items())},
                                  indent=1, sort_keys=True) + "\n")
    EVENTS_FIXTURE.write_text(json.dumps({name: events_digest(o) for name, o in sorted(CASES.items())},
                                         indent=1, sort_keys=True) + "\n")
    HOST_FIXTURE.write_text(json.dumps(host_class(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases in {FIXTURE} and {EVENTS_FIXTURE} on {host_class()}")
