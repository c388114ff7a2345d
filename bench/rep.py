"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/rep.py WORKLOAD SEED SIZE TRACE OUT_DIR

Prints one JSON record as its last stdout line: timings, peak memory, the
digests and checks of every operation and, when TRACE is 1, the per-layer
metrics of the traced iteration.  BLAS and OpenMP threads are pinned to one
before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import math
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

MA_FLOOR = 0.9
# trustfed plan --M 30 --L 7 and --V 15; the values PAPER.md's planner gives.
EXPECTED_V_30_7 = 15.7525
EXPECTED_L_30_15 = 6.5253


def _hex(value):
    return None if value is None else float(value).hex()


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _check_run(op, nn):
    result = op.result
    metrics = result.metrics
    problems = []
    if len(metrics) != result.config.rounds:
        problems.append(f"{len(metrics)} round metrics for {result.config.rounds} rounds")
    if not all(math.isfinite(m.ma) and math.isfinite(m.ba) for m in metrics):
        problems.append("non-finite MA or BA")
    if metrics[-1].ma < MA_FLOOR:
        problems.append(f"final MA {metrics[-1].ma:.4f} below floor {MA_FLOOR}")
    return problems, {
        "final_ma": metrics[-1].ma,
        "final_ba": metrics[-1].ba,
        "model_sha256": hashlib.sha256(nn.to_bytes(result.final_model)).hexdigest(),
        "rounds_sha256": _sha([[_hex(m.ma), _hex(m.ba), _hex(m.tpr), _hex(m.tnr)] for m in metrics]),
    }


def _check_emit(op, nn):
    result = op.extra["run"]
    problems = []
    rows = Path(op.result["metrics"]).read_text().splitlines()
    if len(rows) != len(result.metrics) + 1:
        problems.append(f"metrics.csv has {len(rows)} lines for {len(result.metrics)} rounds")
    summary = json.loads(Path(op.result["summary"]).read_text())
    if summary["final_ma"] != result.metrics[-1].ma:
        problems.append("summary.json final_ma differs from the run")
    events = Path(op.result["events"]).read_text().splitlines()
    if len(events) != len(result.state.events):
        problems.append("events.jsonl does not hold every contract event")
    # Wall times differ between runs, so only the deterministic columns count.
    deterministic = [",".join(row.split(",")[:5]) for row in rows]
    return problems, {"outputs_sha256": _sha([deterministic, summary["final_ma"], events])}


def _check_report(op, nn):
    report = op.result
    problems = []
    expected = EXPECTED_V_30_7 if op.name == "plan.L7" else EXPECTED_L_30_15
    if round(report["closed_form"], 4) != expected:
        problems.append(f"closed form {report['closed_form']!r}, expected {expected}")
    if (report["note"] is not None) != (report["gap_sigma"] > 3.0):
        problems.append("note is not set exactly when gap_sigma > 3")
    return problems, {
        "closed_form": report["closed_form"],
        "gap_sigma": report["gap_sigma"],
        "report_sha256": _sha({k: _hex(v) if isinstance(v, float) else v for k, v in report.items()}),
    }


CHECKS = {"run": _check_run, "emit": _check_emit, "report": _check_report}


def _environment(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def iteration(workload, seed, size, trace, out_dir):
    started = time.perf_counter()
    import trustfed
    import_s = time.perf_counter() - started
    if Path(trustfed.__file__).resolve().parent != ROOT / "src" / "trustfed":
        raise RuntimeError(f"imported trustfed from {trustfed.__file__}, not from src/")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        ops = WORKLOADS[workload](seed, size, scratch)
        wall_s = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        records = []
        for op in ops:
            problems, digests = CHECKS[op.kind](op, trustfed.nn)
            records.append({"name": op.name, "kind": op.kind, "seconds": op.seconds,
                            "problems": problems, **digests})

    runs = [op.result for op in ops if op.kind == "run"]
    round_s = [m.wall_time for r in runs for m in r.metrics]
    run_s = sum(op.seconds for op in ops if op.kind == "run")
    setup_s = import_s + run_s - sum(round_s)
    record = {
        "wall_s": wall_s,
        "import_s": import_s,
        "setup_s": setup_s,
        "work_s": wall_s - setup_s,
        "peak_rss_mb": peak_rss_mb,
        "round_ms": [1e3 * s for s in round_s],
        "client_rounds": sum(r.config.rounds * r.config.queue_size for r in runs),
        "ops": records,
        "environment": _environment(sys.modules["numpy"]),
    }
    if tracer is not None:
        from tracer import layer_metrics
        record["layer"] = layer_metrics(tracer.spans, tracer.counts)
        smoke = "-smoke" if size == "smoke" else ""
        tracer.write(Path(out_dir) / f"{workload}-seed{seed}{smoke}-spans.jsonl",
                     {"workload": workload, "seed": seed, "size": size})
    return record


def main(argv):
    workload, seed, size, trace, out_dir = argv
    try:
        record = iteration(workload, int(seed), size, trace == "1", out_dir)
    except Exception:
        record = {"error": traceback.format_exc()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
