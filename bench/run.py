"""trustfed benchmark: run a workload for a fixed time and report its metrics.

Usage:
    python3 bench/run.py --workload desk_run --seed 6 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (bench/rep.py) with BLAS and
OpenMP pinned to one thread: a closed loop with a single caller.  An untimed
import fills the bytecode and file caches; repetitions then run back to back
until ``--seconds`` is used up.  Every repetition's final-model digest,
per-round (MA, BA, TPR, TNR) digest, emitted outputs and planner reports must
equal the first repetition's bit for bit.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, as medians over the timed repetitions.  With ``--trace 1``
traced and untraced repetitions alternate and the line carries the per-layer
metrics (medians over the traced repetitions) plus ``trace.overhead_s``.  The
lines before it print every metric with its unit and sample count, and the
full record, environment included, goes to .bench_results/.

``--size smoke`` shrinks each workload to a few rounds for the benchmark's
own check (bench/check_smoke.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OPS_PER_ITERATION, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_results"
DEADLINE_S = 170          # the whole invocation must end within 180 s
MIN_TIMED = {0: 3, 1: 4}  # timed repetitions per run, by trace flag


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def _preflight():
    """The benchmark runs trustfed from this checkout's sources, nothing else."""
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "trustfed" / "__init__.py",
              ROOT / "demos" / "desk_run.cfg", BENCH / "rep.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"benchmark cannot run here: missing {', '.join(missing)}")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _machine():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "loadavg_at_start": os.getloadavg()}


def _repetition(args, trace, deadline):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "rep.py"), args.workload, str(args.seed), args.size,
           str(trace), str(OUT)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if lines else {"error": proc.stderr[-2000:]}
    except subprocess.TimeoutExpired:
        record = {"error": "repetition timed out"}
    except json.JSONDecodeError:
        record = {"error": proc.stdout[-2000:] + proc.stderr[-2000:]}
    record["trace"] = trace
    record["process_s"] = time.perf_counter() - started
    return record


def _quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(100 * q) - 1]


def _summary(values, unit):
    return {"value": statistics.median(values), "p90": _quantile(values, 0.9),
            "n": len(values), "unit": unit}


def _failures(record, reference, workload):
    """Failed operations of one repetition, checked against the first one."""
    if "error" in record:
        return OPS_PER_ITERATION[workload], [record["error"]]
    problems = []
    failed = 0
    refs = reference.get("ops") or record["ops"]
    for op, ref in zip(record["ops"], refs):
        bad = list(op["problems"])
        for key, value in op.items():
            if key.endswith("sha256") and value != ref[key]:
                bad.append(f"{key} differs from the first repetition")
        if bad:
            failed += 1
            problems.extend(f"{op['name']}: {p}" for p in bad)
    return failed, problems


def _end_to_end(reps):
    """Every end-to-end figure, gated or not, over the untraced repetitions."""
    out = {}
    for key, unit in (("wall_s", "s"), ("setup_s", "s"), ("work_s", "s"),
                      ("peak_rss_mb", "MB"), ("import_s", "s")):
        out[key] = _summary([r[key] for r in reps], unit)
    rounds = [ms for r in reps for ms in r["round_ms"]]
    if rounds:
        out["round_ms_p50"] = {"value": statistics.median(rounds), "n": len(rounds), "unit": "ms"}
        out["round_ms_p90"] = {"value": _quantile(rounds, 0.9), "n": len(rounds), "unit": "ms"}
        out["client_rounds_per_s"] = _summary(
            [r["client_rounds"] / (1e-3 * sum(r["round_ms"])) for r in reps], "1/s")
    by_name = {}
    for r in reps:
        for op in r["ops"]:
            by_name.setdefault(op["name"], []).append(op)
    for name, label in (("plan.L7", "plan_verifiers_s"), ("plan.V15", "plan_subset_s")):
        if name in by_name:
            out[label] = _summary([op["seconds"] for op in by_name[name]], "s")
    for name in ("desk", "scale"):
        if name in by_name:
            out["final_ma"] = {"value": by_name[name][0]["final_ma"], "n": len(reps), "unit": "ratio"}
            out["final_ba"] = {"value": by_name[name][0]["final_ba"], "n": len(reps), "unit": "ratio"}
    return out


def _per_layer(traced, untraced):
    names = traced[0]["layer"].keys()
    out = {k: {"value": statistics.median(r["layer"][k] for r in traced), "n": len(traced)}
           for k in names}
    out["trace.overhead_s"] = {
        "value": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced),
        "n": len(traced)}
    return out


def run(args):
    spec = _preflight()
    OUT.mkdir(exist_ok=True)
    machine = _machine()
    deadline = time.monotonic() + DEADLINE_S
    # Fill the bytecode and file caches once; users do not pay that per run.
    subprocess.run([sys.executable, "-c", "import trustfed, tracer, workloads"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH}"),
                   capture_output=True, timeout=60)
    reps = []
    started = time.monotonic()
    last = {0: 0.0, 1: 0.0}   # duration of the last repetition of each kind
    while not (reps and "error" in reps[0]):
        trace = int(args.trace == 1 and len(reps) % 2 == 0)
        enough = len(reps) >= MIN_TIMED[args.trace]
        # Start a repetition only if one as long as the last would still fit.
        if enough and time.monotonic() - started + last[trace] > args.seconds:
            break
        if time.monotonic() + last[trace] > deadline:
            break
        rep = _repetition(args, trace, deadline)
        last[trace] = rep["process_s"]
        reps.append(rep)

    attempted = failed = 0
    problems = []
    for rep in reps:
        bad, why = _failures(rep, reps[0], args.workload)
        attempted += OPS_PER_ITERATION[args.workload]
        failed += bad
        problems.extend(why)
    ok = [r for r in reps if "error" not in r]
    untraced = [r for r in ok if r["trace"] == 0]
    traced = [r for r in ok if r["trace"] == 1]

    report = {"end_to_end": _end_to_end(untraced) if untraced else {}}
    report["end_to_end"]["failed_ops_ratio"] = {"value": failed / attempted, "n": attempted,
                                                "unit": "ratio"}
    if args.trace:
        report["per_layer"] = _per_layer(traced, untraced) if traced and untraced else {}

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    section = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in table:
        if entry["name"] not in section:
            problems.append(f"metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": section[entry["name"]]["value"], "unit": entry["unit"]}
    correct = not problems and failed == 0

    for key, group in report.items():
        for name, m in group.items():
            unit = m.get("unit") or next((e["unit"] for e in spec["per_layer"] if e["name"] == name), "")
            tail = f"  p90 {m['p90']:.6g}" if "p90" in m else ""
            print(f"{args.workload:17s} {name:36s} {m['value']:14.6g} {unit:6s} n={m['n']}{tail}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine,
        "environment": reps[0].get("environment"),
        "digests": [{k: v for k, v in op.items() if k.endswith("sha256")}
                    for op in reps[0].get("ops", [])],
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "report": report, "repetitions": reps,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.size == 'smoke' else ''}.json"
    (OUT / name).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(_parse(sys.argv[1:])))
