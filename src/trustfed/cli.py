"""Command line entry points: ``run`` a simulation, ``plan`` verifier coverage."""

import argparse
import sys

from .errors import ConfigError, DomainError, NumericalError, TrustFedError
from .harness import SimConfig, emit, run
from .planner import coverage_report

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustfed",
        description="Trust-weighted federated learning simulator with backdoor defense",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a simulation run")
    runp.add_argument("--config", help="flat key = value configuration file")
    runp.add_argument("--out", default="out", help="output directory (default: out)")
    runp.add_argument("--seed", type=int, help="override the master seed")
    runp.add_argument("--data", help="CSV dataset (features..., integer label)")

    planp = sub.add_parser("plan", help="verifier coverage planning")
    planp.add_argument("--M", type=int, required=True, help="clients to cover")
    group = planp.add_mutually_exclusive_group(required=True)
    group.add_argument("--V", type=int, help="verifier count (plans the subset size)")
    group.add_argument("--L", type=int, help="per-verifier subset size (plans the verifier count)")
    planp.add_argument("--trials", type=int, default=20000, help="Monte Carlo trials")
    planp.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    cfg = SimConfig.from_file(args.config) if args.config else SimConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.data is not None:
        cfg.data_csv = args.data
    result = run(cfg)
    paths = emit(result, args.out)
    final = result.metrics[-1]
    print(f"rounds={cfg.rounds} final_ma={final.ma:.4f} final_ba={final.ba:.4f}")
    print("wrote " + ", ".join(str(path) for path in paths.values()))
    return 0


def _cmd_plan(args) -> int:
    report = coverage_report(args.M, v=args.V, subset_size=args.L,
                             trials=args.trials, seed=args.seed)
    print(f"planning {report['quantity']} for M={report['m']}")
    print(f"  closed form : {report['closed_form']:.4f} (suggested {report['suggested']})")
    print(f"  monte carlo : {report['mc_estimate']:.4f} +- {report['mc_std_err']:.4f} "
          f"({args.trials} trials)")
    if report["note"]:
        print(f"  NOTE: {report['note']}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_plan(args)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TrustFedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
