"""Command-line entry point.

Subcommands: train, eval, ood, scaling, longtail, sweep, probe, verify.
Every subcommand but verify accepts --config (JSON), --seed, --out,
--lambda, --schedule and --eps; flags override the config file.  verify
runs a fixed oracle battery and takes no flags.  Exit codes: 0 on success,
1 on argument errors, 2 when the verification gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import VerificationFailure
from .harness import (ExperimentConfig, apply_overrides, load_config,
                      run_eval, run_lambda_sweep, run_longtail, run_probe,
                      run_scaling, run_standard, run_train, verify_or_raise)

_RUNNERS = {
    "train": run_train,
    "eval": run_eval,
    "ood": run_standard,
    "scaling": run_scaling,
    "longtail": run_longtail,
    "sweep": run_lambda_sweep,
    "probe": run_probe,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; 2 is reserved for
    # verification failures here, so argument errors raise instead and the
    # main() handler turns them into exit code 1.
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dappr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} workflow")
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="replace the config's seed list")
        p.add_argument("--out", help="output directory")
        p.add_argument("--lambda", dest="lam", type=float,
                       help="regulariser weight override")
        p.add_argument("--schedule", choices=("constant", "warmup", "linear"),
                       help="regulariser schedule override")
        p.add_argument("--eps", type=float, help="loss eps override")
        if name == "eval":
            p.add_argument("--checkpoint", required=True,
                           help="checkpoint JSON to evaluate")
    sub.add_parser("verify", help="run the oracle battery")
    return parser


def _check_line(name: str, ok: bool, detail: str) -> str:
    return f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            report = verify_or_raise()
            for check in report.checks:
                print(_check_line(*check))
            print(f"{len(report.checks)} checks passed")
            return 0
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg = apply_overrides(cfg, seed=args.seed, out=args.out, lam=args.lam,
                              schedule=args.schedule, eps=args.eps)
        extra = (args.checkpoint,) if args.command == "eval" else ()
        report = _RUNNERS[args.command](cfg, *extra)
        summary = {k: report[k] for k in ("experiment",) if k in report}
        print(json.dumps({**summary, "out": cfg.out}))
        return 0
    except VerificationFailure as exc:
        for check in getattr(exc, "checks", []):
            print(_check_line(*check), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
