"""Command-line entry point.

Subcommands: generate, model, analyze, report, all. Flags override values
from an optional JSON config file; exit code is nonzero with a
machine-readable error JSON on stderr when a stage fails. The model stage
goes on past a failed unit and lists it in `model_errors.json`; `model` and
`all` then finish their work and exit 1, naming the count and the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    run_all,
    run_analyze,
    run_generate,
    run_model,
    run_report,
)

STAGES = {
    "generate": run_generate,
    "model": run_model,
    "analyze": run_analyze,
    "report": run_report,
    "all": run_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modperf",
        description="Synthetic modular-system workbench: hardness and opportunity "
        "of performance modeling under graded structural knowledge.",
    )
    parser.add_argument("stage", choices=sorted(STAGES), help="pipeline stage to run")
    parser.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    parser.add_argument("--seed", type=int, help="global seed")
    parser.add_argument("--systems", type=int, help="number of synthetic systems")
    parser.add_argument("--trials", type=int, help="semantics re-randomizations per system")
    parser.add_argument("--train-sizes", type=str, help="comma list, e.g. 20,50,100,200,500,1000")
    parser.add_argument(
        "--metric", action="append", choices=["acc", "scc"],
        help="efficacy metric (repeatable; default both)",
    )
    parser.add_argument("--levels", type=str, help="comma list of knowledge levels")
    parser.add_argument("--budget", type=int, help="hyperparameter evaluations per level fit")
    parser.add_argument("--alpha", type=float, help="significance level for hypothesis tests")
    parser.add_argument("--alpha-ci", type=float, help="Fisher-Z pruning level")
    parser.add_argument(
        "--hardness-mode", choices=["fixed", "empirical"], help="hardness classification mode"
    )
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    parser.add_argument("--resume", action="store_true", help="skip completed work units")
    parser.add_argument("--forest-scale", choices=["desk", "paper"], help="forest search space")
    parser.add_argument("--n-train", type=int, help="training pool size per system")
    parser.add_argument("--n-test", type=int, help="test set size per system")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
    overrides = {
        "global_seed": args.seed,
        "n_systems": args.systems,
        "trials": args.trials,
        "budget_evaluations": args.budget,
        "test_alpha": args.alpha,
        "alpha_ci": args.alpha_ci,
        "hardness_mode": args.hardness_mode,
        "forest_scale": args.forest_scale,
        "n_train": args.n_train,
        "n_test": args.n_test,
    }
    if args.train_sizes:
        overrides["train_sizes"] = tuple(int(n) for n in args.train_sizes.split(","))
    if args.metric:
        overrides["metrics"] = tuple(dict.fromkeys(args.metric))
    if args.levels:
        overrides["levels"] = tuple(args.levels.split(","))
    base.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig.from_dict(
        base, out_dir=args.out, jobs=args.jobs, resume=args.resume
    )


def _fail(stage: str, error: str, detail: str) -> int:
    """Print the error JSON on stderr; the exit code of a failed stage."""
    json.dump({"error": error, "stage": stage, "detail": detail}, sys.stderr)
    sys.stderr.write("\n")
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        result = STAGES[args.stage](config)
    except Exception as exc:
        return _fail(args.stage, type(exc).__name__, str(exc))
    if args.stage == "report":
        sys.stdout.write(result)
    elif args.stage in ("analyze", "all"):
        sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    elif args.stage == "generate":
        sys.stdout.write(f"generate: completed {len(result)} unit(s) -> {args.out}\n")
    if args.stage not in ("model", "all"):
        return 0
    # the model stage records each failed unit in model_errors.json and goes on
    errors = Path(args.out) / "model_errors.json"
    failed = len(json.loads(errors.read_text())) if errors.exists() else 0
    total = config.n_systems * config.trials
    if args.stage == "model":
        sys.stdout.write(f"model: completed {total - failed} of {total} unit(s) -> {args.out}\n")
    if failed:
        return _fail(args.stage, "UnitErrors", f"{failed} of {total} unit(s) failed; see {errors}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
