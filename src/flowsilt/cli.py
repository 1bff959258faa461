"""Command-line front end.

Every subcommand reads one JSON config (see ``harness.load_config``) and
honors ``--seed``, ``--out``, ``--threads`` overrides. Thread fallback
order: the flag, then the FLOWSILT_THREADS environment variable, then
the config file. The count only splits the replicates into that many
chunks, which run one after another in this process; no number in the
output changes with it, and the run is no faster.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (CheckResult, ConfigError, ExperimentConfig,
                      load_config, require_inputs, run_experiment, run_silt,
                      run_simulation, suite_eps_study, suite_moments)
from .model import validate_model


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsilt",
        description="Monte Carlo and analytic oracles for branching "
                    "diffusions in a common flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("validate", "check a config and its model, then exit"),
        ("simulate", "run the particle system, write per-replicate CSV"),
        ("moments", "compare simulated moments against the closed formulas"),
        ("silt", "per-replicate self-intersection decomposition CSV"),
        ("eps-study", "coupled-seed mollification convergence study"),
        ("report", "run all configured suites and write the report"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="split the replicates into this many chunks, "
                            "run one after another in this process; no "
                            "number changes (falls back to "
                            "FLOWSILT_THREADS)")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be a nonnegative integer")
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.threads is not None:
        threads = args.threads
    elif "FLOWSILT_THREADS" in os.environ:
        try:
            threads = int(os.environ["FLOWSILT_THREADS"])
        except ValueError as err:
            raise ConfigError(
                f"FLOWSILT_THREADS={os.environ['FLOWSILT_THREADS']!r} "
                "is not an integer") from err
    else:
        threads = cfg.threads
    if threads < 1:
        raise ConfigError("thread count must be >= 1")
    return replace(cfg, threads=threads)


def _print_checks(checks: list[CheckResult]) -> bool:
    ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        parts = [f"[{status}] {c.name}"]
        if not math.isnan(c.estimate):
            parts.append(f"estimate={c.estimate:.6g}")
        if not math.isnan(c.oracle):
            parts.append(f"oracle={c.oracle:.6g}")
        if not math.isnan(c.z):
            parts.append(f"z={c.z:.3f}")
        if c.detail:
            parts.append(f"({c.detail})")
        print("  ".join(parts))
        ok = ok and c.passed
    return ok


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        # report checks its suites in run_experiment
        require_inputs(cfg, (args.command,))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            report = validate_model(cfg.model(), initial=cfg.initial(),
                                    horizon=cfg.horizon)
            print(f"config {args.config}: hash {cfg.config_hash()}, "
                  f"seed {cfg.seed}")
            print(f"model: dim={cfg.dim}, min eigenvalue "
                  f"{report.min_eigenvalue:.6g}")
            for msg in report.messages:
                print(f"  note: {msg}")
            if not report.passed:
                print("model validation FAILED", file=sys.stderr)
                return 1
            print("ok")
            return 0

        if args.command == "simulate":
            path = run_simulation(cfg, Path(cfg.out_dir))
            print(f"wrote {path}")
            return 0

        if args.command == "moments":
            ok = _print_checks(suite_moments(cfg))
            return 0 if ok else 1

        if args.command == "silt":
            path = run_silt(cfg, Path(cfg.out_dir))
            print(f"wrote {path}")
            return 0

        if args.command == "eps-study":
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            ok = _print_checks(suite_eps_study(cfg, out_dir=out))
            print(f"wrote {out / 'eps_study.csv'}")
            return 0 if ok else 1

        if args.command == "report":
            report = run_experiment(cfg)
            _print_checks(report.checks)
            print(f"report: {Path(cfg.out_dir) / 'report.md'}")
            return report.exit_code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
