"""Command-line entry point.

Subcommands mirror the experiment phases::

    fedmetaloc preprocess   --config exp.json
    fedmetaloc meta-train   --config exp.json
    fedmetaloc meta-test    --config exp.json [--checkpoint path.npz]
    fedmetaloc theory-probe --config exp.json
    fedmetaloc report       --config exp.json

``meta-test`` and ``report`` end with one line per meta-test target: the
paired MI/RI step comparison of :func:`experiments.paired_step_summary`.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 runtime error
(a diverging run's ``DivergenceError`` among them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiments
from .errors import ConfigError, DataError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmetaloc",
        description="Federated meta-learning simulator for RSSI indoor localization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment JSON file")
        cmd.add_argument("--out", help="override the output root directory")
        return cmd

    add("preprocess", "build preprocessed per-task bundles")
    add("meta-train", "run federated meta-training over the training tasks")
    test = add("meta-test", "fine-tune on held-out tasks under MI and RI")
    test.add_argument("--checkpoint", help="trained checkpoint (defaults to the experiment's)")
    add("theory-probe", "plain-SGD convergence probes and constant estimates")
    add("report", "rebuild metrics and CDF curves from traces on disk")
    return parser


def print_paired_summaries(config: experiments.ExperimentConfig, report: dict) -> None:
    """One line per configured target: how often MI beats RI over the paired seeds."""
    if not report["tasks"]:
        return
    mt = config.meta_test
    for target in mt.targets_m:
        summary = experiments.paired_step_summary(report, target, mt.steps)
        print(
            f"target {target} m: MI faster in {summary['wins']}/{summary['seeds']} paired seeds, "
            f"median step reduction {summary['median_reduction']:.0%}"
        )


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = experiments.load_experiment_config(args.config)
        if args.out:
            config.out_dir = Path(args.out)
        if args.command == "preprocess":
            task_ids = experiments.cmd_preprocess(config)
            print(f"wrote {len(task_ids)} task bundles under {config.tasks_dir}")
        elif args.command == "meta-train":
            meta, reports = experiments.cmd_meta_train(config)
            last = reports[-1].mean_query_loss if reports else float("nan")
            print(
                f"trained {meta.round} rounds; final mean query loss {last:.6g}; "
                f"checkpoint at {config.checkpoint_path}"
            )
        elif args.command == "meta-test":
            report = experiments.cmd_meta_test(config, checkpoint=args.checkpoint)
            print(f"meta-test finished for {len(report['tasks'])} tasks; report under {config.report_dir}")
            print_paired_summaries(config, report)
        elif args.command == "theory-probe":
            payload = experiments.cmd_theory_probe(config)
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif args.command == "report":
            report = experiments.cmd_report(config)
            print(f"report written under {config.report_dir}")
            print_paired_summaries(config, report)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - boundary: report and set the exit code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
