"""Command-line interface: train, eval, transfer, plot.

Exit codes: 0 on success, 1 for usage errors (bad flags, missing
arguments), 2 for runtime failures (unreadable files, bad checkpoints,
diverged simulations).
"""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import load_checkpoint
from .config import ALGORITHMS, load_config, parse_config
from .env import ProtocolError, SimulationDiverged
from .evaluate import (EVAL_SEED, EVAL_TRIALS, evaluate, report_csv,
                       transfer_experiment, transfer_table)
from .net import TrainingDiverged
from .svgplot import plot_metrics
from .terrain import KINDS, load_terrain
from .train import train

_RUNTIME_ERRORS = (SimulationDiverged, TrainingDiverged, ProtocolError, OSError,
                   ValueError)  # ConfigError and CheckpointError among them


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _trial_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"trials must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadrl",
        description=("Train and evaluate walking policies for a built-in "
                     "simplified quadruped, on flat and rough terrain."),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_train = sub.add_parser("train", help="run one training job")
    p_train.add_argument("--algo", choices=[a.replace("_", "-") for a in ALGORITHMS],
                         help="algorithm (overrides the config file)")
    p_train.add_argument("--config", metavar="FILE",
                         help="key-value config file; defaults apply if omitted")
    p_train.add_argument("--seed", type=int, metavar="N",
                         help="master seed (overrides the config file)")
    p_train.add_argument("--out", metavar="DIR",
                         help="output directory (overrides the config file)")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on one terrain")
    p_transfer = sub.add_parser(
        "transfer", help="evaluate a checkpoint on flat then rough terrain")
    for p in (p_eval, p_transfer):  # the evaluation protocol's flags
        p.add_argument("--checkpoint", required=True, metavar="FILE")
        p.add_argument("--trials", type=_trial_count, default=EVAL_TRIALS, metavar="N")
        p.add_argument("--seed", type=int, default=EVAL_SEED, metavar="N")
    p_eval.add_argument("--terrain", required=True, choices=KINDS)
    p_eval.add_argument("--fixed-terrain", metavar="FILE",
                        help="pin evaluation to a terrain file instead of "
                             "reseeding per trial")
    p_eval.add_argument("--out", metavar="FILE",
                        help="report CSV path (default: next to the checkpoint)")
    p_transfer.add_argument("--fixed-terrain", metavar="FILE",
                            help="pin the rough terrain to a terrain file")
    p_transfer.add_argument("--out", metavar="DIR",
                            help="report directory (default: checkpoint's)")

    p_plot = sub.add_parser("plot", help="render a metrics CSV as an SVG curve")
    p_plot.add_argument("--metrics", required=True, metavar="FILE")
    p_plot.add_argument("--out", required=True, metavar="FILE.svg")
    return parser


def _cmd_train(args) -> int:
    overrides = {
        "algorithm": args.algo,
        "master_seed": args.seed,
        "out_dir": args.out,
    }
    if args.config:
        config = load_config(args.config, **overrides)
    else:
        config = parse_config("", **overrides)
    ck, metrics_path = train(config)
    print(f"algorithm: {config.algorithm}")
    print(f"metrics: {metrics_path}")
    print(f"checkpoint: {os.path.join(config.out_dir, 'checkpoint.json')}")
    print(f"best return: {ck.progress['best_return']:.3f}")
    return 0


def _cmd_eval(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    fixed = load_terrain(args.fixed_terrain) if args.fixed_terrain else None
    report = evaluate(ck, args.terrain, args.trials, args.seed, fixed)
    out = args.out or os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)),
        f"eval_{args.terrain}.csv")
    with open(out, "w", encoding="ascii") as fh:
        fh.write(report_csv([report]))
    print(f"{args.terrain}: mean {report.mean:.3f}  std {report.std:.3f}  "
          f"median {report.median:.3f}  best {report.best:.3f}")
    print(f"report: {out}")
    return 0


def _cmd_transfer(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    fixed = load_terrain(args.fixed_terrain) if args.fixed_terrain else None
    flat, rough, degradation = transfer_experiment(ck, args.seed, args.trials,
                                                   fixed)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "transfer_report.csv")
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write(report_csv([flat, rough]))
    table = transfer_table(flat, rough, degradation)
    table_path = os.path.join(out_dir, "transfer_table.txt")
    with open(table_path, "w", encoding="ascii") as fh:
        fh.write(table)
    print(table, end="")
    print(f"report: {report_path}")
    return 0


def _cmd_plot(args) -> int:
    plot_metrics(args.metrics, args.out)
    print(f"plot: {args.out}")
    return 0


_COMMANDS = {"train": _cmd_train, "eval": _cmd_eval, "transfer": _cmd_transfer,
             "plot": _cmd_plot}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _RUNTIME_ERRORS as exc:
        print(f"quadrl {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
