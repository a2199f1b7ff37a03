"""Command-line entry points wrapping the pipeline stages.

Subcommands: gen-scenes, scan, mix, pseudo-label, pretrain, selftrain,
evaluate, run-all, make-toy-benchmark. Common flags: --config PATH,
--seed N (overrides the config seed), --out DIR (overrides out_dir).
pseudo-label, evaluate and run-all also take --threads N. Exit code 0 on
success; failures print a stage-tagged message on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .errors import ScanmixError, StageError
from .io import FileFormat
from .scenegen import template_names


def _add_common(parser):
    parser.add_argument("--config", type=Path, required=True, help="pipeline config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=None, help="override the output directory")


def _load(args) -> pipeline.PipelineConfig:
    config = pipeline.load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Options declared with SUPPRESS are left out when unset, so the
    # library function's own defaults apply.
    p = sub.add_parser("gen-scenes", help="generate template scenes plus a manifest")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=argparse.SUPPRESS)
    p.add_argument("--role", choices=("source", "target"), default="source")
    p.add_argument(
        "--templates", type=lambda s: tuple(s.split(",")), default=argparse.SUPPRESS,
        help=f"comma-separated template names (default: all of {', '.join(template_names())})",
    )
    p.add_argument(
        "--format", choices=[f.value for f in FileFormat], dest="fmt", default=argparse.SUPPRESS,
    )

    p = sub.add_parser(
        "make-toy-benchmark", help="build the desk-scale benchmark",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--source-scenes", type=int, dest="n_source", metavar="N")
    p.add_argument("--target-scenes", type=int, dest="n_target", metavar="N")
    p.add_argument("--density", type=float)

    for name, help_text in (
        ("scan", "apply the scan simulation to the source scenes"),
        ("mix", "compose sample mixed scenes"),
        ("pseudo-label", "generate pseudo labels with the pretrained model"),
        ("pretrain", "train the scan-augmented source model"),
        ("selftrain", "self-train from the pretrained checkpoint"),
        ("evaluate", "evaluate existing checkpoints on target ground truth"),
        ("run-all", "run every stage and write the report"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "mix":
            p.add_argument("--count", type=int, default=5)
        if name in ("pseudo-label", "evaluate", "run-all"):
            p.add_argument("--threads", type=int, default=1, help="worker threads for per-scene stages")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        options = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
        if args.command == "gen-scenes":
            with pipeline._stage(args.command):
                print(pipeline.generate_scene_set(args.out, **options))
            return 0
        if args.command == "make-toy-benchmark":
            with pipeline._stage(args.command):
                print(pipeline.make_toy_benchmark(args.out, **options))
            return 0

        config = _load(args)
        if args.command == "scan":
            print(pipeline.stage_scan(config))
        elif args.command == "mix":
            print(pipeline.stage_mix(config, count=args.count))
        elif args.command == "pseudo-label":
            print(pipeline.stage_pseudo_label(config, args.threads))
        elif args.command == "pretrain":
            print(pipeline.stage_pretrain(config, with_scan_sim=True))
        elif args.command == "selftrain":
            print(pipeline.stage_selftrain(config))
        elif args.command == "evaluate":
            for tag, miou in pipeline.stage_evaluate(config, args.threads).items():
                print(f"miou_{tag}={miou:.4f}")
        elif args.command == "run-all":
            for tag, miou in pipeline.run_pipeline(config, args.threads).items():
                print(f"miou_{tag}={miou:.4f}")
            print(config.out_dir / "report.txt")
        return 0
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ScanmixError as exc:
        print(f"[{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
