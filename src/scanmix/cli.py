"""Command-line entry points wrapping the pipeline stages.

Subcommands that run from a pipeline config take --config PATH, --seed N
(overrides the config seed) and --out DIR (overrides out_dir). Exit code 0
on success; failures print a stage-tagged message on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from . import pipeline
from .errors import StageError
from .io import FileFormat
from .scenegen import template_names


def _mious(mious: dict[str, float]) -> list[str]:
    return [f"miou_{tag}={miou:.4f}" for tag, miou in mious.items()]


def _with_config(lines, config: Path, seed: int | None, out: Path | None, **own):
    """``lines`` run on the config file ``config``, with the given overrides."""
    loaded = pipeline.load_config(config)
    if seed is not None:
        loaded.seed = seed
    if out is not None:
        loaded.out_dir = out
    return lines(loaded, **own)


def _config_command(help_text: str, own: dict, lines):
    """The row of a subcommand that runs ``lines(config, **own options)`` on
    a pipeline config; ``own`` maps its own flags to add_argument keywords."""
    return help_text, {
        "--config": dict(type=Path, required=True, help="pipeline config file"),
        "--seed": dict(type=int, default=None, help="override the config seed"),
        "--out": dict(type=Path, default=None, help="override the output directory"),
        **own,
    }, partial(_with_config, lines)


_THREADS = {"--threads": dict(type=int, default=1, help="worker threads for per-scene stages")}

# Every subcommand: name -> (help, options as flag -> add_argument keywords,
# run(**parsed options) -> the lines it prints). Options that default to
# SUPPRESS are left out when unset, so the library function's own defaults
# apply.
COMMANDS = {
    "gen-scenes": ("generate template scenes plus a manifest", {
        "--out": dict(type=Path, required=True),
        "--count": dict(type=int, default=10),
        "--seed": dict(type=int, default=0),
        "--density": dict(type=float, default=argparse.SUPPRESS),
        "--role": dict(choices=("source", "target"), default="source"),
        "--templates": dict(
            type=lambda s: tuple(s.split(",")), default=argparse.SUPPRESS,
            help=f"comma-separated template names (default: all of {', '.join(template_names())})",
        ),
        "--format": dict(choices=[f.value for f in FileFormat], dest="fmt", default=argparse.SUPPRESS),
    }, lambda out, **options: [pipeline.generate_scene_set(out, **options)]),
    "make-toy-benchmark": ("build the desk-scale benchmark", {
        "--out": dict(type=Path, required=True),
        "--seed": dict(type=int, default=argparse.SUPPRESS),
        "--source-scenes": dict(type=int, dest="n_source", metavar="N", default=argparse.SUPPRESS),
        "--target-scenes": dict(type=int, dest="n_target", metavar="N", default=argparse.SUPPRESS),
        "--density": dict(type=float, default=argparse.SUPPRESS),
    }, lambda out, **options: [pipeline.make_toy_benchmark(out, **options)]),
    "scan": _config_command("apply the scan simulation to the source scenes", {},
                            lambda config: [pipeline.stage_scan(config)]),
    "mix": _config_command("compose sample mixed scenes", {"--count": dict(type=int, default=5)},
                           lambda config, count: [pipeline.stage_mix(config, count=count)]),
    "pseudo-label": _config_command("generate pseudo labels with the pretrained model", _THREADS,
                                    lambda config, threads: [pipeline.stage_pseudo_label(config, threads)]),
    "pretrain": _config_command("train the scan-augmented source model", {},
                                lambda config: [pipeline.stage_pretrain(config, with_scan_sim=True)]),
    "selftrain": _config_command("self-train from the pretrained checkpoint", {},
                                 lambda config: [pipeline.stage_selftrain(config)]),
    "evaluate": _config_command("evaluate existing checkpoints on target ground truth", _THREADS,
                                lambda config, threads: _mious(pipeline.stage_evaluate(config, threads))),
    "run-all": _config_command("run every stage and write the report", _THREADS,
                               lambda config, threads: [*_mious(pipeline.run_pipeline(config, threads)),
                                                        config.out_dir / "report.txt"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, run) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    command, run = options.pop("command"), options.pop("run")
    try:
        with pipeline._stage(command):
            for line in run(**options):
                print(line)
    except StageError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
