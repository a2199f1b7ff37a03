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


_THREADS = {"--threads": dict(type=int, default=1, help="worker threads for per-scene stages")}

# Each subcommand that reads a config: name -> (help, own options as flag ->
# add_argument keywords, lines(config, **own options) -> the lines it prints).
COMMANDS = {
    "scan": ("apply the scan simulation to the source scenes", {},
             lambda config: [pipeline.stage_scan(config)]),
    "mix": ("compose sample mixed scenes", {"--count": dict(type=int, default=5)},
            lambda config, count: [pipeline.stage_mix(config, count=count)]),
    "pseudo-label": ("generate pseudo labels with the pretrained model", _THREADS,
                     lambda config, threads: [pipeline.stage_pseudo_label(config, threads)]),
    "pretrain": ("train the scan-augmented source model", {},
                 lambda config: [pipeline.stage_pretrain(config, with_scan_sim=True)]),
    "selftrain": ("self-train from the pretrained checkpoint", {},
                  lambda config: [pipeline.stage_selftrain(config)]),
    "evaluate": ("evaluate existing checkpoints on target ground truth", _THREADS,
                 lambda config, threads: _mious(pipeline.stage_evaluate(config, threads))),
    "run-all": ("run every stage and write the report", _THREADS,
                lambda config, threads: [*_mious(pipeline.run_pipeline(config, threads)),
                                         config.out_dir / "report.txt"]),
}


def _with_config(lines, config: Path, seed: int | None, out: Path | None, **own):
    """``lines`` run on the config file ``config``, with the given overrides."""
    loaded = pipeline.load_config(config)
    if seed is not None:
        loaded.seed = seed
    if out is not None:
        loaded.out_dir = out
    return lines(loaded, **own)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each parser sets run(**its options) -> the lines to print. Options
    # declared with SUPPRESS are left out when unset, so the library
    # function's own defaults apply.
    p = sub.add_parser("gen-scenes", help="generate template scenes plus a manifest")
    p.set_defaults(run=lambda out, **options: [pipeline.generate_scene_set(out, **options)])
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
    p.set_defaults(run=lambda out, **options: [pipeline.make_toy_benchmark(out, **options)])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--source-scenes", type=int, dest="n_source", metavar="N")
    p.add_argument("--target-scenes", type=int, dest="n_target", metavar="N")
    p.add_argument("--density", type=float)

    for name, (help_text, own, lines) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=partial(_with_config, lines))
        p.add_argument("--config", type=Path, required=True, help="pipeline config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=None, help="override the output directory")
        for flag, keywords in own.items():
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
