"""Benchmark of scanmix: one workload per invocation, timed end to end, or
traced layer by layer with ``--trace 1``.

    python3 benchmarks/run.py --workload toy-run-all --seed 0 --seconds 10 --trace 0

Load is a closed loop in this one process: one operation at a time,
``threads=1``, no extra threads or processes. The workload's inputs are
built from ``--seed`` several times (the median is ``setup_s``); then
whole rounds of the same operations run until ``--seconds`` of operation
time has passed (at least the workload's ``min_rounds``; the median round
is ``run_s``). Every round must reproduce the first round's outputs. The
peak memory is read before the checks run, so it is the program's alone;
then the first round's outputs are checked. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One thread of computation: numpy's BLAS would otherwise start a thread
# per core. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / ".traces"
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 100, 3.0


def _import_program():
    """Import scanmix from the checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "scanmix" / "__init__.py").is_file():
        raise SystemExit(f"error: no scanmix package under {src}")
    sys.path.insert(0, str(src))
    import scanmix

    if Path(scanmix.__file__).resolve().parent != (src / "scanmix").resolve():
        raise SystemExit(f"error: imported scanmix from {scanmix.__file__}, not {src}")
    return scanmix


def _setups(workload, work: Path, seed: int, tracer):
    """Build the inputs at least MIN_SETUPS times and until SETUP_BUDGET_S
    has passed; return the last state and the times. A traced run builds
    them once, with tracing on."""
    times, state = [], None
    while len(times) < (1 if tracer else MIN_SETUPS) or (
        not tracer and sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS
    ):
        target = work / f"setup{len(times)}"
        if state is not None:
            state = None          # one set of inputs alive at a time
            shutil.rmtree(work / f"setup{len(times) - 1}")
        target.mkdir(parents=True)
        if tracer:
            tracer.phase = "setup"
        t0 = perf_counter()
        state = workload.setup(target, seed)
        times.append(perf_counter() - t0)
        if tracer:
            tracer.phase = None
    return state, times


def _rounds(workload, state, seconds: float, tracer, error_type):
    """Run whole rounds, at least ``workload.min_rounds``, until ``seconds``
    of operation time has passed. Returns the round times, each round's
    output digests (None for a failed operation), the operations attempted
    and failed, and the first round's errors."""
    round_times, digests, errors = [], [], []
    attempted = failed = 0
    while len(round_times) < workload.min_rounds or sum(round_times) < seconds:
        r = len(round_times)
        elapsed, row = 0.0, []
        for i, op in enumerate(workload.operations(state, r)):
            attempted += 1
            if tracer:
                tracer.phase = "run"
            t0 = perf_counter()
            try:
                output = op()
            except error_type as exc:
                output = exc
            elapsed += perf_counter() - t0
            if tracer:
                tracer.phase = None
            if isinstance(output, error_type):
                failed += 1
                row.append(None)
                if r == 0:
                    errors.append(f"operation {i} failed: {type(output).__name__}: {output}")
            else:
                row.append(workload.digest(state, i, output))
        round_times.append(elapsed)
        digests.append(row)
        workload.between_rounds(state, r)
    return round_times, digests, attempted, failed, errors


def _check(workload, state, digests, error_type) -> list[str]:
    """Every round reproduced the first; the first round's outputs, given
    again by ``workload.outputs_to_check``, pass the workload's checks."""
    failures = checks.check_rounds_agree(digests)
    for i, output in enumerate(workload.outputs_to_check(state)):
        digest = None if isinstance(output, error_type) else workload.digest(state, i, output)
        if digest != digests[0][i]:
            failures.append(f"operation {i}: the checked output differs from round 0's")
        if digest is not None:
            failures += workload.check(state, i, output)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scanmix = _import_program()
    import numpy
    import scipy
    import workloads
    from scanmix.errors import ScanmixError
    from tracing import Tracer, layer_metrics, per_layer_spec

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}")

    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        for note in workload.prepare(args.seed, work / "prepare"):
            print(note)
        if tracer:
            tracer.install(scanmix)
        state, setup_times = _setups(workload, work, args.seed, tracer)
        round_times, digests, attempted, failed, errors = _rounds(
            workload, state, args.seconds, tracer, ScanmixError
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = _check(workload, state, digests, ScanmixError)
        quality = workload.quality(state)
        notes = workload.notes(state)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    run_s = statistics.median(round_times)
    setup_s = statistics.median(setup_times)
    print(f"rounds={len(round_times)} attempted={attempted} failed={failed}")
    print("run_s per round: " + " ".join(f"{t:.4f}" for t in round_times))
    print("setup_s per set-up: " + " ".join(f"{t:.4f}" for t in setup_times))
    for line in notes + errors:
        print(line)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")

    if tracer:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        values = layer_metrics(tracer, round_times, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            **{name: {"value": value, "unit": "%"} for name, value in quality.items()},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
