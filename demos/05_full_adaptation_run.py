"""Build the toy sim-to-real benchmark and run the whole adaptation
pipeline end to end: source-only baseline, scan-augmented pretraining,
pseudo labels, self-training on mixed scenes, evaluation.

The same flow is available from the command line:

    scanmix make-toy-benchmark --out demo_output/benchmark
    scanmix run-all --config demo_output/benchmark/toy.cfg

Run (about a minute):

    python demos/05_full_adaptation_run.py
"""

from pathlib import Path

from scanmix import load_config, make_toy_benchmark, run_pipeline

out = Path("demo_output/benchmark")
config_path = make_toy_benchmark(out, seed=0)
print(f"benchmark written under {out}/ (config: {config_path.name})")
print("  source/: 20 clean scenes, furniture near the walls")
print("  target/: 20 degraded scenes, central furniture, hidden scan config")
print()

config = load_config(config_path)
mious = run_pipeline(config)

print("run complete; ablation mIoU on the target ground truth:")
print(f"  source-only baseline : {mious['source_only']:.3f}")
print(f"  + scan simulation    : {mious['scan_only']:.3f}")
print(f"  + self-training/mix  : {mious['full']:.3f}")
print()
print(f"report, checkpoints, pseudo labels, and metrics CSVs in {config.out_dir}/")
