"""Command-line entry point.

Usage::

    qnnbench bench run --config experiment.json
    qnnbench bench train --model QNN-3 --size 800 --seed 7 [--data file.csv]
                         [--corpus-size N] [--out model.json]
    qnnbench bench compare --report out/
    qnnbench circuit show --model QNN-1
    qnnbench data gen-synth --size 1000 --seed 3 --out synth.csv

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .benchmark import (
    BASELINE_MODELS,
    CORPUS_SIZE,
    K_FOLDS,
    BenchmarkError,
    ConfigError,
    compute_metrics,
    derive_seed,
    fit_and_predict,
    load_experiment_config,
    residual_stats,
    run_benchmark,
    scaled_subset,
)
from .circuits import format_circuit, gate_census
from .data import (
    DataError,
    feature_matrix,
    gen_synthetic,
    load_dataset,
    minmax_invert_target,
    target_vector,
    write_dataset,
)
from .qnn import config_by_name, save_trained_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnnbench", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)

    bench = groups.add_parser("bench", help="benchmark runs and comparisons")
    bench_sub = bench.add_subparsers(dest="command", required=True)

    run = bench_sub.add_parser("run", help="run a full benchmark from a config file")
    run.add_argument("--config", required=True, help="experiment JSON file")

    tr = bench_sub.add_parser("train", help="train one model on one subset size")
    tr.add_argument("--model", required=True, help="QNN-1..QNN-6, kNN, DTR, or LR")
    tr.add_argument("--size", required=True, type=int, help="subset size (80%% used to train)")
    tr.add_argument("--seed", required=True, type=int)
    tr.add_argument("--data", help="dataset CSV; omitted -> synthetic corpus")
    tr.add_argument("--corpus-size", type=int, default=CORPUS_SIZE,
                    help="synthetic corpus size when --data is omitted")
    tr.add_argument("--out", help="write the trained quantum model as JSON")

    cmp_ = bench_sub.add_parser("compare", help="print the hold-out comparison table of a report")
    cmp_.add_argument("--report", required=True, help="report directory from 'bench run'")

    circuit = groups.add_parser("circuit", help="inspect the quantum circuits")
    circuit_sub = circuit.add_subparsers(dest="command", required=True)
    show = circuit_sub.add_parser("show", help="print a circuit, one instruction per line")
    show.add_argument("--model", required=True, help="QNN-1..QNN-6")

    data = groups.add_parser("data", help="dataset utilities")
    data_sub = data.add_subparsers(dest="command", required=True)
    gen = data_sub.add_parser("gen-synth", help="write a synthetic power-curve CSV")
    gen.add_argument("--size", required=True, type=int)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)

    return parser


def _cmd_bench_run(args) -> int:
    config = load_experiment_config(args.config)
    report = run_benchmark(config)
    for result in report.results:
        print(
            f"{result.model:6s} size={result.size:<5d} "
            f"cv R2={result.cv_mean_r2:+.3f}+/-{result.cv_std_r2:.3f} "
            f"cv RMSE={result.cv_mean_rmse:8.2f} kW  "
            f"holdout R2={result.holdout.r2:+.3f} RMSE={result.holdout.rmse:8.2f} kW"
        )
    if config.output_dir:
        print(f"report written to {config.output_dir}")
    return EXIT_OK


def _cmd_bench_train(args) -> int:
    if args.out and args.model in BASELINE_MODELS:
        raise ConfigError(f"--out saves quantum models only, not {args.model}")
    if args.data:
        rows = load_dataset(args.data)
    else:
        rows = gen_synthetic(args.corpus_size, args.seed)
    X_all, y_all = feature_matrix(rows), target_vector(rows)
    scaler, Xtr, ytr, Xte, yte = scaled_subset(rows, X_all, y_all, args.size, args.seed)

    # the hold-out fit of `bench run`: fold index k under the default folds
    seed = derive_seed(args.seed, args.size, args.model, fold=K_FOLDS)
    pred_scaled, model, history = fit_and_predict(args.model, Xtr, ytr, Xte, seed)
    if model is not None:
        if args.out:
            save_trained_model(args.out, model, scaler, seed, history)
            print(f"model written to {args.out}")
        print(f"final training loss: {history[-1]:.6f}")
    y_true = minmax_invert_target(scaler, yte)
    y_pred = minmax_invert_target(scaler, pred_scaled)
    metrics = compute_metrics(y_true, y_pred)
    stats = residual_stats(y_true, y_pred)
    print(
        f"{args.model} size={args.size} holdout R2={metrics.r2:+.4f} "
        f"RMSE={metrics.rmse:.2f} kW bias={stats.mean:+.2f} kW spread={stats.std:.2f} kW"
    )
    return EXIT_OK


def _cmd_bench_compare(args) -> int:
    summary_path = Path(args.report) / "summary.json"
    if not summary_path.exists():
        raise DataError(f"no summary.json under {args.report}")
    with open(summary_path, encoding="utf-8") as handle:
        summary = json.load(handle)
    sizes = summary["config"]["sizes"]
    by_model: dict[str, dict[int, dict]] = {}
    for entry in summary["results"]:
        by_model.setdefault(entry["model"], {})[entry["size"]] = entry["holdout"]
    header = "model   " + "".join(f"| size {size:<5d} R2 / RMSE(kW) " for size in sizes)
    print(header)
    print("-" * len(header))
    for model, by_size in by_model.items():
        cells = []
        for size in sizes:
            holdout = by_size.get(size)
            if holdout is None:
                cells.append("|        -            ")
            else:
                cells.append(f"| {holdout['r2']:+.3f} / {holdout['rmse_kw']:8.2f}   ")
        print(f"{model:7s} " + "".join(cells))
    if "stability" in summary:
        print("\nstability (lower score = more stable):")
        ranked = sorted(summary["stability"].items(), key=lambda kv: kv[1]["rank"])
        for model, entry in ranked:
            print(f"  {entry['rank']}. {model}  sc={entry['sc']:.3f}")
    return EXIT_OK


def _cmd_circuit_show(args) -> int:
    config = config_by_name(args.model)
    circuit = config.circuit()
    census = gate_census(circuit)
    print(f"# {config.name}: strategy={config.strategy} qubits={config.n_qubits}")
    print(
        f"# gates: single={census.single_qubit} two={census.two_qubit} total={census.total}"
    )
    print(format_circuit(circuit))
    return EXIT_OK


def _cmd_data_gen_synth(args) -> int:
    rows = gen_synthetic(args.size, args.seed)
    write_dataset(args.out, rows)
    powers = np.array([r.power for r in rows])
    print(
        f"wrote {len(rows)} rows to {args.out} "
        f"(power {powers.min():.2f}..{powers.max():.2f} kW)"
    )
    return EXIT_OK


_COMMANDS = {
    ("bench", "run"): _cmd_bench_run,
    ("bench", "train"): _cmd_bench_train,
    ("bench", "compare"): _cmd_bench_compare,
    ("circuit", "show"): _cmd_circuit_show,
    ("data", "gen-synth"): _cmd_data_gen_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[(args.group, args.command)]
    try:
        return command(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BenchmarkError as exc:
        print(f"benchmark failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
