"""Command-line interface: run one experiment cell from the shell.

Examples::

    python -m repro run --dataset hetrec-del --method L-IMCAT --scale 0.1
    python -m repro stats --scale 0.1
    python -m repro list

The CLI is a thin veneer over :mod:`repro.bench`; every knob maps to a
:class:`~repro.bench.BenchSettings` field.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import obs
from .bench import ABLATIONS, EXTRAS, METHODS, BenchSettings, run_method
from .bench.harness import prepare_split, run_recipe
from .bench.tables import format_table
from .data import DATASET_ORDER, compute_statistics, generate_preset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IMCAT reproduction experiment runner",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="train + evaluate one method")
    run.add_argument("--dataset", required=True, choices=DATASET_ORDER)
    run.add_argument(
        "--method", required=True,
        choices=sorted(set(METHODS) | set(ABLATIONS) | set(EXTRAS)),
    )
    run.add_argument("--scale", type=float, default=0.05)
    run.add_argument("--epochs", type=int, default=40)
    run.add_argument("--embed-dim", type=int, default=32)
    run.add_argument("--batch-size", type=int, default=512)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="snapshot full training state under DIR (repro.ckpt)",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="epochs between snapshots (with --checkpoint-dir)",
    )
    run.add_argument(
        "--keep-last", type=int, default=3, metavar="N",
        help="rolling retention: newest snapshots kept (plus the best)",
    )
    run.add_argument(
        "--resume", nargs="?", const="auto", default=None, metavar="FROM",
        help="resume training: bare --resume picks the newest valid "
             "snapshot under --checkpoint-dir; or pass a checkpoint "
             "file/directory",
    )
    run.add_argument(
        "--retrieval", action="store_true",
        help="after training, also evaluate through the cluster-routed "
             "approximate index and print the exact-vs-approximate "
             "comparison (repro.retrieval)",
    )
    run.add_argument(
        "--n-probe", type=int, default=2, metavar="P",
        help="partitions probed per user with --retrieval",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="enable tracing (repro.obs) and export the span tree to "
             "FILE as JSONL",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="export run metrics to FILE (Prometheus text format; "
             ".json/.jsonl extensions switch to a JSONL snapshot)",
    )
    run.add_argument(
        "--profile", nargs="?", const=25, default=None, type=int,
        metavar="N",
        help="attach the sampling profiler and print the top-N hottest "
             "collapsed stacks after the run",
    )

    stats = commands.add_parser("stats", help="print Table I statistics")
    stats.add_argument("--scale", type=float, default=0.05)
    stats.add_argument("--seed", type=int, default=1)

    commands.add_parser("list", help="list datasets and methods")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    if args.trace_out is not None:
        obs.enable_tracing()
    profiler = None
    if args.profile is not None:
        profiler = obs.SamplingProfiler().start()
    settings = BenchSettings(
        scale=args.scale,
        embed_dim=args.embed_dim,
        epochs=args.epochs,
        batch_size=args.batch_size,
        train_seed=args.seed,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        keep_last=args.keep_last,
        resume_from=args.resume,
    )
    try:
        if args.retrieval:
            # Keep the split and model around for the approximate pass.
            recipe = (
                METHODS.get(args.method)
                or ABLATIONS.get(args.method)
                or EXTRAS.get(args.method)
            )
            dataset, split = prepare_split(args.dataset, settings)
            cell = run_recipe(
                recipe, dataset, split, args.method, settings,
                keep_model=True,
            )
        else:
            cell = run_method(args.dataset, args.method, settings)
    finally:
        if profiler is not None:
            profiler.stop()
    print(
        format_table(
            ["dataset", "method", "R@20 (%)", "N@20 (%)", "time (s)", "epochs"],
            [[cell.dataset, cell.method, 100 * cell.recall,
              100 * cell.ndcg, cell.wall_time, cell.epochs_run]],
        )
    )
    if args.retrieval:
        from .eval import Evaluator
        from .retrieval import ApproximateScorer, build_index

        model = cell.trained.model
        index = build_index(
            model,
            popularity=split.train.item_degrees(),
            seed=args.seed,
        )
        scorer = ApproximateScorer(model, index, n_probe=args.n_probe)
        evaluator = Evaluator(
            split.train, split.test,
            top_n=(settings.top_n,), metrics=("recall", "ndcg"),
        )
        approx = evaluator.evaluate(scorer)
        n = settings.top_n
        scored = scorer.scored_items / max(scorer.queries, 1)
        print(
            format_table(
                ["mode", f"R@{n} (%)", f"N@{n} (%)", "scored/query"],
                [
                    ["exact", 100 * cell.recall, 100 * cell.ndcg,
                     dataset.num_items],
                    [f"approx (n_probe={args.n_probe})",
                     100 * approx[f"recall@{n}"],
                     100 * approx[f"ndcg@{n}"], scored],
                ],
                title=(
                    f"retrieval: {index.num_partitions} partitions "
                    f"({index.strategy}), "
                    f"{dataset.num_items / max(scored, 1e-9):.1f}x fewer "
                    f"scored items"
                ),
            )
        )
    if profiler is not None:
        print(profiler.format_top(args.profile))
    if args.trace_out is not None:
        obs.get_tracer().export_jsonl(args.trace_out)
        print(f"trace: {args.trace_out}")
    if args.metrics_out is not None:
        registry = obs.get_metrics()
        if args.metrics_out.endswith((".json", ".jsonl")):
            obs.write_metrics_jsonl(registry, args.metrics_out)
        else:
            obs.write_metrics(registry, args.metrics_out)
        print(f"metrics: {args.metrics_out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_ORDER:
        dataset = generate_preset(name, scale=args.scale, seed=args.seed)
        row = compute_statistics(dataset).as_row()
        rows.append([name] + list(row.values()))
    header = ["dataset", "#User", "#Item", "#Tag", "#UI", "UI dens",
              "UI deg", "#IT", "IT dens", "IT deg"]
    print(format_table(header, rows, title=f"Table I @ scale={args.scale}"))
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("datasets:")
    for name in DATASET_ORDER:
        print(f"  {name}")
    print("methods (Table II):")
    for name in METHODS:
        print(f"  {name}")
    print("ablations (Table III):")
    for name in ABLATIONS:
        print(f"  {name}")
    print("extras:")
    for name in EXTRAS:
        print(f"  {name}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "stats": cmd_stats, "list": cmd_list}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
