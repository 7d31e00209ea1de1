"""Command-line front end: budget planning, runs and comparisons.

Commands:

- ``plan``     print the budget schedule for a dataset shape and epsilon
- ``run``      one clustering run, report written as JSON
- ``compare``  NICV grid over variants x epsilons x seeds, CSV + JSON

Exit status: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.  Report files never contain wall-clock values, so rerunning the
same command reproduces them byte for byte; timings and the run's work
record go to stdout only.

The default output directory is the current one, overridable with the
``DPKMEANS_OUT_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from dpkmeans.canopy import CanopyParams
from dpkmeans.core import Dataset, InvalidInputError
from dpkmeans.engine import EngineConfig, Variant, run_baseline, run_edpdcs
from dpkmeans.evaluation import compare_variants, write_comparison_csv
from dpkmeans.ingestion import (
    ColumnSpec,
    CsvFormatError,
    PRESETS,
    load_csv,
    normalize,
    synthetic_blobs,
)
from dpkmeans.mechanism import BudgetExhaustedError
from dpkmeans.planner import PlannerInputs, make_plan

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

#: Default epsilon grid for comparison sweeps.
DEFAULT_EPSILONS = "0.5,1,1.5,2,3"

_VARIANTS = {
    "edpdcs": Variant.EDPDCS,
    "rf_dpkm": Variant.RF_DPKM,
    "rf": Variant.RF_DPKM,
    "ru_dpkm": Variant.RU_DPKM,
    "ru": Variant.RU_DPKM,
    "nonprivate": Variant.NONPRIVATE,
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with status 1, not 2."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _out_dir() -> str:
    return os.environ.get("DPKMEANS_OUT_DIR", ".")


def _out_path(name: str, override: str | None) -> str:
    if override:
        return override
    return os.path.join(_out_dir(), name)


def _parse_list(text: str, flag: str, kind: type = float) -> list:
    """Comma-separated values of ``kind``; ``int`` refuses "2.5" rather than truncating."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInputError(
            f"{flag} expects comma-separated {kind.__name__} values, got {text!r}"
        ) from exc
    if not values:
        raise InvalidInputError(f"{flag} must not be empty")
    return values


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="CSV file to cluster")
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named column layout (and default k) for --dataset",
    )
    parser.add_argument(
        "--features",
        help="comma-separated 0-based feature column indices for --dataset",
    )
    parser.add_argument(
        "--has-header",
        action="store_true",
        help="skip the first line of --dataset",
    )
    parser.add_argument(
        "--synthetic",
        metavar="N,D,CENTERS[,SEED]",
        help="generate Gaussian blobs instead of reading a file",
    )


def _add_planner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho", type=float, default=None, help="cluster-imbalance factor")
    parser.add_argument(
        "--mse-threshold", type=float, default=None, help="planner error threshold"
    )
    parser.add_argument("--t-cap", type=int, default=None, help="iteration cap")
    parser.add_argument(
        "--eps-m-override",
        type=float,
        default=None,
        help="externally supplied minimum per-iteration budget",
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, help="cluster count (preset supplies a default)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--partitions", type=int, default=1, help="map-block groups run concurrently"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads (default: min(partitions, available cores))",
    )
    _add_planner_args(parser)
    parser.add_argument("--t1", type=float, default=None, help="loose canopy radius")
    parser.add_argument("--t2", type=float, default=None, help="tight canopy radius")
    parser.add_argument(
        "--subsample",
        type=int,
        default=None,
        help="canopy subsample size (default 20000)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpkmeans", description=__doc__.split("\n\n")[0])
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print the budget schedule")
    p_plan.add_argument("--n", type=int, help="dataset rows (or use --dataset)")
    p_plan.add_argument("--d", type=int, help="feature count (or use --dataset)")
    p_plan.add_argument("--k", type=int, required=True)
    p_plan.add_argument("--eps", type=float, required=True, help="total privacy budget")
    _add_planner_args(p_plan)
    _add_dataset_args(p_plan)

    p_run = sub.add_parser("run", help="one clustering run, JSON report")
    _add_dataset_args(p_run)
    _add_run_args(p_run)
    p_run.add_argument(
        "--variant",
        default="edpdcs",
        choices=sorted(_VARIANTS),
        help="clustering strategy (default edpdcs)",
    )
    p_run.add_argument(
        "--eps", type=float, default=None, help="total privacy budget (default 1)"
    )
    p_run.add_argument("--out", help="report path (default run_report.json)")

    p_cmp = sub.add_parser("compare", help="NICV grid over variants and epsilons")
    _add_dataset_args(p_cmp)
    _add_run_args(p_cmp)
    p_cmp.add_argument(
        "--eps",
        default=DEFAULT_EPSILONS,
        help=f"comma-separated budgets (default {DEFAULT_EPSILONS})",
    )
    p_cmp.add_argument("--seeds", type=int, default=10, help="seeds per cell (default 10)")
    p_cmp.add_argument("--out-csv", help="grid path (default comparison.csv)")
    p_cmp.add_argument("--out-json", help="full report path (default comparison.json)")

    return parser


def _check_layout_flags(args: argparse.Namespace) -> None:
    """Refuse the CSV layout flags unless a CSV is given; no other input reads them."""
    if args.dataset:
        return
    for name in ("preset", "features", "has_header"):
        if getattr(args, name):
            flag = "--" + name.replace("_", "-")
            raise InvalidInputError(f"{flag} needs --dataset")


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, int | None]:
    """Resolve the dataset selection flags; returns (normalized data, default k)."""
    if args.dataset and args.synthetic:
        raise InvalidInputError("--dataset and --synthetic are mutually exclusive")
    if args.synthetic or not args.dataset:
        spec = args.synthetic or "2000,4,3"
        parts = _parse_list(spec, "--synthetic", int)
        if len(parts) not in (3, 4):
            raise InvalidInputError("--synthetic expects N,D,CENTERS[,SEED]")
        n, d, centers = parts[:3]
        data_seed = parts[3] if len(parts) == 4 else 0
        if not args.synthetic:
            logger.info("no dataset given; using built-in blobs %s", spec)
        return synthetic_blobs(n, d, centers, data_seed), centers

    if args.preset and args.features:
        raise InvalidInputError("--preset and --features are mutually exclusive")
    if args.preset:
        columns, default_k, has_header = PRESETS[args.preset]
    elif args.features:
        indices = _parse_list(args.features, "--features", int)
        columns = [ColumnSpec(index=i, name=f"f{i}") for i in indices]
        default_k, has_header = None, args.has_header
    else:
        raise InvalidInputError("--dataset needs either --preset or --features")
    loaded = load_csv(args.dataset, columns, has_header=has_header or args.has_header)
    data, _ = normalize(loaded.data, loaded.columns)
    return data, default_k


def _resolve_k(args: argparse.Namespace, default_k: int | None) -> int:
    if args.k is not None:
        return args.k
    if default_k is not None:
        return default_k
    raise InvalidInputError("--k is required for this dataset selection")


#: Each input flag, under the ``Variant`` predicate that says whether a
#: variant reads it, mapped to the ``PlannerInputs`` or ``CanopyParams`` field
#: it sets.  ``run`` refuses a flag its variant does not read.  ``--eps`` sets
#: no field here: each command reads the budget itself.
_INPUT_FLAGS = {
    "takes_planner_inputs": {
        "rho": "rho",
        "mse_threshold": "mse_threshold",
        "t_cap": "t_cap",
        "eps_m_override": "epsilon_m_override",
    },
    "has_canopy_start": {"t1": "t1", "t2": "t2", "subsample": "subsample_size"},
    "spends_epsilon": {"eps": None},
}


def _given_fields(args: argparse.Namespace, reads: str) -> dict:
    """The fields that the given flags under ``reads`` set, by field name."""
    return {
        field: getattr(args, flag)
        for flag, field in _INPUT_FLAGS[reads].items()
        if getattr(args, flag) is not None
    }


def cmd_plan(args: argparse.Namespace) -> int:
    selected = args.dataset or args.synthetic
    if args.n is not None or args.d is not None:
        if selected:
            raise InvalidInputError("--n/--d and a dataset selection are mutually exclusive")
        if args.n is None or args.d is None:
            raise InvalidInputError("--n and --d go together")
        n_rows, n_dims = args.n, args.d
    elif selected:
        data, _ = _load_dataset(args)
        n_rows, n_dims = data.n_rows, data.n_dims
    else:
        raise InvalidInputError("plan needs --n and --d, or a dataset selection")
    given = _given_fields(args, "takes_planner_inputs")
    plan = make_plan(PlannerInputs(n_rows, n_dims, args.k, args.eps, **given))

    print(f"dataset shape        N={n_rows} d={n_dims} k={args.k}")
    print(f"epsilon total        {plan.epsilon_total:g}")
    print(f"epsilon_m computed   {plan.epsilon_m_computed:.6g}")
    if args.eps_m_override is not None:
        print(f"epsilon_m override   {plan.epsilon_m:.6g}")
    print(f"iterations T         {plan.iterations}")
    print(f"epsilon per iter     {plan.epsilon_per_iter:.6g}")
    print(f"epsilon per dim      {plan.epsilon_dim:.6g}")
    print(f"epsilon per count    {plan.epsilon_count:.6g}")
    print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    variant = _VARIANTS[args.variant]
    for reads, names in _INPUT_FLAGS.items():
        for name in names:
            if getattr(args, name) is not None and not getattr(variant, reads):
                flag = "--" + name.replace("_", "-")
                raise InvalidInputError(f"{flag} has no effect on variant {args.variant}")
    data, default_k = _load_dataset(args)
    k = _resolve_k(args, default_k)
    config = EngineConfig(
        variant=variant,
        n_partitions=args.partitions,
        master_seed=args.seed,
        threads=args.threads,
    )
    epsilon = inputs = canopy = None
    if variant.spends_epsilon:
        epsilon = 1.0 if args.eps is None else args.eps
    if variant.takes_planner_inputs:
        given = _given_fields(args, "takes_planner_inputs")
        inputs = PlannerInputs(data.n_rows, data.n_dims, k, epsilon, **given)
    if variant.has_canopy_start:
        canopy = CanopyParams(**_given_fields(args, "has_canopy_start"))
    if variant is Variant.EDPDCS:
        _, _, report = run_edpdcs(data, k, inputs, canopy, config)
    else:
        _, _, report = run_baseline(
            data, k, epsilon, config, planner_inputs=inputs, canopy_params=canopy
        )

    out = _out_path("run_report.json", args.out)
    with open(out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(
        f"{report.variant}: nicv={report.nicv:.6g} "
        f"iterations={report.iterations_run} "
        f"budget_spent={report.budget_spent:.6g}"
    )
    print(f"report written to {out}")
    print(f"wall clock (not in report): {report.timings_ms['total_ms']:.1f} ms")
    work = report.work
    print(
        f"work (not in report): {len(work)} passes, "
        f"{sum(entry.from_store for entry in work)} from the store, "
        f"{sum(entry.rows_read for entry in work)} rows read, "
        f"{sum(entry.rows_labelled for entry in work)} rows labelled, "
        f"{sum(entry.blocks_summed for entry in work)} blocks summed"
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    data, default_k = _load_dataset(args)
    k = _resolve_k(args, default_k)
    epsilons = _parse_list(args.eps, "--eps")
    given = _given_fields(args, "takes_planner_inputs")
    summary = compare_variants(
        data,
        k,
        epsilons,
        args.seeds,
        base_seed=args.seed,
        planner_inputs=PlannerInputs(data.n_rows, data.n_dims, k, epsilons[0], **given),
        canopy_params=CanopyParams(**_given_fields(args, "has_canopy_start")),
        n_partitions=args.partitions,
        threads=args.threads,
    )
    out_csv = _out_path("comparison.csv", args.out_csv)
    out_json = _out_path("comparison.json", args.out_json)
    write_comparison_csv(summary, out_csv)
    with open(out_json, "w") as fh:
        fh.write(summary.to_json())
        fh.write("\n")

    print(f"{'variant':<12} {'epsilon':>8} {'mean_nicv':>12} {'sd_nicv':>12}")
    for cell in summary.cells:
        eps_text = "-" if cell.epsilon is None else f"{cell.epsilon:g}"
        print(
            f"{cell.variant:<12} {eps_text:>8} "
            f"{cell.mean_nicv:>12.6f} {cell.sd_nicv:>12.6f}"
        )
    print(f"grid written to {out_csv}")
    print(f"full report written to {out_json}")
    return EXIT_OK


_COMMANDS = {
    "plan": cmd_plan,
    "run": cmd_run,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _check_layout_flags(args)
        return _COMMANDS[args.command](args)
    except (CsvFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExhaustedError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        logger.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
