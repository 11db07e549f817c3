"""``repro-experiment``, or ``python -m repro.workload --figure 3 --scale
small``: Figure 3 or 4 of the paper (:mod:`repro.workload.experiment`)."""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .experiment import (
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    ExperimentConfig,
    build_environment,
    run_workload_experiment,
)


def _parse_arguments(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce the Youtopia update-exchange experiments (Figures 3 and 4).",
    )
    parser.add_argument(
        "--figure", type=int, choices=(3, 4), default=3, help="which figure to reproduce"
    )
    parser.add_argument(
        "--scale",
        choices=("tiny", "small", "paper"),
        default="small",
        help="experiment scale (paper scale is very slow in pure Python)",
    )
    parser.add_argument("--runs", type=int, default=None, help="override runs per cell")
    parser.add_argument("--updates", type=int, default=None, help="override updates per run")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point."""
    arguments = _parse_arguments(argv)
    if arguments.scale == "paper":
        config = ExperimentConfig.paper_scale()
    elif arguments.scale == "tiny":
        config = ExperimentConfig.tiny_scale()
    else:
        config = ExperimentConfig.small_scale()
    overrides = {}
    if arguments.runs is not None:
        overrides["runs_per_cell"] = arguments.runs
    if arguments.updates is not None:
        overrides["num_updates"] = arguments.updates
    if arguments.seed is not None:
        overrides["seed"] = arguments.seed
    if overrides:
        config = config.scaled(**overrides)

    def progress(workload, mapping_count, algorithm, run_index, statistics):
        print(
            "[{}] mappings={:>3} algo={:<7} run={} aborts={} cascading-requests={}".format(
                workload,
                mapping_count,
                algorithm,
                run_index,
                statistics.aborts,
                statistics.cascading_abort_requests,
            )
        )

    environment = build_environment(config)
    workload_kind = INSERT_WORKLOAD if arguments.figure == 3 else MIXED_WORKLOAD
    result = run_workload_experiment(workload_kind, config, environment, progress)
    print()
    print(result.format_table())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    raise SystemExit(main())
