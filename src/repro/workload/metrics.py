"""Aggregation and rendering of experiment results (the panels of Figs. 3 and 4).

Each experiment cell (workload, number of mappings, algorithm) is run one or
more times; the paper reports, per cell, the average number of aborts, the
average number of cascading abort requests, and — per number of mappings — the
slowdown of PRECISE relative to COARSE in per-update execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple as PyTuple

from ..concurrency.aborts import RunStatistics
from ..obs.stats import mean


@dataclass
class CellResult:
    """Aggregated statistics for one (workload, mapping count, algorithm) cell."""

    workload: str
    mapping_count: int
    algorithm: str
    runs: List[RunStatistics] = field(default_factory=list)

    @property
    def aborts(self) -> float:
        """Mean number of aborts per run (panel (a) of each figure)."""
        return mean([run.aborts for run in self.runs])

    @property
    def cascading_abort_requests(self) -> float:
        """Mean number of cascading abort requests per run (panel (b))."""
        return mean([run.cascading_abort_requests for run in self.runs])

    @property
    def per_update_seconds(self) -> float:
        """Mean per-update wall-clock time (input to panel (c))."""
        return mean([run.per_update_seconds for run in self.runs])

    @property
    def per_update_cost_units(self) -> float:
        """Mean per-update cost units (deterministic proxy for panel (c))."""
        return mean([run.per_update_cost_units for run in self.runs])

    @property
    def updates_executed(self) -> float:
        """Mean number of update executions (submitted plus restarts)."""
        return mean([run.updates_executed for run in self.runs])

    @property
    def frontier_operations(self) -> float:
        """Mean number of frontier operations consumed."""
        return mean([run.frontier_operations for run in self.runs])


@dataclass
class ExperimentResult:
    """All cells of one experiment (one figure = one workload)."""

    workload: str
    cells: List[CellResult] = field(default_factory=list)

    def cell(self, mapping_count: int, algorithm: str) -> CellResult:
        """Look a cell up by coordinates."""
        for candidate in self.cells:
            if (
                candidate.mapping_count == mapping_count
                and candidate.algorithm == algorithm
            ):
                return candidate
        raise KeyError(
            "no cell for {} mappings / {}".format(mapping_count, algorithm)
        )

    def mapping_counts(self) -> List[int]:
        """The mapping densities present, ascending."""
        return sorted({cell.mapping_count for cell in self.cells})

    def algorithms(self) -> List[str]:
        """The algorithms present, in first-seen order."""
        seen: List[str] = []
        for cell in self.cells:
            if cell.algorithm not in seen:
                seen.append(cell.algorithm)
        return seen

    # ------------------------------------------------------------------
    # The three panels
    # ------------------------------------------------------------------
    def precise_slowdown_series(
        self, use_cost_model: bool = False
    ) -> List[PyTuple[int, float]]:
        """Panel (c): per-update time of PRECISE divided by COARSE.

        ``use_cost_model=True`` uses the deterministic cost-unit proxy instead
        of wall-clock time, which is steadier at reduced experiment scale.
        """
        series: List[PyTuple[int, float]] = []
        for count in self.mapping_counts():
            if not (self._has_cell(count, "PRECISE") and self._has_cell(count, "COARSE")):
                continue
            precise = self.cell(count, "PRECISE")
            coarse = self.cell(count, "COARSE")
            if use_cost_model:
                numerator = precise.per_update_cost_units
                denominator = coarse.per_update_cost_units
            else:
                numerator = precise.per_update_seconds
                denominator = coarse.per_update_seconds
            if denominator <= 0:
                continue
            series.append((count, numerator / denominator))
        return series

    def _has_cell(self, mapping_count: int, algorithm: str) -> bool:
        try:
            self.cell(mapping_count, algorithm)
            return True
        except KeyError:
            return False

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format_table(self) -> str:
        """A plain-text rendering of all three panels (one row per density)."""
        lines: List[str] = []
        lines.append("Workload: {}".format(self.workload))
        header = "{:>10} | {:>8} | {:>10} | {:>14} | {:>12} | {:>10}".format(
            "mappings", "algo", "aborts", "casc. requests", "upd. executed", "s/update"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for count in self.mapping_counts():
            for algorithm in self.algorithms():
                if not self._has_cell(count, algorithm):
                    continue
                cell = self.cell(count, algorithm)
                lines.append(
                    "{:>10} | {:>8} | {:>10.1f} | {:>14.1f} | {:>12.1f} | {:>10.4f}".format(
                        count,
                        algorithm,
                        cell.aborts,
                        cell.cascading_abort_requests,
                        cell.updates_executed,
                        cell.per_update_seconds,
                    )
                )
        slowdown = self.precise_slowdown_series()
        if slowdown:
            lines.append("")
            lines.append("Slowdown of PRECISE relative to COARSE (wall clock):")
            for count, factor in slowdown:
                lines.append("  {:>3} mappings: {:.2f}x".format(count, factor))
        slowdown_cost = self.precise_slowdown_series(use_cost_model=True)
        if slowdown_cost:
            lines.append("Slowdown of PRECISE relative to COARSE (cost model):")
            for count, factor in slowdown_cost:
                lines.append("  {:>3} mappings: {:.2f}x".format(count, factor))
        return "\n".join(lines)
