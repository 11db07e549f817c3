"""Tests for the synthetic generators and the experiment harness (Section 6)."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.core import satisfies_all
from repro.core.terms import Constant
from repro.core.update import DeleteOperation, InsertOperation
from repro.workload import (
    ExperimentConfig,
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    build_environment,
    build_workload,
    generate_constant_pool,
    generate_initial_database,
    generate_mappings,
    generate_schema,
    insert_workload,
    mapping_prefix,
    mixed_workload,
    run_cell_once,
    run_workload_experiment,
)
from repro.workload.metrics import CellResult, ExperimentResult, mean

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


class TestSchemaGeneration:
    def test_counts_and_arities(self):
        schema = generate_schema(num_relations=30, rng=random.Random(3))
        assert len(schema) == 30
        assert all(1 <= relation.arity <= 6 for relation in schema)

    def test_seeded_generation_is_deterministic(self):
        first = generate_schema(num_relations=10, rng=random.Random(5))
        second = generate_schema(num_relations=10, rng=random.Random(5))
        assert [r.arity for r in first] == [r.arity for r in second]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_schema(num_relations=0)
        with pytest.raises(ValueError):
            generate_schema(min_arity=4, max_arity=2)

    def test_constant_pool_size_and_uniqueness(self):
        pool = generate_constant_pool(size=50, rng=random.Random(1))
        assert len(pool) == 50
        assert len(set(pool)) == 50


class TestMappingGeneration:
    def _generated(self, count=30, seed=7):
        rng = random.Random(seed)
        schema = generate_schema(num_relations=15, rng=rng)
        pool = generate_constant_pool(size=20, rng=rng)
        return schema, generate_mappings(schema, count, rng=rng, constant_pool=pool)

    def test_mappings_validate_against_the_schema(self):
        schema, mappings = self._generated()
        mappings.validate(schema)
        assert len(mappings) == 30

    def test_side_sizes_respect_the_one_to_three_limit(self):
        _, mappings = self._generated()
        for tgd in mappings:
            assert 1 <= len(tgd.lhs) <= 3
            assert 1 <= len(tgd.rhs) <= 3

    def test_most_mappings_export_a_variable(self):
        _, mappings = self._generated()
        exporting = sum(1 for tgd in mappings if tgd.frontier_variables())
        assert exporting >= len(mappings) * 0.9

    def test_family_contains_joins_constants_and_cycles(self):
        _, mappings = self._generated(count=40)
        has_multi_atom_join = any(
            len(tgd.lhs) > 1
            and any(
                tgd.lhs[0].variable_set() & atom.variable_set() for atom in tgd.lhs[1:]
            )
            for tgd in mappings
        )
        has_constant = any(
            atom.constants() for tgd in mappings for atom in tgd.lhs + tgd.rhs
        )
        assert has_multi_atom_join
        assert has_constant
        assert mappings.has_cycle()

    def test_mapping_prefix_is_monotone(self):
        _, mappings = self._generated()
        smaller = mapping_prefix(mappings, 10)
        larger = mapping_prefix(mappings, 20)
        assert list(smaller) == list(larger)[:10]
        with pytest.raises(ValueError):
            mapping_prefix(mappings, 100)


class TestInitialDatabaseGeneration:
    def test_generated_database_satisfies_all_mappings(self):
        rng = random.Random(11)
        schema = generate_schema(num_relations=8, rng=rng)
        pool = generate_constant_pool(size=15, rng=rng)
        mappings = generate_mappings(schema, 8, rng=rng, constant_pool=pool)
        database = generate_initial_database(schema, mappings, 30, pool, rng=rng)
        assert database.total_count() >= 30
        assert satisfies_all(mappings, database)


class TestWorkloads:
    def test_insert_workload_size_and_values(self):
        rng = random.Random(2)
        schema = generate_schema(num_relations=6, rng=rng)
        pool = generate_constant_pool(size=10, rng=rng)
        operations = insert_workload(schema, 25, pool, rng=rng)
        assert len(operations) == 25
        assert all(isinstance(operation, InsertOperation) for operation in operations)
        values = {
            value.value
            for operation in operations
            for value in operation.row.values
        }
        assert any(str(value).startswith("fresh_") for value in values)
        assert any(value in pool for value in values)

    def test_mixed_workload_ratio_and_shuffling(self, travel_db):
        rng = random.Random(3)
        pool = ["a", "b"]
        operations = mixed_workload(
            travel_db.schema, travel_db, 20, pool, rng=rng, delete_fraction=0.2
        )
        deletes = [op for op in operations if isinstance(op, DeleteOperation)]
        inserts = [op for op in operations if isinstance(op, InsertOperation)]
        assert len(operations) == 20
        assert len(deletes) == 4
        assert len(inserts) == 16
        # Deleted tuples must exist in the initial database.
        for operation in deletes:
            assert travel_db.contains(operation.row)
        # The shuffle must not leave all deletes at the tail.
        assert operations[-4:] != deletes


class TestExperimentHarness:
    def test_tiny_experiment_runs_and_aggregates(self):
        config = ExperimentConfig.tiny_scale()
        environment = build_environment(config)
        result = run_workload_experiment(INSERT_WORKLOAD, config, environment)
        assert result.mapping_counts() == sorted(config.mapping_counts)
        assert set(result.algorithms()) == set(config.algorithms)
        table = result.format_table()
        assert "COARSE" in table and "PRECISE" in table
        # Every cell ran and terminated all its updates.
        for cell in result.cells:
            assert cell.runs
            for run in cell.runs:
                assert run.updates_terminated == run.updates_executed

    def test_workload_builders(self):
        config = ExperimentConfig.tiny_scale()
        environment = build_environment(config)
        inserts = build_workload(environment, INSERT_WORKLOAD, seed=1)
        mixed = build_workload(environment, MIXED_WORKLOAD, seed=1)
        assert len(inserts) == config.num_updates
        assert len(mixed) == config.num_updates
        with pytest.raises(ValueError):
            build_workload(environment, "bogus", seed=1)

    def test_abort_ordering_between_algorithms(self):
        """The headline shape: NAIVE >= COARSE >= PRECISE aborts on a conflict-heavy cell."""
        config = ExperimentConfig.small_scale().scaled(num_updates=25, runs_per_cell=1)
        environment = build_environment(config)
        mapping_count = max(config.mapping_counts)
        naive = run_cell_once(environment, mapping_count, "NAIVE", INSERT_WORKLOAD, seed=7)
        coarse = run_cell_once(environment, mapping_count, "COARSE", INSERT_WORKLOAD, seed=7)
        precise = run_cell_once(environment, mapping_count, "PRECISE", INSERT_WORKLOAD, seed=7)
        assert naive.aborts >= coarse.aborts >= precise.aborts
        assert coarse.cascading_abort_requests >= precise.cascading_abort_requests
        # PRECISE pays for its precision in tracker work.
        assert precise.tracker_cost_units > coarse.tracker_cost_units

    def test_scaled_config_helpers(self):
        paper = ExperimentConfig.paper_scale()
        assert paper.num_updates == 500
        assert paper.mapping_counts == (20, 40, 60, 80, 100)
        custom = ExperimentConfig.small_scale().scaled(num_updates=5)
        assert custom.num_updates == 5

    def test_the_command_line_runs_without_a_runtime_warning(self):
        # ``python -m repro.workload`` runs the package's __main__, which the
        # package itself never imports: no "found in sys.modules" warning.
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.workload",
             "--help"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(_SRC)),
        )
        assert done.returncode == 0, done.stderr
        assert "--figure" in done.stdout


class TestMetrics:
    def test_mean(self):
        assert mean([]) == 0.0
        assert mean([1, 2, 3]) == 2.0

    def test_slowdown_series_uses_precise_over_coarse(self):
        from repro.concurrency.aborts import RunStatistics

        result = ExperimentResult(workload="test")
        coarse_cell = CellResult("test", 10, "COARSE")
        coarse_stats = RunStatistics(algorithm="COARSE", updates_executed=10)
        coarse_stats.wall_seconds = 10.0
        coarse_stats.chase_cost_units = 100
        coarse_cell.runs.append(coarse_stats)
        precise_cell = CellResult("test", 10, "PRECISE")
        precise_stats = RunStatistics(algorithm="PRECISE", updates_executed=10)
        precise_stats.wall_seconds = 20.0
        precise_stats.chase_cost_units = 300
        precise_cell.runs.append(precise_stats)
        result.cells.extend([coarse_cell, precise_cell])
        assert result.precise_slowdown_series() == [(10, 2.0)]
        assert result.precise_slowdown_series(use_cost_model=True) == [(10, 3.0)]
        with pytest.raises(KeyError):
            result.cell(10, "NAIVE")
