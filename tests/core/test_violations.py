"""Unit tests for violation detection (Definitions 2.1 / 2.2) on Figure 2."""

import pytest

from repro.core.terms import LabeledNull, Variable
from repro.core.tuples import make_tuple
from repro.core.violations import (
    ViolationKind,
    find_all_violations,
    satisfies_all,
    violation_queries_for_write,
    violations_for_write,
    violations_for_writes,
)
from repro.core.writes import delete, insert, modify
from repro.fixtures import travel_mappings


class TestFullDetection:
    def test_figure_2_repository_satisfies_all_mappings(self, travel):
        database, mappings = travel
        assert satisfies_all(mappings, database)
        assert find_all_violations(mappings, database) == []

    def test_removing_a_review_creates_a_violation(self, travel):
        database, mappings = travel
        database.delete(make_tuple("R", "XYZ", "Geneva Winery", "Great!"))
        violations = find_all_violations(mappings, database)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.tgd.name == "sigma3"
        witness_relations = {row.relation for row in violation.witness}
        assert witness_relations == {"A", "T"}

    def test_adding_an_unreviewed_tour_creates_a_violation(self, travel):
        database, mappings = travel
        database.insert(make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto"))
        violations = find_all_violations(mappings, database)
        assert any(violation.tgd.name == "sigma3" for violation in violations)


class TestIncrementalDetection:
    def test_insert_seeds_lhs_violation(self, travel):
        database, mappings = travel
        new_tour = make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        database.insert(new_tour)
        violations = violations_for_write(insert(new_tour), list(mappings), database)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.kind is ViolationKind.LHS
        assert not violation.is_rhs()
        assert new_tour in violation.witness

    def test_delete_seeds_rhs_violation(self, travel):
        database, mappings = travel
        removed = make_tuple("R", "XYZ", "Geneva Winery", "Great!")
        database.delete(removed)
        violations = violations_for_write(delete(removed), list(mappings), database)
        assert len(violations) == 1
        assert violations[0].kind is ViolationKind.RHS
        assert violations[0].tgd.name == "sigma3"

    def test_insert_without_violation_reports_nothing(self, travel):
        database, mappings = travel
        new_city_airport = make_tuple("A", "Corning", "Glass Museum")
        database.insert(new_city_airport)
        # There is no tour of the Glass Museum, so sigma3 does not fire.
        assert violations_for_write(insert(new_city_airport), list(mappings), database) == []

    def test_null_replacement_modification_causes_no_violation(self, travel):
        database, mappings = travel
        # Replace x1 (the unknown tour company) consistently in T and R; the
        # paper notes this cannot violate sigma3 because both occurrences change.
        x1 = LabeledNull("x1")
        company = make_tuple("C", "ABC Tours").values[0]
        writes = []
        for row in list(database.tuples_containing_null(x1)):
            database.delete(row)
            modified = row.substitute({x1: company})
            database.insert(modified)
            writes.append(modify(row, modified, x1, company))
        assert violations_for_writes(writes, list(mappings), database) == []

    def test_modify_write_only_checked_against_lhs(self, travel):
        database, mappings = travel
        old_row = make_tuple("R", LabeledNull("x1"), "Niagara Falls", LabeledNull("x2"))
        new_row = make_tuple("R", "ABC Tours", "Niagara Falls", LabeledNull("x2"))
        write = modify(old_row, new_row, LabeledNull("x1"), new_row.values[0])
        queries = violation_queries_for_write(write, list(mappings))
        assert all(kind is ViolationKind.LHS for _, kind in queries)

    def test_recorder_sees_every_violation_query(self, travel):
        database, mappings = travel
        new_tour = make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        database.insert(new_tour)
        seen = []
        violations_for_write(
            insert(new_tour), list(mappings), database, recorder=lambda q, a: seen.append(q)
        )
        # T occurs on the LHS of sigma3 and sigma4: two violation queries.
        assert len(seen) == 2
        assert {query.tgd.name for query in seen} == {"sigma3", "sigma4"}


class TestViolationObject:
    def test_still_holds_tracks_repairs(self, travel):
        database, mappings = travel
        new_tour = make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        database.insert(new_tour)
        violation = violations_for_write(insert(new_tour), list(mappings), database)[0]
        assert violation.still_holds(database)
        database.insert(make_tuple("R", "ABC Tours", "Niagara Falls", "Amazing"))
        assert not violation.still_holds(database)

    def test_still_holds_false_when_witness_removed(self, travel):
        database, mappings = travel
        new_tour = make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        database.insert(new_tour)
        violation = violations_for_write(insert(new_tour), list(mappings), database)[0]
        database.delete(new_tour)
        assert not violation.still_holds(database)

    def test_exported_assignment_restricted_to_frontier_variables(self, travel):
        database, mappings = travel
        new_tour = make_tuple("T", "Niagara Falls", "ABC Tours", "Toronto")
        database.insert(new_tour)
        violation = violations_for_write(insert(new_tour), list(mappings), database)[0]
        exported = violation.exported_assignment()
        assert set(exported) == violation.tgd.frontier_variables()

    def test_describe_mentions_mapping_and_witness(self, travel):
        database, mappings = travel
        removed = make_tuple("R", "XYZ", "Geneva Winery", "Great!")
        database.delete(removed)
        violation = violations_for_write(delete(removed), list(mappings), database)[0]
        text = violation.describe()
        assert "sigma3" in text
        assert "RHS" in text
