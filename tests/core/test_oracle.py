"""Unit tests for frontier oracles."""

import pytest

from repro.core.frontier import (
    DeleteSubsetOperation,
    ExpandOperation,
    NegativeFrontierRequest,
    PositiveFrontierRequest,
    UnifyOperation,
    plan_backward_repair,
)
from repro.core.oracle import (
    AlwaysExpandOracle,
    AlwaysUnifyOracle,
    CallbackOracle,
    DeferredOracle,
    FrontierPending,
    InteractiveOracle,
    OracleError,
    RandomOracle,
    ScriptedOracle,
)
from repro.core.planner import RepairPlanner
from repro.core.terms import NullFactory
from repro.core.tuples import make_tuple
from repro.core.violations import violations_for_write
from repro.core.writes import delete, insert
from repro.fixtures import genealogy_repository


@pytest.fixture
def positive_request():
    database, mappings = genealogy_repository()
    row = make_tuple("Person", "John")
    database.insert(row)
    violation = violations_for_write(insert(row), list(mappings), database)[0]
    request = RepairPlanner(mappings, NullFactory(prefix="f")).plan(violation, database)
    assert isinstance(request, PositiveFrontierRequest)
    return request, database


@pytest.fixture
def negative_request(travel):
    database, mappings = travel
    removed = make_tuple("R", "XYZ", "Geneva Winery", "Great!")
    database.delete(removed)
    violation = violations_for_write(delete(removed), list(mappings), database)[0]
    request = plan_backward_repair(violation, database)
    assert isinstance(request, NegativeFrontierRequest)
    return request, database


class TestRandomOracle:
    def test_decision_is_one_of_the_alternatives(self, positive_request):
        request, database = positive_request
        oracle = RandomOracle(seed=3)
        decision = oracle.decide(request, database)
        assert any(
            type(decision) is type(alternative) and decision == alternative
            for alternative in request.alternatives()
        )

    def test_seeded_oracle_is_reproducible(self, positive_request):
        request, database = positive_request
        first = RandomOracle(seed=9).decide(request, database)
        second = RandomOracle(seed=9).decide(request, database)
        assert first == second

    def test_reset_restores_the_seed(self, positive_request):
        request, database = positive_request
        oracle = RandomOracle(seed=4)
        first = oracle.decide(request, database)
        oracle.reset()
        assert oracle.decide(request, database) == first


class TestPolicyOracles:
    def test_always_expand(self, positive_request, negative_request):
        request, database = positive_request
        assert isinstance(AlwaysExpandOracle().decide(request, database), ExpandOperation)
        request, database = negative_request
        decision = AlwaysExpandOracle().decide(request, database)
        assert isinstance(decision, DeleteSubsetOperation)

    def test_always_unify_prefers_unification(self, positive_request):
        request, database = positive_request
        decision = AlwaysUnifyOracle().decide(request, database)
        assert isinstance(decision, UnifyOperation)

    def test_always_unify_on_negative_request(self, negative_request):
        request, database = negative_request
        decision = AlwaysUnifyOracle().decide(request, database)
        assert isinstance(decision, DeleteSubsetOperation)
        assert len(decision.rows) == 1


class TestScriptedOracle:
    def test_replays_operations_in_order(self, positive_request):
        request, database = positive_request
        expand = ExpandOperation(request.frontier_tuples[0])
        oracle = ScriptedOracle([expand])
        assert oracle.decide(request, database) is expand
        assert oracle._position == 1

    def test_callable_entries_receive_the_request(self, positive_request):
        request, database = positive_request
        oracle = ScriptedOracle([lambda req, view: ExpandOperation(req.frontier_tuples[0])])
        decision = oracle.decide(request, database)
        assert isinstance(decision, ExpandOperation)

    def test_exhausted_script_raises(self, positive_request):
        request, database = positive_request
        oracle = ScriptedOracle([])
        with pytest.raises(OracleError):
            oracle.decide(request, database)

    def test_reset_rewinds_the_script(self, positive_request):
        request, database = positive_request
        oracle = ScriptedOracle([lambda req, view: ExpandOperation(req.frontier_tuples[0])])
        oracle.decide(request, database)
        oracle.reset()
        assert oracle._position == 0
        oracle.decide(request, database)


class TestCountingAndCallbackOracles:
    def test_callback_oracle_delegates(self, positive_request):
        request, database = positive_request
        seen = []

        def callback(req, view):
            seen.append(req)
            return ExpandOperation(req.frontier_tuples[0])

        oracle = CallbackOracle(callback)
        oracle.decide(request, database)
        assert seen == [request]

    def test_callback_oracle_propagates_errors(self, positive_request):
        request, database = positive_request

        def broken(req, view):
            raise OracleError("the human hung up")

        with pytest.raises(OracleError, match="hung up"):
            CallbackOracle(broken).decide(request, database)

        def crashing(req, view):
            raise ZeroDivisionError("bug in the callback")

        # Non-oracle exceptions must surface unchanged, not be swallowed.
        with pytest.raises(ZeroDivisionError):
            CallbackOracle(crashing).decide(request, database)


class TestDeferredOracle:
    def test_decide_parks_with_a_pending_decision(self, positive_request):
        request, database = positive_request
        oracle = DeferredOracle()
        with pytest.raises(FrontierPending) as excinfo:
            oracle.decide(request, database)
        decision = excinfo.value.decision
        assert decision.request is request
        assert not decision.answered and not decision.cancelled
        assert oracle.pending() == [decision]

    def _park(self, oracle, request, database):
        with pytest.raises(FrontierPending) as excinfo:
            oracle.decide(request, database)
        return excinfo.value.decision

    def test_post_by_index_resolves_an_alternative(self, positive_request):
        request, database = positive_request
        oracle = DeferredOracle()
        decision = self._park(oracle, request, database)
        answered = oracle.post(decision.decision_id, 0)
        assert answered.answered
        assert answered.answer == request.alternatives()[0]
        assert oracle.pending() == []

    def test_post_by_operation(self, positive_request):
        request, database = positive_request
        oracle = DeferredOracle()
        decision = self._park(oracle, request, database)
        expand = ExpandOperation(request.frontier_tuples[0])
        assert oracle.post(decision.decision_id, expand).answer is expand

    def test_duplicate_answer_is_rejected(self, positive_request):
        request, database = positive_request
        oracle = DeferredOracle()
        decision = self._park(oracle, request, database)
        oracle.post(decision.decision_id, 0)
        with pytest.raises(OracleError, match="already answered"):
            oracle.post(decision.decision_id, 1)

    def test_unknown_decision_and_bad_index(self, positive_request):
        request, database = positive_request
        oracle = DeferredOracle()
        with pytest.raises(OracleError, match="unknown"):
            oracle.post(99, 0)
        decision = self._park(oracle, request, database)
        with pytest.raises(OracleError, match="alternatives"):
            oracle.post(decision.decision_id, len(request.alternatives()))

    def test_operation_for_a_different_question_is_rejected(
        self, positive_request, negative_request
    ):
        request, database = positive_request
        other_request, _ = negative_request
        oracle = DeferredOracle()
        decision = self._park(oracle, request, database)
        # An operation answering the *negative* request must not be accepted
        # as the answer to the positive one (and vice versa).
        foreign = other_request.alternatives()[0]
        with pytest.raises(OracleError, match="does not answer"):
            oracle.post(decision.decision_id, foreign)
        other_decision = self._park(oracle, other_request, database)
        with pytest.raises(OracleError, match="does not answer"):
            oracle.post(other_decision.decision_id, request.alternatives()[0])

    def test_negative_request_accepts_any_candidate_subset(self, negative_request):
        request, database = negative_request
        oracle = DeferredOracle()
        decision = self._park(oracle, request, database)
        subset = DeleteSubsetOperation(tuple(request.candidates[:2]))
        assert subset not in request.alternatives(), "larger than the menu"
        assert oracle.post(decision.decision_id, subset).answer is subset

    def test_cancelled_decision_rejects_late_answers(self, positive_request):
        request, database = positive_request
        oracle = DeferredOracle()
        decision = self._park(oracle, request, database)
        oracle.cancel(decision.decision_id)
        oracle.cancel(decision.decision_id)  # idempotent
        assert oracle.pending() == []
        with pytest.raises(OracleError, match="cancelled"):
            oracle.post(decision.decision_id, 0)

    def test_reset_forgets_everything(self, positive_request):
        request, database = positive_request
        oracle = DeferredOracle()
        self._park(oracle, request, database)
        oracle.reset()
        assert oracle.pending() == []
        fresh = self._park(oracle, request, database)
        assert fresh.decision_id == 1, "ids restart after reset"


class TestInteractiveOracle:
    def test_prompts_until_a_valid_choice(self, positive_request):
        request, database = positive_request
        answers = iter(["not a number", "999", "0"])
        outputs = []
        oracle = InteractiveOracle(
            input_function=lambda prompt: next(answers), echo=outputs.append
        )
        decision = oracle.decide(request, database)
        assert decision == request.alternatives()[0]
        assert any("Frontier reached" in line for line in outputs)
