"""StudySupervisor and the error taxonomy: budgets, signals, hung shards."""

import multiprocessing
import signal
import threading

import pytest

from repro.errors import (
    EXIT_INTERRUPTED,
    DataError,
    DeadlineExceeded,
    ReproError,
    ShardTimeoutError,
    StageError,
    StudyInterrupted,
    TransportError,
    classify_error,
    wrap_error,
)
from repro.measure.supervise import StudySupervisor


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# --- taxonomy ----------------------------------------------------------


class TestTaxonomy:
    def test_categories(self):
        assert TransportError("x").category == "transport"
        assert ShardTimeoutError("x").category == "timeout"
        assert DataError("x").category == "data"
        assert StudyInterrupted("x").category == "interrupted"
        assert DeadlineExceeded(5.0).category == "deadline"

    def test_interrupt_hierarchy(self):
        # Resumable interrupts are ReproErrors but never TransportErrors:
        # the retry ladder must not eat them.
        assert issubclass(DeadlineExceeded, StudyInterrupted)
        assert issubclass(StudyInterrupted, ReproError)
        assert not issubclass(StudyInterrupted, TransportError)

    def test_stage_error_names_the_stage(self):
        cause = ValueError("boom")
        err = StageError("pinning", cause)
        assert err.stage == "pinning"
        assert err.cause is cause
        assert "pinning" in str(err) and "boom" in str(err)

    def test_classify_error(self):
        assert classify_error(ShardTimeoutError("t")) == "timeout"
        assert classify_error(multiprocessing.TimeoutError()) == "timeout"
        assert classify_error(TimeoutError()) == "timeout"
        assert classify_error(RuntimeError("x")) == "transport"
        assert classify_error(DataError("x")) == "data"

    def test_wrap_error_is_idempotent(self):
        original = TransportError("already wrapped")
        assert wrap_error(original) is original

    def test_wrap_error_preserves_the_cause_and_message(self):
        cause = RuntimeError("worker died")
        wrapped = wrap_error(cause)
        assert isinstance(wrapped, TransportError)
        assert wrapped.__cause__ is cause
        assert "RuntimeError: worker died" in str(wrapped)

    def test_wrap_error_refuses_to_swallow_interrupts(self):
        with pytest.raises(StudyInterrupted):
            wrap_error(StudyInterrupted("received SIGINT"))

    def test_exit_code_is_ex_tempfail(self):
        assert EXIT_INTERRUPTED == 75


# --- supervisor budgets ------------------------------------------------


class TestDeadline:
    def test_poll_is_quiet_inside_the_deadline(self):
        clock = FakeClock()
        with StudySupervisor(deadline_s=10.0, clock=clock) as sup:
            clock.now = 9.9
            sup.poll()

    def test_poll_raises_a_resumable_interrupt_past_the_deadline(self):
        clock = FakeClock()
        with StudySupervisor(deadline_s=10.0, clock=clock) as sup:
            clock.now = 10.1
            with pytest.raises(DeadlineExceeded) as excinfo:
                sup.poll()
        assert isinstance(excinfo.value, StudyInterrupted)
        assert excinfo.value.deadline_s == 10.0

    def test_no_deadline_means_no_interrupt(self):
        clock = FakeClock()
        with StudySupervisor(clock=clock) as sup:
            clock.now = 1e9
            sup.poll()


class TestRetryBudget:
    def test_unbounded_by_default(self):
        sup = StudySupervisor()
        assert all(sup.consume_retry() for _ in range(1000))
        assert sup.retries_spent == 0

    def test_budget_is_spent_study_wide(self):
        sup = StudySupervisor(retry_budget=2)
        assert sup.consume_retry()
        assert sup.consume_retry()
        assert not sup.consume_retry()
        assert not sup.consume_retry()
        assert sup.retries_spent == 2

    def test_zero_budget_quarantines_immediately(self):
        assert not StudySupervisor(retry_budget=0).consume_retry()


class TestCancellation:
    def test_request_cancel_is_idempotent_and_keeps_the_first_reason(self):
        sup = StudySupervisor()
        sup.request_cancel("received SIGINT")
        sup.request_cancel("received SIGTERM")
        assert sup.cancel_requested
        with pytest.raises(StudyInterrupted, match="SIGINT"):
            sup.poll()

    def test_abort_after_stage_fires_after_the_named_stage(self):
        sup = StudySupervisor(abort_after_stage="alias")
        sup.note_stage_complete("round1")
        with pytest.raises(StudyInterrupted, match="alias"):
            sup.note_stage_complete("alias")
        assert sup.stages_completed == ["round1", "alias"]


# --- signal handling ---------------------------------------------------


class TestSignals:
    def test_first_signal_requests_cancel(self):
        with StudySupervisor(handle_signals=True) as sup:
            signal.raise_signal(signal.SIGINT)
            assert sup.cancel_requested
            with pytest.raises(StudyInterrupted, match="SIGINT"):
                sup.poll()

    def test_second_signal_restores_and_redelivers(self):
        with pytest.raises(KeyboardInterrupt):
            with StudySupervisor(handle_signals=True):
                signal.raise_signal(signal.SIGINT)
                signal.raise_signal(signal.SIGINT)

    def test_handlers_are_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with StudySupervisor(handle_signals=True):
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_non_main_thread_skips_installation(self):
        failures = []

        def run():
            try:
                with StudySupervisor(handle_signals=True) as sup:
                    sup.poll()
            except Exception as exc:  # pragma: no cover - diagnostic only
                failures.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert failures == []


# --- hung shards: the shard timeout is the one wait horizon ----------


class _NeverReadyHandle:
    """A pool AsyncResult stand-in that never produces."""

    def get(self, timeout):
        raise multiprocessing.TimeoutError


def _executor(tiny_world, supervisor, shard_timeout=None):
    from repro.measure.executor import RetryPolicy, ShardedExecutor
    from repro.measure.traceroute import TracerouteEngine

    return ShardedExecutor(
        tiny_world,
        TracerouteEngine(tiny_world),
        retry=RetryPolicy(shard_timeout=shard_timeout, backoff_base_s=0.0),
        supervisor=supervisor,
    )


class TestHungShards:
    def test_shard_timeout_fires_without_a_horizon(self, tiny_world):
        sup = StudySupervisor()
        executor = _executor(tiny_world, sup, shard_timeout=0.1)
        with pytest.raises(ShardTimeoutError):
            executor._wait_for_shard(_NeverReadyHandle())

    def test_cancel_interrupts_the_wait(self, tiny_world):
        sup = StudySupervisor()
        sup.request_cancel("received SIGTERM")
        executor = _executor(tiny_world, sup, shard_timeout=60.0)
        with pytest.raises(StudyInterrupted):
            executor._wait_for_shard(_NeverReadyHandle())
