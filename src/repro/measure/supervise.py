"""Study-level supervision: deadlines, budgets, and graceful cancellation.

The executor already survives *shard* failures (retry -> quarantine);
:class:`StudySupervisor` supervises the *study*.  It owns three concerns:

* **cancellation** -- SIGINT/SIGTERM (or an explicit
  :meth:`request_cancel`) flips a flag that :meth:`poll` converts into
  :class:`~repro.errors.StudyInterrupted` at the next safe point: the
  executor polls between shard merges, the pipeline between stages, so
  no journal row or stage record is left half-written, and each
  campaign fsyncs its journal on the way out.  A second signal restores
  the default handler and re-raises it, so a stuck study can still be
  killed hard;
* **deadline** -- an optional wall-clock budget for the whole study
  (:class:`~repro.errors.DeadlineExceeded`, a ``StudyInterrupted``
  subtype, so an over-deadline study is *resumable*, not failed);
* **retry budget** -- an optional study-wide cap on shard retries,
  independent of the per-shard ``max_retries``: once spent, further
  failures quarantine immediately instead of burning time on a campaign
  that is clearly sick.

A pooled shard that stays silent is the executor's business, not the
supervisor's: ``RetryPolicy.shard_timeout`` is the one wait horizon, and
the executor polls the supervisor while it waits.  A bare
``StudySupervisor()`` has no deadline and no budget, so it only answers
cancellation; the executor uses one when it is given none.

The supervisor is also the chaos hook for crash-safety tests and CI:
``abort_after_stage`` raises a graceful interrupt after a named stage
completes, ``kill_after_stage`` SIGKILLs the process -- both exercise the
same resume path a real crash would.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from types import FrameType
from typing import Callable, List, Optional

from repro.errors import DeadlineExceeded, StudyInterrupted

_HandlerType = Callable[[int, Optional[FrameType]], None]


class StudySupervisor:
    """Cooperative watchdog for one study run (usable as a context manager).

    All checks happen in :meth:`poll`, called from safe points only --
    the supervisor never interrupts a shard mid-flight, so the
    measurement journals stay consistent by construction.
    """

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        retry_budget: Optional[int] = None,
        handle_signals: bool = False,
        abort_after_stage: Optional[str] = None,
        kill_after_stage: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.deadline_s = deadline_s
        self.retry_budget = retry_budget
        self.handle_signals = handle_signals
        self.abort_after_stage = abort_after_stage
        self.kill_after_stage = kill_after_stage
        self._clock = clock
        self._started_at: Optional[float] = None
        self._retries_spent = 0
        self._cancel_reason: Optional[str] = None
        self._stages_completed: List[str] = []
        self._previous_handlers: List[
            "tuple[int, object]"
        ] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started_at is None:
            self._started_at = self._clock()
        if self.handle_signals:
            self._install_handlers()

    def stop(self) -> None:
        self._restore_handlers()

    def __enter__(self) -> "StudySupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # checks (called from safe points)
    # ------------------------------------------------------------------

    def poll(self) -> None:
        """Raise if the study should stop now (cancel or deadline)."""
        if self._cancel_reason is not None:
            raise StudyInterrupted(self._cancel_reason)
        if (
            self.deadline_s is not None
            and self._started_at is not None
            and self._clock() - self._started_at > self.deadline_s
        ):
            raise DeadlineExceeded(self.deadline_s)

    def request_cancel(self, reason: str) -> None:
        """Ask the study to stop at the next safe point (idempotent)."""
        if self._cancel_reason is None:
            self._cancel_reason = reason

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_reason is not None

    def consume_retry(self) -> bool:
        """Spend one unit of the study-wide retry budget.

        ``True`` -> the retry may proceed; ``False`` -> the budget is
        exhausted and the shard must quarantine immediately.  With no
        budget configured, retries are always allowed (the per-shard
        ``max_retries`` still applies either way).
        """
        if self.retry_budget is None:
            return True
        if self._retries_spent >= self.retry_budget:
            return False
        self._retries_spent += 1
        return True

    @property
    def retries_spent(self) -> int:
        return self._retries_spent

    # ------------------------------------------------------------------
    # stage lifecycle (pipeline hook + chaos injection)
    # ------------------------------------------------------------------

    def note_stage_complete(self, stage: str) -> None:
        """Record a completed stage; fire any configured chaos hook."""
        self._stages_completed.append(stage)
        if self.kill_after_stage == stage:
            # Chaos hook: an un-catchable kill, exactly like the OOM
            # killer or a power cut.  The stage checkpoint was already
            # fsynced, so --resume must reproduce the clean digest.
            os.kill(os.getpid(), signal.SIGKILL)
        if self.abort_after_stage == stage:
            raise StudyInterrupted(f"aborted after stage {stage!r}")

    @property
    def stages_completed(self) -> List[str]:
        return list(self._stages_completed)

    # ------------------------------------------------------------------
    # signal handling
    # ------------------------------------------------------------------

    def _install_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # signal.signal is main-thread-only
        if self._previous_handlers:
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous = signal.getsignal(signum)
            signal.signal(signum, self._on_signal)
            self._previous_handlers.append((signum, previous))

    def _restore_handlers(self) -> None:
        for signum, previous in reversed(self._previous_handlers):
            try:
                signal.signal(signum, previous)  # type: ignore[arg-type]
            except (ValueError, TypeError):
                pass
        self._previous_handlers.clear()

    def _on_signal(self, signum: int, frame: Optional[FrameType]) -> None:
        if self._cancel_reason is not None:
            # Second signal: the user really means it.  Restore the
            # previous disposition and re-deliver, which by default
            # terminates immediately (resume still works -- a torn
            # journal tail is cut, a torn stage record recomputed).
            self._restore_handlers()
            signal.raise_signal(signum)
            return
        name = signal.Signals(signum).name
        self.request_cancel(f"received {name}")
