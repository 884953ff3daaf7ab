"""The repo-wide error taxonomy.

Failures at campaign scale are routine, so every layer that can fail
classifies its failures instead of letting bare exceptions escape:

* :class:`TransportError` -- the measurement transport misbehaved (a
  worker crashed, a shard timed out, an injected transport fault
  fired).  Retryable: the executor's degradation ladder is
  retry -> quarantine -> salvage.
* :class:`DataError` -- a dataset or checkpoint record was malformed.
  Not retryable; the reader degrades (discards the record) instead.
* :class:`StageError` -- a pipeline stage body raised; carries the
  stage name so a failed study says *where* it died.
* :class:`StudyInterrupted` -- cooperative cancellation (SIGINT /
  SIGTERM / a supervisor deadline).  Never swallowed by retry loops:
  every ``except`` in the executor re-raises it first, journals are
  fsynced, and the CLI exits with :data:`EXIT_INTERRUPTED` so
  ``repro study --resume`` can continue where the run stopped.

``classify_error`` maps any exception onto its taxonomy category for
the resilience report; ``wrap_error`` additionally wraps foreign
exceptions so downstream handlers can ``except ReproError``.
"""

from __future__ import annotations

#: CLI exit status of an interrupted-but-resumable study (EX_TEMPFAIL).
EXIT_INTERRUPTED = 75


class ReproError(Exception):
    """Base of the taxonomy; ``category`` feeds the resilience report."""

    category = "error"


class TransportError(ReproError):
    """The measurement transport failed (a crash or a timeout)."""

    category = "transport"


class ShardTimeoutError(TransportError):
    """A pooled shard attempt outlived ``RetryPolicy.shard_timeout``."""

    category = "timeout"


class DataError(ReproError):
    """A dataset, journal, or stage-checkpoint record was malformed."""

    category = "data"


class StageError(ReproError):
    """A pipeline stage failed; names the stage that died."""

    category = "stage"

    def __init__(self, stage: str, cause: BaseException) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class StudyInterrupted(ReproError):
    """Cooperative cancellation: SIGINT/SIGTERM or a supervisor budget.

    Raised only at safe points (between shards, between stages) so no
    journal row or stage record is torn; each campaign fsyncs its
    journal and the pipeline emits a ``study-interrupted`` span on the
    way out.
    """

    category = "interrupted"

    def __init__(self, reason: str = "interrupted") -> None:
        super().__init__(reason)
        self.reason = reason


class DeadlineExceeded(StudyInterrupted):
    """The study-level deadline budget ran out."""

    category = "deadline"

    def __init__(self, deadline_s: float) -> None:
        super().__init__(f"study deadline of {deadline_s:g}s exceeded")
        self.deadline_s = deadline_s


def classify_error(exc: BaseException) -> str:
    """The taxonomy category of any exception, for failure accounting."""
    if isinstance(exc, ReproError):
        return exc.category
    # stdlib timeouts (multiprocessing.TimeoutError is a TimeoutError
    # subclass on 3.11+, but match both spellings for older pickles).
    import multiprocessing

    if isinstance(exc, (TimeoutError, multiprocessing.TimeoutError)):
        return "timeout"
    return "transport"


def wrap_error(exc: BaseException) -> ReproError:
    """Wrap a foreign exception into the taxonomy (idempotent).

    :class:`StudyInterrupted` (and ``KeyboardInterrupt``) must never be
    converted into a retryable failure; callers re-raise those before
    wrapping -- this helper enforces it as a second line of defense.
    """
    if isinstance(exc, StudyInterrupted):
        raise exc
    if isinstance(exc, ReproError):
        return exc
    category = classify_error(exc)
    if category == "timeout":
        wrapped: ReproError = ShardTimeoutError("shard timeout")
    else:
        wrapped = TransportError(f"{type(exc).__name__}: {exc}")
    wrapped.__cause__ = exc
    return wrapped
