"""Per-region circuit breakers and the trace-health predicate.

Yeganeh et al. ran their campaigns against a fabric that silently drops
and rate-limits ICMP at Amazon's border (§3); "Misleading Stars" shows
that exactly these blind spots bias inferred topologies.  This module is
the *sensing* half of the adaptive control plane: :func:`healthy` judges
one merged trace, and a :class:`CircuitBreaker` per ``(cloud, region)``
folds those verdicts into a closed -> open -> half-open state machine.
The *acting* half -- the governor that owns the breakers, deferral and
recovery -- lives in :mod:`repro.measure.adapt`.

The determinism contract (enforced by ``repro audit``'s REP004 strict
scope, which bans every clock read in this module and
:mod:`repro.measure.adapt`, and by the adaptive digest tests):

* every breaker transition is keyed on probe **counts** and trace
  **content**, never wall-clock -- there is deliberately no ``time``
  import in this module;
* verdicts are folded at merge time, in the executor's serial merge
  order, so any worker count reproduces the serial run's breakers (and
  therefore every deferral decision) bit-for-bit;
* breakers for different regions are independent, so interleaving the
  merge streams of two regions in any order that preserves each
  region's own order yields identical breaker states (the Hypothesis
  order-invariance property).

Fold rules (DESIGN.md §6.6):

* a trace is a **failure** when it carries a loss/rate-limit
  fingerprint: an interior silenced-TTL run of at least
  :data:`SILENCED_RUN_FINGERPRINT` unresponsive hops that resumes
  afterwards.  A naturally gap-limited trace (silent destination) is
  *not* a failure -- incompletion is routine in clean runs, and a
  breaker that opened on it would defer healthy regions; only the
  silenced-run fingerprint separates injected pathology (elevated
  loss, rate-limit windows) from background noise;
* consecutive failures grow a streak; any healthy trace resets it; a
  streak reaching the breaker threshold opens the breaker;
* a quarantined shard folds as one failure per lost probe, so a
  quarantine in a closed region opens its breaker immediately;
* an open breaker admits nothing until a recovery round runs one
  half-open phase through it (:meth:`CircuitBreaker.trial`): all-healthy
  trials close it, any failed trial re-opens it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence

from repro.measure.traceroute import Traceroute

#: An interior silenced-TTL run at least this long fingerprints an ICMP
#: rate-limit window (``FaultPlan.rate_limit_window`` defaults to 3);
#: shorter runs are ordinary per-hop loss and do not count extra.
SILENCED_RUN_FINGERPRINT = 3


class BreakerState:
    """Circuit-breaker states (string enum, mirrors the classic pattern)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


def healthy(trace: Traceroute) -> bool:
    """No loss/rate-limit fingerprint in ``trace``.

    Only *interior* silence counts -- a run of unresponsive TTLs that a
    responsive hop resumes -- so a gap-limited tail never masquerades as
    a rate-limit window.  Deliberately ignores ``completed``: a silent
    destination is routine background noise, not region sickness, and
    folding it as a failure would open breakers on healthy regions.
    """
    run = 0
    for hop in trace.hops:
        if hop.ip is None:
            run += 1
        elif run >= SILENCED_RUN_FINGERPRINT:
            return False
        else:
            run = 0
    return True


@dataclass(frozen=True)
class BreakerEvent:
    """One breaker transition, for provenance and the resilience report."""

    cloud: str
    region: str
    #: outcomes folded for this region when the transition fired.
    at_outcome: int
    from_state: str
    to_state: str
    reason: str


@dataclass
class CircuitBreaker:
    """One region's breaker: a pure fold over counted probe verdicts.

    A plain dataclass, so the breaker itself is its saved state: the
    stage codec encodes it as-is, and the governor hands out copies.
    Between calls it is either closed or open; half-open exists only
    inside :meth:`trial`, and in the events that phase records.
    """

    cloud: str
    region: str
    threshold: int
    state: str = BreakerState.CLOSED
    streak: int = 0
    outcomes: int = 0
    failures: int = 0
    rate_limited: int = 0
    events: List[BreakerEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")

    def copy(self) -> "CircuitBreaker":
        """An independent copy (events are frozen, so the list is enough)."""
        return replace(self, events=list(self.events))

    # ------------------------------------------------------------------

    def _transition(self, to_state: str, reason: str) -> None:
        self.events.append(
            BreakerEvent(
                cloud=self.cloud,
                region=self.region,
                at_outcome=self.outcomes,
                from_state=self.state,
                to_state=to_state,
                reason=reason,
            )
        )
        self.state = to_state

    # ------------------------------------------------------------------

    def record(self, is_healthy: bool) -> None:
        """Fold one admitted probe's verdict (CLOSED state only).

        The governor never folds verdicts through an open breaker --
        deferred probes are re-paced, not counted -- so ``record`` on an
        open breaker is a programming error.
        """
        if self.state == BreakerState.OPEN:
            raise ValueError(
                f"breaker {self.region!r} is open; defer, don't record"
            )
        self.outcomes += 1
        if is_healthy:
            self.streak = 0
            return
        self.rate_limited += 1
        self.failures += 1
        self.streak += 1
        if self.streak >= self.threshold:
            self._transition(
                BreakerState.OPEN,
                f"failure streak {self.streak} >= threshold {self.threshold}",
            )

    def record_quarantine(self, probes: int) -> None:
        """Fold a quarantined shard: one failure per probe never delivered."""
        if probes <= 0:
            return
        self.outcomes += probes
        self.failures += probes
        self.streak += probes
        if self.state == BreakerState.CLOSED and self.streak >= self.threshold:
            self._transition(
                BreakerState.OPEN,
                f"quarantined shard (+{probes} lost probes)",
            )

    def trial(self, budget: int, verdicts: Sequence[bool]) -> str:
        """One half-open phase: OPEN -> HALF_OPEN -> OPEN or CLOSED.

        ``budget`` trial probes were granted and ``verdicts`` are the
        health of those that ran, in probe order.  Any failed trial
        re-opens the breaker; otherwise it closes and its streak resets
        -- a phase that ran no trials closes too, since nothing sick was
        left to probe.  Returns the settled state.
        """
        if self.state != BreakerState.OPEN:
            raise ValueError(
                f"cannot half-open a {self.state} breaker ({self.region!r})"
            )
        if budget < 1:
            raise ValueError(f"trial budget must be >= 1, got {budget}")
        if len(verdicts) > budget:
            raise ValueError(
                f"{len(verdicts)} trials exceed the budget of {budget} "
                f"({self.region!r})"
            )
        self._transition(
            BreakerState.HALF_OPEN, f"{budget} trial probes granted"
        )
        failed = sum(1 for verdict in verdicts if not verdict)
        self.outcomes += len(verdicts)
        self.failures += failed
        if failed:
            self._transition(
                BreakerState.OPEN, f"{failed}/{budget} trial probes failed"
            )
        else:
            self.streak = 0
            self._transition(
                BreakerState.CLOSED, f"{len(verdicts)} trial probes healthy"
            )
        return self.state
