"""Deterministic probe-health ledger and per-region circuit breakers.

Yeganeh et al. ran their campaigns against a fabric that silently drops
and rate-limits ICMP at Amazon's border (§3); "Misleading Stars" shows
that exactly these blind spots bias inferred topologies.  This module is
the *sensing* half of the adaptive control plane: it folds every merged
probe outcome into a per-``(cloud, region)`` health ledger and drives a
circuit-breaker state machine (closed -> open -> half-open) from it.
The *acting* half -- deferral and recovery -- lives in
:mod:`repro.measure.adapt`.

The determinism contract (enforced by ``repro audit``'s REP004 strict
scope, which bans every clock read in this module and
:mod:`repro.measure.adapt`, and by the adaptive digest tests):

* every ledger fold and breaker transition is keyed on probe **counts**
  and trace **content**, never wall-clock -- there is deliberately no
  ``time`` import in this module;
* outcomes are folded at merge time, in the executor's serial merge
  order, so any worker count reproduces the serial run's ledger (and
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
* an open breaker admits nothing until a recovery round half-opens it
  with a bounded trial-probe budget; all-healthy trials close it, any
  failed trial re-opens it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

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


@dataclass(frozen=True)
class ProbeOutcome:
    """Classification of one merged traceroute, as the ledger sees it."""

    region: str
    completed: bool
    #: longest run of unresponsive TTLs that resumed afterwards.
    silenced_run: int

    @property
    def rate_limited(self) -> bool:
        return self.silenced_run >= SILENCED_RUN_FINGERPRINT

    @property
    def healthy(self) -> bool:
        """No loss/rate-limit fingerprint.

        Deliberately ignores ``completed``: a silent destination is
        routine background noise, not region sickness, and folding it
        as a failure would open breakers on perfectly healthy regions.
        """
        return not self.rate_limited


def classify(trace: Traceroute) -> ProbeOutcome:
    """Fold one trace into a :class:`ProbeOutcome`.

    The silenced run counts only *interior* silence -- unresponsive TTLs
    strictly before the last responsive hop -- so a gap-limited tail
    never masquerades as a rate-limit window.
    """
    last_responsive = -1
    for i, hop in enumerate(trace.hops):
        if hop.ip is not None:
            last_responsive = i
    run = 0
    best = 0
    for i in range(max(0, last_responsive)):
        if trace.hops[i].ip is None:
            run += 1
            if run > best:
                best = run
        else:
            run = 0
    return ProbeOutcome(
        region=trace.region,
        completed=trace.completed,
        silenced_run=best,
    )


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


@dataclass(frozen=True)
class BreakerSnapshot:
    """Serializable state of one breaker (stage-checkpoint codec type)."""

    cloud: str
    region: str
    state: str
    streak: int
    outcomes: int
    failures: int
    rate_limited: int
    quarantined: int
    #: outcome count at the first CLOSED -> OPEN transition; -1 = never.
    first_open_at: int
    trial_budget: int
    trial_successes: int
    trial_failures: int
    events: Tuple[BreakerEvent, ...] = ()


class CircuitBreaker:
    """One region's breaker: a pure fold over counted probe outcomes."""

    def __init__(self, cloud: str, region: str, threshold: int) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.cloud = cloud
        self.region = region
        self.threshold = threshold
        self.state = BreakerState.CLOSED
        self.streak = 0
        self.outcomes = 0
        self.failures = 0
        self.rate_limited = 0
        self.quarantined = 0
        self.first_open_at = -1
        self.trial_budget = 0
        self.trial_successes = 0
        self.trial_failures = 0
        self.events: List[BreakerEvent] = []

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
        if to_state == BreakerState.OPEN and self.first_open_at < 0:
            self.first_open_at = self.outcomes
        self.state = to_state

    # ------------------------------------------------------------------

    def record(self, outcome: ProbeOutcome) -> None:
        """Fold one admitted probe outcome (CLOSED state only).

        The governor never folds outcomes through an open breaker --
        deferred probes are re-paced, not counted -- so ``record`` on an
        open breaker is a programming error.
        """
        if self.state == BreakerState.OPEN:
            raise ValueError(
                f"breaker {self.region!r} is open; defer, don't record"
            )
        self.outcomes += 1
        if outcome.rate_limited:
            self.rate_limited += 1
        if outcome.healthy:
            self.streak = 0
            return
        self.failures += 1
        self.streak += 1
        if self.state == BreakerState.CLOSED and self.streak >= self.threshold:
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
        self.quarantined += probes
        self.streak += probes
        if self.state == BreakerState.CLOSED and self.streak >= self.threshold:
            self._transition(
                BreakerState.OPEN,
                f"quarantined shard (+{probes} lost probes)",
            )

    # ------------------------------------------------------------------
    # half-open trial accounting (the recovery round drives this)
    # ------------------------------------------------------------------

    def half_open(self, budget: int) -> None:
        """OPEN -> HALF_OPEN with a bounded trial-probe budget."""
        if self.state != BreakerState.OPEN:
            raise ValueError(
                f"cannot half-open a {self.state} breaker ({self.region!r})"
            )
        if budget < 1:
            raise ValueError(f"trial budget must be >= 1, got {budget}")
        self.trial_budget = budget
        self.trial_successes = 0
        self.trial_failures = 0
        self._transition(
            BreakerState.HALF_OPEN, f"{budget} trial probes granted"
        )

    @property
    def trials_remaining(self) -> int:
        spent = self.trial_successes + self.trial_failures
        return max(0, self.trial_budget - spent)

    def record_trial(self, healthy: bool) -> None:
        if self.state != BreakerState.HALF_OPEN:
            raise ValueError(
                f"trial on a {self.state} breaker ({self.region!r})"
            )
        if self.trials_remaining <= 0:
            raise ValueError(f"trial budget exhausted ({self.region!r})")
        self.outcomes += 1
        if healthy:
            self.trial_successes += 1
        else:
            self.trial_failures += 1
            self.failures += 1

    def resolve_trials(self) -> str:
        """Settle a half-open breaker after its trial probes ran.

        Any failed trial re-opens; otherwise at least one healthy trial
        closes (and resets the streak).  A half-open breaker that ran no
        trials (empty queue) closes too -- there was nothing sick left.
        """
        if self.state != BreakerState.HALF_OPEN:
            return self.state
        if self.trial_failures > 0:
            self._transition(
                BreakerState.OPEN,
                f"{self.trial_failures}/{self.trial_budget} trial probes failed",
            )
        else:
            self.streak = 0
            self._transition(
                BreakerState.CLOSED,
                f"{self.trial_successes} trial probes healthy",
            )
        return self.state

    # ------------------------------------------------------------------

    def snapshot(self) -> BreakerSnapshot:
        return BreakerSnapshot(
            cloud=self.cloud,
            region=self.region,
            state=self.state,
            streak=self.streak,
            outcomes=self.outcomes,
            failures=self.failures,
            rate_limited=self.rate_limited,
            quarantined=self.quarantined,
            first_open_at=self.first_open_at,
            trial_budget=self.trial_budget,
            trial_successes=self.trial_successes,
            trial_failures=self.trial_failures,
            events=tuple(self.events),
        )

    @classmethod
    def from_snapshot(
        cls, snap: BreakerSnapshot, threshold: int
    ) -> "CircuitBreaker":
        breaker = cls(snap.cloud, snap.region, threshold)
        breaker.state = snap.state
        breaker.streak = snap.streak
        breaker.outcomes = snap.outcomes
        breaker.failures = snap.failures
        breaker.rate_limited = snap.rate_limited
        breaker.quarantined = snap.quarantined
        breaker.first_open_at = snap.first_open_at
        breaker.trial_budget = snap.trial_budget
        breaker.trial_successes = snap.trial_successes
        breaker.trial_failures = snap.trial_failures
        breaker.events = list(snap.events)
        return breaker


@dataclass
class LedgerCounts:
    """Aggregate transition counters (study-span observability)."""

    opens: int = 0
    half_opens: int = 0
    closes: int = 0
    reopens: int = 0


class HealthLedger:
    """Per-``(cloud, region)`` breakers, folded in serial merge order."""

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def breaker(self, cloud: str, region: str) -> CircuitBreaker:
        key = (cloud, region)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(cloud, region, self.threshold)
            self._breakers[key] = breaker
        return breaker

    def note_quarantine(self, cloud: str, region: str, probes: int) -> None:
        self.breaker(cloud, region).record_quarantine(probes)

    # ------------------------------------------------------------------

    def breakers(self) -> List[CircuitBreaker]:
        """Every breaker, in deterministic (cloud, region) order."""
        return [self._breakers[key] for key in sorted(self._breakers)]

    def counts(self) -> LedgerCounts:
        counts = LedgerCounts()
        for breaker in self.breakers():
            for event in breaker.events:
                if event.to_state == BreakerState.OPEN:
                    if event.from_state == BreakerState.HALF_OPEN:
                        counts.reopens += 1
                    else:
                        counts.opens += 1
                elif event.to_state == BreakerState.HALF_OPEN:
                    counts.half_opens += 1
                elif event.to_state == BreakerState.CLOSED:
                    counts.closes += 1
        return counts

    # ------------------------------------------------------------------

    def snapshot(self) -> Tuple[BreakerSnapshot, ...]:
        return tuple(b.snapshot() for b in self.breakers())

    def restore(self, snapshots: Tuple[BreakerSnapshot, ...]) -> None:
        self._breakers = {
            (snap.cloud, snap.region): CircuitBreaker.from_snapshot(
                snap, self.threshold
            )
            for snap in snapshots
        }
