"""Deterministic fault injection for the measurement plane.

The paper's campaigns sweep 15.6M /24s from 15 regions over weeks (§3), a
regime where probe loss, ICMP rate-limiting, and worker/VM failures are
the norm.  "Misleading Stars" further shows that unresponsive hops bias
inferred topologies, so faults are a *fidelity* knob as much as a
resilience one.  A :class:`FaultPlan` describes a reproducible chaos
schedule.  The :class:`~repro.measure.traceroute.TracerouteEngine`
carries it and consults its observation faults; the
:class:`~repro.measure.executor.ShardedExecutor` reads the transport
faults from that same engine.

Two fault categories with very different determinism contracts:

* **transport faults** -- shard-level worker crashes, slow shards,
  poisoned shards.  They perturb *execution* (retries, timeouts,
  quarantine) but never the content of a successfully traced shard, so a
  run that eventually completes every shard is bit-identical to a clean
  serial run.
* **observation faults** -- elevated per-region probe loss and ICMP
  rate-limit windows.  They deterministically change what the probes
  *see* (that is the point), as a pure function of
  ``(fault seed, cloud, region, dst, ttl)`` -- so any worker count, retry
  schedule, or checkpoint resume still reproduces the same traces.  The
  rate-limit window is drawn once per probe (``rate_limited_ttls``),
  the loss once per responding hop outside it (``hop_suppressed``).

Every decision is one keyed hash: the top 53 bits of an 8-byte blake2b
digest of ``repr(key)``, on the grid in ``[0, 1)`` that
``random.random()`` draws from -- stable across processes and platforms,
independent of ``PYTHONHASHSEED``, and with no mutable RNG state shared
between shards.  A fault decision takes exactly one draw per key, and
seeding a Mersenne Twister for a single draw costs several times the
hash (DESIGN.md §6.3).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

#: Rate-limit windows open somewhere in TTLs [2, 2 + WINDOW_SPREAD).
_WINDOW_SPREAD = 8


class InjectedWorkerCrash(RuntimeError):
    """Raised inside a worker when the fault plan kills its shard attempt."""


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos schedule for one campaign run.

    All rates are probabilities in ``[0, 1]``; everything is derived from
    ``seed`` alone, so two plans with equal fields inject exactly the
    same faults no matter where or when they run.
    """

    seed: int = 0

    # --- transport faults (execution only; results unaffected) ---------
    #: fraction of shards whose first attempt(s) raise a worker crash.
    crash_rate: float = 0.0
    #: how many consecutive attempts fail for a crashing shard.
    crash_attempts: int = 1
    #: fraction of shards delayed by ``slow_seconds`` per attempt.
    slow_rate: float = 0.0
    slow_seconds: float = 0.0
    #: shard indices that fail on *every* attempt (quarantine fodder).
    poison_shards: Tuple[int, ...] = ()

    # --- observation faults (deterministically change the traces) ------
    #: region -> extra per-hop response loss; key ``"*"`` applies to all.
    region_loss: Mapping[str, float] = field(default_factory=dict)
    #: fraction of (cloud, region, dst) probes hitting a rate limiter.
    rate_limit_rate: float = 0.0
    #: consecutive TTLs silenced once a rate-limit window opens.
    rate_limit_window: int = 3

    def __post_init__(self) -> None:
        for name in ("crash_rate", "slow_rate", "rate_limit_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.crash_attempts < 1:
            raise ValueError(
                f"crash_attempts must be >= 1, got {self.crash_attempts}"
            )
        if self.slow_seconds < 0:
            raise ValueError(
                f"slow_seconds must be >= 0, got {self.slow_seconds}"
            )
        if self.rate_limit_window < 1:
            raise ValueError(
                f"rate_limit_window must be >= 1, got {self.rate_limit_window}"
            )
        for region, loss in self.region_loss.items():
            if not 0.0 <= loss <= 1.0:
                raise ValueError(
                    f"region_loss[{region!r}] must be in [0, 1], got {loss}"
                )

    # ------------------------------------------------------------------

    def _u(self, *key: object) -> float:
        """A uniform [0, 1) draw that is a pure function of ``key``.

        The top 53 bits of an 8-byte blake2b digest of
        ``repr(("fault", seed) + key)``, so the value lies on the 53-bit
        grid ``random()`` draws from.  :meth:`probe_signature` names
        this draw, so journals and stage records written under another
        one are never replayed.
        """
        digest = hashlib.blake2b(
            repr(("fault", self.seed) + key).encode(), digest_size=8
        ).digest()
        return (int.from_bytes(digest, "big") >> 11) * 2.0**-53

    # --- transport side ------------------------------------------------

    def crash_failures(self, shard_index: int) -> int:
        """How many initial attempts on this shard must fail."""
        if shard_index in self.poison_shards:
            return -1  # sentinel: fails forever
        if self.crash_rate <= 0.0:
            return 0
        if self._u("crash", shard_index) < self.crash_rate:
            return self.crash_attempts
        return 0

    def should_crash(self, shard_index: int, attempt: int) -> bool:
        failures = self.crash_failures(shard_index)
        return failures < 0 or attempt < failures

    def raise_if_crashed(self, shard_index: int, attempt: int) -> None:
        if self.should_crash(shard_index, attempt):
            raise InjectedWorkerCrash(
                f"injected crash: shard {shard_index}, attempt {attempt}"
            )

    def slow_delay(self, shard_index: int) -> float:
        """Seconds this shard sleeps per attempt (0.0 for most shards)."""
        if self.slow_rate <= 0.0 or self.slow_seconds <= 0.0:
            return 0.0
        if self._u("slow", shard_index) < self.slow_rate:
            return self.slow_seconds
        return 0.0

    # --- observation side ----------------------------------------------

    @property
    def affects_probes(self) -> bool:
        """True when the plan changes trace content (not just execution)."""
        return bool(self.region_loss) or self.rate_limit_rate > 0.0

    def probe_signature(self) -> str:
        """Identity of the observation-fault component.

        Checkpoint fingerprints embed this instead of the full plan:
        transport faults never change trace content, so a checkpoint
        written under a crashy plan is safely resumable under a clean
        one -- but not under different observation faults.  The leading
        tag names the keyed draw (:meth:`_u`): a journal or stage record
        written under another draw never matches, so it is recomputed,
        not replayed.
        """
        if not self.affects_probes:
            return "clean"
        return repr(
            (
                "blake2b",
                self.seed,
                tuple(sorted(self.region_loss.items())),
                self.rate_limit_rate,
                self.rate_limit_window,
            )
        )

    def rate_limited_ttls(
        self, cloud: str, region: str, dst: int, salt: int = 0
    ) -> range:
        """The TTLs this probe's rate-limit window silences.

        A pure function of ``(seed, cloud, region, dst, salt)``: one
        keyed draw decides whether the probe hits a rate limiter, and a
        second, only if it does, where the window opens.  A probe the
        limiter spares gets an empty range.  The window belongs to the
        probe, not the hop, so the traceroute engine draws it once per
        probe and hands it to :meth:`hop_suppressed` for every hop.
        """
        if self.rate_limit_rate > 0.0:
            extra: Tuple[int, ...] = (salt,) if salt else ()
            if self._u("rlimit", cloud, region, dst, *extra) < self.rate_limit_rate:
                start = 2 + int(
                    self._u("rlimit-start", cloud, region, dst, *extra)
                    * _WINDOW_SPREAD
                )
                return range(start, start + self.rate_limit_window)
        return range(0)

    def hop_suppressed(
        self,
        cloud: str,
        region: str,
        dst: int,
        ttl: int,
        salt: int = 0,
        window: Optional[range] = None,
    ) -> bool:
        """Whether the fault plan silences this hop's response.

        A pure function of ``(seed, cloud, region, dst, ttl)`` -- the
        traceroute engine calls it *after* its own noise draws, so the
        main probe RNG stream is untouched and fault-free portions of a
        trace stay identical to the clean run.  A hop is silenced when
        ``ttl`` falls in the probe's rate-limit window or its own keyed
        loss draw fires; the loss is drawn only outside the window.

        ``window`` is the probe's :meth:`rate_limited_ttls`, which the
        engine draws once per probe; without it the window is derived
        here, so the answer never depends on whether it was passed.

        ``salt`` re-keys only the fault draws (never the base noise):
        the adaptive recovery round re-probes a deferred target at
        ``salt = recovery round index`` to draw a fresh loss/rate-limit
        schedule for it.  ``salt=0`` is byte-identical to the unsalted
        draw, so non-adaptive runs and checkpoint journals are
        unaffected.
        """
        if window is None:
            window = self.rate_limited_ttls(cloud, region, dst, salt)
        if ttl in window:
            return True
        loss = self.region_loss.get(region, self.region_loss.get("*", 0.0))
        extra: Tuple[int, ...] = (salt,) if salt else ()
        return loss > 0.0 and self._u("loss", cloud, region, dst, ttl, *extra) < loss

    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "FaultPlan":
        return replace(self, **changes)

    def describe(self) -> str:
        """Compact human-readable summary for reports and provenance."""
        parts = [f"seed={self.seed}"]
        if self.crash_rate:
            parts.append(
                f"crash={self.crash_rate:g}x{self.crash_attempts}"
            )
        if self.poison_shards:
            parts.append(f"poison={list(self.poison_shards)}")
        if self.slow_rate and self.slow_seconds:
            parts.append(f"slow={self.slow_rate:g}@{self.slow_seconds:g}s")
        if self.region_loss:
            loss = ";".join(
                f"{r}:{v:g}" for r, v in sorted(self.region_loss.items())
            )
            parts.append(f"loss={loss}")
        if self.rate_limit_rate:
            parts.append(
                f"rate-limit={self.rate_limit_rate:g}w{self.rate_limit_window}"
            )
        return "FaultPlan(" + ", ".join(parts) + ")"

    def to_spec(self) -> str:
        """The canonical compact spec; ``FaultPlan.parse`` round-trips it.

        Unlike :meth:`describe` (human-oriented), this emits exactly the
        ``key=value`` grammar :meth:`parse` reads, so config files can
        serialize a plan losslessly.
        """
        parts = [f"seed={self.seed}"]
        if self.crash_rate:
            parts.append(f"crash={self.crash_rate:g}")
        if self.crash_attempts != 1:
            parts.append(f"crash-attempts={self.crash_attempts}")
        if self.slow_rate:
            parts.append(f"slow={self.slow_rate:g}")
        if self.slow_seconds:
            parts.append(f"slow-seconds={self.slow_seconds:g}")
        if self.poison_shards:
            parts.append(
                "poison=" + ";".join(str(i) for i in self.poison_shards)
            )
        if self.region_loss:
            parts.append(
                "loss="
                + ";".join(
                    f"{r}:{v:g}" for r, v in sorted(self.region_loss.items())
                )
            )
        if self.rate_limit_rate:
            parts.append(f"rate-limit={self.rate_limit_rate:g}")
        if self.rate_limit_window != 3:
            parts.append(f"window={self.rate_limit_window}")
        return ",".join(parts)

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI spec.

        ``"crash=0.25,crash-attempts=2,slow=0.1,slow-seconds=0.5,``
        ``loss=use1:0.05;euw1:0.1,rate-limit=0.2,window=3,``
        ``poison=3;7,seed=1"`` -- keys may appear in any order; unknown
        keys raise ``ValueError``.
        """
        kwargs: Dict[str, Any] = {}
        spec = spec.strip()
        if not spec:
            return cls()
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"fault-plan item needs key=value: {item!r}")
            key, _, value = item.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "crash":
                kwargs["crash_rate"] = float(value)
            elif key in ("crash-attempts", "crash_attempts"):
                kwargs["crash_attempts"] = int(value)
            elif key == "slow":
                kwargs["slow_rate"] = float(value)
            elif key in ("slow-seconds", "slow_seconds"):
                kwargs["slow_seconds"] = float(value)
            elif key == "poison":
                kwargs["poison_shards"] = tuple(
                    int(x) for x in value.split(";") if x.strip()
                )
            elif key == "loss":
                loss: Dict[str, float] = {}
                for entry in value.split(";"):
                    entry = entry.strip()
                    if not entry:
                        continue
                    if ":" in entry:
                        region, _, rate = entry.rpartition(":")
                        loss[region.strip()] = float(rate)
                    else:
                        loss["*"] = float(entry)
                kwargs["region_loss"] = loss
            elif key in ("rate-limit", "rate_limit"):
                # `0.2w5` carries the window inline (the ``describe()``
                # form); parsing it as a bare float used to blow up, and
                # dropping the suffix would silently run window=3.
                if "w" in value:
                    rate, _, window = value.partition("w")
                    kwargs["rate_limit_rate"] = float(rate)
                    kwargs["rate_limit_window"] = int(window)
                else:
                    kwargs["rate_limit_rate"] = float(value)
            elif key in ("window", "rate-limit-window", "rate_limit_window"):
                kwargs["rate_limit_window"] = int(value)
            else:
                raise ValueError(f"unknown fault-plan key: {key!r}")
        return cls(**kwargs)
