"""REP004 strict-scope fixture: clock reads in the adaptive control plane (4 findings).

Deliberately uses only the monotonic clocks REP004 allows elsewhere
(``perf_counter`` / ``monotonic``): the strict scope exists precisely
because those are still banned on breaker/governor decision paths.
Outside the strict scope this file is clean.
"""

import time
from time import monotonic


def should_open(failures: int) -> bool:
    # direct clock read inside a branch test
    if time.perf_counter() > 100.0:
        return True
    return failures > 3


def window_expired(started: float) -> bool:
    # a clock read feeding a later comparison
    elapsed = time.monotonic() - started
    return elapsed > 5.0


def drain_trials(budget: int) -> int:
    # a name imported from `time`, read twice
    deadline = monotonic() + 1.0
    while monotonic() < deadline:
        budget -= 1
    return budget
