"""REP004 fixture: timing observability only (0 findings).

``perf_counter`` / ``monotonic`` / ``sleep`` are exempt by design: they
feed timing metrics, which the digest deliberately excludes.  Under
REP004's strict scope (the adaptive control plane) both helpers would
be findings.
"""

import time


def timed(fn):
    # clocks are fine when they only feed observability output
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, {"seconds": seconds}


def backoff(seconds):
    deadline = time.monotonic() + seconds
    time.sleep(seconds)
    return deadline
