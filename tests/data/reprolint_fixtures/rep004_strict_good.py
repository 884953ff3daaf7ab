"""REP004 strict-scope fixture: count-based decisions, no clocks (0 findings)."""


def should_open(streak: int, threshold: int) -> bool:
    # the adaptive contract: decisions fold from probe counts
    return streak >= threshold


def trials_remaining(budget: int, spent: int) -> int:
    return max(0, budget - spent)
