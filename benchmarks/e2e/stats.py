"""Pure statistics shared by the benchmark runner and its tests.

Nothing here imports the program under test, so ``test_harness.py`` runs
in a second.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: Highest percentile reported as the tail, however many samples exist.
TAIL_CAP = 99.0


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, q2, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def iqr(values) -> float:
    q1, _, q3 = quartiles(values)
    return q3 - q1


def spread(values) -> float:
    """IQR as a share of the median (0 when the median is 0)."""
    mid = median(values)
    return iqr(values) / abs(mid) if mid else 0.0


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * min(max(p, 0.0), 100.0) / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile (at most p99) with ten samples beyond it.

    Below ``2 * TAIL_BEYOND`` samples that percentile would sit under the
    median, so the tail is the slowest sample (100).
    """
    if n < 2 * TAIL_BEYOND:
        return 100.0
    return min(TAIL_CAP, 100.0 * (1.0 - TAIL_BEYOND / n))


def tail(values) -> tuple[float, float]:
    """``(percentile used, value)`` of the tail of ``values``."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def due_latencies(due, sent, received) -> tuple[list[float], list[float]]:
    """Open-loop latency and generator lateness, both from the due time.

    A request that the generator sent late, because the sender stalled,
    is still charged from when it was due; ``lateness`` reports how far
    behind the schedule the generator ran.
    """
    latency = [r - d for d, r in zip(due, received)]
    lateness = [max(0.0, s - d) for d, s in zip(due, sent)]
    return latency, lateness


def worse_by(better: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Negative when ``new`` is better.  ``better`` is ``"lower"`` or
    ``"higher"``.  From a base of 0 any move is infinitely large, worse
    (``inf``) or better (``-inf``) by its direction.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    change = new - base if better == "lower" else base - new
    if base == 0:
        return math.copysign(math.inf, change) if change else 0.0
    return change / abs(base)


def within_bound(better: str, bound: float, base: float, new: float) -> bool:
    """Whether ``new`` is no worse than ``base`` by more than ``bound``."""
    return worse_by(better, base, new) <= bound
