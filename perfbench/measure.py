"""Summary statistics and failure accounting for one benchmark run."""

from __future__ import annotations

import statistics

# Percentiles a timing may be reported at, highest first, in tenths of a percent.
PERCENTILES_PERMILLE = (999, 990, 900)
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n: int, permille: int) -> int:
    """How many of n sorted samples lie above the permille-th percentile.

    Integer arithmetic on purpose: n * 0.1 is not exactly n / 10 in floating
    point, and the rule below is a threshold on this count.
    """
    at_or_below = -(-n * permille // 1000)  # ceil(n * permille / 1000)
    return n - at_or_below


def highest_percentile(n: int) -> int | None:
    """The highest reportable percentile (in permille) for n samples, or None.

    A percentile is reported only when at least ten samples lie beyond it.
    """
    for permille in PERCENTILES_PERMILLE:
        if samples_beyond(n, permille) >= MIN_SAMPLES_BEYOND:
            return permille
    return None


def percentile(samples: list[float], permille: int) -> float:
    """Nearest-rank percentile of the samples."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * permille // 1000)
    return ordered[max(rank, 1) - 1]


def timing_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    out = {"p50": statistics.median(samples), "n": len(samples)}
    permille = highest_percentile(len(samples))
    if permille is not None:
        out[f"p{permille / 10:g}"] = percentile(samples, permille)
    return out


class Tally:
    """Operations attempted and the ones that failed, with the first reason each."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[int, str] = {}

    def attempt(self) -> int:
        """Count one more operation and return its index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, reason: str) -> None:
        if not 0 <= op < self.attempted:
            raise ValueError(f"operation {op} was never attempted")
        self.failures.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
