"""Statistics shared by run_benchmark.py and compare_runs.py."""

import statistics


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
