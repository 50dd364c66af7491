"""Summary statistics and the verdict rule for comparing two sets of runs."""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def percentile(values, p: float) -> float:
    """The p-th percentile, interpolating linearly between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile outside [0, 100]")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, candidates=(50.0, 90.0, 99.0, 99.9)):
    """(p, value) for the highest candidate percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    best = None
    for p in candidates:
        if n * (100.0 - p) >= 1000.0 - 1e-6:  # n * (1 - p/100) >= 10, rounding-safe
            best = (p, percentile(values, p))
    return best


def verdict(parent, change, pairs, better: str, bound: float | None = None) -> str:
    """better, worse, same or unresolved for `change` against `parent`.

    `pairs` holds (parent value, change value) for runs made on the same
    seed. A gain needs the change to win at least nine tenths of the pairs
    (ties count for neither) and the medians to differ by more than the
    parent's quartile distance. With a bound, a change whose median is worse
    than the parent's by more than bound x |parent median| is worse, one
    within it is the same, and a parent whose own spread exceeds the bound
    leaves the metric unresolved unless every change run beats, or loses to,
    every parent run. Without a bound, pairs that all tie are the same, a
    loss needs the mirror of the gain rule, and anything else is unresolved.
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    sign = 1.0 if better == "higher" else -1.0
    gain = lambda a, b: sign * (b - a)  # noqa: E731 - positive when b is better
    q1, med_a, q3 = quartiles(parent)
    med_b = quartiles(change)[1]
    iqr = q3 - q1

    if bound is not None and spread(parent) > bound:
        if min(gain(a, b) for a in parent for b in change) > 0:
            return "better"
        if max(gain(a, b) for a in parent for b in change) < 0:
            return "worse"
        return "unresolved"

    n = len(pairs)
    wins = sum(1 for a, b in pairs if gain(a, b) > 0)
    losses = sum(1 for a, b in pairs if gain(a, b) < 0)
    if n and wins == losses == 0:
        return "same"
    if n and wins >= 0.9 * n and gain(med_a, med_b) > iqr:
        return "better"
    if bound is not None:
        return "worse" if -gain(med_a, med_b) > bound * abs(med_a) else "same"
    if n and losses >= 0.9 * n and -gain(med_a, med_b) > iqr:
        return "worse"
    return "unresolved"


def exact_verdict(pairs, better: str, rel_tol: float = 1e-9) -> str:
    """better, worse, same or unresolved for a metric that repeats exactly
    for a given seed, from (parent value, change value) pairs on the same
    seeds. Any pair that loses makes the change worse; otherwise any pair
    that wins makes it better. Values within rel_tol of each other tie, so
    float round-off in a refactor does not count. No pairs: unresolved."""
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    if not pairs:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    outcomes = set()
    for a, b in pairs:
        if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0):
            outcomes.add("win" if sign * (b - a) > 0 else "loss")
    if "loss" in outcomes:
        return "worse"
    return "better" if outcomes else "same"
