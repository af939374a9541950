"""The tail rule and per-layer self time from a span tree."""
from __future__ import annotations

from collections import defaultdict

TAIL_BEYOND = 10


def tail(samples) -> tuple:
    """(value, percentile, n) at the highest percentile that still has
    TAIL_BEYOND samples above it: the (n - TAIL_BEYOND)-th smallest sample,
    i.e. percentile 100 * (n - TAIL_BEYOND) / n."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"the tail needs more than {TAIL_BEYOND} samples, got {n}")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def layer_self_times(spans) -> dict:
    """{layer: [self seconds, span count]} for spans (name, start, end,
    parent) of one process, parent being the index of the enclosing span
    or -1.  A span's self time is its duration minus the durations of its
    direct children; the layer is the name up to the first dot."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, parent) in enumerate(spans):
        acc = out[name.split(".", 1)[0]]
        acc[0] += end - start - child[i]
        acc[1] += 1
    return dict(out)
