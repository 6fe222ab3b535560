"""The benchmark's arithmetic, free of I/O so `test_stats.py` can pin it.

Everything the driver reports is derived here from raw samples: the
noise filter (per-step minimum over rounds), the medians, the
throughput, the span self times and the bound comparison.
"""
from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def aligned_min(rounds: Sequence[Sequence[float]]) -> List[float]:
    """``t_k = min over rounds of sample k``.

    Trajectories are bit-identical across processes, so sample ``k`` is
    the same work in every round and host noise is additive: the
    minimum is the least-disturbed observation of that work.
    """
    if not rounds:
        raise ValueError("no rounds")
    lengths = {len(r) for r in rounds}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError(f"rounds must be equally long and non-empty, "
                         f"got lengths {sorted(lengths)}")
    return [min(col) for col in zip(*rounds)]


def median_n(samples: Sequence[float]) -> Tuple[float, int]:
    """Median together with the sample count it was taken over."""
    return statistics.median(samples), len(samples)


def throughput(work_per_sample: float, times: Sequence[float]) -> float:
    """Work per second over a filtered series: ``work * K / sum(t_k)``."""
    total = sum(times)
    if total <= 0.0:
        raise ValueError("non-positive total time")
    return work_per_sample * len(times) / total


def spread_frac(values: Sequence[float]) -> float:
    """``max/min - 1``: how far apart the raw rounds were."""
    lo = min(values)
    return max(values) / lo - 1.0 if lo > 0.0 else float("inf")


# -- spans -----------------------------------------------------------------
# A span is a dict {"name", "start", "end", "parent"}; "parent" is the
# index of the enclosing span in the same list, or None for a root.

def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for a, b in sorted(intervals):
        a, b = max(a, edge), min(b, hi)
        if b > a:
            total += b - a
            edge = b
    return total


def self_times(spans: Sequence[dict]) -> List[float]:
    """Per span: its duration minus the part its children cover.

    Children may overlap each other (worker threads); their union is
    what is subtracted, so self time is never negative.
    """
    kids: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [(s["end"] - s["start"])
            - covered(kids.get(i, ()), s["start"], s["end"])
            for i, s in enumerate(spans)]


def inclusive_by_name(spans: Sequence[dict]) -> Dict[str, Tuple[float, int]]:
    """Per span name: (total duration, call count), counting a span's
    duration only when no ancestor carries the same name — a layer that
    re-enters itself is not billed twice."""
    out: Dict[str, Tuple[float, int]] = {}
    for s in spans:
        total, calls = out.get(s["name"], (0.0, 0))
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p is None:
            total += s["end"] - s["start"]
        out[s["name"]] = (total, calls + 1)
    return out


def self_by_name(spans: Sequence[dict]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


# -- bounds ----------------------------------------------------------------

def worsening(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``, signed so that a
    positive value is *worse* whichever direction is better."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if base == 0.0:
        raise ValueError("zero base")
    rel = (new - base) / abs(base)
    return rel if better == "lower" else -rel


def verdict(base: float, new: float, better: str, bound: float) -> str:
    """``worse`` / ``better`` beyond the bound, else ``within``."""
    w = worsening(base, new, better)
    if w > bound:
        return "worse"
    if w < -bound:
        return "better"
    return "within"
