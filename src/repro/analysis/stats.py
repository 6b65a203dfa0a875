"""Summary statistics over repeated measurement runs.

The paper reports medians and notes that "the median and standard
deviation are within a ms of the obtained value" for Firefox's CAD
(§5.1).  These helpers compute those aggregates from any iterable of
:class:`~repro.testbed.runner.RunRecord` (``TestRunner.run()``'s list
or a campaign stream); the per-client helpers select the records of
one client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..testbed.runner import RunRecord


class StreamingCDF:
    """Streaming, mergeable, deterministic CDF/quantile accumulator.

    Values land in fixed-width bins kept as a sparse ``{bin: count}``
    dict, so memory is proportional to the value *spread*, never the
    sample count — a million-user population campaign aggregates its
    latency distribution without materializing a record list.  Because
    bin increments commute, the binned aggregate (counts, quantiles,
    CDF points, extremes) is independent of insertion order, and
    merging per-worker accumulators (:meth:`merge`) reproduces it
    exactly — which is what keeps serial, parallel, and warm-cache
    renderings byte-identical.  The mean is a float sum, so only it
    may differ in the last ulp across merge groupings.

    Quantiles resolve to the *upper edge* of the bin holding the
    requested rank (a deterministic ≤ ``bin_width`` overestimate);
    exact minimum, maximum, and mean are tracked on the side.
    """

    __slots__ = ("bin_width", "count", "total", "minimum", "maximum",
                 "_bins")

    def __init__(self, bin_width: float = 0.001) -> None:
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive: {bin_width!r}")
        self.bin_width = bin_width
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._bins: Dict[int, int] = {}

    def add(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"non-finite sample: {value!r}")
        index = math.floor(value / self.bin_width)
        self._bins[index] = self._bins.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "StreamingCDF") -> None:
        """Fold ``other`` in; identical to having added its samples here."""
        if other.bin_width != self.bin_width:
            raise ValueError(
                f"bin widths differ: {self.bin_width!r} vs "
                f"{other.bin_width!r}")
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (self.minimum is None
                                          or other.minimum < self.minimum):
            self.minimum = other.minimum
        if other.maximum is not None and (self.maximum is None
                                          or other.maximum > self.maximum):
            self.maximum = other.maximum

    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """The upper edge of the bin holding rank ``ceil(q * count)``.

        ``q=0`` returns the exact minimum and ``q=1`` the exact
        maximum; None when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q!r}")
        if not self.count:
            return None
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self._bins):
            seen += self._bins[index]
            if seen >= rank:
                return (index + 1) * self.bin_width
        return self.maximum  # pragma: no cover - rank <= count

    def cdf_at(self, value: float) -> Optional[float]:
        """Fraction of samples ≤ ``value``, at bin resolution: every
        sample is counted at its bin's *lower* edge, so the answer is
        exact whenever ``value`` lies on a bin boundary and otherwise
        overestimates by at most one bin's population.  None when
        empty."""
        if not self.count:
            return None
        cutoff = math.floor(value / self.bin_width)
        below = sum(count for index, count in self._bins.items()
                    if index <= cutoff)
        return below / self.count

    def cdf_points(self) -> "List[Tuple[float, float]]":
        """Sorted ``(bin upper edge, cumulative fraction)`` pairs —
        the rendered CDF curve."""
        points = []
        seen = 0
        for index in sorted(self._bins):
            seen += self._bins[index]
            points.append(((index + 1) * self.bin_width,
                           seen / self.count))
        return points


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one metric."""

    count: int
    minimum: float
    median: float
    mean: float
    stddev: float
    maximum: float

    def within(self, target: float, tolerance: float) -> bool:
        """Is the median within ``tolerance`` of ``target``?"""
        return abs(self.median - target) <= tolerance

    def describe(self, unit: str = "", scale: float = 1.0) -> str:
        return (f"n={self.count} median={self.median * scale:.1f}{unit} "
                f"mean={self.mean * scale:.1f}{unit} "
                f"sd={self.stddev * scale:.2f}{unit} "
                f"range=[{self.minimum * scale:.1f}, "
                f"{self.maximum * scale:.1f}]{unit}")


def summarize(values: Iterable[float]) -> Optional[Summary]:
    """Summary of a value sequence; None when empty."""
    data = sorted(values)
    if not data:
        return None
    count = len(data)
    mean = sum(data) / count
    if count % 2:
        median = data[count // 2]
    else:
        median = (data[count // 2 - 1] + data[count // 2]) / 2.0
    variance = sum((v - mean) ** 2 for v in data) / count
    return Summary(count=count, minimum=data[0], median=median,
                   mean=mean, stddev=math.sqrt(variance),
                   maximum=data[-1])


def summarize_metric(records: Iterable[RunRecord], client: str,
                     metric: Callable[[RunRecord], Optional[float]]
                     ) -> Optional[Summary]:
    """Summary of ``metric`` over a client's runs (None values skipped)."""
    return summarize(value for record in records if record.client == client
                     and (value := metric(record)) is not None)


def cad_summary(records: Iterable[RunRecord],
                client: str) -> Optional[Summary]:
    return summarize_metric(records, client, lambda record: record.cad_s)


def rd_summary(records: Iterable[RunRecord],
               client: str) -> Optional[Summary]:
    return summarize_metric(records, client, lambda record: record.rd_s)


def stall_summary(records: Iterable[RunRecord],
                  client: str) -> Optional[Summary]:
    return summarize_metric(
        records, client, lambda record: record.time_to_first_attempt_s)


def outlier_fraction(records: Iterable[RunRecord], client: str,
                     nominal_cad_s: float,
                     tolerance_s: float = 0.010) -> Optional[float]:
    """Fraction of runs whose observed CAD exceeds the nominal value.

    This is the paper's Firefox observation operationalized: outliers
    are CADs more than ``tolerance`` above the configured value.
    """
    values = [record.cad_s for record in records
              if record.client == client and record.cad_s is not None]
    if not values:
        return None
    late = sum(1 for value in values
               if value > nominal_cad_s + tolerance_s)
    return late / len(values)
