"""Flow-size distributions.

The paper's fidelity and comprehensive tests (Sections 7.4-7.5) use the
WebSearch traffic model from the DCTCP paper: a heavy-tailed empirical
flow-size CDF where a small fraction of flows carries most bytes.  The
points below are the widely used published WebSearch CDF (sizes in
bytes); sampling inverts the CDF with linear interpolation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

#: (size_bytes, cumulative_probability) for the DCTCP WebSearch workload.
WEBSEARCH_CDF_POINTS: tuple[tuple[int, float], ...] = (
    (0, 0.0),
    (10_000, 0.15),
    (20_000, 0.20),
    (30_000, 0.30),
    (50_000, 0.40),
    (80_000, 0.53),
    (200_000, 0.60),
    (1_000_000, 0.70),
    (2_000_000, 0.80),
    (5_000_000, 0.90),
    (10_000_000, 0.97),
    (30_000_000, 1.00),
)


class SizeDistribution(ABC):
    """A sampler of flow sizes in bytes."""

    @abstractmethod
    def sample_bytes(self, rng: np.random.Generator) -> int:
        """Draw one flow size (>= 1 byte)."""

    @abstractmethod
    def mean_bytes(self) -> float:
        """Expected flow size."""

    def sample_packets(
        self, rng: np.random.Generator, payload_bytes: int
    ) -> int:
        """Draw a size and convert to whole packets (>= 1)."""
        if payload_bytes <= 0:
            raise ValueError(f"payload must be positive, got {payload_bytes}")
        size = self.sample_bytes(rng)
        return max(1, -(-size // payload_bytes))


class FixedSize(SizeDistribution):
    """Degenerate distribution (every flow the same size)."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        self.size_bytes = size_bytes

    def sample_bytes(self, rng: np.random.Generator) -> int:
        return self.size_bytes

    def mean_bytes(self) -> float:
        return float(self.size_bytes)


class EmpiricalCdf(SizeDistribution):
    """Inverse-transform sampling from a piecewise-linear CDF."""

    def __init__(self, points: Sequence[tuple[int, float]]) -> None:
        if len(points) < 2:
            raise ValueError("an empirical CDF needs at least two points")
        sizes = np.array([p[0] for p in points], dtype=float)
        probs = np.array([p[1] for p in points], dtype=float)
        if not np.all(np.diff(sizes) > 0):
            raise ValueError("CDF sizes must be strictly increasing")
        if not np.all(np.diff(probs) >= 0):
            raise ValueError("CDF probabilities must be non-decreasing")
        if probs[0] != 0.0 or probs[-1] != 1.0:
            raise ValueError("CDF must start at probability 0 and end at 1")
        self.sizes = sizes
        self.probs = probs

    def sample_bytes(self, rng: np.random.Generator) -> int:
        u = rng.random()
        size = float(np.interp(u, self.probs, self.sizes))
        return max(1, int(round(size)))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Vectorized sampling (used by the fluid simulator)."""
        u = rng.random(n)
        sizes = np.interp(u, self.probs, self.sizes)
        return np.maximum(1, np.round(sizes)).astype(np.int64)

    def mean_bytes(self) -> float:
        # Piecewise-linear CDF => uniform density within each segment.
        seg_prob = np.diff(self.probs)
        seg_mean = (self.sizes[:-1] + self.sizes[1:]) / 2.0
        return float(np.sum(seg_prob * seg_mean))

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {p}")
        return float(np.interp(p, self.probs, self.sizes))


#: (size_bytes, cumulative_probability) for the widely used Facebook
#: Hadoop workload approximation: dominated by sub-kB RPCs with a thin
#: multi-MB tail — the opposite regime from WebSearch, useful for
#: stressing short-flow handling.
HADOOP_CDF_POINTS: tuple[tuple[int, float], ...] = (
    (0, 0.0),
    (250, 0.20),
    (500, 0.45),
    (1_000, 0.60),
    (2_000, 0.70),
    (10_000, 0.80),
    (100_000, 0.90),
    (1_000_000, 0.96),
    (10_000_000, 1.00),
)


def websearch() -> EmpiricalCdf:
    """The DCTCP-paper WebSearch flow-size distribution."""
    return EmpiricalCdf(WEBSEARCH_CDF_POINTS)


def hadoop() -> EmpiricalCdf:
    """The (approximate) Facebook Hadoop flow-size distribution."""
    return EmpiricalCdf(HADOOP_CDF_POINTS)


#: Traffic-model factories by name: what a campaign spec's ``workload``
#: field and the CLI's ``--workload`` flags may ask for.
DISTRIBUTIONS = {"websearch": websearch, "hadoop": hadoop}
