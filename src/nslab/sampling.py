"""Seeded phase-space point clouds for residual sweeps and regularity checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import PhasePoint


@dataclass
class PointSampler:
    """Uniform x in a box, p on shells log-spaced in |p|.

    The momentum never hits zero by construction (the residual theory is
    stated away from p = 0) and spans decades evenly, which is what the
    scale-robustness checks want.
    """

    n: int
    count: int
    seed: int = 42
    pmin: float = 0.1
    pmax: float = 10.0
    xbox: float = 1.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sampler has no points: count must be at least 1")
        if not (0 < self.pmin <= self.pmax < np.inf):
            raise ValueError("momentum shells need finite 0 < pmin <= pmax")
        if not (0 <= self.xbox < np.inf):
            raise ValueError("the position box needs a finite xbox >= 0")

    def points(self):
        rng = np.random.default_rng(self.seed)
        out = []
        for _ in range(self.count):
            x = rng.uniform(-self.xbox, self.xbox, self.n)
            radius = 10.0 ** rng.uniform(np.log10(self.pmin), np.log10(self.pmax))
            direction = rng.normal(size=self.n)
            while np.linalg.norm(direction) < 1e-12:
                direction = rng.normal(size=self.n)
            p = radius * direction / np.linalg.norm(direction)
            out.append(PhasePoint(x, p))
        return out
