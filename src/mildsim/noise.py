"""Reproducible Gaussian increments from a counter-based generator.

Each (seed, stream_id) pair names an independent stream realized by a
Philox generator keyed with seed * 2^64 + stream_id.  Draw j of a
stream is a pure function of (seed, stream_id, j): uniform bits come
from the counter block containing position j, are mapped into (0, 1)
at full 53-bit resolution and pushed through the inverse normal CDF.
Per-step access and whole-block generation therefore agree bitwise,
and the absolute value of every variate is hard bounded by Z_BOUND.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

__all__ = [
    "NoiseConfig",
    "Z_BOUND",
    "gaussian_step",
    "gaussian_block",
    "increment_block",
]

_WORDS_PER_BLOCK = 4
_U64 = 1 << 64

# -ndtri(2**-54), the |z| of the smallest uniform the mapping produces; a
# literal so that importing mildsim does not import scipy.special
Z_BOUND = 8.292361075813597


@dataclass(frozen=True)
class NoiseConfig:
    n_modes: int
    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.n_modes < 0:
            raise ValueError("n_modes must be nonnegative")
        if not (0 <= self.seed < _U64):
            raise ValueError("seed must fit in 64 bits")
        if not (0 <= self.stream_id < _U64):
            raise ValueError("stream_id must fit in 64 bits")

    def with_stream(self, stream_id: int) -> "NoiseConfig":
        return NoiseConfig(self.n_modes, self.seed, stream_id)


def _key(cfg: NoiseConfig) -> int:
    return (cfg.seed << 64) + cfg.stream_id


def _to_gaussian(raw: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri  # on first draw: it dominates the import time

    u = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    return ndtri(u)


def gaussian_step(cfg: NoiseConfig, step_index: int) -> np.ndarray:
    """The n_modes standard normals of one step, random access."""
    if step_index < 0:
        raise ValueError("step_index must be nonnegative")
    k = cfg.n_modes
    if k == 0:
        return np.zeros(0)
    start = step_index * k
    block, off = divmod(start, _WORDS_PER_BLOCK)
    raw = Philox(counter=block, key=_key(cfg)).random_raw(off + k)
    return _to_gaussian(raw[off:])


def gaussian_block(cfg: NoiseConfig, n_steps: int) -> np.ndarray:
    """Standard normals for steps 0..n_steps-1, shape (n_steps, n_modes)."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    k = cfg.n_modes
    if n_steps * k == 0:
        return np.zeros((n_steps, k))
    raw = Philox(counter=0, key=_key(cfg)).random_raw(n_steps * k)
    return _to_gaussian(raw).reshape(n_steps, k)


def increment_block(cfg: NoiseConfig, dt: float, n_steps: int) -> np.ndarray:
    return gaussian_block(cfg, n_steps) * np.sqrt(dt)
