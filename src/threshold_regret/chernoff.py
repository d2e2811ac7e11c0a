"""Simulation of the argmax of two-sided Brownian motion minus a parabola.

The threshold estimator based on the unsmoothed welfare objective converges,
after cube-root scaling, to Z = argmax_r (B(r) - r^2) with B a two-sided
standard Brownian motion.  No analytic density is used anywhere in this
package; Z's moments and quantiles come from a Monte Carlo table.  The
table of the default configuration (2e5 paths, halfwidth 2.5, step 5e-4,
seed 7) ships with the package, see :func:`shipped_chernoff_table`; every
other configuration is simulated here.  Each path evaluates B exactly on a
symmetric grid (two independent wings of cumulative Gaussian increments
from the origin) and records the grid point maximizing B(r) - r^2.

Paths are generated in fixed-size blocks, each block seeded independently
from (seed, block index), so a table is bit-for-bit reproducible from its
seed regardless of how many workers generated it.  A block is worked
through in strips of a few dozen paths that reuse one increment buffer and
one wing buffer, so memory is bounded by those strip buffers (about 3 MB,
or one path when a path is larger), not by the block.  The generator
draws value by value, so the strips reproduce the draws of the whole
block taken at once.

Every draw is 0 or +-r on the grid r = step, 2 step, ..., so the shipped
table is stored as signed grid indices (``chernoff_default.npz``, int16,
read on first use) and rebuilt bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._workers import parallel_map, require_int
from .errors import ValidationError

__all__ = [
    "ChernoffTable",
    "simulate_chernoff",
    "shipped_chernoff_table",
    "chernoff_quantile",
    "DEFAULT_CHERNOFF_SEED",
    "SHIPPED_CONFIG",
]

# Default seed for the shipped table configuration (2e5 paths, step 5e-4,
# halfwidth 2.5); chosen once and pinned so reports are reproducible.
DEFAULT_CHERNOFF_SEED = 7
# (n_paths, domain_halfwidth, grid_step, seed) of simulate_chernoff's
# defaults, whose table ships as signed grid indices in SHIPPED_PATH
SHIPPED_CONFIG = (200_000, 2.5, 5e-4, DEFAULT_CHERNOFF_SEED)
SHIPPED_PATH = Path(__file__).with_name("chernoff_default.npz")

_BLOCK = 1000
# byte size of one strip of increments: a few dozen paths at the default grid,
# small enough that the strip and its wing buffer stay in cache
_STRIP_BYTES = 1 << 21
# most grid points per wing, m = halfwidth / step: 200 times the default grid
# (m = 5000), and small enough that one path's buffers stay near 40 MB
_MAX_GRID = 1_000_000


@dataclass(frozen=True)
class ChernoffTable:
    """Monte Carlo draws of Z = argmax(B(r) - r^2) with summary moments."""

    samples: np.ndarray
    mean: float
    second_moment: float
    grid_step: float
    domain_halfwidth: float
    n_paths: int
    seed: int

    def __post_init__(self):
        self.samples.setflags(write=False)


def _grid(m: int, step: float) -> np.ndarray:
    """One wing's grid points r = step, 2 step, ..., m step."""
    return np.arange(1, m + 1) * step


def _grid_size(domain_halfwidth: float, grid_step: float) -> int:
    return int(round(domain_halfwidth / grid_step))


def _table(samples, n_paths, domain_halfwidth, grid_step, seed) -> ChernoffTable:
    return ChernoffTable(
        samples=samples,
        mean=float(samples.mean()),
        second_moment=float(np.mean(samples**2)),
        grid_step=grid_step,
        domain_halfwidth=domain_halfwidth,
        n_paths=n_paths,
        seed=seed,
    )


def _simulate_block(args) -> np.ndarray:
    seed, block_index, n_paths, m, step = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    r = _grid(m, step)
    penalty = r * r
    scale = math.sqrt(step)
    height = max(1, min(n_paths, _STRIP_BYTES // (16 * m)))
    increments = np.empty((height, 2 * m))
    wing = np.empty((height, m))
    right_arg = np.empty(n_paths, dtype=np.intp)
    left_arg = np.empty(n_paths, dtype=np.intp)
    right_max = np.empty(n_paths)
    left_max = np.empty(n_paths)
    wings = ((slice(0, m), right_arg, right_max), (slice(m, 2 * m), left_arg, left_max))
    for lo in range(0, n_paths, height):
        hi = min(lo + height, n_paths)
        strip = increments[: hi - lo]
        # the generator fills row by row, so strips continue the one-shot draw
        rng.standard_normal(out=strip)
        strip *= scale
        cum = wing[: hi - lo]
        rows = np.arange(hi - lo)
        for cols, arg, peak in wings:
            np.cumsum(strip[:, cols], axis=1, out=cum)
            cum -= penalty
            # within a wing, argmax takes the first (closest to zero) maximizer
            arg[lo:hi] = np.argmax(cum, axis=1)
            peak[lo:hi] = cum[rows, arg[lo:hi]]
    # candidate at r = 0 has value 0; ties resolve toward 0, then smaller r
    z = np.zeros(n_paths)
    best = np.zeros(n_paths)
    take_left = left_max > best
    z[take_left] = -r[left_arg[take_left]]
    best[take_left] = left_max[take_left]
    take_right = (right_max > best) | ((right_max == best) & (r[right_arg] < np.abs(z)))
    z[take_right] = r[right_arg[take_right]]
    return z


def simulate_chernoff(
    n_paths: int = 200_000,
    domain_halfwidth: float = 2.5,
    grid_step: float = 5e-4,
    seed: int = DEFAULT_CHERNOFF_SEED,
    jobs: int = 1,
) -> ChernoffTable:
    """Build a table of argmax draws on a symmetric grid of halfwidth M.

    The grid resolves locations to ``grid_step`` and the argmax concentrates
    well inside ``|r| <= 2``, so the defaults (M = 2.5, step = 5e-4, 2e5
    paths) stabilize quantiles to roughly 0.005.
    """
    if not (2 <= domain_halfwidth < math.inf):
        raise ValidationError(f"domain_halfwidth must be finite and >= 2, got {domain_halfwidth}")
    if not (0 < grid_step <= 1e-3):
        raise ValidationError(f"grid_step must lie in (0, 1e-3], got {grid_step}")
    require_int("n_paths", n_paths, 10_000)
    require_int("seed", seed, 0)
    m = _grid_size(domain_halfwidth, grid_step)
    if m > _MAX_GRID:
        raise ValidationError(
            f"domain_halfwidth / grid_step must be at most {_MAX_GRID} grid points per wing, "
            f"got {domain_halfwidth} / {grid_step}"
        )
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    tasks = [
        (seed, b, min(_BLOCK, n_paths - b * _BLOCK), m, grid_step) for b in range(n_blocks)
    ]
    samples = np.concatenate(parallel_map(_simulate_block, tasks, jobs))
    return _table(samples, n_paths, domain_halfwidth, grid_step, seed)


def _from_indices(k: np.ndarray, domain_halfwidth: float, grid_step: float, seed: int) -> ChernoffTable:
    """Rebuild a table from its signed grid indices: draw i is sign(k_i) r[|k_i| - 1], or +0.0."""
    points = np.concatenate(([0.0], _grid(_grid_size(domain_halfwidth, grid_step), grid_step)))
    magnitude = points[np.abs(k)]
    samples = np.where(k < 0, -magnitude, magnitude)
    return _table(samples, len(k), domain_halfwidth, grid_step, seed)


@functools.cache
def shipped_chernoff_table() -> ChernoffTable:
    """``simulate_chernoff()`` at its defaults (SHIPPED_CONFIG), read from the package data.

    The first call reads about 345 kB; later calls return the same table.
    """
    _, domain_halfwidth, grid_step, seed = SHIPPED_CONFIG
    with np.load(SHIPPED_PATH) as data:
        return _from_indices(data["k"], domain_halfwidth, grid_step, seed)


def chernoff_quantile(table: ChernoffTable, q: float) -> float:
    """Empirical quantile of Z; the CI critical value is quantile(1 - alpha/2)."""
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1), got {q}")
    return float(np.quantile(table.samples, q))
