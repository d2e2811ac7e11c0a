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
seed regardless of how many workers generated it.  When the compiled
kernels build and load and ``tr_chernoff_block`` of ``_kernels.c`` passes
its check (see ``_native``), it runs a whole block: it draws each wing's
increments with numpy's own PCG64 and normal sampler and scans them as it
goes, holding no more than a 512-word ring of draws (on CPUs with AVX-512,
see ``_kernels.c``).  Otherwise the numpy loop works through the block in
strips of a few dozen paths that reuse one increment buffer and one wing
buffer, so its memory is bounded by those strip buffers (about 3 MB, or one
path when a path is larger), not by the block; the generator draws value by
value, so the strips reproduce the draws of the whole block taken at once.
Both give the same bits.

Every draw is 0 or +-r on the grid r = step, 2 step, ..., so the shipped
table is stored as signed grid indices (``chernoff_default.npz``, int16,
read on first use) and rebuilt bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._workers import parallel_map, require_int
from .errors import ValidationError

__all__ = [
    "ChernoffTable",
    "simulate_chernoff",
    "shipped_chernoff_table",
    "chernoff_table",
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
# byte size of one strip of increments in the numpy loop: a few dozen paths at
# the default grid, small enough that the strip and its wing buffer stay in cache
_STRIP_BYTES = 1 << 21
# most grid points per wing, m = halfwidth / step: 200 times the default grid
# (m = 5000), and small enough that the numpy loop's one-path buffers stay
# near 40 MB (the compiled block keeps no per-path buffer)
_MAX_GRID = 1_000_000


@dataclass(frozen=True)
class ChernoffTable:
    """Monte Carlo draws of Z = argmax(B(r) - r^2) with summary moments.

    ``mean``, ``second_moment`` and ``n_paths`` are taken from the samples.
    """

    samples: np.ndarray
    grid_step: float
    domain_halfwidth: float
    seed: int
    mean: float = field(init=False)
    second_moment: float = field(init=False)
    n_paths: int = field(init=False)

    def __post_init__(self):
        samples = self.samples
        if not (isinstance(samples, np.ndarray) and samples.ndim == 1 and samples.size and samples.dtype.kind == "f"):
            shape = getattr(samples, "shape", None)
            raise ValidationError(
                f"samples must be a non-empty 1-D array of floats, got {type(samples).__name__}"
                + (f" of shape {shape} and dtype {samples.dtype}" if shape is not None else "")
            )
        if not np.isfinite(samples).all():
            raise ValidationError("samples must be finite, got NaN or inf")
        # a read-only copy, so the caller's array stays writable and the table cannot change
        samples = samples.astype(np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "mean", float(samples.mean()))
        object.__setattr__(self, "second_moment", float(np.mean(samples**2)))
        object.__setattr__(self, "n_paths", len(samples))


def _grid(m: int, step: float) -> np.ndarray:
    """One wing's grid points r = step, 2 step, ..., m step."""
    return np.arange(1, m + 1) * step


def _grid_size(domain_halfwidth: float, grid_step: float) -> int:
    return int(round(domain_halfwidth / grid_step))


def _scan_strip(strip, penalty, wing, right_arg, right_max, left_arg, left_max) -> None:
    """Each row's first argmax of cumsum(wing) - penalty, and its value, on both wings, by numpy.

    ``strip`` holds rows of 2m scaled increments, the right wing first;
    ``wing`` is an (at least) rows x m buffer.  This is the scan that the
    compiled ``tr_chernoff_block`` fuses with the draws, and its oracle.
    """
    rows, m = len(strip), len(penalty)
    cum = wing[:rows]
    every = np.arange(rows)
    for cols, arg, peak in ((slice(0, m), right_arg, right_max), (slice(m, 2 * m), left_arg, left_max)):
        np.cumsum(strip[:, cols], axis=1, out=cum)
        cum -= penalty
        # within a wing, argmax takes the first (closest to zero) maximizer
        arg[:] = np.argmax(cum, axis=1)
        peak[:] = cum[every, arg]


def _simulate_block(args) -> np.ndarray:
    from . import _native

    seed, block_index, n_paths, m, step = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    r = _grid(m, step)
    penalty = r * r
    scale = math.sqrt(step)
    kernel = _native.kernel("tr_chernoff_block")
    right_arg = np.empty(n_paths, dtype=np.intp)
    left_arg = np.empty(n_paths, dtype=np.intp)
    right_max = np.empty(n_paths)
    left_max = np.empty(n_paths)
    if kernel is not None:
        kernel(_native.pcg64_words(rng.bit_generator), n_paths, m, scale, penalty,
               right_arg, right_max, left_arg, left_max)
    else:
        height = max(1, min(n_paths, _STRIP_BYTES // (16 * m)))
        increments = np.empty((height, 2 * m))
        wing = np.empty((height, m))
        for lo in range(0, n_paths, height):
            hi = min(lo + height, n_paths)
            strip = increments[: hi - lo]
            # the generator fills row by row, so strips continue the one-shot draw
            rng.standard_normal(out=strip)
            strip *= scale
            _scan_strip(strip, penalty, wing, right_arg[lo:hi], right_max[lo:hi], left_arg[lo:hi], left_max[lo:hi])
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
    # a ratio past the largest double has no grid size, and is past the cap too
    m = _grid_size(domain_halfwidth, grid_step) if math.isfinite(domain_halfwidth / grid_step) else math.inf
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
    return ChernoffTable(samples=samples, grid_step=grid_step, domain_halfwidth=domain_halfwidth, seed=seed)


def _from_indices(k: np.ndarray, domain_halfwidth: float, grid_step: float, seed: int) -> ChernoffTable:
    """Rebuild a table from its signed grid indices: draw i is sign(k_i) r[|k_i| - 1], or +0.0."""
    points = np.concatenate(([0.0], _grid(_grid_size(domain_halfwidth, grid_step), grid_step)))
    magnitude = points[np.abs(k)]
    samples = np.where(k < 0, -magnitude, magnitude)
    return ChernoffTable(samples=samples, grid_step=grid_step, domain_halfwidth=domain_halfwidth, seed=seed)


@functools.cache
def shipped_chernoff_table() -> ChernoffTable:
    """``simulate_chernoff()`` at its defaults (SHIPPED_CONFIG), read from the package data.

    The first call reads about 345 kB; later calls return the same table.
    """
    _, domain_halfwidth, grid_step, seed = SHIPPED_CONFIG
    with np.load(SHIPPED_PATH) as data:
        return _from_indices(data["k"], domain_halfwidth, grid_step, seed)


def chernoff_table(
    n_paths: int = 200_000,
    domain_halfwidth: float = 2.5,
    grid_step: float = 5e-4,
    seed: int = DEFAULT_CHERNOFF_SEED,
    jobs: int = 1,
) -> ChernoffTable:
    """``simulate_chernoff(...)``, read from the package data when the configuration is SHIPPED_CONFIG."""
    require_int("jobs", jobs, 1)
    if (n_paths, domain_halfwidth, grid_step, seed) == SHIPPED_CONFIG:
        return shipped_chernoff_table()
    # through the module global, so a patched or traced simulate_chernoff is the one called
    return simulate_chernoff(n_paths=n_paths, domain_halfwidth=domain_halfwidth, grid_step=grid_step,
                             seed=seed, jobs=jobs)


def _linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` for finite values, bit for bit, without its ``np.unique``.

    numpy's default (linear) rule: the virtual index is (n - 1) q, and the two
    order statistics around it are blended by its fractional part g as
    a + (b - a) g, or b - (b - a)(1 - g) when g >= 0.5.  ``np.quantile``'s
    first call imports ``numpy.ma`` (about 15 ms), this one does not.
    """
    last = len(values) - 1
    virtual = last * q
    # numpy's index pair, (-1, -1) at or past the last point, and its gamma from the pair
    lo, hi = (-1, -1) if virtual >= last else (math.floor(virtual), math.floor(virtual) + 1)
    gamma = virtual - lo
    # numpy's own partition points, so tied values (say -0.0 and 0.0) land where its quantile finds them
    part = np.partition(values, sorted({0, -1, lo, hi}))
    a, b = float(part[lo]), float(part[hi])
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def chernoff_quantile(table: ChernoffTable, q: float) -> float:
    """Empirical quantile of Z; the CI critical value is quantile(1 - alpha/2)."""
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1), got {q}")
    return _linear_quantile(table.samples, q)
