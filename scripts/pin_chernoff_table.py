#!/usr/bin/env python3
"""Write the shipped Chernoff table, ``src/threshold_regret/chernoff_default.npz``.

The file holds ``simulate_chernoff()`` at its defaults (``SHIPPED_CONFIG``:
200 000 paths, halfwidth 2.5, step 5e-4, seed 7) as one int16 array ``k`` of
signed grid indices: draw i is sign(k_i) * r[|k_i| - 1] on the wing grid
r = step, 2 step, ..., m step, and +0.0 when k_i = 0.  Before writing, the
script rebuilds the table from the indices and requires the samples' bytes
and ``float.hex`` of the mean and second moment to equal the simulated
table's.  It refuses to overwrite an existing file whose indices differ
(``_pins.keep_or_write``): every default ``asymptotics``, ``infer --method
plugin`` and ``simulate`` run reads that file, so changing its bits changes
their outputs.

Usage:
    PYTHONPATH=src python scripts/pin_chernoff_table.py [--jobs 2] [--out PATH]

The simulation takes about 8 s on one core with the compiled kernels.
"""

import sys

import numpy as np

import _pins
from threshold_regret import chernoff
from threshold_regret.chernoff import SHIPPED_CONFIG, SHIPPED_PATH, simulate_chernoff


def grid_indices(table):
    """Signed int16 grid indices of ``table.samples``; raises unless every draw is on the grid."""
    m = chernoff._grid_size(table.domain_halfwidth, table.grid_step)
    if m >= 2**15:
        raise ValueError(f"{m} grid points per wing do not fit int16 indices")
    points = np.concatenate(([0.0], chernoff._grid(m, table.grid_step)))
    magnitude = np.abs(table.samples)
    index = np.searchsorted(points, magnitude)
    if not np.array_equal(points[np.minimum(index, m)], magnitude):
        raise ValueError("a draw is not a grid point")
    return np.where(table.samples < 0, -index, index).astype(np.int16)


def check_rebuild(table, k):
    """Raise unless the indices rebuild ``table`` bit for bit."""
    rebuilt = chernoff._from_indices(k, table.domain_halfwidth, table.grid_step, table.seed)
    if rebuilt.samples.tobytes() != table.samples.tobytes():
        raise ValueError("rebuilt samples differ from the simulated ones")
    for name in ("mean", "second_moment"):
        if getattr(rebuilt, name).hex() != getattr(table, name).hex():
            raise ValueError(f"rebuilt {name} differs from the simulated one")


def main(argv=None):
    parser = _pins.parser(__doc__, SHIPPED_PATH)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    n_paths, domain_halfwidth, grid_step, seed = SHIPPED_CONFIG
    table = simulate_chernoff(n_paths, domain_halfwidth, grid_step, seed, jobs=args.jobs)
    k = grid_indices(table)
    check_rebuild(table, k)

    def n_differing(path):
        with np.load(path) as data:
            old = data["k"]
        return int(np.count_nonzero(old != k)) if old.shape == k.shape else max(len(old), len(k))

    return _pins.keep_or_write(args.out, n_differing, lambda path: np.savez_compressed(path, k=k),
                               f"{len(k)} indices")


if __name__ == "__main__":
    sys.exit(main())
