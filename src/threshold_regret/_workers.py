"""Forked workers for seeded tasks, and the integer check for their counts and seeds.

Each task carries its own seed, so results do not depend on the worker count.
``multiprocessing`` is imported only when a pool is started, so a serial run
and a plain ``import threshold_regret`` never load it.
"""

import numbers

from .errors import ValidationError


def require_int(name: str, value, least: int) -> None:
    """ValidationError unless ``value`` is an integer >= ``least``; a ``bool`` is not one."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")


def parallel_map(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]`` in task order, over ``jobs`` forked workers when ``jobs > 1``.

    Like the serial loop, it raises the error of the first task in task order
    that fails, whichever worker fails first.
    """
    require_int("jobs", jobs, 1)
    if jobs == 1:
        return [fn(t) for t in tasks]
    from multiprocessing import get_context

    with get_context("fork").Pool(jobs) as pool:
        # Pool.map's default chunks; its results come in task order, errors included
        return list(pool.imap(fn, tasks, chunksize=max(1, -(-len(tasks) // (4 * jobs)))))
