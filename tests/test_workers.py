import time

import pytest

from threshold_regret._workers import parallel_map, require_int
from threshold_regret.errors import ValidationError


def _square(v):
    return v * v


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_parallel_map_keeps_task_order(jobs):
    assert parallel_map(_square, list(range(23)), jobs) == [v * v for v in range(23)]


def _fail_slowly_first(v):
    time.sleep(0.3 if v == 0 else 0.0)
    raise ValueError(f"task {v}")


@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_map_raises_the_first_failing_task_in_order(jobs):
    """Task 1 fails first in time; the error is task 0's, as in the serial loop."""
    with pytest.raises(ValueError, match="^task 0$"):
        parallel_map(_fail_slowly_first, [0, 1], jobs)


@pytest.mark.parametrize("jobs", [0, -1, 1.0, "2", None, True])
def test_parallel_map_refuses_jobs_that_are_not_a_positive_integer(jobs):
    with pytest.raises(ValidationError, match="^jobs must be"):
        parallel_map(_square, [1], jobs)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (0.5, "seed must be an integer, got 0.5"),
    ("7", "seed must be an integer, got '7'"),
])
def test_require_int_names_the_value_and_its_bound(seed, message):
    with pytest.raises(ValidationError) as info:
        require_int("seed", seed, 0)
    assert str(info.value) == message
