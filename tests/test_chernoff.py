import importlib.util
import inspect
import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from helpers import one_shot_chernoff_block
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshold_regret import chernoff
from threshold_regret.chernoff import chernoff_quantile, simulate_chernoff
from threshold_regret.errors import ValidationError

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_parameter_bounds_enforced():
    with pytest.raises(ValidationError):
        simulate_chernoff(n_paths=5000)
    with pytest.raises(ValidationError):
        simulate_chernoff(domain_halfwidth=1.5)
    with pytest.raises(ValidationError):
        simulate_chernoff(grid_step=2e-3)
    with pytest.raises(ValidationError):
        simulate_chernoff(grid_step=0.0)


@pytest.mark.parametrize("kwargs", [
    {"grid_step": math.nan},
    {"domain_halfwidth": math.nan},
    {"domain_halfwidth": math.inf},
    {"n_paths": 10_000.5},
    {"n_paths": 10_000.0},
    {"seed": 2.5},
    {"jobs": 1.5},
])
def test_non_finite_or_non_integer_inputs_rejected(kwargs):
    with pytest.raises(ValidationError):
        simulate_chernoff(**kwargs)


def test_numpy_integer_path_count_accepted():
    table = simulate_chernoff(n_paths=np.int64(10_000), domain_halfwidth=2.0, grid_step=1e-3, seed=5)
    assert table.n_paths == 10_000


@given(
    seed=st.integers(0, 2**32 - 1),
    block_index=st.integers(0, 10_000),
    n_paths=st.integers(1, 200),
    m=st.integers(2000, 5000),
    step=st.floats(1e-4, 1e-3),
    strip_rows=st.sampled_from([None, 1, 7]),
)
@example(seed=5, block_index=0, n_paths=27, m=5000, step=5e-4, strip_rows=None)
@example(seed=5, block_index=1, n_paths=66, m=2000, step=1e-3, strip_rows=None)
@example(seed=7, block_index=3, n_paths=1, m=2857, step=7e-4, strip_rows=None)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_strips_match_one_shot_block(seed, block_index, n_paths, m, step, strip_rows):
    """The strip simulator reproduces the whole-block draw bit for bit,
    including path counts that the strip height does not divide."""
    args = (seed, block_index, n_paths, m, step)
    strip_bytes = chernoff._STRIP_BYTES if strip_rows is None else strip_rows * 16 * m
    with mock.patch.object(chernoff, "_STRIP_BYTES", strip_bytes):
        fast = chernoff._simulate_block(args)
    assert fast.tobytes() == one_shot_chernoff_block(args).tobytes()


def _pin_script():
    spec = importlib.util.spec_from_file_location(
        "pin_chernoff_outputs", ROOT / "scripts" / "pin_chernoff_outputs.py"
    )
    pin = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pin)
    return pin


def test_simulate_chernoff_reproduces_pinned_outputs():
    """Bit-for-bit tables recorded by scripts/pin_chernoff_outputs.py."""
    with open(ROOT / "tests" / "data" / "chernoff_pinned.json") as fh:
        pinned = json.load(fh)["chernoff"]
    assert _pin_script().chernoff_results() == pinned


def test_ewm_bootstrap_reproduces_pinned_outputs():
    """Bit-for-bit bootstrap draws recorded by scripts/pin_chernoff_outputs.py."""
    with open(ROOT / "tests" / "data" / "chernoff_pinned.json") as fh:
        pinned = json.load(fh)["bootstrap"]
    assert _pin_script().bootstrap_results() == pinned


def test_reproducible_bit_for_bit(small_chernoff):
    again = simulate_chernoff(n_paths=10_000, domain_halfwidth=2.0, grid_step=1e-3, seed=5)
    np.testing.assert_array_equal(small_chernoff.samples, again.samples)


def test_worker_count_does_not_change_samples(small_chernoff):
    parallel = simulate_chernoff(
        n_paths=10_000, domain_halfwidth=2.0, grid_step=1e-3, seed=5, jobs=2
    )
    np.testing.assert_array_equal(small_chernoff.samples, parallel.samples)


def test_mean_near_zero_at_simulation_accuracy(small_chernoff):
    sd = float(np.std(small_chernoff.samples))
    assert abs(small_chernoff.mean) < 3.0 * sd / np.sqrt(small_chernoff.n_paths)


def test_median_near_zero(small_chernoff):
    assert abs(chernoff_quantile(small_chernoff, 0.5)) < 0.02


def test_upper_and_lower_quantiles_mirror(small_chernoff):
    hi = chernoff_quantile(small_chernoff, 0.975)
    lo = chernoff_quantile(small_chernoff, 0.025)
    assert hi > 0
    assert hi == pytest.approx(-lo, abs=0.03)


def test_quantiles_monotone(small_chernoff):
    qs = np.linspace(0.01, 0.99, 33)
    values = [chernoff_quantile(small_chernoff, q) for q in qs]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_quantile_level_validated(small_chernoff):
    with pytest.raises(ValidationError):
        chernoff_quantile(small_chernoff, 0.0)
    with pytest.raises(ValidationError):
        chernoff_quantile(small_chernoff, 1.0)


def test_argmax_concentrates_inside_two(small_chernoff):
    assert float(np.mean(np.abs(small_chernoff.samples) > 2.0)) < 0.01


def test_independent_seeds_agree_on_upper_quantile():
    a = simulate_chernoff(n_paths=20_000, domain_halfwidth=2.0, grid_step=1e-3, seed=101)
    b = simulate_chernoff(n_paths=20_000, domain_halfwidth=2.0, grid_step=1e-3, seed=202)
    assert chernoff_quantile(a, 0.975) == pytest.approx(
        chernoff_quantile(b, 0.975), abs=0.02
    )


def test_samples_are_immutable(small_chernoff):
    with pytest.raises(ValueError):
        small_chernoff.samples[0] = 1.0


def test_grid_beyond_limit_is_validation_error():
    with pytest.raises(ValidationError, match=f"at most {chernoff._MAX_GRID} grid points"):
        simulate_chernoff(grid_step=1e-300)


def test_shipped_config_is_the_simulator_default():
    defaults = inspect.signature(simulate_chernoff).parameters
    names = ("n_paths", "domain_halfwidth", "grid_step", "seed")
    assert tuple(defaults[name].default for name in names) == chernoff.SHIPPED_CONFIG


def test_grid_indices_rebuild_a_table_bit_for_bit(small_chernoff):
    """The shipped table's encoding, checked on the session table: every draw is 0 or +-r on the grid."""
    step, halfwidth = small_chernoff.grid_step, small_chernoff.domain_halfwidth
    k = np.rint(small_chernoff.samples / step).astype(np.int16)
    rebuilt = chernoff._from_indices(k, halfwidth, step, small_chernoff.seed)
    assert rebuilt.samples.tobytes() == small_chernoff.samples.tobytes()
    assert rebuilt.mean.hex() == small_chernoff.mean.hex()
    assert rebuilt.second_moment.hex() == small_chernoff.second_moment.hex()
