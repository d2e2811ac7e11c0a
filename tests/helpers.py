"""Shared brute-force oracles, kept deliberately independent of the library paths."""

import csv
import importlib
import json
import math
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import sysconfig

import numpy as np
import pytest
from hypothesis import strategies as st

import threshold_regret
from threshold_regret import nuisance
from threshold_regret.data import Sample, empirical_welfare
from threshold_regret.errors import ValidationError

ROOT = pathlib.Path(__file__).resolve().parent.parent


def require_compiler():
    """Skip the calling test when the compiler that builds the native kernels is not on PATH."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"the configured compiler {compiler!r} is not on PATH")


def load_script(name):
    """The module of ``scripts/<name>.py``.  scripts/ is not a package and its
    scripts import each other (``_pins``, ``coverage_study``), so it goes on sys.path."""
    if str(ROOT / "scripts") not in sys.path:
        sys.path.insert(0, str(ROOT / "scripts"))
    return importlib.import_module(name)


def fresh_python(code, *args):
    """stdout of ``code`` run in a fresh interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(threshold_regret.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def pinned(name):
    """The records of the pin file ``tests/data/<name>``."""
    with open(ROOT / "tests" / "data" / name) as fh:
        return json.load(fh)


def random_sample(rng, n, constant_p=True):
    y = rng.normal(size=n)
    d = (rng.random(n) < 0.5).astype(int)
    x = rng.normal(size=n)
    if constant_p:
        p = 0.5
    else:
        p = rng.uniform(0.2, 0.8, size=n)
    return Sample(y=y, d=d, x=x, propensity=p)


def index_values():
    """x vectors of up to 300 values: tie-free, heavily tied, or holding both -0.0 and +0.0."""
    tie_free = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300, unique=True)
    tied = st.lists(st.sampled_from([-1.5, 0.0, 2.0, 7.25]), min_size=2, max_size=300)
    zeros = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), max_size=300).flatmap(
        lambda v: st.permutations(v + [-0.0, 0.0]))
    return (tie_free | tied | zeros).map(np.array)


def overflowing_sample(n=200):
    """IPW scores of +-1.6e308, finite one by one, whose partial sums overflow.

    y = +-8e307 alternating, d = (i // 2) % 2, x = i and propensity 0.5;
    ``fit_ewm`` fits it (t_hat = 0.5).
    """
    i = np.arange(n)
    return Sample(y=np.where(i % 2 == 0, 8e307, -8e307), d=(i // 2) % 2, x=i.astype(float), propensity=0.5)


def canonical_cuts(sample, space):
    """All n+1 candidate thresholds: boundary midpoints plus gap midpoints."""
    xs = np.sort(np.asarray(sample.x))
    cuts = [0.5 * (space.lo + xs[0])]
    for a, b in zip(xs[:-1], xs[1:]):
        if b > a:
            cuts.append(0.5 * (a + b))
    cuts.append(0.5 * (xs[-1] + space.hi))
    return cuts


def brute_force_ewm_objective(sample, space):
    """O(n^2) exhaustive search over all canonical cuts via the welfare formula."""
    return max(empirical_welfare(sample, t) for t in canonical_cuts(sample, space))


def one_shot_chernoff_block(args):
    """Argmax draws of one Chernoff block, drawn and summed as one (n_paths, 2m) array.

    Reference for ``chernoff._simulate_block``, which works in strips of
    paths and must reproduce these draws bit for bit.
    """
    seed, block_index, n_paths, m, step = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    increments = rng.standard_normal((n_paths, 2 * m)) * math.sqrt(step)
    r = np.arange(1, m + 1) * step
    penalty = r * r
    right = np.cumsum(increments[:, :m], axis=1) - penalty
    left = np.cumsum(increments[:, m:], axis=1) - penalty
    rows = np.arange(n_paths)
    right_arg = np.argmax(right, axis=1)
    left_arg = np.argmax(left, axis=1)
    right_max = right[rows, right_arg]
    left_max = left[rows, left_arg]
    z = np.zeros(n_paths)
    best = np.zeros(n_paths)
    take_left = left_max > best
    z[take_left] = -r[left_arg[take_left]]
    best[take_left] = left_max[take_left]
    take_right = (right_max > best) | ((right_max == best) & (r[right_arg] < np.abs(z)))
    z[take_right] = r[right_arg[take_right]]
    return z


def welfare_by_quadrature(dgp, t, lo=-10.0, hi=10.0, n_nodes=20001):
    """Population welfare by composite Simpson integration of tau(x) phi(x)."""
    xs = np.linspace(max(t, lo), hi, n_nodes)
    phi = np.exp(-0.5 * xs**2) / math.sqrt(2.0 * math.pi)
    tau = xs**3 + dgp.beta2 * xs**2 + dgp.beta1 * xs
    f = tau * phi
    h = xs[1] - xs[0]
    weights = np.ones(n_nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.dot(weights, f))


def loop_compensated_suffix_sums(values):
    """Neumaier-compensated suffix sums by the scalar recurrence, one value at a time.

    Reference for ``ewm._compensated_suffix_sums``, which must match it bit
    for bit, apart from the sign and payload of NaNs.
    """
    n = len(values)
    out = np.empty(n + 1)
    out[n] = 0.0
    total = 0.0
    comp = 0.0
    for j in range(n - 1, -1, -1):
        v = values[j]
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out[j] = total + comp
    return out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, a, b, tol):
    """Golden-section search for a maximum of f on [a, b], to a bracket of ``tol``.

    Reference for the Newton refinement of ``swm.fit_swm``, which must land
    within ``tol`` of it, plus the resolution golden section itself has where
    the maximum is flat to rounding.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def loop_load_sample_csv(path, propensity=None, eta=0.01):
    """``load_sample_csv`` as one ``csv.reader`` loop over the rows.

    Reference for ``data.load_sample_csv``, whose compiled pass must give the
    same sample bits, or the same exception type and text, on every file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty, expected header y,d,x[,p]") from None
        cols = [c.strip().lower() for c in header]
        if cols:  # past a leading byte-order mark
            cols[0] = header[0].removeprefix("\ufeff").strip().lower()
        required = ("y", "d", "x")
        for name in required:
            if name not in cols:
                raise ValidationError(f"{path}: header {header!r} is missing required column '{name}'")
        known = set(required) | {"p"}
        unknown = [c for c in cols if c not in known]
        if unknown:
            raise ValidationError(f"{path}: unknown column(s) {unknown}; expected y,d,x[,p]")
        idx = {name: cols.index(name) for name in cols}
        has_p = "p" in idx
        y, d, x, p = [], [], [], []
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(cols):
                raise ValidationError(
                    f"{path}: row {row_num} has {len(row)} fields, expected {len(cols)}"
                )
            try:
                y.append(float(row[idx["y"]]))
            except ValueError:
                raise ValidationError(
                    f"{path}: row {row_num}, column 'y': cannot parse {row[idx['y']]!r} as a number"
                ) from None
            d_raw = row[idx["d"]].strip()
            if d_raw not in ("0", "1"):
                raise ValidationError(
                    f"{path}: row {row_num}, column 'd': expected integer 0 or 1, got {d_raw!r}"
                )
            d.append(int(d_raw))
            try:
                x.append(float(row[idx["x"]]))
            except ValueError:
                raise ValidationError(
                    f"{path}: row {row_num}, column 'x': cannot parse {row[idx['x']]!r} as a number"
                ) from None
            if has_p:
                try:
                    p.append(float(row[idx["p"]]))
                except ValueError:
                    raise ValidationError(
                        f"{path}: row {row_num}, column 'p': cannot parse {row[idx['p']]!r} as a number"
                    ) from None
    if has_p:
        prop = np.asarray(p)
    elif propensity is not None:
        prop = propensity
    else:
        raise ValidationError(
            f"{path}: no 'p' column present; pass a scalar propensity for the experiment"
        )
    return Sample(y=np.asarray(y), d=np.asarray(d), x=np.asarray(x), propensity=prop, eta=eta)


def two_fit_khA(sample, t_eval, kernel):
    """(K, H, A) of ``nuisance.estimate_khA`` with each arm's cubic fitted twice.

    Reference for ``estimate_khA``, which fits the cubic once and reads both
    derivatives from it; the arithmetic is otherwise the same, so the two
    must agree bit for bit.
    """
    n, x = sample.n, sample.x
    f_hat = nuisance.kde(x, t_eval, nuisance._KDE_LEVEL_FACTOR * nuisance._sd(x) * n ** (-1.0 / 5.0))
    fprime_hat = nuisance.kde(
        x, t_eval, nuisance._KDE_DERIV_FACTOR * nuisance._sd(x) * n ** (-1.0 / 7.0), derivative=1
    )
    p_local = nuisance._local_propensity(
        sample, t_eval, nuisance._KDE_LEVEL_FACTOR * nuisance._sd(x) * n ** (-1.0 / 5.0)
    )
    kappa, nu1, nu2 = {}, {}, {}
    for arm in (0, 1):
        x_j, y_j = x[sample.d == arm], sample.y[sample.d == arm]
        bw_level = nuisance._REG_LEVEL_FACTOR * nuisance._sd(x_j) * len(x_j) ** (-1.0 / 5.0)
        bw_deriv = nuisance._REG_DERIV_FACTOR * nuisance._sd(x_j) * len(x_j) ** (-1.0 / 7.0)
        kappa[arm] = nuisance.local_poly(x_j, y_j**2, t_eval, bw_level, degree=1, derivative=0)
        nu1[arm] = nuisance.local_poly(x_j, y_j, t_eval, bw_deriv, degree=3, derivative=1)
        nu2[arm] = nuisance.local_poly(x_j, y_j, t_eval, bw_deriv, degree=3, derivative=2)
    k_hat = f_hat * (kappa[1] / p_local + kappa[0] / (1.0 - p_local))
    tau_prime = nu1[1] - nu1[0]
    a_hat = -(kernel.alpha1 / math.factorial(kernel.h)) * (
        2.0 * fprime_hat * tau_prime + f_hat * (nu2[1] - nu2[0])
    )
    return k_hat, f_hat * tau_prime, a_hat
