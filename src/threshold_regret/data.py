"""Experimental-sample data model, IPW pseudo-outcomes, and welfare objectives.

A :class:`Sample` holds one experiment: outcomes ``y``, binary treatments
``d``, a scalar policy index ``x``, and known propensity scores.  Everything
downstream (both threshold estimators, nuisance estimation, inference) is
built on two primitives defined here: the inverse-propensity-weighted score

    g_i = d_i * y_i / p_i - (1 - d_i) * y_i / (1 - p_i)

and the empirical welfare of a threshold policy ``treat iff x > t``

    W_n(t) = (1/n) * sum_i [ d_i*y_i/p_i * 1{x_i > t}
                             + (1-d_i)*y_i/(1-p_i) * 1{x_i <= t} ].

All types are immutable after construction and all operations are pure, so
they are safe to share across parallel workers.
"""

from __future__ import annotations

import codecs
import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataWarning, NumericError, ValidationError

__all__ = [
    "Sample",
    "ParamSpace",
    "IpwScores",
    "ipw_scores",
    "empirical_welfare",
    "regret",
    "default_space",
    "load_sample_csv",
]


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a one-dimensional vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Sample:
    """One experimental dataset with known propensity scores.

    ``propensity`` may be passed as a scalar (randomized experiment with a
    constant assignment probability); it is broadcast to a per-unit column.
    ``eta`` is the overlap margin: validation rejects propensities outside
    ``[eta, 1 - eta]``.
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    propensity: np.ndarray
    eta: float = 0.01

    def __post_init__(self):
        y = _as_float_vector(self.y, "y")
        x = _as_float_vector(self.x, "x")
        d_arr = np.asarray(self.d)
        if d_arr.ndim != 1:
            raise ValidationError(f"d must be a one-dimensional vector, got shape {d_arr.shape}")
        n = len(y)
        if n < 2:
            raise ValidationError(f"sample needs at least 2 units, got {n}")
        if len(d_arr) != n or len(x) != n:
            raise ValidationError(
                f"length mismatch: y has {n}, d has {len(d_arr)}, x has {len(x)}"
            )
        d = d_arr.astype(float)
        if not np.all((d == 0.0) | (d == 1.0)):
            bad = int(np.flatnonzero((d != 0.0) & (d != 1.0))[0])
            raise ValidationError(f"d must be exactly 0 or 1; row {bad} has d={d_arr[bad]!r}")
        p_in = np.asarray(self.propensity, dtype=float)
        if p_in.ndim == 0:
            p = np.full(n, float(p_in))
        elif p_in.ndim == 1 and len(p_in) == n:
            p = p_in.copy()
        else:
            raise ValidationError(
                f"propensity must be a scalar or a length-{n} vector, got shape {p_in.shape}"
            )
        if not (0.0 < self.eta < 0.5):
            raise ValidationError(f"eta must lie in (0, 0.5), got {self.eta}")
        if not np.all(np.isfinite(y)):
            raise ValidationError("y contains NaN or infinite values")
        if not np.all(np.isfinite(x)):
            raise ValidationError("x contains NaN or infinite values")
        if not np.all(np.isfinite(p)):
            raise ValidationError("propensity contains NaN or infinite values")
        if np.any(p < self.eta) or np.any(p > 1.0 - self.eta):
            bad = int(np.flatnonzero((p < self.eta) | (p > 1.0 - self.eta))[0])
            raise ValidationError(
                f"propensity must lie in [{self.eta}, {1.0 - self.eta}]; "
                f"row {bad} has p={p[bad]}"
            )
        with np.errstate(over="ignore"):
            overflow = ~(np.isfinite(y / p) & np.isfinite(y / (1.0 - p)))
        if np.any(overflow):
            bad = int(np.flatnonzero(overflow)[0])
            raise ValidationError(
                f"IPW scores overflow: row {bad} has y={y[bad]} and p={p[bad]}, "
                f"so y/p or y/(1-p) is not finite"
            )
        # sorted neighbours rather than np.unique, whose first call imports numpy.ma (about 15 ms)
        xs = np.sort(x)
        if np.any(xs[1:] == xs[:-1]):
            warnings.warn(
                "duplicate x values present; the index is assumed continuous",
                DataWarning,
                stacklevel=2,
            )
        for name, arr in (("y", y), ("d", d), ("x", x), ("propensity", p)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class ParamSpace:
    """Compact interval of candidate thresholds; estimates are clamped to it."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError(f"parameter space bounds must be finite, got ({self.lo}, {self.hi})")
        if not self.lo < self.hi:
            raise ValidationError(f"parameter space needs lo < hi, got ({self.lo}, {self.hi})")

    def clamp(self, t: float) -> float:
        return min(max(t, self.lo), self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def default_space(sample: Sample) -> ParamSpace:
    """Data-driven parameter space ``[min(x) - eps, max(x) + eps]``.

    ``eps`` is 5% of the observed index range (or 0.5 when the range is
    degenerate).  The bounds are configuration, not theory: they only
    matter for clamping and for the width of boundary argmax segments.
    """
    lo = float(np.min(sample.x))
    hi = float(np.max(sample.x))
    eps = 0.05 * (hi - lo) if hi > lo else 0.5
    return ParamSpace(lo - eps, hi + eps)


@dataclass(frozen=True)
class IpwScores:
    """IPW pseudo-outcomes plus the stable permutation sorting x ascending."""

    g: np.ndarray
    x_sorted_order: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.g.setflags(write=False)
        self.x_sorted_order.setflags(write=False)


def _ipw_g(sample: Sample) -> np.ndarray:
    """Per-unit IPW score ``g_i = d_i y_i / p_i - (1 - d_i) y_i / (1 - p_i)``."""
    y, d, p = sample.y, sample.d, sample.propensity
    return d * y / p - (1.0 - d) * y / (1.0 - p)


def ipw_scores(sample: Sample) -> IpwScores:
    """Per-unit IPW scores plus the stable order of x; callers that need only
    the scores use :func:`_ipw_g` and skip the sort."""
    order = np.argsort(sample.x, kind="stable")
    return IpwScores(g=_ipw_g(sample), x_sorted_order=order)


def empirical_welfare(sample: Sample, t: float) -> float:
    """Sample welfare of the policy ``treat iff x > t``.

    Piecewise constant in ``t``, changing only at observed x values.  Terms
    are accumulated with ``math.fsum`` so the value is independent of row
    order to full precision.
    """
    y, d, p = sample.y, sample.d, sample.propensity
    treated = sample.x > t
    terms = np.where(treated, d * y / p, (1.0 - d) * y / (1.0 - p))
    return math.fsum(terms) / sample.n


def regret(dgp_welfare, t_star: float, t_hat: float, tol: float = 1e-9) -> float:
    """Welfare shortfall ``W(t*) - W(t_hat)`` of an estimated threshold.

    ``dgp_welfare`` maps a threshold to population welfare and ``t_star``
    must be its maximizer; values in ``(-tol, 0)`` are clamped to zero and
    anything below ``-tol`` signals that ``t_star`` is not actually optimal.
    """
    value = float(dgp_welfare(t_star)) - float(dgp_welfare(t_hat))
    if value < -tol:
        raise NumericError(
            f"regret is {value}, below -{tol}: t_star={t_star} does not maximize the welfare function"
        )
    return max(value, 0.0)


def load_sample_csv(path, propensity: float | None = None, eta: float = 0.01) -> Sample:
    """Read a sample from a CSV file with header columns ``y,d,x[,p]``.

    An optional ``p`` column overrides the ``propensity`` scalar.  Header
    names are matched after stripping and lower-casing, and the first of
    duplicate names is the one read.  ``y``, ``x`` and ``p`` accept every
    spelling Python's ``float`` accepts (padding, ``1_0``, ``inf``, ``nan``
    and non-ASCII digits included); ``d`` must be the literal ``0`` or ``1``
    once surrounding whitespace is stripped.  Blank and whitespace-only rows
    are skipped and quoted fields are allowed.  Errors name the offending
    column and row.

    A plain file (unquoted header, no NUL, every ``d`` a bare ``0`` or
    ``1``, every field ``np.loadtxt`` reads) is parsed in one ``np.loadtxt``
    pass.  Any other file, valid or not, is read row by row, which gives the
    same sample or the error message.
    """
    columns = _read_plain_columns(path)
    if columns is None or (columns[3] is None and propensity is None):
        # the row loop also words the error for a missing propensity
        return _load_sample_rows(path, propensity, eta)
    y, d, x, p = columns
    return Sample(y=y, d=d, x=x, propensity=propensity if p is None else p, eta=eta)


def _header_index(path, header: list[str]) -> tuple[int, dict[str, int]]:
    """Column count and the index of each known name in a CSV header row."""
    cols = [c.strip().lower() for c in header]
    required = ("y", "d", "x")
    for name in required:
        if name not in cols:
            raise ValidationError(f"{path}: header {header!r} is missing required column '{name}'")
    known = set(required) | {"p"}
    unknown = [c for c in cols if c not in known]
    if unknown:
        raise ValidationError(f"{path}: unknown column(s) {unknown}; expected y,d,x[,p]")
    return len(cols), {name: cols.index(name) for name in cols}


def _read_plain_columns(path):
    """``(y, d, x, p or None)`` of a plain CSV file in one numpy pass, else None.

    None means the file needs the row loop: a NUL anywhere (an ``S2`` field
    drops trailing NULs, so ``1\\0`` would read as ``b"1"``), a line that may
    hold a field longer than ``csv.field_size_limit()`` (the loop raises on
    it), a quote in the header, no data rows, any field ``np.loadtxt``
    refuses, or a ``d`` that is not exactly ``0`` or ``1``.  Every file
    accepted here reads to the same values in the row loop, where ``float``
    accepts a superset of the spellings ``np.loadtxt`` accepts.
    """
    # a run of more than field_size_limit() bytes without a line break
    # covers at least one whole chunk of at most half that size
    size = max(1, min(1 << 16, csv.field_size_limit() // 2))
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(size), b""):
            if b"\0" in chunk or (len(chunk) == size and b"\n" not in chunk and b"\r" not in chunk):
                return None
    try:
        with open(path, newline="") as fh:
            line = fh.readline()
            if '"' in line:
                return None
            n_cols, idx = _header_index(path, next(csv.reader([line])))
            dtype = [(f"f{j}", "S2" if j == idx["d"] else float) for j in range(n_cols)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(
                    fh, delimiter=",", comments=None, quotechar=None, ndmin=1, dtype=dtype
                )
    except Exception:  # whatever np.loadtxt refuses, the row loop accepts or words as an error
        return None
    d = table[f"f{idx['d']}"]
    if len(table) == 0 or not np.all((d == b"0") | (d == b"1")):
        return None

    def column(name):
        return np.ascontiguousarray(table[f"f{idx[name]}"]) if name in idx else None

    return column("y"), (d == b"1").astype(int), column("x"), column("p")


def _undecodable_line(path, encoding: str) -> int:
    """Number of the line (from 1) where decoding the file as ``encoding`` first fails."""
    decoder = codecs.getincrementaldecoder(encoding)()
    num = 0
    with open(path, "rb") as raw:
        for num, line in enumerate(raw, start=1):
            try:
                decoder.decode(line)
            except UnicodeDecodeError:
                return num
    return num  # the file ends inside a character


def _csv_rows(path, fh):
    """``csv.reader(fh)``; undecodable bytes and fields over ``csv.field_size_limit()``
    raise a ValidationError naming their line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        line = _undecodable_line(path, fh.encoding)
        raise ValidationError(f"{path}: line {line} is not valid {fh.encoding} text: {exc.reason}") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None


def _load_sample_rows(path, propensity: float | None, eta: float) -> Sample:
    """:func:`load_sample_csv` one ``csv.reader`` row at a time, naming the first bad field."""
    with open(path, newline="") as fh:
        reader = _csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty, expected header y,d,x[,p]") from None
        n_cols, idx = _header_index(path, header)
        has_p = "p" in idx
        y, d, x, p = [], [], [], []
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != n_cols:
                raise ValidationError(
                    f"{path}: row {row_num} has {len(row)} fields, expected {n_cols}"
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
