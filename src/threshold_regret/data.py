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
import io
import itertools
import math
import numbers
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


def _read_only(values) -> np.ndarray:
    """A read-only copy of ``values``, so a record neither freezes nor shares an array its caller can write to."""
    arr = np.array(values)
    arr.setflags(write=False)
    return arr


def _require_instance(name: str, value, kind: type) -> None:
    """ValidationError unless ``value`` is a ``kind``: the callers read its fields, and the kernels its arrays."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _as_floats(values, name: str) -> np.ndarray:
    """A float copy of ``values``, or a ValidationError naming the field where they are not numbers."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must hold numbers: {exc}") from None


def _as_float_vector(values, name: str) -> np.ndarray:
    """A float copy of ``values``, so the caller's array stays writable and the sample cannot change."""
    arr = _as_floats(values, name)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a one-dimensional vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Sample:
    """One experimental dataset with known propensity scores.

    ``propensity`` may be passed as a scalar (randomized experiment with a
    constant assignment probability); it is broadcast to a per-unit column.
    ``eta`` is the overlap margin: validation rejects propensities outside
    ``[eta, 1 - eta]``.  The arrays are read-only copies of the caller's.

    x is sorted once, here: ``_x_order`` is the stable permutation sorting x
    ascending, -0.0 and +0.0 counted as equal.  The EWM cuts and the
    bootstrap's runs of equal x are read from ``x[_x_order]``.
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    propensity: np.ndarray
    eta: float = 0.01
    _x_order: np.ndarray = field(init=False, repr=False, compare=False)

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
        d = _as_floats(d_arr, "d")
        if not np.all((d == 0.0) | (d == 1.0)):
            bad = int(np.flatnonzero((d != 0.0) & (d != 1.0))[0])
            raise ValidationError(f"d must be exactly 0 or 1; row {bad} has d={d_arr[bad]!r}")
        p_in = _as_floats(self.propensity, "propensity")
        if p_in.ndim == 0:
            p = np.full(n, float(p_in))
        elif p_in.ndim == 1 and len(p_in) == n:
            p = p_in.copy()
        else:
            raise ValidationError(
                f"propensity must be a scalar or a length-{n} vector, got shape {p_in.shape}"
            )
        if not (isinstance(self.eta, numbers.Real) and 0.0 < self.eta < 0.5):
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
        # without ties the sorting permutation is unique, so numpy's default sort finds it
        # (1.8 ms at n = 100 000 against 10.9 ms for the stable one, one Xeon core); sorted
        # neighbours find ties rather than np.unique, whose first call imports numpy.ma (about 15 ms)
        order = np.argsort(x)
        xs = x[order]
        if np.any(xs[1:] == xs[:-1]):
            warnings.warn(
                "duplicate x values present; the index is assumed continuous",
                DataWarning,
                stacklevel=2,
            )
            order = np.argsort(x, kind="stable")
        for name, arr in (("y", y), ("d", d), ("x", x), ("propensity", p), ("_x_order", order)):
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
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if not isinstance(bound, numbers.Real):
                raise ValidationError(f"parameter space bound {name} must be a real number, got {bound!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError(f"parameter space bounds must be finite, got ({self.lo}, {self.hi})")
        if not self.lo < self.hi:
            raise ValidationError(f"parameter space needs lo < hi, got ({self.lo}, {self.hi})")
        if not math.isfinite(self.width):
            raise ValidationError(f"parameter space width hi - lo overflows, got ({self.lo}, {self.hi})")

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
    _require_instance("sample", sample, Sample)
    lo = float(np.min(sample.x))
    hi = float(np.max(sample.x))
    eps = 0.05 * (hi - lo) if hi > lo else 0.5
    return ParamSpace(lo - eps, hi + eps)


@dataclass(frozen=True)
class IpwScores:
    """IPW pseudo-outcomes plus the stable permutation sorting x ascending.

    Both are read-only copies of the arrays given.
    """

    g: np.ndarray
    x_sorted_order: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("g", "x_sorted_order"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @classmethod
    def _of_sample(cls, sample: Sample) -> IpwScores:
        """The sample's scores, fresh and frozen here, and its own read-only
        order, kept without the copies a caller's arrays get."""
        scores = object.__new__(cls)
        g = _ipw_g(sample)
        g.setflags(write=False)
        object.__setattr__(scores, "g", g)
        object.__setattr__(scores, "x_sorted_order", sample._x_order)
        return scores


def _ipw_g(sample: Sample) -> np.ndarray:
    """Per-unit IPW score ``g_i = d_i y_i / p_i - (1 - d_i) y_i / (1 - p_i)``."""
    y, d, p = sample.y, sample.d, sample.propensity
    return d * y / p - (1.0 - d) * y / (1.0 - p)


def ipw_scores(sample: Sample) -> IpwScores:
    """Per-unit IPW scores plus the stable order of x, which the sample sorted once."""
    _require_instance("sample", sample, Sample)
    return IpwScores._of_sample(sample)


# terms per list fed to math.fsum: 4096 floats hold about 128 kB
_FSUM_BLOCK = 4096


def _fsum_rows(values: np.ndarray) -> float:
    """``math.fsum`` of a float64 vector, bit for bit, fed Python floats a
    block at a time: it converts no element to a numpy scalar (about 40%
    faster) and never holds a list of every element (3.2 MB at n = 100 000).
    OverflowError where finite terms' partial sums overflow, as fsum's."""
    blocks = (values[lo : lo + _FSUM_BLOCK].tolist() for lo in range(0, len(values), _FSUM_BLOCK))
    return math.fsum(itertools.chain.from_iterable(blocks))


def empirical_welfare(sample: Sample, t: float) -> float:
    """Sample welfare of the policy ``treat iff x > t``.

    Piecewise constant in ``t``, changing only at observed x values.  Terms
    are accumulated with ``math.fsum`` so the value is independent of row
    order to full precision.  ``t`` must be a real number other than NaN
    (ValidationError); -inf treats everyone and +inf no one.  Finite terms
    whose sum overflows raise NumericError.
    """
    _require_instance("sample", sample, Sample)
    if not isinstance(t, numbers.Real) or math.isnan(t):
        raise ValidationError(f"the threshold t must be a real number other than NaN, got {t!r}")
    y, d, p = sample.y, sample.d, sample.propensity
    treated = sample.x > t
    terms = np.where(treated, d * y / p, (1.0 - d) * y / (1.0 - p))
    try:
        total = _fsum_rows(terms)
    except OverflowError:
        raise NumericError(f"sample welfare at t={t} overflows: its terms are finite, their sum is not") from None
    return total / sample.n


def regret(dgp_welfare, t_star: float, t_hat: float, tol: float = 1e-9) -> float:
    """Welfare shortfall ``W(t*) - W(t_hat)`` of an estimated threshold.

    ``dgp_welfare`` maps a threshold to population welfare and ``t_star``
    must be its maximizer; values in ``(-tol, 0)`` are clamped to zero and
    anything below ``-tol`` signals that ``t_star`` is not actually optimal.
    Both thresholds must be finite numbers (ValidationError), and a
    difference that is not finite raises NumericError.
    """
    for name, t in (("t_star", t_star), ("t_hat", t_hat)):
        if not (isinstance(t, numbers.Real) and math.isfinite(t)):
            raise ValidationError(f"{name} must be a finite number, got {t!r}")
    value = float(dgp_welfare(t_star)) - float(dgp_welfare(t_hat))
    if not math.isfinite(value):
        raise NumericError(f"regret W(t_star) - W(t_hat) is {value} at t_star={t_star}, t_hat={t_hat}")
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

    A leading UTF-8 byte-order mark is ignored.

    A plain file (unquoted header, every ``d`` a bare ``0`` or ``1``, every
    other field a plain decimal of at most 19 significant digits, ``\\n`` or
    ``\\r\\n`` line ends) is parsed in one pass by the compiled parser of
    ``_kernels.c`` when it loads.  Any other file, valid or not, and every
    file in a process without the parser, is read row by row, which gives the
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
    if cols:  # a leading byte-order mark (Excel's "CSV UTF-8" writes one) is not part of the first name
        cols[0] = header[0].removeprefix("\ufeff").strip().lower()
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
    """``(y, d, x, p or None)`` of a plain CSV file in one compiled pass, else None.

    When the compiled ``tr_parse_csv`` loads (see ``_native``), the file is
    read once, as bytes, and its header line parsed in Python.  The parser
    then reads the data rows in one pass: exactly the header's column count
    per row, ``\\n`` or ``\\r\\n`` line ends, each ``d`` a bare ``0`` or ``1``
    and every other field a number ``[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?`` of
    at most 19 significant digits, converted to the double ``float`` gives,
    and no field longer than ``csv.field_size_limit()``, on which the loop
    raises.  None means the file needs the row loop: the parser did not load
    or refused the rows, the header is undecodable, quoted, lacks y, d or x
    or ends without a line break, or there are no data rows.  Every file
    accepted here reads to the same values in the row loop, whose ``float``
    accepts a superset of the parser's spellings.
    """
    from . import _native

    parse = _native.kernel("tr_parse_csv")
    if parse is None:
        return None
    with open(path, "rb") as fh:
        raw = fh.read()
    text = io.TextIOWrapper(io.BytesIO(raw), newline="")
    try:
        line = text.readline()
        n_cols, idx = _header_index(path, next(csv.reader([line])))
    except Exception:  # undecodable bytes, a header csv refuses or one without y, d and x: the row loop words it
        return None
    if '"' in line or not line.endswith("\n"):
        return None
    table = _parse_rows(parse, raw, raw.index(b"\n") + 1, n_cols, idx["d"], csv.field_size_limit())
    if table is None:
        return None
    # views of the parsed rows: Sample copies each column out, after the file's bytes are gone
    return tuple(table[idx[name]] if name in idx else None for name in ("y", "d", "x", "p"))


def _parse_rows(parse, raw: bytes, start: int, n_cols: int, d_col: int, field_limit: int):
    """The columns of the data rows ``raw[start:]`` as ``tr_parse_csv`` (``parse``) reads them,
    with at most ``field_limit`` bytes a field, or None when it refuses them or finds none."""
    # a row takes at least two bytes a field, so at most cap rows fit; the pages
    # past the rows written are never touched, so they take no memory
    cap = (len(raw) - start + 1) // (2 * n_cols)
    out = np.empty((cap, n_cols))
    rows = parse(np.frombuffer(raw, np.uint8)[start:], len(raw) - start, n_cols, d_col, field_limit, out, cap)
    return None if rows <= 0 else out[:rows].T


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


def _number(path, row: list[str], row_num: int, idx: dict[str, int], name: str) -> float:
    """Column ``name`` of a CSV row as ``float`` reads it, or a ValidationError naming the field."""
    try:
        return float(row[idx[name]])
    except ValueError:
        raise ValidationError(
            f"{path}: row {row_num}, column '{name}': cannot parse {row[idx[name]]!r} as a number"
        ) from None


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
            y.append(_number(path, row, row_num, idx, "y"))
            d_raw = row[idx["d"]].strip()
            if d_raw not in ("0", "1"):
                raise ValidationError(
                    f"{path}: row {row_num}, column 'd': expected integer 0 or 1, got {d_raw!r}"
                )
            d.append(int(d_raw))
            x.append(_number(path, row, row_num, idx, "x"))
            if has_p:
                p.append(_number(path, row, row_num, idx, "p"))
    if has_p:
        prop = np.asarray(p)
    elif propensity is not None:
        prop = propensity
    else:
        raise ValidationError(
            f"{path}: no 'p' column present; pass a scalar propensity for the experiment"
        )
    return Sample(y=np.asarray(y), d=np.asarray(d), x=np.asarray(x), propensity=prop, eta=eta)
