import csv
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from threshold_regret import _native, data
from threshold_regret.data import (
    IpwScores,
    ParamSpace,
    Sample,
    default_space,
    empirical_welfare,
    ipw_scores,
    load_sample_csv,
    regret,
)
from threshold_regret.errors import DataWarning, NumericError, ValidationError
from threshold_regret.montecarlo import MODEL1

from helpers import index_values, loop_load_sample_csv, random_sample, require_compiler


def test_ipw_score_treated_unit():
    s = Sample(y=[1.0, 0.0], d=[1, 0], x=[0.0, 1.0], propensity=0.5)
    assert ipw_scores(s).g[0] == 2.0


def test_ipw_score_untreated_unit():
    s = Sample(y=[1.0, 1.0], d=[0, 1], x=[0.0, 1.0], propensity=0.5)
    assert ipw_scores(s).g[0] == -2.0


def test_ipw_scores_match_elementwise_recomputation(rng):
    s = random_sample(rng, 10, constant_p=False)
    g = ipw_scores(s).g
    for i in range(s.n):
        expected = (
            s.d[i] * s.y[i] / s.propensity[i]
            - (1.0 - s.d[i]) * s.y[i] / (1.0 - s.propensity[i])
        )
        assert g[i] == pytest.approx(expected, rel=1e-15)


def test_ipw_sort_order_is_stable_on_ties():
    with pytest.warns(DataWarning):
        s = Sample(y=[1.0, 2.0, 3.0], d=[1, 1, 1], x=[1.0, 0.0, 1.0], propensity=0.5)
    order = ipw_scores(s).x_sorted_order
    assert list(order) == [1, 0, 2]


@given(x=index_values())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_ipw_sort_order_is_the_stable_argsort(x):
    """The default sort where x has no ties, the stable one where it has: either
    way the stable order, -0.0 and +0.0 counted as tied."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        s = Sample(y=np.ones(len(x)), d=np.arange(len(x)) % 2, x=x, propensity=0.5)
    assert ipw_scores(s).x_sorted_order.tobytes() == np.argsort(x, kind="stable").tobytes()


def test_empirical_welfare_everyone_treated(rng):
    s = random_sample(rng, 20)
    t = float(np.min(s.x)) - 1.0
    expected = np.mean(s.d * s.y / s.propensity)
    assert empirical_welfare(s, t) == pytest.approx(expected, rel=1e-12)


def test_empirical_welfare_nobody_treated(rng):
    s = random_sample(rng, 20)
    t = float(np.max(s.x))
    expected = np.mean((1 - s.d) * s.y / (1 - s.propensity))
    assert empirical_welfare(s, t) == pytest.approx(expected, rel=1e-12)


def test_empirical_welfare_matches_double_loop(rng):
    s = random_sample(rng, 8, constant_p=False)
    xs = np.sort(s.x)
    cuts = [xs[0] - 1.0] + [0.5 * (a + b) for a, b in zip(xs[:-1], xs[1:])] + [xs[-1] + 1.0]
    assert len(cuts) == 9
    for t in cuts:
        total = 0.0
        for i in range(s.n):
            if s.x[i] > t:
                total += s.d[i] * s.y[i] / s.propensity[i]
            else:
                total += (1 - s.d[i]) * s.y[i] / (1 - s.propensity[i])
        assert empirical_welfare(s, t) == pytest.approx(total / s.n, rel=1e-12)


def test_empirical_welfare_partitions_every_unit(rng):
    s = random_sample(rng, 15)
    for t in np.linspace(-2, 2, 7):
        treated = s.x > t
        untreated = s.x <= t
        assert np.all(treated ^ untreated)


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 50.0))
@settings(max_examples=40, deadline=None)
def test_empirical_welfare_scales_with_outcomes(seed, c):
    r = np.random.default_rng(seed)
    s = random_sample(r, 9)
    scaled = Sample(y=s.y * c, d=s.d, x=s.x, propensity=s.propensity)
    for t in (-0.7, 0.0, 1.3):
        assert empirical_welfare(scaled, t) == pytest.approx(
            c * empirical_welfare(s, t), rel=1e-10
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_empirical_welfare_row_permutation_invariant(seed):
    r = np.random.default_rng(seed)
    s = random_sample(r, 11, constant_p=False)
    perm = r.permutation(s.n)
    shuffled = Sample(
        y=s.y[perm], d=s.d[perm], x=s.x[perm], propensity=s.propensity[perm]
    )
    for t in (-0.5, 0.2):
        assert empirical_welfare(shuffled, t) == pytest.approx(
            empirical_welfare(s, t), rel=1e-12, abs=1e-15
        )


def test_empirical_welfare_constant_between_order_statistics(rng):
    s = random_sample(rng, 12)
    xs = np.sort(s.x)
    a, b = xs[4], xs[5]
    values = [empirical_welfare(s, t) for t in np.linspace(a + 1e-9, b - 1e-9, 5)]
    assert max(values) == min(values)


def test_empirical_welfare_refuses_a_threshold_that_is_nan_or_not_a_number():
    """NaN used to give the treat-nobody welfare, and a string a raw UFuncTypeError."""
    s = Sample(y=[1.0, -2.0, 0.5], d=[1, 0, 1], x=[0.0, 1.0, 2.0], propensity=0.5)
    for t in (math.nan, np.float64("nan"), "0.5", None, np.array([0.3])):
        with pytest.raises(ValidationError, match="^the threshold t must be a real number other than NaN"):
            empirical_welfare(s, t)
    assert empirical_welfare(s, -math.inf) == empirical_welfare(s, -1.0)
    assert empirical_welfare(s, math.inf) == empirical_welfare(s, 3.0)


def test_empirical_welfare_refuses_a_sum_that_overflows():
    """Finite terms of 1.6e308 whose sum overflows used to leak fsum's raw OverflowError."""
    s = Sample(y=[0, 8e307, 0, 8e307], d=[1, 0, 1, 0], x=[0.0, 1.0, 2.0, 3.0], propensity=0.5)
    with pytest.raises(NumericError, match="^sample welfare at t=10.0 overflows"):
        empirical_welfare(s, 10.0)
    assert empirical_welfare(s, 2.5) == 4e307


def test_regret_zero_at_optimum():
    assert regret(MODEL1.welfare, MODEL1.t_star, MODEL1.t_star) == 0.0


def test_regret_model1_closed_form():
    value = regret(MODEL1.welfare, 0.0, 0.1)
    assert value == pytest.approx(MODEL1.welfare(0.0) - MODEL1.welfare(0.1), abs=1e-15)
    assert value > 0


def test_regret_nonnegative_over_grid():
    for t in np.linspace(-3, 3, 41):
        assert regret(MODEL1.welfare, 0.0, float(t)) >= 0.0


def test_regret_rejects_non_optimal_t_star():
    with pytest.raises(NumericError):
        regret(MODEL1.welfare, 0.5, 0.0)


@pytest.mark.parametrize("t_star, t_hat", [(0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf), (0.0, "0.1"),
                                           (None, 0.0)])
def test_regret_refuses_a_threshold_that_is_not_a_finite_number(t_star, t_hat):
    """A NaN t_hat used to return a NaN regret."""
    with pytest.raises(ValidationError, match="must be a finite number"):
        regret(MODEL1.welfare, t_star, t_hat)


def test_regret_refuses_a_welfare_difference_that_is_not_finite():
    with pytest.raises(NumericError, match="^regret W\\(t_star\\) - W\\(t_hat\\) is nan"):
        regret(lambda t: math.inf, 0.0, 1.0)


# --- Sample validation -----------------------------------------------------


def test_sample_rejects_length_mismatch():
    with pytest.raises(ValidationError, match="length mismatch"):
        Sample(y=[1.0, 2.0], d=[1], x=[0.0, 1.0], propensity=0.5)


def test_sample_rejects_non_binary_treatment():
    with pytest.raises(ValidationError, match="exactly 0 or 1"):
        Sample(y=[1.0, 2.0], d=[1, 2], x=[0.0, 1.0], propensity=0.5)


def test_sample_rejects_propensity_outside_overlap():
    with pytest.raises(ValidationError, match="propensity"):
        Sample(y=[1.0, 2.0], d=[1, 0], x=[0.0, 1.0], propensity=0.005)
    with pytest.raises(ValidationError, match="propensity"):
        Sample(y=[1.0, 2.0], d=[1, 0], x=[0.0, 1.0], propensity=[0.5, 0.999])


def test_sample_eta_is_configurable():
    Sample(y=[1.0, 2.0], d=[1, 0], x=[0.0, 1.0], propensity=0.005, eta=0.001)
    with pytest.raises(ValidationError):
        Sample(y=[1.0, 2.0], d=[1, 0], x=[0.0, 1.0], propensity=0.005, eta=0.01)


def test_sample_rejects_nan_anywhere():
    with pytest.raises(ValidationError, match="y contains"):
        Sample(y=[float("nan"), 2.0], d=[1, 0], x=[0.0, 1.0], propensity=0.5)
    with pytest.raises(ValidationError, match="x contains"):
        Sample(y=[1.0, 2.0], d=[1, 0], x=[np.inf, 1.0], propensity=0.5)


def test_sample_rejects_ipw_scores_that_overflow():
    with pytest.raises(ValidationError, match=r"IPW scores overflow: row 0 has y=1e\+308 and p=0.01"):
        Sample(y=[1e308, -1e308, 1, 2], d=[1, 0, 1, 0], x=[0, 1, 2, 3], propensity=0.01)
    with pytest.raises(ValidationError, match="row 1 "):
        Sample(y=[1.0, 1e308], d=[1, 1], x=[0, 1], propensity=[0.5, 0.98], eta=0.01)
    Sample(y=[1e307, -1e307], d=[1, 0], x=[0, 1], propensity=0.5)


def test_sample_warns_on_duplicate_index():
    with pytest.warns(DataWarning, match="duplicate"):
        Sample(y=[1.0, 2.0], d=[1, 0], x=[1.0, 1.0], propensity=0.5)


def test_sample_needs_two_units():
    with pytest.raises(ValidationError, match="at least 2"):
        Sample(y=[1.0], d=[1], x=[0.0], propensity=0.5)


def test_sample_arrays_are_immutable(rng):
    s = random_sample(rng, 5)
    with pytest.raises(ValueError):
        s.y[0] = 99.0


def test_sample_copies_the_callers_arrays(rng):
    """The caller's float arrays stay writable, and writing to them leaves the sample as it was."""
    y, x, p = rng.normal(size=5), rng.normal(size=5), np.full(5, 0.5)
    d = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    s = Sample(y=y, d=d, x=x, propensity=p)
    before = [a.copy() for a in (s.y, s.d, s.x, s.propensity, s._x_order)]
    for arr in (y, d, x, p):
        arr[:] = arr[::-1] + 5.0
    assert [a.tobytes() for a in (s.y, s.d, s.x, s.propensity, s._x_order)] == [a.tobytes() for a in before]
    assert not any(a.flags.writeable for a in (s.y, s.d, s.x, s.propensity, s._x_order))


@pytest.mark.parametrize("frozen", [False, True])
def test_ipw_scores_copy_the_callers_arrays(rng, frozen):
    """The caller's arrays stay writable, and writing to them leaves the scores as
    they were, also when the caller froze them first and unfreezes them after."""
    g, order = rng.normal(size=5), np.arange(5)
    for a in (g, order):
        a.setflags(write=not frozen)
    scores = IpwScores(g=g, x_sorted_order=order)
    before = [a.copy() for a in (scores.g, scores.x_sorted_order)]
    for a in (g, order):
        a.setflags(write=True)
    g[0], order[0] = 5.0, 4
    assert [a.tobytes() for a in (scores.g, scores.x_sorted_order)] == [a.tobytes() for a in before]
    assert not any(a.flags.writeable for a in (scores.g, scores.x_sorted_order))


def test_param_space_validation():
    with pytest.raises(ValidationError):
        ParamSpace(1.0, 1.0)
    with pytest.raises(ValidationError):
        ParamSpace(0.0, math.inf)
    sp = ParamSpace(-1.0, 1.0)
    assert sp.clamp(5.0) == 1.0 and sp.clamp(-5.0) == -1.0


def test_param_space_refuses_a_width_that_overflows():
    with pytest.raises(ValidationError, match="width hi - lo overflows"):
        ParamSpace(-1e308, 1e308)
    assert ParamSpace(-8e307, 8e307).width == 1.6e308


def test_default_space_covers_data(rng):
    s = random_sample(rng, 30)
    sp = default_space(s)
    assert sp.lo < np.min(s.x) and sp.hi > np.max(s.x)


# --- CSV ingestion ----------------------------------------------------------


def _write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_roundtrip(tmp_path, rng):
    s = random_sample(rng, 25, constant_p=False)
    lines = ["y,d,x,p"]
    lines += [
        f"{float(yi)!r},{int(di)},{float(xi)!r},{float(pi)!r}"
        for yi, di, xi, pi in zip(s.y, s.d, s.x, s.propensity)
    ]
    path = _write_csv(tmp_path / "ok.csv", "\n".join(lines) + "\n")
    loaded = load_sample_csv(path)
    np.testing.assert_array_equal(loaded.y, s.y)
    np.testing.assert_array_equal(loaded.d, s.d)
    np.testing.assert_array_equal(loaded.x, s.x)
    np.testing.assert_array_equal(loaded.propensity, s.propensity)


def test_load_csv_scalar_propensity(tmp_path):
    path = _write_csv(tmp_path / "noP.csv", "y,d,x\n1.0,1,0.5\n-1.0,0,1.5\n")
    s = load_sample_csv(path, propensity=0.3)
    assert np.all(s.propensity == 0.3)


def test_load_csv_p_column_overrides_flag(tmp_path):
    path = _write_csv(tmp_path / "p.csv", "y,d,x,p\n1.0,1,0.5,0.4\n-1.0,0,1.5,0.6\n")
    s = load_sample_csv(path, propensity=0.3)
    assert list(s.propensity) == [0.4, 0.6]


def test_load_csv_missing_propensity_errors(tmp_path):
    path = _write_csv(tmp_path / "noP.csv", "y,d,x\n1.0,1,0.5\n-1.0,0,1.5\n")
    with pytest.raises(ValidationError, match="propensity"):
        load_sample_csv(path)


def test_load_csv_names_bad_row_and_column(tmp_path):
    path = _write_csv(tmp_path / "bad.csv", "y,d,x\n1.0,1,0.5\noops,0,1.5\n")
    with pytest.raises(ValidationError, match="row 3, column 'y'"):
        load_sample_csv(path, propensity=0.5)
    path = _write_csv(tmp_path / "badd.csv", "y,d,x\n1.0,2,0.5\n-1.0,0,1.5\n")
    with pytest.raises(ValidationError, match="column 'd'"):
        load_sample_csv(path, propensity=0.5)


def test_load_csv_rejects_unknown_columns(tmp_path):
    path = _write_csv(tmp_path / "extra.csv", "y,d,x,weight\n1.0,1,0.5,2\n-1.0,0,1.5,2\n")
    with pytest.raises(ValidationError, match="unknown column"):
        load_sample_csv(path, propensity=0.5)


@pytest.mark.parametrize("kernel", [True, False], ids=["compiled", "no-kernel"])
@pytest.mark.parametrize("body", ["1.5,1,0.25\n-2,0,3\n", "1.5,1,0.25\n\n-2 ,0,3\n"], ids=["plain", "row-loop"])
def test_load_csv_ignores_a_byte_order_mark(tmp_path, monkeypatch, kernel, body):
    """Excel's "CSV UTF-8" starts the file with U+FEFF; the compiled and the
    row-by-row readers both read the header past it (a blank row and a padded
    field send the second file to the row loop)."""
    if not kernel:
        monkeypatch.setattr(_native, "kernel", lambda name: None)
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffy,d,x\n" + body, encoding="utf-8", newline="")
    loaded = load_sample_csv(str(path), propensity=0.5)
    assert loaded.y.tolist() == [1.5, -2.0] and loaded.d.tolist() == [1.0, 0.0] and loaded.x.tolist() == [0.25, 3.0]


def test_load_csv_missing_required_column(tmp_path):
    path = _write_csv(tmp_path / "nox.csv", "y,d\n1.0,1\n-1.0,0\n")
    with pytest.raises(ValidationError, match="missing required column 'x'"):
        load_sample_csv(path, propensity=0.5)


# Fields that Python's float() reads and the compiled parser does not, fields both
# refuse, and d spellings other than the bare literal; each must give the
# loop's sample or the loop's error.
_ODD_NUMBERS = ["1_0", "\u0661", " 1.5", " 1.5 ", "\x0b2\x0c", "infinity", "INF", "nan", "-0", "1e999",
                "123456789012345678901234567890", "2.4703282292062328e-324", "1.7976931348623159e308",
                "nan(1)", "0x1p3", "1d5", "1e", ".", "", "1.5\x00", "2 # c", '"1.5"', '" 2"', "1+2j"]
_ODD_D = [" 1", "0 ", "1.0", "-0", "+1", "01", "\uff11", "1\x00", "0\x00x", '"1"', "2", "", " "]
_BLANK_ROWS = [" ", "\t", "\x0b", "\x0c", " , ,", ",,", "\x0c,\x0b,\t"]
_NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def _csv_texts(draw):
    """Header, newline and anomaly mix from hypothesis; row contents from a drawn seed."""
    names = draw(st.permutations(draw(st.sampled_from([["y", "d", "x"], ["y", "d", "x", "p"]]))))
    names += draw(st.lists(st.sampled_from(["y", "d", "x", "p"]), max_size=1))
    header = ",".join(draw(st.sampled_from([name, name.upper(), f" {name} "])) for name in names)
    anomalies = ["odd", "blank", "short", "long", "empty"]
    kinds = ["plain"] * 12 + draw(st.sampled_from([[], ["empty"], anomalies, anomalies]))
    n_rows = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in rng.choice(kinds, n_rows):
        if kind == "empty" or kind == "blank":
            rows.append("" if kind == "empty" else str(rng.choice(_BLANK_ROWS)))
            continue
        fields = []
        for name in names:
            if name == "d":
                fields.append(str(rng.integers(2)))
            elif name == "p":
                fields.append(repr(rng.uniform(0.05, 0.95)))
            else:
                scale = 10.0 ** int(rng.integers(-300, 300))
                fields.append(repr(float(rng.choice([0.0, -0.0, 1e-300, rng.normal() * scale]))))
        if kind == "odd":
            j = rng.integers(len(names))
            fields[j] = str(rng.choice(_ODD_D if names[j] == "d" else _ODD_NUMBERS))
        elif kind == "short":
            fields.pop()
        elif kind == "long":
            fields.append("1")
        rows.append(fields)
    plain = [i for i, row in enumerate(rows) if isinstance(row, list) and len(row) == len(names)]
    if plain and draw(st.booleans()):  # one odd field in an otherwise plain file
        j = draw(st.integers(0, len(names) - 1))
        odd = draw(st.sampled_from(_ODD_D if names[j] == "d" else _ODD_NUMBERS))
        rows[draw(st.sampled_from(plain))][j] = odd
    newline = draw(st.sampled_from(_NEWLINES))
    lines = [row if isinstance(row, str) else ",".join(row) for row in rows]
    return header + newline + newline.join(lines) + draw(st.sampled_from(["", newline]))


def _load_outcome(load, path, propensity):
    """The sample's bits and dtypes, or the exception's type and text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            s = load(path, propensity=propensity)
    except Exception as exc:  # the oracle's exception, whatever its type, is the expected outcome
        return type(exc), str(exc)
    return [(a.dtype.str, a.tobytes()) for a in (s.y, s.d, s.x, s.propensity)]


def _csv_cases(test):
    """Generated and hand-picked files, each with and without a propensity."""
    cases = given(text=_csv_texts(), propensity=st.sampled_from([None, 0.5]))(test)
    for text, propensity in [
        ("y,d,x\n1,1\x00,2\n2,0,3\n", 0.5),  # a NUL after d, which must not be read as the bare 1
        ("y,d,x\n1,0,2\n2,01,3\n", 0.5),  # a longer d must not be cut to its first byte
        ("y,d,x\n1,0,2\n2,1 ,3\n", 0.5),
        ("y,d,x\n1,0,2\n2_0,1,3\n", 0.5),
        ("y,d,x,X\n1,0,2,oops\n2,1,3,4\n", 0.5),  # the loop never reads a duplicate
        ('y,d,x,"p\n"\n1,0,2,0.5\n2,1,3,0.5\n', None),  # a quoted newline in the header
        ("y,d,x\n1,0,2\n2,1,0." + "1" * 140_000 + "\n", 0.5),  # over the csv field limit
        ("y,d,x\n1,0,2\n2,1,0" + "0" * 140_000 + "1\n", 0.5),  # over it too, in digits the parser reads
        ("\ufeffy,d,x\r\n1,0,2\r\n2,1,3", 0.5),  # a byte-order mark, and no line end at the end
        ("y,d,x\n1,0,2\n2,1,0.1000000000000000055511151231257827\n", 0.5),  # past the parser's 19 digits
        ("y,d,x\n1,0,2\n18446744073709551616,1,3\n", 0.5),  # 2^64, whose digits wrap to 0 in 64 bits
    ]:
        cases = example(text=text, propensity=propensity)(cases)
    return settings(max_examples=300, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])(cases)


@_csv_cases
def test_load_csv_compiled_pass_matches_the_row_loop(tmp_path, text, propensity):
    """Through the compiled parser when it loads and takes the file, else the library's row loop."""
    path = tmp_path / "any.csv"
    path.write_text(text, newline="")
    got = _load_outcome(load_sample_csv, str(path), propensity)
    want = _load_outcome(loop_load_sample_csv, str(path), propensity)
    if isinstance(want, tuple) and want[0] in (csv.Error, UnicodeDecodeError):
        # the oracle's raw errors are worded as a ValidationError by the library
        assert got[0] is ValidationError
    else:
        assert got == want


@pytest.mark.parametrize("content, fragment", [
    (b"y,d,x\n1,1,0\n2,0,\xe9\n3,1,2\n", "line 3 is not valid"),
    (b"y,d,\xe9x\n1,1,0\n", "line 1 is not valid"),
    (b"y,d,x\n1,1,0\n2,0,2\xc3", "line 3 is not valid"),
    (b"y,d,x\n1,1,0\n2,0,0." + b"1" * 140_000 + b"\n3,1,2\n", "line 3: field larger than field limit"),
    # digits the compiled parser converts, so only the field limit sends the file to the row loop
    (b"y,d,x\n1,0,2\n2,1,0" + b"0" * 140_000 + b"1\n", "line 3: field larger than field limit"),
], ids=["undecodable-byte", "undecodable-header", "truncated-character", "over-field-limit",
        "over-field-limit-leading-zeros"])
def test_load_csv_words_undecodable_bytes_and_long_fields(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(ValidationError, match=fragment):
        load_sample_csv(str(path), propensity=0.5)


def test_load_csv_holds_a_lowered_field_size_limit(tmp_path, monkeypatch):
    """With ``csv.field_size_limit()`` one byte under a plain file's longest field
    (x, 19 bytes) the row loop refuses the file, naming the line; at 19 the file
    reads, in the compiled pass when the parser loads."""
    path = tmp_path / "plain.csv"
    path.write_text("y,d,x\n1,0,2\n2,1,0.30000000000000004\n", newline="")
    old = csv.field_size_limit(18)
    try:
        with pytest.raises(ValidationError, match=r"line 3: field larger than field limit \(18\)"):
            load_sample_csv(str(path), propensity=0.5)
        csv.field_size_limit(19)
        if _native.kernel("tr_parse_csv") is not None:
            monkeypatch.setattr(data, "_load_sample_rows", None)  # calling the row loop would raise
        assert load_sample_csv(str(path), propensity=0.5).x.tolist() == [2.0, 0.30000000000000004]
    finally:
        csv.field_size_limit(old)


def test_load_csv_reads_a_plain_file_in_one_compiled_pass(tmp_path, monkeypatch):
    require_compiler()
    rng = np.random.default_rng(8)
    n = 20_000
    y, x, p = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n), rng.normal(size=n), rng.uniform(0.1, 0.9, n)
    d = rng.integers(0, 2, n)
    rows = zip(y.tolist(), d.tolist(), x.tolist(), p.tolist())
    lines = ["y,d,x,p"] + [f"{a!r},{b},{c!r},{e!r}" for a, b, c, e in rows]
    path = tmp_path / "plain.csv"
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    expected = loop_load_sample_csv(str(path))

    def no_row_loop(*args):
        raise AssertionError("a plain file fell back to the row loop")

    monkeypatch.setattr(data, "_load_sample_rows", no_row_loop)
    loaded = load_sample_csv(str(path))
    for name in ("y", "d", "x", "propensity"):
        got, want = getattr(loaded, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_fsum_rows_is_fsum_across_its_blocks():
    """The blocks of Python floats add up to fsum over the whole vector, bit for
    bit: +-1e100 pairs that cancel only across a block boundary leave the small
    terms exact; finite terms whose partial sums overflow raise as fsum does."""
    rng = np.random.default_rng(30)
    values = rng.standard_normal(10_000)
    values[data._FSUM_BLOCK - 1], values[data._FSUM_BLOCK + 7] = 1e100, -1e100
    assert data._fsum_rows(values) == math.fsum(values) == float(sum(map(Fraction, values.tolist())))
    assert data._fsum_rows(np.empty(0)) == 0.0
    with pytest.raises(OverflowError):
        data._fsum_rows(np.full(2 * data._FSUM_BLOCK, 1.6e308))


@pytest.mark.parametrize("field, value", [("y", ["a", "b"]), ("d", ["a", "b"]), ("x", [0, "b"]), ("propensity", "x"),
                                          ("eta", "x")])
def test_sample_refuses_what_is_not_a_number_naming_the_field(field, value):
    rows = {"y": [1, 2], "d": [0, 1], "x": [0, 1], "propensity": 0.5} | {field: value}
    with pytest.raises(ValidationError, match=f"^{field} must (hold numbers|lie in)"):
        Sample(**rows)


@pytest.mark.parametrize("lo, hi, name", [("a", 1.0, "lo"), (0.0, None, "hi")])
def test_param_space_refuses_bounds_that_are_not_numbers(lo, hi, name):
    with pytest.raises(ValidationError, match=f"^parameter space bound {name} must be a real number"):
        ParamSpace(lo, hi)


@pytest.mark.parametrize("call", [lambda: ipw_scores(None), lambda: empirical_welfare(None, 0.0),
                                  lambda: default_space(None), lambda: default_space(np.zeros(3))])
def test_sample_functions_refuse_what_is_not_a_sample(call):
    with pytest.raises(ValidationError, match="^sample must be a Sample, got "):
        call()
