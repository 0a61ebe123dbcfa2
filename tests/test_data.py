import ast
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtdetect import data
from evtdetect.checks import MalformedInput
from evtdetect.data import (
    AnomalyInTrainWarning,
    CsvSchema,
    DegenerateRange,
    LabeledSeries,
    MissingSamples,
    NonMonotonicTimestamps,
    NormParams,
    SplitSpec,
    SplitTooSmall,
    atomic_write_bytes,
    fit_norm_params,
    load_series,
    make_windows,
    normalize,
    prepare,
    split_series,
)
from evtdetect.synthetic import make_spike_series, write_csv


def series(values, labels=None):
    return LabeledSeries(np.arange(len(values), dtype=float), np.asarray(values, float), labels)


class TestLoadSeries:
    def test_three_row_csv(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n1,1.0\n2,2.0\n3,3.0\n")
        s = load_series(p, CsvSchema(timestamp_column="t", value_column="v"))
        assert len(s) == 3
        assert s.labels is None
        np.testing.assert_allclose(s.values, [1.0, 2.0, 3.0])

    def test_label_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v,is_anomaly\n1,1.0,0\n2,2.0,0\n3,9.0,1\n")
        s = load_series(p, CsvSchema("t", "v", "is_anomaly"))
        assert s.labels.tolist() == [False, False, True]

    def test_non_monotonic_timestamps(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n2,1.0\n1,2.0\n")
        with pytest.raises(NonMonotonicTimestamps):
            load_series(p, CsvSchema("t", "v"))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_series("/nonexistent/file.csv")

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n1,abc\n")
        with pytest.raises(ValueError, match="non-numeric value"):
            load_series(p, CsvSchema("t", "v"))

    def test_iso_timestamps(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("timestamp,value\n2015-09-08 00:00:00,3.5\n2015-09-08 00:05:00,4.5\n")
        s = load_series(p)
        assert s.timestamps[1] - s.timestamps[0] == 300.0

    def test_sampling_period_gap(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n0,1.0\n1,1.0\n3,1.0\n")
        with pytest.raises(MissingSamples, match=r"gap of 2.0 at row 3,"):
            load_series(p, CsvSchema("t", "v", sampling_period=1.0))

    def test_gap_row_is_numbered_by_line_past_blank_lines(self, tmp_path):
        # the row named is the sample before the gap, line 4 of the file
        p = tmp_path / "s.csv"
        p.write_text("t,v\n0,1\n\n1,1\n3,1\n")
        with pytest.raises(MissingSamples, match=r"gap of 2.0 at row 4,"):
            load_series(p, CsvSchema("t", "v", sampling_period=1))

    def test_bad_label_encoding(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v,l\n1,1.0,yes\n")
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            load_series(p, CsvSchema("t", "v", "l"))

    def test_row_without_label_cell(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v,l\n1,1.0,0\n2,2.0\n")
        with pytest.raises(ValueError, match=r"^row 3: 2 of 3 cells$"):
            load_series(p, CsvSchema("t", "v", "l"))

    def test_rows_are_numbered_by_line_past_blank_lines(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n1,1.0\n\n\n2,abc\n")
        with pytest.raises(ValueError, match=r"^row 5: non-numeric value cell 'abc'$"):
            load_series(p, CsvSchema("t", "v"))

    def test_non_finite_value_is_named_by_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n1,1.0\n\n2,nan\n3,abc\n")
        with pytest.raises(MalformedInput, match=r"^row 4: non-finite value cell 'nan'$"):
            load_series(p, CsvSchema("t", "v"))

    def test_row_without_value_cell(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,v\n1,1.0\n2\n")
        with pytest.raises(ValueError, match=r"^row 3: 1 of 2 cells$"):
            load_series(p, CsvSchema("t", "v"))

    def test_round_trip_through_write_csv(self, tmp_path):
        source = make_spike_series(seed=4)
        p = tmp_path / "s.csv"
        write_csv(source, p)
        loaded = load_series(p, CsvSchema("timestamp", "value", "label"))
        for field in ("timestamps", "values", "labels"):
            assert np.array_equal(getattr(loaded, field), getattr(source, field)), field
        # the bytes a row-by-row write gives
        rows = [f"{ts:.6f},{float(v)!r},{int(lab)}\n"
                for ts, v, lab in zip(source.timestamps, source.values, source.labels)]
        assert p.read_bytes() == ("timestamp,value,label\n" + "".join(rows)).encode()


def loaded(path, schema):
    """What ``load_series`` gives: each array's dtype, shape and bytes, or the
    error's type and message. A warning counts as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = load_series(path, schema)
        except ValueError as exc:
            return type(exc), str(exc)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes())
            for a in (s.timestamps, s.values, s.labels)]


def by_both_paths(path, schema):
    """``loaded`` as the loader runs it, then with the row loop alone."""
    fast = loaded(path, schema)
    with mock.patch.object(data, "_read_columns", return_value=None):
        return fast, loaded(path, schema)


T_V, T_V_L = CsvSchema("t", "v"), CsvSchema("t", "v", "l")
PERIOD_1 = CsvSchema("t", "v", "l", sampling_period=1.0)
FLOAT_SPELLINGS = [
    "0.10000000000000001", "2.2250738585072014e-308", "1.7976931348623157e+308", "4.9e-324",
    "2.225073858507201e-309", "1e5", "1E-5", "-2.5e+3", "1e400", "-1e400", "nan", "-nan", "NaN",
    "inf", "-inf", "infinity", "-Infinity", "-0.0", "+.5", "5.", " 7 ", "\t7", "\xa07", "1_000",
    "0x10", "1d5", "", "1#2", "--1", "1e", "١",
]
LOADER_CORPUS = {
    **{f"value {c!r}": (f"t,v\n0,{c}\n1,2\n", T_V) for c in FLOAT_SPELLINGS},
    **{f"timestamp {c!r}": (f"t,v\n{c},1\n", T_V) for c in FLOAT_SPELLINGS},
    "timestamps from -inf to inf": ("t,v\n-inf,1\n0,2\ninf,3\n", T_V),
    **{f"label {c!r}": (f"t,v,l\n0,1,0\n1,2,{c}\n", T_V_L)
       for c in ["+1", "00", "01", "-0", " 1 ", "1 ", "1.0", "1e0", "yes", "True", "", "1\0", "\x001"]},
    "labels": ("t,v,l\n0,1,0\n1,2,1\n2,3,0\n", T_V_L),
    "quoted label": ('t,v,l\n0,1,"1"\n', T_V_L),
    "label on the value's cell": ("t,v\n0,1\n1,0\n", CsvSchema("t", "v", "v")),
    "timestamp and value on one cell": ("t,v\n1,9\n2,9\n", CsvSchema("t", "t")),
    "repeated header name": ("t,v,t\n1,2,3\n", T_V),
    "header only": ("t,v,l\n", T_V_L),
    "header only, no line end": ("t,v", T_V),
    "short row": ("t,v,l\n0,1,0\n1,2\n", T_V_L),
    "row short of a column past the schema's": ("t,v,x\n0,1,a\n1,2\n", T_V),
    "empty last cell": ("t,v,x\n0,1,\n", T_V),
    "rows longer than the header": ("t,v\n0,1,2,3\n1,2,\n", T_V),
    "quoted cells": ('t,v\n"0","1.5"\n"1",2\n', T_V),
    "quoted cell with a line break": ('t,v\n0,"1.5\n"\n1,"2\r\n"\n', T_V),
    "quoted header cell with a line break": ('t,"v\nw"\n0,1\n1,2\n', CsvSchema("t", "v\nw")),
    "text after a closing quote": ('t,v\n0,"1"5\n', T_V),
    "space after a closing quote": ('t,v\n0,"1" \n', T_V),
    "space before an opening quote": ('t,v\n0, "1"\n', T_V),
    "doubled quote": ('t,v\n0,"1""5"\n', T_V),
    "unclosed quote": ('t,v\n0,"1\n1,2\n', T_V),
    "CRLF": ("t,v,l\r\n0,1,0\r\n1,2,1\r\n", T_V_L),
    "bare CR": ("t,v,l\r0,1,0\r1,2,1\r", T_V_L),
    "mixed line ends": ("t,v\n0,1\r\n1,2\r2,3", T_V),
    "blank lines": ("t,v\n\n0,1\n\n\n1,2\n\n", T_V),
    "whitespace-only line": ("t,v\n0,1\n  \n1,2\n", T_V),
    "tab-only line": ("t,v\n0,1\n\t\n", T_V),
    "comma-only line": ("t,v\n0,1\n,\n", T_V),
    "ISO timestamps": ("t,v\n2015-09-08 00:00:00,1\n2015-09-08T00:05:00,2\n", T_V),
    "non-monotonic timestamps": ("t,v\n1,1\n0,2\n", T_V),
    "non-finite value": ("t,v\n0,nan\n", T_V),
    "sampling period kept": ("t,v,l\n0,1,0\n1,2,0\n\n2,3,1\n", PERIOD_1),
    "sampling period gap": ("t,v,l\n0,1,0\n\n1,2,0\n3,3,1\n", PERIOD_1),
    "sampling period gap, ISO timestamps": ("t,v\n2015-09-08 00:00:00,1\n2015-09-08 00:00:02,2\n",
                                            CsvSchema("t", "v", sampling_period=1.0)),
    "invalid UTF-8": (b"t,v\n0,1\n1,\xff\n", T_V),
}


@pytest.mark.parametrize("text, schema", LOADER_CORPUS.values(), ids=list(LOADER_CORPUS))
def test_loader_paths_agree_on_corpus(tmp_path, text, schema):
    # loadtxt gives the row loop's arrays bit for bit, or hands the file to it
    p = tmp_path / "s.csv"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    fast, rows = by_both_paths(p, schema)
    assert fast == rows


TIMESTAMP_SPELLINGS = ["{}", "{}.0", " {} ", '"{}"', "{}e0", "{}.00000000000000001"]
FINITE_SPELLINGS = ["3", "-1.25", '"0.5"', "7.000000000000001", "0.10000000000000001", "4.9e-324",
                    "-0.0", "+.5", "5.", " 7 ", "1e5", "1E-5", "2.2250738585072014e-308"]
CLEAN_LABELS = ["0", "1", '"1"']


@st.composite
def csv_texts(draw):
    """A t,v,l file whose timestamps count up by one, with cells and line ends
    drawn from spellings either loader may trip on. A clean file draws only
    cells both loaders accept, so that about half the files load."""
    clean = draw(st.booleans())
    values = FINITE_SPELLINGS if clean else FINITE_SPELLINGS + FLOAT_SPELLINGS
    labels = CLEAN_LABELS if clean else CLEAN_LABELS + [" 1", "+1", "00", "1.0", "1\0", ""]
    header = draw(st.sampled_from(["t,v,l", "t,v,l,x", '"t",v,l']))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header]
    for i in range(draw(st.integers(0, 6))):
        cells = [draw(st.sampled_from(TIMESTAMP_SPELLINGS)).format(i),
                 draw(st.sampled_from(values)), draw(st.sampled_from(labels)), "9"]
        lines.append(",".join(cells[:draw(st.sampled_from([4] if clean else [2, 3, 4]))]))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([""] if clean else ["", " ", "#"])))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@settings(max_examples=200, deadline=None)
@given(text=csv_texts(), labelled=st.booleans(), period=st.sampled_from([None, 1.0]))
def test_loader_paths_agree_on_generated_files(tmp_path_factory, text, labelled, period):
    p = tmp_path_factory.mktemp("csv") / "s.csv"
    p.write_text(text, encoding="utf-8", newline="")
    fast, rows = by_both_paths(p, CsvSchema("t", "v", "l" if labelled else None, period))
    assert fast == rows


def test_numeric_files_take_the_fast_path(tmp_path):
    p = tmp_path / "s.csv"
    source = make_spike_series(seed=4)
    write_csv(source, p)
    ts, values, labels = data._read_columns(p, 1, 3, 0, 1, 2)
    for got, field in ((ts, "timestamps"), (values, "values"), (labels, "labels")):
        assert np.array_equal(got, getattr(source, field)), field


class TestNormalize:
    def test_endpoints(self):
        s = series([0.0, 5.0, 10.0])
        out = normalize(s, NormParams(0.0, 10.0))
        np.testing.assert_allclose(out.values, [0.0, 0.5, 1.0])

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            NormParams(3.0, 3.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflowing_range(self):
        s = series([1e308, -1e308, 0.0])
        with pytest.raises(DegenerateRange, match=r"^scaling by the range \[-1e\+308, 1e\+308\] overflows$"):
            normalize(s, fit_norm_params(s))

    def test_labels_unchanged(self):
        s = series([1.0, 2.0], np.array([True, False]))
        out = normalize(s, NormParams(0.0, 4.0))
        assert out.labels.tolist() == [True, False]

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
        st.floats(-1e6, 1e6),
        st.floats(1e-3, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, values, lo, width):
        params = NormParams(lo, lo + width)
        s = series(values)
        back = normalize(s, params).values * (params.max - params.min) + params.min
        # 1e-12 relative to the largest magnitude the arithmetic touches;
        # an absolute 1e-12 is unattainable once offsets exceed ~2^12
        scale = max(1.0, abs(lo) + width, float(np.max(np.abs(s.values), initial=0.0)))
        np.testing.assert_allclose(back, s.values, atol=1e-12 * scale)

    def test_round_trip_with_fitted_params(self):
        rng = np.random.default_rng(4)
        s = series(rng.uniform(-3.0, 7.0, 50))
        params = fit_norm_params(s)
        back = normalize(s, params).values * (params.max - params.min) + params.min
        np.testing.assert_allclose(back, s.values, atol=1e-12 * 7.0)

    def test_fit_on_train(self):
        s = series([2.0, 4.0, 6.0])
        params = fit_norm_params(s)
        assert (params.min, params.max) == (2.0, 6.0)


class TestSplit:
    def test_lengths(self):
        s = series(np.arange(100.0))
        train, val, test = split_series(s, SplitSpec(0.6, 0.2, 0.2), look_back=8, look_ahead=1)
        assert (len(train), len(val), len(test)) == (60, 20, 20)

    def test_anomaly_in_train_warns(self):
        labels = np.zeros(100, dtype=bool)
        labels[5] = True
        s = series(np.arange(100.0), labels)
        with pytest.warns(AnomalyInTrainWarning):
            split_series(s, SplitSpec(0.6, 0.2, 0.2), look_back=8, look_ahead=1)

    def test_split_too_small(self):
        s = series(np.arange(10.0))
        with pytest.raises(SplitTooSmall):
            split_series(s, SplitSpec(0.6, 0.2, 0.2), look_back=8, look_ahead=1)

    def test_concatenation_reproduces_input(self):
        rng = np.random.default_rng(0)
        s = series(rng.normal(size=83), rng.uniform(size=83) < 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AnomalyInTrainWarning)
            train, val, test = split_series(s, SplitSpec(0.5, 0.25, 0.25), look_back=8, look_ahead=1)
        np.testing.assert_array_equal(
            np.concatenate([train.values, val.values, test.values]), s.values
        )
        np.testing.assert_array_equal(
            np.concatenate([train.labels, val.labels, test.labels]), s.labels
        )
        np.testing.assert_array_equal(
            np.concatenate([train.timestamps, val.timestamps, test.timestamps]), s.timestamps
        )

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0.2, -0.2)


class TestWindow:
    def test_enumerated(self):
        ds = make_windows(series([1.0, 2.0, 3.0, 4.0]), look_back=2, look_ahead=1)
        np.testing.assert_array_equal(ds.inputs, [[1, 2], [2, 3]])
        np.testing.assert_array_equal(ds.targets, [[3], [4]])
        np.testing.assert_array_equal(ds.target_indices, [2, 3])

    def test_count_formula(self):
        ds = make_windows(series(np.arange(1.0, 11.0)), look_back=3, look_ahead=2)
        assert len(ds) == 6

    def test_minimal(self):
        ds = make_windows(series([1.0, 2.0]), look_back=1, look_ahead=1)
        assert len(ds) == 1
        np.testing.assert_array_equal(ds.inputs, [[1.0]])
        np.testing.assert_array_equal(ds.targets, [[2.0]])

    def test_too_short(self):
        with pytest.raises(SplitTooSmall):
            make_windows(series([1.0, 2.0]), look_back=2, look_ahead=1)

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_count_property(self, look_back, look_ahead, extra):
        n = look_back + look_ahead + extra
        ds = make_windows(series(np.arange(float(n))), look_back, look_ahead)
        assert len(ds) == n - look_back - look_ahead + 1

    def test_target_indices_map_to_timestamps(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=40)
        s = series(values)
        ds = make_windows(s, look_back=5, look_ahead=3)
        for i in range(len(ds)):
            t = ds.target_indices[i]
            np.testing.assert_array_equal(ds.targets[i], values[t : t + 3])
            np.testing.assert_array_equal(ds.inputs[i], values[t - 5 : t])


def test_prepare_normalizes_with_train_range_and_offsets_each_part():
    labels = np.zeros(20, dtype=bool)
    labels[18] = True  # the first target of the first test window
    s = series(np.arange(20.0) ** 2, labels)
    windows, window_labels, offsets = prepare(s, SplitSpec(0.5, 0.25, 0.25), 3, 1)
    assert offsets == (0, 10, 15)
    assert [len(w) for w in windows] == [7, 2, 2]
    train = np.concatenate([windows[0].inputs.ravel(), windows[0].targets.ravel()])
    assert (train.min(), train.max()) == (0.0, 1.0)  # points 0 to 9, over the range 0 to 81
    np.testing.assert_allclose(windows[2].inputs * 81.0, [[225.0, 256.0, 289.0], [256.0, 289.0, 324.0]])
    np.testing.assert_allclose(windows[2].targets * 81.0, [[324.0], [361.0]])
    np.testing.assert_array_equal(offsets[2] + windows[2].target_indices, [18, 19])
    assert [w.tolist() for w in window_labels] == [[False] * 7, [False, False], [True, False]]
    assert prepare(series(s.values), SplitSpec(0.5, 0.25, 0.25), 3, 1)[1] is None


def test_atomic_write_gets_the_mode_of_a_plain_write(tmp_path):
    # a temp file from tempfile.mkstemp is private (0600) whatever the umask
    with open(tmp_path / "plain", "wb") as fh:
        fh.write(b"x")
    atomic_write_bytes(tmp_path / "atomic", b"x")
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]


def _file_writes(tree: ast.AST) -> list[int]:
    """Lines of the calls in ``tree`` that write a file other than inside
    ``atomic_write_bytes``: ``open``, ``Path.open`` or ``os.fdopen`` in a
    mode that writes (or one that is not a literal), ``os.open``,
    ``write_text``, ``write_bytes``, and ``np.save*`` to anything but a name
    bound to a ``BytesIO()`` in the same function."""
    found: list[int] = []

    def names(call):
        """(module or object name, function name) of a call: ("os", "open"), (None, "open")."""
        func = call.func
        if isinstance(func, ast.Attribute):
            return getattr(func.value, "id", None), func.attr
        return None, getattr(func, "id", None)

    def writes(call, buffers):
        owner, name = names(call)
        if name in ("write_text", "write_bytes") or (owner, name) == ("os", "open"):
            return True
        if name in ("open", "fdopen"):
            at = 0 if isinstance(call.func, ast.Attribute) and owner not in ("io", "os") else 1
            mode = next((k.value for k in call.keywords if k.arg == "mode"),
                        call.args[at] if len(call.args) > at else ast.Constant("r"))
            return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))
        if owner in ("np", "numpy") and name.startswith("save"):
            return not (call.args and isinstance(call.args[0], ast.Name) and call.args[0].id in buffers)
        return False

    def visit(node, allowed, buffers):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or node.name == "atomic_write_bytes"
            buffers = {t.id for n in ast.walk(node)
                       if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                       and names(n.value)[1] == "BytesIO" for t in n.targets if isinstance(t, ast.Name)}
        if isinstance(node, ast.Call) and not allowed and writes(node, buffers):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, allowed, buffers)

    visit(tree, False, set())
    return found


@pytest.mark.parametrize("code, lines", [
    ("open(p)\nopen(p, encoding='utf-8')\np.open(newline='')\nopen(p, 'rb')", []),
    ("open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\np.open('r+')\nos.fdopen(fd, 'wb')\nos.open(p, f)",
     [1, 2, 3, 4, 5, 6]),
    ("p.write_text(s)\np.write_bytes(b)\nnp.save(p, a)\nnp.savez(str(p), a=a)", [1, 2, 3, 4]),
    ("def f():\n    buf = io.BytesIO()\n    np.savez(buf, a=a)\n    np.savez(other, a=a)", [4]),
    ("def atomic_write_bytes(p, b):\n    os.open(p, f)\n    os.fdopen(fd, 'wb')", []),
], ids=["reads", "write-modes", "path-writes", "buffer", "inside-atomic-write"])
def test_file_write_finder(code, lines):
    assert _file_writes(ast.parse(code)) == lines


def test_every_file_write_goes_through_atomic_write_bytes():
    found = [f"{path.name}:{line}" for path in sorted(Path(data.__file__).parent.glob("*.py"))
             for line in _file_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _pickle_loads(tree: ast.AST) -> list[int]:
    """Lines of the calls in ``tree`` that pass ``allow_pickle`` anything but
    a literal False."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            for k in node.keywords if k.arg == "allow_pickle"
            and not (isinstance(k.value, ast.Constant) and k.value.value is False)]


def test_no_file_is_loaded_with_allow_pickle():
    # unpickling a file can run code in it, and model and data files come from outside
    code = "np.load(p)\nnp.load(p, allow_pickle=False)\nnp.load(p, allow_pickle=True)\nload(p, allow_pickle=f)"
    assert _pickle_loads(ast.parse(code)) == [3, 4]
    found = [f"{path.name}:{line}" for path in sorted(Path(data.__file__).parent.glob("*.py"))
             for line in _pickle_loads(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
