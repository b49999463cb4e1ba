import os
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import reader_reference
from conftest import assert_no_child_left, write_csv
from hypothesis import given, settings
from hypothesis import strategies as hst

from fairthresh import _parallel, data
from fairthresh.data import (
    LabeledDataset,
    SplitPlan,
    UnlabeledDataset,
    _apportion,
    _read_table,
    load_csv,
    load_features,
    load_scores,
    split,
)
from fairthresh.errors import (
    ConfigError,
    DataValueError,
    GroupCoverageError,
    ParseError,
    SchemaError,
)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_four_row_labeled(self, tmp_path):
        p = _write(tmp_path, "x1,x2,S,Y\n1.0,2.0,0,1\n3.5,-1.0,1,0\n0.0,0.25,0,0\n2.5,1.5,1,1\n")
        ds = load_csv(p, "S", "Y")
        assert isinstance(ds, LabeledDataset)
        assert ds.n == 4 and ds.d == 2
        assert ds.feature_names == ("x1", "x2")
        np.testing.assert_array_equal(ds.sensitive, [0, 1, 0, 1])

    def test_non_binary_sensitive_names_row(self, tmp_path):
        p = _write(tmp_path, "x1,S,Y\n1.0,0,1\n2.0,2,0\n3.0,1,1\n")
        with pytest.raises(DataValueError, match="row 1"):
            load_csv(p, "S", "Y")

    def test_missing_column_is_schema_error(self, tmp_path):
        p = _write(tmp_path, "x1,S,Y\n1.0,0,1\n")
        with pytest.raises(SchemaError, match="group"):
            load_csv(p, "group", "Y")

    @pytest.mark.parametrize("header", ["x1,x1,S,Y", "x1,,S,Y"], ids=["duplicate", "blank"])
    def test_header_names_must_be_distinct_and_non_blank(self, tmp_path, header):
        p = _write(tmp_path, header + "\n1.0,2.0,0,1\n3.0,4.0,1,0\n")
        with pytest.raises(SchemaError, match="header names"):
            load_csv(p, "S", "Y")

    def test_unparseable_cell_names_row(self, tmp_path):
        p = _write(tmp_path, "x1,S,Y\n1.0,0,1\nfoo,1,0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(p, "S", "Y")

    def test_nan_cell_rejected(self, tmp_path):
        p = _write(tmp_path, "x1,S,Y\n1.0,0,1\nnan,1,0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(p, "S", "Y")

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-8, 8, size=(20, 3))
        ds = LabeledDataset(X, rng.integers(0, 2, 20), rng.integers(0, 2, 20))
        p = tmp_path / "out.csv"
        write_csv(p, ds)
        back = load_csv(p, "S", "Y")
        # repr round-trips doubles exactly, well past 12 significant digits
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_parse_matches_python_float(self, tmp_path):
        # reference: the per-cell float() loop the reader replaced
        rng = np.random.default_rng(3)
        v = rng.normal(size=4000) * 10.0 ** rng.integers(-300, 300, size=4000)
        cells = [repr(float(x)) for x in v[:2000]] + [f"{x:.17g}" for x in v[2000:]]
        lines = [f"{c},{i % 2}" for i, c in enumerate(cells)]
        p = _write(tmp_path, "x1,S\n" + "\n".join(lines) + "\n")
        expected = np.asarray([float(c) for c in cells])
        X, _ = load_features(p, "S", "Y")
        np.testing.assert_array_equal(X[:, 0].view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize(
        "body, error",
        [("1.0,0,1\n2.0,1\n", SchemaError), ("1.0,0,1\n\n2.0,1,0\n", SchemaError),
         ("1.0,0,1\n1e999,1,0\n", ParseError), ("1.0,0,1\n2.0,1,-1\n", DataValueError),
         ("1.0,0,1\n2.0,a,0\n", DataValueError)],
        ids=["ragged", "blank_line", "overflow", "label_not_binary", "sensitive_unparseable"],
    )
    def test_bad_row_names_file_and_row(self, tmp_path, body, error):
        p = _write(tmp_path, "x1,S,Y\n" + body)
        with pytest.raises(error, match=f"{p}: row 1"):
            load_csv(p, "S", "Y")

    def test_features_drop_label_and_sensitive_is_optional(self, tmp_path):
        X, S = load_features(_write(tmp_path, "x1,S,Y\n1.0,0,1\n2.0,1,0\n"), "S", "Y")
        np.testing.assert_array_equal(X, [[1.0], [2.0]])
        np.testing.assert_array_equal(S, [0, 1])
        X, S = load_features(_write(tmp_path, "x1,x2\n1.0,3.0\n", "b.csv"), "S", "Y")
        assert X.shape == (1, 2) and S is None


class TestLoadScores:
    def test_columns_and_optional_marginal(self, tmp_path):
        s0, s1, marg = load_scores(_write(tmp_path, "score_s1,score_s0\n0.25,0.5\n1,0\n"))
        np.testing.assert_array_equal(s0, [0.5, 0.0])
        np.testing.assert_array_equal(s1, [0.25, 1.0])
        assert marg is None

    @pytest.mark.parametrize(
        "body, error",
        [("0.5,0.5\n7.5,0.5\n", DataValueError), ("0.5,0.5\n0.5,-0.1\n", DataValueError),
         ("0.5,0.5\nnan,0.5\n", ParseError), ("0.5,0.5\n0.5,\n", ParseError)],
        ids=["above_one", "below_zero", "nan", "empty_cell"],
    )
    def test_bad_score_names_row(self, tmp_path, body, error):
        p = _write(tmp_path, "score_s0,score_s1\n" + body)
        with pytest.raises(error, match="row 1"):
            load_scores(p)

    def test_blind_needs_marginal(self, tmp_path):
        with pytest.raises(SchemaError, match="score_marginal"):
            load_scores(_write(tmp_path, "score_s0,score_s1\n0.5,0.5\n"), need_marginal=True)


def _bits(a):
    """An array's bytes with its dtype and shape: equal only for bit-identical arrays."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


MIXED_TABLE = [
    ["x1", "score_s0", "score_s1", "score_marginal", "S", "Y"],
    ["1.5", "0.25", "0.75", "0.5", "0", "1"],
    ["-3.0000000000000004", "1", "0", "0.1", "1", "0"],
    ["2.2250738585072014e-308", "0.30000000000000004", "1e-06", "0.999999", "1", "1"],
    ["1e300", "0.5", "0.5", "0.5", "0", "0"],
]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final_newline", "no_final_newline"])
def test_line_endings_give_bit_identical_arrays(tmp_path, ending, final_newline):
    """Every loader returns the same bits whatever the line ending and whether the last line ends."""
    def load_all(path):
        ds = load_csv(path, "S", "Y")
        return [_bits(a) for a in (ds.features, ds.sensitive, ds.labels, *load_features(path, "S", "Y"),
                                   *load_scores(path, need_marginal=True))]

    lines = [",".join(row) for row in MIXED_TABLE]
    expected = load_all(_write(tmp_path, "\n".join(lines) + "\n", "lf.csv"))
    p = tmp_path / "data.csv"
    p.write_bytes((ending.join(lines) + (ending if final_newline else "")).encode("utf-8"))
    assert load_all(p) == expected


def test_byte_order_mark_is_ignored(tmp_path):
    """A UTF-8 byte-order mark (as spreadsheet programs write it) is not part of the first header name."""
    text = "S,x1,Y\n0,1.5,1\n1,2.5,0\n"
    plain = load_csv(_write(tmp_path, text, "plain.csv"), "S", "Y")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    ds = load_csv(marked, "S", "Y")
    assert ds.feature_names == plain.feature_names == ("x1",)
    for got, want in zip((ds.features, ds.sensitive, ds.labels), (plain.features, plain.sensitive, plain.labels)):
        assert _bits(got) == _bits(want)


NAMES = ("x1", "x2", "S", "Y", "score_s0", "score_s1")
BINARY, UNIT = ("S", "Y"), ("score_s0", "score_s1")
BAD_CELLS = ("abc", "", " ", "nan", "inf", "1e999", "2", "-0.5", "1.5", "1_0", "0x1", "1,5")


def _cell(name):
    if name in BINARY:
        return hst.sampled_from(["0", "1", "1.0", " 0"])
    finite = hst.floats(0, 1) if name in UNIT else hst.floats(allow_nan=False, allow_infinity=False)
    return hst.builds(lambda v, fmt: fmt(v), finite, hst.sampled_from([repr, "{:.17g}".format, "{:g}".format]))


@hst.composite
def table_text(draw):
    """A valid table, or one with a single corruption, written with a drawn line ending."""
    header = draw(hst.lists(hst.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    rows = draw(hst.lists(hst.tuples(*(_cell(n) for n in header)).map(list), min_size=1, max_size=6))
    how = draw(hst.sampled_from(["none", "blank_line", "ragged", "bad_cell", "\x0c", "\u2028", "\ufeff",
                                 "trailing_blank"]))
    r = draw(hst.integers(0, len(rows) - 1))
    if how == "ragged":
        rows[r] = rows[r][:-1] if draw(hst.booleans()) else rows[r] + ["0"]
    elif how == "bad_cell":
        rows[r][draw(hst.integers(0, len(header) - 1))] = draw(hst.sampled_from(BAD_CELLS))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if how == "blank_line":
        lines.insert(r + 1, "")
    elif how in ("\x0c", "\u2028"):  # further line breaks to str.splitlines, not to a CSV reader
        at = draw(hst.integers(0, len(lines[r + 1])))
        lines[r + 1] = lines[r + 1][:at] + how + lines[r + 1][at:]
    elif how == "\ufeff":  # a byte-order mark opening a data row is a character of its first cell
        lines[r + 1] = how + lines[r + 1]
    elif how == "trailing_blank":
        lines.append("")
    ending = draw(hst.sampled_from(["\n", "\r\n", "\r"]))
    final = how == "trailing_blank" or draw(hst.booleans())
    return ending.join(lines) + (ending if final else "")


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


def _outcome(read, path):
    """Header and array bits of a read, or the class and message of its exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a body of blank lines
        try:
            header, values = read(path, binary=BINARY, unit=UNIT)
        except Exception as exc:
            return type(exc), str(exc)
    return header, _bits(values)


@settings(max_examples=300, deadline=None)
@given(text=table_text(), block=hst.sampled_from([1, 2, 3, 5, 8, 1 << 16]), n_cpus=hst.integers(1, 5),
       part=hst.sampled_from([1, 2, 3, 5, 8]), bom=hst.booleans())
def test_read_table_matches_whole_text_reader(reader_dir, text, block, n_cpus, part, bom):
    """The streamed reader returns what the whole-text reader returns, or fails as it fails, whatever the
    size of the blocks it decodes (so a block may end inside a row, a \\r\\n or a character) and whatever
    the number of byte ranges it parses in forked workers (a few bytes each, so a cut may fall after any \\n),
    and with a leading byte-order mark (which the whole-text reader does not skip, so it reads the text
    without one)."""
    p = reader_dir / "table.csv"
    p.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    with mock.patch.object(data, "_READ_CHARS", block), mock.patch.object(data, "_PART_BYTES", part):
        with mock.patch.object(_parallel, "_cpus", lambda: n_cpus):
            got = _outcome(_read_table, p)
        with mock.patch.object(_parallel, "_cpus", lambda: 1):
            one_part = _outcome(_read_table, p)
    p.write_bytes(text.encode("utf-8"))
    assert got == one_part == _outcome(reader_reference.read_table, p)


def _score_file(path, rows):
    np.savetxt(path, np.random.default_rng(6).random((rows, 3)), fmt="%.17g", delimiter=",",
               header="score_s0,score_s1,score_marginal", comments="")


@pytest.mark.parametrize("n_cpus, part, parts", [(2, 1 << 19, 1), (1, 1 << 10, 1), (2, 1 << 10, 2), (3, 1 << 10, 3),
                                                  (5, 1 << 14, 3)],
                         ids=["below_split_size", "one_cpu", "two_cpus", "three_cpus", "three_parts_of_five_cpus"])
def test_split_read_forks_one_child_per_part_but_the_first(tmp_path, forks, cpus, n_cpus, part, parts):
    """One part per usable CPU, of at least _PART_BYTES each: the 1,000-row file (59,996 bytes) is one part
    at the real part size or on one CPU, and three of 16 KiB; the rows equal those of the read in one part."""
    p = tmp_path / "scores.csv"
    _score_file(p, 1000)
    cpus(1)
    expected = _outcome(_read_table, p)
    cpus(n_cpus)
    with mock.patch.object(data, "_PART_BYTES", part):
        assert len(data._parts(p)) == parts
        assert _outcome(_read_table, p) == expected
    assert forks["forks"] == parts - 1
    assert_no_child_left()


@pytest.mark.parametrize("at, bad, error", [
    (700, b"0.5,abc,0.5", ParseError), (40, b"0.5,0.5", SchemaError), (900, b"0.5,\xff,0.5", ParseError),
    (5, b"0.5,\xe2\x80,0.5", ParseError)],
    ids=["bad_cell", "ragged_row", "not_utf8", "not_utf8_in_first_part"])
def test_failing_part_is_read_again_in_one_part(tmp_path, forks, cpus, at, bad, error):
    """A part that fails leaves no child behind, and the file read again in one part raises the
    whole-text reader's error, with its class and message."""
    p = tmp_path / "scores.csv"
    _score_file(p, 1000)
    lines = p.read_bytes().split(b"\n")
    lines[at + 1] = bad
    p.write_bytes(b"\n".join(lines))
    cpus(3)
    with mock.patch.object(data, "_PART_BYTES", 1 << 12), pytest.raises(error) as info:
        load_scores(p)
    assert forks["forks"] == 2
    assert_no_child_left()
    assert (type(info.value), str(info.value)) == _outcome(reader_reference.read_table, p)


def test_non_utf8_byte_is_named_by_its_offset_in_the_file(tmp_path):
    """A byte that is not UTF-8 is named by its offset in the file (after a byte-order mark), as the
    whole-text reader names it, also when it lies past the first block and text before it is not ASCII."""
    p = tmp_path / "table.csv"
    p.write_bytes("\u00e9,S\n".encode() + b"\n".join(b"0.5,0" for _ in range(11000)) + b"\xff\n")
    got = _outcome(_read_table, p)
    assert got[0] is ParseError and "position 66004:" in got[1]  # 5 header bytes and 11,000 rows of 6
    assert got == _outcome(reader_reference.read_table, p)


def test_fifo_is_one_part_and_is_not_opened_to_plan(tmp_path, cpus):
    """A named pipe is read in one part, from its start; planning its parts neither opens nor seeks it."""
    p = tmp_path / "scores.fifo"
    os.mkfifo(p)
    cpus(2)
    with mock.patch.object(data, "_PART_BYTES", 1), mock.patch("builtins.open", side_effect=AssertionError):
        assert data._parts(p) == [(0, None)]
    writer = threading.Thread(target=lambda: p.write_bytes(b"score_s0,score_s1\n0.25,0.5\n1,0\n"), daemon=True)
    writer.start()
    try:
        s0, s1, _ = load_scores(p)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(np.column_stack([s0, s1]), [[0.25, 0.5], [1.0, 0.0]])


@settings(max_examples=200, deadline=None)
@given(texts=hst.lists(table_text(), min_size=1, max_size=3), boms=hst.lists(hst.booleans(), min_size=3, max_size=3),
       block=hst.sampled_from([1, 3, 1 << 16]), n_cpus=hst.integers(1, 5), part=hst.sampled_from([1, 2, 3, 5, 8, 40]))
def test_joint_read_matches_whole_text_reader_per_table(reader_dir, texts, boms, block, n_cpus, part):
    """Tables read together, their bytes cut a few at a time so a range may hold the tail of one file and
    the head of the next, each give what the whole-text reader and the one-part read of the file alone
    give, header and bits or error class and message, whichever of them fail."""
    paths = [reader_dir / f"joint{i}.csv" for i in range(len(texts))]
    for p, text, bom in zip(paths, texts, boms):
        p.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    with mock.patch.object(data, "_READ_CHARS", block), mock.patch.object(data, "_PART_BYTES", part):
        with mock.patch.object(_parallel, "_cpus", lambda: n_cpus):
            inputs = data.Inputs(*paths)
            got = [_outcome(inputs.table, p) for p in paths]
        with mock.patch.object(_parallel, "_cpus", lambda: 1):
            one_part = [_outcome(_read_table, p) for p in paths]
    for p, text in zip(paths, texts):
        p.write_bytes(text.encode("utf-8"))
    assert got == one_part == [_outcome(reader_reference.read_table, p) for p in paths]


def _labeled_file(path, rows, seed, sensitive=True):
    rng = np.random.default_rng(seed)
    header, cols = ["x1", "S", "Y"], [rng.normal(size=rows), np.arange(rows) % 2, rng.integers(0, 2, rows)]
    if not sensitive:
        header, cols = ["x1", "Y"], [cols[0], cols[2]]
    np.savetxt(path, np.column_stack(cols), fmt="%.17g", delimiter=",", header=",".join(header), comments="")
    return str(path)


@pytest.fixture
def command_files(tmp_path):
    """A calibration set (train, unlabeled and their scores, 600 rows) and a test set (data, scores, 400 rows)."""
    for name, rows, seed in (("train", 600, 1), ("pool", 600, 2), ("test", 400, 3)):
        _labeled_file(tmp_path / f"{name}.csv", rows, seed)
    for name, rows in (("train_scores", 600), ("pool_scores", 600), ("test_scores", 400)):
        _score_file(tmp_path / f"{name}.csv", rows)
    names = ("train", "pool", "test", "train_scores", "pool_scores", "test_scores")
    return {k: str(tmp_path / f"{k}.csv") for k in names}


def _commands(f, out):
    cal = ["--train", f["train"], "--unlabeled", f["pool"], "--scores", f["pool_scores"]]
    return [
        ["calibrate", "--train", f["train"]],
        ["calibrate", "--train", f["train"], "--scores", f["train_scores"]],
        ["calibrate", *cal, "--out", out],
        ["calibrate", *cal, "--mode", "blind"],
        ["predict", "--model", out, "--data", f["test"], "--scores", f["test_scores"]],
        ["evaluate", "--model", out, "--test", f["test"], "--scores", f["test_scores"]],
        ["benchmark", "--data", f["train"], "--test", f["test"], "--unlabeled", f["pool"], "--repeats", "1",
         "--cv-folds", "2", "--estimator", "knn", "--methods", "plugin"],
    ]


@pytest.mark.parametrize("n_cpus", [2, 3])
def test_a_command_forks_once_whatever_its_file_count(tmp_path, command_files, forks, cpus, capsys, n_cpus):
    """Each command's input CSVs, one to three of them, are parsed in one map: W - 1 children, W the usable
    CPUs, forked once per command; its output equals that of the reads in one part."""
    from fairthresh.cli import main

    out, outputs = str(tmp_path / "model.json"), {}
    for cpu_count in (1, n_cpus):
        cpus(cpu_count)
        for argv in _commands(command_files, out):
            forks["forks"] = 0
            with mock.patch.object(data, "_PART_BYTES", 1 << 10):
                assert main(argv) == 0
            assert forks["forks"] == cpu_count - 1, argv
            assert_no_child_left()
            outputs.setdefault(" ".join(argv), []).append(capsys.readouterr().out)
    assert all(a == b for a, b in outputs.values())


def _error(argv, capsys):
    from fairthresh.cli import main

    code = main(argv)
    return code, capsys.readouterr().err


def test_first_bad_file_wins_and_checks_between_reads_come_first(tmp_path, command_files, forks, cpus, capsys):
    """With two bad files the command reports the first one's error, as reads one by one would, and a check
    made between two reads (aware calibration needs S) comes before a later bad file's error; the same holds
    when the map fails on a piece's header error and every file is read again at its turn."""
    f = command_files
    bad_train, bad_scores = tmp_path / "bad_train.csv", tmp_path / "bad_scores.csv"
    lines = Path(f["train"]).read_text().splitlines()
    lines[300] = "abc,1,0"
    bad_train.write_text("\n".join(lines) + "\n")
    lines = Path(f["pool_scores"]).read_text().splitlines()
    lines[500] = "0.5,7,0.5"
    bad_scores.write_text("\n".join(lines) + "\n")
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("x1,x1,S,Y\n" + "1,2,0,1\n" * 300)
    no_s = _labeled_file(tmp_path / "no_s.csv", 600, 4, sensitive=False)
    cases = [
        (["calibrate", "--train", str(bad_train), "--unlabeled", f["pool"], "--scores", str(bad_scores)],
         (2, f"error: {bad_train}: row 299, column 'x1': cannot parse 'abc'\n")),
        (["calibrate", "--train", f["train"], "--unlabeled", no_s, "--scores", str(bad_scores)],
         (2, f"error: {no_s}: group-aware calibration needs column 'S'\n")),
        (["calibrate", "--train", f["train"], "--unlabeled", f["pool"], "--scores", str(bad_scores)],
         (2, f"error: {bad_scores}: row 499, column 'score_s1': score 7 outside [0, 1]\n")),
        (["calibrate", "--train", f["train"], "--unlabeled", str(bad_header), "--scores", str(bad_scores)],
         (2, f"error: {bad_header}: header names must be non-blank and distinct, got ['x1', 'x1', 'S', 'Y']\n")),
    ]
    for n_cpus in (1, 2, 3):
        cpus(n_cpus)
        for argv, expected in cases:
            forks["forks"] = 0
            with mock.patch.object(data, "_PART_BYTES", 1 << 10):
                assert _error(argv, capsys) == expected
            assert forks["forks"] == n_cpus - 1
            assert_no_child_left()


def test_a_dead_child_leaves_each_file_to_its_turn(command_files, forks, cpus):
    """A worker that dies without a result makes the map fail; the files are then read at their loaders'
    turns, in one part each, and give the same arrays; no child is left."""
    f, parent = command_files, os.getpid()
    read_pieces = data._read_pieces

    def dying(pieces):
        if os.getpid() != parent:
            os._exit(1)
        return read_pieces(pieces)

    cpus(1)
    expected = [_bits(a) for a in load_features(f["pool"], "S", "Y")[:1] + load_scores(f["pool_scores"])[:2]]
    cpus(2)
    with mock.patch.object(data, "_PART_BYTES", 1 << 10), mock.patch.object(data, "_read_pieces", dying):
        inputs = data.Inputs(f["pool"], f["pool_scores"])
        assert inputs._reads == {}
        got = [_bits(a) for a in inputs.load_features(f["pool"], "S", "Y")[:1] + inputs.load_scores(f["pool_scores"])[:2]]
    assert got == expected
    assert forks["forks"] == 1
    assert_no_child_left()


def test_fifo_never_joins_the_map(tmp_path, command_files, forks, cpus):
    """A named pipe among a command's files is left out of the plan, never opened to plan it, and read in one
    part at its loader's turn; the regular files around it are still parsed in one map."""
    f, fifo = command_files, tmp_path / "scores.fifo"
    os.mkfifo(fifo)
    cpus(2)
    real_open = open

    def guarded(path, *args, **kwargs):
        assert str(path) != str(fifo)
        return real_open(path, *args, **kwargs)

    with mock.patch.object(data, "_PART_BYTES", 1 << 10):
        with mock.patch("builtins.open", guarded):
            ranges = data._plan([f["train"], fifo, f["pool"]])
        assert len(ranges) == 2 and all(str(fifo) not in {str(p) for p, _, _ in r} for r in ranges)
        inputs = data.Inputs(f["train"], fifo, f["pool"])
    assert forks["forks"] == 1
    assert_no_child_left()
    writer = threading.Thread(target=lambda: fifo.write_bytes(b"score_s0,score_s1\n0.25,0.5\n1,0\n"), daemon=True)
    writer.start()
    try:
        train = inputs.load_csv(f["train"], "S", "Y")
        s0, s1, _ = inputs.load_scores(fifo)
        pool, _ = inputs.load_features(f["pool"], "S", "Y")
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(np.column_stack([s0, s1]), [[0.25, 0.5], [1.0, 0.0]])
    assert train.n == 600 and pool.shape == (600, 1)
    assert forks["forks"] == 1


def test_plan_cuts_balanced_ranges_across_files(tmp_path, cpus):
    """The ranges hold equal shares of the files' bytes, give or take a line, in file order; each piece
    after a file's first starts just after a \n, and a cut that would leave a first piece its header line
    alone falls at the file's start instead."""
    paths = [_labeled_file(tmp_path / f"f{i}.csv", rows, i) for i, rows in enumerate((300, 40, 500))]
    sizes = {p: os.path.getsize(p) for p in paths}
    cpus(4)
    with mock.patch.object(data, "_PART_BYTES", 1 << 10):
        ranges = data._plan(paths)
    assert len(ranges) == 4
    spans = [[(p, start, sizes[p] if stop is None else stop) for p, start, stop in r] for r in ranges]
    shares = [sum(stop - start for _, start, stop in r) for r in spans]
    assert sum(shares) == sum(sizes.values())
    assert max(shares) - min(shares) < 2 * 80  # a row holds fewer than 45 bytes
    pieces = [piece for r in spans for piece in r]
    assert [p for p, _, _ in pieces] == sorted((p for p, _, _ in pieces), key=paths.index)
    for p in paths:  # each file's pieces follow one another from its start to its end
        mine = [(start, stop) for q, start, stop in pieces if q == p]
        assert mine[0][0] == 0 and mine[-1][1] == sizes[p]
        assert all(a[1] == b[0] for a, b in zip(mine, mine[1:]))
        text = Path(p).read_bytes()
        assert all(text[start - 1 : start] == b"\n" for start, _ in mine[1:])
    long_header = tmp_path / "long_header.csv"
    long_header.write_bytes(b"x" * 3000 + b",S,Y\n" + b"1,0,1\n" * 100)
    cpus(2)
    with mock.patch.object(data, "_PART_BYTES", 1 << 10):
        assert data._plan([long_header]) == []  # the one cut, after the header, moves to the start
        # the cut's target lies in the second file's header: the ranges are the two files
        assert data._plan([paths[1], long_header]) == [[(paths[1], 0, None)], [(long_header, 0, None)]]


def test_load_scores_peak_memory_is_bounded_by_its_arrays(tmp_path):
    """Reading a score file holds neither the whole text nor a list of its lines."""
    rng = np.random.default_rng(4)
    p = tmp_path / "scores.csv"
    np.savetxt(p, rng.random((50_000, 3)), fmt="%.17g", delimiter=",",
               header="score_s0,score_s1,score_marginal", comments="")
    tracemalloc.start()
    try:
        arrays = load_scores(p, need_marginal=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sum(a.nbytes for a in arrays) + 2**20


class TestDatasetInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(SchemaError):
            LabeledDataset(np.zeros((3, 1)), [0, 1], [0, 1, 1])

    def test_missing_group_rejected(self):
        with pytest.raises(GroupCoverageError):
            LabeledDataset(np.zeros((2, 1)), [1, 1], [0, 1])

    def test_unlabeled_needs_two_rows_per_group(self):
        with pytest.raises(GroupCoverageError):
            UnlabeledDataset(np.zeros((3, 1)), [0, 1, 1])
        UnlabeledDataset(np.zeros((4, 1)), [0, 0, 1, 1])  # ok

    def test_unlabeled_sensitive_optional(self):
        ds = UnlabeledDataset(np.zeros((1, 2)))
        assert ds.sensitive is None


class TestSplit:
    @pytest.fixture
    def ds(self):
        rng = np.random.default_rng(1)
        return LabeledDataset(rng.normal(size=(100, 2)), rng.integers(0, 2, 100), rng.integers(0, 2, 100))

    def test_thirty_repeats_seventy_percent(self, ds):
        results = split(ds, SplitPlan(0.7, 30, seed=5))
        assert len(results) == 30
        for r in results:
            assert r.train.n == 70 and r.test.n == 30

    def test_partition_disjoint_exhaustive(self, ds):
        for r in split(ds, SplitPlan(0.7, 5, seed=2)):
            merged = np.sort(np.concatenate([r.train_indices, r.test_indices]))
            np.testing.assert_array_equal(merged, np.arange(ds.n))

    def test_train_keeps_both_groups(self, ds):
        for r in split(ds, SplitPlan(0.3, 20, seed=3)):
            assert 0 not in r.train.group_counts()

    def test_same_plan_identical_splits(self, ds):
        a = split(ds, SplitPlan(0.7, 4, seed=11))
        b = split(ds, SplitPlan(0.7, 4, seed=11))
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.train_indices, rb.train_indices)
            np.testing.assert_array_equal(ra.test_indices, rb.test_indices)

    def test_all_same_label_falls_back_with_warning(self):
        ds = LabeledDataset(np.arange(10.0)[:, None], [0, 1] * 5, [1] * 10)
        results = split(ds, SplitPlan(0.7, 2, seed=0))
        assert all(r.stratified_by_sensitive_only for r in results)
        assert all(r.train.n == 7 for r in results)

    def test_group_missing_from_train_is_swapped_in(self):
        # group 1 has one row per label, so the split stratifies by group alone, and a 10-row train part
        # apportions all of its rows to group 0: one of them is swapped for a group-1 row
        n = 100
        sensitive = np.zeros(n, dtype=np.int64)
        sensitive[[17, 60]] = 1
        labels = np.arange(n) % 2
        ds = LabeledDataset(np.arange(n, dtype=float)[:, None], sensitive, labels)
        for r in split(ds, SplitPlan(0.1, 3, seed=0)):
            assert r.stratified_by_sensitive_only
            assert r.train.n == 10 and 0 not in r.train.group_counts()
            assert r.train.group_counts()[1] == 1
            merged = np.sort(np.concatenate([r.train_indices, r.test_indices]))
            np.testing.assert_array_equal(merged, np.arange(n))

    def test_bad_plan_rejected(self):
        with pytest.raises(ConfigError):
            SplitPlan(1.5, 3, seed=0)
        with pytest.raises(ConfigError):
            SplitPlan(0.5, 0, seed=0)


@settings(max_examples=300, deadline=None)
@given(hst.lists(hst.integers(1, 50) | hst.integers(1, 10**9), min_size=1, max_size=6).filter(lambda c: sum(c) > 1),
       hst.data())
def test_apportion_takes_sum_to_total_and_fit_their_cells(cells, data):
    """Largest-remainder takes of any total below the row count fit their cells with nothing left over."""
    total = data.draw(hst.integers(1, sum(cells) - 1))
    takes = _apportion(cells, total)
    assert sum(takes) == total
    assert all(0 <= t <= c for t, c in zip(takes, cells))
