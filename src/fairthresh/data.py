r"""Dataset containers, CSV ingestion and seeded stratified splitting.

Every input CSV (datasets, calibration and prediction files, score files) is
parsed by one routine, ``Inputs.table``, which streams the file into the
parser and so holds its values only: UTF-8 with an optional byte-order mark,
a mandatory header row, ``,`` as separator and ``.`` as decimal separator, no
quoting in data rows, lines cut as ``str.splitlines`` cuts them (``\n``,
``\r\n`` or a lone ``\r``; the last line need not end).  Header names are
non-blank and distinct, each data row has one cell per header name and each
cell is a real number; the sensitive and label columns hold 0/1, score
columns lie in [0, 1] and every other cell is finite.  Any violation raises
a SchemaError subclass naming the file and the 0-based data row.  The label
column is never a feature, and missing values are rejected rather than
imputed.  A command reads all its input CSVs through one ``Inputs``: when
their regular files hold at least two parts of _PART_BYTES in all, their
bytes are cut into one byte range per usable CPU, each ending just after a
\n, so a range may span the tail of one file and the head of the next, and
forked workers parse them in one ``_parallel.map_ordered``.  Each file's
rows are joined in order and checked as one table at its loader's turn, so
the result and every error equal those of reading the files one by one, in
one part each.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import InitVar, dataclass

import numpy as np

from . import _parallel
from .errors import ConfigError, DataValueError, FairthreshError, GroupCoverageError, ParseError, SchemaError


def _as_binary(values: np.ndarray, what: str) -> np.ndarray:
    out = np.asarray(values)
    bad = ~((out == 0) | (out == 1))
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise DataValueError(f"{what} must be 0 or 1; row {row} holds {out[bad][0]!r}")
    return out.astype(np.int64)


def _feature_matrix(features) -> np.ndarray:
    """features as a float64 (n, d) matrix of finite values, n >= 1; a 1-D array is one column."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 1:
        raise SchemaError("dataset needs at least one row")
    if not np.isfinite(X).all():
        row = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        raise ParseError(f"non-finite feature value in row {row}")
    return X


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix with a binary sensitive attribute and binary labels."""

    features: np.ndarray  # (n, d) float64
    sensitive: np.ndarray  # (n,) values in {0, 1}
    labels: np.ndarray  # (n,) values in {0, 1}
    feature_names: tuple[str, ...] | None = None
    # draws from a sampler may legitimately miss a group at tiny n; fitting
    # functions still enforce coverage where they need it
    require_both_groups: InitVar[bool] = True

    def __post_init__(self, require_both_groups):
        X = _feature_matrix(self.features)
        s = _as_binary(self.sensitive, "sensitive")
        y = _as_binary(self.labels, "label")
        if X.shape[0] != s.shape[0] or X.shape[0] != y.shape[0]:
            raise SchemaError(
                f"row counts differ: features {X.shape[0]}, sensitive {s.shape[0]}, labels {y.shape[0]}"
            )
        if require_both_groups:
            for g in (0, 1):
                if not (s == g).any():
                    raise GroupCoverageError(f"sensitive group {g} has no rows")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "sensitive", s)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "LabeledDataset":
        """The rows at indices (either group may be absent); they are not validated again."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size < 1:
            raise SchemaError("dataset needs at least one row")
        sub = object.__new__(LabeledDataset)
        sub.__dict__.update(features=self.features[idx], sensitive=self.sensitive[idx], labels=self.labels[idx],
                            feature_names=self.feature_names)
        return sub

    def group_counts(self) -> tuple[int, int]:
        return int((self.sensitive == 0).sum()), int((self.sensitive == 1).sum())


@dataclass(frozen=True, eq=False)
class UnlabeledDataset:
    """Feature matrix for calibration; sensitive column optional (blind mode)."""

    features: np.ndarray
    sensitive: np.ndarray | None = None

    def __post_init__(self):
        X = _feature_matrix(self.features)
        object.__setattr__(self, "features", X)
        if self.sensitive is not None:
            s = _as_binary(self.sensitive, "sensitive")
            if s.shape[0] != X.shape[0]:
                raise SchemaError(f"row counts differ: features {X.shape[0]}, sensitive {s.shape[0]}")
            # mirrors the two-per-group minimum the estimators rely on
            for g in (0, 1):
                if int((s == g).sum()) < 2:
                    raise GroupCoverageError(f"unlabeled sample needs at least 2 rows in sensitive group {g}")
            object.__setattr__(self, "sensitive", s)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


SCORE_COLUMNS = ("score_s0", "score_s1", "score_marginal")
_READ_CHARS = 1 << 16  # bytes of an input CSV read, and so at most characters decoded, at a time
# least bytes per byte range of a command's input CSVs parsed in forked workers, so inputs of 1 MiB in all are
# split: a fork, the return of a range's rows and two parses at once cost 4-8 ms, and on 2 CPUs two parts of
# one score file lost to one part at 512 KiB and won from 1 MiB (BENCH_parallel_ingest.json); the ranges are
# cut across the files, so the threshold applies to their total (BENCH_joint_read.json)
_PART_BYTES = 1 << 19


@contextmanager
def _input_file(path):
    """An input file (CSV or JSON) opened for reading bytes; the one place input files are opened.

    A file that cannot be opened or read raises SchemaError, one that is not
    UTF-8 raises ParseError.
    """
    try:
        with open(path, "rb") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read the file: {exc.strerror or exc}") from None


def read_text(path) -> str:
    """Whole text of an input file, a leading byte-order mark skipped; _input_file names its errors."""
    with _input_file(path) as fh:
        return fh.read().decode("utf-8-sig")


def _decoded_blocks(fh, start: int, stop):
    """The text of bytes [start, stop) of fh (to its end when stop is None), decoded a block at a time.

    start must fall on a character boundary; a byte-order mark at byte 0 is skipped.
    """
    decode = codecs.getincrementaldecoder("utf-8" if start else "utf-8-sig")().decode
    if start:  # byte 0 needs no seek, which a pipe would refuse
        fh.seek(start)
    left = math.inf if stop is None else stop - start
    while left > 0 and (block := fh.read(min(_READ_CHARS, left))):
        left -= len(block)
        yield decode(block)
    yield decode(b"", True)


def _line_blocks(blocks, sizes: list):
    r"""The lines of the text in blocks as str.splitlines() cuts their whole text, one list per block.

    One list per block, chained into the parser, costs less than a generator
    step per line.  The length of each list is appended to sizes.
    """
    carry = ""
    for block in blocks:
        text = carry + block
        # cut after the last \n, or the last \r unless it ends the block and may open a \r\n
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        carry, lines = text[cut:], text[:cut].splitlines()
        sizes.append(len(lines))
        yield lines
    sizes.append(len(lines := carry.splitlines()))
    yield lines


def _line_start(fh, pos: int):
    r"""The offset just after the first \n at or after pos in fh, or None when none follows."""
    fh.seek(pos)
    while block := fh.read(_READ_CHARS):
        if (at := block.find(b"\n")) >= 0:
            return pos + at + 1
        pos += len(block)
    return None


def _plan(paths) -> list:
    r"""Byte ranges of the regular files among paths, one per worker, each a list of (path, start, stop) pieces.

    The files' bytes, taken in the order of paths, are cut into equal shares,
    each ending just after a \n (_line_start) or at a file's end, so one range
    may hold the tail of one file and the head of the next.  A \n cut is on a
    line end of str.splitlines, never inside a UTF-8 sequence or a \r\n; one
    that would leave a file's first piece its header line alone moves to the
    file's start.  A piece that runs to its file's end has stop None.  The plan
    is empty unless the files hold at least two parts of _PART_BYTES in all,
    _parallel would fork and a cut is found; files that are not regular, or
    are empty, are left out and not opened.
    """
    files = []  # (path, size) of the regular files, in order
    for path in dict.fromkeys(paths):
        try:
            info = os.stat(path)
        except OSError:  # the read at its loader's turn reports it
            continue
        if stat.S_ISREG(info.st_mode) and info.st_size:
            files.append((path, info.st_size))
    total = sum(size for _, size in files)
    if (workers := _parallel.worker_count(total // _PART_BYTES)) < 2:
        return []
    targets, cuts, base = [total * i // workers for i in range(1, workers)], {0, total}, 0
    try:
        for path, size in files:
            if mine := [t - base for t in targets if base <= t < base + size]:
                with open(path, "rb") as fh:
                    header_end = _line_start(fh, 0)
                    for t in mine:
                        cut = _line_start(fh, t)
                        cuts.add(base + (size if cut is None else 0 if cut == header_end else min(cut, size)))
            base += size
    except OSError:  # the reads at their loaders' turns report it
        return []
    bounds, ranges = sorted(cuts), []
    for lo, hi in zip(bounds, bounds[1:]):
        pieces, base = [], 0
        for path, size in files:
            if lo < base + size and base < hi:
                pieces.append((path, max(lo - base, 0), hi - base if hi < base + size else None))
            base += size
        ranges.append(pieces)
    return ranges if len(ranges) > 1 else []


def _parts(path) -> list:
    """Byte ranges (start, stop) of path read alone, the last to its end (stop None): _plan's one-file case."""
    return [(start, stop) for ((_, start, stop),) in _plan([path])] or [(0, None)]


def _first_bad_cell(path, header, body, binary) -> None:
    """Raise for the first row of body that is ragged or holds an unparseable cell."""
    for r, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(header):
            raise SchemaError(f"{path}: row {r} has {len(cells)} cells, header has {len(header)}")
        for name, cell in zip(header, cells):
            try:
                float(cell)
            except ValueError:
                error = DataValueError if name in binary else ParseError
                raise error(f"{path}: row {r}, column {name!r}: cannot parse {cell!r}") from None


def _read_part(path, part):
    """Header, float64 rows, line count and loadtxt's complaint of one byte range of path.

    The header is parsed, and checked, in the part at byte 0 alone; the
    others return None for it.  The rows are None when the first line is
    blank or loadtxt fails, which then names the reason.
    """
    start, stop = part
    header, values, reason, sizes = None, None, "row count or width differs from the header", []
    with _input_file(path) as fh:
        lines = itertools.chain.from_iterable(_line_blocks(_decoded_blocks(fh, start, stop), sizes))
        if not start:
            try:
                header = [h.strip() for h in next(csv.reader([next(lines, "")]), [])]
            except csv.Error as exc:
                raise SchemaError(f"{path}: unreadable header row: {exc}") from None
            if not header:
                raise SchemaError(f"{path}: empty file, header row required")
            if "" in header or len(set(header)) < len(header):
                raise SchemaError(f"{path}: header names must be non-blank and distinct, got {header}")
        first = next(lines, None)
        if first is None:
            raise SchemaError(f"{path}: no data rows")
        # a blank row is reported by the caller; loadtxt would skip it, and warn if no row followed
        if first.strip():
            try:
                values = np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:  # also text that is not UTF-8, which read_text reports
                reason = str(exc)
    return header, values, sum(sizes) - (not start), reason


def _read_pieces(pieces) -> list:
    """_read_part of each (path, start, stop) piece of one worker's byte range."""
    return [_read_part(path, (start, stop)) for path, start, stop in pieces]


def _whole(read) -> bool:
    """Whether every part read parsed to one row per line and one column per header name."""
    # loadtxt skips blank lines and takes the width from the rows, so check both
    return all(v is not None and v.shape == (n, len(read[0][0])) for _, v, n, _ in read)


def _column_index(path, header, name, what) -> int:
    if name not in header:
        raise SchemaError(f"{path}: missing {what} column {name!r}")
    return header.index(name)


class Inputs:
    """The input CSVs of one command, parsed in one forked map and checked at their loaders' turns.

    Inputs(*paths) takes every file the command may read, in the order it
    reads them (None is skipped), and parses the byte ranges of their regular
    files (_plan) in one _parallel.map_ordered.  Each loader then takes its
    file's parts, joins their rows in order and checks them as one table, so
    values and errors, and which of several bad files is reported, are those
    of reading the files one by one.  A file the plan leaves out (too little
    to split, not regular), or any file when the map fails (a piece's header
    error, a dead child), is read in one part at its turn, as is a file read a
    second time.  The module's load_csv, load_features and load_scores are
    the one-file case.
    """

    def __init__(self, *paths):
        ranges = _plan([p for p in paths if p is not None])
        self._reads = {}  # path -> its part reads, in file order
        try:
            reads = _parallel.map_ordered(_read_pieces, ranges)
        except (FairthreshError, ChildProcessError):
            return
        for pieces, parts in zip(ranges, reads):
            for (path, _, _), part in zip(pieces, parts):
                self._reads.setdefault(path, []).append(part)

    def table(self, path, binary=(), unit=()):
        """Header and float64 body of a numeric CSV file: the one parse routine for all inputs.

        Every data row must have one cell per header name and every cell must
        parse as a real.  Columns named in binary (distinct, else ConfigError)
        must hold 0/1, columns named in unit must lie in [0, 1], all others
        must be finite.  Errors name the file and the 0-based data row.  If any
        part of the file failed, it is read again in one part, which raises
        what it raises.
        """
        if len(set(binary)) < len(binary):
            raise ConfigError(f"sensitive column {binary[0]!r} and label column {binary[1]!r} must differ")
        read = self._reads.pop(path, None)
        if read is None or not _whole(read):  # read again in one part, which raises what it raises
            read = [_read_part(path, (0, None))]
            if not _whole(read):
                _first_bad_cell(path, read[0][0], read_text(path).splitlines()[1:], binary)
                raise ParseError(f"{path}: cannot parse the data rows: {read[0][3]}")
        header = read[0][0]
        values = read[0][1] if len(read) == 1 else np.concatenate([v for _, v, _, _ in read])

        bad = ~np.isfinite(values)
        for i, name in enumerate(header):
            if name in binary:
                bad[:, i] = (values[:, i] != 0.0) & (values[:, i] != 1.0)
            elif name in unit:
                bad[:, i] |= (values[:, i] < 0.0) | (values[:, i] > 1.0)
        if bad.any():
            r, i = np.argwhere(bad)[0]
            where, v = f"{path}: row {r}, column {header[i]!r}", float(values[r, i])
            if header[i] in binary:
                raise DataValueError(f"{where}: value {v:g} is not 0 or 1")
            if not np.isfinite(v):
                raise ParseError(f"{where}: non-finite value {v!r}")
            raise DataValueError(f"{where}: score {v:g} outside [0, 1]")
        return header, values

    def load_csv(self, path, sensitive_col: str, label_col: str) -> "LabeledDataset":
        """data.load_csv of path, from this command's read."""
        header, values = self.table(path, binary=(sensitive_col, label_col))
        s = values[:, _column_index(path, header, sensitive_col, "sensitive")]
        y = values[:, _column_index(path, header, label_col, "label")]
        feat_idx = [i for i, h in enumerate(header) if h not in (sensitive_col, label_col)]
        return LabeledDataset(values[:, feat_idx], s, y, tuple(header[i] for i in feat_idx))

    def load_features(self, path, sensitive_col: str, label_col: str):
        """data.load_features of path, from this command's read."""
        header, values = self.table(path, binary=(sensitive_col, label_col))
        S = values[:, header.index(sensitive_col)].astype(np.int64) if sensitive_col in header else None
        return values[:, [i for i, h in enumerate(header) if h not in (sensitive_col, label_col)]], S

    def load_scores(self, path, need_marginal: bool = False):
        """data.load_scores of path, from this command's read."""
        header, values = self.table(path, unit=SCORE_COLUMNS)
        for name in SCORE_COLUMNS[: 3 if need_marginal else 2]:
            _column_index(path, header, name, "score")
        s0, s1 = (values[:, header.index(c)] for c in SCORE_COLUMNS[:2])
        marginal = values[:, header.index("score_marginal")] if "score_marginal" in header else None
        return s0, s1, marginal


def _read_table(path, binary=(), unit=()):
    """Inputs.table of path read alone."""
    return Inputs(path).table(path, binary, unit)


def load_csv(path, sensitive_col: str, label_col: str) -> LabeledDataset:
    """Read a labeled CSV file into a LabeledDataset; load_features reads files without labels.

    Raises SchemaError when a named column is missing or a row is ragged,
    DataValueError when a sensitive/label cell is not 0/1, and ParseError
    (with the offending row index) when a feature cell is not a finite real.
    """
    return Inputs(path).load_csv(path, sensitive_col, label_col)


def load_features(path, sensitive_col: str, label_col: str):
    """Feature matrix and sensitive column (None when absent) of a calibration or prediction file.

    The label column is not a feature and is dropped whenever present; the
    rules of load_csv apply to every cell.
    """
    return Inputs(path).load_features(path, sensitive_col, label_col)


def load_scores(path, need_marginal: bool = False):
    """Score columns (score_s0, score_s1, score_marginal or None) of a score file.

    Scores must be finite and lie in [0, 1]; score_marginal is required when
    need_marginal is set (blind mode).
    """
    return Inputs(path).load_scores(path, need_marginal)


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic repeated train/test split specification."""

    train_fraction: float
    n_repeats: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.n_repeats < 1:
            raise ConfigError(f"n_repeats must be positive, got {self.n_repeats}")


@dataclass(frozen=True, eq=False)
class SplitResult:
    train: LabeledDataset
    test: LabeledDataset
    train_indices: np.ndarray
    test_indices: np.ndarray
    stratified_by_sensitive_only: bool = False


def _apportion(cell_sizes: list[int], total_take: int) -> list[int]:
    # largest-remainder rounding so the takes sum exactly to total_take; with
    # total_take < n each quota is below its cell size, so a take of floor + 1 fits
    n = sum(cell_sizes)
    quotas = [total_take * c / n for c in cell_sizes]
    takes = [int(math.floor(q)) for q in quotas]
    rem = total_take - sum(takes)
    order = sorted(range(len(cell_sizes)), key=lambda i: (takes[i] - quotas[i], i))
    for i in order[:rem]:
        takes[i] += 1
    return takes


def split(ds: LabeledDataset, plan: SplitPlan) -> list[SplitResult]:
    """Repeated stratified train/test splits, reproducible from the plan seed.

    Rows are stratified by (sensitive, label) cell; when any cell of a present
    group has fewer than two rows the repeat falls back to stratifying by the
    sensitive attribute alone and flags the result.  |train| is always
    round(train_fraction * n) and every train part keeps both groups.
    """
    s, y = ds.sensitive, ds.labels
    cells_sy = [np.flatnonzero((s == g) & (y == v)) for g in (0, 1) for v in (0, 1)]
    degenerate = any(
        0 < (s == g).sum() and len(cells_sy[2 * g + v]) < 2 for g in (0, 1) for v in (0, 1)
    )
    cells = (
        [np.flatnonzero(s == g) for g in (0, 1)]
        if degenerate
        else [c for c in cells_sy if len(c)]
    )
    target = int(round(plan.train_fraction * ds.n))
    if target < 1 or target >= ds.n:
        raise ConfigError(
            f"train_fraction {plan.train_fraction} leaves train or test empty for n={ds.n}"
        )

    results = []
    for rep in range(plan.n_repeats):
        rng = np.random.default_rng([plan.seed, rep])
        shuffled = [c[rng.permutation(len(c))] for c in cells]
        takes = _apportion([len(c) for c in shuffled], target)
        train_idx = np.concatenate([c[:t] for c, t in zip(shuffled, takes)])
        test_idx = np.concatenate([c[t:] for c, t in zip(shuffled, takes)])
        # guarantee each group appears in the train part
        for g in (0, 1):
            if not (s[train_idx] == g).any():
                move = test_idx[np.flatnonzero(s[test_idx] == g)[0]]
                donor_group = 1 - g
                donor_pos = np.flatnonzero(s[train_idx] == donor_group)
                # keep |train| fixed: swap one row of the other group out
                out = train_idx[donor_pos[-1]]
                train_idx = np.append(np.delete(train_idx, donor_pos[-1]), move)
                test_idx = np.append(test_idx[test_idx != move], out)
        train_idx = np.sort(train_idx)
        test_idx = np.sort(test_idx)
        results.append(
            SplitResult(
                train=ds.take(train_idx),
                test=ds.take(test_idx),
                train_indices=train_idx,
                test_indices=test_idx,
                stratified_by_sensitive_only=degenerate,
            )
        )
    return results
