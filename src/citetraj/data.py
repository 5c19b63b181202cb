"""Corpora of annual count trajectories on a shared yearly grid.

A trajectory is one item's annual nonnegative event counts (prototypically
the yearly citations of a paper) observed at years 1..T after its origin.
This module alone builds a corpus's read-only (n, T) int64 count matrix: it
parses (CSV / JSONL), validates, filters and transforms it.  Counts are at
most 2**53, the largest integer float64 holds exactly; later stages are float64.
A grid has at most 1023 years, so a row total, below 1023 * 2**53 < 2**63,
stays exact in int64.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "MAX_COUNT",
    "TimeGrid",
    "CountTrajectory",
    "Corpus",
    "FilterResult",
    "parse_corpus",
    "write_corpus",
    "filter_by_total",
    "counts_matrix",
    "log_matrix",
]

MAX_COUNT = 2**53
_MAX_YEARS = 1023


@dataclass(frozen=True)
class TimeGrid:
    """Yearly observation grid: years 1..n_years with unit spacing, 2 to 1023."""

    n_years: int

    def __post_init__(self):
        if self.n_years < 2:
            raise DataError(f"grid needs at least 2 years, got {self.n_years}")
        if self.n_years > _MAX_YEARS:
            raise DataError(f"grid holds at most {_MAX_YEARS} years, got {self.n_years}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(1, self.n_years + 1, dtype=float)


@dataclass(frozen=True)
class CountTrajectory:
    """One item's id and annual counts, as ``fit_items``/``fit_wsb`` take it."""

    id: str
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise DataError(f"item {self.id!r} has a negative count")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True, eq=False)
class Corpus:
    """Items sharing one grid: ``ids`` (a tuple of str) and ``counts``, a
    read-only (n, T) int64 matrix whose row i holds the counts of item
    ``ids[i]``, each in [0, 2**53].  Ids are unique; row order is corpus
    order.  ``counts`` is a private copy of what the caller passed."""

    grid: TimeGrid
    ids: tuple[str, ...]
    counts: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        t, ids = self.grid.n_years, tuple(self.ids)
        counts = np.asarray(self.counts)
        if counts.shape != (len(ids), t) or counts.dtype.kind not in "iu":
            raise DataError(
                f"counts must be a ({len(ids)}, {t}) integer matrix for {len(ids)} ids "
                f"on a {t}-year grid, got {counts.dtype} of shape {counts.shape}"
            )
        bad = np.flatnonzero(((counts < 0) | (counts > MAX_COUNT)).any(axis=1))
        if bad.size:
            what = "a negative count" if counts[bad[0]].min() < 0 else "a count above 2**53"
            raise DataError(f"item {ids[bad[0]]!r} has {what}")
        if len(set(ids)) != len(ids):
            dups = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise DataError(f"duplicate ids: {dups}")
        # A copy unless asarray made one already, so no caller holds a writable view.
        counts = counts.astype(np.int64, copy=counts is self.counts)
        counts.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class FilterResult:
    corpus: Corpus
    kept: int
    dropped: int


def _check_count(value, line_no: int, item_id: str) -> None:
    if type(value) is not int:  # not isinstance: a JSON true is a bool, an int subclass
        raise DataError(f"line {line_no}: item {item_id!r}: count {value!r} is not an integer")
    if value < 0:
        raise DataError(f"line {line_no}: item {item_id!r}: negative count {value}")
    if value > MAX_COUNT:
        raise DataError(f"line {line_no}: item {item_id!r}: count {value} exceeds 2**53")


def _check_token(token: str, line_no: int, item_id: str) -> None:
    try:
        value = int(token)
    except ValueError:
        value = token.strip()  # reported as not an integer
    _check_count(value, line_no, item_id)


def _corpus_of_records(t: int, records, to_row, check) -> Corpus:
    """Corpus of ``(line_no, item_id, raw counts)`` records, checked in line
    order as they are read, so the first fault by line is the one reported.
    ``to_row`` maps raw counts to a list of ints, or to None or a ValueError
    if one is malformed; ``check`` raises on the first bad count of a faulty
    row."""
    grid = TimeGrid(t)
    ids, rows = [], []
    for line_no, item_id, raw in records:
        if len(raw) != t:
            raise DataError(
                f"line {line_no}: item {item_id!r} has {len(raw)} counts, expected {t}"
            )
        try:
            row = to_row(raw)
        except ValueError:
            row = None
        if row is None or min(row) < 0 or max(row) > MAX_COUNT:
            for value in raw:
                check(value, line_no, item_id)
        ids.append(item_id)
        rows.append(row)
    return Corpus(grid, ids, np.asarray(rows, np.int64).reshape(len(rows), t))


def _as_text(source) -> str:
    """Accept a path, raw bytes, or a binary/text stream; return decoded text."""
    if isinstance(source, bytes):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            data = data.encode("utf-8")
    elif isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read corpus {source}: {exc}") from exc
    else:
        raise DataError(f"unsupported corpus source: {type(source).__name__}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"corpus is not valid UTF-8: {exc}") from exc


def parse_corpus(source, format: str = "csv") -> Corpus:
    """Parse a corpus from CSV (header ``id,y1,...,yT``) or JSONL.

    JSONL carries one ``{"id": str, "counts": [int, ...]}`` object per line.
    The first record fixes the grid length T; every later row must match it.
    Counts must be integers in [0, 2**53].  Row order is preserved.  Errors
    report the offending line number.
    """
    text = _as_text(source)
    if format == "csv":
        return _parse_csv(text)
    if format == "jsonl":
        # Records end at "\n" only: JSON strings may hold U+2028 or U+0085
        # raw, and a trailing "\r" is JSON whitespace.
        return _parse_jsonl(text.split("\n"))
    raise DataError(f"unknown corpus format {format!r} (expected 'csv' or 'jsonl')")


def _csv_records(text: str):
    """Nonblank CSV records as ``(line_no, fields)``, read lazily."""
    # One reader over the whole text, so quoted fields may hold line breaks;
    # a record's line number is the line it ends on.
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for fields in reader:
            if len(fields) > 1 or (fields and fields[0].strip()):
                yield reader.line_num, fields
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: malformed CSV: {exc}") from exc


def _parse_csv(text: str) -> Corpus:
    rows = _csv_records(text)
    first = next(rows, None)
    if first is None:
        raise DataError("empty CSV corpus")
    header_no, header = first
    cols = [c.strip() for c in header]
    if len(cols) < 3 or cols[0] != "id":
        raise DataError(
            f"line {header_no}: expected header 'id,y1,...,yT', got {','.join(header)!r}"
        )
    records = ((line_no, fields[0], fields[1:]) for line_no, fields in rows)
    return _corpus_of_records(
        len(cols) - 1, records, lambda raw: list(map(int, raw)), _check_token
    )


def _jsonl_records(lines: list[str]):
    """``(line_no, item_id, raw counts)`` of the nonblank JSONL lines, read lazily."""
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {i}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj or type(obj.get("counts")) is not list:
            raise DataError(f"line {i}: expected object with 'id' and a 'counts' list")
        yield i, str(obj["id"]), obj["counts"]


def _parse_jsonl(lines: list[str]) -> Corpus:
    records = _jsonl_records(lines)
    first = next(records, None)
    if first is None:
        raise DataError("empty JSONL corpus")
    t = len(first[2])
    if t < 2:
        raise DataError(f"line {first[0]}: grid needs at least 2 years, got {t}")
    return _corpus_of_records(
        t, itertools.chain([first], records),
        lambda raw: raw if set(map(type, raw)) == {int} else None, _check_count,
    )


def write_corpus(corpus: Corpus, target, format: str = "csv") -> None:
    """Serialize a corpus; inverse of :func:`parse_corpus` for both formats."""
    t = corpus.grid.n_years
    rows = zip(corpus.ids, corpus.counts.tolist())
    buf = io.StringIO()
    if format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        # The writer quotes only the line breaks of its own terminator, but
        # the reader also ends a record on a lone carriage return.
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(["id"] + [f"y{j}" for j in range(1, t + 1)])
        for item_id, counts in rows:
            (quoted if "\r" in item_id else writer).writerow([item_id, *counts])
    elif format == "jsonl":
        for item_id, counts in rows:
            buf.write(json.dumps({"id": item_id, "counts": counts}) + "\n")
    else:
        raise DataError(f"unknown corpus format {format!r}")
    payload = buf.getvalue()
    if hasattr(target, "write"):
        out: IO = target
        try:
            out.write(payload)
        except TypeError:
            out.write(payload.encode("utf-8"))
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(payload)


def filter_by_total(corpus: Corpus, min_total: int) -> FilterResult:
    """Keep items whose summed counts reach ``min_total``; order preserved."""
    if min_total < 0:
        raise DataError(f"min_total must be nonnegative, got {min_total}")
    keep = corpus.counts.sum(axis=1) >= min_total
    ids = [i for i, k in zip(corpus.ids, keep) if k]
    subset = Corpus(corpus.grid, ids, corpus.counts[keep], corpus.provenance)
    return FilterResult(corpus=subset, kept=len(subset), dropped=len(corpus) - len(subset))


def counts_matrix(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Count rows as a model file stores them, as an (n, T) int64 matrix, so
    a reader of a stored model need not rebuild and validate the corpus."""
    return np.asarray(rows, dtype=np.int64)


def log_matrix(corpus: Corpus) -> np.ndarray:
    """(n, T) matrix of ln(count + 1) values in corpus order; zero counts
    map to exactly 0."""
    return np.log1p(corpus.counts)
