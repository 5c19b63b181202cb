"""Corpora of annual count trajectories on a shared yearly grid.

A trajectory is one item's annual nonnegative event counts (prototypically
the yearly citations of a paper) observed at years 1..T after its origin.
This module handles ingestion (CSV / JSONL), validation, filtering, and the
elementary transforms the model pipeline builds on.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "TimeGrid",
    "CountTrajectory",
    "Corpus",
    "FilterResult",
    "parse_corpus",
    "write_corpus",
    "filter_by_total",
    "cumulative",
    "counts_matrix",
    "log_matrix",
]


@dataclass(frozen=True)
class TimeGrid:
    """Yearly observation grid: years 1..n_years with unit spacing."""

    n_years: int

    def __post_init__(self):
        if self.n_years < 2:
            raise DataError(f"grid needs at least 2 years, got {self.n_years}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(1, self.n_years + 1, dtype=float)

    @property
    def delta(self) -> float:
        return 1.0


@dataclass(frozen=True)
class CountTrajectory:
    """One item: opaque id plus annual counts on the corpus grid."""

    id: str
    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise DataError(f"item {self.id!r} has a negative count")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class Corpus:
    """Immutable collection of trajectories sharing one grid."""

    grid: TimeGrid
    items: tuple[CountTrajectory, ...]
    provenance: str = ""

    def __post_init__(self):
        t = self.grid.n_years
        for item in self.items:
            if len(item.counts) != t:
                raise DataError(
                    f"item {item.id!r} has {len(item.counts)} counts, grid has {t}"
                )
        ids = [item.id for item in self.items]
        if len(set(ids)) != len(ids):
            seen, dups = set(), []
            for i in ids:
                if i in seen:
                    dups.append(i)
                seen.add(i)
            raise DataError(f"duplicate ids: {sorted(set(dups))}")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ids(self) -> list[str]:
        return [item.id for item in self.items]


@dataclass(frozen=True)
class FilterResult:
    corpus: Corpus
    kept: int
    dropped: int


def _parse_count(token: str, line_no: int, item_id: str) -> int:
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise DataError(
            f"line {line_no}: item {item_id!r}: count {token!r} is not an integer"
        ) from None
    if value < 0:
        raise DataError(f"line {line_no}: item {item_id!r}: negative count {value}")
    return value


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


def parse_corpus(source, format: str = "csv", provenance: str = "") -> Corpus:
    """Parse a corpus from CSV (header ``id,y1,...,yT``) or JSONL.

    JSONL carries one ``{"id": str, "counts": [int, ...]}`` object per line.
    The first record fixes the grid length T; every later row must match it.
    Row order is preserved. Errors report the offending line number.
    """
    text = _as_text(source)
    if format == "csv":
        return _parse_csv(text, provenance)
    if format == "jsonl":
        # Records end at "\n" only: JSON strings may hold U+2028 or U+0085
        # raw, and a trailing "\r" is JSON whitespace.
        return _parse_jsonl(text.split("\n"), provenance)
    raise DataError(f"unknown corpus format {format!r} (expected 'csv' or 'jsonl')")


def _parse_csv(text: str, provenance: str) -> Corpus:
    # One reader over the whole text, so quoted fields may hold line breaks;
    # a record's line number is the line it ends on.
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        for fields in reader:
            if len(fields) > 1 or (fields and fields[0].strip()):
                rows.append((reader.line_num, fields))
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: malformed CSV: {exc}") from exc
    if not rows:
        raise DataError("empty CSV corpus")
    header_no, header = rows[0]
    cols = [c.strip() for c in header]
    if len(cols) < 3 or cols[0] != "id":
        raise DataError(
            f"line {header_no}: expected header 'id,y1,...,yT', got {','.join(header)!r}"
        )
    t = len(cols) - 1
    items = []
    for line_no, fields in rows[1:]:
        item_id = fields[0]
        if len(fields) != t + 1:
            raise DataError(
                f"line {line_no}: item {item_id!r} has {len(fields) - 1} counts, "
                f"expected {t}"
            )
        counts = tuple(_parse_count(tok, line_no, item_id) for tok in fields[1:])
        items.append(CountTrajectory(item_id, counts))
    return Corpus(TimeGrid(t), tuple(items), provenance)


def _parse_jsonl(lines: list[str], provenance: str) -> Corpus:
    records = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {i}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "id" not in obj or "counts" not in obj:
            raise DataError(f"line {i}: expected object with 'id' and 'counts'")
        records.append((i, str(obj["id"]), obj["counts"]))
    if not records:
        raise DataError("empty JSONL corpus")
    t = len(records[0][2])
    if t < 2:
        raise DataError(f"line {records[0][0]}: grid needs at least 2 years, got {t}")
    items = []
    for line_no, item_id, raw in records:
        if len(raw) != t:
            raise DataError(
                f"line {line_no}: item {item_id!r} has {len(raw)} counts, expected {t}"
            )
        counts = []
        for c in raw:
            if isinstance(c, bool) or not isinstance(c, int):
                raise DataError(
                    f"line {line_no}: item {item_id!r}: count {c!r} is not an integer"
                )
            if c < 0:
                raise DataError(f"line {line_no}: item {item_id!r}: negative count {c}")
            counts.append(c)
        items.append(CountTrajectory(item_id, tuple(counts)))
    return Corpus(TimeGrid(t), tuple(items), provenance)


def write_corpus(corpus: Corpus, target, format: str = "csv") -> None:
    """Serialize a corpus; inverse of :func:`parse_corpus` for both formats."""
    t = corpus.grid.n_years
    buf = io.StringIO()
    if format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        # The writer quotes only the line breaks of its own terminator, but
        # the reader also ends a record on a lone carriage return.
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(["id"] + [f"y{j}" for j in range(1, t + 1)])
        for item in corpus.items:
            (quoted if "\r" in item.id else writer).writerow([item.id, *item.counts])
    elif format == "jsonl":
        for item in corpus.items:
            buf.write(json.dumps({"id": item.id, "counts": list(item.counts)}) + "\n")
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
    kept = tuple(item for item in corpus.items if item.total >= min_total)
    return FilterResult(
        corpus=Corpus(corpus.grid, kept, corpus.provenance),
        kept=len(kept),
        dropped=len(corpus.items) - len(kept),
    )


def cumulative(traj: CountTrajectory) -> np.ndarray:
    """Prefix sums of the annual counts; last entry equals the total."""
    return np.cumsum(np.asarray(traj.counts, dtype=np.int64))


def counts_matrix(corpus: Corpus | Sequence[Sequence[int]]) -> np.ndarray:
    """Stack all items into an (n, T) integer matrix in corpus order.

    Also takes count rows as a model file stores them, so a reader of a
    stored model need not rebuild and validate the whole corpus.
    """
    rows = [item.counts for item in corpus.items] if isinstance(corpus, Corpus) else corpus
    return np.asarray(rows, dtype=np.int64)


def log_matrix(corpus: Corpus) -> np.ndarray:
    """(n, T) matrix of ln(count + 1) values in corpus order; zero counts
    map to exactly 0."""
    return np.log1p(counts_matrix(corpus).astype(float))
