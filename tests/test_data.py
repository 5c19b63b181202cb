import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citetraj import synthgen
from citetraj.data import (
    Corpus,
    CountTrajectory,
    TimeGrid,
    cumulative,
    filter_by_total,
    log_matrix,
    parse_corpus,
    write_corpus,
)
from citetraj.errors import DataError


def make_corpus(rows, t=None):
    t = t or len(rows[0][1])
    items = tuple(CountTrajectory(i, tuple(c)) for i, c in rows)
    return Corpus(TimeGrid(t), items)


class TestParse:
    def test_csv_basic(self):
        corpus = parse_corpus(b"id,y1,y2,y3\np1,0,1,2", "csv")
        assert corpus.grid.n_years == 3
        assert len(corpus) == 1
        assert corpus.items[0] == CountTrajectory("p1", (0, 1, 2))

    def test_csv_inconsistent_row_length(self):
        with pytest.raises(DataError, match="line 3.*2 counts.*expected 3"):
            parse_corpus(b"id,y1,y2,y3\np1,0,1,2\np2,1,2", "csv")

    def test_csv_negative_count(self):
        with pytest.raises(DataError, match="line 2.*negative"):
            parse_corpus(b"id,y1,y2\np1,-1,2", "csv")

    def test_csv_non_integer(self):
        with pytest.raises(DataError, match="line 2.*not an integer"):
            parse_corpus(b"id,y1,y2\np1,a,2", "csv")

    def test_duplicate_id(self):
        with pytest.raises(DataError, match="duplicate ids"):
            parse_corpus(b"id,y1,y2\np1,0,1\np1,2,3", "csv")

    def test_bad_header(self):
        with pytest.raises(DataError, match="header"):
            parse_corpus(b"name,y1,y2\np1,0,1", "csv")

    def test_jsonl_basic(self):
        raw = b'{"id": "a", "counts": [1, 2, 3]}\n{"id": "b", "counts": [0, 0, 4]}\n'
        corpus = parse_corpus(raw, "jsonl")
        assert corpus.ids == ["a", "b"]
        assert corpus.items[1].counts == (0, 0, 4)

    def test_jsonl_bad_json_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_corpus(b'{"id": "a", "counts": [1,2]}\nnot json\n', "jsonl")

    def test_jsonl_raw_line_separators_inside_strings(self):
        # Hand-written JSONL may hold U+2028 and U+0085 raw inside a string;
        # only "\n" ends a record, and a CRLF line reads like an LF one.
        raw = '{"id": "a\u2028b", "counts": [1, 2]}\r\n{"id": "c\x85d", "counts": [3, 4]}\n'
        corpus = parse_corpus(raw.encode("utf-8"), "jsonl")
        assert corpus.ids == ["a\u2028b", "c\x85d"]
        assert corpus.items[1].counts == (3, 4)

    def test_jsonl_float_count_rejected(self):
        with pytest.raises(DataError, match="not an integer"):
            parse_corpus(b'{"id": "a", "counts": [1.5, 2]}', "jsonl")

    def test_not_utf8(self):
        with pytest.raises(DataError, match="UTF-8"):
            parse_corpus(b"id,y1,y2\n\xff\xfe,1,2", "csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_corpus(str(tmp_path / "nope.csv"), "csv")

    def test_synthetic_jsonl_roundtrip(self):
        corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(2000, seed=5))
        buf = io.StringIO()
        write_corpus(corpus, buf, "jsonl")
        back = parse_corpus(buf.getvalue().encode(), "jsonl")
        assert back.grid == corpus.grid
        assert back.items == corpus.items

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            # ids mix CSV delimiters, quotes, spaces and line breaks
            st.text(
                st.sampled_from(',"  \n\r\x85\u2028') | st.characters(
                    blacklist_categories=("Cc", "Cs", "Zl", "Zp")
                ),
                max_size=8,
            ),
            st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=3, max_size=3),
            min_size=1,
            max_size=6,
        )
    )
    @example({"a\rb": [1, 2, 3], "c\nd": [4, 5, 6], "\r\n": [0, 0, 0],
              "e\x85f\u2028": [7, 8, 9]})
    def test_roundtrip_property(self, rows):
        corpus = make_corpus(list(rows.items()))
        for fmt in ("csv", "jsonl"):
            buf = io.StringIO()
            write_corpus(corpus, buf, fmt)
            again = parse_corpus(buf.getvalue().encode(), fmt)
            assert again.items == corpus.items


class TestFilter:
    def test_threshold(self):
        corpus = make_corpus([("a", [5, 0]), ("b", [10, 20]), ("c", [50, 50])])
        result = filter_by_total(corpus, 30)
        assert result.corpus.ids == ["b", "c"]
        assert (result.kept, result.dropped) == (2, 1)

    def test_zero_is_identity(self):
        corpus = make_corpus([("a", [0, 0]), ("b", [1, 2])])
        assert filter_by_total(corpus, 0).corpus.items == corpus.items

    def test_sweep_nonincreasing(self):
        corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(200, seed=1))
        kept = []
        for threshold in (0, 10, 30):
            result = filter_by_total(corpus, threshold)
            # brute-force recount
            expected = sum(1 for it in corpus.items if sum(it.counts) >= threshold)
            assert result.kept == expected
            kept.append(result.kept)
        assert kept == sorted(kept, reverse=True)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=2),
            min_size=0,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=120),
    )
    def test_idempotent(self, rows, threshold):
        corpus = make_corpus([(f"i{k}", c) for k, c in enumerate(rows)], t=2)
        once = filter_by_total(corpus, threshold).corpus
        twice = filter_by_total(once, threshold).corpus
        assert once.items == twice.items


class TestTransforms:
    def test_cumulative_basic(self):
        assert cumulative(CountTrajectory("x", (0, 1, 2))).tolist() == [0, 1, 3]

    def test_cumulative_zero(self):
        assert cumulative(CountTrajectory("x", (0, 0, 0))).tolist() == [0, 0, 0]

    def test_cumulative_matches_fold(self):
        rng = np.random.default_rng(7)
        counts = tuple(int(c) for c in rng.integers(0, 40, size=30))
        acc, expected = 0, []
        for c in counts:
            acc += c
            expected.append(acc)
        assert cumulative(CountTrajectory("x", counts)).tolist() == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=30))
    def test_cumulative_monotone(self, counts):
        c = cumulative(CountTrajectory("x", tuple(counts)))
        assert (np.diff(c) >= 0).all()
        assert c[-1] == sum(counts)

    @staticmethod
    def log_row(counts):
        corpus = Corpus(TimeGrid(len(counts)), (CountTrajectory("x", tuple(counts)),))
        return log_matrix(corpus)[0]

    def test_log_zero(self):
        assert self.log_row((0, 0)).tolist() == [0.0, 0.0]

    def test_log_analytic(self):
        z = self.log_row((2, 2))
        assert z == pytest.approx([np.log(3.0)] * 2, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=2, max_size=30))
    def test_log_inverse_recovers_counts(self, counts):
        z = self.log_row(counts)
        back = np.rint(np.expm1(z)).astype(int)
        assert back.tolist() == counts


class TestInvariants:
    def test_grid_too_short(self):
        with pytest.raises(DataError, match="at least 2 years"):
            TimeGrid(1)

    def test_mismatched_length(self):
        with pytest.raises(DataError, match="counts"):
            Corpus(TimeGrid(3), (CountTrajectory("a", (1, 2)),))

    def test_negative_count_rejected(self):
        with pytest.raises(DataError, match="negative"):
            CountTrajectory("a", (1, -2))
