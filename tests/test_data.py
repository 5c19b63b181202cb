import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citetraj import synthgen
from citetraj.data import (
    MAX_COUNT,
    Corpus,
    CountTrajectory,
    TimeGrid,
    filter_by_total,
    log_matrix,
    parse_corpus,
    write_corpus,
)
from citetraj.errors import DataError


def make_corpus(rows, t=None):
    t = t or len(rows[0][1])
    counts = np.array([c for _, c in rows], dtype=np.int64).reshape(len(rows), t)
    return Corpus(TimeGrid(t), [i for i, _ in rows], counts)


def same(a, b):
    return a.grid == b.grid and a.ids == b.ids and np.array_equal(a.counts, b.counts)


class TestParse:
    def test_csv_basic(self):
        corpus = parse_corpus(b"id,y1,y2,y3\np1,0,1,2", "csv")
        assert corpus.grid.n_years == 3
        assert len(corpus) == 1
        assert corpus.ids == ("p1",)
        assert corpus.counts.tolist() == [[0, 1, 2]]
        assert corpus.counts.dtype == np.int64

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
        assert corpus.ids == ("a", "b")
        assert corpus.counts[1].tolist() == [0, 0, 4]

    def test_jsonl_bad_json_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_corpus(b'{"id": "a", "counts": [1,2]}\nnot json\n', "jsonl")

    def test_jsonl_raw_line_separators_inside_strings(self):
        # Hand-written JSONL may hold U+2028 and U+0085 raw inside a string;
        # only "\n" ends a record, and a CRLF line reads like an LF one.
        raw = '{"id": "a\u2028b", "counts": [1, 2]}\r\n{"id": "c\x85d", "counts": [3, 4]}\n'
        corpus = parse_corpus(raw.encode("utf-8"), "jsonl")
        assert corpus.ids == ("a\u2028b", "c\x85d")
        assert corpus.counts[1].tolist() == [3, 4]

    def test_jsonl_float_count_rejected(self):
        with pytest.raises(DataError, match="not an integer"):
            parse_corpus(b'{"id": "a", "counts": [1.5, 2]}', "jsonl")

    @pytest.mark.parametrize("counts", ["5", '"12"', "null", '{"y1": 1}'])
    def test_jsonl_counts_not_a_list(self, counts):
        raw = '{"id": "a", "counts": [1, 2]}\n{"id": "b", "counts": %s}\n' % counts
        with pytest.raises(DataError, match="line 2: expected object .* a 'counts' list"):
            parse_corpus(raw.encode(), "jsonl")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("value", [2**53 + 1, 2**63, 10**20])
    def test_count_above_2_53_rejected(self, fmt, value):
        rows = [("a", [1, 2]), ("b", [3, value]), ("c", [-1, "x"])]
        with pytest.raises(DataError, match=r"line 3: item 'b': count \d+ exceeds 2\*\*53"):
            parse_corpus(self.text(rows, fmt).encode(), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_largest_count_reads_back_exactly(self, fmt):
        corpus = parse_corpus(self.text([("a", [MAX_COUNT, 0])], fmt).encode(), fmt)
        assert corpus.counts.tolist() == [[MAX_COUNT, 0]]
        assert float(corpus.counts[0, 0]) == MAX_COUNT

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_first_fault_by_line_is_reported(self, fmt):
        # Of a negative count (b), a non-integer before a negative count (c)
        # and a short row (d), the first by line is reported; within a row,
        # the first bad count.
        rows = [("a", [1, 2, 3]), ("b", [0, -4, 5]), ("c", [1, "x", -1]), ("d", [1])]
        with pytest.raises(DataError, match="line 3: item 'b': negative count -4"):
            parse_corpus(self.text(rows, fmt).encode(), fmt)
        without_b = rows[:1] + rows[2:]
        with pytest.raises(DataError, match="line 3: item 'c': count 'x' is not an integer"):
            parse_corpus(self.text(without_b, fmt).encode(), fmt)

    @staticmethod
    def text(rows, fmt):
        if fmt == "csv":
            t = len(rows[0][1])
            head = "id," + ",".join(f"y{j}" for j in range(1, t + 1))
            return "\n".join([head] + [",".join(map(str, [i, *c])) for i, c in rows])
        # A leading blank line puts each JSONL record on its CSV line number.
        return "\n" + "".join(json.dumps({"id": i, "counts": c}) + "\n" for i, c in rows)

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
        assert same(back, corpus)

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
            assert same(again, corpus)


class TestFilter:
    def test_threshold(self):
        corpus = make_corpus([("a", [5, 0]), ("b", [10, 20]), ("c", [50, 50])])
        result = filter_by_total(corpus, 30)
        assert result.corpus.ids == ("b", "c")
        assert (result.kept, result.dropped) == (2, 1)

    def test_zero_is_identity(self):
        corpus = make_corpus([("a", [0, 0]), ("b", [1, 2])])
        assert same(filter_by_total(corpus, 0).corpus, corpus)

    def test_sweep_nonincreasing(self):
        corpus, _ = synthgen.simulate_corpus(synthgen.default_spec(200, seed=1))
        kept = []
        for threshold in (0, 10, 30):
            result = filter_by_total(corpus, threshold)
            # brute-force recount
            expected = sum(1 for row in corpus.counts.tolist() if sum(row) >= threshold)
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
        assert same(once, twice)


class TestTransforms:
    @staticmethod
    def log_row(counts):
        corpus = Corpus(TimeGrid(len(counts)), ("x",), [counts])
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

    def test_grid_length_bound(self):
        # At 1023 years a row of 2**53 counts sums exactly in int64; at 1024
        # it would wrap, so the grid is refused.
        corpus = Corpus(TimeGrid(1023), ("a",), np.full((1, 1023), MAX_COUNT))
        kept = filter_by_total(corpus, 1).corpus
        assert kept.ids == ("a",)
        assert int(kept.counts.sum(axis=1)[0]) == 1023 * MAX_COUNT
        with pytest.raises(DataError, match="at most 1023 years"):
            TimeGrid(1024)

    def test_mismatched_length(self):
        with pytest.raises(DataError, match="counts"):
            Corpus(TimeGrid(3), ("a",), [[1, 2]])

    def test_negative_count_rejected(self):
        with pytest.raises(DataError, match="negative"):
            CountTrajectory("a", (1, -2))

    def test_corpus_rejects_out_of_range_counts(self):
        with pytest.raises(DataError, match="item 'b' has a negative count"):
            Corpus(TimeGrid(2), ("a", "b", "c"), [[1, 2], [0, -1], [-3, 0]])
        with pytest.raises(DataError, match=r"item 'a' has a count above 2\*\*53"):
            Corpus(TimeGrid(2), ("a",), np.array([[MAX_COUNT + 1, 0]]))
        assert Corpus(TimeGrid(2), ("a",), [[MAX_COUNT, 0]]).counts[0, 0] == MAX_COUNT

    @pytest.mark.parametrize("ids, counts, match", [
        (("a",), [[1.5, 2.0]], "got float64"),
        (("a",), [[True, False]], "got bool"),
        (("a", "b"), [[1, 2]], r"\(2, 2\) integer matrix .* shape \(1, 2\)"),
        (("a",), [[1, 2, 3]], r"\(1, 2\) integer matrix .* shape \(1, 3\)"),
        ((), [[1, 2]], r"\(0, 2\) integer matrix .* shape \(1, 2\)"),
        ((), [], r"\(0, 2\) integer matrix .* got float64 of shape \(0,\)"),
    ], ids=["float", "bool", "missing_row", "extra_year", "rows_without_ids", "empty_list"])
    def test_corpus_rejects_malformed_matrix(self, ids, counts, match):
        with pytest.raises(DataError, match=match):
            Corpus(TimeGrid(2), ids, counts)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match=r"duplicate ids: \['a', 'b'\]"):
            Corpus(TimeGrid(2), ("b", "a", "b", "a", "c"), np.zeros((5, 2), dtype=int))

    def test_counts_are_a_read_only_private_copy(self):
        given = np.array([[1, 2], [3, 4]], dtype=np.int32)
        corpus = Corpus(TimeGrid(2), ("a", "b"), given)
        given[0, 0] = 99
        assert corpus.counts.tolist() == [[1, 2], [3, 4]]
        assert corpus.counts.dtype == np.int64
        with pytest.raises(ValueError):
            corpus.counts[0, 0] = 5
        same_dtype = np.array([[1, 2]], dtype=np.int64)
        assert Corpus(TimeGrid(2), ("a",), same_dtype).counts is not same_dtype
        assert isinstance(corpus.ids, tuple) and len(corpus) == 2
