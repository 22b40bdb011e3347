import copy
import csv
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastimdp.errors import ConfigurationError, DataFormatError, ElastimdpError, NoDataError
from elastimdp.logs import (
    CSV_HEADER,
    LogStore,
    MeasurementRecord,
    parse_records_csv,
    read_records_csv,
    write_records_csv,
)

import reference_dataset
import reference_selection


def rec(time, vms, load, lat=20.0, thr=5000.0):
    return MeasurementRecord(time, vms, load, lat, thr)


class TestRecord:
    def test_rejects_zero_vms(self):
        with pytest.raises(ValueError):
            rec(0, 0, 1000.0)

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            MeasurementRecord(0, 4, 1000.0, -1.0, 100.0)
        with pytest.raises(ValueError):
            MeasurementRecord(-1, 4, 1000.0, 1.0, 100.0)

    @pytest.mark.parametrize("field", ["load", "latency_ms", "throughput"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_fields(self, field, value):
        fields = {"load": 1000.0, "latency_ms": 20.0, "throughput": 100.0, field: value}
        with pytest.raises(ValueError, match=f"{field}="):
            MeasurementRecord(0, 4, **fields)


    def test_keyword_and_positional_construction_agree(self):
        record = MeasurementRecord(time=0, vms=4, load=1000.0, latency_ms=20.0, throughput=5000.0)
        assert record == rec(0, 4, 1000.0)
        assert dataclasses.astuple(record) == (0, 4, 1000.0, 20.0, 5000.0)

    def test_repr(self):
        assert repr(rec(0, 4, 1000.0)) == (
            "MeasurementRecord(time=0, vms=4, load=1000.0, latency_ms=20.0, throughput=5000.0)"
        )

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec(0, 4, 1000.0).load = 5.0

    def test_pickle_and_deepcopy(self):
        record = rec(7, 4, 1000.0)
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record

    def test_replace_checks_the_new_fields(self):
        assert dataclasses.replace(rec(0, 4, 1000.0), vms=5) == rec(0, 5, 1000.0)
        with pytest.raises(ValueError, match="^vms must be >= 1, got 0$"):
            dataclasses.replace(rec(0, 4, 1000.0), vms=0)
        with pytest.raises(ValueError, match="^measurements must be finite and >= 0: load=-1.0$"):
            dataclasses.replace(rec(0, 4, 1000.0), load=-1.0)

    def test_equality_and_hash_follow_the_fields(self):
        assert rec(0, 4, 1000.0) == rec(0, 4, 1000.0)
        assert hash(rec(0, 4, 1000.0)) == hash(rec(0, 4, 1000.0))
        assert rec(0, 4, 1000.0) != rec(1, 4, 1000.0)
        assert len({rec(0, 4, 1000.0), rec(0, 4, 1000.0), rec(0, 4, 1000.5)}) == 2


def outcome(make, *args, **kwargs):
    """What `make` returns, by repr (so -0.0 and 0.0 differ), or the type
    and message of what it raises."""
    try:
        return repr(make(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


RECORD_FIELD = st.one_of(
    st.integers(-2, 3),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 2**63, None, "1"]),
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[RECORD_FIELD] * 5), st.booleans())
def test_record_checks_match_the_post_init_reference(values, by_keyword):
    """The constructor refuses what the `__post_init__` check refuses, in
    the same order and with the same message, and keeps what it keeps."""
    if by_keyword:
        kwargs = dict(zip(CSV_HEADER, values))
        assert outcome(MeasurementRecord, **kwargs) == outcome(
            reference_dataset.MeasurementRecord, **kwargs
        )
    else:
        assert outcome(MeasurementRecord, *values) == outcome(
            reference_dataset.MeasurementRecord, *values
        )


class TestSelection:
    def make_store(self):
        return LogStore(
            [
                rec(0, 4, 10000.0, lat=30.0),
                rec(1, 4, 10000.0, lat=32.0),
                rec(2, 4, 20000.0, lat=55.0),
                rec(3, 6, 10000.0, lat=22.0),
            ],
            bucket_width=1000.0,
        )

    def test_exact_hit(self):
        selection = self.make_store().select_logs(4, 10000.0)
        assert not selection.interpolated
        assert len(selection.records) == 2
        assert selection.vms_used == 4
        assert selection.bucket_center == 10000.0

    def test_nearest_bucket_within_width(self):
        selection = self.make_store().select_logs(4, 10400.0)
        assert not selection.interpolated
        assert selection.bucket_center == 10000.0

    def test_bucket_is_the_nearest_bucket_center(self):
        store = self.make_store()
        assert [store.bucket(load) for load in (0.0, 499.0, 500.0, 10400.0, 10600.0)] == [0, 0, 1, 10, 11]

    def test_load_in_no_finite_bucket_is_refused(self):
        # Record loads and queried loads meet the width in one place.
        with pytest.raises(
            ConfigurationError, match="^load 1000.0 over bucket width 1e-310 has no finite bucket$"
        ):
            LogStore([rec(0, 4, 1000.0)], bucket_width=1e-310)
        store = LogStore([rec(0, 4, 1000.0)], bucket_width=1e-3)
        with pytest.raises(
            ConfigurationError, match="^load 1e\\+308 over bucket width 0.001 has no finite bucket$"
        ):
            store.select_logs(4, 1e308)
        # a huge but finite quotient still names a bucket
        assert self.make_store().select_logs(4, 1e308).interpolated

    def test_neighboring_bucket_is_interpolated(self):
        selection = self.make_store().select_logs(4, 14000.0)
        assert selection.interpolated
        assert selection.bucket_center in (10000.0, 20000.0)

    def test_missing_size_borrows_nearest(self):
        selection = self.make_store().select_logs(5, 10000.0)
        assert selection.interpolated
        assert selection.vms_used in (4, 6)
        # ties in size distance resolve toward fewer VMs
        assert selection.vms_used == 4

    def test_empty_store(self):
        with pytest.raises(NoDataError):
            LogStore().select_logs(4, 1000.0)

    def test_reads_do_not_mutate(self):
        store = self.make_store()
        before = len(store)
        store.select_logs(5, 99000.0)
        assert len(store) == before

    def test_equidistant_sizes_tie_toward_fewer_vms(self):
        store = LogStore([rec(0, 3, 10000.0), rec(1, 5, 10000.0)])
        selection = store.select_logs(4, 10000.0)
        assert (selection.vms_used, selection.bucket_center) == (3, 10000.0)
        assert selection.interpolated

    def test_equidistant_buckets_tie_toward_the_lower_bucket(self):
        store = LogStore([rec(0, 4, 8000.0), rec(1, 4, 12000.0), rec(2, 3, 10000.0)])
        selection = store.select_logs(4, 10000.0)
        assert (selection.vms_used, selection.bucket_center) == (4, 8000.0)
        assert selection.interpolated

    def test_a_far_bucket_of_the_same_size_beats_a_near_cell_of_another_size(self):
        store = LogStore([rec(0, 4, 30000.0), rec(1, 5, 10000.0), rec(2, 3, 11000.0)])
        selection = store.select_logs(4, 10000.0)
        assert (selection.vms_used, selection.bucket_center) == (4, 30000.0)
        assert selection.records == (rec(0, 4, 30000.0),)


SPARSE_RECORDS = st.lists(
    st.tuples(st.integers(1, 8), st.integers(0, 24)).map(
        lambda cell: rec(0, cell[0], cell[1] * 250.0, lat=float(cell[0]), thr=cell[1] * 250.0)
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    SPARSE_RECORDS,
    st.sampled_from([500.0, 1000.0, 2500.0]),
    st.lists(st.tuples(st.integers(1, 8), st.integers(0, 24)), min_size=1, max_size=8),
)
def test_selection_matches_the_three_step_reference(records, width, queries):
    """Over sparse stores, the one ordering of the populated cells selects
    what the exact / same size / nearest size rule selects, field for
    field, repeated queries included."""
    store = LogStore(records, bucket_width=width)
    for vms, step in queries:
        load = step * 250.0
        selection = store.select_logs(vms, load)
        expected = reference_selection.select_logs(records, width, vms, load)
        assert (
            selection.records, selection.interpolated, selection.vms_used, selection.bucket_center
        ) == expected


CSV_OK = """\
time,vms,load,latency_ms,throughput
0,4,1000,20.5,990.0
1,4,2000,21.0,1985.0
"""

CSV_BAD = """\
time,vms,load,latency_ms,throughput
0,4,1000,20.5,990.0
1,four,2000,21.0,1985.0
2,4,3000,oops,2900.0
"""


class TestCsv:
    def test_round_trip(self, tmp_path):
        records = parse_records_csv(CSV_OK)
        assert len(records) == 2
        assert records[0].latency_ms == 20.5
        path = tmp_path / "logs.csv"
        write_records_csv(path, records)
        assert read_records_csv(str(path)) == records

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_records_csv(plain, parse_records_csv(CSV_OK))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert repr(read_records_csv(str(marked))) == repr(read_records_csv(str(plain)))

    def test_malformed_rows_reported_with_line_numbers(self):
        with pytest.raises(DataFormatError) as err:
            parse_records_csv(CSV_BAD)
        message = str(err.value)
        assert "line 3" in message
        assert "line 4" in message

    def test_non_finite_rows_reported_with_line_numbers(self):
        text = CSV_OK + "2,4,nan,5,100\n3,4,1000,inf,100\n4,4,1000,5,-inf\n5,4,1000,5,100\n"
        with pytest.raises(DataFormatError, match="rejected 3 row") as err:
            parse_records_csv(text)
        message = str(err.value)
        for line, field in ((4, "load"), (5, "latency_ms"), (6, "throughput")):
            assert f"line {line}: measurements must be finite and >= 0: {field}=" in message
        assert "line 7" not in message

    def test_bad_header(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_records_csv("a,b,c\n1,2,3\n")

    def test_empty_file(self):
        with pytest.raises(DataFormatError):
            parse_records_csv("")

    def test_oversized_field_is_a_format_error(self):
        field = "1" * (csv.field_size_limit() + 1)
        with pytest.raises(DataFormatError, match="logs.csv: line 4: field larger"):
            parse_records_csv(CSV_OK + f"2,4,1000,{field},5\n", source="logs.csv")


# Measurement-CSV-like text: the header or a near miss, then rows built from
# numbers, words that float() accepts or refuses, quotes and separators.
CSV_TOKENS = st.sampled_from(
    ["0", "4", "-1", "1000", "20.5", "1e999", "nan", "-inf", "four", "", " ", '"',
     '"1,2"', ",", "\n", "\r", "\x00", "9" * 5000,
     "1" * (csv.field_size_limit() + 1)]
)
CSV_TEXT = st.one_of(
    st.text(max_size=200),
    st.builds(
        lambda header, rows: header + "\n" + "\n".join(rows),
        st.sampled_from(
            [",".join(CSV_HEADER), "time,vms,load", " time , vms,load,latency_ms,throughput"]
        ),
        st.lists(st.lists(CSV_TOKENS, max_size=7).map(",".join), max_size=6),
    ),
)


@settings(max_examples=300, deadline=None)
@given(CSV_TEXT)
def test_any_csv_text_parses_or_raises_a_typed_error(text):
    try:
        records = parse_records_csv(text)
    except ElastimdpError:
        return
    assert all(isinstance(record, MeasurementRecord) for record in records)


# Rows of cells the row loop must tell apart: blank and whitespace rows it
# skips, short and long rows, words `int` or `float` refuse, and NaN,
# negative and signed-zero measurements the record refuses or keeps.
ROW_CELLS = st.sampled_from(
    ["0", "3", "4", "-1", "1000", " 20.5 ", "-0.0", "nan", "-inf", "1e999", "4.0", "four",
     "", " ", "\t"]
)
GOOD_ROW = st.tuples(
    st.sampled_from(["0", "3", "1000"]),
    st.sampled_from(["1", "4", " 6 "]),
    *[st.sampled_from(["0", "-0.0", " 20.5 ", "1e3", "4.0"])] * 3,
).map(list)
ROWS_TEXT = st.builds(
    lambda rows, end, last: end.join([",".join(CSV_HEADER), *rows]) + last * end,
    st.lists(
        st.one_of(
            GOOD_ROW,
            st.lists(ROW_CELLS, min_size=5, max_size=5),
            st.lists(ROW_CELLS, max_size=7),
            st.lists(st.sampled_from(["", " ", "\t"]), max_size=6),
        ).map(",".join),
        max_size=8,
    ),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(ROWS_TEXT)
def test_rows_parse_as_the_keyword_row_loop(text):
    """The positional row loop keeps and refuses what the keyword loop does,
    record for record and message for message; its records bucket as
    `LogStore.bucket` places them."""
    got = outcome(parse_records_csv, text, source="logs.csv")
    assert got == outcome(reference_dataset.parse_records_csv, text, source="logs.csv")
    if isinstance(got, str):
        records = parse_records_csv(text)
        cells = LogStore(records, bucket_width=250.0)._buckets
        assert list(cells.items()) == list(reference_dataset.buckets(records, 250.0).items())
