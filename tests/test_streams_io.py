import json
import re

import numpy as np
import pytest

import pulseg2 as pg
from pulseg2.errors import StreamFormatError
from pulseg2.streams import _IO_SLICE, ClickStream, read_stream, sidecar_path, write_stream


def small_stream():
    state = pg.thermal(1.0)
    train = pg.PulseTrainConfig(500, 12.5e-9, pg.gaussian_mode(1e-9))
    return pg.simulate_pulse_train(state, pg.DetectorModel(efficiency=0.8), train, seed=5)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_round_trip(tmp_path, fmt):
    stream = small_stream()
    path = tmp_path / ("s.csv" if fmt == "csv" else "s.bin")
    write_stream(stream, path, fmt=fmt)
    back = read_stream(path)
    np.testing.assert_array_equal(back.pulse_index, stream.pulse_index)
    np.testing.assert_array_equal(back.times, stream.times)  # %.17g is exact
    assert back.metadata["seed"] == 5
    assert back.metadata["state"] == "thermal:1"
    assert back.metadata["train"]["num_pulses"] == 500


def test_stationary_sentinel_round_trip(tmp_path):
    stream = pg.simulate_stationary_poisson(1e4, 0.01, seed=2)
    path = tmp_path / "s.bin"
    write_stream(stream, path, fmt="binary")
    back = read_stream(path)
    assert back.n_clicks == stream.n_clicks
    assert np.all(back.pulse_index == -1)
    assert not back.is_pulsed


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_readers_hold_the_sentinel_as_a_view(tmp_path, fmt):
    # all -1: a zero-stride view; a record past the first binary slice that
    # is not the sentinel makes a whole index array, -1 before it
    n = _IO_SLICE + 10
    for tail in (-1, 7):
        idx = np.full(n, -1, dtype=np.int64)
        idx[-3:] = tail
        path = tmp_path / f"s{tail}"
        write_stream(ClickStream(idx, np.arange(n) * 1e-6, {}), path, fmt=fmt)
        back = read_stream(path)
        np.testing.assert_array_equal(back.pulse_index, idx)
        assert (back.pulse_index.strides == (0,)) == (tail == -1)


def test_empty_stream_round_trip(tmp_path):
    stream = ClickStream(np.empty(0, np.int64), np.empty(0), {"kind": "pulsed"})
    path = tmp_path / "empty.csv"
    write_stream(stream, path)
    assert path.read_text().splitlines() == ["pulse_index,time_seconds"]
    back = read_stream(path)
    assert back.n_clicks == 0


@pytest.mark.parametrize("text", [
    "pulse_index,time_seconds\n\n0,1e-9\n1,2e-8\n",
    "pulse_index,time_seconds\n0,1e-9\n\n1,2e-8\n",
], ids=["after_header", "between_records"])
def test_blank_line_skipped_wherever_it_stands(tmp_path, text):
    path = tmp_path / "blank.csv"
    path.write_text(text)
    back = read_stream(path)
    np.testing.assert_array_equal(back.pulse_index, [0, 1])
    np.testing.assert_array_equal(back.times, [1e-9, 2e-8])


def test_malformed_record_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pulse_index,time_seconds\n0,1e-9\n1,not_a_number\n")
    with pytest.raises(StreamFormatError, match="record 1"):
        read_stream(path)


@pytest.mark.parametrize("text", [
    "pulse_index,time_seconds\n0,1e-9\n1.7,2e-9\n",
    "pulse_index,time_seconds\n0,1e-9\n\n1,not_a_number\n",
], ids=["fractional_pulse_index", "blank_line_before"])
def test_bad_record_numbered_from_first_row(tmp_path, text):
    # record 0 is the first row after the header; blank lines are not records
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(StreamFormatError, match=re.escape(f"{path}: record 1")):
        read_stream(path)


@pytest.mark.parametrize("rows,record,message", [
    ("0,inf\n1,2e-9\n", 0, "finite"),
    ("0,1e-9\n1,nan\n2,3e-9\n", 1, "finite"),
    ("0,2e-9\n1,3e-9\n2,1e-9\n", 2, "nondecreasing"),
], ids=["inf_first", "nan_between", "unsorted"])
def test_bad_click_time_record_named(tmp_path, rows, record, message):
    # a non-finite time names its own record, an unsorted pair the later one
    path = tmp_path / "bad.csv"
    path.write_text("pulse_index,time_seconds\n" + rows)
    with pytest.raises(StreamFormatError,
                       match=re.escape(f"{path}: record {record}: ") + f".*{message}"):
        read_stream(path)


def test_csv_pulse_index_below_2_53_read_back_exactly(tmp_path):
    # 2**53 - 1 is the largest index every float64 parse keeps exact
    path = tmp_path / "s.csv"
    path.write_text(f"pulse_index,time_seconds\n{2**53 - 1},1e-9\n")
    assert int(read_stream(path).pulse_index[0]) == 2**53 - 1


@pytest.mark.parametrize("index", [2**53, 2**53 + 1, -(2**53 + 1)])
def test_csv_pulse_index_from_2_53_rejected(tmp_path, index):
    # 2**53 + 1 parses as 2**53: the index would change without an error
    path = tmp_path / "s.csv"
    path.write_text(f"pulse_index,time_seconds\n0,1e-9\n{index},2e-9\n")
    with pytest.raises(StreamFormatError, match=re.escape(f"{path}: record 1: ")):
        read_stream(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1e-9\n")
    with pytest.raises(StreamFormatError, match="header"):
        read_stream(path)


def test_sidecar_written_next_to_stream(tmp_path):
    stream = small_stream()
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    assert (tmp_path / "s.csv.meta.json").exists()
    assert sidecar_path(path) == str(path) + ".meta.json"


def test_unsorted_times_rejected():
    with pytest.raises(ValueError, match="nondecreasing"):
        ClickStream(np.array([0, 1]), np.array([2.0, 1.0]), {})


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        ClickStream(np.array([0]), np.array([1.0, 2.0]), {})


def test_counts_per_pulse_checks_range():
    stream = ClickStream(np.array([0, 3]), np.array([1.0, 2.0]), {"kind": "pulsed"})
    with pytest.raises(ValueError):
        stream.counts_per_pulse(2)
    counts = stream.counts_per_pulse(5)
    assert counts.tolist() == [1, 0, 0, 1, 0]


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "s.bin"
    write_stream(small_stream(), path, fmt="binary")
    with open(path, "ab") as fh:
        fh.write(b"\0" * 5)
    with pytest.raises(StreamFormatError, match="16-byte records"):
        read_stream(path)


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_sidecar_click_count_checked(tmp_path, fmt):
    stream = small_stream()
    path = tmp_path / ("s.csv" if fmt == "csv" else "s.bin")
    write_stream(stream, path, fmt=fmt)
    side = tmp_path / (path.name + ".meta.json")
    meta = json.loads(side.read_text())
    meta["n_clicks"] += 1
    side.write_text(json.dumps(meta))
    with pytest.raises(StreamFormatError, match="n_clicks"):
        read_stream(path)


@pytest.mark.parametrize("parse,prefix,text,message", [
    pytest.param(pg.parse_state_spec, "pn:", "x\n0\n1\n", "expected columns",
                 id="parse_state_spec-pn:"),
    pytest.param(pg.parse_mode_spec, "sampled:", "x\n0\n1\n", "expected columns",
                 id="parse_mode_spec-sampled:"),
    pytest.param(pg.parse_state_spec, "pn:", "n,P_n\n0,0.5\n\n1,x\n",
                 "record 1 is malformed", id="pn_bad_record"),
    pytest.param(pg.parse_state_spec, "pn:", "0,abc\n1,1.0\n",
                 "record 0 is malformed", id="pn_bad_first_row"),
    pytest.param(pg.parse_mode_spec, "sampled:", "0,1\n1e-9,1,0\n",
                 "record 1 is malformed", id="sampled_bad_record"),
])
def test_one_column_table_names_its_path(tmp_path, parse, prefix, text, message):
    # pn: and sampled: specs share the stream's CSV table reader
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        parse(f"{prefix}{path}")
