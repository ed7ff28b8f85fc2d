import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import pulseg2 as pg
from pulseg2 import cli, streams
from pulseg2 import estimate as est
from pulseg2.errors import StreamFormatError
from pulseg2.streams import _SLICE, ClickStream, read_stream, sidecar_path, write_stream


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
    n = _SLICE + 10
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


def test_empty_binary_stream_gives_an_empty_all_pairs_histogram(tmp_path, reads):
    # no end records to read: one time block from 0, and the one walk reads nothing
    write_stream(ClickStream(np.empty(0, np.int64), np.empty(0), {"kind": "stationary"}),
                 tmp_path / "empty.bin", fmt="binary")
    stream = streams._open_stream(tmp_path / "empty.bin")
    hist = est.tau_histogram(stream, 1e-9, 1e-8, scope="all_pairs")
    assert hist.is_empty and hist.block_clicks.tolist() == [0]
    assert stream._ends() == (-1, 0.0, 0.0) and len(reads) == 1


def test_unknown_stream_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown stream format 'xml'"):
        write_stream(small_stream(), tmp_path / "s.xml", fmt="xml")
    assert not list(tmp_path.iterdir())


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


def test_csv_writer_keeps_a_pulse_index_from_2_53_exact(tmp_path):
    # the writer formats the index column as Python ints, not through
    # float64, so 2**53 + 1 is written as it is and the reader refuses it
    path = tmp_path / "s.csv"
    write_stream(ClickStream([0, 2**53 + 1], [1e-9, 2e-9], {}), path)
    assert path.read_text().splitlines()[2] == f"{2**53 + 1},2.0000000000000001e-09"
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


@pytest.mark.parametrize("times,message", [
    ([1.0, 0.5, np.nan, 2.0], "record 1: click times must be nondecreasing"),
    ([1.0, np.inf, 0.5], "record 1: click times must be finite"),
    ([-np.inf, 1.0], "record 0: click times must be finite"),
], ids=["step_before_nan", "inf_before_step", "minus_inf_first"])
def test_first_bad_time_named(times, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ClickStream(np.zeros(len(times), np.int64), np.array(times), {})


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        ClickStream(np.array([0]), np.array([1.0, 2.0]), {})


def test_counts_per_pulse_checks_range():
    stream = ClickStream(np.array([0, 3]), np.array([1.0, 2.0]), {"kind": "pulsed"})
    with pytest.raises(ValueError):
        stream.counts_per_pulse(2)
    counts = stream.counts_per_pulse(5)
    assert counts.tolist() == [1, 0, 0, 1, 0]


@pytest.mark.parametrize("index", [-1, 4])
def test_counts_per_pulse_names_the_first_bad_record(index):
    stream = ClickStream(np.array([0, 1, index, 7]), np.arange(4.0), {"kind": "pulsed"})
    with pytest.raises(ValueError) as err:
        stream.counts_per_pulse(4)
    assert str(err.value) == f"record 2: pulse index {index} outside [0, N) for N = 4 pulses"


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


@pytest.mark.parametrize("meta,message", [
    (None, "metadata: must be a JSON object, not NoneType"),
    ({"detector": {"dead_time": "x"}}, 'metadata: detector.dead_time must be .*, got "x"'),
    ({"kind": "Pulsed"}, 'metadata: kind must be .*, got "Pulsed"'),
    ({"train": {"num_pulses": "5"}}, 'metadata: train.num_pulses must be .*, got "5"'),
], ids=["none", "dead_time_string", "kind_capitalized", "num_pulses_string"])
def test_in_memory_metadata_held_to_the_sidecar_rules(meta, message):
    with pytest.raises(ValueError, match=message):
        ClickStream(np.arange(3), np.arange(3.0), meta)


@pytest.mark.parametrize("n_clicks", ["3", True, -1, 1.5],
                         ids=["string", "true", "negative", "fraction"])
def test_sidecar_click_count_rule_exits_2(monkeypatch, tmp_path, capsys, n_clicks):
    stream = ClickStream(np.arange(3), np.arange(3.0) * 1e-9,
                         {"kind": "pulsed", "train": {"num_pulses": 3}})
    path = tmp_path / "s.csv"
    write_stream(stream, path)
    bad = tmp_path / "bad.meta.json"
    bad.write_text(json.dumps({**stream.metadata, "n_clicks": n_clicks}))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", str(path), "--sidecar", str(bad), "--out", "r.json"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: n_clicks must be an integer >= 0, got {json.dumps(n_clicks)}" in err
    assert not (tmp_path / "r.json").exists()


_JSON = hs.recursive(
    hs.none() | hs.booleans() | hs.integers() | hs.floats(allow_nan=False, allow_infinity=False)
    | hs.text(max_size=4) | hs.sampled_from(["pulsed", "stationary", "csv", "binary"]),
    lambda inner: hs.lists(inner, max_size=3) | hs.dictionaries(hs.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_LEAVES = ["num_pulses", "repetition_period", "spectral_bandwidth", "efficiency",
           "timing_jitter_sigma", "dead_time"]
_META = hs.dictionaries(
    hs.sampled_from(["train", "stationary", "detector", "state", "mode", "kind", "format",
                     "n_clicks", "seed"]) | hs.text(max_size=4),
    _JSON | hs.dictionaries(hs.sampled_from(_LEAVES) | hs.text(max_size=4), _JSON, max_size=4),
    max_size=6)


@settings(max_examples=150, deadline=None)
@given(meta=_META, fmt=hs.sampled_from(["csv", "binary"]))
@example(meta={"kind": "Pulsed"}, fmt="csv")
@example(meta={"detector": {"dead_time": "x"}}, fmt="binary")
@example(meta={"n_clicks": True}, fmt="csv")
@example(meta={"train": {"num_pulses": 2, "repetition_period": 1e-8}, "n_clicks": 7},
         fmt="binary")
def test_stream_metadata_is_refused_or_read_back(tmp_path_factory, meta, fmt):
    # no stream holds metadata that its own sidecar would fail
    try:
        stream = ClickStream(np.arange(3), np.arange(3.0), meta)
    except ValueError as exc:
        assert str(exc).startswith("metadata: ")
        return
    path = tmp_path_factory.getbasetemp() / "property.stream"
    write_stream(stream, path, fmt=fmt)
    assert read_stream(path).metadata == {**meta, "format": fmt, "n_clicks": 3}


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


# ---------------------------------------------------------------------------
# `pulseg2 analyze` reads a binary stream slice by slice


def _pulsed(state, n_pulses, seed, **detector):
    train = pg.PulseTrainConfig(n_pulses, 12.5e-9, pg.gaussian_mode(1e-9))
    return pg.simulate_pulse_train(state, pg.DetectorModel(**detector), train, seed=seed)


def _stationary(shape, seed):
    light = pg.StationaryThermalConfig(2e5, 1e6, 0.02, spectral_shape=shape)
    return pg.simulate_stationary_thermal(light, pg.DetectorModel(efficiency=0.5), seed=seed)


# each stream, the sidecar keys to drop and the flags analyze then needs
STREAMS = {
    "sparse": (lambda: _pulsed(pg.coherent(0.1), 20000, 1, efficiency=0.5), (), ()),
    "dense": (lambda: _pulsed(pg.thermal(3.0), 2000, 2, efficiency=0.5), (), ()),
    # 4 ns of jitter reorders the indices of neighbouring pulses
    "jittered": (lambda: _pulsed(pg.thermal(1.0), 5000, 3, efficiency=0.8,
                                 timing_jitter_sigma=4e-9), (), ()),
    "dead_time": (lambda: _pulsed(pg.thermal(3.0), 2000, 4, efficiency=0.5,
                                  dead_time=2e-9), (), ()),
    "no_sidecar_n": (lambda: _pulsed(pg.coherent(0.5), 5000, 5), ("num_pulses",),
                     ("--pulses", "5000")),
    # no mode: the binning comes from the within-pulse spread
    "no_mode": (lambda: _pulsed(pg.thermal(1.0), 5000, 6), ("mode",), ()),
    # the same stream, its spread from a strided sample (`SPREAD_SAMPLE`)
    "no_mode_strided": (lambda: _pulsed(pg.thermal(1.0), 5000, 6), ("mode",), ()),
    "gaussian": (lambda: _stationary("gaussian", 7), (), ()),
    "lorentzian": (lambda: _stationary("lorentzian", 8), (), ()),
    "poisson": (lambda: pg.simulate_stationary_poisson(2e5, 0.01, seed=9), (),
                ("--bin-width", "2e-7")),
}

# the `estimate._SPREAD_SAMPLE` a stream is analyzed with, below its clicks
SPREAD_SAMPLE = {"no_mode_strided": 1000}


@pytest.fixture(scope="module", params=sorted(STREAMS))
def written(request, tmp_path_factory):
    """The stream as CSV and as binary, its flags and its `SPREAD_SAMPLE`."""
    make, dropped, flags = STREAMS[request.param]
    stream = make()
    assert stream.n_clicks > 1000
    assert np.any(np.diff(stream.pulse_index) < 0) == (request.param == "jittered")
    out = tmp_path_factory.mktemp(request.param)
    paths = [out / "s.csv", out / "s.bin"]
    for path in paths:
        write_stream(stream, path, fmt="csv" if path.suffix == ".csv" else "binary")
        side = Path(sidecar_path(path))
        meta = json.loads(side.read_text())
        for key in dropped:
            meta.get("train", {}).pop(key, None)
            meta.pop(key, None)
        side.write_text(json.dumps(meta))
    return paths, flags, SPREAD_SAMPLE.get(request.param)


def analyze_outputs(path, workdir, flags):
    """The bytes of every file `pulseg2 analyze` writes for ``path``."""
    workdir.mkdir()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        assert cli.main(["analyze", str(path), "--out", "report.json", *flags]) == 0
    finally:
        os.chdir(here)
    return {f.name: f.read_bytes() for f in workdir.iterdir()}


@pytest.mark.parametrize("slice_len", [7, 64, 1000])
def test_sliced_analysis_writes_the_in_memory_bytes(monkeypatch, set_slice, tmp_path,
                                                    written, slice_len):
    # the reference: the CSV stream read whole, its walk one window long
    (csv, binary), flags, spread_sample = written
    if spread_sample:
        monkeypatch.setattr(est, "_SPREAD_SAMPLE", spread_sample)
    want = analyze_outputs(csv, tmp_path / "whole", flags)
    assert "report.json" in want and len(want) == 2
    assert analyze_outputs(binary, tmp_path / "binary", flags) == want
    set_slice(slice_len)
    for path in (binary, csv):
        assert analyze_outputs(path, tmp_path / f"sliced{path.suffix}", flags) == want


def test_pulsed_analysis_reads_the_binary_stream_once(monkeypatch, set_slice, tmp_path):
    # one pulse-ordered walk gives the histogram and the photon-number rows,
    # and checks the pulse range and the times as it reads
    stream = STREAMS["jittered"][0]()
    write_stream(stream, tmp_path / "s.bin", fmt="binary")
    reads, records = [], streams._records

    def counted(*args):
        reads.append(args)
        return records(*args)

    monkeypatch.setattr(streams, "_records", counted)
    set_slice(64)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "s.bin", "--mode", "gauss:1e-9", "--out", "r.json"]) == 0
    assert len(reads) == 1


def test_hintless_pulsed_analysis_reads_the_binary_stream_twice(monkeypatch, set_slice,
                                                                tmp_path, reads):
    # with no mode, one strided walk gives the fallback width before the pair walk
    stream = STREAMS["jittered"][0]()
    write_stream(stream, tmp_path / "s.bin", fmt="binary")
    side = Path(sidecar_path(tmp_path / "s.bin"))
    meta = json.loads(side.read_text())
    del meta["mode"]
    side.write_text(json.dumps(meta))
    set_slice(64)
    monkeypatch.setattr(est, "_SPREAD_SAMPLE", 1000)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "s.bin", "--out", "r.json"]) == 0
    assert "width_fitted_from_histogram" in json.loads(Path("r.json").read_text())["flags"]
    assert len(reads) == 2


@pytest.fixture
def reads(monkeypatch):
    """The calls of `streams._records`, one per walk over a binary file."""
    calls, records = [], streams._records

    def counted(*args):
        calls.append(args)
        return records(*args)

    monkeypatch.setattr(streams, "_records", counted)
    return calls


def test_side_peaks_read_the_binary_stream_once(set_slice, tmp_path, reads):
    # the range check rides on the pair walk: no walk of its own for the span
    stream = STREAMS["jittered"][0]()
    write_stream(stream, tmp_path / "s.bin", fmt="binary")
    set_slice(64)
    train = pg.PulseTrainConfig(5000, 12.5e-9, pg.gaussian_mode(1e-9))
    got = est.g2_sidepeak(streams._open_stream(tmp_path / "s.bin"), train, 3e-9)
    assert len(reads) == 1
    assert got == est.g2_sidepeak(stream, train, 3e-9)


def _records_with(tmp_path, change):
    """A pulsed binary stream of 300 clicks whose times ``change`` edits."""
    stream = ClickStream(np.arange(300) // 3, np.arange(300) * 1e-9,
                         {"kind": "pulsed", "train": {"num_pulses": 100,
                                                      "repetition_period": 3e-9}})
    path = tmp_path / "s.bin"
    write_stream(stream, path, fmt="binary")
    rec = np.fromfile(path, streams._BINARY_DTYPE)
    change(rec["time_seconds"])
    rec.tofile(path)
    return path


@pytest.mark.parametrize("change,message", [
    (lambda t: t.__setitem__(150, np.nan), "record 150: click times must be finite"),
    (lambda t: t.__setitem__(299, -np.inf), "record 299: click times must be finite"),
    # a step back across two slices; with several faults, the first is named
    (lambda t: t.__setitem__(64, 60e-9), "record 64: click times must be nondecreasing"),
    (lambda t: (t.__setitem__(64, 60e-9), t.__setitem__(200, 150e-9)),
     "record 64: click times must be nondecreasing"),
    (lambda t: (t.__setitem__(5, 0.0), t.__setitem__(250, np.inf)),
     "record 5: click times must be nondecreasing"),
], ids=["nan_later_slice", "inf_last", "step_back_across_slices", "first_of_two_steps",
        "step_before_inf"])
def test_bad_time_in_a_later_slice_exits_2_as_the_read_does(monkeypatch, set_slice, tmp_path,
                                                           capsys, change, message):
    set_slice(64)
    path = _records_with(tmp_path, change)
    with pytest.raises(StreamFormatError) as whole:
        read_stream(path)
    assert str(whole.value) == f"{path}: {message}"
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", str(path), "--out", "r.json", "--mode", "gauss:1e-10"]) == 2
    assert capsys.readouterr().err == f"i/o error: {path}: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_bad_time_ends_the_walk_that_reads_it(monkeypatch, set_slice, tmp_path, capsys,
                                              reads):
    # the first walk names the record as it reads it: no second read
    set_slice(64)
    path = _records_with(tmp_path, lambda t: t.__setitem__(100, np.nan))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", str(path), "--out", "r.json", "--mode", "gauss:1e-10"]) == 2
    assert capsys.readouterr().err == (f"i/o error: {path}: record 100: "
                                       "click times must be finite\n")
    assert len(reads) == 1


def test_stationary_bad_last_time_exits_2(monkeypatch, set_slice, tmp_path, capsys, reads):
    # the end records give the all-pairs walk its time blocks; a bad one
    # starts the checking walk, which names it before any pair is walked
    stream = ClickStream(np.full(300, -1), np.arange(300) * 1e-9,
                         {"kind": "stationary", "stationary": {"spectral_bandwidth": 1e6}})
    path = tmp_path / "s.bin"
    write_stream(stream, path, fmt="binary")
    rec = np.fromfile(path, streams._BINARY_DTYPE)
    rec["time_seconds"][-1] = np.nan
    rec.tofile(path)
    set_slice(64)
    monkeypatch.setattr(est, "_pairs", None)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", str(path), "--out", "r.json"]) == 2
    assert capsys.readouterr().err == (f"i/o error: {path}: record 299: "
                                       "click times must be finite\n")
    assert len(reads) == 1 and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("cut,message", [
    (8, "4792 bytes is not a whole number of 16-byte records"),
    (16, "299 records, but the sidecar"),
], ids=["part_record", "whole_record"])
def test_truncated_file_exits_2(monkeypatch, tmp_path, capsys, cut, message):
    path = _records_with(tmp_path, lambda t: None)
    with open(path, "r+b") as fh:
        fh.truncate(300 * 16 - cut)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", str(path), "--out", "r.json"]) == 2
    assert capsys.readouterr().err.startswith(f"i/o error: {path}: {message}")


@pytest.mark.parametrize("index,record", [(-1, 100), (7, 100), (-5, 150)],
                         ids=["sentinels", "past_n", "negative_mid_slice"])
def test_pulse_index_outside_the_train_exits_3(monkeypatch, set_slice, tmp_path, capsys, reads,
                                               index, record):
    # a pulsed binary stream whose later slices hold the stationary sentinel,
    # an index past N, or one negative index inside a slice fails the range
    # check the first walk feeds, which names the first bad record
    pulse = np.where(np.arange(300) < 100, np.arange(300) // 25, index)
    if index == -5:
        pulse = np.arange(300) // 75
        pulse[150] = index
    stream = ClickStream(pulse, np.arange(300) * 1e-9, {"kind": "pulsed"})
    write_stream(stream, tmp_path / "s.bin", fmt="binary")
    set_slice(64)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "s.bin", "--pulses", "5", "--mode", "gauss:1e-10",
                     "--out", "r.json"]) == 3
    assert capsys.readouterr().err == (f"estimation error: record {record}: pulse index "
                                       f"{index} outside [0, N) for N = 5 pulses\n")
    assert len(reads) == 1


def _sidecarless(tmp_path, pulse):
    """A binary stream of the indices ``pulse``, 1 ns apart, with no sidecar."""
    write_stream(ClickStream(pulse, np.arange(pulse.size) * 1e-9, {}), tmp_path / "s.bin",
                 fmt="binary")
    os.remove(tmp_path / "s.bin.meta.json")
    return "s.bin"


def test_sidecarless_stream_is_read_once(monkeypatch, set_slice, tmp_path, reads):
    # the kind comes from the first record: the pulsed walk is the only read
    path = _sidecarless(tmp_path, np.arange(300) // 3)
    set_slice(64)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", path, "--pulses", "100", "--mode", "gauss:1e-10",
                     "--out", "r.json"]) == 0
    assert len(reads) == 1
    assert json.loads((tmp_path / "r.json").read_text())["N"] == 100


@pytest.mark.parametrize("first,pulsed", [(0, True), (-1, False)])
def test_kind_from_the_first_record(tmp_path, reads, first, pulsed):
    # a stream that starts with the sentinel stays stationary; no walk decides
    pulse = np.arange(300) // 3
    pulse[0] = first
    assert streams._open_stream(tmp_path / _sidecarless(tmp_path, pulse)).is_pulsed == pulsed
    assert not reads


@pytest.mark.parametrize("binning", [[], ["--bin-width", "1e-10"]],
                         ids=["default_binning", "bin_width"])
def test_sentinel_after_a_pulse_index_exits_3(monkeypatch, set_slice, tmp_path, capsys,
                                              binning):
    # pulsed by its first record, the stream fails the index rule where it
    # holds the stationary sentinel, rather than being analyzed as stationary
    pulse = np.arange(300) // 3
    pulse[200] = -1
    path = _sidecarless(tmp_path, pulse)
    set_slice(64)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", path, "--pulses", "100", "--mode", "gauss:1e-10",
                     "--out", "r.json", *binning]) == 3
    assert capsys.readouterr().err == ("estimation error: record 200: pulse index -1 "
                                       "outside [0, N) for N = 100 pulses\n")
    assert not (tmp_path / "r.json").exists()


def test_sidecar_detector_rules_cover_the_detector_model():
    # every sidecar that passes the rules builds the overlay's `DetectorModel`
    names = {f.name for f in dataclasses.fields(pg.DetectorModel)}
    assert streams._SIDECAR_RULES["detector"][1].__self__ == names
    assert all(f"detector.{name}" in streams._SIDECAR_RULES for name in names)
