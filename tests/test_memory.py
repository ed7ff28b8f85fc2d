"""Memory guards: each stage holds the stream once plus slice-sized scratch,
and the sliced simulate-and-write and the sliced analysis of a binary
stream not even the stream.

tracemalloc sees numpy's array buffers, so a traced peak is the arrays a
call holds at once.  The stream here has ~1e6 clicks (16 MB of records);
a single whole-stream temporary (8 MB) breaks every bound below except
the read's, whose bound is the two output arrays plus one slice.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest

from pulseg2 import cli
from pulseg2 import estimate as est
from pulseg2 import modes as md
from pulseg2 import simulate as sim
from pulseg2 import states as st
from pulseg2 import streams
from pulseg2.errors import StreamFormatError

PERIOD = 12.5e-9
SLACK = 1 << 16         # interpreter and small numpy objects


@pytest.fixture(scope="module")
def pulsed():
    train = sim.PulseTrainConfig(10**6, PERIOD, md.gaussian_mode(1e-9))
    stream = sim.simulate_pulse_train(st.coherent(1.0), sim.DetectorModel(), train, 2)
    assert stream.n_clicks > 900_000
    return stream, train


def traced_peak(fn, *args, **kwargs):
    """Bytes ``fn`` holds at its peak, after one untraced warm-up call."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_binary_write_holds_one_slice(pulsed, tmp_path):
    path = tmp_path / "s.bin"
    peak = traced_peak(streams.write_stream, pulsed[0], path, fmt="binary")
    assert peak <= streams._SLICE * streams._BINARY_DTYPE.itemsize + SLACK


# the shipped slice and a small one: at either, a click-long temporary
# (a byte per click, 1 MB) outgrows the slice term of a bound
SLICES = [streams._SLICE, 1 << 12]


def test_building_a_stream_holds_one_slice_of_scratch(set_slice):
    # the time-order check compares one slice at a time: its mask is a byte
    # per record of one slice, never of the ~1e6 clicks
    times = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 10**6))
    pulse = np.arange(times.size)
    for n in SLICES:
        set_slice(n)
        assert traced_peak(streams.ClickStream, pulse, times, {}) <= n + SLACK


def test_binary_read_holds_the_stream_and_one_slice(set_slice, pulsed, tmp_path):
    stream = pulsed[0]
    path = tmp_path / "s.bin"
    streams.write_stream(stream, path, fmt="binary")
    record = streams._BINARY_DTYPE.itemsize
    for n in SLICES:
        set_slice(n)
        peak = traced_peak(streams.read_stream, path)
        assert peak <= (stream.n_clicks + n) * record + SLACK


def test_stationary_binary_read_holds_the_times_and_one_slice(set_slice, tmp_path):
    # the -1 index is a zero-stride view: no click-long index array, only
    # the times, one slice of records and its sentinel test (a byte each)
    stream = sim.simulate_stationary_poisson(1e6, 1.0, seed=5)
    path = tmp_path / "s.bin"
    streams.write_stream(stream, path, fmt="binary")
    record = streams._BINARY_DTYPE.itemsize
    for n in SLICES:
        set_slice(n)
        peak = traced_peak(streams.read_stream, path)
        back = streams.read_stream(path)
        assert back.n_clicks > 990_000 and back.pulse_index.strides == (0,)
        assert np.array_equal(back.times, stream.times) and np.all(back.pulse_index == -1)
        assert peak <= stream.n_clicks * 8 + n * (record + 1) + SLACK


# the arrival sampler's candidate rows and the row-long temporaries of one draw
ROWS = 16 * 8 * streams._SLICE
# the write's record buffer
IO = streams._SLICE * streams._BINARY_DTYPE.itemsize


def test_sliced_simulate_and_write_holds_a_few_slices(tmp_path):
    # ~1e6 clicks (15.5 MB of records), ~13,000 a block, in slices of two
    # blocks, the first at which a slice holds _SLICE clicks, jittered and
    # dead-time filtered: a few slice-long arrays, the record buffer and
    # the arrival rows, nothing of the stream
    train = sim.PulseTrainConfig(10**7, PERIOD, md.gaussian_mode(1e-9))
    det = sim.DetectorModel(timing_jitter_sigma=5e-11, dead_time=1e-9)
    path = tmp_path / "s.bin"

    def simulate_and_write():
        return streams.write_stream(sim._pulse_train_slices(st.coherent(0.1), det, train, 2),
                                    path, fmt="binary")
    peak = traced_peak(simulate_and_write)
    clicks = simulate_and_write()
    assert clicks > 900_000
    slice_clicks = (streams._SLICE + 0.1 * sim._PULSE_BLOCK) * 1.05
    assert peak <= 6 * 8 * slice_clicks + IO + ROWS + SLACK < clicks * 16 / 2


def test_dense_train_slices_hold_the_click_budget(tmp_path):
    # thermal:3 at s = 0.5 makes ~1.5 clicks per pulse, ~197,000 per block,
    # so each block ends a slice at _SLICE clicks, and the 2 ns dead time
    # filter and the write hold a few arrays of one block's clicks
    train = sim.PulseTrainConfig(2 * 10**6, PERIOD, md.gaussian_mode(1e-9))
    det = sim.DetectorModel(efficiency=0.5, dead_time=2e-9)
    path = tmp_path / "s.bin"

    def simulate_and_write():
        return streams.write_stream(sim._pulse_train_slices(st.thermal(3.0), det, train, 2),
                                    path, fmt="binary")
    peak = traced_peak(simulate_and_write)
    assert simulate_and_write() > 1_000_000
    slice_clicks = (streams._SLICE + 1.5 * sim._PULSE_BLOCK) * 1.05
    assert peak <= 6 * 8 * slice_clicks + IO + ROWS + SLACK


def test_binary_read_checks_the_sidecar_count_first(pulsed, tmp_path):
    # a sidecar n_clicks that the file size contradicts fails before the
    # output arrays are allocated
    path = tmp_path / "s.bin"
    streams.write_stream(pulsed[0], path, fmt="binary")
    side = tmp_path / "s.bin.meta.json"
    meta = json.loads(side.read_text())
    meta["n_clicks"] -= 1
    side.write_text(json.dumps(meta))
    tracemalloc.start()
    try:
        with pytest.raises(StreamFormatError, match="n_clicks"):
            streams.read_stream(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SLACK


@pytest.mark.parametrize("estimator", ["all_pairs", "same_pulse", "sidepeak", "pn"])
def test_pair_walk_scratch_follows_the_slice(pulsed, estimator):
    # a walk pass holds a few slice-long index, time and bin arrays (8 of
    # 8 bytes a first click), the pulse-ordered walk its held read slice of
    # indices and times besides (16 bytes a record), and the counts of at
    # most 200 blocks; nothing of the click count
    stream, train = pulsed
    calls = {
        "all_pairs": lambda: est.tau_histogram(stream, 1e-9, 4 * PERIOD, "all_pairs"),
        "same_pulse": lambda: est.tau_histogram(stream, 1e-9, 4 * PERIOD, "same_pulse"),
        "sidepeak": lambda: est.g2_sidepeak(stream, train, 3e-9),
        "pn": lambda: est.pn_histogram_g2q(stream, train),
    }
    counts = 200 * 50 * 8
    held_slice = 16 * streams._SLICE
    bound = 8 * 8 * streams._SLICE + held_slice + 2 * counts + SLACK
    assert traced_peak(calls[estimator]) <= bound


@pytest.mark.parametrize("kind", ["pulsed", "stationary"])
def test_binary_analysis_holds_no_click_long_array(monkeypatch, tmp_path, pulsed, kind):
    # `pulseg2 analyze` reads the records a slice at a time: one record
    # buffer, the photon-number route's held read slice of indices,
    # a few arrays of one walk window and the counts of at most 200 blocks
    # (and their sum); no term grows with the ~1e6 clicks
    stream = (pulsed[0] if kind == "pulsed"
              else sim.simulate_stationary_poisson(1e6, 1.0, seed=5))
    assert stream.n_clicks > 990_000
    streams.write_stream(stream, tmp_path / "s.bin", fmt="binary")
    monkeypatch.chdir(tmp_path)
    args = ["analyze", "s.bin", "--out", "r.json"]
    nbins = 120                                     # bins of 1/20 over 6 widths
    if kind == "stationary":
        args += ["--bin-width", "2e-8", "--max-tau", "5e-6"]
        nbins = 250
    monkeypatch.setattr("sys.stdout", io.StringIO())

    def analyze():
        assert cli.main(args) == 0
    peak = traced_peak(analyze)
    record = streams._BINARY_DTYPE.itemsize
    # per slice: 12 walk arrays of 8 bytes, the record buffer and the held indices
    bound = (12 * 8 + record + 8) * streams._SLICE + 3 * 200 * nbins * 8 + SLACK
    assert peak <= bound < stream.n_clicks * 8


# 1 s of benchmark light at 5e5 clicks/s
STATIONARY = sim.StationaryThermalConfig(1e6, 1e6, 1.0)


def test_sliced_stationary_simulation_holds_one_row_group(tmp_path):
    # simulate-and-write, as `pulseg2 simulate` does: the filter's (16, 4096)
    # complex64 rows (0.52 MB), the (16, 1024) complex64 noise buffer and a
    # group's float32 powers and phases (0.13 MB each), the (16, 3968)
    # float32 |E|^2 (0.25 MB), one chunk's ~25,000 clicks and the write's
    # record slice; the traced peak is ~2.7 MB.  A chunk-long array of
    # float64 cells (8.4 MB) or of the clicks would pass the bound
    det = sim.DetectorModel(efficiency=0.5)
    path = tmp_path / "s.bin"

    def simulate_and_write():
        return streams.write_stream(sim._stationary_thermal_slices(STATIONARY, det, 3),
                                    path, fmt="binary")
    peak = traced_peak(simulate_and_write)
    assert simulate_and_write() > 450_000
    assert peak <= 3 * 2**20


def test_gathered_stationary_simulation_holds_the_clicks_twice():
    # `simulate_stationary_thermal` holds every chunk's clicks and their
    # concatenation (4 MB each) besides one row group's buffers; the traced
    # peak is ~8.5 MB.  A chunk-long float64 array would pass the bound
    det = sim.DetectorModel(efficiency=0.5)
    tracemalloc.start()
    try:
        stream = sim.simulate_stationary_thermal(STATIONARY, det, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.n_clicks > 450_000
    assert peak <= 2 * 8 * stream.n_clicks + 2**20
