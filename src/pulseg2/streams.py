"""Click-stream container and on-disk formats.

A click stream is the simulated experiment output: time-ordered detection
records, each carrying the index of the pulse that produced it (or -1 for
stationary runs where no pulse clock exists, held as one zero-stride
read-only view, not a click-long array).

`write_stream` takes a whole stream or the time-ordered slices of one,
writing each slice as it comes: the simulator's slices go to disk without
the whole stream ever being held.  The bytes do not depend on the slices.

Formats
-------
CSV       header ``pulse_index,time_seconds``; stationary records write -1.
          Written one slice at a time; read back, a pulse index of
          magnitude 2**53 or more is an error, as float parsing may round it.
binary    packed little-endian records (u64 pulse index, f64 time);
          stationary records store 2**64 - 1 as the index sentinel.
          Both directions go `_SLICE` records at a time through one
          slice-sized record buffer (256 KiB); the bytes do not depend on
          the slice.  `read_stream` gathers the slices into the stream's
          arrays, allocating an index array only once a record is not
          the sentinel.  `pulseg2 analyze` holds no such array: it opens
          a binary stream as a `_StreamFile`, whose records each
          estimator walks a slice at a time.
sidecar   JSON next to either format with the seed, the full generating
          configuration, the package version and the counted
          ``n_clicks``, default path ``<stream>.meta.json``; written
          after the records, so a failed write leaves none.

The estimators read a stream only through ``n_clicks``, ``metadata``,
`_slices` (the pulse indices, -1 for a stationary click, and the times of
a slice of records) and `_ends` (the first record's index, the first and
last times), so a `ClickStream`, which yields views of its arrays, and a
`_StreamFile` take one path through them.  Without a sidecar ``kind``, a
stream is pulsed if its first index is not the sentinel.  A CSV stream is
always read whole.

Three rules, one idiom: `_bad_time`, `_bad_pulse` and `_bad_meta` each
give the text naming the first fault (a time not finite or below the one
before it, a pulse index outside a train of N pulses, a metadata key that
breaks its `_SIDECAR_RULES` entry) or None, and each caller raises its own
error with it.  A `ClickStream` checks its times, a slice at a time, and
its metadata when it is made, a `_StreamFile` each slice as a walk reads
it, and `_open_stream` the sidecar before it reads a record.

Every CSV table and JSON document the package writes goes through
`_write_table` or `_write_json`, and every CSV table it reads through
`_read_table`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import StreamFormatError

__all__ = [
    "ClickStream",
    "write_stream",
    "read_stream",
    "sidecar_path",
]

_HEADER = "pulse_index,time_seconds"
_BINARY_DTYPE = np.dtype([("pulse_index", "<u8"), ("time_seconds", "<f8")])
# the one slice size: records per slice of the binary write and read, of a
# stream's `_slices` and of the time-order check, first clicks per window of
# the pair walk, and the simulator's click budget per slice and arrival rows
# per draw; no output depends on it
_SLICE = 1 << 14
# a pulse index times the estimators' at most 200 pulse blocks stays an int64
_MAX_PULSES = (2**63 - 1) // 200
# the metadata keys read (`_bad_meta`): the JSON types each may have, the
# test a non-null value must pass, and both by name
_NULL = type(None)
_SIDECAR_RULES = {
    **dict.fromkeys(("train", "stationary"), (dict, None, "an object")),
    "detector": (dict, {"efficiency", "timing_jitter_sigma", "dead_time"}.issuperset,
                 "an object of efficiency, timing_jitter_sigma and dead_time alone"),
    **dict.fromkeys(("state", "mode"), ((str, _NULL), None, "a string or null")),
    **{key: ((str, _NULL), names.__contains__, f"{names[0]!r}, {names[1]!r} or null")
       for key, names in (("kind", ("pulsed", "stationary")), ("format", ("csv", "binary")))},
    "train.num_pulses": ((int, _NULL), lambda v: 1 <= v <= _MAX_PULSES,
                         f"an integer in [1, {_MAX_PULSES}] or null"),
    **dict.fromkeys(("train.repetition_period", "stationary.spectral_bandwidth"),
                    ((int, float, _NULL), lambda v: math.isfinite(v) and v > 0,
                     "a finite number > 0 or null")),
    # not null: each builds the `DetectorModel` of the analytic overlay
    "detector.efficiency": ((int, float), lambda v: 0 <= v <= 1, "a finite number in [0, 1]"),
    **dict.fromkeys(("detector.timing_jitter_sigma", "detector.dead_time"),
                    ((int, float), lambda v: 0 <= v < math.inf, "a finite number >= 0")),
    "n_clicks": (int, lambda v: v >= 0, "an integer >= 0"),
}


def _bad_time(t, last=-math.inf, offset=0) -> str | None:
    """The error text naming the first record of the times ``t`` (numbered
    from ``offset``) that is not finite or lies below the one before it,
    ``last`` before the first; None if every time is good.  The times are
    compared `_SLICE` at a time, so the check holds one slice of mask."""
    for lo in range(0, t.size, _SLICE):
        part = t[lo:lo + _SLICE]
        # ordered between finite ends, all are finite: a nan fails the order
        if (math.isfinite(part[0]) and math.isfinite(part[-1]) and last <= part[0]
                and (part[1:] >= part[:-1]).all()):
            last = part[-1]
            continue
        bad = ~np.isfinite(part)
        i = int(np.argmax(bad | (part < np.append(last, part[:-1]))))
        return (f"record {offset + lo + i}: click times must be "
                f"{'finite' if bad[i] else 'nondecreasing'}")
    return None


def _bad_pulse(pulse, n, offset=0) -> str | None:
    """The error text naming the first record of the pulse indices ``pulse``
    (numbered from ``offset``) outside [0, ``n``); None if all lie in it."""
    if not pulse.size or (pulse.min() >= 0 and pulse.max() < n):
        return None
    i = int(np.argmax((pulse < 0) | (pulse >= n)))
    return f"record {offset + i}: pulse index {pulse[i]} outside [0, N) for N = {n} pulses"


def _bad_meta(meta) -> str | None:
    """The error text naming the first key of the metadata ``meta`` that
    breaks its `_SIDECAR_RULES` entry; None if every key keeps its rule."""
    if not isinstance(meta, dict):
        return f"must be a JSON object, not {type(meta).__name__}"
    for key, (kind, test, name) in _SIDECAR_RULES.items():
        section, _, leaf = key.rpartition(".")
        table = meta.get(section, {}) if section else meta
        value = table.get(leaf)
        if leaf in table and (isinstance(value, bool) or not isinstance(value, kind)
                              or test and value is not None and not test(value)):
            return f"{key} must be {name}, got {json.dumps(value, default=repr)}"
    return None


class _Records:
    """What the estimators read of a stream: ``metadata``, ``n_clicks``,
    `_slices` and `_ends`, and from these whether the stream is pulsed."""

    @property
    def is_pulsed(self) -> bool:
        """The sidecar ``kind``, else whether the first index is not the sentinel."""
        kind = self.metadata.get("kind")   # checked: "pulsed", "stationary" or None
        return kind == "pulsed" if kind else bool(self.n_clicks) and self._ends()[0] >= 0


@dataclass(frozen=True, eq=False)
class ClickStream(_Records):
    """Time-ordered detection records plus generating metadata."""

    pulse_index: np.ndarray
    times: np.ndarray
    metadata: dict

    def __post_init__(self):
        idx = np.asarray(self.pulse_index, dtype=np.int64)
        t = np.asarray(self.times, dtype=float)
        if idx.shape != t.shape or idx.ndim != 1:
            raise ValueError("pulse_index and times must be matching 1-D arrays")
        if bad := _bad_time(t):
            raise ValueError(bad)
        if bad := _bad_meta(self.metadata):
            raise ValueError(f"metadata: {bad}")
        idx.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "pulse_index", idx)
        object.__setattr__(self, "times", t)

    @property
    def n_clicks(self) -> int:
        return self.times.size

    def counts_per_pulse(self, num_pulses: int) -> np.ndarray:
        """Clicks per pulse, including empty pulses; a `_bad_pulse` ValueError."""
        if bad := _bad_pulse(self.pulse_index, num_pulses):
            raise ValueError(bad)
        return np.bincount(self.pulse_index, minlength=num_pulses)

    def _slices(self):
        """Views of the pulse indices and times, `_SLICE` records at a time."""
        for lo in range(0, self.n_clicks, _SLICE):
            yield self.pulse_index[lo:lo + _SLICE], self.times[lo:lo + _SLICE]

    def _ends(self):
        """The first pulse index, first and last times; (-1, 0, 0) without clicks."""
        return ((int(self.pulse_index[0]), self.times[0], self.times[-1]) if self.n_clicks
                else (-1, 0.0, 0.0))

    def __repr__(self):
        return f"ClickStream(n_clicks={self.n_clicks}, kind={self.metadata.get('kind')!r})"


class _StreamFile(_Records):
    """A binary stream on disk, its records read `_SLICE` at a time each
    time an estimator walks them, so that no click-long array is held.
    Opening it reads its record count from the file size and no record."""

    def __init__(self, path, metadata):
        size = os.path.getsize(path)
        if size % _BINARY_DTYPE.itemsize:
            raise StreamFormatError(
                f"{path}: {size} bytes is not a whole number of "
                f"{_BINARY_DTYPE.itemsize}-byte records")
        self.path, self.metadata = path, metadata
        self.n_clicks = size // _BINARY_DTYPE.itemsize

    def _slices(self):
        """The pulse indices (the stationary sentinel as -1) and the times,
        as `_records` yields them; the first record whose time `_bad_time`
        finds, across slices too, ends the walk in a StreamFormatError."""
        lo, last = 0, -math.inf
        for pulse, t in _records(self.path, self.n_clicks):
            if bad := _bad_time(t, last, lo):
                raise StreamFormatError(f"{self.path}: {bad}")
            lo, last = lo + t.size, t[-1]
            yield pulse, t

    def _ends(self):
        """The first pulse index (the sentinel as -1), first and last times, read
        from the end records; if these times are out of order or not finite, a
        checking walk names the first bad record."""
        if not self.n_clicks:
            return -1, 0.0, 0.0
        ends = np.concatenate([np.fromfile(self.path, _BINARY_DTYPE, 1, offset=k) for k in
                               (0, (self.n_clicks - 1) * _BINARY_DTYPE.itemsize)])
        if _bad_time(ends["time_seconds"]):
            for _ in self._slices():
                pass
        return int(ends["pulse_index"].view(np.int64)[0]), *ends["time_seconds"]


def sidecar_path(path) -> str:
    return str(path) + ".meta.json"


def _stream(pulse_index, times, metadata) -> ClickStream:
    """A `ClickStream`; a None ``pulse_index`` is the stationary -1, held
    as one zero-stride read-only view rather than a click-long array."""
    if pulse_index is None:
        pulse_index = np.broadcast_to(np.int64(-1), np.shape(times))
    return ClickStream(pulse_index, times, metadata)


def _write_table(path, header: str, columns, fmt="%.12g") -> None:
    """Write a CSV table: the ``header`` line, then one row per entry of the
    ``columns`` (an empty column writes the header alone), each field in
    its ``fmt`` (one for all, or one per column).  ``columns`` may also be
    an iterator of column lists, whose rows follow in turn.  The rows go
    `_SLICE` at a time through Python numbers, an integer column exact."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for part in columns if iter(columns) is columns else [columns]:
            part = [np.asarray(c) for c in part]
            row = ",".join([fmt] * len(part) if isinstance(fmt, str) else fmt) + "\n"
            for lo in range(0, part[0].size, _SLICE):
                fields = (c[lo:lo + _SLICE].tolist() for c in part)
                fh.write("".join(row % r for r in zip(*fields, strict=True)))
            del part


def _write_json(values: dict, path=None) -> str:
    """JSON text of ``values``, non-finite top-level floats as null, written
    to ``path`` when given."""
    text = json.dumps({key: None if isinstance(v, float) and not math.isfinite(v) else v
                       for key, v in values.items()}, indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def write_stream(stream: ClickStream | Iterable[ClickStream], path, fmt: str = "csv",
                 sidecar: str | None = None) -> int:
    """Write records in ``fmt`` ("csv" or "binary") plus the JSON sidecar;
    return the number of records.

    ``stream`` is a `ClickStream` or an iterable of the time-ordered
    `ClickStream` slices of one stream, each written as it comes (a whole
    stream is the one-slice case).  An old sidecar is removed first and
    the new one, with the metadata and the counted ``n_clicks``, is
    written last, so a write that fails leaves no sidecar.
    """
    path = str(path)
    side = sidecar or sidecar_path(path)
    if fmt not in ("csv", "binary"):
        raise ValueError(f"unknown stream format {fmt!r}")
    with contextlib.suppress(FileNotFoundError):
        os.remove(side)
    meta, count = {}, 0

    def columns():
        nonlocal meta, count
        for part in [stream] if isinstance(stream, ClickStream) else stream:
            meta, count = part.metadata, count + part.n_clicks
            yield part.pulse_index, part.times
            del part                # hold no slice while the next one is made

    if fmt == "csv":
        _write_table(path, _HEADER, columns(), fmt=("%d", "%.17g"))
    else:
        rec = np.empty(_SLICE, dtype=_BINARY_DTYPE)
        with open(path, "wb") as fh:
            for pulse, times in columns():
                for lo in range(0, times.size, _SLICE):
                    out = rec[:min(_SLICE, times.size - lo)]
                    out["pulse_index"] = pulse[lo:lo + out.size].view(np.uint64)
                    out["time_seconds"] = times[lo:lo + out.size]
                    fh.write(out.view(np.uint8))
                del pulse, times
    _write_json({**meta, "format": fmt, "n_clicks": count}, side)
    return count


def _width(line) -> int:
    """Fields of a CSV line: 0 if blank or a comment, -1 if one is not a number."""
    text = line.partition("#")[0].strip()
    try:
        return len([float(field) for field in text.split(",")]) if text else 0
    except ValueError:
        return -1


def _read_table(path, columns: str, header: str | None = None) -> np.ndarray:
    """Rows of a numeric CSV table of at least two ``columns``. A ``header``
    must be the first line; else the first line is skipped unless its first
    field is a number. A ValueError names the first record (from 0, blank
    lines not counted) that does not parse or changes width."""
    # undecodable bytes (a binary stream read as CSV) fail the header check
    with open(path, errors="replace") as fh:
        first = fh.readline()
    if header is not None and first.strip() != header:
        raise ValueError(f"{path}: record -1 (header) must be {header!r}")
    skip = int(header is not None or _width(first.split(",")[0]) <= 0)
    try:
        with warnings.catch_warnings():     # a header alone is an empty table
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        with open(path, errors="replace") as fh:
            widths = [w for w in map(_width, itertools.islice(fh, skip, None)) if w]
        bad = next((i for i, w in enumerate(widths) if w < 0 or w != widths[0]), None)
        raise ValueError(f"{path}: {exc}" if bad is None
                         else f"{path}: record {bad} is malformed") from exc
    if rows.size == 0:
        return np.empty((0, 2))
    if rows.shape[1] < 2:
        raise ValueError(f"{path}: expected columns {columns}")
    return rows


def _records(path, n):
    """The pulse indices (an int64 view) and times of a binary stream's
    ``n`` records, `_SLICE` at a time, as views of one record buffer
    that the next slice overwrites; nothing is checked but the length."""
    rec = np.empty(min(n, _SLICE), dtype=_BINARY_DTYPE)
    with open(path, "rb") as fh:
        for lo in range(0, n, _SLICE):
            part = rec[:min(_SLICE, n - lo)]
            if fh.readinto(part.view(np.uint8)) != part.nbytes:
                raise StreamFormatError(f"{path}: file shorter than {n} records")
            yield part["pulse_index"].view(np.int64), part["time_seconds"]


def _checked(path, pulse_index, times, metadata) -> ClickStream:
    """`_stream` of arrays read from ``path``, a bad time's error named with it."""
    try:
        return _stream(pulse_index, times, metadata)
    except ValueError as exc:
        raise StreamFormatError(f"{path}: {exc}") from exc


def _open_stream(path, sidecar: str | None = None) -> _Records:
    """The stream at ``path``: a binary one as a `_StreamFile`, a CSV one
    read whole into a `ClickStream`.  Either record count must match a
    sidecar ``n_clicks`` before a record is read."""
    path = str(path)
    meta = {}
    side = sidecar or sidecar_path(path)
    try:
        with open(side) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"{side}: invalid sidecar JSON: {exc}") from exc
    if bad := _bad_meta(meta):
        raise StreamFormatError(f"{side}: {bad}")
    fmt = meta.get("format") or ("binary" if path.endswith(".bin") else "csv")

    def check_count(n):
        if "n_clicks" in meta and meta["n_clicks"] != n:
            raise StreamFormatError(
                f"{path}: {n} records, but the sidecar {side} says "
                f"n_clicks = {meta['n_clicks']}")

    if fmt == "binary":
        stream = _StreamFile(path, meta)
        check_count(stream.n_clicks)
        return stream
    try:
        rows = _read_table(path, _HEADER, header=_HEADER)
    except ValueError as exc:
        raise StreamFormatError(str(exc)) from exc
    pulse, t = rows[:, 0], rows[:, 1]
    bad = [0] if rows.shape[1] != 2 else np.flatnonzero(
        (pulse != np.round(pulse)) | ~(np.abs(pulse) < 2.0**53))
    if len(bad):
        raise StreamFormatError(f"{path}: record {bad[0]}: expected 2 columns, "
                                "the first an integer of magnitude below 2**53")
    check_count(t.size)
    return _checked(path, None if np.all(pulse == -1) else pulse.astype(np.int64), t, meta)


def read_stream(path, sidecar: str | None = None) -> ClickStream:
    """Read a stream written by `write_stream`; the sidecar is optional.  A
    binary stream's `_records` are gathered into two arrays, the indices
    allocated only once a record is not the stationary sentinel."""
    stream = _open_stream(path, sidecar)
    if isinstance(stream, ClickStream):
        return stream
    n, lo = stream.n_clicks, 0
    idx, t = None, np.empty(n)
    for pulse, times in _records(stream.path, n):
        if idx is None and np.any(pulse != -1):
            idx = np.empty(n, dtype=np.int64)
            idx[:lo] = -1
        if idx is not None:
            idx[lo:lo + times.size] = pulse
        t[lo:lo + times.size] = times
        lo += times.size
        del pulse, times        # views of the record buffer, freed with the loop
    return _checked(stream.path, idx, t, stream.metadata)
