"""Estimators that recover coherence measures from a click stream.

The measurable object for pulsed light is the histogram of click
time differences accumulated over N pulses.  Its continuum density D(tau)
factorizes as

    D(tau) = Ip^2 * g2q * eta(tau) / N

with Ip the total click count, so the bunching measure actually observed,

    g2p = D(0) / Ip^2 = g2q * eta(0) / N        (units: 1/seconds),

mixes the state coherence g2q with the deterministic pulse shape through
eta(0) and with the measurement length through 1/N.  Recovering the
state-identifying g2q therefore needs mode knowledge (divide by eta(0)/N)
or a per-pulse photon-number histogram, both implemented here, plus the
side-peak normalization that compares the central coincidence window with
windows around multiples of the repetition period.

Histogram convention: unordered click pairs, |t_i - t_j| binned on
tau >= 0.  With that convention the expected content of a small bin at
tau is D(tau') * bin_width and the total same-pulse pair count over N
pulses is N s^2 F2 / 2 (each unordered pair counted once).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import modes as _modes
from . import simulate as _simulate
from . import states as _states
from .errors import EstimationError
from .streams import _MAX_PULSES, ClickStream, _bad_pulse, _write_json, _write_table

__all__ = [
    "TauHistogram",
    "CoherenceReport",
    "ConditionalProbabilityCurve",
    "tau_histogram",
    "estimate_D0",
    "fit_pulse_width",
    "g2p",
    "recover_g2q_gaussian",
    "recover_g2q_general",
    "pn_histogram_g2q",
    "g2_sidepeak",
    "stationary_conditional_probability",
    "stationary_g2_zero",
    "analyze_stream",
    "StationaryReport",
    "analyze_stationary",
]

@dataclass(frozen=True, eq=False)
class TauHistogram:
    """Uniformly binned counts of unordered click-pair time differences;
    ``block_counts`` (blocks, bins) and ``block_clicks`` are each block's
    pairs and clicks (pulse blocks for ``same_pulse``, else time blocks),
    and ``counts`` is the sum of ``block_counts`` over blocks."""

    bin_edges: np.ndarray
    counts: np.ndarray
    pairing_scope: str
    block_counts: np.ndarray
    block_clicks: np.ndarray

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def is_empty(self) -> bool:
        return int(self.counts.sum()) == 0

    def to_csv(self, path, expected=None):
        """Write ``tau_seconds,count[,expected_analytic]`` rows."""
        head, cols, fmt = "tau_seconds,count", [self.centers, self.counts], ["%.12g", "%d"]
        if expected is not None:
            head, cols, fmt = head + ",expected_analytic", cols + [expected], fmt + ["%.12g"]
        _write_table(path, head, cols, fmt)


# first clicks per window of the time-ordered pair walk, and clicks per
# piece of whole pulses of the pulse-ordered one: their scratch memory is
# a few arrays this long (2^14 holds half of 2^15 and walks within a few
# per cent of it: the stationary benchmark stream's all-pairs walk took
# 33.3 vs 32.2 ms, +3 %, and 52 vs 56 ms in two sets of 30 runs, 2 vCPUs)
_PAIR_SLICE = 1 << 14
# bins of a pair histogram; its (<= 200 blocks, bins) counts stay <= 26 MB
_MAX_BINS = 1 << 14
# most within-pulse offsets the fallback width samples (<= 0.5 MB of them)
_SPREAD_SAMPLE = 1 << 16


def _pairs(times, reach, n=None):
    """Yield ``(first, second)`` index arrays of click pairs, one lag at a time.

    The pairs are every i < j of the sorted ``times`` with i < n (default
    all) and times[j] < times[i] + reach.  Pass 1 compares two contiguous
    slices, times[1:] against times[:-1] + reach; pass d > 1 keeps the
    clicks of pass d - 1 with times[i + d] < times[i] + reach.  Each yields
    its pairs (i, i + d), so memory stays O(n) per pass.  Pulse indices in
    pulse order as ``times`` and reach 1 give the pairs that share a pulse.
    """
    m = min(times.size if n is None else n, times.size - 1)
    first = np.flatnonzero(times[1:m + 1] < times[:m] + reach)
    d = 1
    while first.size:
        yield first, first + d
        d += 1
        if first[-1] + d == times.size:     # no click d places on
            first = first[:-1]
        first = first[times[first + d] < times[first] + reach]


def _windows(slices, reach, pulsed):
    """Yield ``(pulse, times, n)``: the next `_PAIR_SLICE` first clicks of
    the ``slices`` (a stream's `_slices`, or its `_pulse_slices`; the last
    window fewer), then every later click within ``reach`` of the last of
    them.  ``pulse`` holds the window's pulse indices if ``pulsed``, else
    it is None.

    The slices come in pieces of `_PAIR_SLICE` clicks.  A window
    is the tail carried from the last piece plus as many new pieces as it
    takes to read one click beyond reach (or the stream's end), so no pair
    of its first clicks reaches past it: the walk over the window finds
    the pairs the walk over the whole stream finds."""
    size = _PAIR_SLICE
    t = np.empty(0)
    p = np.empty(0, dtype=np.int64) if pulsed else None
    pieces = ((pulse[lo:lo + size] if pulsed else None, times[lo:lo + size])
              for pulse, times in slices for lo in range(0, times.size, size))
    for pulse, times in pieces:
        t = np.concatenate([t, times])
        p = np.concatenate([p, pulse]) if pulsed else None
        lo = 0
        while t.size - lo > size and t[-1] >= t[lo + size - 1] + reach:
            end = lo + size + np.searchsorted(t[lo + size:], t[lo + size - 1] + reach)
            yield p[lo:end] if pulsed else None, t[lo:end], size
            lo += size
        t, p = t[lo:], p[lo:] if pulsed else None
    for lo in range(0, t.size, size):
        yield p[lo:] if pulsed else None, t[lo:], min(size, t.size - lo)


def _pair_counts(windows, reach, n_units, ncols, bin_of, passes=None, unit_of=None,
                 by_pulse=False):
    """Counts of the `_pairs` within ``reach`` per `_blocks` block of the
    first click's unit, (blocks, ncols) int64, and each block's clicks.

    The walk takes a `_windows` (or `_pulse_runs`) window at a time, each
    its own lag passes (at most ``passes`` of them) over the times (or with
    ``by_pulse`` the pulse indices).  A first click's unit is its pulse index,
    or with ``unit_of`` given, ``unit_of(times)`` of the first clicks'
    times, and then no pulse index is read (``pulse`` is None);
    ``bin_of(pulse, i, j, dt)`` gives each pair a column in [0, ncols), the
    pairs outside a caller's bins the last.  A window's blocks are found
    once, as int32 offsets (block - lowest) * ncols (< 200 * (`_MAX_BINS` +
    1)) of the flat counts, so a pass counts only the blocks it spans."""
    n_blocks = _blocks(0, n_units)[1]
    flat = np.zeros(n_blocks * ncols, dtype=np.int64)
    clicks = np.zeros(n_blocks, dtype=np.int64)
    for pulse, times, n in windows:
        offset = _blocks(pulse[:n] if unit_of is None else unit_of(times[:n]), n_units)[0]
        clicks += np.bincount(offset, minlength=n_blocks)
        base = offset.min() * ncols     # the window's lowest block, not always its first
        offset = (offset * ncols - base).astype(np.int32)
        for i, j in itertools.islice(_pairs(pulse if by_pulse else times, reach, n), passes):
            add = np.bincount(offset[i] + bin_of(pulse, i, j, times[j] - times[i]))
            flat[base:base + add.size] += add
        pulse = times = add = None  # hold no window array while the next is made
    return flat.reshape(n_blocks, ncols), clicks


def _linearized_sigma(grad, stats):
    """One-sigma spread of R = f(T), T the column sums of ``stats``.

    ``stats`` is (k, units), a column per `_blocks` block of pulses or of
    time, and ``grad`` the gradient of f at the observed T.  The result,
    sqrt(sum_u (grad . (x_u - x_mean))^2), is the root of the delta-method
    (infinitesimal-jackknife) variance; fewer than two blocks give inf.  A
    first statistic that counts pairs and sums to 0 gives grad[0], the value
    one pair gives (one count: the 63 % Poisson upper limit on zero observed).
    """
    ones = np.ones(stats.shape[1])
    if not ones @ stats[0]:
        return float(grad[0])
    if stats.shape[1] < 2:
        return math.inf
    proj = np.asarray(grad) @ stats
    dev = proj - float(ones @ proj) / stats.shape[1]
    return math.sqrt(float(ones @ dev**2))


def _blocks(unit_index, n_units):
    """Block of each unit index, at most 200 contiguous blocks, and their count;
    every walk's N passes here: one not an integer in [1, `_MAX_PULSES`] is a ValueError."""
    if not isinstance(n_units, (int, np.integer)) or n_units < 1:
        raise ValueError(f"{n_units} pulse or time units: N must be an integer >= 1")
    if n_units > _MAX_PULSES:
        raise ValueError(f"{n_units} pulse or time units, more than {_MAX_PULSES}")
    n_blocks = min(200, n_units)
    return unit_index * n_blocks // n_units, n_blocks


def tau_histogram(stream: ClickStream, bin_width: float, max_tau: float,
                  scope: str = "same_pulse", num_pulses: int | None = None) -> TauHistogram:
    """Histogram unordered pair time differences on tau in [0, max_tau).

    ``all_pairs`` keeps every pair of a time-sorted walk up to max_tau,
    ``start_stop`` its first pass (each click with the next); ``same_pulse``
    (the D(tau) estimator) walks the clicks in pulse order and visits no
    cross-pulse pair.  Counts are also kept per block: of N pulses
    (``num_pulses``, else the sidecar's, else the largest index + 1 found by
    a walk of its own; an index outside [0, N) is an EstimationError naming
    its record) for ``same_pulse``, else of whole max_tau slices from the
    first click, the last taking the remainder, so a time block outlasts
    every lag.  ``same_pulse`` takes only a stream that `is_pulsed` (an
    empty one by its sidecar's kind), else a ValueError.  An empty stream
    yields a valid all-zero histogram; over `_MAX_BINS` bins, an N not an
    integer >= 1, or over `_MAX_PULSES` pulses or slices, a ValueError.
    """
    return _histogram(stream, bin_width, max_tau, scope, num_pulses)[0]


def _histogram(stream, bin_width, max_tau, scope, num_pulses):
    """`tau_histogram` and, if ``same_pulse``, each block's pairs at any lag."""
    if scope not in ("same_pulse", "all_pairs", "start_stop"):
        raise ValueError("scope must be 'same_pulse', 'all_pairs' or 'start_stop'")
    for name, value in (("bin_width", bin_width), ("max_tau", max_tau)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    bins = max_tau / bin_width - 1e-9
    if not bins <= _MAX_BINS:
        raise ValueError(f"max_tau {max_tau:g} s over bin_width {bin_width:g} s is "
                         f"{bins:.3g} bins, more than {_MAX_BINS}")
    nbins = max(math.ceil(bins), 1)
    edges = np.arange(nbins + 1) * bin_width
    pairs = None
    if scope == "same_pulse":
        if not stream.is_pulsed:
            raise ValueError("same_pulse scope requires a pulsed stream")
        n_units = (stream.metadata.get("train", {}).get("num_pulses")
                   if num_pulses is None else num_pulses)
        if n_units is None:
            n_units = max([0] + [int(pulse.max()) for pulse, _ in stream._slices()]) + 1
        block_counts, pairs, block_clicks = _same_pulse_counts(
            stream, n_units, bin_width, nbins)
    else:
        # times are sorted: the last click's max_tau slice is the largest;
        # an inf slice count stays an int for the `_pair_counts` bound
        t0, t1 = stream._ends()[1:]
        n_units = max(int(min(float(t1 - t0) / max_tau, 2.0**63)), 1)

        def unit_of(times):
            unit = ((times - t0) / max_tau).astype(np.int64)
            return np.minimum(unit, n_units - 1, out=unit)

        def bin_of(pulse, i, j, dt):    # past max_tau: the overflow column
            return np.minimum(dt / bin_width, nbins).astype(np.int64)

        reach = edges[-1] + bin_width   # one bin of slack: the bin index decides
        block_counts, block_clicks = _pair_counts(
            _windows(stream._slices(), reach, False), reach, n_units, nbins + 1, bin_of,
            1 if scope == "start_stop" else None, unit_of)
        block_counts = np.ascontiguousarray(block_counts[:, :nbins])
    hist = TauHistogram(edges, block_counts.sum(axis=0), scope, block_counts, block_clicks)
    return hist, pairs


def _pulse_slices(stream, n_pulses):
    """The stream's `_slices`, each checked as it comes: the first index outside
    [0, n_pulses) is an EstimationError naming its record (`_bad_pulse`)."""
    record = 0
    for pulse, times in stream._slices():
        if bad := _bad_pulse(pulse, n_pulses, record):
            raise EstimationError(bad)
        record += pulse.size
        yield pulse, times


def _pulse_runs(stream, n_pulses):
    """Yield `_pair_counts` windows of the clicks in pulse order, each pulse's
    in time order.  Read a slice at a time (`_pulse_slices`), the clicks
    below the next slice's least index are yielded, the rest held back with
    that slice, sorted stably by index if jitter reordered them.  An index
    at or below a pulse already yielded is an EstimationError naming its
    record."""
    def pieces(p, t):   # `_PAIR_SLICE` first clicks, then the rest of the last pulse
        for lo in range(0, p.size, _PAIR_SLICE):
            end = np.searchsorted(p, p[min(lo + _PAIR_SLICE, p.size) - 1], "right")
            yield p[lo:end], t[lo:end], min(_PAIR_SLICE, p.size - lo)

    held_p, held_t, done, record = np.empty(0, dtype=np.int64), np.empty(0), None, 0
    for pulse, times in _pulse_slices(stream, n_pulses):
        low = pulse.min()
        if done is not None and low <= done:
            bad = np.argmax(pulse <= done)
            raise EstimationError(
                f"record {record + bad}: pulse index {pulse[bad]} comes after the "
                f"clicks of pulse {done} were counted; the photon-number route "
                "takes pulse indices out of order by less than one read slice")
        cut = np.searchsorted(held_p, low)
        if cut:
            yield from pieces(held_p[:cut], held_t[:cut])
            done = held_p[cut - 1]
        held_p = np.concatenate([held_p[cut:], pulse])
        held_t = np.concatenate([held_t[cut:], times])
        if np.any(held_p[1:] < held_p[:-1]):
            order = np.argsort(held_p, kind="stable")
            held_p, held_t = held_p[order], held_t[order]
        record += pulse.size
    yield from pieces(held_p, held_t)


def _same_pulse_counts(stream, n_pulses, bin_width=math.inf, nbins=0):
    """Each pulse block's same-pulse pairs in ``nbins`` bins of ``bin_width``
    ((blocks, nbins) int64), its pairs at any lag (sum m(m-1)/2) and its
    clicks (sum m): one `_pulse_runs` walk, a column more past the bins."""
    def bin_of(pulse, i, j, dt):    # clipped before the cast: no reach bounds dt
        return np.minimum(dt / bin_width, nbins).astype(np.int64)

    counts, clicks = _pair_counts(_pulse_runs(stream, n_pulses), 1, n_pulses, nbins + 1,
                                  bin_of, by_pulse=True)
    return np.ascontiguousarray(counts[:, :nbins]), counts.sum(axis=1), clicks


def fit_pulse_width(hist: TauHistogram) -> float:
    """Pulse width from the histogram's second moment.

    For a Gaussian mode the time-difference density is Gaussian with
    standard deviation equal to the amplitude width dt_p, so the
    (Sheppard-corrected) r.m.s. of the folded histogram estimates dt_p
    directly.  Returns nan for an empty histogram.
    """
    total = float(hist.counts.sum())
    if total <= 0:
        return math.nan
    m2 = float(hist.counts @ hist.centers**2) / total - hist.bin_width**2 / 12.0
    return math.sqrt(max(m2, 0.0))


def _eta_route(hist: TauHistogram, mode_hint, total):
    """(D(0), sigma), (g2p, sigma) and eta(0) from one fit of the hint's
    eta shape (else the Gaussian of the fitted width), Ip = ``total``.

    D(0) = eta(0) shape.c / (bw shape.shape) is linear in the counts, so
    the pulse blocks' shares of it sum to it, and both sigmas are the
    linearized spreads over the blocks' (share, clicks).  An all-zero
    histogram (eta(0) only with a hint), or a D(0) of exactly 0, gives
    zeros with sigma inf; an Ip of 0 is an EstimationError.
    """
    if total == 0:
        raise EstimationError("g2p undefined: stream has no clicks")
    if hist.pairing_scope != "same_pulse":
        raise ValueError("estimate_D0 requires a same_pulse histogram")
    if hist.is_empty:
        eta0 = None if mode_hint is None else float(_modes.eta_numeric(mode_hint, 0.0))
        return (0.0, math.inf), (0.0, math.inf), eta0
    if mode_hint is None:
        mode_hint = _modes.gaussian_mode(fit_pulse_width(hist))
    eta = np.asarray(_modes.eta_numeric(mode_hint, np.concatenate([[0.0], hist.centers])))
    eta0, shape = float(eta[0]), eta[1:]
    denom = hist.bin_width * float(shape @ shape)
    if denom <= 0:
        raise EstimationError("mode hint gives a degenerate fit shape")
    d0 = float(shape @ hist.counts.astype(float)) / denom * eta0
    if d0 == 0:
        return (0.0, math.inf), (0.0, math.inf), eta0
    stats = np.vstack([(hist.block_counts @ shape) * (eta0 / denom), hist.block_clicks])
    val = d0 / total**2
    return ((d0, _linearized_sigma((1.0, 0.0), stats)),
            (val, _linearized_sigma((1.0 / total**2, -2.0 * val / total), stats)), eta0)


def estimate_D0(hist: TauHistogram, mode_hint: _modes.TemporalMode | None = None):
    """Pair density at zero time difference, (value, one-sigma uncertainty).

    The eta shape of the mode hint, else the Gaussian of the histogram's
    fitted width, is least-squares fitted and read off at tau = 0.  The
    sigma is the linearized spread over the histogram's pulse blocks (one
    block gives inf); an all-zero histogram or a fit of 0 gives (0.0, inf).
    """
    return _eta_route(hist, mode_hint, 1)[0]        # Ip does not enter D(0)


def g2p(stream: ClickStream, hist: TauHistogram,
        mode_hint: _modes.TemporalMode | None = None):
    """Pulsed bunching measure D(0)/Ip^2 in 1/seconds, with uncertainty.

    This is the correlation actually measured on a pulsed source; it is
    NOT the state coherence g2q but g2q * eta(0) / N, so it grows as the
    pulses shrink and falls as the record gets longer.  D(0) is fitted as
    in `estimate_D0`; the sigma spreads the ratio over the pulse blocks'
    D(0) shares and clicks together, so it carries their correlation.
    """
    return _eta_route(hist, mode_hint, stream.n_clicks)[1]


def recover_g2q_gaussian(stream: ClickStream, hist: TauHistogram,
                         num_pulses: int, delta_tp: float | None = None):
    """g2q for Gaussian pulses: sqrt(2 pi) dt_p N D(0) / Ip^2.

    ``delta_tp`` may be omitted, in which case the width is fitted from
    the histogram itself.  This is `recover_g2q_general` for the Gaussian
    mode of that width.
    """
    if delta_tp is None:
        delta_tp = fit_pulse_width(hist)
        if not (math.isfinite(delta_tp) and delta_tp > 0):
            raise EstimationError(
                "pulse width could not be fitted from the histogram; pass "
                "delta_tp or use recover_g2q_general with a known mode")
    return recover_g2q_general(stream, hist, num_pulses,
                               _modes.gaussian_mode(delta_tp))


def recover_g2q_general(stream: ClickStream, hist: TauHistogram,
                        num_pulses: int, mode: _modes.TemporalMode):
    """g2q for an arbitrary known mode: N g2p / eta(0) = N D(0) / (Ip^2 eta(0)).

    Value and uncertainty are those of `g2p` rescaled by N / eta(0), all from one fit.
    """
    _, g2p_val, eta0 = _eta_route(hist, mode, stream.n_clicks)
    return tuple(num_pulses / eta0 * v for v in g2p_val)


def pn_histogram_g2q(stream: ClickStream, train):
    """g2q from the pulses' click numbers m.

    Independent loss rescales the first and second factorial moments by s
    and s^2, so their ratio N F / M^2 (F the summed m(m-1), M the summed m)
    is the source g2q regardless of detector efficiency.  Both are counted
    per pulse block in O(clicks) time (`_same_pulse_counts`), the sigma is
    the ratio's linearized spread over `tau_histogram`'s at most 200 pulse
    blocks, and an N not an integer in [1, `_MAX_PULSES`] is a ValueError."""
    n_pulses = train.num_pulses if isinstance(train, _simulate.PulseTrainConfig) else train
    if not stream.n_clicks:
        raise EstimationError("g2q from photon numbers undefined: no clicks")
    return _pn_ratio(*_same_pulse_counts(stream, n_pulses)[1:], n_pulses)


def _pn_ratio(pairs, clicks, n_pulses):
    """pn_histogram_g2q's value and sigma from each block's pairs and clicks."""
    stats = np.vstack([pairs, clicks]).astype(float)
    pairs, clicks = stats.sum(axis=1) * (2.0, 1.0)
    val = float(pairs / n_pulses / (clicks / n_pulses) ** 2)
    grad = (2.0 * n_pulses / clicks**2, -2.0 * n_pulses * pairs / clicks**3)
    return val, _linearized_sigma(grad, stats)


def g2_sidepeak(stream: ClickStream, train, window: float,
                n_side: int = 3):
    """g2q from side-peak normalization of a pulse-train pair histogram.

    The central coincidence count (unordered same-pulse pairs with
    |tau| < window) is normalized by the mean pair count in windows around
    k * repetition_period for k = 1..n_side.  For statistically
    independent pulses the expectation is exactly g2q; the factor 2 and
    the N/(N-k) weights compensate the unordered-pair convention and the
    finite train length.  The uncertainty is the linearized spread of
    that ratio over at most 200 contiguous blocks of pulses.
    """
    if not isinstance(train, _simulate.PulseTrainConfig):
        raise TypeError("g2_sidepeak needs the PulseTrainConfig of the stream")
    period = train.repetition_period
    n_pulses = train.num_pulses
    if not 0 < window <= period / 2:
        raise ValueError("window must lie in (0, repetition_period/2]")
    if not (isinstance(n_side, (int, np.integer)) and n_side >= 1):
        raise ValueError(f"n_side must be a positive integer, got {n_side!r}")
    if n_pulses < n_side + 1:
        raise EstimationError(
            f"train of {n_pulses} pulses is too short for {n_side} side peaks")
    if not stream.is_pulsed:
        raise ValueError("g2_sidepeak requires a pulsed stream")

    def peak_of(p, i, j, dt):
        # column 0 the central peak, of same-pulse pairs only; column k side peak
        # k; every other pair, peak n_side + 1's at period / 2 too, the dropped last
        k = np.round(dt / period).astype(np.int64)
        keep = (np.abs(dt - k * period) < window) & ((k > 0) | (p[j] == p[i]))
        return np.where(keep, k, n_side + 1)

    reach = n_side * period + 2.0 * window     # one window of slack past the last
    windows = _windows(_pulse_slices(stream, n_pulses), reach, True)
    counts = _pair_counts(windows, reach, n_pulses, n_side + 2, peak_of)[0]
    stats = np.ascontiguousarray(counts[:, :n_side + 1].T, dtype=float)

    corr = n_pulses / (n_pulses - np.arange(1, n_side + 1, dtype=float))
    totals = stats.sum(axis=1)
    s_mean = float(np.mean(totals[1:] * corr))
    if s_mean <= 0:
        raise EstimationError("no side-peak pairs found; stream too sparse")
    val = 2.0 * float(totals[0]) / s_mean
    grad = np.concatenate([[2.0 / s_mean], -val * corr / (n_side * s_mean)])
    return val, _linearized_sigma(grad, stats)


@dataclass(frozen=True, eq=False)
class ConditionalProbabilityCurve:
    """Stationary conditional click rate pc(tau) in 1/seconds on tau >= 0,
    and its histogram's pair counts per time block, (blocks, bins)."""

    tau: np.ndarray
    pc: np.ndarray
    total_clicks: int
    bin_width: float
    block_counts: np.ndarray = field(repr=False)

    def _baseline_bins(self, tau_from: float) -> np.ndarray:
        sel = self.tau >= tau_from
        if not sel.any():
            raise ValueError("no bins beyond tau_from")
        return sel

    def baseline(self, tau_from: float) -> float:
        """Mean pc over the bins whose centres are >= tau_from."""
        return float(self.pc[self._baseline_bins(tau_from)].mean())

    def g2_zero(self, baseline_from: float):
        """(g2(0), sigma): C0 K / B, C0 the pairs in bin 0 and B those in the
        K bins whose centres are >= ``baseline_from`` (the `baseline` rule),
        and its linearized spread over the time blocks (one block: inf)."""
        if not baseline_from >= self.bin_width:
            raise ValueError("need bin_width <= baseline_from")
        sel = self._baseline_bins(baseline_from)
        stats = np.vstack([self.block_counts[:, 0], self.block_counts[:, sel].sum(axis=1)])
        central, base = stats.sum(axis=1).astype(float)
        if base <= 0:
            raise EstimationError("no baseline pairs; increase max_tau or duration")
        k_base = int(sel.sum())
        val = float(central * k_base / base)
        return val, _linearized_sigma((k_base / base, -val / base), stats)

    def excess_fwhm(self, tau_from: float) -> float:
        """Full width at half maximum of the bunching excess above baseline."""
        base = self.baseline(tau_from)
        excess = self.pc - base
        half = excess[0] / 2.0
        below = np.nonzero(excess < half)[0]
        if excess[0] <= 0 or below.size == 0:
            return math.nan
        j = int(below[0])
        frac = (excess[j - 1] - half) / (excess[j - 1] - excess[j])
        return 2.0 * float(self.tau[j - 1] + frac * (self.tau[j] - self.tau[j - 1]))


def stationary_g2_zero(stream: ClickStream, bin_width: float, max_tau: float,
                       baseline_from: float):
    """g2(0) of a stationary stream and its sigma over time blocks: the
    `ConditionalProbabilityCurve.g2_zero` of its all-pairs curve.  Lorentzian
    light reads low (pulls -0.54 / 1.00, Gaussian -0.05 / 1.01; 5e5 /s, 1 MHz,
    0.3 s): bin 0 averages the cusp |g1|^2 = exp(-2 bw tau), ~2 % below the
    peak at bins of 1/(50 bw), and a baseline from 3/bw keeps e^-6 of the excess."""
    if stream.n_clicks < 2:
        raise EstimationError("g2(0) undefined: need at least two clicks")
    if not 0 < bin_width <= baseline_from < max_tau:
        raise ValueError("need bin_width <= baseline_from < max_tau")
    return stationary_conditional_probability(stream, bin_width, max_tau) \
        .g2_zero(baseline_from)


def stationary_conditional_probability(stream: ClickStream, bin_width: float,
                                       max_tau: float) -> ConditionalProbabilityCurve:
    """Conditional probability estimate: all-pairs histogram / (total * bin width).

    Every click counts against every later click, matching the definition
    of pc as a rate given a click at any earlier time; the large-tau
    baseline then equals the mean detected rate and peak/baseline
    estimates g2(0).  The adjacent-click gaps of interval-timing hardware
    are `tau_histogram`'s ``start_stop`` scope.
    """
    if stream.n_clicks == 0:
        raise EstimationError("conditional probability undefined: empty stream")
    hist = tau_histogram(stream, bin_width, max_tau, scope="all_pairs")
    pc = hist.counts / (stream.n_clicks * bin_width)
    return ConditionalProbabilityCurve(hist.centers, pc, stream.n_clicks, bin_width,
                                       hist.block_counts)


@dataclass(kw_only=True)
class CoherenceReport:
    """Every coherence measure recovered from one pulsed stream.

    ``g2q_eta`` is the mode-corrected recovery N g2p / eta(0) (the
    dimensionless version of g2p), ``g2q_pn`` the photon-number-histogram
    route, ``g2q_analytic`` the exact value when the source state is
    known.  g2p and D0 carry units of 1/seconds.  ``histogram`` is the
    same-pulse histogram the report was computed from (None for an empty
    stream), ``expected`` its analytic counts for the sidecar's light, and
    ``state`` and ``mode`` the objects it was analyzed with, given or parsed
    from the sidecar (None if neither); none of the four compares or is in
    the JSON, which holds the rest in field order.
    """

    g2q_analytic: float | None = None
    g2q_eta: float | None = None
    g2q_eta_sigma: float | None = None
    g2q_pn: float | None = None
    g2q_pn_sigma: float | None = None
    g2p: float | None = None
    g2p_sigma: float | None = None
    eta0_per_second: float | None = None
    Ip: float
    N: int
    D0_per_second: float
    D0_sigma: float
    fitted_width_seconds: float | None = None
    flags: list = field(default_factory=list)
    histogram: TauHistogram | None = field(default=None, repr=False, compare=False)
    expected: np.ndarray | None = field(default=None, repr=False, compare=False)
    state: _states.QuantumState | None = field(default=None, repr=False, compare=False)
    mode: _modes.TemporalMode | None = field(default=None, repr=False, compare=False)

    def to_json(self, path=None) -> str:
        return _write_json({f.name: getattr(self, f.name) for f in fields(self)
                            if f.compare}, path)


@dataclass(kw_only=True)
class StationaryReport:
    """Every measure `analyze_stationary` reads off one stationary stream's
    pc(tau) ``curve``, which neither compares nor is in the JSON: that holds
    the rest in field order, written by `CoherenceReport`'s ``to_json``."""

    pc_peak_per_second: float
    pc_baseline_per_second: float
    g2_zero: float
    g2_zero_sigma: float
    excess_fwhm_seconds: float
    total_clicks: int
    flags: list = field(default_factory=list)
    curve: ConditionalProbabilityCurve = field(repr=False, compare=False)

    to_json = CoherenceReport.to_json


def analyze_stream(stream: ClickStream, num_pulses: int | None = None,
                   mode: _modes.TemporalMode | None = None,
                   state=None, bin_width: float | None = None,
                   max_tau: float | None = None) -> CoherenceReport:
    """Run the full pulsed estimation pipeline on one stream.

    Missing arguments are filled from the stream's sidecar metadata; a
    sidecar mode or state label that does not parse is skipped and
    flagged ``<key>_label_unparsed``.  Unset bins are dt_p/20 out to 6 dt_p,
    dt_p the mode's width, else the `_within_pulse_spread` of one strided
    walk.  One walk builds the same-pulse histogram and the pn route's rows, and
    D(0) is fitted once, with the mode as the shape hint, else the Gaussian
    of the fitted width; the fit also gives eta(0), and the D(0) and g2p
    sigmas spread over the blocks of N that the pn route takes too.
    g2q_eta is g2p and its sigma rescaled by N / eta(0); a histogram
    without pairs gives zeros with sigma inf.  An empty stream produces a
    flagged report rather than an error, once its N passes the one N rule
    (`_blocks`); a pulse index outside [0, N) is an EstimationError, raised
    as the walk reads its slice.  A fitted width more than 10 percent off a
    ``gauss:`` or ``hg:0:`` hint is flagged ``width_mismatch``, since the
    eta-corrected g2q scales linearly with the assumed width.  A sidecar
    detector dead time > 0 is flagged ``dead_time_biased`` (`_detector_flags`).
    ``expected`` (`_expected_counts`) models the sidecar's light: a hint or
    ``num_pulses`` changes its bins, not it, unless the hint has its label.
    """
    meta = stream.metadata
    if not stream.is_pulsed:
        raise ValueError("analyze_stream handles pulsed streams; use "
                         "analyze_stationary for stationary runs")
    if num_pulses is None:
        num_pulses = meta.get("train", {}).get("num_pulses")
    if num_pulses is None:
        raise EstimationError("number of pulses unknown: pass num_pulses")
    flags = []
    # the sidecar's light, which the overlay models: a hint of its label stands in
    own_mode, own_state = (
        hint if hint is not None and hint.label == meta.get(key) else
        _parse_sidecar_label(meta, key, parse, flags if hint is None else [])
        for key, hint, parse in (("mode", mode, _modes.parse_mode_spec),
                                 ("state", state, _states.parse_state_spec)))
    mode, state = mode or own_mode, state or own_state
    flags += _detector_flags(meta)

    g2q_analytic = None
    if state is not None:
        try:
            g2q_analytic = _states.g2q_from_moments(state)
        except ValueError:
            flags.append("source_state_vacuum")

    total = stream.n_clicks
    if total == 0:
        _blocks(0, num_pulses)      # no walk holds N to the N rule here
        flags.append("empty_stream")
        return CoherenceReport(N=num_pulses, Ip=0.0, D0_per_second=0.0, D0_sigma=math.inf,
                               g2q_analytic=g2q_analytic, flags=flags, state=state,
                               mode=mode)

    if bin_width is None or max_tau is None:
        width = mode.width if mode is not None else _within_pulse_spread(stream)
        bin_width = width / 20.0 if bin_width is None else bin_width
        max_tau = 6.0 * width if max_tau is None else max_tau
    hist, pn_pairs = _histogram(stream, bin_width, max_tau, "same_pulse", num_pulses)

    fitted = fit_pulse_width(hist)
    if (mode is not None and mode.kind != "sampled" and mode.order == 0
            and math.isfinite(fitted) and abs(fitted - mode.width) > 0.1 * mode.width):
        flags.append("width_mismatch")

    if mode is None:
        flags.append("no_pairs_for_width_fit" if hist.is_empty
                     else "width_fitted_from_histogram")
    (d0, sd), g2p_val, eta0 = _eta_route(hist, mode, total)
    g2q_eta_val = (None, None) if eta0 is None else \
        tuple(num_pulses / eta0 * v for v in g2p_val)

    g2q_pn, g2q_pn_sigma = _pn_ratio(pn_pairs, hist.block_clicks, num_pulses)

    return CoherenceReport(
        N=int(num_pulses), Ip=float(total),
        D0_per_second=d0, D0_sigma=sd, eta0_per_second=eta0,
        g2p=g2p_val[0], g2p_sigma=g2p_val[1],
        g2q_eta=g2q_eta_val[0], g2q_eta_sigma=g2q_eta_val[1],
        g2q_pn=g2q_pn, g2q_pn_sigma=g2q_pn_sigma,
        g2q_analytic=g2q_analytic,
        fitted_width_seconds=fitted if math.isfinite(fitted) else None,
        flags=flags, histogram=hist, state=state, mode=mode,
        expected=_expected_counts(meta, own_state, own_mode, hist))


def _expected_counts(meta, state, mode, hist):
    """D(tau) * bin_width in ``hist``'s bins for the sidecar's light, N and
    detector; None if one is missing or (in memory only) does not build."""
    n = meta.get("train", {}).get("num_pulses")
    if state is None or mode is None or n is None:
        return None
    try:
        detector = _simulate.DetectorModel(**meta.get("detector", {}))
    except (TypeError, ValueError):
        return None
    return _simulate.analytic_D(state, detector, mode, n, hist.centers) * hist.bin_width


def _within_pulse_spread(stream: ClickStream) -> float:
    """Crude width scale from within-pulse click offsets (fallback binning):
    sqrt(2) times the `np.std` of the offset of every k-th record, k the
    least that keeps at most `_SPREAD_SAMPLE` of them.  The sample goes by
    record number, not by read slice, so one walk of any slicing gives the
    same bits; a stream of at most `_SPREAD_SAMPLE` clicks samples each."""
    period = stream.metadata.get("train", {}).get("repetition_period")
    if period is None:
        raise EstimationError("cannot choose a bin width: pass bin_width")
    k, lo, parts = max(-(-stream.n_clicks // _SPREAD_SAMPLE), 1), 0, []
    for p, t in stream._slices():
        first = -lo % k
        parts.append(t[first::k] - (p[first::k] + 0.5) * period)
        lo += t.size
    spread = float(np.std(np.concatenate(parts)))
    if not spread > 0:
        raise EstimationError("cannot choose a bin width: pass bin_width")
    return spread * math.sqrt(2.0)


def analyze_stationary(stream: ClickStream, bin_width: float | None = None,
                       max_tau: float | None = None,
                       spectral_bandwidth: float | None = None) -> StationaryReport:
    """Run the full stationary estimation pipeline on one stream.

    Unset bins follow the spectral bandwidth B (``spectral_bandwidth``, else
    the sidecar's): 1/(50 B) wide out to 5/B, the baseline from 3/B.  With
    no B, ``bin_width`` is needed (else an EstimationError), max tau is 500
    bins and the baseline its second half.  One all-pairs walk gives the
    curve and g2(0); a binning without a histogram or baseline bins is a
    ValueError naming all three.  Dead time > 0 is flagged ``dead_time_biased``."""
    if stream.is_pulsed:
        raise ValueError("analyze_stationary handles stationary streams; use "
                         "analyze_stream for pulsed runs")
    bandwidth = (stream.metadata.get("stationary", {}).get("spectral_bandwidth")
                 if spectral_bandwidth is None else spectral_bandwidth)
    if not bandwidth and bin_width is None:
        raise EstimationError("cannot choose a bin width: pass bin_width or "
                              "spectral_bandwidth (bandwidth unknown)")
    bin_width = 1.0 / (50.0 * bandwidth) if bin_width is None else bin_width
    if max_tau is None:
        max_tau = 5.0 / bandwidth if bandwidth else 500.0 * bin_width
    base_from = 3.0 / bandwidth if bandwidth else max_tau / 2.0
    try:
        curve = stationary_conditional_probability(stream, bin_width, max_tau)
        g2_zero, g2_sigma = curve.g2_zero(base_from)
    except ValueError as exc:
        raise ValueError(f"bin width {bin_width:g} s, max tau {max_tau:g} s, "
                         f"baseline from {base_from:g} s: {exc}") from exc
    return StationaryReport(
        pc_peak_per_second=float(curve.pc[0]), pc_baseline_per_second=curve.baseline(base_from),
        g2_zero=g2_zero, g2_zero_sigma=g2_sigma, excess_fwhm_seconds=curve.excess_fwhm(base_from),
        total_clicks=curve.total_clicks, flags=_detector_flags(stream.metadata), curve=curve)


def _detector_flags(meta):
    """``dead_time_biased`` for a sidecar detector dead time > 0, which biases
    every pulsed route and the stationary g2(0) low and which none corrects."""
    return ["dead_time_biased"] if (meta.get("detector", {}).get("dead_time") or 0) > 0 else []


def _parse_sidecar_label(meta, key, parse, flags):
    """The object a sidecar spec label names, or None (flagged) if it does not parse."""
    label = meta.get(key)
    if not label:
        return None
    try:
        return parse(label)
    except (ValueError, OSError):
        flags.append(f"{key}_label_unparsed")
        return None
