"""Synthetic detector click streams and their closed-form expectations.

Pulsed light
------------
For light in a single temporal mode the n-photon coincidence density
factorizes: measuring photons at times t_1..t_n has density proportional
to the pair/triple/... factorial moment of the photon-number distribution
times the product |v(t_1)|^2 ... |v(t_n)|^2.  Conditional on the photon
number, arrival times therefore carry no information about the state and
are i.i.d. draws from the intensity profile |v(t)|^2.  Efficiency s keeps
each photon independently, so a pulse's clicks follow the thinned P'_m =
sum_n P_n Binomial(n, s)(m), built once per train, and the sampler spends
its work on clicks, not pulses.  Per block of B = 2^17 pulses (one Philox
per train, re-keyed per block) it

1. draws how many pulses click, Binomial(B, 1 - P'_0), and which ones,
   as a sorted uniform subset; pulses without clicks cost nothing,
2. draws each one's click number from P'_m given m >= 1 (inverse CDF),
3. after the blocks of a slice, gives each of its clicks an arrival time
   i.i.d. from |v(t)|^2 in its pulse slot, by exact rejection under a
   piecewise-constant envelope built once per train (one sampler for
   every mode), each candidate's cell picked in O(1) from the envelope's
   alias table.

Every source yields its clicks in slices, whole pulse blocks until the
slice holds `_SLICE` clicks or one field chunk each, to one
finisher (`_ordered_slices`): optional Gaussian timing jitter, a stable
time sort of the slice after the clicks held back from the slice before,
the emission of the clicks that no later slice can precede,
non-paralyzable dead time carried across slices and the sidecar
metadata, which records the package version that made the stream.  The
slices are exactly the stream one global stable sort would make, or the
finisher raises.  Each stage holds one slice, so `pulseg2 simulate`,
which writes each slice as it comes, holds memory that does not grow
with the record; `simulate_*` gathers the slices into one `ClickStream`.

The matching analytic curves are

    D(tau) = N s^2 F2 * eta(tau)              pair time-difference density
    Ip(N) = N s nbar                          expected total clicks

with nbar and F2 the first and second factorial moments of P_n, so that
D(tau) = Ip^2 g2q eta(tau) / N holds identically.

Stationary chaotic light
------------------------
A complex circular-Gaussian field is synthesized by filtering white noise
with a kernel whose correlation time is 1/bandwidth (integrated-|g1|^2
convention); clicks then come from an inhomogeneous Poisson process driven
by the squared field magnitude (a Cox process).  That reproduces the
bunching peak g2(0) = 2 of chaotic light with baseline 1.  The noise,
one complex sample per m cells (4 on the default Gaussian grid, 1 for
the Lorentzian), is drawn in polar form, sqrt(2X) e^(2 pi i U) with
X ~ Exp(1) and U uniform (Box & Muller 1958), in float32, and filtered
polyphase by numpy FFT overlap-add in complex64 (kernel transform
computed once per run, convolution tail carried row to row), one row
group of `_FIELD_GROUP` cells at a time in preallocated buffers.  Each
group's float32 |E|^2 gives its clicks while in cache, thinned from
candidates under each `_FIELD_BLOCK`-cell block's largest intensity.
Each chunk's noise powers and phases and its candidates' counts and
places continue one Philox stream each, so neither the field nor the
clicks depend on the group size.  The module needs numpy alone.

Determinism: all randomness flows from the seed through fixed-size work
blocks (`rngutil`), so identical (seed, config, package version) gives a
bit-identical stream.  Arrival offsets and jitter each come from their
own substream over the clicks in block order, so without dead time the
clicks of the first k * _PULSE_BLOCK pulses (or k field chunks) of a
longer train (or stationary record) are exactly the stream of the shorter one.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import modes as _modes
from . import states as _states
from ._version import __version__
from .errors import StreamFormatError
from .rngutil import block_generator, block_generators, derive_roots
from .streams import _MAX_PULSES, _SLICE, ClickStream, _stream

__all__ = [
    "DetectorModel",
    "PulseTrainConfig",
    "StationaryThermalConfig",
    "simulate_pulse_train",
    "simulate_stationary_thermal",
    "simulate_stationary_poisson",
    "analytic_D",
    "analytic_Ip",
]

_PULSE_BLOCK = 1 << 17
# clicks held back at a slice boundary, in jitter sigmas (see `_ordered_slices`)
_JITTER_MARGIN = 40.0
_FIELD_CHUNK = 1 << 20
# cells per row group of the field filter; not part of the RNG layout
_FIELD_GROUP = 1 << 16
# cells per block of the stationary click draw, thinned under its largest intensity
_FIELD_BLOCK = 64
# FFT length of the overlap-add field filter, raised for kernels over 1/4 of it
_FILTER_FFT = 1 << 12


def _number(name, value):
    """``value`` as the Python number the sidecar's JSON writes (an integer
    as an int, a numpy scalar too); a bool, None, or any other value that
    is not a finite real number is a ValueError naming ``name``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def _hold_numbers(config, *names):
    """Hold each named field of the frozen ``config`` as its `_number`."""
    for name in names:
        object.__setattr__(config, name, _number(name, getattr(config, name)))


@dataclass(frozen=True)
class DetectorModel:
    """Detection efficiency plus optional timing jitter and dead time.

    The defaults describe the ideal detector for which efficiency enters
    every expectation as a pure prefactor.
    """

    efficiency: float = 1.0
    timing_jitter_sigma: float = 0.0
    dead_time: float = 0.0

    def __post_init__(self):
        _hold_numbers(self, "efficiency", "timing_jitter_sigma", "dead_time")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.timing_jitter_sigma < 0 or self.dead_time < 0:
            raise ValueError("jitter and dead time must be >= 0")


@dataclass(frozen=True)
class PulseTrainConfig:
    """A train of identical, well-separated pulses.

    The repetition period must exceed ten times the mode width so that
    each pulse stays single-mode within its own slot; pulse i is centered
    at (i + 1/2) * repetition_period plus the mode's own center offset.
    """

    num_pulses: int
    repetition_period: float
    mode: _modes.TemporalMode

    def __post_init__(self):
        _hold_numbers(self, "num_pulses", "repetition_period")
        if not 1 <= self.num_pulses <= _MAX_PULSES or self.num_pulses != int(self.num_pulses):
            raise ValueError(f"num_pulses must be an integer in [1, {_MAX_PULSES}]")
        object.__setattr__(self, "num_pulses", int(self.num_pulses))
        if not self.repetition_period > 0:
            raise ValueError("repetition_period must be positive")
        spread = self.mode.width * math.sqrt(2.0 * self.mode.order + 1.0)
        if not self.repetition_period > 10.0 * spread:
            raise ValueError(
                f"repetition_period {self.repetition_period:g} must exceed 10x "
                f"the pulse width {spread:g}: pulses would overlap")


@dataclass(frozen=True)
class StationaryThermalConfig:
    """Chaotic (thermal) stationary source.

    ``mean_rate`` is the pre-efficiency mean photocount rate;
    ``spectral_bandwidth`` fixes the field correlation time 1/bandwidth
    (the integral of |g1|^2).  The field grid must resolve that time:
    field_timestep <= 1/(20 bandwidth), which is also the default.
    """

    mean_rate: float
    spectral_bandwidth: float
    duration: float
    field_timestep: float | None = None
    spectral_shape: str = "gaussian"

    def __post_init__(self):
        _hold_numbers(self, "mean_rate", "spectral_bandwidth", "duration")
        if self.mean_rate < 0 or self.spectral_bandwidth <= 0 or self.duration <= 0:
            raise ValueError("mean_rate must be >= 0, spectral_bandwidth and duration "
                             "positive")
        limit = 1.0 / (20.0 * self.spectral_bandwidth)
        if self.field_timestep is None:
            object.__setattr__(self, "field_timestep", limit)
        _hold_numbers(self, "field_timestep")
        if not 0 < self.field_timestep <= limit * (1 + 1e-12):
            raise ValueError(
                f"field_timestep must be <= 1/(20*bandwidth) = {limit:g}")
        if self.duration * self.spectral_bandwidth < 10.0:
            raise ValueError("duration must be much longer than 1/bandwidth")
        if self.spectral_shape not in ("gaussian", "lorentzian"):
            raise ValueError("spectral_shape must be 'gaussian' or 'lorentzian'")


# ---------------------------------------------------------------------------
# pulsed simulation


def _arrival_envelope(mode):
    """The mode's grid t, its cell widths and I = |v|^2 bounded on cell i by
    1.001 max(I[i], I[i+1]), above I everywhere inside the cell."""
    t, _ = _modes._grid(mode)
    intensity = _modes.intensity_profile(mode, t)
    return t, np.diff(t), 1.001 * np.maximum(intensity[:-1], intensity[1:])


def _alias_table(mass):
    """Walker's alias table for picking cell i with probability mass[i] / sum.

    Cell i keeps itself with probability prob[i], else gives alias[i]
    (Walker 1977; Vose 1991).  Built as Vose's pairing in bulk rounds:
    each round a cell at or above the mean (prob >= 1) offers floor(prob)
    slots, since that many cells of deficit 1 - prob <= 1 leave it >= 0,
    and the cells under the mean fill the slots in order.  A donor left
    under the mean joins the next round's cells to place; cells left over
    hold the mean up to rounding: prob 1."""
    prob = mass * (mass.size / mass.sum())
    alias = np.arange(mass.size)
    small, large = np.flatnonzero(prob < 1.0), np.flatnonzero(prob >= 1.0)
    while small.size and large.size:
        slots = np.repeat(np.arange(large.size), prob[large].astype(np.intp))
        k = min(small.size, slots.size)
        s, to = small[:k], slots[:k]
        alias[s] = large[to]
        prob[large] = ((prob[large] + np.bincount(to, prob[s], large.size))
                       - np.bincount(to, minlength=large.size))
        under = prob[large] < 1.0
        small = np.concatenate([small[k:], large[under]])
        large = large[~under]
    prob[small] = 1.0
    prob[large] = 1.0
    return prob, alias


def _arrival_sampler(mode, rng):
    """``(draw, earliest)``: ``draw(count)`` gives the next ``count`` arrival
    times from the pulse slot center, i.i.d. from |v|^2, none below ``earliest``.

    Exact rejection under `_arrival_envelope` (Devroye 1986, II.3), accepting
    over 99 %.  A candidate is a row of three uniforms: a cell picked by bound
    in O(1) from `_alias_table` (u0 n is the column, clamped to n - 1 as
    n (1 - 2^-53) may round to n, and its fraction the coin), a uniform
    place in it, acceptance against |v|^2.
    Rows are drawn in order, `_SLICE` at a time, and accepted rows left
    over from one draw serve the next: photon k takes the k-th accepted
    row, so the offsets do not depend on `_SLICE` (not part of the RNG
    layout) or on how the photons are split between draws."""
    t, step, bound = _arrival_envelope(mode)
    mass = bound * step
    prob, alias = _alias_table(mass)
    n = mass.size
    surplus = np.empty(0)

    def draw(count):
        nonlocal surplus
        out = np.empty(count)
        filled = min(surplus.size, count)
        out[:filled] = surplus[:filled]
        surplus = surplus[filled:]
        while filled < count:
            u = rng.random((_SLICE, 3))
            x = u[:, 0] * n
            column = np.minimum(x.astype(np.intp), n - 1)
            cell = np.where(x - column < prob[column], column, alias[column])
            cand = t[cell] + u[:, 1] * step[cell]
            good = cand[u[:, 2] * bound[cell] < _modes.intensity_profile(mode, cand)]
            take = min(good.size, count - filled)
            out[filled:filled + take] = good[:take]
            filled += take
            surplus = good[take:]
        return out
    return draw, float(t[0])


def _pulse_block(cdf, lo, hi, rng):
    """Pulse index of each click in pulses [lo, hi); only pulses with clicks are drawn."""
    clicked = cdf[-1] - cdf[0]
    k = rng.binomial(hi - lo, min(clicked, 1.0))
    pulses = lo + np.sort(rng.choice(hi - lo, k, replace=False, shuffle=False))
    # clicks given m >= 1: inverse CDF at u uniform on [cdf[0], cdf[-1]), or at
    # cdf[-1] if the product rounds up, which the clamp catches
    m = np.searchsorted(cdf, cdf[0] + rng.random(k) * clicked, side="right")
    return np.repeat(pulses, np.minimum(m, cdf.size - 1))


def _pulse_train_slices(state, detector, train, seed):
    """The train's stream as `_ordered_slices` of whole pulse blocks.

    A slice draws its blocks' pulse indices in turn until it holds
    `_SLICE` clicks (not part of the RNG layout), so it holds fewer than
    that many plus one block's; then the next offsets of the train's one
    arrival sampler and its times in place in them.  A later slice's
    pulses start at its first pulse, so none of its times lies below that
    pulse's slot center plus the sampler's earliest offset.
    """
    pmf = _states.binomial_loss_pn(state.pn, detector.efficiency)
    cdf = np.cumsum(pmf)
    roots = derive_roots(seed)
    block_rng = block_generators(roots[0])
    arrivals, earliest = _arrival_sampler(train.mode, block_generator(roots[4], 0))
    n, period = train.num_pulses, train.repetition_period

    def raw():
        blocks, clicks = [], 0
        for lo in range(0, n, _PULSE_BLOCK):
            hi = min(lo + _PULSE_BLOCK, n)
            blocks.append(_pulse_block(cdf, lo, hi, block_rng(lo // _PULSE_BLOCK)))
            clicks += blocks[-1].size
            if hi < n and clicks < _SLICE:
                continue
            pulse_idx = np.concatenate(blocks)
            blocks, clicks = [], 0
            times = arrivals(pulse_idx.size)
            times += (pulse_idx + 0.5) * period
            yield pulse_idx, times, earliest + (hi + 0.5) * period if hi < n else math.inf
    return _ordered_slices(raw(), detector, seed, "pulsed", state.label, train.mode.label,
                           train={"num_pulses": n, "repetition_period": period})


def simulate_pulse_train(state: _states.QuantumState, detector: DetectorModel,
                         train: PulseTrainConfig, seed) -> ClickStream:
    """Monte Carlo click stream for a pulse train.

    Work is split into fixed blocks of pulses, each with its own
    counter-based substream, so a block's clicks depend only on the seed
    and the block index; the time-sorted slices of `_pulse_train_slices`
    are gathered into one stream.
    """
    return _gather(_pulse_train_slices(state, detector, train, seed))


# ---------------------------------------------------------------------------
# the finisher: jitter, time order across slices, dead time


def _dead_time_end(last, dead):
    """Per entry of ``last``, the smallest double t with t - last >= dead as
    floating point computes it: last + dead, moved by the ulp or so by
    which its rounding may miss."""
    end = last + dead
    while np.any(short := end - last < dead):
        end[short] = np.nextafter(end[short], np.inf)
    while np.any(fits := np.nextafter(end, -np.inf) - last >= dead):
        end[fits] = np.nextafter(end[fits], -np.inf)
    return end


def _dead_time_filter(pulse_idx, times, dead, last=-math.inf):
    """Non-paralyzable dead time on sorted times: the kept pulse_idx (None
    stays None) and times, and the last kept time.

    A click is dropped when it lies less than ``dead`` after the last kept
    one, ``last`` before the first click.  A click ``dead`` or more after
    its predecessor is always kept; the clicks closer to theirs form runs,
    each after the kept click that opens it.  Every run advances at once
    to its next kept click, the first at or past `_dead_time_end` of its
    last (`searchsorted`), until that passes the run's end: one vectorized
    step per kept click of the longest run.
    """
    if dead <= 0 or times.size == 0:
        return pulse_idx, times, times[-1] if times.size else last
    keep = np.empty(times.size, dtype=bool)
    keep[0] = times[0] - last >= dead
    np.greater_equal(np.diff(times), dead, out=keep[1:])
    closed = np.flatnonzero(~keep)      # in runs, each after the click opening it
    if closed.size:
        first = np.flatnonzero(np.diff(closed, prepend=-2) != 1)
        end = closed[np.append(first[1:], closed.size) - 1] + 1
        prev = times[closed[first] - 1]
        if closed[0] == 0:              # the first clicks continue the carried run
            prev[0] = last
        while prev.size:
            nxt = np.searchsorted(times, _dead_time_end(prev, dead))
            live = nxt < end
            nxt, end = nxt[live], end[live]
            keep[nxt] = True
            prev = times[nxt]
    times = times[keep]
    return (None if pulse_idx is None else pulse_idx[keep], times,
            times[-1] if times.size else last)


def _ordered_slices(raw, detector, seed, kind, state, mode, **config):
    """Yield a source's stream as time-ordered `ClickStream` slices.

    ``raw`` yields (pulse_idx or None for stationary light, times, floor) per
    slice in generation order; floor is a lower bound of every later
    slice's times before jitter (inf after the last).  Jitter continues
    one root-3 stream over the clicks in generation order.  The clicks
    held back so far and the new slice are stably sorted together, which
    is the global stable sort restricted to them, so each slice sorts on
    its own; index-free times sort alone, and times in order not at all.
    The clicks at or below floor - _JITTER_MARGIN sigma are emitted, the
    rest held back.  A later click precedes an emitted one only if its
    jitter lies below -_JITTER_MARGIN sigma: a chance under n_clicks
    Phi(-40) < 1e-340 per stream.  Each slice is checked against the last
    emitted click, and one that would precede it raises StreamFormatError
    rather than change the stream; a failed check is the only way the
    slices can differ from the whole stream sorted at once.  Dead time
    carries the last kept time across the slices.  Every slice carries the
    sidecar metadata, which records the package version; the last raw
    slice always yields, so there is at least one.
    """
    meta = {"kind": kind, "seed": int(seed), "state": state, "mode": mode,
            "detector": asdict(detector), **config, "pulseg2": __version__}
    sigma, dead = detector.timing_jitter_sigma, detector.dead_time
    jitter = block_generator(derive_roots(seed)[3], 0) if sigma > 0 else None
    held_idx, held = None, np.empty(0)
    emitted = kept = -math.inf
    for pulse_idx, times, floor in raw:
        if jitter is not None:
            times += jitter.standard_normal(times.size) * sigma
        if times.size and times.min() < emitted:
            raise StreamFormatError(
                f"a click at {times.min()!r} s precedes one already emitted at "
                f"{emitted!r} s: its jitter passed {_JITTER_MARGIN:g} sigma")
        if held.size:
            times = np.concatenate([held, times])
            if pulse_idx is not None:
                pulse_idx = np.concatenate([held_idx, pulse_idx])
        if np.any(times[1:] < times[:-1]):
            if pulse_idx is None:
                times.sort()
            else:
                order = np.argsort(times, kind="stable")
                pulse_idx = pulse_idx[order]
                times = times[order]
                del order
        cut = int(np.searchsorted(times, floor - _JITTER_MARGIN * sigma, "right"))
        held = times[cut:].copy()
        held_idx = None if pulse_idx is None else pulse_idx[cut:].copy()
        if cut or floor == math.inf:
            emitted = times[cut - 1] if cut else emitted
            out_idx, out, kept = _dead_time_filter(
                None if pulse_idx is None else pulse_idx[:cut], times[:cut], dead, kept)
            del pulse_idx, times        # the slice alone holds what it keeps
            yield _stream(out_idx, out, meta)
            del out_idx, out


def _gather(slices) -> ClickStream:
    """One `ClickStream` of a source's slices."""
    parts = list(slices)
    if len(parts) == 1:
        return parts[0]
    meta = parts[0].metadata
    times = np.concatenate([part.times for part in parts])
    pulse_idx = (None if meta["kind"] == "stationary"
                 else np.concatenate([part.pulse_index for part in parts]))
    return _stream(pulse_idx, times, meta)


# ---------------------------------------------------------------------------
# stationary simulation


def _field_kernel(cfg: StationaryThermalConfig, dt: float) -> np.ndarray:
    """Filter impulse response whose autocorrelation is the field g1.

    Gaussian: |g1(tau)|^2 = exp(-pi tau^2 bandwidth^2), so the integrated
    coherence time int |g1|^2 dtau equals 1/bandwidth; the lorentzian
    option gives g1 = exp(-|tau| * bandwidth) with the same integral.
    """
    if cfg.spectral_shape == "gaussian":
        sigma_h = 1.0 / (math.sqrt(2.0 * math.pi) * cfg.spectral_bandwidth)
        half = int(math.ceil(6.0 * sigma_h / dt))
        k = np.arange(-half, half + 1) * dt
        ker = np.exp(-k**2 / (2.0 * sigma_h**2))
    else:
        # one-sided exponential kernel: g1 = exp(-bandwidth |tau|), whose
        # squared magnitude integrates to 1/bandwidth as well
        tau_l = 1.0 / cfg.spectral_bandwidth
        n_k = int(math.ceil(12.0 * tau_l / dt))
        ker = np.exp(-np.arange(n_k + 1) * dt / tau_l)
    return ker / math.sqrt(float(np.sum(ker**2)))


def _field_decimation(cfg: StationaryThermalConfig, dt: float) -> int:
    """Field cells per noise sample, m: for the Gaussian kernel the largest
    power of two <= pi sigma_h / (6 dt), so its aliasing, exp(-pi^2 sigma_h^2
    / (m dt)^2) <= e^-36, stays below its 6 sigma cut; else 1 (no band limit)."""
    if cfg.spectral_shape != "gaussian":
        return 1
    sigma_h = 1.0 / (math.sqrt(2.0 * math.pi) * cfg.spectral_bandwidth)
    return 1 << (int(math.pi * sigma_h / (6.0 * dt)).bit_length() - 1)


def _polar_noise(power, phase, z, count):
    """Fill complex64 ``z`` with ``count`` circular Gaussian samples sqrt(2X)
    e^(2 pi i U) in row order and zeros after (Box & Muller 1958): X ~ Exp(1)
    from ``power``, U ~ U[0, 1) from ``phase``, each one float32 draw.  Re and
    Im are independent unit normals."""
    radius, angle = np.zeros((2,) + z.shape, np.float32)
    power.standard_exponential(dtype=np.float32, out=radius.reshape(-1)[:count])
    phase.random(dtype=np.float32, out=angle.reshape(-1)[:count])
    radius += radius
    np.sqrt(radius, out=radius)
    angle *= np.float32(2.0 * math.pi)
    np.cos(angle, out=z.real)
    np.sin(angle, out=z.imag)
    z.real *= radius
    z.imag *= radius


def _field_intensity_groups(kernel, m, roots, n_grid):
    """Yield (chunk index, first cell, |E|^2) per row group of the field grid.

    The noise, one complex sample at every m-th cell and zeros between, is
    filtered by sqrt(m) times the kernel (polyphase interpolation; Crochiere
    & Rabiner 1983).  A chunk is whole rows of step cells, filtered in
    groups of `_FIELD_GROUP` cells (whole rows, at most the chunk or the
    record rounded up to a row) in one complex64 (rows, nfft) buffer.  A
    group's ceil(cells / m) samples are one `_polar_noise` draw into the
    row heads of a (rows, nfft / m) buffer with zero tails, continuing the
    chunk's generators (root 1 the powers, root 5 the phases), so n cells
    draw ceil(n / m) of each whatever the group size.  Their FFT, tiled m
    times, is the zero-stuffed row's; it goes into the row heads, and the
    kernel product and inverse FFT run in place.  Each row's outputs past
    step add into the next row's head, across groups and chunks alike, and
    |E|^2, squared and summed in float32, goes into one (rows, step) buffer,
    zero past the record, that every group reuses.  E|E|^2 = 2.
    """
    taps = kernel.size
    nfft = max(_FILTER_FFT, 1 << (4 * taps).bit_length())
    # the most cells that leave the tail, in whole blocks and noise samples
    step = (nfft - taps + 1) // max(m, _FIELD_BLOCK) * max(m, _FIELD_BLOCK)
    chunk = max(_FIELD_CHUNK // step, 1) * step
    span = min(max(_FIELD_GROUP // step, 1) * step, chunk, -(-n_grid // step) * step)
    # the forward FFT's 1/(nfft/m), a power of two, is undone exactly here
    kernel_fft = np.fft.fft(kernel * (math.sqrt(m) * (nfft // m)), nfft)
    kernel_fft = kernel_fft.astype(np.complex64).reshape(m, -1)
    y = np.empty((span // step, nfft), np.complex64)
    noise = np.zeros((span // step, nfft // m), np.complex64)
    intensity = np.empty((span // step, step), np.float32)
    carry = np.zeros(nfft - step, dtype=np.complex64)
    power_at, phase_at = block_generators(roots[1]), block_generators(roots[5])
    for c, lo in enumerate(range(0, n_grid, chunk)):
        length = min(chunk, n_grid - lo)
        power, phase = power_at(c), phase_at(c)
        for start in range(0, length, span):
            cells = min(span, length - start)
            rows = -(-cells // step)
            _polar_noise(power, phase, noise[:rows, :step // m], -(-cells // m))
            out = y[:rows]
            coarse = out[:, :nfft // m]
            # tiled m times: the zero-stuffed row's; norm="forward" keeps numpy's
            # complex64 loop, which its default unit factor does not pick
            np.fft.fft(noise[:rows], norm="forward", out=coarse)
            np.multiply(coarse[:, None], kernel_fft[1:], out=out.reshape(rows, m, -1)[:, 1:])
            coarse *= kernel_fft[0]
            np.fft.ifft(out, out=out)
            out[1:, :nfft - step] += out[:-1, step:]
            out[0, :nfft - step] += carry
            carry[:] = out[-1, step:]
            field = out[:, :step].view(np.float32)     # re, im interleaved
            np.square(field, out=field)
            np.add(field[:, 0::2], field[:, 1::2], out=intensity[:rows])
            intensity[:rows].reshape(-1)[cells:] = 0
            yield c, lo + start, intensity[:rows]


def _group_clicks(intensity, lo, mean_per_cell, counts, places):
    """Sorted click positions, in cells, for the rate mean_per_cell * I on
    cells lo, lo + 1, ... (I >= 0, float32 or float64, in whole blocks).

    Thinning under each `_FIELD_BLOCK`-cell block's largest I, M (Lewis &
    Shedler 1979): a Poisson(mean_per_cell * M * _FIELD_BLOCK) count of
    candidates per block from ``counts``, each a row of two ``places``
    uniforms, in cell floor(u0 * _FIELD_BLOCK) of its block (exact), at
    lo + block start + u0 * _FIELD_BLOCK (one rounding, whatever the group),
    kept when u1 M < I[cell]: each cell keeps a Poisson(mean_per_cell * I)
    count placed uniformly in it, never one in a zero cell."""
    flat = intensity.reshape(-1)
    starts = np.arange(0, flat.size, _FIELD_BLOCK)
    # non-negative floats order as their bits, whose integer maximum runs faster
    bound = np.maximum.reduceat(flat.view(f"i{flat.itemsize}"), starts).view(flat.dtype)
    k = counts.poisson(np.multiply(bound, mean_per_cell * _FIELD_BLOCK, dtype=np.float64))
    first = np.repeat(starts, k)
    u = places.random((first.size, 2))
    pos = u[:, 0] * _FIELD_BLOCK
    keep = u[:, 1] * np.repeat(bound, k) < flat[first + pos.astype(np.intp)]
    pos = pos[keep] + (first[keep] + lo)
    pos.sort()
    return pos


def _stationary_thermal_slices(cfg: StationaryThermalConfig, detector: DetectorModel,
                               seed):
    """The record's stream as `_ordered_slices` of one field chunk each,
    drawn group by group, continuing the chunk's root 2 and root 6 streams:
    a chunk's clicks lie at or past its first cell, so at or past the next
    chunk's start for every later one."""
    dt = cfg.field_timestep
    kernel = _field_kernel(cfg, dt)
    roots = derive_roots(seed)
    mean_per_cell = detector.efficiency * cfg.mean_rate / 2.0 * dt     # E|E|^2 = 2
    n_grid = int(round(cfg.duration / dt))
    groups = _field_intensity_groups(kernel, _field_decimation(cfg, dt), roots, n_grid)
    counts_at, places_at = block_generators(roots[2]), block_generators(roots[6])

    def raw():
        for c, chunk in itertools.groupby(groups, lambda group: group[0]):
            counts, places = counts_at(c), places_at(c)
            parts = []
            for _, lo, intensity in chunk:
                parts.append(_group_clicks(intensity, lo, mean_per_cell, counts, places))
            times = np.concatenate(parts)
            times *= dt
            hi = lo + intensity.size
            yield None, times, hi * dt if hi < n_grid else math.inf
    return _ordered_slices(raw(), detector, seed, "stationary", None, None,
                           stationary=asdict(cfg))


def simulate_stationary_thermal(cfg: StationaryThermalConfig,
                                detector: DetectorModel, seed) -> ClickStream:
    """Cox-process click stream for stationary chaotic light.

    The rate is |E(t)|^2, constant over each field timestep and scaled so
    its ensemble mean is efficiency * mean_rate; each field chunk draws
    its clicks by `_group_clicks`, from roots 2 and 6 keyed by the chunk
    index, and is one slice of `_stationary_thermal_slices`.
    """
    return _gather(_stationary_thermal_slices(cfg, detector, seed))


def simulate_stationary_poisson(mean_rate: float, duration: float, seed,
                                detector: DetectorModel | None = None) -> ClickStream:
    """Constant-rate control source (no intensity fluctuations, flat g2):
    one slice of uniform times, sorted alone."""
    mean_rate, duration = _number("mean_rate", mean_rate), _number("duration", duration)
    if mean_rate < 0 or duration <= 0:
        raise ValueError("rate must be >= 0 and duration positive")
    detector = detector or DetectorModel()
    rng = block_generator(derive_roots(seed)[0], 0)
    total = int(rng.poisson(mean_rate * detector.efficiency * duration))
    return _gather(_ordered_slices(
        [(None, rng.random(total) * duration, math.inf)], detector, seed,
        "stationary", None, None,
        stationary={"mean_rate": mean_rate, "spectral_bandwidth": None,
                    "duration": duration, "field_timestep": None,
                    "spectral_shape": "flat"}))


# ---------------------------------------------------------------------------
# closed-form expectations


def analytic_D(state, detector, mode, num_pulses, tau):
    """Expected pair time-difference density over ``num_pulses`` pulses."""
    f2 = _states.second_factorial_moment(state)
    eta = _modes.eta_numeric(mode, tau)
    return num_pulses * detector.efficiency**2 * f2 * eta


def analytic_Ip(state, detector, num_pulses) -> float:
    """Expected total click count N * s * nbar (modes are unit normalized)."""
    return num_pulses * detector.efficiency * _states.mean_photon_number(state)
