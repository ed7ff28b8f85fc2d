"""Stream and estimator digests: the determinism contract as a table.

The contract is that (seed, config, RNG layout) fixes the stream, given
the pulseg2 and numpy versions: numpy's ``Generator`` distributions and
its FFT may change between numpy releases.  Each case below is one small
fixed run; its digest is the sha256 of the bytes of the arrays it makes
(stream ``pulse_index`` and ``times``, histogram ``block_counts`` and
``block_clicks``, or a (value, sigma) pair as float64).  The table
records the versions it was made with, and a mismatch fails naming both.

A change that moves a stream or a count on purpose regenerates the table
in the same change: ``PYTHONPATH=src python tests/test_determinism.py``
prints it.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

import pulseg2
from pulseg2 import estimate as est
from pulseg2 import modes as md
from pulseg2 import simulate as sim
from pulseg2 import states as st

PERIOD = 12.5e-9
WIDTH = 1e-9
_X = np.linspace(-6.0, 8.0, 1401)
# asymmetric and complex: a Gaussian plus a narrower quadrature bump at +2 widths
SAMPLED = md.sampled_mode(_X * 5e-10, np.exp(-_X**2 / 2) + 0.6j * np.exp(-2 * (_X - 2)**2))


def _pulsed(state, mode, n_pulses, seed, **detector):
    train = sim.PulseTrainConfig(n_pulses, PERIOD, mode)
    return sim.simulate_pulse_train(state, sim.DetectorModel(**detector), train, seed)


def _stationary(shape, seed, **detector):
    cfg = sim.StationaryThermalConfig(2e5, 1e6, 0.06, spectral_shape=shape)
    return sim.simulate_stationary_thermal(cfg, sim.DetectorModel(**detector), seed)


# every source, every mode kind, with and without jitter and dead time;
# 300,000 pulses span three pulse blocks, 0.06 s of field two chunks
STREAMS = {
    "gauss-ideal": lambda: _pulsed(st.coherent(1.0), md.gaussian_mode(WIDTH), 300000, 1),
    "gauss-jitter": lambda: _pulsed(st.thermal(1.0), md.gaussian_mode(WIDTH), 20000, 2,
                                    efficiency=0.5, timing_jitter_sigma=4e-9),
    "gauss-dead": lambda: _pulsed(st.thermal(3.0), md.gaussian_mode(WIDTH), 20000, 3,
                                  dead_time=2e-9),
    "hg1-ideal": lambda: _pulsed(st.coherent(0.5), md.hermite_gauss_mode(1, 5e-10),
                                 20000, 4, efficiency=0.5),
    "hg1-jitter-dead": lambda: _pulsed(st.thermal(1.0), md.hermite_gauss_mode(1, 5e-10),
                                       20000, 5, timing_jitter_sigma=1e-10,
                                       dead_time=1e-9),
    "hg3-ideal": lambda: _pulsed(st.thermal(0.5), md.hermite_gauss_mode(3, 3e-10),
                                 20000, 6),
    "sampled-ideal": lambda: _pulsed(st.coherent(1.0), SAMPLED, 20000, 7),
    "sampled-jitter-dead": lambda: _pulsed(st.thermal(1.0), SAMPLED, 20000, 8,
                                           efficiency=0.7, timing_jitter_sigma=2e-10,
                                           dead_time=3e-9),
    "stationary-gaussian": lambda: _stationary("gaussian", 9),
    "stationary-lorentzian": lambda: _stationary("lorentzian", 10),
    "stationary-jitter-dead": lambda: _stationary("gaussian", 11, efficiency=0.5,
                                                  timing_jitter_sigma=1e-8,
                                                  dead_time=5e-8),
    "poisson": lambda: sim.simulate_stationary_poisson(2e5, 0.05, 12),
}

_TRAIN = sim.PulseTrainConfig(20000, PERIOD, md.gaussian_mode(WIDTH))

# (stream, bin_width, max_tau, scope); the jittered train's clicks of
# adjacent pulses interleave in time
HISTOGRAMS = {
    "same-pulse-default": ("gauss-jitter", WIDTH / 20, 6 * WIDTH, "same_pulse"),
    "same-pulse-wide": ("gauss-jitter", 2e-10, 4 * PERIOD, "same_pulse"),
    "same-pulse-hg1": ("hg1-ideal", 2.5e-11, 3e-9, "same_pulse"),
    "all-pairs-pulsed": ("gauss-jitter", 1e-9, 4 * PERIOD, "all_pairs"),
    "all-pairs-stationary": ("stationary-gaussian", 2e-8, 5e-6, "all_pairs"),
    "start-stop-stationary": ("stationary-lorentzian", 5e-7, 2e-5, "start_stop"),
}

# (value, sigma) of the ratio routes
RATIOS = {
    "sidepeak-jitter": lambda: est.g2_sidepeak(_stream("gauss-jitter"), _TRAIN, 3e-9),
    "sidepeak-jitter-wide": lambda: est.g2_sidepeak(_stream("gauss-jitter"), _TRAIN,
                                                   PERIOD / 2, n_side=5),
    "sidepeak-dead": lambda: est.g2_sidepeak(_stream("gauss-dead"), _TRAIN, 0.4 * PERIOD),
    "g2-zero-stationary": lambda: est.stationary_g2_zero(_stream("stationary-gaussian"),
                                                        2e-8, 5e-6, 3e-6),
    "pn-jitter": lambda: est.pn_histogram_g2q(_stream("gauss-jitter"), _TRAIN),
    "pn-dead": lambda: est.pn_histogram_g2q(_stream("gauss-dead"), _TRAIN),
}

MADE_WITH = {"pulseg2": "0.18.0", "numpy": "2.4.6"}

DIGESTS = {
    "gauss-ideal": "30f65fcb08cae091003b449649efe6bb62fce5c81401405b0b651a9e92de830d",
    "gauss-jitter": "514eb4f1d9e16b63757b80cecd2cfcdd9bceca505ba3c26f5185dd02738499c5",
    "gauss-dead": "1e3f4481f1dac043e0a185f83b0e2c944760a74724f46339775a0adaa1af7565",
    "hg1-ideal": "488b658c1f2a50b620ad0d955f901da9bece9f4fed64c3d160f0300b5b7abbe6",
    "hg1-jitter-dead": "8fde2ae5e7a7a11ec0af0d0be08669349ba045df11f7e981aeef8282e9e41c59",
    "hg3-ideal": "77eeaa5b9e9b64b17987bafc8d86a06e5022d6699e248f4acded5ce07617160b",
    "sampled-ideal": "5168b3c183bfde3738119cc56311f66e3b856f4daff6ed2cc888a28eea8d3189",
    "sampled-jitter-dead": "2062861204159f8392f350e682aa9b4c746bd65955795a7ddf6cf7709ddee7e2",
    "stationary-gaussian": "ac1ae4cd1e93c312cdf4b3ed05f14f4442fce4bbc6b47c5f2299ac5c0cda27c9",
    "stationary-lorentzian": "ee4ea45ed87d9a38aa4cec86b77a3ee72a4f66d1a5e2fba51c43888084be33da",
    "stationary-jitter-dead": "4412b276ae5f5815c40d3e36b6da5ee1d119d2574e27dcf8a7864470178ef6c3",
    "poisson": "2ca8c4c023df2b37b8314b63e6e89d063b05ec4c3bf6835bdb003bb53175b8b4",
    "same-pulse-default": "84b955df8a6eab74c19c6ec0d8f4dd13e7e130621ec252014eb1cddac634f755",
    "same-pulse-wide": "e830f49561defb6f462c0a178bd64fcf1370acc0e9a844477d932c19d27f20e4",
    "same-pulse-hg1": "9e8ef631046b642ec4694e699a487e96f2af7bc379952383d3880f9bdfd76466",
    "all-pairs-pulsed": "d6903ee4009ddf341e72b0eecba9bdfdfab01e11557b3ae8529f9e4be2a8701e",
    "all-pairs-stationary": "dfaaf65fca0638e8d5ec42602aee22fccbf4daa806d0d88fe69a06090e99a4ff",
    "start-stop-stationary": "3dfc4d43f6c76dc02839c767e1432f675eadf2b94b2d5826023f06788a5653fa",
    "sidepeak-jitter": "87e7a8336ad0594888a244414a220d6fb9120bb9aa0607e335a5fe660ff61fdc",
    "sidepeak-jitter-wide": "39ffa3e0d7d381b4eec0aeb248438cf523226d225ba3fc102f50ef769cadc93d",
    "sidepeak-dead": "b4162b1c4654273e455849148e93dc695c7303d36d4231a4151035b417f8a8b7",
    "g2-zero-stationary": "94b02e1748b6e9b2e09c5c555c14da6e80084bffed144f8c6b8c0e99a16c5406",
    "pn-jitter": "773de5252b8758e30b25c1ce8d79e94c5f818e5d5755bbc8f9d606cd6c427d0f",
    "pn-dead": "1dea61fc8e0ffbdd3217bbfbe7dd005590ff4201edcc8da8d442933ce0952f43",
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@functools.cache
def _stream(name):
    return STREAMS[name]()


def _compute(name):
    if name in STREAMS:
        s = _stream(name)
        return _digest(s.pulse_index, s.times)
    if name in HISTOGRAMS:
        stream, bin_width, max_tau, scope = HISTOGRAMS[name]
        hist = est.tau_histogram(_stream(stream), bin_width, max_tau, scope=scope)
        return _digest(hist.block_counts, hist.block_clicks)
    return _digest(np.asarray(RATIOS[name](), dtype=np.float64))


def _found_versions():
    return {"pulseg2": pulseg2.__version__, "numpy": np.__version__}


@pytest.mark.parametrize("name", [*STREAMS, *HISTOGRAMS, *RATIOS])
def test_digest(name):
    found = _found_versions()
    assert found == MADE_WITH, (
        f"the digests were made with pulseg2 {MADE_WITH['pulseg2']} and numpy "
        f"{MADE_WITH['numpy']}, this is pulseg2 {found['pulseg2']} with numpy "
        f"{found['numpy']}; if that change is meant, regenerate the table with "
        "`PYTHONPATH=src python tests/test_determinism.py`")
    assert _compute(name) == DIGESTS[name]


if __name__ == "__main__":
    print(f"MADE_WITH = {json.dumps(_found_versions())}")
    print("\nDIGESTS = {")
    for key in [*STREAMS, *HISTOGRAMS, *RATIOS]:
        print(f'    "{key}": "{_compute(key)}",')
    print("}")
