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
# 40,000 pulses span three pulse blocks, 0.06 s of field two chunks
STREAMS = {
    "gauss-ideal": lambda: _pulsed(st.coherent(1.0), md.gaussian_mode(WIDTH), 40000, 1),
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

# (value, sigma) of the ratio routes that walk pairs
RATIOS = {
    "sidepeak-jitter": lambda: est.g2_sidepeak(_stream("gauss-jitter"), _TRAIN, 3e-9),
    "sidepeak-jitter-wide": lambda: est.g2_sidepeak(_stream("gauss-jitter"), _TRAIN,
                                                   PERIOD / 2, n_side=5),
    "sidepeak-dead": lambda: est.g2_sidepeak(_stream("gauss-dead"), _TRAIN, 0.4 * PERIOD),
    "g2-zero-stationary": lambda: est.stationary_g2_zero(_stream("stationary-gaussian"),
                                                        2e-8, 5e-6, 3e-6),
}

MADE_WITH = {"pulseg2": "0.5.0", "numpy": "2.4.6"}

DIGESTS = {
    "gauss-ideal": "da6d5ae66573d55a3e52090e3f04dc4ee31e7adac6c83930326619c914797642",
    "gauss-jitter": "35140df09e7abbe814e9c3834e0c300dff6776cbee1c7f1cdb1b2fbeff411c04",
    "gauss-dead": "17a6de2189b40d6c10f1c7b7d4ec1e23309b921b7ebfaf8dadff9572234a19ee",
    "hg1-ideal": "e290b0e04bb29d703537dec11197259d5100443e9e256b79efc3294044483c8e",
    "hg1-jitter-dead": "d7aca2bdcf52594dfc873805e2e77b8bbc6fd34545c61db869aad0b82f924c94",
    "hg3-ideal": "d896c2d2b18e4130ed15da81f6c9bc835ec680d3ca0eb2648df6fc3861672f01",
    "sampled-ideal": "f6e9dd9e4684d49281ff3d1c9836bab16ae0f870648aad48a6926cdd687c718d",
    "sampled-jitter-dead": "133c38b63e24a10e0c24954aa7d2a013a5d0a5e03a7a4f590a4ccc3ad3a08fb9",
    "stationary-gaussian": "17afc62250532a51e830f3ddc17aae3cf4bc10e60195bdab4424c8409f6a3563",
    "stationary-lorentzian": "1d9320fdf80ad0aa9ff323d0e47a5f28a98366b367f1fca658cfad55b82b6370",
    "stationary-jitter-dead": "f906cab94417bff80958a5199f3c5353a8ab75cdd9768e8c2b975ff84c26b72a",
    "poisson": "2ca8c4c023df2b37b8314b63e6e89d063b05ec4c3bf6835bdb003bb53175b8b4",
    "same-pulse-default": "8c5f2c82bd57c10a5b9a0f6f5ea8e2daf63d6ad4cc47959eaf98d181eb6569b4",
    "same-pulse-wide": "1a3178d9e4307391a633dabd218844fb9e0b1505defd59b48a878813c1473e8d",
    "same-pulse-hg1": "164645243dbb70b279c06992bc950a0666bb15a06a73de6849781ce84be5baa5",
    "all-pairs-pulsed": "cc7879b55c4db131598014180a4b9c3e3e76d1d00e92322b6515c04df8cca312",
    "all-pairs-stationary": "14a478009be156cf3edc54e95cd9db02ead5622907d20996b6184cb4fa6e012c",
    "start-stop-stationary": "0445da64303f317cfbf3d92114bde3db48163f3ef5b2267efbe94dbdaf935b9c",
    "sidepeak-jitter": "3574815fa2a28fd1a26fc4ced13488deb158d59af752207ae2aa8538cbe90f8d",
    "sidepeak-jitter-wide": "28a923487e486ab563e8fe4e7882c3fd38a53367d1ea30ffcf8c79ddf659c26c",
    "sidepeak-dead": "caeb6cd62f99ba391478e2f66e5dfbf46fd667dbbf38a7ac3b4e55ab3d4851e5",
    "g2-zero-stationary": "1dd4f1a782752751b4f0a47d7f26f886aa246d7321cf8491500cd4d484ec5601",
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
