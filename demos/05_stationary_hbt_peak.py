#!/usr/bin/env python3
"""Stationary chaotic light: the classic bunching peak.

For a stationary source the conditional click rate pc(tau) is measurable
directly and normalizes itself: its large-lag baseline is the mean count
rate, and peak/baseline = g2(0) = 2 for chaotic light.  This is the
reference picture that pulsed sources break, because a pulse train has no
flat baseline to divide by.
"""

import numpy as np

import pulseg2 as pg

BW = 1e6          # spectral bandwidth: 1 us correlation time
RATE = 3e5        # detected counts per second
DURATION = 1.0

cfg = pg.StationaryThermalConfig(mean_rate=RATE, spectral_bandwidth=BW,
                                 duration=DURATION)
stream = pg.simulate_stationary_thermal(cfg, pg.DetectorModel(), seed=21)
print(f"simulated {stream.n_clicks} clicks over {DURATION} s "
      f"(Cox process driven by |E(t)|^2)")

# the library's stationary report: bins of 1/(50 BW) out to 5/BW, baseline from 3/BW
report = pg.analyze_stationary(stream)
curve = report.curve
print(f"baseline rate : {report.pc_baseline_per_second:.4g} 1/s "
      f"(mean detected rate {RATE:.4g})")
print(f"peak/baseline : {report.g2_zero:.3f} +- {report.g2_zero_sigma:.3f} (chaotic light: 2)")
print(f"excess fwhm   : {report.excess_fwhm_seconds:.3e} s "
      f"(correlation time {1 / BW:.0e} s)")

# the control's sidecar has no bandwidth: pass it, for the same bins
control = pg.simulate_stationary_poisson(RATE, DURATION, seed=22)
flat = pg.analyze_stationary(control, spectral_bandwidth=BW)
print(f"poisson control peak/baseline: {flat.g2_zero:.3f} (flat: 1)")

print()
print("key contrast with pulses: measuring a stationary source longer")
print("raises pc(tau) proportionally at every lag, so ratios like")
print("peak/baseline are stable; a pulsed D(tau) just accumulates pairs")
print("with no baseline, which is why g2p falls as 1/N instead.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    g2 = curve.pc / report.pc_baseline_per_second
    ref = 1 + np.exp(-np.pi * curve.tau**2 * BW**2)
    fig, ax = plt.subplots(figsize=(6.5, 4))
    ax.plot(curve.tau * 1e6, g2, label="estimated g2(tau)")
    ax.plot(curve.tau * 1e6, ref, "k--", label="1 + |g1|^2 (chaotic field)")
    ax.plot(flat.curve.tau * 1e6, flat.curve.pc / flat.pc_baseline_per_second, alpha=0.6,
            label="poisson control")
    ax.set_xlabel("tau (us)")
    ax.set_ylabel("g2")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo05_hbt_peak.png", dpi=120)
    print("saved demo05_hbt_peak.png")
except ImportError:
    print("(matplotlib not installed; skipped the plot)")
