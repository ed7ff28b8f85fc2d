#!/usr/bin/env python3
"""Temporal modes and the pulse-shape overlap factor eta(tau).

eta is the normalized intensity autocorrelation of the pulse.  It has
units of inverse time, integrates to one, and its peak eta(0) is the
effective inverse pulse width.  For a Gaussian pulse of amplitude width
dt_p it is Gaussian again, with standard deviation dt_p and peak
1/(sqrt(2 pi) dt_p).  Everything a pulsed correlation measurement knows
about the pulse shape enters through this one function.
"""

import numpy as np

import pulseg2 as pg

DT = 1e-9  # 1 ns pulse

mode = pg.gaussian_mode(DT)
tau = np.linspace(-5 * DT, 5 * DT, 201)
numeric = np.asarray(pg.eta_numeric(mode, tau))
closed = np.asarray(pg.eta_gaussian(DT, tau))

print("=== gaussian pulse, 1 ns ===")
print(f"eta(0) numeric     : {pg.eta_numeric(mode, 0.0):.6e} 1/s")
print(f"eta(0) closed form : {pg.eta_gaussian(DT, 0.0):.6e} 1/s")
print(f"max relative error over +-5 widths: {np.max(np.abs(numeric - closed) / closed):.2e}")
profile = pg.eta_profile(mode)
print(f"integral of eta over tau: {profile.integral():.9f} (exactly 1 in the continuum)")

print()
print("=== width scaling ===")
for w in (0.5 * DT, DT, 2 * DT):
    print(f"dt_p = {w:.1e} s  ->  eta(0) = {pg.eta_gaussian(w, 0.0):.3e} 1/s")
print("halving the pulse doubles eta(0): shorter pulses squeeze the same")
print("photons into less time, which is bunching by geometry alone.")
# the paper's figure 4: g2p/g2q = eta(0)/N against width, for three record
# lengths, widths up to a tenth of a 12.5 ns repetition period
widths = np.tile(np.geomspace(1e-12, 12.5e-9 / 10.0, 25), 3)
pulses = np.repeat([100, 10000, 1000000], 25)
ratio = pg.eta_gaussian(1.0, 0.0) / (widths * pulses)
np.savetxt("figure4_g2p_over_g2q.csv", np.column_stack([widths, pulses, ratio]),
           fmt=("%.12g", "%d", "%.12g"), delimiter=",", comments="",
           header="delta_tp_seconds,num_pulses,g2p_over_g2q")
print(f"g2p/g2q = eta(0)/N runs from {ratio.max():.3e} (1 ps, N = 1e2) to "
      f"{ratio.min():.3e} (1.25 ns, N = 1e6)")
print("wrote figure4_g2p_over_g2q.csv")

print()
print("=== beyond gaussians ===")
hg = pg.hermite_gauss_mode(2, DT)
print(f"{hg.label}: eta(0) = {pg.eta_numeric(hg, 0.0):.4e} 1/s, "
      f"integral {pg.eta_profile(hg).integral():.6f}")

h = 2e-11
t = np.arange(-8e-9, 8e-9 + h / 2, h)
v = np.exp(-((t - 1e-9) ** 2) / (2 * (0.8e-9) ** 2)) \
    + 0.5 * np.exp(-((t + 1.5e-9) ** 2) / (2 * (0.5e-9) ** 2))
sampled = pg.sampled_mode(t, v.astype(complex), label="sampled:double-hump")
print(f"{sampled.label}: eta(0) = {pg.eta_numeric(sampled, 0.0):.4e} 1/s, "
      f"integral {pg.eta_profile(sampled).integral():.6f}")
print("eta stays symmetric and unit-mass even for asymmetric pulses.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(tau * 1e9, numeric * 1e-9, label="gaussian, numeric")
    ax.plot(tau * 1e9, closed * 1e-9, "--", label="gaussian, closed form")
    ax.plot(tau * 1e9, np.asarray(pg.eta_numeric(sampled, tau)) * 1e-9,
            label="double-hump, numeric")
    ax.set_xlabel("tau (ns)")
    ax.set_ylabel("eta (1/ns)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo02_eta.png", dpi=120)
    print("\nsaved demo02_eta.png")
except ImportError:
    print("\n(matplotlib not installed; skipped the plot)")
