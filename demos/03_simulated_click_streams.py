#!/usr/bin/env python3
"""Simulating detector click streams for a pulse train.

Per block of pulses: draw which pulses hold photons (empty pulses cost
nothing), draw each occupied pulse's photon number from P_n given n >= 1,
thin it by the detector efficiency, and give each surviving photon an
arrival time drawn from the pulse intensity profile.  The script compares
the resulting count records for thermal versus coherent light (the
paper's figure 1, written to figure1_count_records.csv), then checks the
time-difference histogram against its closed-form density.
"""

import numpy as np

import pulseg2 as pg

WIDTH = 1e-9
PERIOD = 12.5e-9
N = 200000

mode = pg.gaussian_mode(WIDTH)
det = pg.DetectorModel(efficiency=0.5)
train = pg.PulseTrainConfig(N, PERIOD, mode)

print("=== count records: thermal vs coherent, same mean ===")
RECORD = 400   # pulses, ideal detector
records = {}
for state in (pg.thermal(4.0), pg.coherent(4.0)):
    stream = pg.simulate_pulse_train(state, pg.DetectorModel(),
                                     pg.PulseTrainConfig(RECORD, PERIOD, mode), seed=1)
    m = records[state.kind] = stream.counts_per_pulse(RECORD)
    print(f"{state.label:12s} clicks={stream.n_clicks:5d}  "
          f"per-pulse mean {m.mean():.3f}, variance {m.var():.3f}")
print("equal means, very different variances: thermal pulses arrive in")
print("bursts (super-Poissonian), coherent ones independently.")
slot = (np.arange(RECORD) + 0.5) * PERIOD
np.savetxt("figure1_count_records.csv",
           np.column_stack([slot, records["thermal"], records["coherent"]]),
           fmt=("%.12g", "%d", "%d"), delimiter=",", comments="",
           header="time_seconds,counts_thermal,counts_coherent")
print("wrote figure1_count_records.csv")

print()
print("=== time-difference histogram vs analytic density ===")
state = pg.thermal(1.0)
stream = pg.simulate_pulse_train(state, det, train, seed=8)
# the report's histogram (bins of width/20 out to 6 widths) and its analytic
# overlay D(tau) * bin_width, both from the stream's own light
report = pg.analyze_stream(stream)
hist, expected = report.histogram, report.expected
worst = np.max(np.abs(hist.counts - expected) / np.sqrt(np.maximum(expected, 1)))
print(f"pairs collected: {hist.counts.sum()}")
print(f"worst bin deviation: {worst:.2f} standard errors")
print(f"fitted histogram width: {pg.fit_pulse_width(hist):.4e} s "
      f"(pulse width {WIDTH:.1e} s)")
print("the histogram IS the intensity autocorrelation of the pulse,")
print("measured without any nonlinear optics.")

print()
print("=== exporting ===")
pg.write_stream(stream, "demo03_stream.csv")
back = pg.read_stream("demo03_stream.csv")
print(f"wrote demo03_stream.csv (+ sidecar); read back {back.n_clicks} clicks, "
      f"state={back.metadata['state']}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(7, 6))
    window = slice(0, 150)
    for name, style in (("thermal", "tab:red"), ("coherent", "tab:blue")):
        axes[0].step(slot[window] * 1e9, records[name][window],
                     where="mid", label=name, color=style, alpha=0.8)
    axes[0].set_xlabel("time (ns)")
    axes[0].set_ylabel("counts per pulse")
    axes[0].legend()
    axes[1].bar(hist.centers * 1e9, hist.counts, width=hist.bin_width * 1e9,
                alpha=0.6, label="simulated pairs")
    axes[1].plot(hist.centers * 1e9, expected, "k-", label="analytic density")
    axes[1].set_xlabel("|time difference| (ns)")
    axes[1].set_ylabel("pairs per bin")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("demo03_clickstreams.png", dpi=120)
    print("saved demo03_clickstreams.png")
except ImportError:
    print("(matplotlib not installed; skipped the plot)")
