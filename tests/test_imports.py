"""The package, both workload paths and every simulator path run on numpy alone."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys

    import pulseg2 as pg
    from pulseg2 import cli
    from pulseg2 import simulate as sim
    from pulseg2.config import ExperimentConfig

    with open("experiment.ini", "w") as fh:
        fh.write("[state]\\nspec = coherent:0.05\\n[mode]\\nspec = hg:1:5e-10\\n"
                 "[pulsed]\\nnum_pulses = 40000\\n[detector]\\nefficiency = 0.5\\n"
                 "[output]\\nstream = stream.bin\\nformat = binary\\n")
    cfg = ExperimentConfig.from_file("experiment.ini")
    assert cli.main(["simulate", "--config", "experiment.ini"]) == 0
    assert cli.main(["analyze", "stream.bin", "--config", "experiment.ini"]) == 0

    stream = sim.simulate_pulse_train(cfg.state(), cfg.detector(), cfg.train(), 3)
    report = pg.analyze_stream(stream)
    assert report.g2q_eta > 0
    pg.g2_sidepeak(stream, cfg.train(), 0.4 * cfg.repetition_period)
    jittered = sim.DetectorModel(timing_jitter_sigma=1e-10)
    gauss = sim.PulseTrainConfig(40000, 12.5e-9, pg.gaussian_mode(5e-10))
    assert sim.simulate_pulse_train(cfg.state(), jittered, gauss, 4).n_clicks > 0
    scfg = sim.StationaryThermalConfig(2e5, 1e6, 0.02)
    assert sim.simulate_stationary_thermal(scfg, sim.DetectorModel(), 5).n_clicks > 0
    with open("stationary.ini", "w") as fh:
        fh.write("[run]\\nkind = stationary\\n[stationary]\\nduration = 0.02\\n"
                 "[output]\\nstream = field.bin\\nformat = binary\\n")
    assert cli.main(["simulate", "--config", "stationary.ini"]) == 0
    assert cli.main(["analyze", "field.bin", "--config", "stationary.ini"]) == 0

    print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")


def test_workload_paths_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""
