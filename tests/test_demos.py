import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """Run a demo once, in a directory of its own; return that directory."""
    done = {}

    def run(name):
        if name not in done:
            env = dict(os.environ, MPLBACKEND="Agg")
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
            cwd = tmp_path_factory.mktemp(name[:2])
            proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=cwd,
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            done[name] = cwd
        return done[name]
    return run


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(ran, name):
    # demo 04 asserts its own consistency between g2p and the recovery routes
    ran(name)


def test_figure1_columns(ran):
    path = ran("03_simulated_click_streams.py") / "figure1_count_records.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "time_seconds,counts_thermal,counts_coherent"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (400, 3)
    # same mean but thermal counts fluctuate more than coherent ones
    assert data[:, 1].mean() == pytest.approx(data[:, 2].mean(), rel=0.2)
    assert data[:, 1].var() > 1.5 * data[:, 2].var()


def test_figure4_closed_form_column(ran):
    path = ran("02_pulse_shapes_and_eta.py") / "figure4_g2p_over_g2q.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "delta_tp_seconds,num_pulses,g2p_over_g2q"
    widths, pulses, ratio = np.loadtxt(lines[1:], delimiter=",").T
    np.testing.assert_allclose(ratio, 1.0 / (np.sqrt(2 * np.pi) * widths * pulses),
                               rtol=1e-10)
