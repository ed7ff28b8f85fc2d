"""The package's public surface, and that both workload paths and every
simulator path run on numpy alone."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pulseg2 as pg
from pulseg2.config import ExperimentConfig

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


MODULES = ["states", "modes", "simulate", "estimate", "streams", "errors", "rngutil",
           "config", "cli"]

# the modules whose every `__all__` name the package re-exports
REEXPORTED = ["states", "modes", "simulate", "estimate", "streams", "errors"]

REMOVED = {
    "states": ["sample_photon_number", "apply_loss"],
    "estimate": ["total_counts"],
    "simulate": ["analytic_pc"],
    "modes": ["autocorrelation_width"],
}

# what perfbench/worker.py calls or wraps; a missing name fails every benchmark run
BENCHMARKED = {
    "estimate": ["tau_histogram", "estimate_D0", "pn_histogram_g2q", "analyze_stream",
                 "g2_sidepeak", "stationary_conditional_probability",
                 "stationary_g2_zero"],
    "modes": ["eta_numeric"],
    "simulate": ["simulate_pulse_train", "simulate_stationary_thermal",
                 "_PULSE_BLOCK", "_FIELD_CHUNK"],
    "streams": ["read_stream", "write_stream", "sidecar_path"],
    "cli": ["write_stream", "main"],
}


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"pulseg2.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", REEXPORTED)
def test_package_reexports_module_names(module):
    mod = importlib.import_module(f"pulseg2.{module}")
    missing = {name for name in mod.__all__ if getattr(pg, name, None) is not getattr(mod, name)}
    assert missing == set()


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(f"pulseg2.{module}")
    for name in REMOVED[module]:
        assert not hasattr(mod, name) and not hasattr(pg, name)
        assert name not in mod.__all__


# the simulator's slices and their writer stay private names
PUBLIC = {
    "simulate": ["DetectorModel", "PulseTrainConfig", "StationaryThermalConfig",
                 "simulate_pulse_train", "simulate_stationary_thermal",
                 "simulate_stationary_poisson", "analytic_D", "analytic_Ip"],
    "streams": ["ClickStream", "write_stream", "read_stream", "sidecar_path"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_are_pinned(module):
    assert importlib.import_module(f"pulseg2.{module}").__all__ == PUBLIC[module]


@pytest.mark.parametrize("cls,name", [
    (pg.QuantumState, "truncation_cutoff"),
    (pg.ConditionalProbabilityCurve, "peak_to_baseline"),
    (pg.EtaProfile, "rms_width"),
    (pg.EtaProfile, "to_csv"),
])
def test_removed_attributes_are_gone(cls, name):
    assert not hasattr(cls, name)


def test_removed_parameters_fields_and_slice_cap_are_gone():
    # start-stop is tau_histogram's scope, eta_profile has one grid, and a
    # click budget alone ends a simulator slice
    assert list(inspect.signature(pg.stationary_conditional_probability).parameters) == [
        "stream", "bin_width", "max_tau"]
    assert list(inspect.signature(pg.eta_profile).parameters) == ["mode"]
    assert [f.name for f in dataclasses.fields(pg.TauHistogram)] == [
        "bin_edges", "counts", "pairing_scope", "block_counts", "block_clicks"]
    assert not hasattr(importlib.import_module("pulseg2.simulate"), "_SLICE_BLOCKS")


def test_one_kind_of_sigma_unit():
    # every sigma spreads over unweighted `_blocks` blocks: the pn route's
    # per-pulse histogram and its weights are gone
    est = importlib.import_module("pulseg2.estimate")
    assert list(inspect.signature(est._linearized_sigma).parameters) == ["grad", "stats"]
    assert not hasattr(est, "_click_number_histogram")


@pytest.mark.parametrize("module", sorted(BENCHMARKED))
def test_benchmarked_names_exist(module):
    mod = importlib.import_module(f"pulseg2.{module}")
    assert [name for name in BENCHMARKED[module] if not hasattr(mod, name)] == []


def test_benchmarked_config_surface():
    for name in ("from_file", "state", "mode", "train", "stationary", "detector"):
        assert callable(getattr(ExperimentConfig, name))
    cfg = ExperimentConfig()
    for name in ("kind", "seed", "num_pulses", "out_stream", "out_report"):
        assert hasattr(cfg, name)
