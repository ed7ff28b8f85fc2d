import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulseg2 as pg
import pulseg2.cli as cli
import pulseg2.config as config
from pulseg2 import estimate as est
from pulseg2 import modes as md
from pulseg2 import simulate as sim
from pulseg2 import states as st
from pulseg2.config import ExperimentConfig
from pulseg2.errors import ConfigError


# a pulsed stream without a sidecar
PULSED_CSV = "pulse_index,time_seconds\n0,1e-9\n1,2e-9\n"


def write_cfg(tmp_path, **overrides):
    cfg = ExperimentConfig(
        kind="pulsed", seed=101, state_spec="coherent:1", mode_spec="gauss:1e-9",
        efficiency=0.5, num_pulses=20000,
        out_stream=str(tmp_path / "stream.csv"),
        out_report=str(tmp_path / "report.json"),
        out_histogram=str(tmp_path / "hist.csv"),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    path = tmp_path / "exp.ini"
    cfg.to_file(path)
    return cfg, str(path)


class TestConfig:
    def test_round_trip_identity(self, tmp_path):
        cfg, path = write_cfg(tmp_path)
        again = ExperimentConfig.from_file(path)
        assert again == cfg
        path2 = tmp_path / "again.ini"
        again.to_file(path2)
        assert ExperimentConfig.from_file(path2) == again

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkinds = pulsed\n")
        with pytest.raises(ConfigError, match=r"\[run\] kinds"):
            ExperimentConfig.from_file(path)

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[detector]\nefficiency = very\n")
        with pytest.raises(ConfigError, match=r"\[detector\] efficiency"):
            ExperimentConfig.from_file(path)

    def test_semantic_error_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[detector]\nefficiency = 1.5\n")
        with pytest.raises(ConfigError, match=r"\[detector\]"):
            ExperimentConfig.from_file(path)

    def test_bad_state_spec_cited(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[state]\nspec = squeezed:2\n")
        with pytest.raises(ConfigError, match=r"\[state\] spec"):
            ExperimentConfig.from_file(path)

    def test_percent_is_literal(self, tmp_path, monkeypatch):
        # no interpolation: a '%' round-trips and names the stream file
        cfg = ExperimentConfig(out_stream="run%1.csv")
        cfg.validate().to_file(tmp_path / "p.ini")
        assert ExperimentConfig.from_file(tmp_path / "p.ini") == cfg
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.ini").write_text("[pulsed]\nnum_pulses = 100\n"
                                        "[output]\nstream = run%1.csv\n")
        assert cli.main(["simulate", "--config", "s.ini"]) == 0
        assert (tmp_path / "run%1.csv").exists()

    @pytest.mark.parametrize("attr,value,where", [
        ("out_stream", "run ;1.csv", "[output] stream"),
        ("out_report", "run\tfinal;1.json", None),
        ("out_sidecar", "side\n.json", "[output] sidecar"),
        ("out_histogram", "hist\r.csv", "[output] histogram"),
        ("mode_spec", " gauss:1e-9", "[mode] spec"),
        ("state_spec", "coherent:1 ", "[state] spec"),
    ], ids=["semicolon_after_space", "semicolon_after_tab_kept", "newline",
            "carriage_return", "leading_space", "trailing_space"])
    def test_value_that_cannot_round_trip_named(self, tmp_path, attr, value, where):
        # `from_file` cuts a value at a ';' after whitespace, reads a newline
        # as the end of the value and strips both ends
        cfg = ExperimentConfig(**{attr: value})
        if where is None:
            cfg.validate().to_file(tmp_path / "ok.ini")
            assert ExperimentConfig.from_file(tmp_path / "ok.ini") == cfg
            return
        with pytest.raises(ConfigError, match=re.escape(where)):
            cfg.validate()


@pytest.mark.parametrize("argv,ini_seed,message", [
    (["simulate", "--seed", "-1"], 101, "[run] seed"),
    (["simulate"], -5, "[run] seed"),
    # analyze draws no random numbers, so it takes no --seed
    (["analyze", "stream.csv", "--seed", "-2"], 101, "unrecognized arguments: --seed"),
], ids=["simulate_flag", "ini", "analyze_flag"])
def test_negative_seed_is_config_error(tmp_path, capsys, monkeypatch, argv, ini_seed,
                                       message):
    # analyze checks its settings before it reads the (here missing) stream
    _, path = write_cfg(tmp_path, seed=ini_seed)
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", ["fock:1000000000000000", "pn:huge.csv",
                                  "coherent:1e15", "thermal:1e15"],
                         ids=["fock", "pn_row", "coherent", "thermal"])
def test_huge_photon_number_is_config_error(tmp_path, capsys, monkeypatch, spec):
    # the photon-number bound fails before the vector is allocated
    monkeypatch.chdir(tmp_path)
    Path("huge.csv").write_text("n,P_n\n0,0.5\n1000000000000000,0.5\n")
    assert cli.main(["simulate", "--state", spec, "--out", "s.csv"]) == 1
    err = capsys.readouterr().err
    assert spec in err and "exceed the bound" in err and "Traceback" not in err
    assert not Path("s.csv").exists()


class TestSimulateCommand:
    def test_writes_stream_with_expected_counts(self, tmp_path):
        cfg, path = write_cfg(tmp_path)
        assert cli.main(["simulate", "--config", path]) == 0
        rows = (tmp_path / "stream.csv").read_text().splitlines()
        assert rows[0] == "pulse_index,time_seconds"
        mean = 20000 * 0.5 * 1.0
        assert abs(len(rows) - 1 - mean) < 5 * math.sqrt(mean)

    def test_seed_repeat_is_byte_identical(self, tmp_path):
        _, path = write_cfg(tmp_path)
        assert cli.main(["simulate", "--config", path]) == 0
        first = (tmp_path / "stream.csv").read_bytes()
        assert cli.main(["simulate", "--config", path]) == 0
        assert (tmp_path / "stream.csv").read_bytes() == first

    def test_zero_efficiency_gives_empty_stream_with_header(self, tmp_path):
        _, path = write_cfg(tmp_path, efficiency=0.0)
        assert cli.main(["simulate", "--config", path]) == 0
        assert (tmp_path / "stream.csv").read_text() == "pulse_index,time_seconds\n"

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    @pytest.mark.parametrize("kind", ["pulsed", "stationary"])
    def test_sliced_write_is_the_whole_stream_written(self, tmp_path, monkeypatch, fmt,
                                                      kind):
        # slices of one pulse block (3 of them, a one-click budget each) or
        # one field chunk (2), jittered and dead-time filtered, written as
        # they come
        monkeypatch.setattr(sim, "_SLICE_CLICKS", 1)
        cfg, path = write_cfg(tmp_path, kind=kind, num_pulses=3 * sim._PULSE_BLOCK - 7,
                              mean_rate=2e5, duration=0.06, stream_format=fmt,
                              timing_jitter_sigma=2e-9, dead_time=1e-9)
        assert cli.main(["simulate", "--config", path]) == 0
        if kind == "pulsed":
            whole = sim.simulate_pulse_train(cfg.state(), cfg.detector(), cfg.train(), 101)
        else:
            whole = sim.simulate_stationary_thermal(cfg.stationary(), cfg.detector(), 101)
        pg.write_stream(whole, tmp_path / "whole", fmt=fmt)
        stream = Path(cfg.out_stream)
        assert whole.n_clicks > 1000
        assert stream.read_bytes() == (tmp_path / "whole").read_bytes()
        assert (Path(f"{stream}.meta.json").read_bytes()
                == (tmp_path / "whole.meta.json").read_bytes())

    def test_failed_slice_leaves_no_sidecar(self, tmp_path, monkeypatch, capsys):
        # a click jittered past an emitted one stops the write with exit 2,
        # and the sidecar of an earlier run is gone
        _, path = write_cfg(tmp_path, num_pulses=3 * sim._PULSE_BLOCK,
                            timing_jitter_sigma=6e-8, stream_format="binary")
        assert cli.main(["simulate", "--config", path, "--pulses", "100"]) == 0
        side = tmp_path / "stream.csv.meta.json"
        assert side.exists()
        monkeypatch.setattr(sim, "_SLICE_CLICKS", 1)
        monkeypatch.setattr(sim, "_JITTER_MARGIN", 0.0)
        assert cli.main(["simulate", "--config", path]) == 2
        assert "precedes" in capsys.readouterr().err
        assert not side.exists()

    def test_flag_overrides(self, tmp_path):
        _, path = write_cfg(tmp_path)
        out = tmp_path / "other.csv"
        assert cli.main(["simulate", "--config", path, "--state", "fock:1",
                         "--pulses", "500", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        sidecar = json.loads((tmp_path / "other.csv.meta.json").read_text())
        assert sidecar["state"] == "fock:1"
        assert sidecar["train"]["num_pulses"] == 500
        # fock(1) thinned at s=0.5: binomial(500, 0.5), 5 sigma band
        assert abs(len(rows) - 1 - 250) < 5 * math.sqrt(500 * 0.25)

    def test_longer_train_keeps_whole_block_records(self, tmp_path):
        _, path = write_cfg(tmp_path)
        short, longer = tmp_path / "short.csv", tmp_path / "long.csv"
        n = sim._PULSE_BLOCK
        assert cli.main(["simulate", "--config", path, "--pulses", str(n),
                         "--out", str(short)]) == 0
        assert cli.main(["simulate", "--config", path, "--pulses", str(n + 3000),
                         "--out", str(longer)]) == 0
        rows = longer.read_text().splitlines()
        head = [r for r in rows[1:] if int(r.split(",")[0]) < n]
        assert 0 < len(head) < len(rows) - 1
        assert head == short.read_text().splitlines()[1:]

    def test_pulses_flag_parses_as_the_ini_key(self, tmp_path):
        # `--pulses 2e4` reads as `[pulsed] num_pulses = 2e4` does
        _, path = write_cfg(tmp_path)       # num_pulses = 20000
        flag = tmp_path / "flag.csv"
        assert cli.main(["simulate", "--config", path, "--pulses", "2e4",
                         "--out", str(flag)]) == 0
        assert cli.main(["simulate", "--config", path]) == 0
        assert flag.read_bytes() == (tmp_path / "stream.csv").read_bytes()
        assert json.loads((tmp_path / "flag.csv.meta.json").read_text())[
            "train"]["num_pulses"] == 20000


class TestSidecarPath:
    """`analyze` reads the sidecar `[output] sidecar` or `--sidecar` names;
    only the default `<stream>.meta.json` may be missing."""

    @pytest.fixture
    def named(self, tmp_path, monkeypatch):
        # an INI that names both outputs and sets nothing else
        monkeypatch.chdir(tmp_path)
        Path("b.ini").write_text("[output]\nstream = s2.csv\nsidecar = side.json\n")
        assert cli.main(["simulate", "--config", "b.ini", "--pulses", "2000"]) == 0
        assert Path("side.json").exists() and not Path("s2.csv.meta.json").exists()

    def test_ini_sidecar_is_read(self, named):
        assert cli.main(["analyze", "s2.csv", "--config", "b.ini", "--out", "r.json"]) == 0
        assert json.loads(Path("r.json").read_text())["N"] == 2000
        header = Path("histogram.csv").read_text().splitlines()[0]
        assert header == "tau_seconds,count,expected_analytic"

    @pytest.mark.parametrize("argv,text", [
        (["--sidecar", "nope.json"], ""),
        ([], "[output]\nsidecar = nope.json\n"),
    ], ids=["flag", "ini"])
    def test_missing_named_sidecar_is_io_error(self, named, capsys, argv, text):
        Path("c.ini").write_text(text)
        assert cli.main(["analyze", "s2.csv", "--config", "c.ini", "--pulses", "2000",
                         "--out", "r.json", *argv]) == 2
        err = capsys.readouterr().err
        assert "nope.json" in err and "Traceback" not in err
        assert not Path("r.json").exists()

    def test_missing_default_sidecar_is_optional(self, named):
        assert cli.main(["analyze", "s2.csv", "--pulses", "2000", "--mode", "gauss:1e-9",
                         "--out", "r.json"]) == 0
        assert json.loads(Path("r.json").read_text())["N"] == 2000
        assert Path("histogram.csv").read_text().splitlines()[0] == "tau_seconds,count"


class TestAnalyzeCommand:
    def test_end_to_end_recovers_g2(self, tmp_path):
        cfg, path = write_cfg(tmp_path, state_spec="thermal:0.5", num_pulses=100000)
        assert cli.main(["simulate", "--config", path]) == 0
        assert cli.main(["analyze", str(tmp_path / "stream.csv"),
                         "--config", path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["g2q_eta"] - 2.0) < 4 * report["g2q_eta_sigma"]
        assert report["g2q_analytic"] == pytest.approx(2.0, rel=1e-9)
        hist = (tmp_path / "hist.csv").read_text().splitlines()
        assert hist[0] == "tau_seconds,count,expected_analytic"

    @pytest.mark.parametrize("spec,g2q", [
        ("coherent:1", 1.0),
        ("thermal:0.5", 2.0),
        ("fock:2", 0.5),
        ("mix:0.5*coherent:1+0.5*thermal:1", 1.5),
    ])
    def test_round_trip_every_state_kind(self, tmp_path, spec, g2q):
        _, path = write_cfg(tmp_path, state_spec=spec, num_pulses=60000)
        assert cli.main(["simulate", "--config", path]) == 0
        assert cli.main(["analyze", str(tmp_path / "stream.csv"),
                         "--config", path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["g2q_analytic"] == pytest.approx(g2q, rel=1e-9)
        assert abs(report["g2q_eta"] - g2q) < 4 * report["g2q_eta_sigma"]

    def test_round_trip_custom_pn_state(self, tmp_path):
        csv = tmp_path / "pn.csv"
        csv.write_text("n,P_n\n0,0.3\n1,0.4\n2,0.3\n")  # g2q = 0.6/1.0^2
        _, path = write_cfg(tmp_path, state_spec=f"pn:{csv}", num_pulses=60000)
        assert cli.main(["simulate", "--config", path]) == 0
        assert cli.main(["analyze", str(tmp_path / "stream.csv"),
                         "--config", path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["g2q_eta"] - 0.6) < 4 * report["g2q_eta_sigma"]

    def test_sidecar_pn_table_read_once(self, tmp_path, monkeypatch):
        # analyze parses the sidecar's state label once, for the report and
        # the histogram's analytic overlay alike
        csv = tmp_path / "pn.csv"
        csv.write_text("n,P_n\n0,0.3\n1,0.4\n2,0.3\n")
        _, path = write_cfg(tmp_path, state_spec=f"pn:{csv}", num_pulses=20000)
        assert cli.main(["simulate", "--config", path]) == 0
        reads = []
        real = st._read_table

        def counted(table, *args, **kwargs):
            reads.append(Path(table).name)
            return real(table, *args, **kwargs)

        for module in (pg.streams, st, md):
            monkeypatch.setattr(module, "_read_table", counted)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", "stream.csv"]) == 0
        assert sorted(reads) == ["pn.csv", "stream.csv"]
        assert Path("histogram.csv").read_text().splitlines()[0] == \
            "tau_seconds,count,expected_analytic"

    def test_config_pn_table_read_once(self, tmp_path, monkeypatch):
        # with --config, validating the config, the report and the overlay
        # share the one state the config's pn: spec built
        csv = tmp_path / "pn.csv"
        csv.write_text("n,P_n\n0,0.3\n1,0.4\n2,0.3\n")
        _, path = write_cfg(tmp_path, state_spec=f"pn:{csv}", num_pulses=20000)
        assert cli.main(["simulate", "--config", path]) == 0
        reads = []
        real = st._read_table

        def counted(table, *args, **kwargs):
            reads.append(Path(table).name)
            return real(table, *args, **kwargs)

        for module in (pg.streams, st, md):
            monkeypatch.setattr(module, "_read_table", counted)
        assert cli.main(["analyze", str(tmp_path / "stream.csv"), "--config", path]) == 0
        assert sorted(reads) == ["pn.csv", "stream.csv"]
        assert (tmp_path / "hist.csv").read_text().splitlines()[0] == \
            "tau_seconds,count,expected_analytic"

    def test_empty_stream_exits_zero_with_flags(self, tmp_path):
        _, path = write_cfg(tmp_path, efficiency=0.0)
        cli.main(["simulate", "--config", path])
        assert cli.main(["analyze", str(tmp_path / "stream.csv"),
                         "--config", path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "empty_stream" in report["flags"]
        assert report["g2p"] is None

    def test_missing_stream_is_io_error(self, tmp_path):
        assert cli.main(["analyze", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_stream_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("pulse_index,time_seconds\n0,zzz\n")
        assert cli.main(["analyze", str(bad)]) == 2

    def test_csv_pulse_index_past_float_precision_is_io_error(self, tmp_path, capsys):
        # 2**53 + 1 parses as the float 2**53: the index would change unseen
        bad = tmp_path / "bad.csv"
        bad.write_text(f"pulse_index,time_seconds\n0,1e-9\n{2**53 + 1},2e-9\n")
        assert cli.main(["analyze", str(bad), "--pulses", "1000"]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: record 1" in err and "2**53" in err and "Traceback" not in err

    def test_histogram_csv_is_tau_histogram_with_analytic_overlay(self, tmp_path,
                                                                  monkeypatch):
        # the paper's time-difference histogram: simulate, then analyze
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--seed", "5", "--pulses", "20000",
                         "--state", "thermal:1"]) == 0
        assert cli.main(["analyze", "stream.csv"]) == 0
        state, det, mode = st.thermal(1.0), sim.DetectorModel(), md.gaussian_mode(1e-9)
        stream = sim.simulate_pulse_train(state, det, sim.PulseTrainConfig(
            20000, 12.5e-9, mode), 5)
        hist = est.tau_histogram(stream, mode.width / 20.0, 6.0 * mode.width)
        expected = sim.analytic_D(state, det, mode, 20000, hist.centers) * hist.bin_width
        rows = io.StringIO()
        np.savetxt(rows, np.column_stack([hist.centers, hist.counts, expected]),
                   fmt=["%.12g", "%d", "%.12g"], delimiter=",")
        assert Path("histogram.csv").read_text() == \
            "tau_seconds,count,expected_analytic\n" + rows.getvalue()
        # moment fit of the analytic overlay: standard deviation = the 1 ns mode width
        tau = hist.centers
        assert math.sqrt(float((expected * tau**2).sum() / expected.sum())) == \
            pytest.approx(1e-9, rel=0.01)
        assert 5e-9 < tau[-1] < 6e-9

    def test_pc_curve_peaks_at_twice_its_baseline(self, tmp_path, monkeypatch):
        # the paper's stationary conditional probability: simulate, then analyze
        monkeypatch.chdir(tmp_path)
        Path("stationary.ini").write_text("[run]\nkind = stationary\n")
        assert cli.main(["simulate", "--config", "stationary.ini", "--seed", "4"]) == 0
        assert cli.main(["analyze", "stream.csv"]) == 0
        baseline = json.loads(Path("report.json").read_text())["pc_baseline_per_second"]
        normalized = np.loadtxt("report_pc.csv", delimiter=",", skiprows=1)[:, 1] / baseline
        assert normalized[0] == pytest.approx(2.0, abs=0.25)
        assert normalized[-20:].mean() == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("hint", [[], ["--mode", "gauss:1.05e-9"]],
                             ids=["sidecar_mode", "off_hint"])
    def test_histogram_csv_is_the_reports_histogram(self, tmp_path, monkeypatch, hint):
        _, path = write_cfg(tmp_path, state_spec="thermal:0.5")
        assert cli.main(["simulate", "--config", path]) == 0
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", "stream.csv", *hint]) == 0
        mode = md.parse_mode_spec(hint[1]) if hint else None
        hist = est.analyze_stream(pg.read_stream("stream.csv"), mode=mode).histogram
        data = np.loadtxt("histogram.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], hist.centers, rtol=1e-11)
        assert np.array_equal(data[:, 1], hist.counts)
        # the analytic overlay follows the generating mode, not the hint
        expected = sim.analytic_D(st.thermal(0.5), sim.DetectorModel(efficiency=0.5),
                                  md.gaussian_mode(1e-9), 20000, hist.centers)
        np.testing.assert_allclose(data[:, 2], expected * hist.bin_width, rtol=1e-11)

    @pytest.mark.parametrize("flags,kwargs", [
        ([], {}),
        (["--mode", "gauss:1.05e-9"], {"mode": md.gaussian_mode(1.05e-9)}),
        (["--pulses", "30000"], {"num_pulses": 30000}),
    ], ids=["sidecar", "off_hint", "pulses"])
    def test_histogram_overlay_is_the_reports(self, tmp_path, monkeypatch, flags, kwargs):
        # the CSV's overlay column is `analyze_stream`'s `expected`, written as it is
        _, path = write_cfg(tmp_path, state_spec="thermal:0.5")
        assert cli.main(["simulate", "--config", path]) == 0
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", "stream.csv", *flags]) == 0
        stream = pg.read_stream("stream.csv")
        expected = est.analyze_stream(stream, **kwargs).expected
        rows = Path("histogram.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [f"{v:.12g}" for v in expected]
        # an N override leaves the overlay as the sidecar's N set it
        assert np.array_equal(
            expected, est.analyze_stream(stream, mode=kwargs.get("mode")).expected)

    @pytest.mark.parametrize("edit", [
        lambda train: {**train, "num_pulses": None},
        lambda train: {k: v for k, v in train.items() if k != "num_pulses"},
    ], ids=["null", "missing"])
    def test_overlay_needs_the_sidecar_pulse_count(self, tmp_path, monkeypatch, edit):
        _, path = write_cfg(tmp_path, num_pulses=2000)
        assert cli.main(["simulate", "--config", path]) == 0
        side = tmp_path / "stream.csv.meta.json"
        meta = json.loads(side.read_text())
        side.write_text(json.dumps({**meta, "train": edit(meta["train"])}))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", "stream.csv", "--pulses", "2000", "--out", "r.json"]) == 0
        assert json.loads(Path("r.json").read_text())["N"] == 2000
        assert Path("histogram.csv").read_text().splitlines()[0] == "tau_seconds,count"

    def test_binary_stream_without_sidecar_is_io_error(self, tmp_path, capsys):
        _, path = write_cfg(tmp_path, stream_format="binary")
        assert cli.main(["simulate", "--config", path]) == 0
        bare = tmp_path / "bare.dat"
        bare.write_bytes((tmp_path / "stream.csv").read_bytes())
        assert cli.main(["analyze", str(bare)]) == 2
        assert str(bare) in capsys.readouterr().err

    def test_stationary_stream_summary(self, tmp_path):
        # ~1e5 clicks: g2(0) has s.d. ~0.05, so the band is ~7 s.d.
        cfg, path = write_cfg(tmp_path, kind="stationary", mean_rate=1e6,
                              duration=0.2, num_pulses=1000)
        assert cli.main(["simulate", "--config", path]) == 0
        assert cli.main(["analyze", str(tmp_path / "stream.csv"),
                         "--out", str(tmp_path / "summary.json")]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["g2_zero"] == pytest.approx(2.0, abs=0.35)
        curve = (tmp_path / "summary_pc.csv").read_text().splitlines()
        assert curve[0] == "tau_seconds,pc_per_second"

    @pytest.mark.parametrize("dead_time", [0.0, 5e-8])
    def test_stationary_dead_time_flagged(self, tmp_path, dead_time):
        # 50 ns of dead time empties bin 0 (20 ns at 1 MHz): g2(0) reads 0
        _, path = write_cfg(tmp_path, kind="stationary", mean_rate=1e6, duration=0.05,
                            dead_time=dead_time)
        assert cli.main(["simulate", "--config", path]) == 0
        assert cli.main(["analyze", str(tmp_path / "stream.csv"),
                         "--out", str(tmp_path / "r.json")]) == 0
        summary = json.loads((tmp_path / "r.json").read_text())
        assert list(summary) == ["pc_peak_per_second", "pc_baseline_per_second", "g2_zero",
                                 "g2_zero_sigma", "excess_fwhm_seconds", "total_clicks",
                                 "flags"]
        assert summary["flags"] == (["dead_time_biased"] if dead_time else [])
        assert (summary["g2_zero"] == 0.0) == (dead_time > 0)

    @pytest.mark.parametrize("ini,bin_width", [
        ("", 2e-8),
        ("[stationary]\nspectral_bandwidth = 2e5\n", 1e-7),
    ], ids=["sidecar", "ini"])
    def test_bandwidth_sets_the_stationary_bins(self, tmp_path, ini, bin_width):
        # bins of 1/(50 B): the INI's B over the sidecar's 1e6
        _, path = write_cfg(tmp_path, kind="stationary", mean_rate=2e5, duration=0.05)
        assert cli.main(["simulate", "--config", path]) == 0
        (tmp_path / "b.ini").write_text(ini)
        assert cli.main(["analyze", str(tmp_path / "stream.csv"), "--config",
                         str(tmp_path / "b.ini"), "--out", str(tmp_path / "r.json")]) == 0
        tau = np.loadtxt(tmp_path / "r_pc.csv", delimiter=",", skiprows=1)[:, 0]
        np.testing.assert_allclose(np.diff(tau), bin_width, rtol=1e-9)

    def test_stationary_analysis_walks_the_pairs_once(self, tmp_path, monkeypatch):
        _, path = write_cfg(tmp_path, kind="stationary", mean_rate=2e5, duration=0.05)
        assert cli.main(["simulate", "--config", path]) == 0
        walks = []
        enumerate_pairs = est._pairs

        def counted(*args):
            walks.append(args)
            return enumerate_pairs(*args)

        monkeypatch.setattr(est, "_pairs", counted)
        assert cli.main(["analyze", str(tmp_path / "stream.csv"),
                         "--out", str(tmp_path / "summary.json")]) == 0
        assert len(walks) == 1

    @pytest.mark.parametrize("times", [[0.1], [0.1, 0.9]], ids=["one_click", "far_apart"])
    def test_stationary_stream_without_baseline_pairs(self, tmp_path, capsys, times):
        stream = pg.ClickStream(np.full(len(times), -1, np.int64), np.array(times),
                                {"kind": "stationary",
                                 "stationary": {"spectral_bandwidth": 1e6}})
        path = str(tmp_path / "s.csv")
        pg.write_stream(stream, path, sidecar=path + ".meta.json")
        assert cli.main(["analyze", path, "--out", str(tmp_path / "r.json")]) == 3
        assert "no baseline pairs" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("write,flags,message", [
        (lambda path: pg.write_stream(sim.simulate_stationary_poisson(2e5, 0.001, seed=1),
                                      path), [], "pass bin_width or spectral_bandwidth"),
        (lambda path: path.write_text(PULSED_CSV), [], "number of pulses unknown"),
        (lambda path: path.write_text(PULSED_CSV), ["--pulses", "2000"],
         "cannot choose a bin width"),
        # every click at its pulse's centre: the offsets have no spread
        (lambda path: pg.write_stream(pg.ClickStream(
            [0, 0, 1], (np.array([0, 0, 1]) + 0.5) * 12.5e-9,
            {"kind": "pulsed", "train": {"num_pulses": 2, "repetition_period": 12.5e-9}}),
            path), [], "cannot choose a bin width"),
    ], ids=["poisson_control", "pulsed_without_n", "pulsed_without_mode_or_period",
            "zero_offset_spread"])
    def test_unknown_binning_or_pulse_count_exits_3(self, tmp_path, capsys, write, flags,
                                                    message):
        # the Poisson control has no bandwidth; a pulsed CSV stream alone has
        # no N, and given N, no mode or repetition period for the bins
        path = tmp_path / "s.csv"
        write(path)
        assert cli.main(["analyze", str(path), "--out", str(tmp_path / "r.json"), *flags]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("max_tau", ["1e-15", "1e-310"])
    def test_stationary_slice_count_past_the_bound_is_config_error(self, tmp_path, capsys,
                                                                    max_tau):
        # 1000 s in max_tau slices: 1e18, or inf, time blocks
        path = tmp_path / "s.csv"
        path.write_text("pulse_index,time_seconds\n-1,0\n-1,1000\n")
        assert cli.main(["analyze", str(path), "--max-tau", max_tau,
                         "--bin-width", f"{float(max_tau) / 10}"]) == 1
        err = capsys.readouterr().err
        assert "pulse or time units, more than" in err and "Traceback" not in err

    def test_stationary_max_tau_below_baseline_is_config_error(self, tmp_path, capsys):
        _, path = write_cfg(tmp_path, kind="stationary", mean_rate=2e5, duration=0.02)
        assert cli.main(["simulate", "--config", path]) == 0
        assert cli.main(["analyze", str(tmp_path / "stream.csv"), "--max-tau", "2e-6",
                         "--out", str(tmp_path / "r.json")]) == 1
        assert "baseline from 3e-06 s" in capsys.readouterr().err


class TestAnalyzeStationary:
    """`estimate.analyze_stationary` is the stationary report `pulseg2 analyze`
    writes, as `analyze_stream` is the pulsed one."""

    @pytest.mark.parametrize("settings,ini,kwargs,flags", [
        ({}, "", {}, []),
        ({"spectral_shape": "lorentzian"}, "", {}, []),
        ({}, "[stationary]\nspectral_bandwidth = 2e5\n", {"spectral_bandwidth": 2e5}, []),
        (None, "[estimator]\nbin_width = 1e-7\n", {"bin_width": 1e-7}, []),
        ({"dead_time": 5e-8}, "", {}, ["dead_time_biased"]),
    ], ids=["sidecar_gaussian", "sidecar_lorentzian", "bandwidth_given", "poisson_bin_width",
            "dead_time"])
    def test_library_report_is_the_cli_report(self, tmp_path, settings, ini, kwargs, flags):
        stream_path = tmp_path / "stream.csv"
        if settings is None:    # the Poisson control: its sidecar has no bandwidth
            pg.write_stream(sim.simulate_stationary_poisson(2e5, 0.05, seed=5), stream_path)
        else:
            _, path = write_cfg(tmp_path, kind="stationary", mean_rate=2e5, duration=0.05,
                                **settings)
            assert cli.main(["simulate", "--config", path]) == 0
        (tmp_path / "a.ini").write_text(ini)
        assert cli.main(["analyze", str(stream_path), "--config", str(tmp_path / "a.ini"),
                         "--out", str(tmp_path / "r.json")]) == 0
        report = est.analyze_stationary(pg.read_stream(stream_path), **kwargs)
        assert report.to_json() == (tmp_path / "r.json").read_text()
        assert report.flags == flags
        rows = (tmp_path / "r_pc.csv").read_text().splitlines()
        assert rows == ["tau_seconds,pc_per_second"] + [
            "%.12g,%.12g" % row for row in zip(report.curve.tau, report.curve.pc)]

    def test_each_light_refuses_the_other(self):
        train = sim.PulseTrainConfig(100, 12.5e-9, md.gaussian_mode(1e-9))
        pulsed = sim.simulate_pulse_train(st.coherent(1.0), sim.DetectorModel(), train, seed=1)
        flat = sim.simulate_stationary_poisson(2e5, 0.01, seed=1)
        with pytest.raises(ValueError, match="use analyze_stream for pulsed"):
            est.analyze_stationary(pulsed)
        with pytest.raises(ValueError, match="use analyze_stationary for stationary"):
            est.analyze_stream(flat, num_pulses=100)

    def test_binning_errors_name_the_binning(self):
        stream = sim.simulate_stationary_thermal(
            sim.StationaryThermalConfig(mean_rate=2e5, spectral_bandwidth=1e6,
                                        duration=0.02), sim.DetectorModel(), seed=2)
        with pytest.raises(ValueError, match=r"^bin width 2e-08 s, max tau 2e-06 s, "
                                             r"baseline from 3e-06 s: no bins"):
            est.analyze_stationary(stream, max_tau=2e-6)
        flat = sim.simulate_stationary_poisson(2e5, 0.01, seed=3)
        with pytest.raises(pg.EstimationError, match="bandwidth unknown"):
            est.analyze_stationary(flat)
        assert est.analyze_stationary(flat, spectral_bandwidth=1e6).curve.bin_width == 2e-8

    def test_binning_config_error_names_the_flags_and_keys(self, tmp_path, capsys):
        _, path = write_cfg(tmp_path, kind="stationary", mean_rate=2e5, duration=0.02)
        assert cli.main(["simulate", "--config", path]) == 0
        assert cli.main(["analyze", str(tmp_path / "stream.csv"), "--max-tau", "2e-6",
                         "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (
            "config error: --bin-width / --max-tau ([estimator] bin_width / [estimator] "
            "max_tau / [stationary] spectral_bandwidth): bin width 2e-08 s, max tau 2e-06 s, "
            "baseline from 3e-06 s: no bins beyond tau_from\n")
        assert not any(tmp_path.glob("r*"))


class TestAnalyzeConfigAndSidecar:
    """An analyze config fills in only the keys it sets; the sidecar the rest."""

    @pytest.fixture
    def hg1_stream(self, tmp_path, monkeypatch):
        _, path = write_cfg(tmp_path, state_spec="coherent:0.1", mode_spec="hg:1:5e-10",
                            num_pulses=300000, stream_format="binary",
                            out_stream=str(tmp_path / "stream.bin"))
        assert cli.main(["simulate", "--config", path]) == 0
        output_only = tmp_path / "output.ini"
        output_only.write_text(f"[output]\nreport = {tmp_path / 'out.json'}\n")
        monkeypatch.chdir(tmp_path)
        return str(tmp_path / "stream.bin"), str(output_only)

    def test_output_only_config_keeps_sidecar_pulses_and_mode(self, hg1_stream):
        stream, ini = hg1_stream
        assert cli.main(["analyze", stream, "--config", ini]) == 0
        report = json.loads(open("out.json").read())
        assert report["N"] == 300000
        eta0 = md.eta_numeric(md.hermite_gauss_mode(1, 5e-10), 0.0)
        assert report["eta0_per_second"] == pytest.approx(eta0, rel=1e-12)

    def test_flags_still_override(self, hg1_stream):
        stream, ini = hg1_stream
        assert cli.main(["analyze", stream, "--config", ini, "--pulses", "400000",
                         "--mode", "hg:1:6e-10"]) == 0
        report = json.loads(open("out.json").read())
        assert report["N"] == 400000
        eta0 = md.eta_numeric(md.hermite_gauss_mode(1, 6e-10), 0.0)
        assert report["eta0_per_second"] == pytest.approx(eta0, rel=1e-12)

    def test_too_few_pulses_is_estimation_error(self, hg1_stream, capsys):
        stream, ini = hg1_stream
        assert cli.main(["analyze", stream, "--config", ini, "--pulses", "1000"]) == 3
        assert "N = 1000 " in capsys.readouterr().err

    def test_bad_mode_flag_is_config_error(self, hg1_stream, capsys):
        stream, ini = hg1_stream
        assert cli.main(["analyze", stream, "--config", ini, "--mode", "gauss:abc"]) == 1
        assert "gauss:abc" in capsys.readouterr().err


class TestAnalyzeState:
    """A state set by flag or INI overrides the sidecar's, as the mode and N do."""

    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("state")
        _, path = write_cfg(tmp_path, num_pulses=2000)      # coherent:1
        assert cli.main(["simulate", "--config", path]) == 0
        (tmp_path / "state.ini").write_text("[state]\nspec = thermal:1\n")
        return tmp_path

    @pytest.mark.parametrize("extra,g2q", [
        ([], 1.0),
        (["--state", "thermal:1"], 2.0),
        (["--config", "state.ini"], 2.0),
    ], ids=["sidecar", "flag", "ini"])
    def test_state_sets_g2q_analytic(self, stream, monkeypatch, extra, g2q):
        monkeypatch.chdir(stream)
        assert cli.main(["analyze", "stream.csv", *extra, "--out", "r.json"]) == 0
        report = json.loads((stream / "r.json").read_text())
        assert report["g2q_analytic"] == pytest.approx(g2q, rel=1e-12)

    def test_vacuum_state_flagged(self, stream, monkeypatch):
        monkeypatch.chdir(stream)
        assert cli.main(["analyze", "stream.csv", "--state", "fock:0", "--out", "r.json"]) == 0
        report = json.loads((stream / "r.json").read_text())
        assert report["g2q_analytic"] is None and "source_state_vacuum" in report["flags"]

    def test_bad_state_flag_is_config_error(self, stream, monkeypatch, capsys):
        monkeypatch.chdir(stream)
        assert cli.main(["analyze", "stream.csv", "--state", "squeezed:2",
                         "--out", "bad.json"]) == 1
        assert "[state] spec" in capsys.readouterr().err
        assert not (stream / "bad.json").exists()


class TestPulseRange:
    """Pulse indices outside [0, N) exit 3 naming N, before the pair walk."""

    @pytest.fixture
    def stream(self, tmp_path, monkeypatch):
        _, path = write_cfg(tmp_path, num_pulses=2000)
        assert cli.main(["simulate", "--config", path]) == 0
        walks = []
        enumerate_pairs = est._pairs

        def counted(*args):
            walks.append(args)
            return enumerate_pairs(*args)

        monkeypatch.setattr(est, "_pairs", counted)
        monkeypatch.chdir(tmp_path)
        return tmp_path, walks

    def test_negative_index_in_pulsed_stream(self, stream, capsys):
        tmp_path, walks = stream
        rows = (tmp_path / "stream.csv").read_text().splitlines()
        rows[1] = "-1," + rows[1].split(",")[1]
        (tmp_path / "stream.csv").write_text("\n".join(rows) + "\n")
        assert cli.main(["analyze", "stream.csv", "--out", "r.json"]) == 3
        err = capsys.readouterr().err
        assert "N = 2000 " in err and "Traceback" not in err
        assert not walks and not (tmp_path / "r.json").exists()

    def test_too_few_pulses_fails_before_the_walk(self, stream, capsys):
        tmp_path, walks = stream
        assert cli.main(["analyze", "stream.csv", "--pulses", "1000",
                         "--out", "r.json"]) == 3
        assert "N = 1000 " in capsys.readouterr().err
        assert not walks


def test_stationary_report_writes_non_finite_as_null(tmp_path, monkeypatch):
    flat = sim.simulate_stationary_poisson(2e5, 1.0, seed=3)    # no excess: nan width
    pg.write_stream(flat, str(tmp_path / "flat.csv"),
                    sidecar=str(tmp_path / "flat.csv.meta.json"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "flat.csv", "--bin-width", "1e-7", "--out", "r.json"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    summary = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
    assert summary["excess_fwhm_seconds"] is None
    assert summary["g2_zero"] == pytest.approx(1.0, abs=0.1)


class TestAnalyzeEstimatorSettings:
    """Bin width and max tau are finite and positive, from a flag or the INI."""

    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("estimator")
        _, path = write_cfg(tmp_path, num_pulses=2000)
        assert cli.main(["simulate", "--config", path]) == 0
        return str(tmp_path / "stream.csv")

    @pytest.mark.parametrize("flag,value", [
        ("--bin-width", "-1e-10"),
        ("--bin-width", "0"),
        ("--bin-width", "inf"),
        ("--max-tau", "-1"),
        ("--max-tau", "0"),
        ("--max-tau", "nan"),
        ("--bin-width", "1e-30"),       # 6e21 bins
        ("--max-tau", "1e300"),         # inf bins
        ("--pulses", "1000.7"),
        ("--pulses", "inf"),
        ("--pulses", "6e16"),           # past the pulse bound
    ])
    def test_bad_flag_named(self, stream, tmp_path, capsys, flag, value):
        out = tmp_path / "report.json"
        assert cli.main(["analyze", stream, f"{flag}={value}", "--out", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,key", [
        ("bin_width = -1e-10", "bin_width"),
        ("bin_width = 0", "bin_width"),
        ("bin_width = nan", "bin_width"),
        ("max_tau = -1", "max_tau"),
        ("max_tau = 0", "max_tau"),
        ("max_tau = inf", "max_tau"),
        ("bin_width = 1e-30", "bin_width"),
        ("max_tau = 1e300", "max_tau"),
    ])
    def test_bad_ini_key_named(self, stream, tmp_path, capsys, text, key):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[estimator]\n{text}\n")
        out = tmp_path / "report.json"
        assert cli.main(["analyze", stream, "--config", str(ini), "--out", str(out)]) == 1
        assert f"[estimator] {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_good_values_still_used(self, stream, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)     # the default histogram CSV goes to the cwd
        out = tmp_path / "report.json"
        assert cli.main(["analyze", stream, "--bin-width", "1e-10", "--max-tau", "4e-9",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["N"] == 2000
        centers = np.loadtxt(tmp_path / "histogram.csv", delimiter=",", skiprows=1)[:, 0]
        assert centers[0] == pytest.approx(5e-11) and centers[-1] < 4e-9


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pulseg2", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: pulseg2")


class TestFigureCommand:
    def test_unknown_figure_is_usage_error(self, tmp_path, capsys):
        # the command is gone: demos 03 and 02 write the datasets of figures
        # 1 and 4, and figures 2 and 3 are `simulate` then `analyze`
        for figure in ("1", "4"):
            assert cli.main(["figure", figure, "--out", str(tmp_path / "figs")]) == 1
            err = capsys.readouterr().err
            assert "invalid choice" in err and "Traceback" not in err
        assert not (tmp_path / "figs").exists()


class TestMalformedSidecar:
    """A sidecar of the wrong shape exits 2 naming the sidecar and the key,
    before any output is written."""

    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("sidecar")
        _, path = write_cfg(tmp_path)
        assert cli.main(["simulate", "--config", path]) == 0
        return tmp_path / "stream.csv"

    @pytest.mark.parametrize("edit,key", [
        (lambda m: [m], "JSON object"),
        (lambda m: {**m, "train": None}, "train"),
        (lambda m: {**m, "train": {**m["train"], "num_pulses": "20000"}},
         "train.num_pulses"),
        (lambda m: {**m, "detector": "x"}, "detector"),
        (lambda m: {**m, "detector": {**m["detector"], "gain": 1.0}}, "gain"),
        (lambda m: {**m, "detector": {**m["detector"], "efficiency": 2}}, "efficiency"),
        (lambda m: {**m, "detector": {**m["detector"], "dead_time": "2e-9"}},
         "detector.dead_time"),
        (lambda m: {**m, "detector": {**m["detector"], "dead_time": -1e-9}},
         "detector.dead_time"),
        (lambda m: {**m, "train": {**m["train"], "num_pulses": 0}}, "train.num_pulses"),
        (lambda m: {**m, "train": {**m["train"], "num_pulses": 10**30}}, "train.num_pulses"),
        (lambda m: {**m, "kind": "stationary", "stationary": {"spectral_bandwidth": -1e6}},
         "stationary.spectral_bandwidth"),
        (lambda m: {**m, "kind": "stationary",
                    "stationary": {"spectral_bandwidth": float("nan")}},
         "stationary.spectral_bandwidth"),
        # passes the rule, but the bins of 1/(50 B) it sets are inf
        (lambda m: {**m, "kind": "stationary", "stationary": {"spectral_bandwidth": 1e-310}},
         "stationary.spectral_bandwidth"),
        # text, not an object: written as it is
        (lambda m: json.dumps(m)[:-1], "invalid sidecar JSON"),
        # once read as stationary light (kind) or as a CSV stream (format)
        (lambda m: {**m, "kind": "Pulsed"}, "kind"),
        (lambda m: {**m, "kind": 5}, "kind"),
        (lambda m: {**m, "format": "xml"}, "format"),
    ], ids=["list", "train_null", "num_pulses_string", "detector_string",
            "detector_unknown_key", "efficiency_above_one", "dead_time_string",
            "dead_time_negative", "num_pulses_zero",
            "num_pulses_huge", "bandwidth_negative", "bandwidth_nan", "bandwidth_tiny",
            "invalid_json", "kind_capitalized", "kind_number", "format_unknown"])
    def test_exit_2_names_sidecar_and_key(self, stream, tmp_path, monkeypatch, capsys,
                                          edit, key):
        meta = json.loads(Path(str(stream) + ".meta.json").read_text())
        bad = tmp_path / "bad.meta.json"
        text = edit(meta)
        bad.write_text(text if isinstance(text, str) else json.dumps(text))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", str(stream), "--sidecar", str(bad),
                         "--out", "report.json"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and key in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "histogram.csv").exists()


class TestMalformedSidecarDetector:
    """A malformed sidecar detector exits 2 naming the sidecar and the key on
    a stream that writes no overlay too: a stationary one, and a pulsed one
    analyzed without a histogram file."""

    @pytest.fixture(scope="class")
    def streams(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("detector")
        _, pulsed = write_cfg(tmp_path, num_pulses=2000, out_histogram=None)
        stationary = tmp_path / "stationary.ini"
        stationary.write_text("[run]\nkind = stationary\n[stationary]\nduration = 0.01\n"
                              f"[output]\nstream = {tmp_path / 'stationary.csv'}\n")
        for ini in (pulsed, stationary):
            assert cli.main(["simulate", "--config", str(ini)]) == 0
        return {"pulsed": (tmp_path / "stream.csv", pulsed),
                "stationary": (tmp_path / "stationary.csv", stationary)}

    @pytest.mark.parametrize("kind", ["pulsed", "stationary"])
    @pytest.mark.parametrize("detector,key", [
        ({"gain": 1.0}, "gain"),
        ({"efficiency": 2}, "detector.efficiency"),
        ({"timing_jitter_sigma": -1e-10}, "detector.timing_jitter_sigma"),
    ], ids=["unknown_key", "efficiency_above_one", "jitter_negative"])
    def test_exit_2_names_sidecar_and_key(self, streams, tmp_path, monkeypatch, capsys,
                                          kind, detector, key):
        stream, ini = streams[kind]
        meta = json.loads(Path(str(stream) + ".meta.json").read_text())
        bad = tmp_path / "bad.meta.json"
        bad.write_text(json.dumps({**meta, "detector": {**meta["detector"], **detector}}))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", str(stream), "--config", str(ini), "--sidecar", str(bad),
                         "--out", "report.json"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and key in err
        assert sorted(os.listdir(tmp_path)) == ["bad.meta.json"]


class TestUndecodableConfig:
    """An INI file that is not UTF-8 text is a config error naming its path."""

    def test_simulate(self, tmp_path, capsys):
        path = tmp_path / "bytes.ini"
        path.write_bytes(b"[run]\nseed = 1\n\xff\xfe\n")
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "s.csv")]) == 1
        assert str(path) in capsys.readouterr().err

    def test_analyze(self, tmp_path, capsys):
        _, good = write_cfg(tmp_path, num_pulses=2000)
        assert cli.main(["simulate", "--config", good]) == 0
        path = tmp_path / "bytes.ini"
        path.write_bytes(b"[output]\nreport = r.json\n\xff\xfe\n")
        assert cli.main(["analyze", str(tmp_path / "stream.csv"), "--config",
                         str(path)]) == 1
        assert str(path) in capsys.readouterr().err


class TestExitCodes:
    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nkind = sideways\n")
        assert cli.main(["simulate", "--config", str(path)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_unknown_flag(self):
        assert cli.main(["simulate", "--frobnicate"]) == 1

    def test_unknown_command(self):
        assert cli.main(["transmogrify"]) == 1

    @pytest.mark.parametrize("text", ["[estimator]\nscope = same_pulse\n",
                                      "[run]\nworkers = 2\n"],
                             ids=["scope", "workers"])
    def test_deleted_key_is_unknown(self, tmp_path, capsys, text):
        path = tmp_path / "old.ini"
        path.write_text(text)
        assert cli.main(["simulate", "--config", str(path)]) == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ("[detector]\ndead_time = nan\n", "dead_time"),
        ("[pulsed]\nrepetition_period = inf\n", "repetition_period"),
        ("[run]\nkind = stationary\n[stationary]\nmean_rate = nan\n", "mean_rate"),
        ("[pulsed]\nnum_pulses = inf\n", "[pulsed] num_pulses"),
        ("[pulsed]\nnum_pulses = 1000.7\n", "[pulsed] num_pulses"),
        # a pulse index times 200 blocks would leave int64
        ("[pulsed]\nnum_pulses = 1e17\n", "num_pulses must be an integer in [1, "),
        ("[output]\nformat = xml\n", "[output] format"),
    ])
    def test_non_finite_value_named(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.main(["simulate", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("argv,text,key", [
        (["analyze", "p.csv"], "[stationary]\nmean_rate = -5\n", "[stationary]: mean_rate"),
        (["simulate"], "[run]\nkind = stationary\n[pulsed]\nrepetition_period = -1\n",
         "[pulsed]: repetition_period"),
    ], ids=["analyze_pulsed", "simulate_stationary"])
    def test_other_lights_key_is_checked(self, tmp_path, capsys, monkeypatch, argv, text,
                                         key):
        # one INI drives both commands, so each checks both lights' keys
        # whatever the kind, before it reads or writes a stream
        monkeypatch.chdir(tmp_path)
        Path("p.csv").write_text(PULSED_CSV)
        Path("bad.ini").write_text(text)
        assert cli.main([*argv, "--config", "bad.ini", "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not Path("out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--bin-width", "1e-10"],
    ["simulate", "--max-tau", "6e-9"],
    ["analyze", "stream.csv", "--seed", "1"],
], ids=["simulate_bin_width", "simulate_max_tau", "analyze_seed"])
def test_unread_flag_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # each command takes only the flags it reads
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[-2]}" in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [["selftest"], ["selftest", "--quick"]])
def test_removed_selftest_is_usage_error(capsys, argv):
    assert cli.main(argv) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_readme_synopsis_lists_every_command():
    # each command's synopsis line, with the indented lines that continue it,
    # names exactly the parser's flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    synopsis = {}
    for line in filter(str.strip, block.splitlines()):
        if line.startswith("pulseg2 "):
            command = line.split()[1]
            synopsis[command] = ""
        synopsis[command] += line
    subparsers = next(action for action in cli._build_parser()._actions
                      if action.dest == "command").choices
    assert synopsis.keys() == subparsers.keys()
    for command, parser in subparsers.items():
        flags = {flag for action in parser._actions for flag in action.option_strings
                 if flag != "--help" and flag.startswith("--")}
        assert set(re.findall(r"--[a-z-]+", synopsis[command])) == flags, command


def test_readme_config_example_sets_every_key(tmp_path):
    # the INI block under "Config file", its inline and indented comments
    # included, sets every (section, key) of the schema and validates
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.ini"
    path.write_text(readme.split("### Config file", 1)[1].split("```ini", 1)[1]
                    .split("```", 1)[0])
    values = config._read_settings(path)
    assert {key for key, (attr, _) in config._SCHEMA.items() if attr in values} \
        == config._SCHEMA.keys()
    assert values["seed"] == 42 and values["state_spec"] == "thermal:0.5"
    ExperimentConfig(**values).validate()
