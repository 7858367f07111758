import hashlib
import json
import pickle
import platform
import time

import numpy as np
import pytest

from cfotfs import experiments
from cfotfs.channel import OtfsGrid
from cfotfs.geometry import NetworkConfig


def tiny_config(**kw):
    defaults = dict(realizations=4, seed=42)
    defaults.update(kw)
    return experiments.desk_preset(**defaults)


class TestNoisePower:
    def test_paper_value(self):
        grid = OtfsGrid(doppler_bins=20, delay_bins=30, delta_f_hz=15e3)
        assert experiments.noise_power_dbm(grid, 9.0) == pytest.approx(
            -108.0, abs=0.5)

    def test_thermal_floor_per_hz(self):
        grid = OtfsGrid(doppler_bins=1, delay_bins=1, delta_f_hz=1.0)
        assert experiments.noise_power_dbm(grid, 0.0) == pytest.approx(
            -174.0, abs=0.1)

    def test_doubling_bandwidth_adds_3db(self):
        g1 = OtfsGrid(doppler_bins=4, delay_bins=16, delta_f_hz=15e3)
        g2 = OtfsGrid(doppler_bins=4, delay_bins=32, delta_f_hz=15e3)
        delta = (experiments.noise_power_dbm(g2, 5.0)
                 - experiments.noise_power_dbm(g1, 5.0))
        assert delta == pytest.approx(3.01, abs=0.01)

    def test_negative_figure_rejected(self):
        grid = OtfsGrid(doppler_bins=4, delay_bins=4)
        with pytest.raises(ValueError):
            experiments.noise_power_w(grid, -1.0)


class TestSummaryStats:
    def test_linear_interpolation_convention(self):
        median, p5 = experiments.summary_stats(np.arange(1, 101))
        assert median == pytest.approx(50.5)
        assert p5 == pytest.approx(5.95)

    def test_constant_samples(self):
        median, p5 = experiments.summary_stats([3.0] * 7)
        assert median == 3.0 and p5 == 3.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=50)
        assert experiments.summary_stats(x) == experiments.summary_stats(
            rng.permutation(x))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            experiments.summary_stats([])


class TestRunCdf:
    def test_sample_count_and_monotone_cdf(self):
        cfg = tiny_config(realizations=5)
        tables = experiments.run_cdf(cfg)
        assert len(tables) == 1
        table = tables[0]
        assert len(table.throughput) == 5 * cfg.network.num_users
        x, p = table.cdf()
        assert np.all(np.diff(x) >= 0)
        assert np.all(np.diff(p) > 0)
        assert p[0] > 0 and p[-1] == pytest.approx(1.0)
        assert np.all(table.rate > 0)

    def test_single_sample_step_function(self):
        cfg = tiny_config(realizations=1)
        cfg.network = NetworkConfig(num_aps=2, num_users=1)
        table = experiments.run_cdf(cfg)[0]
        assert len(table.throughput) == 1
        x, p = table.cdf()
        assert p.tolist() == [1.0]

    def test_both_modes(self):
        cfg = tiny_config(realizations=2, shadowing="both")
        tables = experiments.run_cdf(cfg)
        assert [t.mode for t in tables] == ["uncorr", "corr"]
        assert not np.array_equal(tables[0].rate, tables[1].rate)

    def test_unknown_mode_named(self):
        with pytest.raises(ValueError, match="'correlated'"):
            experiments.realize_user_rates(tiny_config(), 8, 4, "correlated",
                                           np.random.default_rng(0))

    def test_deterministic_bytes(self):
        cfg = tiny_config(realizations=3, shadowing="both")
        a = experiments.cdf_csv_bytes(experiments.run_cdf(cfg))
        b = experiments.cdf_csv_bytes(experiments.run_cdf(cfg))
        assert a == b
        assert a.splitlines()[0] == b"mode,realization,user,rate_bps_hz,throughput_mbps"

    def test_parallel_matches_serial(self):
        serial = tiny_config(realizations=4)
        parallel = tiny_config(realizations=4, workers=2)
        a = experiments.cdf_csv_bytes(experiments.run_cdf(serial))
        b = experiments.cdf_csv_bytes(experiments.run_cdf(parallel))
        assert a == b

    def test_seed_changes_output(self):
        a = experiments.cdf_csv_bytes(experiments.run_cdf(tiny_config(seed=1)))
        b = experiments.cdf_csv_bytes(experiments.run_cdf(tiny_config(seed=2)))
        assert a != b

    def test_failing_realization_names_its_key(self, monkeypatch):
        real = experiments.realize_user_rates
        calls = []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return real(*args)

        monkeypatch.setattr(experiments, "realize_user_rates", fail_second)
        with pytest.raises(RuntimeError, match="boom") as info:
            experiments.run_point(tiny_config(realizations=3), 8, 4, "corr")
        note = "in realization seed=42 mode=corr aps=8 users=4 index=1"
        assert info.value.__notes__ == [note]
        # Worker processes send exceptions back pickled.
        assert pickle.loads(pickle.dumps(info.value)).__notes__ == [note]


class TestRunVsAps:
    def test_rows_and_user_scaling(self):
        cfg = tiny_config(realizations=6, ap_counts=[8], user_counts=[2, 4])
        rows = experiments.run_vs_aps(cfg)
        assert len(rows) == 2
        by_users = {r["n_users"]: r["mean_throughput_mbps"] for r in rows}
        assert by_users[4] < by_users[2]

    def test_more_aps_help(self):
        cfg = tiny_config(realizations=8, ap_counts=[2, 12], user_counts=[2])
        rows = experiments.run_vs_aps(cfg)
        assert rows[1]["mean_throughput_mbps"] > rows[0]["mean_throughput_mbps"]

    def test_empty_counts_sweep_the_network_size(self):
        cfg = tiny_config(realizations=1, ap_counts=[], user_counts=[])
        rows = experiments.run_vs_aps(cfg)
        assert [(r["n_aps"], r["n_users"]) for r in rows] == [(8, 4)]


class TestConfigPlumbing:
    def test_round_trip(self):
        cfg = experiments.paper_preset(seed=7)
        again = experiments.config_from_dict(experiments.config_to_dict(cfg))
        assert again == cfg

    def test_load_config_file(self, tmp_path):
        cfg = tiny_config(seed=5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(experiments.config_to_dict(cfg)))
        assert experiments.load_config(path) == cfg

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            experiments.ExperimentConfig(
                network=NetworkConfig(num_aps=2, num_users=1),
                grid=OtfsGrid(doppler_bins=4, delay_bins=8), workers=0)

    def test_unknown_key_named(self):
        data = experiments.config_to_dict(tiny_config())
        data["channel"]["n_path"] = 3
        with pytest.raises(ValueError, match="channel config key.*n_path"):
            experiments.config_from_dict(data)

    def test_presets(self):
        desk = experiments.desk_preset()
        paper = experiments.paper_preset()
        assert desk.grid.size < paper.grid.size
        assert paper.grid.delay_bins == 30 and paper.grid.doppler_bins == 20
        assert paper.network.num_aps == 40 and paper.network.num_users == 20
        assert paper.realizations == 200


class TestOutputs:
    def test_git_blob_hash_known_value(self):
        # sha1("blob 5\0hello") as git computes it.
        expected = hashlib.sha1(b"blob 5\x00hello").hexdigest()
        assert experiments.git_blob_sha1(b"hello") == expected
        assert experiments.git_blob_sha1(b"hello") == \
            "b6fc4c620b67d95f953a5c1c1230aaab5db5a1b0"

    def test_write_run_manifest(self, tmp_path):
        cfg = tiny_config(realizations=2)
        tables = experiments.run_cdf(cfg)
        data = experiments.cdf_csv_bytes(tables)
        out = tmp_path / "cdf.csv"
        manifest_path = experiments.write_run(out, data, "run-cdf", cfg, 0.0)
        assert out.read_bytes() == data
        manifest = json.loads((tmp_path / "cdf.csv.manifest.json").read_text())
        assert manifest_path.endswith("cdf.csv.manifest.json")
        assert manifest["command"] == "run-cdf"
        assert manifest["content_sha1"] == experiments.git_blob_sha1(data)
        assert manifest["config"]["seed"] == cfg.seed
        assert manifest["wall_time_s"] > 0
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["workers"] == cfg.workers
        assert manifest["realizations"] == 2
        assert manifest["realizations_per_s"] == pytest.approx(
            2 / manifest["wall_time_s"])

    def test_manifest_leaves_csv_bytes_alone(self, tmp_path):
        # The desk preset's seeded CSVs, byte for byte; timings and
        # versions go to the manifest only.
        cfg = tiny_config(realizations=2, shadowing="both", ap_counts=[4, 8],
                          user_counts=[2])
        cdf = experiments.cdf_csv_bytes(experiments.run_cdf(cfg))
        sweep = experiments.sweep_csv_bytes(experiments.run_vs_aps(cfg))
        for name, data, sha1, realizations in (
                ("cdf.csv", cdf, "c2e3a9acec4deecc869156e65099f6a91f14fb6b", 4),
                ("sweep.csv", sweep, "0ec030ab309a006d203bf3de7b57112e46ed90c1", 8)):
            out = tmp_path / name
            manifest_path = experiments.write_run(out, data, "run", cfg,
                                                  time.time())
            manifest = json.loads(open(manifest_path).read())
            assert out.read_bytes() == data
            assert manifest["content_sha1"] == sha1
            assert manifest["realizations"] == realizations

    def test_sweep_csv_header(self):
        cfg = tiny_config(realizations=2, ap_counts=[4], user_counts=[2])
        rows = experiments.run_vs_aps(cfg)
        data = experiments.sweep_csv_bytes(rows)
        header = data.splitlines()[0].decode().split(",")
        assert header == experiments.SWEEP_HEADER
        assert len(data.splitlines()) == 2
