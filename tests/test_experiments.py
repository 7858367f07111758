import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cfotfs import experiments
from cfotfs.channel import OtfsGrid
from cfotfs.experiments import ChannelParams
from cfotfs.geometry import NetworkConfig, apply_shadowing, place_network
from cfotfs.rng import substream

SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    @pytest.mark.parametrize("figure", [-1.0, np.nan])
    def test_power_params_reject_negative_figure(self, figure):
        # Rejected when the powers are built, not inside realization 0.
        with pytest.raises(ValueError, match="noise figure must be non-negative"):
            experiments.PowerParams(noise_figure_db=figure)


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
    def test_sample_count_and_positive_rates(self):
        cfg = tiny_config(realizations=5)
        tables = experiments.run_cdf(cfg)
        assert len(tables) == 1
        table = tables[0]
        assert len(table.throughput) == 5 * cfg.network.num_users
        assert np.all(table.rate > 0)

    def test_single_sample(self):
        cfg = tiny_config(realizations=1)
        cfg.network = NetworkConfig(num_aps=2, num_users=1)
        table = experiments.run_cdf(cfg)[0]
        assert len(table.throughput) == 1

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

    def test_serial_run_never_loads_multiprocessing(self):
        # Only a run with workers > 1 needs the process pool.
        code = ("import sys\n"
                "from cfotfs import experiments\n"
                "cfg = experiments.desk_preset(realizations=1)\n"
                "experiments.run_point(cfg, 8, 4, 'uncorr')\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[0] == 'multiprocessing'))\n")
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert done.stdout.strip() == "[]"

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

    @pytest.mark.parametrize("key", ["ap_counts", "user_counts"])
    def test_counts_below_one_named(self, key):
        for counts in ([0, -3], [4, 0]):
            with pytest.raises(ValueError, match=key):
                tiny_config(**{key: counts})

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
        manifest_path = experiments.write_run(
            out, data, "run-cdf", cfg, 0.0, cfg.realizations)
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
                                                  time.time(), realizations)
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


class TestRealizeLinks:
    def test_each_path_carries_an_equal_share_of_beta(self):
        # The split is formed once: LinkStats.beta is the per-path
        # variance the sampler drew the gains with.
        config = experiments.desk_preset()
        net, channel = config.network, config.channel
        rho_d, rho_u, rho_p = experiments.normalized_powers(config.powers,
                                                            config.grid)
        realization = experiments.realize_links(
            net, config.grid, channel, rho_d, rho_u, rho_p,
            np.random.default_rng(3))
        paths, stats = realization.pathsets, realization.stats
        rng = np.random.default_rng(3)
        beta = apply_shadowing(place_network(net, rng), net, rng)
        shape = beta.shape + (channel.n_paths,)
        assert stats.beta.shape == paths.gains.shape == shape
        np.testing.assert_array_equal(
            stats.beta, np.broadcast_to(beta[..., None] / channel.n_paths,
                                        shape))
        np.testing.assert_allclose(stats.beta.sum(axis=2), beta, rtol=1e-14)

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_path_count_below_one_named(self, n_paths):
        with pytest.raises(ValueError, match="need at least one path"):
            ChannelParams(n_paths=n_paths)


def test_distinct_delay_rates_pinned():
    # Per-user rates of three realizations of one distinct-delay network
    # (50 APs x 40 users, correlated shadowing), keyed as run_point keys
    # them; a refactor that moves no random draw keeps these bytes.
    config = experiments.paper_preset(
        channel=ChannelParams(n_paths=3, distinct_delays=True))
    digest = hashlib.sha1()
    for index in range(3):
        rng = substream(config.seed, experiments._MODE_IDS["corr"], 50, 40,
                        index)
        rates, _ = experiments.realize_user_rates(config, 50, 40, "corr", rng)
        digest.update(rates.tobytes())
    assert digest.hexdigest() == "deedfcdf04e5d1f20bfdc8f734db07a0112398c7"
