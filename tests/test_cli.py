import hashlib
import json

import pytest

from cfotfs import cli, experiments


def test_noise_command_prints_paper_value(capsys):
    assert cli.main(["noise"]) == 0
    out = capsys.readouterr().out
    assert "-108.44 dBm" in out


@pytest.mark.parametrize("flags, message", [
    (["--delta-f", "nan"], "frequencies must be positive and finite"),
    (["--delta-f", "inf"], "frequencies must be positive and finite"),
    (["--noise-figure", "nan"], "noise figure must be non-negative and finite"),
    (["--noise-figure", "inf"], "noise figure must be non-negative and finite"),
])
def test_noise_rejects_non_finite_values(capsys, flags, message):
    assert cli.main(["noise", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cfotfs: error: {message}")
    assert len(captured.err.splitlines()) == 1


def test_noise_rejects_doppler_bins(capsys):
    # The noise power reads only M x delta_f; a Doppler bin count there
    # would change nothing.
    with pytest.raises(SystemExit) as exc:
        cli.main(["noise", "--doppler-bins", "20"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --doppler-bins" in capsys.readouterr().err


def test_check_identities_passes(capsys):
    # The exit code is the verdict; the lines report the three deviations.
    assert cli.main(["check-identities", "--paths", "20", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].strip() for line in lines] == [
        "unitarity deviation", "distinct-delay diagonal",
        "row-sum magnitude deviation"]
    for line in lines:
        assert float(line.split(":")[1].split()[0]) <= 1e-9


def test_run_cdf_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "cdf.csv"
    rc = cli.main(["run-cdf", "--preset", "desk", "--realizations", "2",
                   "--seed", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_bytes().splitlines()
    assert lines[0] == b"mode,realization,user,rate_bps_hz,throughput_mbps"
    assert len(lines) == 1 + 2 * 4  # header + realizations * users
    manifest = json.loads((tmp_path / "cdf.csv.manifest.json").read_text())
    assert manifest["content_sha1"] == experiments.git_blob_sha1(
        out.read_bytes())
    assert manifest["config"]["seed"] == 11
    assert manifest["realizations"] == 2
    assert "median" in capsys.readouterr().out


def test_run_cdf_deterministic_across_invocations(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cli.main(["run-cdf", "--preset", "desk", "--realizations", "2",
                  "--seed", "5", "--shadowing", "both", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_vs_aps_with_flags(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["run-vs-aps", "--preset", "desk", "--realizations", "2",
                   "--seed", "3", "--ap-counts", "4,8",
                   "--user-counts", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == experiments.SWEEP_HEADER
    assert len(lines) == 3
    assert "M_a=8" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["realizations"] == 2 * 2  # AP counts * realizations


def test_empty_ap_counts_rejected(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["run-vs-aps", "--realizations", "1", "--ap-counts", ",",
                   "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cfotfs: error: --ap-counts needs at least one")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run-vs-aps", "--preset", "desk", "--realizations", "2", "--seed", "3",
     "--ap-counts", "4,8", "--user-counts", "2", "--shadowing", "corr"],
    ["run-cdf", "--preset", "desk", "--realizations", "2", "--seed", "3",
     "--shadowing", "corr"],
])
def test_manifest_config_replays_the_run(tmp_path, argv):
    # The manifest records the config the run used, flags included, so
    # running its config again writes the same bytes.
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert cli.main(argv + ["--out", str(first)]) == 0
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    assert "shadowing_mode" not in manifest["config"]["network"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(manifest["config"]))
    assert cli.main([argv[0], "--config", str(cfg_path),
                     "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_config_naming_shadowing_mode_rejected(tmp_path, capsys):
    data = experiments.config_to_dict(experiments.desk_preset())
    data["network"]["shadowing_mode"] = "correlated"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    rc = cli.main(["run-cdf", "--config", str(cfg_path),
                   "--out", str(tmp_path / "cdf.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cfotfs: error: unknown network config key")
    assert "shadowing_mode" in err and len(err.splitlines()) == 1


def test_config_file_round_trip(tmp_path):
    cfg = experiments.desk_preset(realizations=2, seed=9)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(experiments.config_to_dict(cfg)))
    out1 = tmp_path / "from_config.csv"
    out2 = tmp_path / "from_preset.csv"
    cli.main(["run-cdf", "--config", str(cfg_path), "--out", str(out1)])
    cli.main(["run-cdf", "--preset", "desk", "--realizations", "2",
              "--seed", "9", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    data = experiments.config_to_dict(experiments.desk_preset())
    data["worker"] = 2
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    rc = cli.main(["run-cdf", "--config", str(cfg_path),
                   "--out", str(tmp_path / "cdf.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cfotfs: error: unknown experiment config key")
    assert "worker" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("section, key, value, message", [
    (None, "ap_counts", 4, "config key ap_counts must be a list of integers"),
    (None, "realizations", "2", "config key realizations must be an integer"),
    ("grid", "doppler_bins", 4.5,
     "config key grid.doppler_bins must be an integer"),
    (None, "grid", 5, "config key grid must be an object"),
], ids=["ap_counts", "realizations", "doppler_bins", "grid"])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, section, key,
                                             value, message):
    # A desk config written by config_to_dict with one value's type changed.
    data = experiments.config_to_dict(experiments.desk_preset())
    (data[section] if section else data)[key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "sweep.csv"
    rc = cli.main(["run-vs-aps", "--config", str(cfg_path), "--realizations",
                   "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cfotfs: error: {message}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("grid", "delta_f_hz", float("nan"),
     "frequencies must be positive and finite"),
    ("powers", "down_w", float("inf"),
     "transmit powers must be positive and finite"),
    ("network", "area_side_km", float("inf"),
     "require 0 < d0 < d1 < area side < infinity"),
    ("network", "shadow_std_db", float("nan"),
     "shadow_std_db must be non-negative and finite"),
    ("network", "path_loss_const_db", float("inf"),
     "path_loss_const_db must be finite"),
    ("network", "decorr_distance_m", 0,
     "decorr_distance_m must be positive and finite"),
], ids=["delta_f_nan", "down_w_inf", "area_inf", "shadow_nan", "loss_inf",
        "decorr_zero"])
def test_config_value_out_of_range_rejected(tmp_path, capsys, section, key,
                                            value, message):
    # json writes and reads NaN and Infinity; the config is refused when
    # it is built, before any realization runs.
    data = experiments.config_to_dict(experiments.desk_preset())
    data[section][key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "cdf.csv"
    rc = cli.main(["run-cdf", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cfotfs: error: {message}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("l_max", 100, "l_max must lie in [0, delay_bins - 1]"),
    ("k_max", -2, "k_max must lie in [0, 1] for this grid"),
    ("k_hat", -1, "guard widths must be non-negative"),
    ("k_hat", 50, "Doppler guard spans 201 bins, frame only has 4"),
], ids=["l_max", "k_max", "k_hat_negative", "k_hat_guard"])
def test_channel_setting_the_grid_cannot_hold_rejected(tmp_path, capsys, key,
                                                       value, message):
    # The desk grid has 8 delay and 4 Doppler bins; the config is refused
    # when it is built, not inside realization 0.
    data = experiments.config_to_dict(experiments.desk_preset())
    data["channel"][key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "cdf.csv"
    rc = cli.main(["run-cdf", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"cfotfs: error: {message}\n"
    assert not out.exists()


def _without(key):
    data = experiments.config_to_dict(experiments.desk_preset())
    del data[key]
    return data


@pytest.mark.parametrize("data, message", [
    (_without("network"), "config lacks required key(s): network"),
    (_without("grid"), "config lacks required key(s): grid"),
    ({**_without("network"), "network": {"num_aps": 4}},
     "config lacks required key(s): network.num_users"),
    ([1, 2], "config must be an object, got [1, 2]"),
], ids=["network", "grid", "num_users", "top-level-list"])
def test_config_missing_key_named(tmp_path, capsys, data, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "cdf.csv"
    rc = cli.main(["run-cdf", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cfotfs: error: {message}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags, field", [(["--seed", "-1"], "seed"),
                                          (["--workers", "0"], "workers")])
def test_bad_override_rejected_before_running(tmp_path, capsys, flags, field):
    out = tmp_path / "cdf.csv"
    rc = cli.main(["run-cdf", "--realizations", "1", "--out", str(out)]
                  + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cfotfs: error: ") and field in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("key, counts, source", [
    ("ap_counts", [4, 0], "flags"), ("user_counts", [2, -3], "flags"),
    ("ap_counts", [0, -3], "config"), ("user_counts", [0], "config"),
], ids=["ap-flags", "user-flags", "ap-config", "user-config"])
def test_count_below_one_rejected_before_running(tmp_path, monkeypatch,
                                                 capsys, key, counts, source):
    realized = []
    monkeypatch.setattr(experiments, "realize_user_rates",
                        lambda *args: realized.append(args))
    argv = ["run-vs-aps", "--realizations", "1"]
    if source == "flags":
        argv += ["--" + key.replace("_", "-"), ",".join(map(str, counts))]
    else:
        data = experiments.config_to_dict(experiments.desk_preset())
        data[key] = counts
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(data))
        argv += ["--config", str(cfg_path)]
    out = tmp_path / "sweep.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cfotfs: error: {key} entries must be at least 1")
    assert len(err.splitlines()) == 1
    assert realized == [] and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run-cdf", "--config", "no-such-config.json"], "no-such-config.json"),
    (["run-cdf", "--realizations", "0"], "realization"),
    (["validate", "--trials", "5", "--instances", "1"], "trials"),
    # One trial per batch: no batch variance, so no verdict.
    (["validate", "--trials", "15", "--instances", "1", "--seed", "2"],
     "trials must be at least 20"),
    # No instance: nothing would be checked.
    (["validate", "--instances", "0"], "--instances must be at least 1"),
    (["validate", "--instances", "-2"], "--instances must be at least 1"),
    (["validate", "--gate", "-1"], "gate must be positive and finite"),
    (["validate", "--gate", "nan"], "gate must be positive and finite"),
    (["validate", "--seed", "-1"], "--seed must be non-negative"),
    (["check-identities", "--tol", "nan"], "tol must be positive and finite"),
    (["check-identities", "--tol", "-1"], "tol must be positive and finite"),
    (["check-identities", "--seed", "-1"], "--seed must be non-negative"),
    (["check-identities", "--paths", "0"], "--paths must be at least 1"),
    (["check-identities", "--paths", "-2"], "--paths must be at least 1"),
    (["validate", "--paths", "0"], "need at least one path"),
])
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys,
                                         argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cfotfs: error: ")
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_validate_command(tmp_path, capsys):
    report_path = tmp_path / "validation.json"
    rc = cli.main(["validate", "--trials", "12000", "--instances", "1",
                   "--seed", "2", "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pass" in out
    reports = json.loads(report_path.read_text())
    assert reports[0]["passed"] is True
    assert reports[0]["checks"]


def test_validate_records_the_trials_run(tmp_path):
    # Trials run in 10 whole batches: 25 requested, 20 run and recorded.
    out = tmp_path / "validation.json"
    assert cli.main(["validate", "--trials", "25", "--instances", "1",
                     "--seed", "2", "--out", str(out)]) in (0, 1)
    assert json.loads(out.read_text())[0]["trials"] == 20


def test_validate_report_bytes(tmp_path):
    # The seeded report, byte for byte: a change to the oracle, the
    # closed form or the report layout that moves any number shows here.
    out = tmp_path / "validation.json"
    assert cli.main(["validate", "--trials", "3000", "--instances", "1",
                     "--seed", "2", "--out", str(out)]) == 0
    assert hashlib.sha1(out.read_bytes()).hexdigest() == \
        "934ef3927925ddd3117409a0561114df8eab3584"


@pytest.mark.parametrize("argv, sha1", [
    (["--preset", "desk", "--shadowing", "both"],
     "eda6f798c4193e55551ae0ebb16d52a7dbaff31e"),
    (["--preset", "paper", "--realizations", "5"],
     "888cfb7636c97fee00db9b8de4f1ed4ecc6f2d61"),
])
def test_run_cdf_csv_bytes(tmp_path, argv, sha1):
    # The seeded CSVs of run-cdf at seed 1, as git hashes the blob.
    out = tmp_path / "cdf.csv"
    assert cli.main(["run-cdf", *argv, "--seed", "1", "--out", str(out)]) == 0
    assert experiments.git_blob_sha1(out.read_bytes()) == sha1


def test_validate_failure_exits_nonzero(tmp_path, capsys):
    # An absurdly tight gate forces the failure path and nonzero exit.
    rc = cli.main(["validate", "--trials", "2000", "--instances", "1",
                   "--seed", "2", "--gate", "1e-9"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_failing_realization_named_on_the_error_line(tmp_path, capsys):
    # Four distinct delay taps cannot be drawn from [0, 2]; the first
    # realization raises, and the error line names its substream key.
    data = experiments.config_to_dict(experiments.desk_preset(seed=4))
    data["channel"].update(n_paths=4, distinct_delays=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "cdf.csv"
    assert cli.main(["run-cdf", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cfotfs: error: cannot draw 4 distinct delay taps")
    assert "; in realization seed=4 mode=uncorr aps=8 users=4 index=0" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()
