import hashlib
import json

import pytest

from cfotfs import cli, experiments


def test_noise_command_prints_paper_value(capsys):
    assert cli.main(["noise"]) == 0
    out = capsys.readouterr().out
    assert "-108.44 dBm" in out


def test_check_identities_passes(capsys):
    assert cli.main(["check-identities", "--paths", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "unitarity" in out
    assert "True" in out


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


@pytest.mark.parametrize("argv, message", [
    (["run-cdf", "--config", "no-such-config.json"], "no-such-config.json"),
    (["run-cdf", "--realizations", "0"], "realization"),
    (["validate", "--trials", "5", "--instances", "1"], "trials"),
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


def test_validate_report_bytes(tmp_path):
    # The seeded report, byte for byte: a change to the oracle, the
    # closed form or the report layout that moves any number shows here.
    out = tmp_path / "validation.json"
    assert cli.main(["validate", "--trials", "3000", "--instances", "1",
                     "--seed", "2", "--out", str(out)]) == 0
    assert hashlib.sha1(out.read_bytes()).hexdigest() == \
        "6b88f31f69c7ac30dc85862e2b34fb421ab303fc"


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
