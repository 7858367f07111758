"""Experiment runner: throughput CDFs, AP sweeps, noise budget and the
CSV/manifest outputs behind the command-line interface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import platform
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .channel import OtfsGrid, check_tap_ranges, sample_all_paths
from .estimation import check_doppler_guard, compute_link_stats
from .geometry import NetworkConfig, apply_shadowing, place_network
from .rate import (Realization, achievable_rate, equal_power_control,
                   power_constraint_load, rate_distinct_delays)
from .rng import substream

BOLTZMANN_J_PER_K = 1.381e-23
NOISE_TEMPERATURE_K = 290.0

_MODE_IDS = {"uncorr": 0, "corr": 1}


def noise_power_w(grid: OtfsGrid, noise_figure_db: float) -> float:
    """Receiver noise power in watts over the full bandwidth M*delta_f."""
    if not 0 <= noise_figure_db < math.inf:  # NaN fails too
        raise ValueError("noise figure must be non-negative and finite, got "
                         f"{noise_figure_db}")
    return (BOLTZMANN_J_PER_K * NOISE_TEMPERATURE_K * grid.bandwidth_hz
            * 10.0 ** (noise_figure_db / 10.0))


def noise_power_dbm(grid: OtfsGrid, noise_figure_db: float) -> float:
    return 10.0 * np.log10(noise_power_w(grid, noise_figure_db) * 1000.0)


@dataclass
class ChannelParams:
    """Per-link path sampling parameters."""

    n_paths: int = 5
    l_max: int = 2
    k_max: int = 3
    k_hat: int = 1
    fractional: bool = True
    distinct_delays: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"need at least one path, got {self.n_paths}")


@dataclass
class PowerParams:
    """Transmit powers in watts and the receiver noise figure; the rate
    expressions consume them normalized by the noise power."""

    down_w: float = 1.0
    up_w: float = 0.2
    pilot_w: float = 1.0
    noise_figure_db: float = 9.0

    def __post_init__(self):
        powers = (self.down_w, self.up_w, self.pilot_w)
        if not all(0 < w < math.inf for w in powers):  # NaN fails too
            raise ValueError("transmit powers must be positive and finite, "
                             f"got {powers}")
        if not 0 <= self.noise_figure_db < math.inf:
            raise ValueError("noise figure must be non-negative and finite, "
                             f"got {self.noise_figure_db}")


@dataclass
class ExperimentConfig:
    network: NetworkConfig
    grid: OtfsGrid
    channel: ChannelParams = field(default_factory=ChannelParams)
    powers: PowerParams = field(default_factory=PowerParams)
    realizations: int = 200
    seed: int = 0
    shadowing: str = "uncorr"  # "corr" | "uncorr" | "both"
    ap_counts: list = field(default_factory=list)
    user_counts: list = field(default_factory=list)
    workers: int = 1

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.shadowing not in ("corr", "uncorr", "both"):
            raise ValueError(f"unknown shadowing request {self.shadowing!r}")
        for key in ("ap_counts", "user_counts"):
            if any(count < 1 for count in getattr(self, key)):
                raise ValueError(f"{key} entries must be at least 1, "
                                 f"got {getattr(self, key)}")
        # The sampler and the link statistics check these again; here a
        # bad setting fails before any realization runs.
        check_tap_ranges(self.channel.l_max, self.channel.k_max, self.grid)
        check_doppler_guard(self.channel.k_max, self.channel.k_hat, self.grid)

    @property
    def modes(self) -> list:
        return ["uncorr", "corr"] if self.shadowing == "both" else [self.shadowing]


def desk_preset(**overrides) -> ExperimentConfig:
    """Small configuration for fast local runs and CI."""
    cfg = ExperimentConfig(
        network=NetworkConfig(num_aps=8, num_users=4),
        grid=OtfsGrid(doppler_bins=4, delay_bins=8),
        channel=ChannelParams(n_paths=3, l_max=2, k_max=0, k_hat=0),
        realizations=50,
        ap_counts=[4, 8, 12],
        user_counts=[2, 4],
    )
    return replace(cfg, **overrides)


def paper_preset(**overrides) -> ExperimentConfig:
    """Full-scale configuration: 30x20 grid, 40 APs, 20 users, 200
    realizations, five-path links with fractional Doppler."""
    cfg = ExperimentConfig(
        network=NetworkConfig(num_aps=40, num_users=20),
        grid=OtfsGrid(doppler_bins=20, delay_bins=30),
        channel=ChannelParams(),
        realizations=200,
        ap_counts=[10, 20, 30, 40, 50],
        user_counts=[20, 40],
    )
    return replace(cfg, **overrides)


PRESETS = {"desk": desk_preset, "paper": paper_preset}


def config_to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


_SECTIONS = {"network": NetworkConfig, "grid": OtfsGrid,
             "channel": ChannelParams, "powers": PowerParams}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What a JSON config value must be, by its field's annotation (a string:
# the config modules postpone annotations); the list fields hold AP and
# user counts.
_VALUE_CHECKS = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list of integers",
             lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def _from_fields(cls, data: dict, section: str):
    """cls(**data), naming any key that cls has no field for, any required
    key that data lacks and any value of the wrong type."""
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(annotations))
    if unknown:
        raise ValueError(f"unknown {section} config key(s): {', '.join(unknown)}")
    prefix = "" if cls is ExperimentConfig else section + "."
    missing = [prefix + f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"config lacks required key(s): {', '.join(missing)}")
    for key, value in data.items():
        # Section fields have no entry: they arrive already built.
        expected, check = _VALUE_CHECKS.get(annotations[key], (None, None))
        if check is not None and not check(value):
            raise ValueError(f"config key {prefix}{key} must be {expected}, "
                             f"got {value!r}")
    return cls(**data)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValueError(f"config must be an object, got {data!r}")
    data = dict(data)
    for key, cls in _SECTIONS.items():
        if key in data:
            if not isinstance(data[key], dict):
                raise ValueError(f"config key {key} must be an object, "
                                 f"got {data[key]!r}")
            data[key] = _from_fields(cls, data[key], key)
    return _from_fields(ExperimentConfig, data, "experiment")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def normalized_powers(powers: PowerParams, grid: OtfsGrid):
    """(rho_d, rho_u, rho_p): transmit powers over the noise power."""
    sigma2 = noise_power_w(grid, powers.noise_figure_db)
    return powers.down_w / sigma2, powers.up_w / sigma2, powers.pilot_w / sigma2


def realize_links(net: NetworkConfig, grid: OtfsGrid, channel: ChannelParams,
                  rho_d: float, rho_u: float, rho_p: float, rng,
                  correlated: bool = False) -> Realization:
    """One network realization, drawn from rng: placement, shadowing, path
    sampling, MMSE statistics, equal power control and the per-AP load
    check, each stage looked up in this module."""
    if not 0 <= rho_d < math.inf:  # NaN fails too
        raise ValueError("downlink power rho_d must be non-negative and "
                         f"finite, got {rho_d}")
    beta = apply_shadowing(place_network(net, rng), net, rng,
                           correlated=correlated)
    # Each path carries 1/L of its link's large-scale gain.
    variances = np.repeat(beta[..., None] / channel.n_paths, channel.n_paths,
                          axis=-1)
    paths = sample_all_paths(
        variances, channel.l_max, channel.k_max, grid, rng,
        fractional=channel.fractional,
        distinct_delays=channel.distinct_delays)
    stats = compute_link_stats(variances, channel.k_max, channel.k_hat,
                               rho_p, rho_u, grid)
    pc = equal_power_control(stats)
    dev = np.max(np.abs(power_constraint_load(stats, pc) - 1.0))
    if not dev <= 1e-12:  # NaN fails too
        raise RuntimeError(f"per-AP power constraint violated: max deviation "
                           f"{dev:.3e}")
    return Realization(grid, paths, stats, pc, rho_d)


def realize_user_rates(config: ExperimentConfig, n_aps: int, n_users: int,
                       mode: str, rng):
    """One realize_links network and its per-user closed-form rate.
    Returns (rates, throughputs) arrays of length n_users."""
    if mode not in _MODE_IDS:
        raise ValueError(f"unknown shadowing mode {mode!r}")
    net = replace(config.network, num_aps=n_aps, num_users=n_users)
    grid, ch = config.grid, config.channel
    realization = realize_links(
        net, grid, ch, *normalized_powers(config.powers, grid), rng,
        correlated=mode == "corr")
    rate_fn = rate_distinct_delays if ch.distinct_delays else achievable_rate
    rates = np.empty(n_users)
    tputs = np.empty(n_users)
    for q in range(n_users):
        report = rate_fn(q, realization)
        rates[q] = report.rate_bps_hz
        tputs[q] = report.throughput_bps
    return rates, tputs


def _realization_task(args):
    config, n_aps, n_users, mode, index = args
    rng = substream(config.seed, _MODE_IDS[mode], n_aps, n_users, index)
    try:
        rates, tputs = realize_user_rates(config, n_aps, n_users, mode, rng)
    except Exception as exc:
        # The note travels with the exception out of worker processes.
        exc.add_note(f"in realization seed={config.seed} mode={mode} "
                     f"aps={n_aps} users={n_users} index={index}")
        raise
    return rates, tputs


@dataclass
class CdfTable:
    """Pooled per-user throughput samples of one (mode, size) run."""

    mode: str
    n_aps: int
    n_users: int
    realization: np.ndarray
    user: np.ndarray
    rate: np.ndarray  # bit/s/Hz
    throughput: np.ndarray  # bit/s

    def summary(self):
        """(median, 5th percentile) of the throughput samples."""
        return summary_stats(self.throughput)


def summary_stats(samples):
    """Median and 5th percentile ("95%-likely" value) with linear
    interpolation between order statistics."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples")
    median, p5 = np.percentile(samples, [50.0, 5.0], method="linear")
    return float(median), float(p5)


def run_point(config: ExperimentConfig, n_aps: int, n_users: int,
              mode: str) -> CdfTable:
    """All realizations of one (mode, M_a, K_u) point.

    Realizations use substreams keyed by their index, so the output is
    identical whether they run serially or across worker processes;
    both return results in realization order.
    """
    tasks = [(config, n_aps, n_users, mode, i)
             for i in range(config.realizations)]
    if config.workers > 1:
        # Imported here: loading multiprocessing slows every serial run.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_realization_task, tasks, chunksize=4))
    else:
        results = [_realization_task(t) for t in tasks]
    realization = np.repeat(np.arange(config.realizations), n_users)
    user = np.tile(np.arange(n_users), config.realizations)
    rate = np.concatenate([r for r, _ in results])
    tput = np.concatenate([t for _, t in results])
    return CdfTable(mode=mode, n_aps=n_aps, n_users=n_users,
                    realization=realization, user=user, rate=rate,
                    throughput=tput)


def run_cdf(config: ExperimentConfig) -> list:
    """Per-user throughput CDF tables, one per requested shadowing mode."""
    return [run_point(config, config.network.num_aps,
                      config.network.num_users, mode)
            for mode in config.modes]


def run_vs_aps(config: ExperimentConfig) -> list:
    """Mean per-user throughput for each (mode, K_u, M_a) sweep point of
    config.user_counts and config.ap_counts; an empty list sweeps only
    the network's own count.

    Returns dict rows ready for CSV emission, ordered by mode, user count
    and AP count.
    """
    ap_counts = config.ap_counts or [config.network.num_aps]
    user_counts = config.user_counts or [config.network.num_users]
    rows = []
    for mode in config.modes:
        for n_users in user_counts:
            for n_aps in ap_counts:
                table = run_point(config, n_aps, n_users, mode)
                median, p5 = table.summary()
                rows.append({
                    "mode": mode,
                    "n_aps": n_aps,
                    "n_users": n_users,
                    "realizations": config.realizations,
                    "mean_rate_bps_hz": float(table.rate.mean()),
                    "mean_throughput_mbps": float(table.throughput.mean() / 1e6),
                    "median_throughput_mbps": median / 1e6,
                    "p5_throughput_mbps": p5 / 1e6,
                })
    return rows


# ---------------------------------------------------------------------------
# Output plumbing

CDF_HEADER = ["mode", "realization", "user", "rate_bps_hz", "throughput_mbps"]
SWEEP_HEADER = ["mode", "n_aps", "n_users", "realizations", "mean_rate_bps_hz",
                "mean_throughput_mbps", "median_throughput_mbps",
                "p5_throughput_mbps"]


def _csv_bytes(header: list, rows) -> bytes:
    """Header and rows as CSV. The csv module writes a Python float with
    repr(), which round-trips, but a NumPy scalar as np.float64(...)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def cdf_csv_bytes(tables: list) -> bytes:
    return _csv_bytes(CDF_HEADER, (
        row for table in tables
        for row in zip([table.mode] * len(table.throughput),
                       table.realization.tolist(), table.user.tolist(),
                       table.rate.tolist(), (table.throughput / 1e6).tolist())))


def sweep_csv_bytes(rows: list) -> bytes:
    return _csv_bytes(SWEEP_HEADER,
                      ([row[key] for key in SWEEP_HEADER] for row in rows))


def git_blob_sha1(data: bytes) -> str:
    """Content hash the way git hashes a blob."""
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def write_run(out_path, csv_data: bytes, command: str,
              config: ExperimentConfig, started: float,
              realizations: int) -> str:
    """Write the CSV and its JSON run manifest; returns the manifest path."""
    out_path = str(out_path)
    with open(out_path, "wb") as fh:
        fh.write(csv_data)
    wall_time_s = time.time() - started
    manifest = {
        "command": command,
        "config": config_to_dict(config),
        "output": out_path,
        "content_sha1": git_blob_sha1(csv_data),
        "wall_time_s": wall_time_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": config.workers,
        "realizations": realizations,
        # time.time() is the wall clock, which may step.
        "realizations_per_s": (realizations / wall_time_s
                               if wall_time_s > 0 else None),
    }
    manifest_path = out_path + ".manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path
