"""Command-line interface.

Subcommands: run-cdf (throughput CDF samples), run-vs-aps (mean throughput
versus AP count), validate (closed form vs Monte Carlo oracle),
check-identities (operator identity deviations) and noise (noise budget).
Experiment outputs are CSV files with a JSON run manifest next to them;
validation failures and identity violations exit 1, and bad values or
unreadable files print one error line and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import experiments, montecarlo
from .channel import OtfsGrid, sample_all_paths
from .exceptions import IdentityCheckError
from .operators import verify_operator_identities


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _resolve_config(args) -> experiments.ExperimentConfig:
    if args.config:
        config = experiments.load_config(args.config)
    else:
        config = experiments.PRESETS[args.preset]()
    # replace() re-runs the config's validation on the overridden fields.
    overrides = {"seed": args.seed, "shadowing": args.shadowing,
                 "realizations": args.realizations, "workers": args.workers}
    for key in ("ap_counts", "user_counts"):  # run-vs-aps flags only
        overrides[key] = getattr(args, key, None)
        if overrides[key] == []:
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"{flag} needs at least one integer")
    return replace(config, **{key: value for key, value in overrides.items()
                              if value is not None})


def _add_run_flags(parser, default_out):
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--preset", choices=sorted(experiments.PRESETS),
                        default="desk")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=default_out)
    parser.add_argument("--shadowing", choices=["corr", "uncorr", "both"],
                        default=None)
    parser.add_argument("--realizations", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)


def cmd_run_cdf(args) -> int:
    config = _resolve_config(args)
    started = time.time()
    tables = experiments.run_cdf(config)
    data = experiments.cdf_csv_bytes(tables)
    manifest = experiments.write_run(args.out, data, "run-cdf", config, started,
                                     config.realizations * len(tables))
    for table in tables:
        median, p5 = table.summary()
        print(f"{table.mode}: {len(table.throughput)} samples, "
              f"median {median / 1e6:.3f} Mbit/s, "
              f"95%-likely {p5 / 1e6:.3f} Mbit/s")
    print(f"wrote {args.out} and {manifest}")
    return 0


def cmd_run_vs_aps(args) -> int:
    config = _resolve_config(args)
    started = time.time()
    rows = experiments.run_vs_aps(config)
    data = experiments.sweep_csv_bytes(rows)
    manifest = experiments.write_run(args.out, data, "run-vs-aps", config,
                                     started, config.realizations * len(rows))
    for row in rows:
        print(f"{row['mode']} M_a={row['n_aps']} K_u={row['n_users']}: "
              f"mean {row['mean_throughput_mbps']:.3f} Mbit/s")
    print(f"wrote {args.out} and {manifest}")
    return 0


def _check_seed(args) -> None:
    # numpy's own message for a negative seed names no flag.
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")


def cmd_validate(args) -> int:
    _check_seed(args)
    grid = OtfsGrid(doppler_bins=args.doppler_bins, delay_bins=args.delay_bins)
    powers = experiments.PowerParams()
    rho_d, rho_u, rho_p = experiments.normalized_powers(powers, grid)
    if args.instances < 1:
        raise ValueError(
            f"--instances must be at least 1, got {args.instances}")
    reports = []
    failed = False
    for i in range(args.instances):
        instance = montecarlo.random_instance(
            grid, n_aps=args.aps, n_users=args.users, n_paths=args.paths,
            rho_d=rho_d, rho_u=rho_u, rho_p=rho_p, seed=args.seed + i,
            fractional=(i % 2 == 0))
        report = montecarlo.validate_rate(instance, trials=args.trials,
                                          seed=args.seed + i, gate=args.gate)
        reports.append(report.to_dict())
        status = "pass" if report.passed else "FAIL"
        print(f"instance {i}: {status}, max SINR rel. error "
              f"{report.max_rel_error:.4f} (gate {args.gate})")
        failed = failed or not report.passed
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


def cmd_check_identities(args) -> int:
    _check_seed(args)
    if args.paths < 1:
        raise ValueError(f"--paths must be at least 1, got {args.paths}")
    grid = OtfsGrid(doppler_bins=args.doppler_bins, delay_bins=args.delay_bins)
    # Unit-variance paths: the identities read taps and Dopplers only.
    paths = sample_all_paths(np.ones(args.paths), grid.delay_bins - 1,
                             max(grid.doppler_bins // 2 - 1, 0), grid,
                             args.seed)
    try:
        report = verify_operator_identities(paths, grid, tol=args.tol)
    except IdentityCheckError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"unitarity deviation:            {report.unitarity_dev:.3e}")
    print(f"distinct-delay diagonal:        {report.diag_zero_dev:.3e} "
          f"({report.n_diag_pairs} pairs)")
    print(f"row-sum magnitude deviation:    {report.row_sum_dev:.3e}")
    print(f"all within tol {args.tol:.1e}: {report.passed}")
    return 0


def cmd_noise(args) -> int:
    # The noise power reads only the bandwidth M * delta_f.
    grid = OtfsGrid(doppler_bins=1, delay_bins=args.delay_bins,
                    delta_f_hz=args.delta_f)
    dbm = experiments.noise_power_dbm(grid, args.noise_figure)
    print(f"noise power over {grid.bandwidth_hz / 1e3:.1f} kHz with "
          f"F={args.noise_figure:g} dB: {dbm:.2f} dBm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfotfs",
        description="Cell-free massive MIMO downlink with OTFS modulation: "
                    "closed-form rate experiments and oracle validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-cdf", help="per-user throughput CDF samples")
    _add_run_flags(p, "cdf.csv")
    p.set_defaults(func=cmd_run_cdf)

    p = sub.add_parser("run-vs-aps", help="mean throughput versus AP count")
    _add_run_flags(p, "vs_aps.csv")
    p.add_argument("--ap-counts", type=_int_list, default=None,
                   help="comma-separated AP counts")
    p.add_argument("--user-counts", type=_int_list, default=None,
                   help="comma-separated user counts")
    p.set_defaults(func=cmd_run_vs_aps)

    p = sub.add_parser("validate",
                       help="Monte Carlo validation of the closed-form SINR")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--gate", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delay-bins", type=int, default=4)
    p.add_argument("--doppler-bins", type=int, default=2)
    p.add_argument("--aps", type=int, default=2)
    p.add_argument("--users", type=int, default=2)
    p.add_argument("--paths", type=int, default=2)
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-identities",
                       help="operator identity deviations on random paths")
    p.add_argument("--delay-bins", type=int, default=8)
    p.add_argument("--doppler-bins", type=int, default=4)
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_identities)

    p = sub.add_parser("noise", help="receiver noise power in dBm")
    p.add_argument("--delay-bins", type=int, default=30)
    p.add_argument("--delta-f", type=float, default=15e3)
    p.add_argument("--noise-figure", type=float, default=9.0)
    p.set_defaults(func=cmd_noise)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Bad values and unreadable files exit with argparse's usage code;
        # notes (such as the failing realization's key) join the line.
        message = "; ".join([str(exc), *getattr(exc, "__notes__", [])])
        print(f"cfotfs: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
