"""Benchmark workloads: inputs made from the seed, one operation per call
of ``run(index)``, and output checks that survive a change in the order
of random draws (no rate value is pinned).

Importing this module imports cfotfs, so the benchmark imports it inside
its timed set-up.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from cfotfs import experiments, montecarlo, rate
from cfotfs.channel import OtfsGrid
from cfotfs.experiments import ChannelParams
from cfotfs.rng import substream

# Substream key of experiments.run_point: (seed, mode id, APs, users, index).
MODE_IDS = {"uncorr": 0, "corr": 1}

# Layers traced with --trace 1: (metric prefix, module, attribute the
# calling module looks the function up by).
LAYERS = [
    ("geometry.place_network", experiments, "place_network"),
    ("geometry.apply_shadowing", experiments, "apply_shadowing"),
    ("channel.sample_all_paths", experiments, "sample_all_paths"),
    ("channel.stack_variances", experiments, "stack_variances"),
    ("estimation.plan_pilots", experiments, "plan_pilots"),
    ("estimation.compute_link_stats", experiments, "compute_link_stats"),
    ("rate.equal_power_control", experiments, "equal_power_control"),
    ("rate.power_constraint_load", experiments, "power_constraint_load"),
    ("rate.achievable_rate", experiments, "achievable_rate"),
    ("rate.rate_distinct_delays", experiments, "rate_distinct_delays"),
    ("operators.chi_kappa_tables", rate, "chi_kappa_tables"),
    ("operators.dd_operator", montecarlo, "dd_operator"),
    ("estimation.sample_estimate", montecarlo, "sample_estimate"),
]

# Layers whose traced children are subtracted: reported as .self_s.
SELF_TIMED = {"rate.achievable_rate", "montecarlo.estimate_terms"}
# Per-layer metrics are reported for every traced layer and the oracle's
# operation root; a layer a workload never calls reports zeros.
REPORTED = [name for name, _, _ in LAYERS] + ["montecarlo.estimate_terms"]

TERMS = ("ds", "bu", "isi", "iui")


def path_pair_counts(pathsets) -> dict:
    """Links, ordered off-diagonal path pairs and those among them that
    share a delay tap (only those need the Dirichlet sum in chi/kappa)."""
    taps = np.array([[ps.delay_taps for ps in row] for row in pathsets])
    n_paths = taps.shape[-1]
    same = int((taps[..., :, None] == taps[..., None, :]).sum()) - taps.size
    links = taps.shape[0] * taps.shape[1]
    return {"links": links, "pairs": links * n_paths * (n_paths - 1),
            "same_delay_pairs": same}


def install_tracer(tracer) -> None:
    for name, module, attr in LAYERS:
        observe = path_pair_counts if attr == "sample_all_paths" else None
        tracer.wrap(module, attr, name, observe)


class Realizations:
    """One ``experiments.realize_user_rates`` call per operation, keyed by
    the realization index exactly as ``experiments.run_point`` keys it."""

    root = "experiments.realize_user_rates"
    units_per_op = 1

    def __init__(self, seed: int, n_aps: int, n_users: int, mode: str,
                 channel: dict):
        self.seed, self.n_aps, self.n_users, self.mode = seed, n_aps, n_users, mode
        self.config = experiments.paper_preset(
            seed=seed, channel=ChannelParams(**channel))
        self.distinct = self.config.channel.distinct_delays
        self.static_counts = {}
        # Record every per-AP power load the pipeline computes.
        self._loads = []
        self._load_fn = experiments.power_constraint_load

        def recorded_load(*args, **kwargs):
            load = self._load_fn(*args, **kwargs)
            self._loads.append(np.asarray(load))
            return load

        experiments.power_constraint_load = recorded_load

    def close(self) -> None:
        experiments.power_constraint_load = self._load_fn

    def run(self, index: int):
        rng = substream(self.seed, MODE_IDS[self.mode], self.n_aps,
                        self.n_users, index)
        return experiments.realize_user_rates(self.config, self.n_aps,
                                              self.n_users, self.mode, rng)

    def check(self, index: int, output) -> list:
        rates, tputs = output
        loads, self._loads = self._loads, []
        problems = []
        for label, values in (("rate", rates), ("throughput", tputs)):
            if values.shape != (self.n_users,) or not (
                    np.all(np.isfinite(values)) and np.all(values > 0)):
                problems.append(f"realization {index}: {label}s not all "
                                "finite and positive")
        if not loads:
            problems.append(f"realization {index}: no per-AP power load seen")
        else:
            dev = max(float(np.max(np.abs(load - 1.0))) for load in loads)
            if not dev <= 1e-12:
                problems.append(f"realization {index}: per-AP power load "
                                f"deviates from 1 by {dev:.3e}")
        return problems

    def final_checks(self, index: int, output) -> list:
        """Re-run realization ``index``: its outputs must repeat byte for
        byte. With distinct delays, also compare each user's fast-path
        rate against the per-bin ``rate.achievable_rate`` on the same
        inputs (relative 1e-9, as acceptance criterion 3 does)."""
        worst = []
        fast_fn = experiments.rate_distinct_delays

        def both(*args, **kwargs):
            fast = fast_fn(*args, **kwargs)
            full = rate.achievable_rate(*args, **kwargs)
            worst.append(abs(fast.rate_bps_hz - full.rate_bps_hz)
                         / full.rate_bps_hz)
            return fast

        experiments.rate_distinct_delays = both
        try:
            again = self.run(index)
        finally:
            experiments.rate_distinct_delays = fast_fn
        problems = self.check(index, again)
        if any(a.tobytes() != b.tobytes() for a, b in zip(output, again)):
            problems.append(f"realization {index}: re-run changed the output bytes")
        if self.distinct:
            if len(worst) != self.n_users:
                problems.append(f"realization {index}: rate_distinct_delays "
                                f"ran for {len(worst)} of {self.n_users} users")
            elif not max(worst) <= 1e-9:
                problems.append(f"realization {index}: distinct-delay rate "
                                f"differs from per-bin rate by {max(worst):.2e}")
        return problems

    def summary(self) -> dict:
        return {}


# oracle-16x8: one fixed instance; the seed drives the trials only.
ORACLE_GRID = {"doppler_bins": 8, "delay_bins": 16}
ORACLE_INSTANCE = {"n_aps": 2, "n_users": 2, "n_paths": 3, "l_max": 2,
                   "k_max": 1, "fractional": True, "seed": 5}
ORACLE_TRIALS = 400
# (user, bin) with bin r = r1 * M + r2 spread over both coordinates,
# including delay coordinates inside the path span (r2 < l_max).
ORACLE_PAIRS = [(0, 0), (1, 2 * 16 + 1), (0, 5 * 16 + 10), (1, 7 * 16 + 15)]


class Oracle:
    """One ``montecarlo.estimate_terms`` call per operation, cycling over
    fixed (user, bin) pairs of one dense 16x8 instance."""

    root = "montecarlo.estimate_terms"
    units_per_op = ORACLE_TRIALS

    def __init__(self, seed: int):
        self.seed = seed
        grid = OtfsGrid(**ORACLE_GRID)
        rho_d, rho_u, rho_p = experiments.normalized_powers(
            experiments.PowerParams(), grid)
        inst = self.instance = montecarlo.random_instance(
            grid, rho_d=rho_d, rho_u=rho_u, rho_p=rho_p, **ORACLE_INSTANCE)
        self.closed = [rate.closed_form_terms(q, r, inst.stats, inst.pc,
                                              inst.pathsets, grid)
                       for q, r in ORACLE_PAIRS]
        self.estimates = [[] for _ in ORACLE_PAIRS]
        counts = path_pair_counts(inst.pathsets)
        mn = grid.size
        # Computed from array shapes: every link's stack of dense path
        # operators, plus one batch of estimated channel matrices
        # (estimate_terms splits the trials into 10 batches).
        stacks = counts["links"] * ORACLE_INSTANCE["n_paths"] * mn * mn * 16
        batch = ORACLE_TRIALS // 10 * mn * mn * 16
        self.static_counts = dict(counts, dense_bytes=stacks + batch)

    def close(self) -> None:
        pass

    def _trial_seed(self, index: int) -> int:
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def run(self, index: int):
        q, r = ORACLE_PAIRS[index % len(ORACLE_PAIRS)]
        return montecarlo.estimate_terms(self.instance, q, r, ORACLE_TRIALS,
                                         seed=self._trial_seed(index))

    def check(self, index: int, output) -> list:
        values = _term_values(output)
        if not all(math.isfinite(v) for v in values):
            return [f"oracle op {index}: non-finite estimate"]
        self.estimates[index % len(ORACLE_PAIRS)].append(values)
        return []

    def final_checks(self, index: int, output) -> list:
        again = self.run(index)
        if astuple(again) != astuple(output):
            return [f"oracle op {index}: re-run with the same seed differs"]
        return []

    def summary(self) -> dict:
        """Worst |z| per term, pooling every operation of each (user, bin)
        against ``rate.closed_form_terms``, and the count of
        (pair, term) cells outside 3 standard errors."""
        worst = dict.fromkeys(TERMS, 0.0)
        outside = 0
        for closed, runs in zip(self.closed, self.estimates):
            if not runs:
                continue
            arr = np.array(runs)  # (ops, 8): value and std error per term
            for t, term in enumerate(TERMS):
                mean = arr[:, 2 * t].mean()
                se = math.sqrt(float((arr[:, 2 * t + 1] ** 2).sum())) / len(arr)
                z = float(abs(mean - closed[t]) / se) if se > 0 else 0.0
                worst[term] = max(worst[term], z)
                outside += z > 3.0
        out = {f"term_z.{term}": z for term, z in worst.items()}
        out["terms_outside_3se"] = outside
        return out


def _term_values(est) -> tuple:
    return (est.ds.real, est.ds_se, est.bu_var, est.bu_se,
            est.isi_power, est.isi_se, est.iui_power, est.iui_se)


def make(name: str, seed: int):
    if name == "paper-40x20":
        return Realizations(seed, 40, 20, "uncorr", {})
    if name == "distinct-50x40-corr":
        return Realizations(seed, 50, 40, "corr",
                            {"n_paths": 3, "distinct_delays": True})
    if name == "oracle-16x8":
        return Oracle(seed)
    raise ValueError(f"unknown workload {name!r}")

