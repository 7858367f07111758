"""The benchmark under bench/ calls the library through its public
names. Running its smoke check here makes a change that breaks one of
them fail the suite. Until the benchmark's revision (ROADMAP item 5) it
relies on exactly these:

- rate.closed_form_terms(q, r, stats, pc, pathsets, grid), called
  positionally, the unused bin r included;
- montecarlo.random_instance(grid, rho_d=, rho_u=, rho_p=, n_aps=,
  n_users=, n_paths=, l_max=, k_max=, fractional=, seed=), by keyword;
- the .pathsets, .stats and .pc fields of the realization it returns,
  passed on to montecarlo.estimate_terms(instance, q, r, trials, seed=),
  whose TermEstimates is a dataclass with ds, ds_se, bu_var, bu_se,
  isi_power, isi_se, iui_power and iui_se;
- OtfsGrid(doppler_bins=, delay_bins=);
- iteration over a PathSet's rows, then over each row's links, each
  link's .delay_taps read (workloads.path_pair_counts);
- sample_all_paths and rate_distinct_delays looked up as attributes of
  the experiments module: the tracer wraps the first, and final_checks
  swaps the second for a wrapper that also calls rate.achievable_rate
  with the same arguments;
- the other traced stages under the names their callers look them up
  by: experiments.place_network, apply_shadowing, compute_link_stats,
  equal_power_control, power_constraint_load (also replaced to record
  each load) and achievable_rate; rate.chi_kappa_tables;
  montecarlo.sample_estimate. A missing name reports zero calls;
- experiments.paper_preset(seed=, channel=), ChannelParams(**fields),
  PowerParams(), normalized_powers(powers, grid) and
  realize_user_rates(config, n_aps, n_users, mode, rng) returning
  (rates, throughputs), with rng from rng.substream(seed, mode id,
  n_aps, n_users, index)."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
