import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dense_reference import explicit_terms, per_bin_sinr

from cfotfs import experiments, montecarlo, operators, rate
from cfotfs.channel import OtfsGrid, PathSet
from cfotfs.estimation import LinkStats
from cfotfs.exceptions import EstimateStatisticsError
from cfotfs.montecarlo import (BATCHES, estimate_terms, random_instance,
                               validate_rate)
from cfotfs.operators import dd_operator
from cfotfs.rate import (PowerControl, Realization, achievable_rate,
                         closed_form_terms, equal_power_control)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def make_stats(beta, gamma):
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    return LinkStats(beta=beta, mmse_c=gamma / beta, gamma=gamma,
                     xi=np.zeros(beta.shape[:2]))


def grid_instance(delay_bins, doppler_bins, seed, n_paths=2, n_users=2,
                  **kw):
    """Two APs and two users (by default) on an M x N grid (M delay, N
    Doppler bins)."""
    grid = OtfsGrid(doppler_bins=doppler_bins, delay_bins=delay_bins)
    rho_d, rho_u, rho_p = experiments.normalized_powers(
        experiments.PowerParams(), grid)
    return random_instance(grid, n_aps=2, n_users=n_users, n_paths=n_paths,
                           rho_d=rho_d, rho_u=rho_u, rho_p=rho_p, seed=seed,
                           **kw)


def desk_instance(seed, **kw):
    return grid_instance(4, 2, seed, **kw)


def bench_instance():
    """The 16x8 instance of the oracle benchmark."""
    return grid_instance(16, 8, 5, n_paths=3, l_max=2, k_max=1,
                         fractional=True)


def three_user_instance():
    """Three users on an 8x4 grid with fractional Doppler, so user 1 is
    neither the first nor the last."""
    return grid_instance(8, 4, 6, n_paths=3, n_users=3, l_max=2, k_max=0,
                         fractional=True)


def test_random_instance_runs_the_experiment_stages(monkeypatch):
    # The instance comes from experiments.realize_links, so a stage
    # replaced there (as the benchmark's tracer does) is the one it runs,
    # per-AP load check included.
    loads = []
    original = experiments.power_constraint_load

    def recorded(*args):
        loads.append(original(*args))
        return loads[-1]

    monkeypatch.setattr(experiments, "power_constraint_load", recorded)
    desk_instance(3)
    assert len(loads) == 1
    np.testing.assert_allclose(loads[0], 1.0, rtol=0, atol=1e-12)


class TestEstimateTerms:
    def test_perfect_csi_single_path_bu(self):
        # gamma = beta: the error vanishes and the precoding-gain variance
        # reduces to eta * beta^2.
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        beta = 0.9
        stats = make_stats([[[beta]]], [[[beta]]])
        pc = equal_power_control(stats)
        ps = PathSet(delay_taps=[[[1]]], doppler=[[[0.3]]], gains=[[[1.0]]])
        inst = Realization(grid=grid, pathsets=ps, stats=stats,
                           pc=pc, rho_d=1.0)
        est = estimate_terms(inst, q=0, r=0, trials=10_000, seed=0)
        expected = pc.eta[0, 0] * beta**2
        assert est.bu_var == pytest.approx(expected, rel=0.05)
        assert est.ds.real == pytest.approx(np.sqrt(pc.eta[0, 0]) * beta,
                                            rel=0.02)
        assert abs(est.ds.imag) < 5.0 * est.ds_se

    def test_single_user_no_interuser_power(self):
        inst = desk_instance(0)
        first_user = PathSet(**{f.name: getattr(inst.pathsets, f.name)[:, :1]
                                for f in fields(PathSet)})
        solo = Realization(
            grid=inst.grid,
            pathsets=first_user,
            stats=make_stats(inst.stats.beta[:, :1], inst.stats.gamma[:, :1]),
            pc=PowerControl(eta=inst.pc.eta[:, :1]), rho_d=inst.rho_d)
        est = estimate_terms(solo, q=0, r=1, trials=500, seed=1)
        assert est.iui_power == 0.0

    def test_terms_match_closed_form_within_3se(self):
        inst = desk_instance(5)
        for r in (0, 5):
            est = estimate_terms(inst, q=1, r=r, trials=10_000, seed=2)
            ds, bu, isi, iui = closed_form_terms(
                1, r, inst.stats, inst.pc, inst.pathsets, inst.grid)
            assert abs(est.ds.real - ds) <= 3.0 * est.ds_se
            assert abs(est.bu_var - bu) <= 3.0 * est.bu_se
            assert abs(est.isi_power - isi) <= 3.0 * est.isi_se
            assert abs(est.iui_power - iui) <= 3.0 * est.iui_se

    @pytest.mark.parametrize("make, q, r, trials", [
        (lambda: desk_instance(5), 1, 0, 2000),
        (lambda: desk_instance(5), 0, 7, 2000),
        # Bin 2 * 16 + 1 has delay coordinate 1, inside the path span
        # l_max = 2; bin 127 is the last.
        (bench_instance, 1, 2 * 16 + 1, 300),
        (bench_instance, 1, 127, 300),
        # Every user's draws share one generator call per batch; the
        # reference draws them link by link.
        (three_user_instance, 1, 13, 300),
    ], ids=["desk-0", "desk-last", "16x8-inside-span", "16x8-last",
            "3-users-middle"])
    def test_matches_explicit_matrices(self, make, q, r, trials):
        inst = make()
        est = estimate_terms(inst, q, r, trials, seed=3)
        ref = explicit_terms(inst, q, r, trials, seed=3)
        got = (est.ds, est.ds_se, est.bu_var, est.bu_se, est.isi_power,
               est.isi_se, est.iui_power, est.iui_se)
        for value, expected in zip(got, ref):
            assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_deterministic_given_seed(self):
        inst = desk_instance(2)
        a = estimate_terms(inst, q=0, r=2, trials=400, seed=9)
        b = estimate_terms(inst, q=0, r=2, trials=400, seed=9)
        assert a.ds == b.ds and a.bu_var == b.bu_var
        assert a.isi_power == b.isi_power and a.iui_power == b.iui_power

    def test_user_outside_network_rejected(self):
        inst = desk_instance(2)
        for q in (-1, inst.stats.n_users):
            with pytest.raises(ValueError, match=f"user index {q} outside"):
                estimate_terms(inst, q=q, r=0, trials=400, seed=9)

    def test_generator_seed(self):
        inst = desk_instance(2)
        a = estimate_terms(inst, q=0, r=2, trials=400,
                           seed=np.random.default_rng(9))
        b = estimate_terms(inst, q=0, r=2, trials=400,
                           seed=np.random.default_rng(9))
        assert a == b

    def test_fewer_than_two_trials_per_batch_rejected(self):
        # One trial per batch has no sample variance.
        inst = desk_instance(2)
        with pytest.raises(ValueError, match=f"trials must be at least "
                                             f"{2 * BATCHES}.*got 15"):
            estimate_terms(inst, q=0, r=0, trials=15, seed=9)
        est = estimate_terms(inst, q=0, r=0, trials=2 * BATCHES, seed=9)
        assert np.isfinite(est.bu_var) and np.isfinite(est.bu_se)

    def test_row_products_built_from_blocks_only(self, monkeypatch):
        # No dense operator is built: one dd_blocks call of P Q L L blocks
        # gives every link's row products, user q's bin-r rows included.
        inst = three_user_instance()

        def dense(*args):
            raise AssertionError("dense operator built")

        original = montecarlo.dd_blocks
        built = []

        def counted(delay_tap, doppler, column, grid):
            built.append(np.broadcast(delay_tap, doppler, column).size)
            return original(delay_tap, doppler, column, grid)

        monkeypatch.setattr(operators, "dd_operator", dense)
        monkeypatch.setattr(montecarlo, "dd_blocks", counted)
        estimate_terms(inst, q=1, r=13, trials=100, seed=1)
        n_aps, n_users, n_paths = inst.pathsets.delay_taps.shape
        assert built == [n_aps * n_users * n_paths ** 2]

    @pytest.mark.parametrize("delay_bins, l_max, r", [
        (30, 4, 7 * 30 + 2),
        (30, 4, 599),
        (6, 4, 4 * 6 + 1),
    ], ids=["inside-span", "last", "aliased-delay-rows"])
    def test_row_products_match_dense_operators(self, delay_bins, l_max, r):
        # Bin 7 * 30 + 2 has delay coordinate 2, inside the path span
        # l_max = 4, so some of its columns carry a Doppler step. On the
        # 6 x 20 grid 2 l_max + 1 = 9 > M, so offsets l_j - l_i that
        # differ by M share a delay row.
        inst = grid_instance(delay_bins, 20, 4, n_paths=5, l_max=l_max,
                             k_max=3, fractional=True)
        paths, q = inst.pathsets, 1
        n_aps, n_users, n_paths = paths.delay_taps.shape
        rows = np.empty((n_users, n_aps, n_paths, n_paths, inst.grid.size),
                        dtype=complex)
        for p in range(n_aps):
            row_r = dd_operator(paths.delay_taps[p, q], paths.doppler[p, q],
                                inst.grid)[:, r]
            for k in range(n_users):
                ops = dd_operator(paths.delay_taps[p, k], paths.doppler[p, k],
                                  inst.grid)
                rows[k, p] = np.einsum("ic,jdc->ijd", row_r, ops.conj())
        rows = rows.reshape(n_users, -1, inst.grid.size)
        column, compact = montecarlo._row_products(paths, inst.grid, q, r)
        np.testing.assert_allclose(column, rows[q, :, r], rtol=0, atol=1e-13)
        # Equal Gram matrices: compaction dropped only zero columns.
        gram = compact @ compact.conj().transpose(0, 2, 1)
        np.testing.assert_allclose(gram, rows @ rows.conj().transpose(0, 2, 1),
                                   rtol=0, atol=1e-13)
        width = min(delay_bins, 2 * l_max + 1) * inst.grid.doppler_bins
        assert compact.shape[2] <= width

    @pytest.mark.slow
    def test_paper_scale_call_stays_small(self):
        # 40 APs, 20 users and 5 paths on the 30 x 20 grid with the
        # paper's tap ranges: 400 trials stay below 600 MB peak RSS, which
        # a per-user (P L^2) x (P L^2) Gram matrix would exceed. Peak RSS
        # is read on one BLAS thread, in a process of its own.
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from cfotfs import experiments\n"
            "from cfotfs.channel import OtfsGrid\n"
            "from cfotfs.montecarlo import estimate_terms, random_instance\n"
            "grid = OtfsGrid(doppler_bins=20, delay_bins=30)\n"
            "powers = experiments.normalized_powers(\n"
            "    experiments.PowerParams(), grid)\n"
            "inst = random_instance(grid, 40, 20, 5, *powers, seed=3,\n"
            "                       l_max=2, k_max=3)\n"
            "est = estimate_terms(inst, q=0, r=37, trials=400, seed=0)\n"
            "assert np.all(np.isfinite([est.ds, est.ds_se, est.bu_var,\n"
            "    est.bu_se, est.isi_power, est.isi_se, est.iui_power,\n"
            "    est.iui_se]))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=600,
                              env={**os.environ, "PYTHONPATH": SRC,
                                   "OMP_NUM_THREADS": "1",
                                   "OPENBLAS_NUM_THREADS": "1"})
        assert int(done.stdout) / 1024 < 600

    def test_estimate_above_gain_variance_rejected(self):
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        stats = make_stats([[[0.5]]], [[[0.6]]])
        ps = PathSet(delay_taps=[[[0]]], doppler=[[[0.0]]], gains=[[[1.0]]])
        inst = Realization(grid=grid, pathsets=ps, stats=stats,
                           pc=PowerControl(eta=np.ones((1, 1))),
                           rho_d=1.0)
        with pytest.raises(EstimateStatisticsError):
            estimate_terms(inst, q=0, r=0, trials=100, seed=0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the closed-form ISI weight "
                          "|1 - D|^2 disagrees with the oracle's row energy "
                          "1 - |D|^2 under fractional Doppler at N >= 3")
@pytest.mark.parametrize("delay_bins, doppler_bins, n_paths, k_max, seed, "
                         "trials", [
    (8, 4, 4, 0, 1, 20_000),
    pytest.param(30, 20, 5, 3, 3, 4000, marks=pytest.mark.slow),
], ids=["8x4", "30x20"])
def test_isi_matches_closed_form_within_3se(delay_bins, doppler_bins,
                                            n_paths, k_max, seed, trials):
    # One delay tap of slack forces same-delay path pairs, and fractional
    # Doppler makes their Dirichlet kernel D neither 0 nor 1.
    inst = grid_instance(delay_bins, doppler_bins, seed, n_paths=n_paths,
                         l_max=1, k_max=k_max, fractional=True)
    est = estimate_terms(inst, q=0, r=0, trials=trials, seed=0)
    _, _, isi, _ = closed_form_terms(0, 0, inst.stats, inst.pc,
                                     inst.pathsets, inst.grid)
    assert abs(est.isi_power - isi) <= 3.0 * est.isi_se


class TestValidateRate:
    def test_desk_instance_passes_gate(self):
        inst = desk_instance(7)
        report = validate_rate(inst, trials=4000, seed=4)
        assert report.passed, report.to_dict()
        assert report.max_rel_error <= report.gate

    @pytest.mark.parametrize("gate", [np.nan, -1.0, 0.0, np.inf])
    def test_gate_must_be_positive_and_finite(self, gate):
        with pytest.raises(ValueError, match="gate must be positive and finite"):
            validate_rate(desk_instance(7), trials=20, seed=4, gate=gate)

    def test_distinct_delay_bins_statistically_flat(self):
        inst = desk_instance(11, distinct_delays=True)
        report = validate_rate(inst, trials=10_000, seed=5)
        assert report.passed
        # The empirical per-bin SINRs must not be flagged as bin
        # dependent, and the reported closed form equals the SINR built
        # from the dense per-bin operators at every bin checked.
        assert not any(report.bin_dependence.values())
        per_bin = per_bin_sinr(0, inst.stats, inst.pc, inst.pathsets,
                               inst.rho_d, inst.grid)
        for c in report.checks:
            if c.user == 0:
                assert abs(c.sinr_closed - per_bin[c.bin]) \
                    / per_bin[c.bin] < 1e-9

    def test_generator_seed(self):
        # A Generator seed draws the integer master seed the (user, bin)
        # seeds are offset from, so it works and repeats.
        inst = desk_instance(3)
        a, b = (validate_rate(inst, trials=500, bins=[0, 1], users=[0],
                              seed=np.random.default_rng(4)) for _ in range(2))
        assert a.to_dict() == b.to_dict()
        assert len(a.checks) == 2

    def test_user_outside_network_rejected(self):
        inst = desk_instance(3)
        with pytest.raises(ValueError, match="user index -1 outside"):
            validate_rate(inst, trials=500, seed=1, bins=[0], users=[-1])

    @pytest.mark.parametrize("request_kw", [{"users": []}, {"bins": []},
                                            {"users": (), "bins": [0]}])
    def test_empty_request_rejected(self, request_kw):
        # No user used to pass with zero checks, and no bin raised a raw
        # "max() arg is an empty sequence".
        with pytest.raises(ValueError, match="at least one user and one bin"):
            validate_rate(desk_instance(3), trials=20, seed=1, **request_kw)

    def test_reads_the_cached_closed_form(self, monkeypatch):
        # One chi/kappa call for the whole instance, not one per user, and
        # the reported closed form is each user's cached terms and rate.
        calls = []
        batched = rate.chi_kappa_tables

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return batched(*args, **kwargs)

        monkeypatch.setattr(rate, "chi_kappa_tables", counted)
        inst = three_user_instance()
        report = validate_rate(inst, trials=20, seed=1, bins=[0, 5])
        assert calls == [(2, 3, 3)]
        assert len(report.checks) == 6
        for check in report.checks:
            q = check.user
            assert check.terms_closed == dict(zip(
                ("ds", "bu", "isi", "iui"), (t[q] for t in inst.terms)))
            assert check.sinr_closed == achievable_rate(q, inst).sinr

    def test_interference_limited_regime(self):
        # Very large downlink power: SINR saturates at the interference
        # ratio and the oracle still matches.
        inst = desk_instance(13)
        big = Realization(grid=inst.grid, pathsets=inst.pathsets,
                          stats=inst.stats, pc=inst.pc,
                          rho_d=inst.rho_d * 1e6)
        report = validate_rate(big, trials=4000, seed=6,
                               bins=[0, 3], users=[0])
        assert report.passed, report.to_dict()

    def test_zero_gamma_degenerate(self):
        # No usable estimates anywhere: desired signal and SINR collapse
        # to zero in both the closed form and the simulation.
        grid = OtfsGrid(doppler_bins=2, delay_bins=2)
        beta = np.full((1, 1, 1), 0.5)
        stats = LinkStats(beta=beta, mmse_c=np.zeros_like(beta),
                          gamma=np.zeros_like(beta), xi=np.zeros((1, 1)))
        ps = PathSet(delay_taps=[[[0]]], doppler=[[[0.0]]], gains=[[[1.0]]])
        inst = Realization(grid=grid, pathsets=ps, stats=stats,
                           pc=PowerControl(eta=np.ones((1, 1))),
                           rho_d=10.0)
        est = estimate_terms(inst, q=0, r=0, trials=200, seed=8)
        assert est.ds == 0.0
        assert est.empirical_sinr(10.0) == 0.0
        report = validate_rate(inst, trials=200, seed=8, bins=[0])
        assert report.checks[0].sinr_closed == 0.0
        assert report.checks[0].rel_error == 0.0

    def test_report_json(self):
        inst = desk_instance(3)
        report = validate_rate(inst, trials=500, seed=10, bins=[0, 1],
                               users=[0])
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert set(data) >= {"passed", "gate", "checks", "bin_dependence"}
        assert len(data["checks"]) == 2
        assert {"ds", "bu", "isi", "iui"} == set(
            data["checks"][0]["terms_closed"])
