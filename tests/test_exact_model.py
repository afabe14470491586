"""Checks against the exact noise model, which hold whatever the output digests.

Each compares results with what the exact model gives for the same pair
figures and crosstalk flags: the reports' 95% intervals cover the exact
expected payoffs of noisy_distributions at about their nominal rate, each
report RMSE lies near its closed-form prediction from noise_oracles (model
bias and shot variance), sampled payoffs scatter around the exact payoffs with
the multinomial variance of propagate_count_error, and a plan that
select_pairs makes keeps its lead over packing, on a drifted calibration and
with the crosstalk channel, noise.CROSSTALK_PENALTY, off for both plans.
"""

import functools

import numpy as np
import pytest

from qbos import device, gcm, noise, stats
from qbos.device import CalibrationSnapshot
from qbos.game import CANONICAL_STRATEGIES, GameSpec, PayoffMatrix, analytical_curves, payoff_table
from qbos.statevec import derive_seed

from noise_oracles import closed_form_distribution

BOS = PayoffMatrix.battle_of_sexes()
GRID = GameSpec().gamma_grid
PLAYERS = [(s, s) for s in CANONICAL_STRATEGIES]
SHOTS, RUNS = 2048, 5


def exact_distributions(plan, calib, model, edges):
    """noisy_distributions of every canonical strategy's circuits on the plan,
    shaped (strategy, gamma, 4), from the figures and flags a job reads."""
    two_qubit, readout, _ = calib.figures(plan.assignments)
    return noise.noisy_distributions(GRID, PLAYERS, two_qubit, readout, model,
                                     noise.crosstalk_flags(plan, edges))


@functools.cache
def criterion_7_reports():
    """Criterion 7's setting (uniform calibration, scale 1.5, 2048 shots, 5 runs):
    the calibration, the plan, the model and the reports of sampling seeds 0-19."""
    graph = device.heavy_hex_graph(6)
    cal = device.synth_calibration(graph, seed=0, profile="uniform")
    plan = gcm.select_pairs(graph, cal, k=31, min_separation=2)
    model = noise.NoiseModel(scale=1.5)
    reports = []
    for seed in range(20):
        results = {
            s.label: noise.simulate_job(plan, GameSpec(strategy_a=s, strategy_b=s), cal, model,
                                        SHOTS, RUNS, derive_seed(seed, i))
            for i, s in enumerate(CANONICAL_STRATEGIES)
        }
        reports.append(stats.build_validation_report(results, GameSpec()))
        assert [sv.strategy for sv in reports[-1].strategies] == list(results)
    return cal, plan, model, reports


def test_report_intervals_cover_the_exact_payoffs():
    cal, plan, model, reports = criterion_7_reports()
    exact = payoff_table(exact_distributions(plan, cal, model, cal.pairs), BOS)
    covered = [np.abs(np.array(sv.means) - want) <= np.array(sv.ci_half_widths)
               for report in reports for sv, want in zip(report.strategies, exact)]
    # 4,712 of 4,960 (0.950); with 1.96 in place of t(0.975, 4) = 2.776, 0.875
    assert np.size(covered) == 20 * 4 * 31 * 2
    assert 0.93 <= np.mean(covered) <= 0.97


def test_report_rmses_match_their_closed_form_prediction():
    # each entry is predicted as sqrt(mean over gamma of (bias^2 + shot variance / runs))
    cal, plan, model, reports = criterion_7_reports()
    two_qubit, readout, _ = cal.figures(plan.assignments)
    flags = noise.crosstalk_flags(plan, cal.pairs)
    predicted = []
    for s in CANONICAL_STRATEGIES:
        # from the closed form, not the core, so that a channel dropped from noise.py shows
        dists = np.array([closed_form_distribution(gamma, s, s, e, ro, model.scale, flag)
                          for gamma, e, ro, flag in zip(GRID, two_qubit, readout, flags)])
        bias = payoff_table(dists, BOS) - analytical_curves(s, GRID, "corrected")
        var_a, var_b, _ = stats.propagate_count_error(dists, SHOTS, BOS)
        shot_variance = np.stack([var_a, var_b], -1) / RUNS
        predicted.append(np.sqrt(np.mean(bias ** 2 + shot_variance, axis=0)))
    observed = [[(sv.rmse_a, sv.rmse_b) for sv in report.strategies] for report in reports]
    deviation = np.array(observed) - np.array(predicted)
    assert deviation.shape == (20, 4, 2)
    # seeds 0-19: |deviation| at most 0.0048, mean -0.0002 (seeds 20-39: 0.0035 and
    # +0.0002); 8x the shot variance reads 0.0155 and +0.0014
    assert np.abs(deviation).max() <= 0.007
    assert abs(deviation.mean()) <= 0.0008


@pytest.mark.parametrize("cal_seed", [0, 1, 2, 3, 7])
def test_sampled_payoffs_scatter_with_the_multinomial_variance(cal_seed):
    graph = device.heavy_hex_graph(6)
    cal = device.synth_calibration(graph, seed=cal_seed, profile="realistic")
    plan = gcm.select_pairs(graph, cal, k=31, min_separation=2)
    model = noise.NoiseModel(scale=1.0)
    shots, runs = 8192, 50
    seeds = [derive_seed(7, i) for i in range(len(PLAYERS))]
    counts = noise.job_counts(plan, GRID, PLAYERS, cal, model, shots, runs, seeds)
    dists = exact_distributions(plan, cal, model, graph.edges)
    var_a, var_b, _ = stats.propagate_count_error(dists, shots, BOS)
    sigma = np.sqrt(np.stack([var_a, var_b], -1))[:, :, None]
    z = (payoff_table(counts / shots, BOS) - payoff_table(dists, BOS)[:, :, None]) / sigma
    assert z.shape == (4, 31, runs, 2)
    # calibration seeds 0-19: mean z^2 0.995-1.022, |z| > 3 in 0.18-0.29% of values
    assert abs(np.mean(z ** 2) - 1.0) < 0.1
    assert np.mean(np.abs(z) > 3) < 0.01


def drifted(calib, sigma, seed):
    """calib with each readout error, T1 and two-qubit error multiplied by
    exp(N(0, sigma^2)), probabilities clamped at 1; the draws are seeded 100 + seed."""
    rng = np.random.default_rng(100 + seed)
    readout, t1, t2 = calib.qubit_figures
    qubit_factors = np.exp(rng.normal(0.0, sigma, size=(2, len(calib.ids))))
    edge_factors = np.exp(rng.normal(0.0, sigma, size=len(calib.pairs)))
    return CalibrationSnapshot(
        calib.timestamp, calib.ids,
        [np.minimum(1.0, readout * qubit_factors[0]), t1 * qubit_factors[1], t2],
        calib.pairs, np.minimum(1.0, calib.two_qubit_errors * edge_factors))


def model_bias(plan, calib, edges):
    """Mean, over the strategies and both players, of the RMSE of the exact
    expected payoffs at scale 1 against the corrected curves."""
    payoffs = payoff_table(exact_distributions(plan, calib, noise.NoiseModel(1.0), edges), BOS)
    refs = np.stack([analytical_curves(a, GRID, "corrected") for a, _ in PLAYERS])
    return float(np.mean(np.sqrt(np.mean((payoffs - refs) ** 2, axis=1))))


@pytest.mark.parametrize("cal_seed", range(5))
def test_selection_on_a_drifted_calibration_beats_packing(cal_seed):
    graph = device.heavy_hex_graph(6)
    cal = device.synth_calibration(graph, seed=cal_seed, profile="realistic")
    packed = gcm.packed_plan(graph, 31)
    for sigma in (0.2, 0.5):
        today = drifted(cal, sigma, cal_seed)
        fresh = gcm.select_pairs(graph, today, k=31)
        # calibration seeds 0-19: packed / fresh reads 1.76-2.47
        assert model_bias(packed, today, graph.edges) >= 1.5 * model_bias(fresh, today, graph.edges)


def calibration_bias(plan, calib):
    """model_bias from the closed form with the crosstalk channel off for every
    circuit: the bias that the plan's pairs' calibrated figures alone give."""
    two_qubit, readout, _ = calib.figures(plan.assignments)
    dists = np.array([[closed_form_distribution(gamma, a, b, e, ro, 1.0, 0.0)
                       for gamma, e, ro in zip(GRID, two_qubit, readout)] for a, b in PLAYERS])
    refs = np.stack([analytical_curves(a, GRID, "corrected") for a, _ in PLAYERS])
    return float(np.mean(np.sqrt(np.mean((payoff_table(dists, BOS) - refs) ** 2, axis=1))))


@pytest.mark.parametrize("cal_seed", range(20))
def test_selection_leads_packing_without_crosstalk(cal_seed):
    # criterion 8 runs on a uniform calibration, where only the crosstalk flags
    # tell the plans apart; here each edge has its own figures and no circuit
    # pays crosstalk, so the lead is what select_pairs makes of the calibration
    graph = device.heavy_hex_graph(6)
    cal = device.synth_calibration(graph, seed=cal_seed, profile="realistic")
    chosen = gcm.select_pairs(graph, cal, k=31, min_separation=2)
    # calibration seeds 0-19: 0.678-0.848 (0.475-0.566 with the crosstalk channel on)
    assert calibration_bias(chosen, cal) <= 0.9 * calibration_bias(gcm.packed_plan(graph, 31), cal)
