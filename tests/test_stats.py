"""Statistics tests: frozen t-table values, coverage and resampling oracles."""

import copy
import json
import math
import os
import pickle
import re
import subprocess
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qbos
from qbos import stats
from qbos.game import CANONICAL_STRATEGIES, GameSpec, PayoffMatrix, STRATEGY_I, default_gamma_grid
from qbos.noise import JobCounts
from qbos.statevec import OUTCOME_LABELS, ShotCounts
from qbos.stats import (
    PAYOFF_SCALE_MAX,
    PAYOFF_SCALE_MIN,
    SchemaError,
    CONFIDENCE,
    _T975,
    _run_statistics,
    _t_quantile,
    build_validation_report,
    payoff_table,
    propagate_count_error,
    relative_error_percent,
    report_from_cells,
    rmse,
)

from noise_oracles import analytical_payoffs

BOS = PayoffMatrix.battle_of_sexes()


def make_counts(c00=0, c01=0, c10=0, c11=0):
    total = c00 + c01 + c10 + c11
    return ShotCounts({"00": c00, "01": c01, "10": c10, "11": c11}, total)


def frequencies(counts):
    """The counts in outcome-label order, each divided by total_shots."""
    return np.array([counts.counts[lbl] for lbl in OUTCOME_LABELS]) / counts.total_shots


# --- payoffs from counts -------------------------------------------------------

def test_balanced_counts():
    freqs = frequencies(make_counts(c00=1024, c11=1024))
    ea, eb = payoff_table(freqs, BOS).tolist()
    assert (ea, eb, freqs[1] + freqs[2]) == (2.5, 2.5, 0.0)


def test_all_miscoordination():
    freqs = frequencies(make_counts(c01=2048))
    ea, eb = payoff_table(freqs, BOS).tolist()
    assert (ea, eb, freqs[1] + freqs[2]) == (0.0, 0.0, 1.0)


def test_pure_00():
    freqs = frequencies(make_counts(c00=2048))
    ea, eb = payoff_table(freqs, BOS).tolist()
    assert (ea, eb, freqs[1] + freqs[2]) == (3.0, 2.0, 0.0)


def test_exact_distribution_matches_expected_payoffs():
    # pseudo-counts proportional to an exact distribution reproduce it
    freqs = frequencies(make_counts(c00=600, c01=100, c10=100, c11=200))
    ea, eb = payoff_table(freqs, BOS).tolist()
    mis = freqs[1] + freqs[2]
    assert abs(ea - (3 * 0.6 + 2 * 0.2)) < 1e-12
    assert abs(eb - (2 * 0.6 + 3 * 0.2)) < 1e-12
    assert abs(mis - 0.2) < 1e-12


# --- aggregation -----------------------------------------------------------------

def test_constant_runs():
    mean, var, half = _run_statistics(np.array([2.0] * 5))
    assert mean == 2.0 and var == 0.0 and half == 0.0


def test_t_critical_value_for_five_runs():
    # t_{0.975, 4} = 2.776 (frozen from standard tables)
    _, var, half = _run_statistics(np.array([0.0, 0.0, 0.0, 0.0, math.sqrt(5.0)]))
    t_used = half / (math.sqrt(var) / math.sqrt(5))
    assert abs(t_used - 2.776) < 1e-3


def test_three_run_aggregate():
    # s = 1, t_{0.975,2} = 4.303 -> half width 4.303/sqrt(3) = 2.484
    mean, var, half = _run_statistics(np.array([1.0, 2.0, 3.0]))
    assert mean == 2.0
    assert abs(var - 1.0) < 1e-12
    assert abs(half - 2.484) < 1e-3


def test_student_t_coverage_at_n5():
    # 10,000 synthetic Gaussian replications: the 95% CI must cover the true
    # mean 95% +- 1% of the time
    rng = np.random.default_rng(20240101)
    true_mean, sigma, n, trials = 1.7, 0.4, 5, 10_000
    covered = 0
    samples = rng.normal(true_mean, sigma, size=(trials, n))
    for row in samples:
        mean, _, half = _run_statistics(row)
        if abs(mean - true_mean) <= half:
            covered += 1
    assert abs(covered / trials - 0.95) <= 0.01


# --- rmse ------------------------------------------------------------------------

def test_rmse_identities():
    series = [1.0, 2.5, 0.3, 1.2]
    assert rmse(series, series) == 0.0
    shifted = [x + 0.1 for x in series]
    assert abs(rmse(shifted, series) - 0.1) < 1e-12
    assert rmse(series, shifted) == rmse(shifted, series)


def test_rmse_direct_arithmetic():
    assert abs(rmse([1.0, 2.0], [1.0, 4.0]) - math.sqrt(2.0)) < 1e-12


def test_rmse_length_mismatch():
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])


# --- relative error ---------------------------------------------------------------

def test_relative_error_reference_values():
    assert abs(relative_error_percent(0.105, 3.0) - 3.5) < 1e-12
    assert abs(relative_error_percent(0.145, 1.2) - 12.083333333333334) < 1e-12
    assert relative_error_percent(0.0, 5.0) == 0.0


def test_relative_error_requires_positive_reference():
    with pytest.raises(ValueError):
        relative_error_percent(0.1, 0.0)


# --- error propagation ---------------------------------------------------------------

def count_error(*counts):
    """propagate_count_error of (n00, n01, n10, n11) counts, as frequencies and shots."""
    counts = np.array(counts)
    return propagate_count_error(counts / counts.sum(), counts.sum(), BOS)


def test_degenerate_counts_have_zero_variance():
    va, vb, vm = count_error(4096, 0, 0, 0)
    assert va == vb == vm == 0.0


def test_delta_method_hand_value():
    # {00:1024, 11:1024}: var_e_a = (0.5*9 + 0.5*4 - 2.5^2)/2048
    va, vb, vm = count_error(1024, 0, 0, 1024)
    assert abs(va - 0.25 / 2048) < 1e-15
    assert abs(vb - 0.25 / 2048) < 1e-15
    assert abs(vm - (0.5 - 0.25) / 2048 * 0.0) < 1e-15 or vm >= 0  # mis rate 0 here
    assert vm == pytest.approx(0.0)


def test_variance_scales_inversely_with_shots():
    va1, _, _ = count_error(512, 0, 0, 512)
    va2, _, _ = count_error(2048, 0, 0, 2048)
    assert va1 == pytest.approx(4 * va2)


def test_count_error_over_a_stack_equals_per_cell_calls():
    rng = np.random.default_rng(5)
    shots = rng.integers(1, 5000, size=(2, 3))
    freqs = rng.dirichlet(np.ones(4), size=(2, 3))
    stacked = propagate_count_error(freqs, shots, BOS)
    assert [v.shape for v in stacked] == [(2, 3)] * 3
    for index in np.ndindex(2, 3):
        cell = propagate_count_error(freqs[index], shots[index], BOS)
        assert [v[index] for v in stacked] == list(cell)


def test_count_error_needs_a_shot():
    with pytest.raises(ValueError, match="shot"):
        propagate_count_error(np.full((2, 4), 0.25), np.array([5, 0]), BOS)


def test_delta_method_matches_resampling():
    # empirical variance over 10,000 multinomial resamples within 5%
    probs = np.array([0.55, 0.05, 0.1, 0.3])
    shots = 2048
    counts = np.round(probs * shots).astype(int)
    freqs = counts / counts.sum()
    va, vb, vm = propagate_count_error(freqs, counts.sum(), BOS)
    rng = np.random.default_rng(777)
    draws = rng.multinomial(shots, freqs, size=10_000) / shots
    wa, wb = BOS.outcome_weights()
    emp_a = float(np.var(draws @ wa, ddof=1))
    emp_b = float(np.var(draws @ wb, ddof=1))
    emp_m = float(np.var(draws @ np.array([0.0, 1.0, 1.0, 0.0]), ddof=1))
    assert abs(va - emp_a) <= 0.05 * emp_a
    assert abs(vb - emp_b) <= 0.05 * emp_b
    assert abs(vm - emp_m) <= 0.05 * emp_m


# --- report building ----------------------------------------------------------------

def exact_series(strategy_label, gammas, runs=5):
    """Per-run payoffs equal to the corrected analytic curve (zero spread)."""
    from qbos.game import Strategy
    strategy = Strategy.parse(strategy_label)
    return {
        g: [analytical_payoffs(strategy, g, "corrected") for _ in range(runs)]
        for g in gammas
    }


def report_from_series(series, variant="corrected", rmse_method="rmse_of_means"):
    """report_from_cells over {label: {gamma: [(ea, eb) per run]}}."""
    gammas = sorted({g for per in series.values() for g in per})
    cells = [
        (label, gammas.index(g), run, ea_eb)
        for label, per in series.items()
        for g, per_run in per.items()
        for run, ea_eb in enumerate(per_run)
    ]
    labels, gamma_index, runs, payoffs = zip(*cells)
    return report_from_cells(labels, gamma_index, runs, payoffs, gammas, variant, BOS,
                             rmse_method)


def test_report_on_exact_fixture_is_all_zero():
    gammas = default_gamma_grid(11)
    series = {"I": exact_series("I", gammas), "H": exact_series("H", gammas)}
    report = report_from_series(series, variant="corrected")
    for sv in report.strategies:
        # the across-run mean of a constant series can move by one ulp
        assert sv.rmse_a <= 1e-12 and sv.rmse_b <= 1e-12
        assert all(half <= 1e-12 for pair in sv.ci_half_widths for half in pair)
    assert report.best_relative_error_pct <= 1e-10
    assert report.worst_relative_error_pct <= 1e-10


def test_report_relative_error_denominators():
    gammas = default_gamma_grid(5)
    series = {"I": {
        g: [(ea + 0.12, eb + 0.12) for ea, eb in exact_series("I", gammas)[g]]
        for g in gammas
    }}
    report = report_from_series(series, variant="corrected")
    sv = report.strategies[0]
    assert sv.rmse_a == pytest.approx(0.12, abs=1e-9)
    assert report.best_relative_error_pct == pytest.approx(
        100 * 0.12 / PAYOFF_SCALE_MAX, abs=1e-9
    )
    assert report.worst_relative_error_pct == pytest.approx(
        100 * 0.12 / PAYOFF_SCALE_MIN, abs=1e-9
    )


def test_rmse_method_option():
    gammas = default_gamma_grid(5)
    base = exact_series("I", gammas, runs=2)
    # run 0 shifted +0.2, run 1 shifted -0.2: mean curve is exact
    series = {"I": {
        g: [(ea + 0.2, eb + 0.2), (base[g][1][0] - 0.2, base[g][1][1] - 0.2)]
        for g, ((ea, eb), _) in ((g, base[g]) for g in gammas)
    }}
    means_report = report_from_series(series, rmse_method="rmse_of_means")
    runs_report = report_from_series(series, rmse_method="mean_of_rmses")
    assert means_report.strategies[0].rmse_a == pytest.approx(0.0, abs=1e-12)
    assert runs_report.strategies[0].rmse_a == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("runs", [2, 3, 5, 8, 9, 17, 50, 129, 300])
def test_report_estimates_equal_per_series_aggregates(runs):
    # the report aggregates every (strategy, gamma, player) series in one
    # pass; _run_statistics on each series alone is the reference, bit for bit
    gammas = default_gamma_grid(4)
    rng = np.random.default_rng(runs)
    series = {label: {g: [tuple(ab) for ab in rng.uniform(0, 3, size=(runs, 2)).tolist()]
                      for g in gammas}
              for label in ("I", "H", "RY(pi)")}
    report = report_from_series(series)
    for sv in report.strategies:
        assert sv.n == runs
        for g, *estimates in zip(sv.gammas, sv.means, sv.sample_variances, sv.ci_half_widths):
            per_run = series[sv.strategy][g]
            for player in (0, 1):
                alone = _run_statistics(np.array([ab[player] for ab in per_run]))
                assert [e[player] for e in estimates] == [float(x) for x in alone]


def test_report_needs_two_runs_per_cell():
    gammas = default_gamma_grid(3)
    series = {"I": {g: [(1.0, 2.0)] for g in gammas}}
    with pytest.raises(SchemaError, match=r"^the results hold 1 run per \(strategy, gamma\) "
                                          r"cell; validation needs at least 2 runs$"):
        report_from_series(series)


def test_build_report_from_job_counts():
    gammas = default_gamma_grid(3)
    spec = GameSpec(strategy_a=STRATEGY_I, strategy_b=STRATEGY_I, gamma_grid=gammas)
    counts = []
    for g in gammas:
        n00 = round(1000 * math.cos(g / 2) ** 2)
        counts.append([[n00, 0, 0, 1000 - n00]] * 3)
    report = build_validation_report({"I": JobCounts(counts, gammas, 1000)}, spec,
                                     variant="corrected")
    sv = report.strategies[0]
    assert sv.rmse_a < 0.01  # only rounding error vs the analytic curve
    assert sv.gammas == tuple(gammas) and sv.n == 3
    assert len(sv.means) == len(sv.sample_variances) == len(sv.ci_half_widths) == 3


def test_build_report_flags_missing_cells():
    # jobs of 3 and 2 runs: the shorter one misses run 2 of the union of runs
    gammas = default_gamma_grid(2)
    three, two = (JobCounts(np.full((2, runs, 4), 5), gammas, 20) for runs in (3, 2))
    with pytest.raises(SchemaError,
                       match=r"^missing cells \[\('H', 0.0, 2\), \('H', 3.14\d*, 2\)\]$"):
        build_validation_report({"I": three, "H": two}, GameSpec(gamma_grid=gammas))


@pytest.mark.parametrize("steps", [3, 1], ids=["longer", "shorter"])
def test_build_report_rejects_a_job_grid_of_another_length(steps):
    gammas = default_gamma_grid(2)
    inside = JobCounts(np.full((2, 2, 4), 5), gammas, 20)
    other = JobCounts(np.full((steps, 2, 4), 5), np.linspace(0.0, math.pi, steps), 20)
    with pytest.raises(SchemaError, match=rf"^the H job has {steps} gamma points, "
                                          r"the spec's grid 2$"):
        build_validation_report({"I": inside, "H": other}, GameSpec(gamma_grid=gammas))


def test_build_report_rejects_no_cells():
    with pytest.raises(SchemaError, match="no cells"):
        build_validation_report({}, GameSpec())
    gammas = default_gamma_grid(2)
    no_runs = JobCounts(np.zeros((2, 0, 4), int), gammas, 1)
    with pytest.raises(SchemaError, match="no cells"):
        build_validation_report({"I": no_runs}, GameSpec(gamma_grid=gammas))


def job_of(runs, steps=2):
    """A JobCounts of runs runs on the default grid of steps angles."""
    return JobCounts(np.full((steps, runs, 4), 5), default_gamma_grid(steps), 20)


# build_validation_report checks, in this order: an empty mapping, each job's grid
# length in mapping order, rmse_method, no cells, missing cells, at least 2 runs
@pytest.mark.parametrize("results, rmse_method, error, message", [
    pytest.param({}, "bogus", SchemaError, r"no cells", id="empty-before-method"),
    pytest.param({"I": job_of(0), "H": job_of(2), "RY(pi/4)": job_of(3, steps=3),
                  "RY(pi)": job_of(2, steps=4)}, "bogus", SchemaError,
                 r"the RY\(pi/4\) job has 3 gamma points, the spec's grid 2",
                 id="grid-before-method"),
    pytest.param({"I": job_of(3), "H": job_of(2)}, "bogus", ValueError,
                 r"unknown rmse_method 'bogus'", id="method-before-missing"),
    pytest.param({"I": job_of(0), "H": job_of(0)}, "mean_of_rmses", SchemaError, r"no cells",
                 id="no-runs"),
    pytest.param({"I": job_of(2), "H": job_of(0), "RY(pi/4)": job_of(1)}, "rmse_of_means",
                 SchemaError, r"missing cells \[\('RY\(pi/4\)', 0.0, 1\), "
                              r"\('RY\(pi/4\)', 3.14\d*, 1\)\]",
                 id="missing-past-a-shorter-job"),
    pytest.param({"I": job_of(1), "H": job_of(1)}, "rmse_of_means", SchemaError,
                 r"the results hold 1 run per \(strategy, gamma\) cell; "
                 r"validation needs at least 2 runs", id="one-run"),
])
def test_build_report_checks_in_order(results, rmse_method, error, message):
    with pytest.raises(error, match=rf"^{message}$") as raised:
        build_validation_report(results, GameSpec(gamma_grid=default_gamma_grid(2)),
                                rmse_method=rmse_method)
    assert type(raised.value) is error


def test_report_from_cells_flags_duplicate_cells():
    # a JobCounts holds each cell once; a results file read by validate may not
    cells = [("I", i, run) for run in range(2) for i in range(2)] + [("I", 1, 0)]
    labels, gamma_index, runs = zip(*cells)
    with pytest.raises(SchemaError, match=r"^duplicate cells \[\('I', 3.14\d*, 0\)\]$"):
        report_from_cells(labels, gamma_index, runs, [(1.0, 1.0)] * len(cells),
                          default_gamma_grid(2), "corrected", BOS, "rmse_of_means")


RUNS_ACROSS_INT64 = [0, 0, 2**63, 2**63, 2**63 + 1, 2**63 + 1]


@pytest.mark.parametrize("runs", [
    RUNS_ACROSS_INT64, tuple(RUNS_ACROSS_INT64), np.array(RUNS_ACROSS_INT64, object),
    np.array(RUNS_ACROSS_INT64, np.uint64),
], ids=["list", "tuple", "object-array", "uint64-array"])
def test_report_from_cells_keeps_runs_past_int64_apart(runs):
    # numpy types a list of ints on both sides of 2**63 float64, where 2**63 and
    # 2**63 + 1 are one value; the runs here are 0, 1, 2 relabelled in order
    gammas, payoffs = default_gamma_grid(2), np.arange(12.0).reshape(6, 2) / 4
    cells = (["I"] * 6, [0, 1] * 3)
    report = report_from_cells(*cells, runs, payoffs, gammas, "corrected", BOS, "rmse_of_means")
    assert report == report_from_cells(*cells, [0, 0, 1, 1, 2, 2], payoffs, gammas,
                                       "corrected", BOS, "rmse_of_means")
    missing = r"^missing cells \[\('I', 3.14\d*, 9223372036854775809\)\]$"  # named exactly
    with pytest.raises(SchemaError, match=missing):
        report_from_cells(["I"] * 5, [0, 1, 0, 1, 0], runs[:5], payoffs[:5], gammas,
                          "corrected", BOS, "rmse_of_means")


def gathered_report(results, spec, variant, rmse_method):
    """build_validation_report before JobCounts: each job's cells, run-major,
    gathered cell by cell into one count array for report_from_cells."""
    cells = [(label, i, run) for label, job in results.items()
             for run in range(job.counts.shape[1]) for i in range(len(job.grid))]
    counts = np.array([results[label].counts[i, run] for label, i, run in cells]).reshape(-1, 4)
    shots = np.array([results[label].shots for label, _, _ in cells]).reshape(-1, 1)
    return report_from_cells(
        [label for label, _, _ in cells], [i for _, i, _ in cells], [run for _, _, run in cells],
        payoff_table(counts / shots, spec.payoff),
        spec.gamma_grid, variant, spec.payoff, rmse_method)


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.sampled_from([s.label for s in CANONICAL_STRATEGIES]),
                       min_size=1, max_size=4, unique=True),
       steps=st.integers(2, 9), runs=st.integers(2, 6), shots=st.integers(1, 8192),
       seed=st.integers(0, 2**32), variant=st.sampled_from(["corrected", "paper"]),
       rmse_method=st.sampled_from(["rmse_of_means", "mean_of_rmses"]))
def test_report_from_job_counts_equals_the_per_cell_gather(labels, steps, runs, shots, seed,
                                                           variant, rmse_method):
    rng = np.random.default_rng(seed)
    spec = GameSpec(gamma_grid=default_gamma_grid(steps))
    results = {label: JobCounts(rng.multinomial(shots, rng.dirichlet(np.ones(4), (steps, runs))),
                                spec.gamma_grid, shots)
               for label in labels}
    assert (build_validation_report(results, spec, variant, rmse_method)
            == gathered_report(results, spec, variant, rmse_method))


@settings(max_examples=100, deadline=None)
@given(jobs=st.lists(st.tuples(st.sampled_from([s.label for s in CANONICAL_STRATEGIES]),
                               st.integers(0, 5), st.integers(1, 8192)),
                     min_size=1, max_size=4, unique_by=lambda job: job[0]),
       steps=st.integers(2, 9), seed=st.integers(0, 2**32),
       variant=st.sampled_from(["corrected", "paper"]),
       rmse_method=st.sampled_from(["rmse_of_means", "mean_of_rmses"]))
def test_report_from_jobs_of_any_run_counts_equals_the_per_cell_gather(jobs, steps, seed,
                                                                       variant, rmse_method):
    # jobs of 0-5 runs each: a report, or the per-cell path's exception and text
    rng = np.random.default_rng(seed)
    spec = GameSpec(gamma_grid=default_gamma_grid(steps))
    results = {label: JobCounts(rng.multinomial(shots, rng.dirichlet(np.ones(4), (steps, runs))),
                                spec.gamma_grid, shots)
               for label, runs, shots in jobs}
    try:
        gathered = gathered_report(results, spec, variant, rmse_method)
    except ValueError as err:  # SchemaError included
        with pytest.raises(ValueError) as raised:
            build_validation_report(results, spec, variant, rmse_method)
        assert (type(raised.value), str(raised.value)) == (type(err), str(err))
    else:
        assert bits(build_validation_report(results, spec, variant, rmse_method)) == bits(gathered)


def bits(value):
    """value as nested lists, field by field, that compare equal only if every
    float has the same bits: a float array reads as .view(np.uint64) and a float
    as its 64 bits, so -0.0 and 0.0, and NaN payloads, tell apart.  Each value
    keeps its type's name, and an array its dtype and shape."""
    if isinstance(value, np.ndarray):
        assert value.dtype == np.float64
        return ["ndarray", value.shape, value.view(np.uint64).tolist()]
    if isinstance(value, float):
        return [type(value).__name__, np.array(value, np.float64).view(np.uint64).item()]
    if is_dataclass(value):
        return [type(value).__name__, [(f.name, bits(getattr(value, f.name))) for f in fields(value)]]
    if isinstance(value, (tuple, list)):
        return [type(value).__name__, [bits(v) for v in value]]
    return [type(value).__name__, value]


def test_bits_tell_every_float_apart():
    nan, other_nan = np.array([math.nan, math.nan]), np.array([math.nan, math.nan])
    other_nan.view(np.uint64)[1] ^= 1  # another NaN payload
    assert bits(nan) == bits(nan.copy()) and bits(nan) != bits(other_nan)
    assert bits(np.zeros(2)) != bits(-np.zeros(2)) and bits((0.0,)) != bits((-0.0,))
    assert bits(np.zeros((2, 1))) != bits(np.zeros((1, 2))) and bits(1.0) != bits(np.float64(1.0))
    sv = stats.StrategyValidation("I", 0.1, 0.2, (0.0,), 2, [[1.0, 2.0]], [[0.0, 0.0]], [[0.0, 0.0]])
    assert bits(sv) == bits(stats.StrategyValidation(*(getattr(sv, f.name) for f in fields(sv))))
    nudged = sv.means.copy()
    nudged.view(np.uint64)[0, 1] += 1  # one last bit
    assert bits(sv) != bits(stats.StrategyValidation("I", 0.1, 0.2, (0.0,), 2, nudged,
                                                     sv.sample_variances, sv.ci_half_widths))


def per_strategy_report(results, spec, variant, rmse_method):
    """build_validation_report before the one-pass RMSE: each strategy's run
    statistics, reference curves and one rmse call per series, in a loop."""
    validations, all_rmses = [], []
    for label, job in results.items():
        cells = payoff_table(job.counts / job.shots, spec.payoff)  # (gamma, run, player)
        mean, var, half = _run_statistics(np.ascontiguousarray(cells.transpose(0, 2, 1)))
        refs = qbos.analytical_curves(qbos.Strategy.parse(label), spec.gamma_grid, variant,
                                      spec.payoff)
        if rmse_method == "rmse_of_means":
            rmse_a = rmse(mean[:, 0], refs[:, 0])
            rmse_b = rmse(mean[:, 1], refs[:, 1])
        else:
            runs = cells.shape[1]
            rmse_a = float(np.mean([rmse(cells[:, r, 0], refs[:, 0]) for r in range(runs)]))
            rmse_b = float(np.mean([rmse(cells[:, r, 1], refs[:, 1]) for r in range(runs)]))
        validations.append(stats.StrategyValidation(
            label, rmse_a, rmse_b, spec.gamma_grid, cells.shape[1], mean, var, half))
        all_rmses.extend((rmse_a, rmse_b))
    return stats.ValidationReport(variant, relative_error_percent(min(all_rmses), PAYOFF_SCALE_MAX),
                                  relative_error_percent(max(all_rmses), PAYOFF_SCALE_MIN),
                                  tuple(validations))


@settings(max_examples=80, deadline=None)
@given(labels=st.lists(st.sampled_from([s.label for s in CANONICAL_STRATEGIES]),
                       min_size=1, max_size=4, unique=True),
       gammas=st.lists(st.floats(0.0, math.pi), min_size=2, max_size=9, unique=True).map(sorted),
       runs=st.integers(2, 6), shots=st.integers(1, 8192), seed=st.integers(0, 2**32),
       variant=st.sampled_from(["corrected", "paper"]),
       rmse_method=st.sampled_from(["rmse_of_means", "mean_of_rmses"]))
def test_one_pass_report_equals_the_per_strategy_loop(labels, gammas, runs, shots, seed,
                                                      variant, rmse_method):
    rng = np.random.default_rng(seed)
    spec = GameSpec(gamma_grid=gammas)
    results = {label: JobCounts(rng.multinomial(shots, rng.dirichlet(np.ones(4), (len(gammas), runs))),
                                spec.gamma_grid, shots)
               for label in labels}
    assert (bits(build_validation_report(results, spec, variant, rmse_method))
            == bits(per_strategy_report(results, spec, variant, rmse_method)))


def test_a_second_report_on_a_grid_evaluates_no_closed_form(monkeypatch):
    evaluated = []

    def counted(strategy, gamma):
        evaluated.append(gamma)
        return closed_form_distribution(strategy, gamma)

    closed_form_distribution = qbos.game._closed_form_distribution
    monkeypatch.setattr(qbos.game, "_closed_form_distribution", counted)
    spec = GameSpec(gamma_grid=default_gamma_grid(7))
    results = {s.label: JobCounts(np.full((7, 2, 4), 5), spec.gamma_grid, 20)
               for s in CANONICAL_STRATEGIES}
    first = build_validation_report(results, spec)
    assert len(evaluated) == 4 * 7
    assert build_validation_report(results, spec) == first
    assert len(evaluated) == 4 * 7


def test_a_job_keyed_by_a_numpy_angle_strategy_reports():
    # the label of RY(np.float64(0.5)) once read "RY(np.float64(0.5))", which parse refused
    label = qbos.Strategy("RY", np.float64(0.5)).label
    gammas = default_gamma_grid(3)
    report = build_validation_report({label: JobCounts(np.full((3, 2, 4), 5), gammas, 20)},
                                     GameSpec(gamma_grid=gammas))
    assert [sv.strategy for sv in report.strategies] == ["RY(0.5)"]


def test_payoff_table_is_the_per_cell_product():
    rng = np.random.default_rng(3)
    freqs = rng.multinomial(100, [0.4, 0.1, 0.2, 0.3], size=(5, 3)) / 100
    wa, wb = BOS.outcome_weights()
    table = payoff_table(freqs, BOS)
    assert table.shape == (5, 3, 2)
    for g in range(5):
        for r in range(3):
            assert table[g, r].tolist() == [float(freqs[g, r] @ wa), float(freqs[g, r] @ wb)]
    # four non-zero, non-dyadic weights per player over 1,240 cells: a stacked
    # f @ w or a left-to-right sum rounds differently in some of them
    matrix = PayoffMatrix((((2.7, 1.3), (0.1, 0.7)), ((0.3, 0.9), (1.9, 2.3))))
    wa, wb = matrix.outcome_weights()
    freqs = rng.multinomial(8192, [0.4, 0.1, 0.2, 0.3], size=(31, 40)) / 8192
    table = payoff_table(freqs, matrix)
    assert table.shape == (31, 40, 2)
    expected = [[[cell.dot(wa), cell.dot(wb)] for cell in row] for row in freqs]
    assert table.tolist() == expected
    with pytest.raises(ValueError, match="4 outcome frequencies"):
        payoff_table(np.ones((2, 3)), BOS)


def test_t_quantile_equals_scipy_t_ppf():
    # _t_quantile takes its quantile from scipy.special.stdtrit, which
    # imports far faster than scipy.stats; the quantiles and the half-widths
    # agree bit for bit
    from scipy import stats as sps
    rng = np.random.default_rng(7)
    assert CONFIDENCE == 0.95
    for n in range(2, 202):
        assert _t_quantile(n - 1) == float(sps.t.ppf(0.5 + CONFIDENCE / 2.0, df=n - 1))
        values = rng.normal(1.0, 0.5, size=n).tolist()
        _, var, half = _run_statistics(np.asarray(values))
        t_crit = float(sps.t.ppf(0.5 + 0.95 / 2.0, df=n - 1))
        assert half == t_crit * math.sqrt(var / n)


def test_t975_table_holds_the_scipy_quantiles():
    from scipy.special import stdtrit
    assert 0.5 + CONFIDENCE / 2.0 == 0.975
    assert len(_T975) == 128
    for df in range(1, 129):
        assert _T975[df - 1] == float(stdtrit(df, 0.975))
        assert _t_quantile(df) == _T975[df - 1]


def test_scipy_loads_only_when_a_report_is_built(tmp_path):
    # only reports of more than 129 runs load scipy; a fresh interpreter,
    # since this one has scipy loaded already
    script = (
        "import sys, numpy, qbos\n"
        "from qbos import cli, stats\n"
        "assert 'scipy' not in sys.modules\n"
        "assert cli.main(['equilibrium']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
        "stats._run_statistics(numpy.array([1.0, 2.0]))\n"
        "stats._run_statistics(numpy.arange(129.0))\n"
        "for runs in ('5', '129'):\n"
        "    out = sys.argv[1] + runs + '.csv'\n"
        "    assert cli.main(['sweep', '--synth', '--svg', '--gamma-steps', '3', '--runs', runs,\n"
        "                     '--shots', '16', '--out', out]) == 0\n"
        "    assert cli.main(['validate', out]) == 0\n"
        "assert 'scipy' not in sys.modules\n"
        "stats._run_statistics(numpy.arange(130.0))\n"
        "assert 'scipy' in sys.modules\n"
    )
    path = [str(Path(qbos.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sweep")], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_report_text_table():
    gammas = default_gamma_grid(5)
    report = report_from_series({"H": exact_series("H", gammas)})
    text = report.to_text()
    assert "RMSE" in text and "H" in text and "relative error" in text


def test_report_json_round_trip(tmp_path):
    import json
    gammas = default_gamma_grid(4)
    report = report_from_series({"I": exact_series("I", gammas)})
    path = tmp_path / "report.json"
    report.save(path)
    doc = json.loads(path.read_text())
    assert doc["strategies"][0]["strategy"] == "I"
    assert doc["best_relative_error_pct"] == 0.0


# --- the report's JSON document ------------------------------------------------------

@dataclass(frozen=True)
class PayoffEstimate:
    """One player's run statistics at one angle, as reports once held them."""
    mean: float
    sample_variance: float
    ci_half_width: float
    n: int


@dataclass(frozen=True)
class GammaEstimate:
    gamma: float
    alice: PayoffEstimate
    bob: PayoffEstimate


@dataclass(frozen=True)
class PerGammaStrategy:
    """A strategy's entry as reports held it when per_gamma was a field."""
    strategy: str
    rmse_a: float
    rmse_b: float
    per_gamma: tuple


@dataclass(frozen=True)
class PerGammaReport:
    variant: str
    best_relative_error_pct: float
    worst_relative_error_pct: float
    strategies: tuple


def per_gamma(sv):
    """A strategy's per-angle estimates as GammaEstimate objects."""
    return tuple(
        GammaEstimate(g, PayoffEstimate(ma, va, ha, sv.n), PayoffEstimate(mb, vb, hb, sv.n))
        for g, (ma, mb), (va, vb), (ha, hb)
        in zip(sv.gammas, sv.means, sv.sample_variances, sv.ci_half_widths))


def per_gamma_json(report):
    """The reference encoding: dataclasses.asdict over the report rebuilt from per_gamma."""
    return asdict(PerGammaReport(
        report.variant, report.best_relative_error_pct, report.worst_relative_error_pct,
        tuple(PerGammaStrategy(sv.strategy, sv.rmse_a, sv.rmse_b, per_gamma(sv))
              for sv in report.strategies)))


LABELS = [s.label for s in CANONICAL_STRATEGIES]


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True),
       steps=st.integers(2, 9), runs=st.integers(2, 9), coarse=st.booleans(),
       seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["corrected", "paper"]),
       method=st.sampled_from(["rmse_of_means", "mean_of_rmses"]))
@example(labels=["RY(pi)", "I"], steps=3, runs=130, coarse=False, seed=1,
         variant="paper", method="mean_of_rmses")  # past _T975: scipy's quantile
def test_report_json_equals_the_per_gamma_encoding(labels, steps, runs, coarse, seed,
                                                   variant, method):
    rng = np.random.default_rng(seed)
    gammas = default_gamma_grid(steps)
    cells = [(label, g, run) for label in labels for g in range(steps) for run in range(runs)]
    order = rng.permutation(len(cells))  # any cell order gives the same report
    # coarse payoffs repeat within a series, so some variances and half-widths are 0
    payoffs = (rng.integers(0, 7, size=(len(cells), 2)) / 2 if coarse
               else rng.uniform(0, 3, size=(len(cells), 2)))
    label_of, gamma_of, run_of = zip(*(cells[i] for i in order))
    report = report_from_cells(label_of, gamma_of, run_of, payoffs, gammas, variant, BOS,
                               method)
    assert (json.dumps(report.to_json(), indent=1)
            == json.dumps(per_gamma_json(report), indent=1))



# --- the report file -----------------------------------------------------------------

# labels that Strategy.parse reads, as a results table may spell them
STRATEGY_LABEL = st.one_of(st.sampled_from(LABELS + [" H", "I "]),
                           st.integers(1, 99).map(lambda d: f"RY(pi / {d})"),
                           st.floats(0.0, 6.28).map(lambda x: f"ry({x!r})"))


@st.composite
def reports(draw):
    """Reports of 1-4 strategies over any grid of 1-8 angles and 2-6 runs with any
    ids; coarse payoffs repeat, so some variances and half-widths are 0."""
    labels = draw(st.lists(STRATEGY_LABEL, min_size=1, max_size=4, unique=True))
    gammas = draw(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=8))
    runs = draw(st.lists(st.integers(-10, 10**6), min_size=2, max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = [(label, g, run) for label in labels for g in range(len(gammas)) for run in runs]
    payoffs = (rng.integers(0, 7, size=(len(cells), 2)) / 2 if draw(st.booleans())
               else rng.uniform(0, 3, size=(len(cells), 2)))
    # the paper's curves exist only for its four strategies
    variant = (draw(st.sampled_from(["corrected", "paper"])) if set(labels) <= set(LABELS)
               else "corrected")
    return report_from_cells(*zip(*cells), payoffs, gammas, variant, BOS,
                             draw(st.sampled_from(["rmse_of_means", "mean_of_rmses"])))


# by hand: NaN and infinite floats, numpy-float gammas, strings holding ", ",
# quotes and backslashes, and empty lists
ODD_REPORT = stats.ValidationReport('paper, "x"\\', math.nan, math.inf, (
    stats.StrategyValidation('RY(1, 2) "q"\t', math.inf, -math.inf,
                             (np.float64(0.1), np.float64(math.pi)), 5,
                             ((math.nan, 1.0), (2.0, math.inf)),
                             ((0.0, -0.0), (5e-324, 1e300)),
                             ((math.nan, -math.inf), (np.float64(0.5), 0.25))),
    stats.StrategyValidation("I", 0.0, 0.0, (), 2, (), (), ())))


ONE_PAIR = ((0.5, 1.0),)


@pytest.mark.parametrize("changes, message", [
    ({"n": np.int64(5)}, r"^n must be an integer, got np\.int64\(5\)$"),
    ({"means": ONE_PAIR, "sample_variances": ONE_PAIR, "ci_half_widths": ONE_PAIR},
     r"^means must hold one \(alice, bob\) pair per gamma, 3 in all, got \(\(0\.5, 1\.0\),\)$"),
    ({"sample_variances": ONE_PAIR * 4}, r"^sample_variances must hold one .* 3 in all"),
    ({"ci_half_widths": ((0.1, 0.2, 0.3),) * 3}, r"^ci_half_widths must hold one .* 3 in all"),
    ({"means": (0.5, 1.0, 1.5)}, r"^means must hold one .* got \(0\.5, 1\.0, 1\.5\)$"),
    ({"means": ((0.5, 1.0), (0.5,), (0.5, 1.0))}, r"^means must hold one .* 3 in all, got"),
    ({"sample_variances": (("0.5", "1.0"),) * 3}, r"^sample_variances must hold one .* 3 in all"),
    ({"ci_half_widths": ((True, False),) * 3}, r"^ci_half_widths must hold one .* 3 in all"),
    ({"means": ((None, 1.0),) * 3}, r"^means must hold one .* 3 in all"),
    ({"gammas": ("a, b", 1.0), "means": ONE_PAIR * 2, "sample_variances": ONE_PAIR * 2,
      "ci_half_widths": ONE_PAIR * 2}, r"^gammas must be numeric, got \('a, b', 1\.0\)$"),
    ({"gammas": (0.0, True, 2.0)}, r"^gammas must be numeric, got \(0\.0, True, 2\.0\)$"),
    ({"gammas": (0.0, 10**400, 2.0)}, r"^gammas must be numeric, got \(0\.0, 1000"),
    ({"rmse_a": "x"}, r"^rmse_a must be numeric, got 'x'$"),
    ({"rmse_a": -10**400}, r"^rmse_a must be numeric, got -1000"),
    ({"rmse_b": None}, r"^rmse_b must be numeric, got None$"),
], ids=["n-numpy", "one-pair", "variances-long", "half-widths-triple", "means-flat",
        "means-ragged", "variances-text", "half-widths-bool", "means-none", "gammas-text",
        "gammas-bool", "gammas-past-float", "rmse-text", "rmse-past-float", "rmse-none"])
def test_strategy_validation_takes_only_what_its_report_file_holds(changes, message):
    # save writes n as a JSON integer, numbers as numbers and one alice/bob pair per
    # angle; a value it could not write, or would write for fewer angles, is
    # refused when built.  gammas ("a, b", 1.0) once saved a file json could not read,
    # and an int past the float range once raised OverflowError or saved as an integer.
    fields = dict(strategy="I", rmse_a=0.1, rmse_b=0.2, gammas=(0.0, 1.0, 2.0), n=5,
                  means=ONE_PAIR * 3, sample_variances=ONE_PAIR * 3, ci_half_widths=ONE_PAIR * 3)
    stats.StrategyValidation(**fields)
    with pytest.raises(ValueError, match=message):
        stats.StrategyValidation(**{**fields, **changes})


@pytest.mark.parametrize("field", ["best_relative_error_pct", "worst_relative_error_pct"])
@pytest.mark.parametrize("value", ["x", None, True, [1.0], 10**400],
                         ids=["text", "none", "bool", "list", "past-float"])
def test_report_takes_only_numbers_for_its_relative_errors(field, value):
    # NaN and infinities are numbers, which the odd report holds
    values = {"variant": "corrected", "best_relative_error_pct": -math.inf,
              "worst_relative_error_pct": math.nan, "strategies": ()}
    stats.ValidationReport(**values)
    with pytest.raises(ValueError, match=rf"^{field} must be numeric, got {re.escape(repr(value))}$"):
        stats.ValidationReport(**{**values, field: value})


def test_report_columns_are_read_only_float64_arrays():
    grid = default_gamma_grid(5)
    from_jobs = build_validation_report(
        {s.label: JobCounts(np.full((5, 3, 4), 5), grid, 20) for s in CANONICAL_STRATEGIES},
        GameSpec(gamma_grid=grid))
    from_cells = report_from_series({"I": exact_series("I", default_gamma_grid(4))})
    for sv in from_jobs.strategies + from_cells.strategies + ODD_REPORT.strategies:
        assert type(sv.gammas) is tuple and set(map(type, sv.gammas)) <= {float}
        for column in (sv.means, sv.sample_variances, sv.ci_half_widths):
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert column.shape == (len(sv.gammas), 2) and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0.0
    assert [sv.means.shape for sv in ODD_REPORT.strategies] == [(2, 2), (0, 2)]
    # the core's rows are kept, not copied: one frozen array under every strategy's means
    assert len({id(sv.means.base) for sv in from_jobs.strategies}) == 1


def test_strategy_validation_copies_what_it_does_not_keep():
    gammas = (0.0, 1.0, 2.0)
    writable = np.array([[0.5, 1.0], [1.5, 2.0], [2.5, 3.0]])
    frozen = writable.copy()
    frozen.flags.writeable = False
    narrow = frozen.astype(np.float32)
    narrow.flags.writeable = False
    sv = stats.StrategyValidation("I", 0.1, 0.2, gammas, 5, writable, frozen, narrow)
    assert sv.sample_variances is frozen  # a read-only float64 column of the right shape is kept
    assert sv.means is not writable and sv.ci_half_widths.dtype == np.float64
    writable[0, 0] = 9.0
    assert sv.means[0, 0] == 0.5 and sv.means.tolist() == frozen.tolist()
    listed = stats.StrategyValidation("I", 0.1, 0.2, list(gammas), 5, *[writable.tolist()] * 3)
    assert listed.gammas == (0.0, 1.0, 2.0) and listed.means[0, 0] == 9.0
    # a read-only view of a writable array is copied too: the array could still change it
    view = writable[:]
    view.flags.writeable = False
    seen = stats.StrategyValidation("I", 0.1, 0.2, gammas, 5, view, view, view)
    writable[0, 0] = 7.0
    assert seen.means is not view and seen.means[0, 0] == 9.0


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, lambda sv: pickle.loads(pickle.dumps(sv))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copied_strategy_validation_keeps_read_only_columns(copy_of):
    sv = ODD_REPORT.strategies[0]
    copied = copy_of(sv)
    assert bits(copied) == bits(sv)
    for column in (copied.means, copied.sample_variances, copied.ci_half_widths):
        assert type(column) is np.ndarray and column.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            column[...] = 0.0
    assert bits(copy_of(ODD_REPORT)) == bits(ODD_REPORT)


def test_strategy_validations_compare_by_value_and_do_not_hash():
    pairs = ((0.5, 1.0), (1.5, 2.0))
    as_tuples = stats.StrategyValidation("H", 0.1, 0.2, (0.0, 1.0), 5, pairs, pairs, pairs)
    as_arrays = stats.StrategyValidation("H", 0.1, 0.2, (0.0, 1.0), 5, *[np.array(pairs)] * 3)
    assert as_tuples == as_arrays and not as_tuples != as_arrays
    nudged = np.array(pairs)
    nudged.view(np.uint64)[1, 1] += 1
    assert as_tuples != stats.StrategyValidation("H", 0.1, 0.2, (0.0, 1.0), 5, pairs, nudged, pairs)
    assert as_tuples != stats.StrategyValidation("H", 0.1, 0.2, (0.0, 1.0), 6, pairs, pairs, pairs)
    assert as_tuples != "H" and as_tuples != asdict(as_tuples)
    report = stats.ValidationReport("corrected", 1.0, 2.0, (as_tuples,))
    assert report == stats.ValidationReport("corrected", 1.0, 2.0, (as_arrays,))
    for value in (as_tuples, report):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


@settings(max_examples=60, deadline=None)
@given(reports())
@example(ODD_REPORT)
@example(stats.ValidationReport("corrected", 0.0, 0.0, ()))
def test_report_file_is_the_indented_json_text(tmp_path_factory, report):
    # ODD_REPORT's NaN, infinities, numpy-float gammas and quoted strings included
    path = tmp_path_factory.getbasetemp() / "indented-report.json"
    report.save(path)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == json.dumps(report.to_json(), indent=1) + "\n"
