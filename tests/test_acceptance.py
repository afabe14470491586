"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import contextlib
import csv
import io
import json
import math
import time

import numpy as np

from qbos import device, gcm, noise, stats
from qbos.cli import main as cli_main
from qbos.game import (
    CANONICAL_STRATEGIES,
    GameSpec,
    PayoffMatrix,
    STRATEGY_H,
    STRATEGY_I,
    STRATEGY_RY_PI,
    STRATEGY_RY_PI_4,
    advantage_percent,
    classical_mixed_equilibrium,
)
from qbos.noise import NoiseModel, noisy_distributions
from qbos.stats import payoff_table
from qbos.statevec import derive_seed

from mapping_oracles import SMALL_INSTANCES, milp_optimum
from noise_oracles import analytical_payoffs

BOS = PayoffMatrix.battle_of_sexes()
# at scale 0 every pair behaves like this error-free one: (two-qubit errors, readout errors)
IDEAL_PAIR = (np.zeros(1), np.zeros((1, 2)))

# noise scale tuned once against the uniform calibration profile so that the
# strategy-H Alice RMSE lands at ~0.118; frozen here
TUNED_NOISE_SCALE = 1.5
# the uniform profile reads its seed only for the timestamp, so criteria 7 and 8
# do not depend on CAL_SEED; criterion 5's realistic profile does
CAL_SEED = 0
SAMPLE_SEED = 11
SHOTS = 2048
RUNS = 5
# criterion 11's realistic calibration seeds, and how many of them must order the
# plans packed > calibration-blind > GCM in mean RMSE: all 20 did when pinned
REALISTIC_SEEDS = range(20)
LADDER_SEEDS = 18


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def symmetric_spec(strategy):
    return GameSpec(strategy_a=strategy, strategy_b=strategy)


def ideal(spec, gamma):
    """The game circuit's outcome distribution: the core at noise scale 0."""
    players = [(spec.strategy_a, spec.strategy_b)]
    return noisy_distributions([gamma], players, *IDEAL_PAIR, NoiseModel(scale=0.0), [False])[0, 0]


def run_full_job(plan, cal, model, sample_seed):
    results = {}
    for idx, strategy in enumerate(CANONICAL_STRATEGIES):
        spec = symmetric_spec(strategy)
        results[strategy.label] = noise.simulate_job(
            plan, spec, cal, model, SHOTS, RUNS, derive_seed(sample_seed, idx)
        )
    return stats.build_validation_report(results, GameSpec(), variant="corrected")


def test_criterion_01_analytic_simulator_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for strategy in (STRATEGY_I, STRATEGY_RY_PI_4, STRATEGY_RY_PI):
        spec = symmetric_spec(strategy)
        for gamma in spec.gamma_grid:
            sim = payoff_table(ideal(spec, gamma), BOS)
            ana = analytical_payoffs(strategy, gamma, "paper")
            worst = max(worst, abs(sim[0] - ana[0]), abs(sim[1] - ana[1]))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    ok(1, f"max |analytic - simulated| = {worst:.2e} over 31 points x 3 strategies "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_hadamard_curve_resolution():
    worst = 0.0
    for gamma in GameSpec().gamma_grid:
        c, s = math.cos(gamma / 2), math.sin(gamma / 2)
        want = 1.25 * (c + s) ** 2
        sim = payoff_table(
            ideal(symmetric_spec(STRATEGY_H), gamma), BOS
        )
        worst = max(worst, abs(sim[0] - want), abs(sim[1] - want))
    assert worst <= 1e-9
    legacy_alice, _ = analytical_payoffs(STRATEGY_H, math.pi, "paper")
    assert legacy_alice > 3.0
    ok(2, f"simulated H payoffs match (5/4)[cos+sin]^2 to {worst:.2e}; legacy "
          f"Alice curve reaches {legacy_alice:.2f} > 3 at gamma = pi")


def test_criterion_03_equal_payoff_point():
    for strategy in CANONICAL_STRATEGIES:
        sim = payoff_table(
            ideal(symmetric_spec(strategy), math.pi / 2), BOS
        )
        assert abs(sim[0] - sim[1]) <= 1e-9
        assert abs(sim[0] - 2.5) <= 1e-9
    ok(3, "every strategy pays (2.5, 2.5) at gamma = pi/2 within 1e-9")


def test_criterion_04_classical_equilibrium():
    eq = classical_mixed_equilibrium(BOS)
    assert abs(eq.p_alice - 0.6) <= 1e-12
    assert abs(eq.q_bob - 0.4) <= 1e-12
    assert abs(eq.e_a - 1.2) <= 1e-12
    assert abs(eq.e_b - 1.2) <= 1e-12
    adv = advantage_percent(2.5, 1.2)
    assert abs(adv - 108.33) <= 0.01
    ok(4, f"p = 0.6, q = 0.4, payoffs 1.2; quantum advantage {adv:.2f}%")


def test_criterion_05_mapping_feasibility_127():
    graph = device.heavy_hex_graph(6)
    cal = device.synth_calibration(graph, seed=CAL_SEED, profile="realistic")
    t0 = time.perf_counter()
    plan = gcm.select_pairs(graph, cal, k=31, min_separation=2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert len(plan.assignments) == 31
    assert len({q for pair in plan.assignments for q in pair}) == 62
    verdict, violation = gcm.verify_separation(plan, graph)
    assert verdict, violation
    ok(5, f"31 separated pairs on 127 qubits in {elapsed:.2f} s, checker agrees")


def test_criterion_06_small_instance_optimality():
    # the optimum is an exact integer program (tests/mapping_oracles.py), which
    # tests/test_gcm.py checks against exhaustive search on these instances
    checked = 0
    worst_ratio = 1.0
    for graph, k in SMALL_INSTANCES:
        assert len(graph.edges) <= 10
        for seed in range(4):
            cal = device.synth_calibration(graph, seed=seed, profile="realistic")
            opt = milp_optimum(graph, cal, k)
            if opt is None:
                continue
            plan = gcm.select_pairs(graph, cal, k=k, min_separation=2)
            ratio = gcm.plan_score(plan, cal) / opt
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 1.10
            checked += 1
    assert checked >= 20
    ok(6, f"{checked} small instances: worst score ratio vs optimum {worst_ratio:.4f}")


def test_criterion_07_noise_band_reproduction():
    t0 = time.perf_counter()
    graph = device.heavy_hex_graph(6)
    cal = device.synth_calibration(graph, seed=CAL_SEED, profile="uniform")
    plan = gcm.select_pairs(graph, cal, k=31, min_separation=2)
    model = noise.NoiseModel(scale=TUNED_NOISE_SCALE)
    report = run_full_job(plan, cal, model, SAMPLE_SEED)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0

    by_label = {sv.strategy: sv for sv in report.strategies}
    h_alice = by_label["H"].rmse_a
    assert abs(h_alice - 0.118) <= 0.02  # the tuning anchor
    entries = [v for sv in report.strategies for v in (sv.rmse_a, sv.rmse_b)]
    assert all(0.08 <= v <= 0.18 for v in entries)
    # best/worst relative errors bracket the published 3.5%..12.08% range
    # within a factor of 1.5
    assert 3.5 / 1.5 <= report.best_relative_error_pct <= 3.5 * 1.5
    assert 12.08 / 1.5 <= report.worst_relative_error_pct <= 12.08 * 1.5
    ok(7, f"H RMSE {h_alice:.3f}; eight entries in [{min(entries):.3f}, "
          f"{max(entries):.3f}]; relative errors {report.best_relative_error_pct:.2f}%"
          f"..{report.worst_relative_error_pct:.2f}% ({elapsed:.1f} s)")


def test_criterion_08_separated_mapping_beats_packed():
    graph = device.heavy_hex_graph(6)
    cal = device.synth_calibration(graph, seed=CAL_SEED, profile="uniform")
    separated = gcm.select_pairs(graph, cal, k=31, min_separation=2)
    crowded = gcm.packed_plan(graph, 31)
    model = noise.NoiseModel(scale=TUNED_NOISE_SCALE)

    def mean_rmse(plan, seed):
        report = run_full_job(plan, cal, model, seed)
        entries = [v for sv in report.strategies for v in (sv.rmse_a, sv.rmse_b)]
        return sum(entries) / len(entries)

    wins = 0
    deltas = []
    for seed in range(5):
        sep = mean_rmse(separated, seed)
        pack = mean_rmse(crowded, seed)
        deltas.append(pack - sep)
        wins += pack > sep
    assert wins >= 4
    ok(8, f"crowded plan worse in {wins}/5 seeds (mean RMSE gap "
          f"{np.mean(deltas):+.4f})")


def test_criterion_09_statistical_machinery():
    # Student-t coverage at n = 5 over 10,000 Gaussian replications
    rng = np.random.default_rng(424242)
    trials, n, mu, sigma = 10_000, 5, 0.8, 0.3
    covered = 0
    for row in rng.normal(mu, sigma, size=(trials, n)):
        mean, _, half = stats._run_statistics(row)
        covered += abs(mean - mu) <= half
    coverage = covered / trials
    assert abs(coverage - 0.95) <= 0.01

    # delta-method variance against 10,000 multinomial resamples
    freqs = np.array([1126, 102, 205, 615]) / 2048  # counts of 00, 01, 10, 11
    va, vb, vm = stats.propagate_count_error(freqs, 2048, BOS)
    draws = rng.multinomial(2048, freqs, size=10_000) / 2048
    wa, wb = BOS.outcome_weights()
    for model_var, emp_var in (
        (va, float(np.var(draws @ wa, ddof=1))),
        (vb, float(np.var(draws @ wb, ddof=1))),
        (vm, float(np.var(draws @ np.array([0.0, 1.0, 1.0, 0.0]), ddof=1))),
    ):
        assert abs(model_var - emp_var) <= 0.05 * emp_var

    # rmse identities, exact on exactly representable values
    series = [0.5, 1.25, 2.0, 2.75]
    assert stats.rmse(series, series) == 0.0
    assert stats.rmse([x + 0.25 for x in series], series) == 0.25
    ok(9, f"t-CI coverage {coverage:.3f}; delta-method within 5% of resampling; "
          f"rmse identities exact")


def test_criterion_10_byte_identical_sweeps(tmp_path):
    args = ["sweep", "--synth", "--seed", "99"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli_main(args + ["--out", str(paths[0])]) == 0
    assert cli_main(args + ["--out", str(paths[1])]) == 0
    config = tmp_path / "sweep.json"
    config.write_text('{"synth": true, "seed": 99}')
    assert cli_main(["sweep", "--config", str(config), "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    with open(paths[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 31 * 5 * 4
    ok(10, f"three sweep invocations (flags x2, config file) byte-identical; "
           f"{len(rows)} rows")


def report_rmse(report) -> float:
    entries = [v for sv in report.strategies for v in (sv.rmse_a, sv.rmse_b)]
    return sum(entries) / len(entries)


def coordination_kept(report) -> float:
    """(payoff at pi/2 - 1.25) / (2.5 - 1.25), the least over strategies and
    players: the share of the equal quantum payoff's lead over uniform outcomes."""
    at = report.strategies[0].gammas.index(math.pi / 2)
    return min((float(sv.means[at].min()) - 1.25) / (2.5 - 1.25) for sv in report.strategies)


def test_criterion_11_gcm_band_and_plan_ladder_on_realistic_calibrations():
    # criterion 7's band where GCM reads the calibration, and criterion 8's
    # ordering with a middle rung: the calibration-blind plan is select_pairs on
    # the uniform profile, whose tied scores leave separation alone to choose
    t0 = time.perf_counter()
    graph = device.heavy_hex_graph(6)
    model = noise.NoiseModel(scale=TUNED_NOISE_SCALE)
    blind = gcm.select_pairs(graph, device.synth_calibration(graph, 0, "uniform"), k=31)
    packed = gcm.packed_plan(graph, 31)
    best, worst, ladder, separation, kept = [], [], 0, [], []
    for seed in REALISTIC_SEEDS:
        cal = device.synth_calibration(graph, seed=seed, profile="realistic")
        reports = [run_full_job(plan, cal, model, SAMPLE_SEED)
                   for plan in (gcm.select_pairs(graph, cal, k=31), blind, packed)]
        best.append(reports[0].best_relative_error_pct)
        worst.append(reports[0].worst_relative_error_pct)
        guided, uninformed, crowded = map(report_rmse, reports)
        ladder += crowded > uninformed > guided
        separation.append((crowded - uninformed) / (crowded - guided))
        kept.append(tuple(map(coordination_kept, reports[:2])))
    elapsed = time.perf_counter() - t0
    assert all(3.5 / 1.5 <= v <= 3.5 * 1.5 for v in best), best
    assert all(12.08 / 1.5 <= v <= 12.08 * 1.5 for v in worst), worst
    assert ladder >= LADDER_SEEDS
    (gcm_low, blind_low), (gcm_high, blind_high) = np.min(kept, axis=0), np.max(kept, axis=0)
    ok(11, f"GCM relative errors {min(best):.2f}..{max(worst):.2f}% on realistic seeds "
           f"{REALISTIC_SEEDS.start}-{REALISTIC_SEEDS.stop - 1}; packed > blind > GCM on "
           f"{ladder}/{len(REALISTIC_SEEDS)}; of GCM's lead over packing, separation "
           f"{min(separation):.0%}-{max(separation):.0%} and calibration "
           f"{1 - max(separation):.0%}-{1 - min(separation):.0%}; coordination kept "
           f"{gcm_low:.2f}-{gcm_high:.2f} (GCM), {blind_low:.2f}-{blind_high:.2f} (blind) "
           f"({elapsed:.1f} s)")


def test_criterion_12_classical_references_of_the_headline():
    # the +108% is against the mixed equilibrium; a shared fair coin over 00 and 11,
    # a correlated equilibrium, pays the equal quantum payoff, and a uniform
    # outcome distribution, where full depolarization tends, pays more than 1.2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["equilibrium", "--json"]) == 0
    quantum_equal = json.loads(out.getvalue())["quantum_equal_payoff"]
    coin = payoff_table([0.5, 0.0, 0.0, 0.5], BOS)
    assert coin.tolist() == [quantum_equal, quantum_equal] == [2.5, 2.5]
    uniform = payoff_table([0.25] * 4, BOS)
    assert uniform.tolist() == [1.25, 1.25]
    eq = classical_mixed_equilibrium(BOS)
    assert (uniform > [eq.e_a, eq.e_b]).all()
    ok(12, f"shared coin pays {coin.tolist()} = quantum equal payoff; uniform outcomes "
           f"pay {uniform.tolist()} > mixed equilibrium ({eq.e_a:.2f}, {eq.e_b:.2f})")
