"""Statistical validation: aggregation, confidence intervals, RMSE, reporting.

Aggregation follows the experiment protocol: payoffs are derived per run
from shot counts, averaged across the repeated runs at each entanglement
angle (95% Student-t confidence half-widths, n-1 degrees of freedom), and
RMSE against the closed-form reference curves is computed on those per-angle
run means.  Best/worst relative errors divide the smallest RMSE entry by
the payoff-scale maximum (3) and the largest by the scale minimum (1.2) --
a blunt convention, but kept because the report mirrors it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import stdtrit

from .game import GameSpec, PayoffMatrix, Strategy, analytical_payoffs, expected_payoffs
from .noise import RunResult
from .statevec import ShotCounts

# fixed denominators for the best/worst relative-error convention
PAYOFF_SCALE_MAX = 3.0
PAYOFF_SCALE_MIN = 1.2


class SchemaError(ValueError):
    """A results table is structurally unusable (bad columns, missing cells)."""


@dataclass(frozen=True)
class PayoffEstimate:
    mean: float
    sample_variance: float
    ci_half_width: float
    n: int

    def __post_init__(self):
        if self.sample_variance < 0 or self.ci_half_width < 0:
            raise ValueError("variance and half-width must be >= 0")


def payoffs_from_counts(
    counts: ShotCounts, payoff: PayoffMatrix
) -> tuple[float, float, float]:
    """(e_a, e_b, miscoordination rate) from raw shot counts."""
    if counts.total_shots < 1:
        raise ValueError("need at least one shot")
    freqs = counts.frequencies()
    e_a, e_b = expected_payoffs(freqs, payoff)
    return e_a, e_b, float(freqs[1] + freqs[2])


def aggregate_runs(values: Sequence[float], confidence: float = 0.95) -> PayoffEstimate:
    """Mean, unbiased variance and Student-t CI half-width of repeated runs."""
    n = len(values)
    if n < 2:
        raise ValueError("confidence interval needs at least 2 runs")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1))
    t_crit = float(stdtrit(n - 1, 0.5 + confidence / 2.0))  # Student-t quantile
    half = t_crit * math.sqrt(var / n)
    return PayoffEstimate(mean, var, half, n)


def rmse(observed: Sequence[float], reference: Sequence[float]) -> float:
    """Root mean squared error between two equal-length series."""
    obs = np.asarray(observed, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if obs.shape != ref.shape or obs.ndim != 1 or obs.size < 1:
        raise ValueError(
            f"series must be equal-length 1-D: got {obs.shape} vs {ref.shape}"
        )
    return float(np.sqrt(np.mean((obs - ref) ** 2)))


def relative_error_percent(rmse_value: float, reference_payoff: float) -> float:
    if reference_payoff <= 0:
        raise ValueError("reference payoff must be positive")
    return 100.0 * rmse_value / reference_payoff


def propagate_count_error(
    counts: ShotCounts, payoff: PayoffMatrix
) -> tuple[float, float, float]:
    """Multinomial delta-method variances of (e_a, e_b, miscoordination).

    With outcome frequencies f and payoff weights w, the variance of the
    frequency-weighted payoff is (sum f w^2 - (sum f w)^2) / shots.
    """
    if counts.total_shots < 1:
        raise ValueError("need at least one shot")
    freqs = counts.frequencies()
    wa, wb = payoff.outcome_weights()
    wm = np.array([0.0, 1.0, 1.0, 0.0])

    def var(w):
        mean = float(freqs @ w)
        return (float(freqs @ (w**2)) - mean**2) / counts.total_shots

    return var(wa), var(wb), var(wm)


@dataclass(frozen=True)
class GammaEstimate:
    gamma: float
    alice: PayoffEstimate
    bob: PayoffEstimate


@dataclass(frozen=True)
class StrategyValidation:
    strategy: str
    rmse_a: float
    rmse_b: float
    per_gamma: tuple[GammaEstimate, ...]


@dataclass(frozen=True)
class ValidationReport:
    strategies: tuple[StrategyValidation, ...]
    best_relative_error_pct: float
    worst_relative_error_pct: float
    variant: str

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "best_relative_error_pct": self.best_relative_error_pct,
            "worst_relative_error_pct": self.worst_relative_error_pct,
            "strategies": [
                {
                    "strategy": sv.strategy,
                    "rmse_a": sv.rmse_a,
                    "rmse_b": sv.rmse_b,
                    "per_gamma": [
                        {
                            "gamma": ge.gamma,
                            "alice": {
                                "mean": ge.alice.mean,
                                "sample_variance": ge.alice.sample_variance,
                                "ci_half_width": ge.alice.ci_half_width,
                                "n": ge.alice.n,
                            },
                            "bob": {
                                "mean": ge.bob.mean,
                                "sample_variance": ge.bob.sample_variance,
                                "ci_half_width": ge.bob.ci_half_width,
                                "n": ge.bob.n,
                            },
                        }
                        for ge in sv.per_gamma
                    ],
                }
                for sv in self.strategies
            ],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    def to_text(self) -> str:
        """RMSE summary table plus the relative-error extremes."""
        lines = [
            "Strategy    | RMSE E_A | RMSE E_B",
            "------------+----------+---------",
        ]
        for sv in self.strategies:
            lines.append(f"{sv.strategy:<12}| {sv.rmse_a:8.3f} | {sv.rmse_b:8.3f}")
        lines.append("")
        lines.append(
            f"best relative error : {self.best_relative_error_pct:.2f}% "
            f"(vs payoff scale max {PAYOFF_SCALE_MAX})"
        )
        lines.append(
            f"worst relative error: {self.worst_relative_error_pct:.2f}% "
            f"(vs payoff scale min {PAYOFF_SCALE_MIN})"
        )
        return "\n".join(lines)


def report_from_payoff_series(
    series: Mapping[str, Mapping[float, Sequence[tuple[float, float]]]],
    variant: str = "corrected",
    payoff: PayoffMatrix | None = None,
    rmse_method: str = "rmse_of_means",
) -> ValidationReport:
    """Build a report from per-(strategy, gamma) lists of per-run payoffs.

    rmse_method 'rmse_of_means' (default) compares the across-run mean curve
    with the reference; 'mean_of_rmses' averages the per-run RMSEs instead.
    """
    if rmse_method not in ("rmse_of_means", "mean_of_rmses"):
        raise ValueError(f"unknown rmse_method {rmse_method!r}")
    validations = []
    all_rmses = []
    for label in series:
        strategy = Strategy.parse(label)
        gammas = sorted(series[label])
        refs = [analytical_payoffs(strategy, g, variant, payoff) for g in gammas]
        runs_per_gamma = [series[label][g] for g in gammas]
        n_runs = {len(runs) for runs in runs_per_gamma}
        if len(n_runs) != 1:
            raise SchemaError(f"strategy {label}: uneven run counts {sorted(n_runs)}")
        per_gamma = tuple(
            GammaEstimate(
                g,
                aggregate_runs([ea for ea, _ in runs]),
                aggregate_runs([eb for _, eb in runs]),
            )
            for g, runs in zip(gammas, runs_per_gamma)
        )
        if rmse_method == "rmse_of_means":
            rmse_a = rmse([ge.alice.mean for ge in per_gamma], [r[0] for r in refs])
            rmse_b = rmse([ge.bob.mean for ge in per_gamma], [r[1] for r in refs])
        else:
            n = next(iter(n_runs))
            rmse_a = float(np.mean([
                rmse([runs[r][0] for runs in runs_per_gamma], [ref[0] for ref in refs])
                for r in range(n)
            ]))
            rmse_b = float(np.mean([
                rmse([runs[r][1] for runs in runs_per_gamma], [ref[1] for ref in refs])
                for r in range(n)
            ]))
        validations.append(StrategyValidation(label, rmse_a, rmse_b, per_gamma))
        all_rmses.extend((rmse_a, rmse_b))
    best = relative_error_percent(min(all_rmses), PAYOFF_SCALE_MAX)
    worst = relative_error_percent(max(all_rmses), PAYOFF_SCALE_MIN)
    return ValidationReport(tuple(validations), best, worst, variant)


def build_validation_report(
    results: Mapping[str, Iterable[RunResult]],
    spec: GameSpec,
    variant: str = "corrected",
    rmse_method: str = "rmse_of_means",
) -> ValidationReport:
    """Aggregate raw RunResults (per strategy label) into a validation report.

    Every (gamma grid point, run) cell must be present for each strategy;
    missing cells raise SchemaError listing them.
    """
    series: dict[str, dict[float, list[tuple[float, float]]]] = {}
    for label, run_results in results.items():
        run_results = list(run_results)
        runs = sorted({r.run_index for r in run_results})
        cells = {(r.circuit_index, r.run_index): r for r in run_results}
        missing = [
            (i, run)
            for i in range(len(spec.gamma_grid))
            for run in runs
            if (i, run) not in cells
        ]
        if missing:
            raise SchemaError(f"strategy {label}: missing cells {missing[:10]}")
        per_gamma: dict[float, list[tuple[float, float]]] = {}
        for i, gamma in enumerate(spec.gamma_grid):
            per_run = []
            for run in runs:
                ea, eb, _ = payoffs_from_counts(cells[(i, run)].counts, spec.payoff)
                per_run.append((ea, eb))
            per_gamma[gamma] = per_run
        series[label] = per_gamma
    return report_from_payoff_series(series, variant, spec.payoff, rmse_method)
