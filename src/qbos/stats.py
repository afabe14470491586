"""Statistical validation: aggregation, confidence intervals, RMSE, reporting.

Aggregation follows the experiment protocol: payoffs are derived per run
from shot counts, averaged across the repeated runs at each entanglement
angle (Student-t confidence half-widths at the fixed level CONFIDENCE =
0.95, n-1 degrees of freedom), and RMSE against the closed-form reference
curves is computed on those per-angle run means.  One core reports on a
complete (strategy, gamma, run, player) payoff table, which report_from_cells
scatters from cells and build_validation_report stacks from jobs.  It
aggregates every series in one array pass and takes every RMSE in another,
over a contiguous angle axis, so each value keeps the bits of its own 1-D
call; the curves come from game.analytical_curves' memo.  Best/worst relative
errors divide the smallest RMSE entry by the payoff-scale maximum (3) and
the largest by the scale minimum (1.2) -- a blunt convention, but kept
because the report mirrors it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from .device import _field, _listed, _texts, _write
from .game import GameSpec, PayoffMatrix, Strategy, analytical_curves, is_number, payoff_table
from .noise import JobCounts

# fixed denominators for the best/worst relative-error convention
PAYOFF_SCALE_MAX = 3.0
PAYOFF_SCALE_MIN = 1.2
CONFIDENCE = 0.95  # two-sided level of every run-mean interval


class SchemaError(ValueError):
    """A results table is structurally unusable (bad columns, missing cells)."""


# float(scipy.special.stdtrit(df, 0.5 + CONFIDENCE / 2)) for df = 1..128, scipy 1.17.1, reprs
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
    1.983731002955606, 1.9834952585628793, 1.9832641447734565, 1.9830375264837259,
    1.9828152737950475, 1.9825972617655006, 1.9823833701756908, 1.982173483307727,
    1.9819674897364825, 1.981765282132372, 1.9815667570749007, 1.9813718148763053,
    1.981180359414661, 1.9809922979758567, 1.9808075411039094, 1.9806260024590894,
    1.9804475986834025, 1.980272249272974, 1.9800998764569397, 1.9799304050824402,
    1.9797637625053868, 1.9795998784866382, 1.9794386850933035, 1.9792801166048548,
    1.9791241094237977, 1.9789706019906281, 1.9788195347028539, 1.978670849837835,
)


def _t_quantile(df: int) -> float:
    """Two-sided CONFIDENCE quantile of Student's t with df degrees of freedom,
    the bits of scipy.special.stdtrit.  Reports of up to 129 runs read it from
    _T975; larger ones load scipy.  Uncached: a report makes one call."""
    if 1 <= df <= len(_T975):
        return _T975[df - 1]
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + CONFIDENCE / 2.0))


def _run_statistics(series: np.ndarray):
    """Means, unbiased variances and Student-t CI half-widths over the last
    axis, the runs, of a float array holding at least 2 runs.

    A reduction over a contiguous last axis sums each series as a 1-D
    reduction does, so every series gets the bits of its own call.
    """
    n = series.shape[-1]
    mean = series.mean(axis=-1, keepdims=True)
    var = series.var(axis=-1, ddof=1, mean=mean)
    half = _t_quantile(n - 1) * np.sqrt(var / n)
    mean.flags.writeable = False  # the owner of the means, so that no report copies them
    return mean[..., 0], var, half


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


def propagate_count_error(freqs, shots, payoff: PayoffMatrix):
    """Multinomial delta-method variances of (e_a, e_b, miscoordination).

    freqs is a (..., 4) frequency array of shots shots (an int or an array
    shaped like freqs[..., 0]).  With payoff weights w each variance is
    (sum f w^2 - (sum f w)^2) / shots per cell, summed as in payoff_table and
    squared as a product, so a stack gives every cell its own call's bits.
    """
    if np.any(np.asarray(shots) < 1):
        raise ValueError("need at least one shot")
    f = np.asarray(freqs, dtype=float)
    wa, wb = payoff.outcome_weights()
    wm = np.array([0.0, 1.0, 1.0, 0.0])

    def var(w):
        mean = np.vecdot(f, w)
        return (np.vecdot(f, w * w) - mean * mean) / shots

    return var(wa), var(wb), var(wm)


@dataclass(frozen=True, eq=False)
class StrategyValidation:
    """One strategy's RMSEs and its per-angle run statistics.

    means, sample_variances and ci_half_widths are read-only float64 arrays of one
    (alice, bob) row per angle of gammas over n runs.  Compared by value, unhashable.
    """

    strategy: str
    rmse_a: float
    rmse_b: float
    gammas: tuple[float, ...]
    n: int
    means: np.ndarray
    sample_variances: np.ndarray
    ci_half_widths: np.ndarray

    def __post_init__(self):
        # what the report file holds, so that every value that can be built saves
        _field(vars(self), "n", "an integer")
        for name in ("rmse_a", "rmse_b", "gammas"):  # NaN and infinities are numbers
            value = getattr(self, name)
            items = value if name == "gammas" else (value,)
            if set(map(type, items)) - {float} and not all(map(is_number, items)):
                raise ValueError(f"{name} must be numeric, got {value!r}")
        object.__setattr__(self, "gammas", tuple(map(float, self.gammas)))
        for name in ("means", "sample_variances", "ci_half_widths"):  # read-only float64 kept
            try:
                column = np.asarray(given := getattr(self, name))
                column = column.reshape(0, 2) if column.shape == (0,) else column  # no pairs
            except ValueError:  # ragged
                column = np.asarray(None)
            if column.dtype.kind not in "fiu" or column.shape != (len(self.gammas), 2):
                raise ValueError(f"{name} must hold one (alice, bob) pair per gamma, "
                                 f"{len(self.gammas)} in all, got {given!r}")
            owner = column.base if isinstance(column.base, np.ndarray) else column  # of the memory
            if column.dtype != np.float64 or owner.flags.writeable or not owner.flags.owndata:
                column = column.astype(np.float64)  # a copy, then frozen
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other):  # by value, as the report file reads
        return type(other) is StrategyValidation and self.to_json() == other.to_json()

    def __reduce__(self):  # so that a copied or unpickled report is checked and frozen again
        return StrategyValidation, tuple(vars(self).values())

    def to_json(self) -> dict:
        n = self.n
        return {
            "strategy": self.strategy, "rmse_a": self.rmse_a, "rmse_b": self.rmse_b,
            "per_gamma": [
                {"gamma": g,
                 "alice": {"mean": ma, "sample_variance": va, "ci_half_width": ha, "n": n},
                 "bob": {"mean": mb, "sample_variance": vb, "ci_half_width": hb, "n": n}}
                for g, (ma, mb), (va, vb), (ha, hb) in zip(self.gammas, *(
                    c.tolist() for c in (self.means, self.sample_variances, self.ci_half_widths)))
            ],
        }


@dataclass(frozen=True)
class ValidationReport:
    variant: str
    best_relative_error_pct: float
    worst_relative_error_pct: float
    strategies: tuple[StrategyValidation, ...]

    def __post_init__(self):
        for name in ("best_relative_error_pct", "worst_relative_error_pct"):
            if not is_number(value := getattr(self, name)):  # NaN and infinities included
                raise ValueError(f"{name} must be numeric, got {value!r}")

    def to_json(self) -> dict:
        """The report as a JSON document: each strategy's per_gamma holds one
        object per angle, its gamma and the alice and bob run statistics."""
        return {
            "variant": self.variant,
            "best_relative_error_pct": self.best_relative_error_pct,
            "worst_relative_error_pct": self.worst_relative_error_pct,
            "strategies": [sv.to_json() for sv in self.strategies],
        }

    def save(self, path) -> None:
        """Write ``json.dumps(self.to_json(), indent=1)`` and a newline, formatted directly."""
        player = '{"mean": "%s", "sample_variance": "%s", "ci_half_width": "%s", "n": "%s"}'
        angle = f'{{"gamma": "%s", "alice": {player}, "bob": {player}}}'
        entries = []
        for sv in self.strategies:
            m, v, h = (_texts(column.ravel().tolist())  # alice, bob, alice, ...
                       for column in (sv.means, sv.sample_variances, sv.ci_half_widths))
            n = repeat(json.dumps(sv.n))
            rows = zip(_texts(sv.gammas), m[0::2], v[0::2], h[0::2], n,
                       m[1::2], v[1::2], h[1::2], n)
            entries.append((json.dumps(sv.strategy), *_texts([sv.rmse_a, sv.rmse_b]),
                            _listed(angle, rows, 3)))
        strategies = _listed('{"strategy": "%s", "rmse_a": "%s", "rmse_b": "%s",'
                             ' "per_gamma": "%s"}', entries, 1)
        _write(path, '{"variant": "%s", "best_relative_error_pct": "%s",'
                     ' "worst_relative_error_pct": "%s", "strategies": "%s"}',
               (json.dumps(self.variant),
                *_texts([self.best_relative_error_pct, self.worst_relative_error_pct]), strategies))

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


def _check_complete(found, strategies, gammas, runs) -> None:
    """Raise SchemaError naming up to 10 missing and 10 duplicate cells of found's counts."""
    problems = [f"{kind} cells {[(strategies[s], gammas[g], runs[r]) for s, g, r in where[:10]]}"
                for kind, where in (("missing", np.argwhere(found == 0)),
                                    ("duplicate", np.argwhere(found > 1)))
                if len(where)]
    if problems:
        raise SchemaError("; ".join(problems))


def _check_cells(rmse_method: str, cells: int) -> None:
    """A report's first checks on its input: a known rmse_method, then some cells."""
    if rmse_method not in ("rmse_of_means", "mean_of_rmses"):
        raise ValueError(f"unknown rmse_method {rmse_method!r}")
    if not cells:
        raise SchemaError("no cells")


def distinct_codes(column):
    """column's distinct items, in first-appearance order, and each item's index among them."""
    code = {item: i for i, item in enumerate(dict.fromkeys(column))}
    return list(code), np.fromiter(map(code.__getitem__, column), np.intp, count=len(column))


def exact_runs(runs) -> np.ndarray:
    """Python ints as int64 if all fit, else as objects (numpy types ints across 2**63 float64)."""
    if not isinstance(runs, np.ndarray) and set(map(type, runs)) <= {int}:
        fits = -2**63 <= min(runs, default=0) <= max(runs, default=0) < 2**63
        return np.array(runs, np.int64 if fits else object)
    return np.asarray(runs)


def report_from_cells(
    labels: Sequence[str],
    gamma_index: Sequence[int],
    runs: Sequence[int],
    payoffs,
    gammas: Sequence[float],
    variant: str,
    payoff: PayoffMatrix,
    rmse_method: str,
) -> ValidationReport:
    """Build a report from one (e_a, e_b) row of payoffs per (strategy, gamma, run) cell.

    Cell n is strategy labels[n] at gammas[gamma_index[n]] in run runs[n].  Each
    distinct label is coded once; strategies keep the order they first appear
    in, and runs (ints, typed by exact_runs) are sorted.  Every strategy
    must hold every (gamma, run) cell of the union of runs exactly once; missing
    or duplicate cells raise SchemaError listing them, as does under 2 runs a cell.

    rmse_method 'rmse_of_means' compares the across-run mean curve with the
    reference; 'mean_of_rmses' averages the per-run RMSEs instead.
    """
    _check_cells(rmse_method, len(labels))
    strategies, label_code = distinct_codes(labels)
    run_values, run_index = np.unique(exact_runs(runs), return_inverse=True)
    run_values = run_values.tolist()
    shape = (len(strategies), len(gammas), len(run_values))
    flat = np.ravel_multi_index((label_code, gamma_index, run_index), shape)
    found = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
    _check_complete(found, strategies, gammas, run_values)
    table = np.empty(shape + (2,))
    table.reshape(-1, 2)[flat] = payoffs
    return _report(strategies, table, gammas, variant, payoff, rmse_method)


def _report(strategies, table, gammas, variant, payoff, rmse_method) -> ValidationReport:
    """The report of a complete (strategy, gamma, run, 2) payoff table."""
    n = table.shape[2]  # runs per cell
    if n < 2:
        raise SchemaError(f"the results hold {n} run per (strategy, gamma) cell; "
                          "validation needs at least 2 runs")
    # (strategy, gamma, player, run), contiguous along the runs
    means, variances, halves = _run_statistics(np.ascontiguousarray(table.transpose(0, 1, 3, 2)))

    # squared errors as (strategy, player, gamma) or (strategy, player, run, gamma),
    # contiguous along the angles: a mean over that last axis, and then over the
    # runs, gives each series the bits of its own 1-D rmse call and np.mean
    refs = np.asarray(np.stack([analytical_curves(Strategy.parse(label), gammas, variant, payoff)
                                for label in strategies]), dtype=float).transpose(0, 2, 1)
    if rmse_method == "rmse_of_means":
        errors = means.transpose(0, 2, 1) - refs
    else:
        errors = table.transpose(0, 3, 2, 1) - refs[:, :, None, :]
    rmses = np.sqrt(np.ascontiguousarray(errors ** 2).mean(axis=-1))
    if rmse_method == "mean_of_rmses":
        rmses = rmses.mean(axis=-1)
    rmses = rmses.tolist()

    means.flags.writeable = variances.flags.writeable = halves.flags.writeable = False
    validations = tuple(StrategyValidation(label, *ab, gammas, n, *columns)
                        for label, ab, *columns in zip(strategies, rmses, means, variances, halves))
    all_rmses = list(chain.from_iterable(rmses))
    best = relative_error_percent(min(all_rmses), PAYOFF_SCALE_MAX)
    worst = relative_error_percent(max(all_rmses), PAYOFF_SCALE_MIN)
    return ValidationReport(variant, best, worst, validations)


def build_validation_report(
    results: Mapping[str, JobCounts],
    spec: GameSpec,
    variant: str = "corrected",
    rmse_method: str = "rmse_of_means",
) -> ValidationReport:
    """Aggregate each strategy label's JobCounts into a validation report.

    Job cell (i, run) plays spec.gamma_grid[i] in run `run`, so every job's grid
    must have as many points as spec.gamma_grid.  The jobs' count arrays, one
    counts / shots division each, stack into one table; a job of no runs holds
    no cell.  Jobs of different run counts leave cells missing, which raises
    SchemaError listing them, as does an empty mapping or a report of fewer
    than 2 runs.
    """
    if not results:
        raise SchemaError("no cells")
    for label, job in results.items():
        if len(job.grid) != len(spec.gamma_grid):
            raise SchemaError(f"the {label} job has {len(job.grid)} gamma points, "
                              f"the spec's grid {len(spec.gamma_grid)}")
    jobs = {label: job for label, job in results.items() if job.counts.size}
    _check_cells(rmse_method, len(jobs))
    runs = [job.counts.shape[1] for job in jobs.values()]
    if min(runs) != max(runs):  # job s holds the runs below runs[s] of range(max(runs))
        held = np.arange(max(runs)) < np.array(runs)[:, None, None]
        _check_complete(held.repeat(len(spec.gamma_grid), axis=1), list(jobs), spec.gamma_grid,
                        range(max(runs)))
    freqs = np.stack([job.counts / job.shots for job in jobs.values()])
    return _report(list(jobs), payoff_table(freqs, spec.payoff), spec.gamma_grid, variant,
                   spec.payoff, rmse_method)
