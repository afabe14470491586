"""Classical and quantum Battle of the Sexes model.

The classical game is a 2x2 bimatrix coordination game.  Alice chooses a
row, Bob a column; the default matrix pays (3,2) on (Opera, Opera), (2,3)
on (TV, TV) and (0,0) on the miscoordinated outcomes.

The quantized game is the EWL circuit (Eisert, Wilkens & Lewenstein, PRL 83,
3077, 1999): an Ry(gamma), Rz(0), CNOT sequence prepares the partially
entangled two-qubit state cos(gamma/2)|00> + sin(gamma/2)|11>, each player
applies a local single-qubit strategy gate (statevec.gate_matrix of the
strategy's kind and angle), and computational-basis measurement outcomes
map to payoffs; noise.noisy_distributions evolves it.  Alice owns qubit 0,
Bob qubit 1; outcome labels are written qubit-1-first, so label "01" means
Bob read 0 and Alice read 1.

Two families of closed-form payoff curves are provided.  The 'corrected'
variant is the exact amplitude algebra of the circuit above.  The 'paper'
variant is a legacy set of published curves for the default matrix that
differs in one place: Alice's curve for the Hadamard strategy carries a
factor-2 typo inside the bracket and exceeds the maximum payoff 3 for
large gamma.  Both are kept so the discrepancy stays testable.

analytical_curves memoises its last CURVE_MEMO_SIZE tables under bitwise
keys, so a process that builds many reports on one grid, such as a noise
scan, evaluates the closed forms once per strategy.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

GAMMA_POINTS_DEFAULT = 31
GAMMA_SLACK = 1e-12  # float slack of the [0, pi] range check on gamma
CURVE_MEMO_SIZE = 32  # curve tables analytical_curves keeps


def is_number(value) -> bool:
    """Is value a float or an int, Python's or numpy's, that float() takes, and not a bool?"""
    return isinstance(value, (float, np.floating, np.integer)) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class PayoffMatrix:
    """2x2 grid of (alice, bob) payoffs, row = Alice's move, column = Bob's."""

    cells: tuple[tuple[tuple[float, float], tuple[float, float]],
                 tuple[tuple[float, float], tuple[float, float]]]

    def __post_init__(self):
        # tuples, so that the cells and the weights kept from them cannot change
        object.__setattr__(self, "cells", tuple(tuple(map(tuple, row)) for row in self.cells))
        for i in (0, 1):
            for j in (0, 1):
                cell = self.cells[i][j]
                if len(cell) != 2 or not all(is_number(v) and math.isfinite(v) for v in cell):
                    raise ValueError(f"cell ({i},{j}) must hold two finite payoffs")

    @classmethod
    def battle_of_sexes(cls) -> "PayoffMatrix":
        return cls((((3.0, 2.0), (0.0, 0.0)), ((0.0, 0.0), (2.0, 3.0))))

    @classmethod
    def identity_coordination(cls) -> "PayoffMatrix":
        return cls((((1.0, 1.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 1.0))))

    def alice(self, row: int, col: int) -> float:
        return self.cells[row][col][0]

    def bob(self, row: int, col: int) -> float:
        return self.cells[row][col][1]

    def outcome_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-outcome payoff weights in label order 00, 01, 10, 11.

        Outcome bit layout: label = (bob_bit, alice_bit), so label "01" maps
        to matrix cell [row=1][col=0].
        """
        order = [(0, 0), (1, 0), (0, 1), (1, 1)]  # (alice_row, bob_col) per label
        wa = np.array([self.alice(r, c) for r, c in order])
        wb = np.array([self.bob(r, c) for r, c in order])
        return wa, wb

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        """np.stack(self.outcome_weights()), read-only, computed on first use."""
        weights = np.stack(self.outcome_weights())
        weights.flags.writeable = False
        return weights


def payoff_table(freqs, payoff: PayoffMatrix) -> np.ndarray:
    """(e_a, e_b) of every cell of a (..., 4) outcome-frequency array, shape (..., 2).

    np.vecdot takes each cell's 1-D dot product with the payoff weights, the
    same bits as a per-cell ndarray.dot; a stacked f @ w, einsum or an
    explicit sum rounds in another order and changes last bits.
    """
    f = np.asarray(freqs, dtype=float)
    if f.shape[-1:] != (4,):
        raise ValueError(f"expected 4 outcome frequencies per cell, got shape {f.shape}")
    return np.vecdot(f[..., None, :], payoff._weights)


@dataclass(frozen=True)
class Strategy:
    """A local single-qubit strategy: identity, Hadamard, or an Ry rotation."""

    kind: str                  # 'I', 'H' or 'RY'
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in ("I", "H", "RY"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "RY":
            if not is_number(self.angle):
                raise ValueError(f"RY strategy needs a number for its angle, "
                                 f"not {self.angle!r}")
            # a Python float, whose repr in the label reads back as this angle
            object.__setattr__(self, "angle", float(self.angle))
            if not 0.0 <= self.angle < 2 * math.pi:
                raise ValueError("RY strategy needs an angle in [0, 2*pi)")
        elif self.angle is not None:
            raise ValueError(f"strategy {self.kind} takes no angle")

    @property
    def label(self) -> str:
        if self.kind != "RY":
            return self.kind
        if abs(self.angle - math.pi / 4) < 1e-12:
            return "RY(pi/4)"
        if abs(self.angle - math.pi) < 1e-12:
            return "RY(pi)"
        return f"RY({self.angle!r})"  # repr: parse gives the angle back exactly

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        t = text.strip()
        if t in ("I", "H"):
            return cls(t)
        m = re.fullmatch(r"RY\((.+)\)", t, flags=re.IGNORECASE)
        if m:
            expr = m.group(1).strip().lower()
            if expr == "pi":
                return cls("RY", math.pi)
            pm = re.fullmatch(r"pi\s*/\s*(\d+)", expr)
            if pm:
                if int(pm.group(1)) == 0:
                    raise ValueError(f"strategy {text!r} divides by zero")
                try:
                    return cls("RY", math.pi / int(pm.group(1)))
                except OverflowError:  # the divisor does not fit in a float
                    raise ValueError(
                        f"strategy {text!r} divides by more than the largest float"
                    ) from None
            return cls("RY", float(expr))
        raise ValueError(f"cannot parse strategy {text!r}")


STRATEGY_I = Strategy("I")
STRATEGY_H = Strategy("H")
STRATEGY_RY_PI_4 = Strategy("RY", math.pi / 4)
STRATEGY_RY_PI = Strategy("RY", math.pi)

#: The four strategies evaluated in every experiment, in canonical order.
CANONICAL_STRATEGIES = (STRATEGY_I, STRATEGY_H, STRATEGY_RY_PI_4, STRATEGY_RY_PI)


def default_gamma_grid(steps: int = GAMMA_POINTS_DEFAULT) -> tuple[float, ...]:
    """Uniform entanglement-angle grid over [0, pi] including both endpoints."""
    if steps < 2:
        raise ValueError("gamma grid needs at least 2 points")
    return tuple(np.linspace(0.0, math.pi, steps).tolist())


@dataclass(frozen=True)
class GameSpec:
    """A full experiment configuration: matrix, gamma grid and strategy pair."""

    payoff: PayoffMatrix = field(default_factory=PayoffMatrix.battle_of_sexes)
    gamma_grid: tuple[float, ...] = field(default_factory=default_gamma_grid)
    strategy_a: Strategy = STRATEGY_I
    strategy_b: Strategy = STRATEGY_I

    def __post_init__(self):
        g = tuple(self.gamma_grid)
        for x in g:
            if not is_number(x):
                raise ValueError(f"gamma_grid must hold numbers, not {x!r}")
        g = tuple(map(float, g))
        object.__setattr__(self, "gamma_grid", g)
        if not g or not all(-GAMMA_SLACK <= x <= math.pi + GAMMA_SLACK for x in g):  # NaN too
            raise ValueError("gamma values must lie in [0, pi]")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("gamma grid must be strictly increasing")


@dataclass(frozen=True)
class MixedEquilibrium:
    p_alice: float          # probability Alice plays row 0
    q_bob: float            # probability Bob plays column 0
    e_a: float
    e_b: float
    coordination_prob: float


def _indifference(who: str, name: str, num: float, denom: float) -> float:
    """num / denom, the interior solution of who's indifference equation."""
    if abs(denom) < 1e-15:
        raise ValueError(f"{who}'s indifference equation is degenerate (zero determinant)")
    x = num / denom
    if not 0.0 < x < 1.0:
        raise ValueError(f"{who}'s indifference equation has no interior solution "
                         f"({name} = {x:.4g})")
    return x


def classical_mixed_equilibrium(payoff: PayoffMatrix) -> MixedEquilibrium:
    """The interior mixed equilibrium, one _indifference solve per player.

    Alice's mixing probability p makes Bob indifferent between his columns;
    Bob's q makes Alice indifferent between her rows.  Degenerate matrices
    (no interior solution) raise a ValueError naming the failing equation.
    """
    a = [[payoff.alice(i, j) for j in (0, 1)] for i in (0, 1)]
    b = [[payoff.bob(i, j) for j in (0, 1)] for i in (0, 1)]
    p = _indifference("Bob", "p", b[1][1] - b[1][0], b[0][0] - b[0][1] - b[1][0] + b[1][1])
    q = _indifference("Alice", "q", a[1][1] - a[0][1], a[0][0] - a[0][1] - a[1][0] + a[1][1])

    probs = ((p * q, p * (1 - q)), ((1 - p) * q, (1 - p) * (1 - q)))
    e_a = sum(probs[i][j] * a[i][j] for i in (0, 1) for j in (0, 1))
    e_b = sum(probs[i][j] * b[i][j] for i in (0, 1) for j in (0, 1))
    coordination = p * q + (1 - p) * (1 - q)
    return MixedEquilibrium(p, q, e_a, e_b, coordination)


# Exact amplitude constants for the RY(pi/4) curves; the published decimals
# 0.853 / 0.146 are truncations of these.
_RY4_COS2 = math.cos(math.pi / 8) ** 2
_RY4_SIN2 = math.sin(math.pi / 8) ** 2


def _closed_form_distribution(strategy: Strategy, gamma: float) -> tuple[float, ...]:
    """(p00, p01, p10, p11) of a symmetric strategy pair as floats, by hand algebra."""
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    if strategy.kind == "I":
        return c * c, 0.0, 0.0, s * s
    if strategy.kind == "H":
        return (c + s) ** 2 / 4.0, (c - s) ** 2 / 4.0, (c - s) ** 2 / 4.0, (c + s) ** 2 / 4.0
    # RY(theta) on both qubits of c|00> + s|11>
    a2 = math.cos(strategy.angle / 2) ** 2
    b2 = math.sin(strategy.angle / 2) ** 2
    ab = math.cos(strategy.angle / 2) * math.sin(strategy.angle / 2)
    p00 = (a2 * c + b2 * s) ** 2
    p11 = (b2 * c + a2 * s) ** 2
    p01 = (ab * (c - s)) ** 2
    return p00, p01, p01, p11


def analytical_curves(strategy: Strategy, gammas, variant: str = "corrected",
                      payoff: PayoffMatrix | None = None) -> np.ndarray:
    """Closed-form (e_a, e_b) at every gamma, shape (len(gammas), 2), when
    both players use the same strategy.

    variant='corrected' evaluates the exact circuit algebra against the given
    payoff matrix through payoff_table, so every row has the bits of its own
    distribution's dot product.  variant='paper' reproduces the legacy
    published curves for the default matrix verbatim, including the over-3
    Hadamard curve for Alice; it does not accept a custom matrix.

    A table is evaluated once per key and kept, read-only, in a memo of the
    last CURVE_MEMO_SIZE keys: the strategy, the bits of its angle, the grid's
    dtype and bytes, the variant and the dtype and bytes of the matrix's
    outcome weights (payoff None meaning the Battle of the Sexes matrix).  So
    -0.0 and 0.0, or a float64 and a float32 grid, key apart, and a hit has
    the bits of a fresh evaluation.  Each call returns a fresh writable copy.
    A grid or weights of no numeric dtype (an object array's bytes are
    pointers) or a grid that is not 1-D is evaluated afresh every call.
    """
    if variant not in ("paper", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    matrix = payoff if payoff is not None else PayoffMatrix.battle_of_sexes()
    if variant == "paper" and matrix != PayoffMatrix.battle_of_sexes():
        raise ValueError("the 'paper' variant is defined for the default matrix only")
    grid, weights = np.asarray(gammas), matrix._weights
    if grid.ndim != 1 or grid.dtype.kind not in "biuf" or weights.dtype.kind not in "biuf":
        return _curves(strategy, gammas, variant, matrix)
    return _memoised_curves(strategy, repr(strategy.angle), variant, matrix,
                            weights.dtype.str, weights.tobytes(),
                            grid.dtype.str, grid.tobytes()).copy()


@functools.lru_cache(maxsize=CURVE_MEMO_SIZE)
def _memoised_curves(strategy: Strategy, angle: str, variant: str, matrix: PayoffMatrix,
                     weights_dtype: str, weights: bytes,
                     grid_dtype: str, grid: bytes) -> np.ndarray:
    """_curves of the grid given by its dtype and bytes, read-only.  strategy
    and matrix compare by value; the angle's repr and the weights' bytes make
    the key bitwise."""
    curves = _curves(strategy, np.frombuffer(grid, grid_dtype), variant, matrix)
    curves.flags.writeable = False
    return curves


def _curves(strategy: Strategy, gammas, variant: str, matrix: PayoffMatrix) -> np.ndarray:
    """The curve table, one closed form per gamma."""
    if variant == "paper":
        curve = _paper_curve(strategy)
        return np.array([curve(math.cos(g / 2), math.sin(g / 2)) for g in gammas]).reshape(-1, 2)
    dists = np.array([_closed_form_distribution(strategy, g) for g in gammas]).reshape(-1, 4)
    return payoff_table(dists, matrix)


def _paper_curve(strategy: Strategy):
    """The published (e_a, e_b) formula of a strategy, as a function of
    c = cos(gamma/2) and s = sin(gamma/2)."""
    if strategy.label == "I":
        return lambda c, s: (3 * c * c + 2 * s * s, 2 * c * c + 3 * s * s)
    if strategy.label == "H":
        return lambda c, s: (1.25 * (c + 2 * s) ** 2, 1.25 * (c + s) ** 2)
    if strategy.label == "RY(pi)":
        return lambda c, s: (2 * c * c + 3 * s * s, 3 * c * c + 2 * s * s)
    if strategy.label == "RY(pi/4)":
        def ry_pi_4(c, s):
            p00 = (_RY4_COS2 * c + _RY4_SIN2 * s) ** 2
            p11 = (_RY4_COS2 * s + _RY4_SIN2 * c) ** 2
            return 3 * p00 + 2 * p11, 2 * p00 + 3 * p11
        return ry_pi_4
    raise ValueError(
        f"no published curve for strategy {strategy.label}; use variant='corrected'"
    )


def advantage_percent(e_quantum: float, e_classical: float) -> float:
    """Percent improvement of a payoff over a positive baseline."""
    if e_classical <= 0:
        raise ValueError("baseline payoff must be positive")
    return 100.0 * (e_quantum - e_classical) / e_classical
