"""Game model tests: equilibrium arithmetic and analytic-vs-simulator agreement."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qbos.game import (
    CANONICAL_STRATEGIES,
    GameSpec,
    PayoffMatrix,
    Strategy,
    STRATEGY_H,
    STRATEGY_I,
    STRATEGY_RY_PI,
    STRATEGY_RY_PI_4,
    _closed_form_distribution,
    advantage_percent,
    analytical_curves,
    analytical_payoffs,
    classical_mixed_equilibrium,
    default_gamma_grid,
)
from qbos.noise import NoiseModel, noisy_distributions
from qbos.stats import payoff_table

BOS = PayoffMatrix.battle_of_sexes()
# at scale 0 every pair behaves like this error-free one: (two-qubit errors, readout errors)
IDEAL_PAIR = (np.zeros(1), np.zeros((1, 2)))


def symmetric_spec(strategy, **kw):
    return GameSpec(strategy_a=strategy, strategy_b=strategy, **kw)


def ideal(spec, gamma):
    """The game circuit's outcome distribution: the core at noise scale 0."""
    circuit = (gamma, spec.strategy_a, spec.strategy_b)
    return noisy_distributions([circuit], *IDEAL_PAIR, NoiseModel(scale=0.0), [False])[0]


# --- classical equilibrium -----------------------------------------------------

def test_bos_mixed_equilibrium():
    eq = classical_mixed_equilibrium(BOS)
    assert abs(eq.p_alice - 0.6) < 1e-12
    assert abs(eq.q_bob - 0.4) < 1e-12
    assert abs(eq.e_a - 1.2) < 1e-12
    assert abs(eq.e_b - 1.2) < 1e-12


def test_bos_coordination_probability():
    eq = classical_mixed_equilibrium(BOS)
    # 0.6*0.4 + 0.4*0.6
    assert abs(eq.coordination_prob - 0.48) < 1e-12


def test_symmetric_matrix_equilibrium():
    eq = classical_mixed_equilibrium(PayoffMatrix.identity_coordination())
    assert abs(eq.p_alice - 0.5) < 1e-12
    assert abs(eq.q_bob - 0.5) < 1e-12
    assert abs(eq.e_a - 0.5) < 1e-12
    assert abs(eq.e_b - 0.5) < 1e-12


@pytest.mark.parametrize(
    "cells, message",
    [
        ((((1, 1), (1, 1)), ((1, 1), (1, 1))),
         "Bob's indifference equation is degenerate (zero determinant)"),
        # Bob strictly prefers column 0 whatever Alice does: p solves outside (0, 1)
        ((((3, 5), (0, 1)), ((0, 4), (2, 2))),
         "Bob's indifference equation has no interior solution (p = -1)"),
        # Bob's columns mix at p = 0.6, but Alice's rows pay the same
        ((((1, 2), (1, 0)), ((1, 0), (1, 3))),
         "Alice's indifference equation is degenerate (zero determinant)"),
        ((((3, 2), (0, 0)), ((4, 0), (2, 3))),
         "Alice's indifference equation has no interior solution (q = 2)"),
    ],
    ids=["bob-degenerate", "bob-not-interior", "alice-degenerate", "alice-not-interior"],
)
def test_equilibrium_failures_name_the_equation(cells, message):
    with pytest.raises(ValueError) as err:
        classical_mixed_equilibrium(PayoffMatrix(cells))
    assert str(err.value) == message


# --- the game circuit -----------------------------------------------------------

def test_gamma_zero_yields_00():
    dist = ideal(symmetric_spec(STRATEGY_I), 0.0)
    np.testing.assert_allclose(dist, [1, 0, 0, 0], atol=1e-12)


def test_gamma_pi_yields_11():
    dist = ideal(symmetric_spec(STRATEGY_I), math.pi)
    np.testing.assert_allclose(dist, [0, 0, 0, 1], atol=1e-12)


def test_double_flip_at_gamma_zero():
    dist = ideal(symmetric_spec(STRATEGY_RY_PI), 0.0)
    np.testing.assert_allclose(dist, [0, 0, 0, 1], atol=1e-12)


def test_hadamard_pair_at_gamma_half_pi():
    dist = ideal(symmetric_spec(STRATEGY_H), math.pi / 2)
    np.testing.assert_allclose(dist, [0.5, 0, 0, 0.5], atol=1e-12)


def test_distribution_at_gamma_pi_3():
    dist = ideal(symmetric_spec(STRATEGY_I), math.pi / 3)
    np.testing.assert_allclose(dist, [0.75, 0, 0, 0.25], atol=1e-12)


# --- payoff mapping ---------------------------------------------------------------

def test_expected_payoffs_pure_outcomes():
    assert tuple(payoff_table([1, 0, 0, 0], BOS)) == (3.0, 2.0)
    assert tuple(payoff_table([0, 0, 0, 1], BOS)) == (2.0, 3.0)
    assert tuple(payoff_table([0, 0.5, 0.5, 0], BOS)) == (0.0, 0.0)
    assert tuple(payoff_table([0.5, 0, 0, 0.5], BOS)) == (2.5, 2.5)


def test_outcome_label_convention():
    # sa = I, sb = RY(pi) at gamma = 0 leaves Alice (qubit 0) at 0, flips Bob
    # (qubit 1) to 1: label "10", i.e. matrix cell row 0 / column 1.
    spec = GameSpec(strategy_a=STRATEGY_I, strategy_b=STRATEGY_RY_PI)
    dist = ideal(spec, 0.0)
    np.testing.assert_allclose(dist, [0, 0, 1, 0], atol=1e-12)
    lopsided = PayoffMatrix((((3.0, 2.0), (7.0, 5.0)), ((0.0, 0.0), (2.0, 3.0))))
    assert tuple(payoff_table(dist, lopsided)) == (7.0, 5.0)


def test_role_swap_symmetry():
    # each player's payoffs swapped, the grid mirrored: Alice plays Bob's part
    c = BOS.cells
    swapped = PayoffMatrix(tuple(
        tuple((c[j][i][1], c[j][i][0]) for j in (0, 1)) for i in (0, 1)
    ))
    for gamma in default_gamma_grid(7):
        dist = ideal(symmetric_spec(STRATEGY_RY_PI_4), gamma)
        ea, eb = payoff_table(dist, BOS)
        ea2, eb2 = payoff_table(dist, swapped)
        assert (ea2, eb2) == (eb, ea)


def test_miscoordination_outcomes_pay_zero():
    wa, wb = BOS.outcome_weights()
    assert wa[1] == wa[2] == wb[1] == wb[2] == 0.0


# --- analytical curves ----------------------------------------------------------

def test_identity_curve_endpoints():
    assert analytical_payoffs(STRATEGY_I, 0.0, "paper") == (3.0, 2.0)
    ea, eb = analytical_payoffs(STRATEGY_I, math.pi / 2, "paper")
    assert abs(ea - 2.5) < 1e-12 and abs(eb - 2.5) < 1e-12


def test_ry_pi_4_curve_at_zero():
    ea, eb = analytical_payoffs(STRATEGY_RY_PI_4, 0.0, "paper")
    # independent arithmetic: 3 cos^4(pi/8) + 2 sin^4(pi/8)
    k, m = math.cos(math.pi / 8) ** 2, math.sin(math.pi / 8) ** 2
    assert abs(ea - (3 * k * k + 2 * m * m)) < 1e-12
    assert abs(ea - 2.229) < 1e-3  # published rounded value
    # the published amplitude decimals are truncations of the exact constants
    assert abs(k - 0.853) < 6e-4 and abs(m - 0.146) < 5e-4


def test_ry_pi_mirrors_identity():
    for gamma in default_gamma_grid(11):
        ea_i, eb_i = analytical_payoffs(STRATEGY_I, gamma, "paper")
        ea_r, eb_r = analytical_payoffs(STRATEGY_RY_PI, gamma, "paper")
        assert abs(ea_r - eb_i) < 1e-12 and abs(eb_r - ea_i) < 1e-12


@pytest.mark.parametrize("strategy", [STRATEGY_I, STRATEGY_RY_PI_4, STRATEGY_RY_PI])
def test_paper_curves_match_simulator(strategy):
    spec = symmetric_spec(strategy)
    for gamma in spec.gamma_grid:
        dist = ideal(spec, gamma)
        sim = payoff_table(dist, BOS)
        ana = analytical_payoffs(strategy, gamma, "paper")
        assert abs(sim[0] - ana[0]) <= 1e-9
        assert abs(sim[1] - ana[1]) <= 1e-9


@pytest.mark.parametrize("strategy", CANONICAL_STRATEGIES)
def test_corrected_curves_match_simulator(strategy):
    spec = symmetric_spec(strategy)
    for gamma in spec.gamma_grid:
        dist = ideal(spec, gamma)
        sim = payoff_table(dist, BOS)
        ana = analytical_payoffs(strategy, gamma, "corrected")
        assert abs(sim[0] - ana[0]) <= 1e-9
        assert abs(sim[1] - ana[1]) <= 1e-9


def test_hadamard_legacy_alice_curve_diverges():
    ea_paper, eb_paper = analytical_payoffs(STRATEGY_H, math.pi, "paper")
    assert ea_paper > 3.0  # exceeds the maximum payoff: the documented typo
    ea, eb = analytical_payoffs(STRATEGY_H, math.pi, "corrected")
    assert abs(eb_paper - eb) < 1e-12  # Bob's published curve is correct
    assert abs(ea - eb) < 1e-12


def test_hadamard_corrected_closed_form():
    for gamma in default_gamma_grid(13):
        c, s = math.cos(gamma / 2), math.sin(gamma / 2)
        want = 1.25 * (c + s) ** 2
        ea, eb = analytical_payoffs(STRATEGY_H, gamma, "corrected")
        assert abs(ea - want) < 1e-12 and abs(eb - want) < 1e-12


def test_equal_payoff_crossing_near_half_pi():
    for strategy in CANONICAL_STRATEGIES:
        ea, eb = analytical_payoffs(strategy, math.pi / 2, "corrected")
        assert abs(ea - eb) <= 1e-9
        assert abs(ea - 2.5) <= 1e-9


def test_paper_variant_rejects_custom_matrix():
    with pytest.raises(ValueError):
        analytical_payoffs(STRATEGY_I, 0.5, "paper", payoff=PayoffMatrix.identity_coordination())


def test_paper_variant_rejects_uncatalogued_angle():
    with pytest.raises(ValueError):
        analytical_payoffs(Strategy("RY", 0.3), 0.5, "paper")


def test_corrected_variant_with_custom_matrix():
    dist = ideal(
        GameSpec(payoff=PayoffMatrix.identity_coordination(),
                 strategy_a=STRATEGY_H, strategy_b=STRATEGY_H),
        1.1,
    )
    sim = payoff_table(dist, PayoffMatrix.identity_coordination())
    ana = analytical_payoffs(STRATEGY_H, 1.1, "corrected", PayoffMatrix.identity_coordination())
    assert abs(sim[0] - ana[0]) <= 1e-9 and abs(sim[1] - ana[1]) <= 1e-9


def oracle_curves(strategy, gammas, variant, payoff):
    """One gamma at a time, the scalar formulas the curve table replaced."""
    rows = []
    for g in gammas:
        c, s = math.cos(g / 2), math.sin(g / 2)
        if variant == "corrected":
            dist = _closed_form_distribution(strategy, g)
            wa, wb = (payoff or BOS).outcome_weights()
            rows.append((float(dist @ wa), float(dist @ wb)))
        elif strategy == STRATEGY_I:
            rows.append((3 * c * c + 2 * s * s, 2 * c * c + 3 * s * s))
        elif strategy == STRATEGY_H:
            rows.append((1.25 * (c + 2 * s) ** 2, 1.25 * (c + s) ** 2))
        elif strategy == STRATEGY_RY_PI:
            rows.append((2 * c * c + 3 * s * s, 3 * c * c + 2 * s * s))
        else:
            k, m = math.cos(math.pi / 8) ** 2, math.sin(math.pi / 8) ** 2
            p00, p11 = (k * c + m * s) ** 2, (k * s + m * c) ** 2
            rows.append((3 * p00 + 2 * p11, 2 * p00 + 3 * p11))
    return np.array(rows, dtype=float).reshape(-1, 2)


finite = st.floats(-1e6, 1e6, allow_nan=False)
matrices = st.lists(finite, min_size=8, max_size=8).map(
    lambda v: PayoffMatrix((((v[0], v[1]), (v[2], v[3])), ((v[4], v[5]), (v[6], v[7])))))


@settings(max_examples=150, deadline=None)
@given(
    gammas=st.lists(st.floats(0.0, math.pi), unique=True, max_size=40).map(sorted),
    strategy=st.one_of(
        st.sampled_from(CANONICAL_STRATEGIES),
        st.floats(0.0, 2 * math.pi, exclude_max=True).map(lambda a: Strategy("RY", a))),
    payoff=st.one_of(st.none(), matrices),
    paper=st.booleans(),
)
def test_curve_table_matches_the_scalar_formulas(gammas, strategy, payoff, paper):
    # paper curves exist for the canonical strategies and the default matrix only
    if paper and strategy in CANONICAL_STRATEGIES:
        variant, payoff = "paper", None
    else:
        variant = "corrected"
    table = analytical_curves(strategy, gammas, variant, payoff)
    want = oracle_curves(strategy, gammas, variant, payoff)
    assert table.shape == (len(gammas), 2)
    assert table.tobytes() == want.tobytes()
    for g, row in zip(gammas, want.tolist()):
        assert analytical_payoffs(strategy, g, variant, payoff) == tuple(row)


def per_gamma_distribution(strategy, gamma):
    """One numpy array per gamma, the construction the curve table once stacked."""
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    if strategy.kind == "I":
        return np.array([c * c, 0.0, 0.0, s * s])
    if strategy.kind == "H":
        return np.array([(c + s) ** 2, (c - s) ** 2, (c - s) ** 2, (c + s) ** 2]) / 4.0
    a2 = math.cos(strategy.angle / 2) ** 2
    b2 = math.sin(strategy.angle / 2) ** 2
    ab = math.cos(strategy.angle / 2) * math.sin(strategy.angle / 2)
    p01 = (ab * (c - s)) ** 2
    return np.array([(a2 * c + b2 * s) ** 2, p01, p01, (b2 * c + a2 * s) ** 2])


# both presets weigh p01 and p10 by 0, so a matrix without a zero shows their bits too
DENSE = PayoffMatrix((((3.0, 2.0), (0.5, 1.25)), ((1.5, 0.75), (2.0, 3.0))))


@pytest.mark.parametrize("payoff", [BOS, PayoffMatrix.identity_coordination(), DENSE],
                         ids=["bos", "coordination", "dense"])
@pytest.mark.parametrize("strategy", [STRATEGY_I, STRATEGY_H, STRATEGY_RY_PI_4, STRATEGY_RY_PI,
                                      Strategy("RY", 0.7), Strategy("RY", 2.9)],
                         ids=lambda s: s.label)
@settings(max_examples=25, deadline=None)
@given(gammas=st.lists(st.floats(0.0, math.pi), max_size=40).map(lambda g: [0.0, *g, math.pi]))
def test_curve_table_keeps_the_bits_of_per_gamma_arrays(strategy, payoff, gammas):
    want = payoff_table(np.array([per_gamma_distribution(strategy, g) for g in gammas]), payoff)
    assert analytical_curves(strategy, gammas, "corrected", payoff).tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", ["paper", "corrected"])
def test_curve_table_of_no_gamma(variant):
    assert analytical_curves(STRATEGY_H, [], variant).shape == (0, 2)


def test_curve_table_argument_errors():
    cases = [
        ((STRATEGY_I, "published", None), "unknown variant 'published'"),
        ((STRATEGY_I, "paper", PayoffMatrix.identity_coordination()),
         "the 'paper' variant is defined for the default matrix only"),
        ((Strategy("RY", 0.3), "paper", None),
         "no published curve for strategy RY(0.3); use variant='corrected'"),
    ]
    for (strategy, variant, payoff), message in cases:
        for gammas in ([], [0.5], default_gamma_grid(5)):
            with pytest.raises(ValueError) as err:
                analytical_curves(strategy, gammas, variant, payoff)
            assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            analytical_payoffs(strategy, 0.5, variant, payoff)
        assert str(err.value) == message


# --- advantage --------------------------------------------------------------------

def test_advantage_percent_values():
    assert abs(advantage_percent(2.5, 1.2) - 108.33333333333333) < 1e-9
    assert advantage_percent(1.2, 1.2) == 0.0
    assert advantage_percent(2.4, 1.2) == 100.0


def test_advantage_requires_positive_baseline():
    with pytest.raises(ValueError):
        advantage_percent(2.5, 0.0)


# --- misc types --------------------------------------------------------------------

def test_default_gamma_grid():
    grid = default_gamma_grid()
    assert len(grid) == 31
    assert grid[0] == 0.0 and abs(grid[-1] - math.pi) < 1e-15
    assert all(b > a for a, b in zip(grid, grid[1:]))


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, 2 * math.pi, exclude_max=True))
@example(theta=math.pi / 3)  # its label once read back 2.4e-6 rad off
def test_strategy_parse_round_trip(theta):
    for s in CANONICAL_STRATEGIES:
        assert Strategy.parse(s.label) == s
    assert Strategy.parse("ry(pi/4)") == STRATEGY_RY_PI_4
    with pytest.raises(ValueError):
        Strategy.parse("X")
    # any other angle's label gives the angle back exactly
    assume(abs(theta - math.pi / 4) > 1e-12 and abs(theta - math.pi) > 1e-12)
    assert Strategy.parse(Strategy("RY", theta).label) == Strategy("RY", theta)


def test_strategy_parse_divisor_limit():
    # RY(pi/N) holds for every N that converts to a float, and no larger
    assert Strategy.parse("RY(pi/" + "15" + "0" * 307 + ")").angle == math.pi / 1.5e308
    with pytest.raises(ValueError, match="largest float"):
        Strategy.parse("RY(pi/" + "2" + "0" * 308 + ")")


def test_strategy_angle_range_enforced():
    with pytest.raises(ValueError):
        Strategy("RY", 2 * math.pi)
    with pytest.raises(ValueError):
        Strategy("RY", -0.1)
    with pytest.raises(ValueError):
        Strategy("H", 1.0)


def test_gamma_grid_validation():
    with pytest.raises(ValueError):
        GameSpec(gamma_grid=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        GameSpec(gamma_grid=(0.0, 4.0))
    for grid in ((0.0, float("nan")), (float("nan"),)):
        with pytest.raises(ValueError, match=r"must lie in \[0, pi\]"):
            GameSpec(gamma_grid=grid)
