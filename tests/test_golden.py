"""Golden output digests and bit-identity properties of the batched core.

The SHA-256 values below are byte-identity gates: the sweep and job digests
were taken from the per-circuit, per-cell implementation that the batched
density-matrix evolution and the reset-state sampler replaced, and the map
digests pin the plans ``qbos map --synth`` writes for seeds 0..9.  A change
that moves one of them changes what a sweep or a map writes for a fixed seed.

The digests hold for Python 3.11, numpy 2.4.6 and scipy 1.17.1 on x86-64,
the versions CI installs.  Another numpy or BLAS build may move the last
bits of a distribution and, rarely, a drawn count.
"""

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbos import cli, device, game, gcm, noise
from qbos.noise import NoiseModel, noisy_distributions
from qbos.statevec import derive_seed, gate_matrix, sample_cells


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_sweep(tmp_path, *flags):
    out = tmp_path / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--synth", *flags, "--out", str(out)]) == 0
    return out


# --- sweep CSVs ---------------------------------------------------------------------

@pytest.mark.parametrize("flags, digest", [
    (("--seed", "7"),
     "05f2b15e4a5aa825c2375dd6c17f92a0984985403f187d0dcdaef8a995363799"),
    (("--seed", "7", "--runs", "50", "--shots", "8192"),
     "c7b84dff3e6453e308b06996eb6a5ee754d7f5128cc1707b7728bcf4743de1af"),
    # payoffs computed as one (N, 4) @ (4,) product would change last bits here
    (("--seed", "5", "--runs", "3", "--shots", "100"),
     "9613433f8b4de2f127304b026bddbe13f3e5db94b2015e52ad88cf0cfe3ef893"),
], ids=["synth-seed7", "heavy", "seed5-runs3"])
def test_sweep_csv_digest(tmp_path, flags, digest):
    assert sha256(run_sweep(tmp_path, *flags).read_bytes()) == digest


@pytest.mark.parametrize("flags, digests", [
    (("--seed", "5", "--runs", "3", "--shots", "100"), {
        "sweep_H.svg": "77503c5670ca9461e2fe8412f01664138e3b8c52f37faa369e4afa812515e5d7",
        "sweep_I.svg": "988e15a53e635d940fa0cbbdd24a3ec7bc75e723dfca36aadb19264f5378fa90",
        "sweep_RY_pi.svg": "6aa9dea33b9bcab9e08cd9a6c0ae313d4732a2a530ea7492eaedd1dec1d6ae34",
        "sweep_RY_pi_4.svg": "2bdca2c6cedbb2f4f73f4800906eabb2c3d1fbbf73b6997f23370b5eb114733b",
    }),
    # a single run plots the run value without a confidence bar
    (("--seed", "3", "--runs", "1", "--shots", "64", "--gamma-steps", "7",
      "--strategies", "H,RY(pi)"), {
        "sweep_H.svg": "067f4c6432a2d4dde81014ea76e920ca15c104fb8eedd2f102d10ebbfaf73eac",
        "sweep_RY_pi.svg": "2759c990df750a02448b4a1d0bcbbae35565bd42e355f50595561512430f59ea",
    }),
], ids=["runs3", "runs1"])
def test_sweep_svg_digests(tmp_path, flags, digests):
    run_sweep(tmp_path, *flags, "--svg")
    written = {p.name: sha256(p.read_bytes()) for p in tmp_path.glob("*.svg")}
    assert written == digests


# --- map plans ---------------------------------------------------------------------

MAP_PLAN_DIGESTS = [
    "1a88f5ca0a4800406ce59b8efcd0ee2e9c3985775be5055f2248b4c28e733c7c",
    "b92685f8d072975bfcde1e9868bc1c0f0d6da5d3a7bd6a408f8b448b779acaa7",
    "077cd9ee2accfa59b72c115b1008db6fb802a942a223f48453dac5872986094e",
    "e6198f00be67af5948abe2b1fc3c911fe6b5f07329f799047542205a05887ae2",
    "4ecb4887f3c04ed23f07a12fbd44e6e390b1e3a8bebb6336eca0d1488c2f1c5a",
    "a3da82c805de104ad959da7321779bb741fc67371d1f1362a5ba63e65545febd",
    "49d7290f8b7b2fc5d5244f0a108fdf58bd60cd221eb3845fddee9e04e7a68673",
    "05faa6c8d3c534482d41e0ec959e0743370173aed6560b4aa5dd8d398b9c8780",
    "cbbf3f3fcb31e85992a9235761a63623f3256dbe9bea4b648581003173fa5af2",
    "633c946b7a67c53c8a1c93296bc2d1f403cb71922917d3f30f6e00e2ebf96d2b",
]


@pytest.mark.parametrize("seed", range(10))
def test_map_plan_digest(tmp_path, seed):
    out = tmp_path / "plan.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["map", "--synth", "--seed", str(seed), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == MAP_PLAN_DIGESTS[seed]


# --- simulate_job --------------------------------------------------------------------

@pytest.fixture(scope="module")
def job_setup():
    graph = device.heavy_hex_graph(6)
    calib = device.synth_calibration(graph, seed=0, profile="uniform")
    return calib, gcm.select_pairs(graph, calib, k=31)


@pytest.mark.parametrize("scale, digest", [
    (0.0, "7b5877d37441c2df5a803e080ec2637cdc0a01ff6f9769c9e1490fc8e9e6ce34"),
    (1.0, "8afa4257b80661127c88fb4eecbdd4007ec56e92c49cf462ebce5d2154bcb2a3"),
    (2.0, "5afd504d654ad7cd7d5c0589c51f24405b189d6179958fd9011416980d870d4c"),
])
def test_simulate_job_counts_digest(job_setup, scale, digest):
    calib, plan = job_setup
    model = NoiseModel(scale=scale)
    cells = []
    for idx, strategy in enumerate(game.CANONICAL_STRATEGIES):
        spec = game.GameSpec(strategy_a=strategy, strategy_b=strategy)
        for r in noise.simulate_job(plan, spec, calib, model, 256, 3, derive_seed(13, idx)):
            cells.append([strategy.label, r.circuit_index, r.run_index, r.gamma,
                          [r.counts.counts.get(lbl, 0) for lbl in ("00", "01", "10", "11")]])
    assert sha256(json.dumps(cells).encode()) == digest


# --- stacked evolution equals the per-circuit loop, bit for bit ----------------------

def reference_distribution(ops, pair_calib, model, crosstalk_active):
    """One circuit, one 4x4 density matrix at a time: the unbatched evolution."""

    def embed(matrix, qubit):
        return np.kron(np.eye(2), matrix) if qubit == 0 else np.kron(matrix, np.eye(2))

    def cnot(control, target):
        m = np.zeros((4, 4))
        for col in range(4):
            m[col ^ (1 << target) if (col >> control) & 1 else col, col] = 1.0
        return m

    def depolarize_1q(rho, qubit, p):
        if p == 0.0:
            return rho
        r = rho.reshape(2, 2, 2, 2)
        if qubit == 0:
            mixed = np.kron(np.einsum("abcb->ac", r), np.eye(2) / 2.0)
        else:
            mixed = np.kron(np.eye(2) / 2.0, np.einsum("abac->bc", r))
        return (1.0 - p) * rho + p * mixed

    def depolarize_2q(rho, p):
        if p == 0.0:
            return rho
        return (1.0 - p) * rho + p * np.eye(4) / 4.0

    def confusion(r):
        return np.array([[1.0 - r, r], [r, 1.0 - r]])

    p1, p2, p_xt, (ro_a, ro_b) = model.resolved(pair_calib)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for op in ops:
        if op.name == "measure":
            continue
        if op.name == "cnot":
            u = cnot(*op.qubits)
            rho = u @ rho @ u.conj().T
            rho = depolarize_2q(rho, p2)
            if crosstalk_active:
                rho = depolarize_2q(rho, p_xt)
        else:
            u = embed(gate_matrix(op.name, op.angle), op.qubits[0])
            rho = u @ rho @ u.conj().T
            rho = depolarize_1q(rho, op.qubits[0], p1)
    probs = np.real(np.diag(rho)).copy()
    probs = np.kron(confusion(ro_b), confusion(ro_a)) @ probs
    return np.clip(probs, 0.0, None)


GRAPH = device.heavy_hex_graph(2)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(0.0, 3.0),
    strategy=st.sampled_from(game.CANONICAL_STRATEGIES),
    cal_seed=st.integers(0, 2**16),
    steps=st.integers(2, 31),
    flags=st.lists(st.booleans(), min_size=31, max_size=31),
    phi=st.sampled_from([0.0, 0.3, math.pi / 2]),
)
def test_stacked_evolution_matches_per_circuit_loop(scale, strategy, cal_seed, steps,
                                                    flags, phi):
    calib = device.synth_calibration(GRAPH, seed=cal_seed, profile="realistic")
    grid = game.default_gamma_grid(steps)
    circuits = [game.build_ewl_circuit(g, phi, strategy, strategy) for g in grid]
    pair_calibs = [calib.pair(GRAPH.edges[i % len(GRAPH.edges)]) for i in range(steps)]
    model = NoiseModel(scale=scale)
    stacked = noisy_distributions(circuits, pair_calibs, model, flags[:steps])
    for g, ops in enumerate(circuits):
        ref = reference_distribution(ops, pair_calibs[g], model, flags[g])
        assert stacked[g].tobytes() == ref.tobytes()


def test_noisy_distributions_reject_mixed_layouts():
    pc = device.synth_calibration(GRAPH, seed=0).pair(GRAPH.edges[0])
    a = game.build_ewl_circuit(0.5, 0.0, game.STRATEGY_I, game.STRATEGY_I)
    b = game.build_ewl_circuit(0.5, 0.0, game.STRATEGY_H, game.STRATEGY_H)
    with pytest.raises(ValueError, match="layout"):
        noisy_distributions([a, b], [pc, pc], NoiseModel(), [False, False])


# --- reset-state sampler equals a freshly keyed Philox per cell ----------------------

@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0),
        min_size=1, max_size=4),
    runs=st.integers(1, 4),
    shots=st.integers(1, 20_000),
    data=st.data(),
)
def test_sampler_matches_fresh_philox(weights, runs, shots, data):
    probs = np.array([np.array(w) / sum(w) for w in weights])
    seeds = [data.draw(st.lists(st.integers(0, 2**128 - 1), min_size=runs, max_size=runs))
             for _ in weights]
    drawn = sample_cells(probs, shots, seeds)
    assert drawn.shape == (len(weights), runs, 4)
    for g, row in enumerate(seeds):
        p = np.clip(probs[g], 0.0, None) / np.clip(probs[g], 0.0, None).sum()
        for r, key in enumerate(row):
            fresh = np.random.Generator(np.random.Philox(key=key)).multinomial(shots, p)
            np.testing.assert_array_equal(drawn[g, r], fresh)
