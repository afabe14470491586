"""Golden output digests and bit-identity properties of the batched core.

The SHA-256 values below are byte-identity gates: the sweep and job digests
were taken from the per-circuit, per-cell implementation that the batched
density-matrix evolution and the reset-state sampler replaced, and the map
digests pin the plans ``qbos map --synth`` writes for seeds 0..9, the
100-pair plans ``qbos map`` writes from files for a 575-qubit device, one
200-pair ``select_pairs`` plan on a 1,121-qubit device, ``select_pairs`` plans
at separations 1, 3 and 4 on the 127-qubit device and one 100-pair
``packed_plan`` on the 575-qubit device.  The
report digests were taken from the nested-dict report builders that the
cell-table builder ``stats.report_from_cells`` replaced, and those of a file
that spells angles two ways from the reader that parsed every gamma field
rather than each distinct text once.  The calibration
digests were taken from the per-qubit scalar draws that the array draws of
``device.synth_calibration`` replaced; they pin ``t2_us`` too, which no sweep
or plan digest reads.  A change that moves one of them changes what a sweep,
a map, a validation report or a synthesized device holds for a fixed seed.

The grid-evolution property compares, byte for byte, each (strategy pair,
angle) cell of one ``noise.noisy_distributions`` grid with the same EWL
circuit evolved alone, each player drawing any strategy, Ry at any angle
included, so one grid holds asymmetric and repeated pairs.

The digests hold for Python 3.11, numpy 2.4.6 and scipy 1.17.1 on x86-64,
the versions CI installs.  Another numpy or BLAS build may move the last
bits of a distribution and, rarely, a drawn count.
"""

import contextlib
import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbos import cli, device, game, gcm, noise, stats
from qbos.noise import NoiseModel, noisy_distributions
from qbos.statevec import derive_seed, gate_matrix, sample_cells

import calib_oracles


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


# --- validate reports ----------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_csvs(tmp_path_factory):
    """The seed-7 default sweep and the seed-5, 3-run, 100-shot sweep."""
    out = tmp_path_factory.mktemp("sweeps")
    csvs = {}
    for name, flags in (("seed7", ("--seed", "7")),
                        ("seed5-runs3", ("--seed", "5", "--runs", "3", "--shots", "100"))):
        csvs[name] = out / f"{name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--synth", *flags, "--out", str(csvs[name])]) == 0
    return csvs


# (stdout, --out JSON) digests of qbos validate
@pytest.mark.parametrize("sweep, variant, method, digests", [
    ("seed7", "corrected", "rmse_of_means",
     ("8019286718f3b7fc978d27df0808abd11d5cb0ff86a3a8d3079752e55f7b0f3f",
      "c511b072d5c10b24c1dc31451d73190407bfd19f3bd7644fbeb5a98388f3dd3e")),
    ("seed7", "corrected", "mean_of_rmses",
     ("401d65e651d05980508522272afd16175ebae27fec964ec3c91725958adb047a",
      "71da4f3859c1ea2ea098385b8049a0ca5c5361a8dab48f0b1c7c7c006207cc79")),
    ("seed7", "paper", "rmse_of_means",
     ("bbe28b13c2af7ea7534095ecbbf14b0adadbb77e33a002623d8e25c17913ab56",
      "8a1f97d9edd1c25801cd8d5b1ceb881f577e78fcad91a7b337203a2452486296")),
    ("seed7", "paper", "mean_of_rmses",
     ("4503c13af826523c508ace51764a12b485949fe1040d3ceb93cae1a76991fb7a",
      "8176f53797c6bf093374f165ebd36e6e42900ed85c530077b1cab166e22f5274")),
    ("seed5-runs3", "corrected", "rmse_of_means",
     ("1ab20b11fbc4ae3df6e3cab0d65e3f02c529746e2e367171e4fba2731bf1ba01",
      "13ec1d9a26af1316975e654c3d0353704e7dcb7be3129226022fd138da08bc81")),
    ("seed5-runs3", "corrected", "mean_of_rmses",
     ("bf6cebfe61f631fbc7e8b0c819f1fe31b3d08bde230de52b607a92b04b45bc3d",
      "6da34996fda6010dc98fb9a02e26350db90ff083437bab8946306edf29f08d71")),
    ("seed5-runs3", "paper", "rmse_of_means",
     ("e8dd9a21571bb4037585447b82379efa5908eb1536ec3606308248a176f408c0",
      "a3add1c0e4bebd8c530d4efe658fc7b27f52944220df6487a3c73aad296e7862")),
    ("seed5-runs3", "paper", "mean_of_rmses",
     ("23813c7fc0fb29060444dc73f6514346682af29c5c63457c9a501ca1aa50d0af",
      "4c6591a66c37f242948e2d5e1b2f86bea5eb41ea14f3abfb35faa1896a096c57")),
])
def test_validate_report_digests(tmp_path, sweep_csvs, sweep, variant, method, digests):
    report = tmp_path / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["validate", str(sweep_csvs[sweep]), "--formula-variant", variant,
                         "--rmse-method", method, "--out", str(report)]) == 0
    assert (sha256(stdout.getvalue().encode()), sha256(report.read_bytes())) == digests


def respelled(data: bytes, quoted: bool) -> bytes:
    """The sweep's rows reversed, so that runs first appear as 2, 1, 0, with
    its first angle spelled "0.0" and "-0.0" and its second moved to 0.5 and
    spelled "0.5" and "0.50", row by row in turn; quoted puts the header's
    first field in quotes, which sends the file through csv.reader."""
    header, *rows = csv.reader(io.StringIO(data.decode(), newline=""))
    rows.reverse()
    first, second = sorted(set(row[1] for row in rows), key=float)[:2]
    spellings = {first: ("0.0", "-0.0"), second: ("0.5", "0.50")}
    for n, row in enumerate(rows):
        row[1] = spellings.get(row[1], (row[1],) * 2)[n % 2]
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return ('"strategy"' if quoted else "strategy").encode() + text.getvalue().encode()[8:]


# an angle spelled two ways is one angle, through either reader: validate keys
# the gamma and run columns by their distinct texts, and then by value
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv-reader"])
def test_validate_keys_respelled_angles_by_value(tmp_path, sweep_csvs, quoted):
    res, report = tmp_path / "respelled.csv", tmp_path / "report.json"
    res.write_bytes(respelled(sweep_csvs["seed5-runs3"].read_bytes(), quoted))
    assert (cli._plain_columns(res.read_bytes()) is None) == quoted
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["validate", str(res), "--out", str(report)]) == 0
    assert (sha256(stdout.getvalue().encode()), sha256(report.read_bytes())) == (
        "dcaad605b2fe05d73791f74c9b765f2c432f4ec20d3747fc4254eefd8306c458",
        "08759b24839c9c29040d0bf5babf2a85f228a46a2995bf4d922e6f675ebcfc23")


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
    assert gcm.verify_separation(gcm.load_plan(out), device.heavy_hex_graph(6)) == (True, None)


# 100 pairs on heavy_hex_graph(14), 575 qubits and 672 edges, read from files:
# calibration seed -> (plan digest, stdout with the plan path as {out})
MAP_LARGE_GOLDEN = {
    0: ("cafdd76b81928efd68171253d72285f6eb36b53dba4a5244aca767f3b3559ee7",
        "selected 100 pairs on 575 qubits -> {out}\ntotal score: 1.720045\n"
        "separation check: OK\n"),
    1: ("ac1a64a37c06e4ae9499468a22063337970e7470ede473fd25b99c5b5d1faef7",
        "selected 100 pairs on 575 qubits -> {out}\ntotal score: 1.728598\n"
        "separation check: OK\n"),
    2: ("03225d9a7cb8fde2d143b825d80cfa71c2cbb93a5868a728342e2a2460d567d0",
        "selected 100 pairs on 575 qubits -> {out}\ntotal score: 1.822357\n"
        "separation check: OK\n"),
}


@pytest.fixture(scope="module")
def large_device(tmp_path_factory):
    out = tmp_path_factory.mktemp("device575")
    graph = device.heavy_hex_graph(14)
    graph.save(out / "graph.json")
    for seed in MAP_LARGE_GOLDEN:
        device.synth_calibration(graph, seed=seed).save(out / f"cal-{seed}.json")
    return out


@pytest.mark.parametrize("seed", sorted(MAP_LARGE_GOLDEN))
def test_map_large_plan_and_stdout(tmp_path, large_device, seed):
    out = tmp_path / "plan.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["map", "--coupling-map", str(large_device / "graph.json"),
                         "--calibration", str(large_device / f"cal-{seed}.json"),
                         "--pairs", "100", "--out", str(out)]) == 0
    digest, text = MAP_LARGE_GOLDEN[seed]
    assert (sha256(out.read_bytes()), stdout.getvalue()) == (digest, text.format(out=out))


def test_select_pairs_1121_qubit_plan_digest():
    # 200 pairs on heavy_hex_graph(20), 1,121 qubits and 1,320 edges, where the
    # separation tables cost most: the digest of json.dumps(plan.to_json())
    graph = device.heavy_hex_graph(20)
    plan = gcm.select_pairs(graph, device.synth_calibration(graph, seed=4), k=200)
    assert sha256(json.dumps(plan.to_json()).encode()) == (
        "1b6de27379702a09e217de9f62b252da92d5bc3fdb7a3159a61b0ab26a0f04a5")


# separation -> (pairs placed: 31, or the most that separation places, and the
# plan digests of calibration seeds 0..2 on heavy_hex_graph(6)); separations
# above 2 take the conflict builder's hop steps, separation 1 none
SEPARATION_PLAN_DIGESTS = {
    1: (31, ["b3a64d7410e22d9af86846c568f93bb83c90b835a5cf014bf6c897c03d68b426",
             "a0d4bf784d2cc224b914f0d2ed4ce073af97a643134d2acff23858cc187e38e9",
             "1d34f500efd26c2bf71c812ff35cc006d58a20705d4d62d3c395bd3e3aa567c9"]),
    3: (27, ["22b742b28a4e8e4b0073b2204fc564f7f7b951d270eaaf450d4af85fae67608f",
             "ee2dd6f711f6f68f6201dba03144c3dd024217ae5016805550447c3ca7a4b3d0",
             "b28b8a318619abf03b88562e272fb015fe8b78816f720d98fd128a1686656458"]),
    4: (19, ["4e30a76f4fd3b7d1afc5fa1884c574a5fdb12b227c7408694c30c453d920d72b",
             "1c52bbf283505bd2b100229de68f61cfaf57eb74a6d639cf0232ad278dd74e53",
             "dee1eb8718bb051b11858e2e7e18f5fa95157d7bd1349508dba40f22600b057f"]),
}


@pytest.mark.parametrize("separation", sorted(SEPARATION_PLAN_DIGESTS))
def test_select_pairs_plan_digests_at_other_separations(separation):
    graph = device.heavy_hex_graph(6)
    k, digests = SEPARATION_PLAN_DIGESTS[separation]
    written = []
    for seed in range(3):
        calib = device.synth_calibration(graph, seed=seed)
        if k < 31:
            with pytest.raises(gcm.InfeasibleMappingError) as exc:
                gcm.select_pairs(graph, calib, 31, separation)
            assert exc.value.achievable == k
        plan = gcm.select_pairs(graph, calib, k, separation)
        written.append(sha256(json.dumps(plan.to_json()).encode()))
    assert written == digests


def test_packed_plan_575_qubit_digest():
    plan = gcm.packed_plan(device.heavy_hex_graph(14), 100)
    assert sha256(json.dumps(plan.to_json()).encode()) == (
        "327483c9fccb723a30a202ed83d88e207b65f6840b41ede9bf42c2a35c0e39bf")


# --- synthetic calibrations -----------------------------------------------------------

# heavy-hex distance -> digests of the realistic calibration JSON for seeds 0..4
CALIBRATION_DIGESTS = {
    2: ["892ad37275c5d8c6519791b2c2da622f5596825ffc9a5a8e66fa8eb4268a5c99",
        "c462cc0b1d30ace6e72b0cc78df0866d534f888b3faac04c16fc309a1a3c1511",
        "8679ba174ba3e7596385be88c5f1f9e7d814150b2bfa9cb9ed2881bb7cb8adc4",
        "dd466d7754b56d06ad74e7a7ea9ae14febf87d3bfff209c05b9c0db8a2beea66",
        "2f7bd93db1646e769de2bb3e6fc4e75226bed82c23076aebdbc25b5ff799f999"],
    6: ["7df1ea18ccacbb76fbaeba1af4949cb0d917affc1b229c9aab3024c50a564dea",
        "6800366dd9ad8360deb1b1024e803f3f1ecfe1cb234cfe273ba5d515d577957f",
        "2c0517bed5d18f0be3576eb5b2da040214f10ca81fdbc42031c32c7db958ce38",
        "4a30d0ba11459b86ce9f70421f17375ee907dde4d59d39843363c2a977fc609c",
        "633985fcdae33bd98f3e53f1597126cf7bd6588f17b56873c4acbd430fe107b8"],
    14: ["57238b3272c8f71d23a26e611a1c0334564569add0be6da01ccd895e43f3e4c7",
         "aff08d56b15dd945fdfd570c9aada2780907d0e7b457e6b58509c0581f510e17",
         "31492b1989b9de264a3b0c918528d980aa0bb2f3613bcd44f7278c629f493ab7",
         "f948e715c6e9b05b38bec7682913f6b7cdc813b6b75f02fba45e96a6adc8846a",
         "d8187bc6cb8f2271543ba455dfc67a90cbb114047beba724813d04639e507583"],
}


@pytest.mark.parametrize("distance", sorted(CALIBRATION_DIGESTS))
def test_synth_calibration_digest(distance):
    graph = device.heavy_hex_graph(distance)
    written = [sha256(json.dumps(device.synth_calibration(graph, seed=seed).to_json()).encode())
               for seed in range(5)]
    assert written == CALIBRATION_DIGESTS[distance]


# --- simulate_job --------------------------------------------------------------------

@pytest.fixture(scope="module")
def job_setup():
    graph = device.heavy_hex_graph(6)
    calib = device.synth_calibration(graph, seed=0, profile="uniform")
    return calib, gcm.select_pairs(graph, calib, k=31)


def job_results(job_setup, scale):
    """simulate_job's RunResults per strategy label, 256 shots and 3 runs each."""
    calib, plan = job_setup
    model = NoiseModel(scale=scale)
    return {
        strategy.label: noise.simulate_job(
            plan, game.GameSpec(strategy_a=strategy, strategy_b=strategy),
            calib, model, 256, 3, derive_seed(13, idx))
        for idx, strategy in enumerate(game.CANONICAL_STRATEGIES)
    }


@pytest.mark.parametrize("scale, digest", [
    (0.0, "7b5877d37441c2df5a803e080ec2637cdc0a01ff6f9769c9e1490fc8e9e6ce34"),
    (1.0, "8afa4257b80661127c88fb4eecbdd4007ec56e92c49cf462ebce5d2154bcb2a3"),
    (2.0, "5afd504d654ad7cd7d5c0589c51f24405b189d6179958fd9011416980d870d4c"),
])
def test_simulate_job_counts_digest(job_setup, scale, digest):
    cells = [  # run-major, the cell order the digest was taken in
        [label, i, run, gamma, job.counts[i, run].tolist()]
        for label, job in job_results(job_setup, scale).items()
        for run in range(job.counts.shape[1])
        for i, gamma in enumerate(job.grid)
    ]
    assert sha256(json.dumps(cells).encode()) == digest


@pytest.mark.parametrize("scale, digest", [
    (0.0, "9127c1331abc1fe98323495ca6555aee5f06ff2ceb797012a62a3821e48b24f5"),
    (1.0, "fc8cfe8f35e64e70cdbd034d1e8858250a1f0afd82f724360447ce64263179e4"),
    (2.0, "fcac3cf35de50e8fba392472b64c493a84e40d021353004f8b2006345cc3b139"),
])
def test_build_validation_report_digest(job_setup, scale, digest):
    report = stats.build_validation_report(job_results(job_setup, scale), game.GameSpec())
    assert sha256(json.dumps(report.to_json()).encode()) == digest


# --- stacked evolution equals the per-circuit loop, bit for bit ----------------------

def reference_distribution(gamma, strategy_a, strategy_b, calib, pair, scale, crosstalk_active):
    """One EWL circuit, one 4x4 density matrix at a time: the unbatched
    evolution, with every probability scaled and clamped from the pair's
    calibration entries, the lower qubit playing qubit 0."""

    def embed(matrix, qubit):
        return np.kron(np.eye(2), matrix) if qubit == 0 else np.kron(matrix, np.eye(2))

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

    clamp = lambda p: min(1.0, scale * p)
    p2 = calib_oracles.edge(calib, pair).two_qubit_error
    p1, p2, p_xt = (clamp(noise.ONE_QUBIT_ERROR_FRACTION * p2), clamp(p2),
                    clamp(noise.CROSSTALK_PENALTY))
    ro_a, ro_b = (clamp(calib_oracles.qubit(calib, q).readout_error) for q in sorted(pair))

    def one_qubit(rho, gate, qubit):
        u = embed(gate, qubit)
        return depolarize_1q(u @ rho @ u.conj().T, qubit, p1)

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rho = one_qubit(rho, gate_matrix("RY", gamma), 0)
    rho = one_qubit(rho, gate_matrix("RZ", 0.0), 0)
    cnot = np.eye(4)[[0, 3, 2, 1]]  # control qubit 0, target qubit 1
    rho = depolarize_2q(cnot @ rho @ cnot.conj().T, p2)
    if crosstalk_active:
        rho = depolarize_2q(rho, p_xt)
    rho = one_qubit(rho, gate_matrix(strategy_a.kind, strategy_a.angle), 0)
    rho = one_qubit(rho, gate_matrix(strategy_b.kind, strategy_b.angle), 1)
    probs = np.real(np.diag(rho)).copy()
    probs = np.kron(confusion(ro_b), confusion(ro_a)) @ probs
    return np.clip(probs, 0.0, None)


GRAPH = device.heavy_hex_graph(2)
# the canonical strategies and Ry at any angle of [0, 2 pi)
STRATEGIES = st.one_of(
    st.sampled_from(game.CANONICAL_STRATEGIES),
    st.floats(0.0, 2 * math.pi, exclude_max=True).map(lambda a: game.Strategy("RY", a)),
)
# asymmetric pairs and Ry angles outside the canonical set, in one grid
MIXED_PLAYERS = [(game.STRATEGY_H, game.Strategy("RY", 0.3)),
                 (game.Strategy("RY", 5.0), game.STRATEGY_I), (game.STRATEGY_I,) * 2]


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(0.0, 3.0),
    players=st.lists(st.tuples(STRATEGIES, STRATEGIES), min_size=1, max_size=3),
    repeat=st.booleans(),
    cal_seed=st.integers(0, 2**16),
    steps=st.integers(2, 31),
    flags=st.lists(st.booleans(), min_size=31, max_size=31),
)
@example(scale=1.0, players=MIXED_PLAYERS, repeat=True, cal_seed=0, steps=31,
         flags=[True, False] * 15 + [True])
def test_stacked_evolution_matches_per_circuit_loop(scale, players, repeat, cal_seed, steps, flags):
    # each player of each pair draws a strategy, so one grid mixes asymmetric pairs,
    # and a repeated pair must get the same bytes at both of its rows
    players = players + players[:1] if repeat else players
    calib = device.synth_calibration(GRAPH, seed=cal_seed, profile="realistic")
    grid = game.default_gamma_grid(steps)
    # every other pair reversed: the grid takes its figures' endpoints in ascending order
    pairs = [GRAPH.edges[i % len(GRAPH.edges)][::(-1) ** i] for i in range(steps)]
    two_qubit, readout, _ = calib.figures(pairs)
    stacked = noisy_distributions(grid, players, two_qubit, readout, NoiseModel(scale=scale),
                                  flags[:steps])
    assert stacked.shape == (len(players), steps, 4)
    for s, (sa, sb) in enumerate(players):
        for i, gamma in enumerate(grid):
            ref = reference_distribution(gamma, sa, sb, calib, pairs[i], scale, flags[i])
            assert stacked[s, i].tobytes() == ref.tobytes(), (s, i)


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
    keys = np.array([[[key % 2**64, key >> 64] for key in row] for row in seeds], dtype=np.uint64)
    drawn = sample_cells(probs, shots, keys)
    assert drawn.shape == (len(weights), runs, 4)
    for g, row in enumerate(seeds):
        p = np.clip(probs[g], 0.0, None) / np.clip(probs[g], 0.0, None).sum()
        for r, key in enumerate(row):
            fresh = np.random.Generator(np.random.Philox(key=key)).multinomial(shots, p)
            np.testing.assert_array_equal(drawn[g, r], fresh)
