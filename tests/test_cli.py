"""End-to-end CLI tests: artifacts, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qbos import device, game, gcm, noise
from qbos.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    SweepConfig,
    _plain_columns,
    _sweep_rows,
    main,
    parse_matrix,
)
from qbos.game import CANONICAL_STRATEGIES, GameSpec, default_gamma_grid
from qbos.statevec import OUTCOME_LABELS, derive_seed

from calib_oracles import parse_calibration, records


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


# --- config handling ---------------------------------------------------------------

def test_config_precedence(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"shots": 64, "runs": 2, "gamma-steps": 4}))
    cfg = SweepConfig.resolve(json.loads(cfg_file.read_text()), {"runs": 3})
    assert cfg.shots == 64      # from file
    assert cfg.runs == 3        # flag wins
    assert cfg.gamma_steps == 4  # dashed keys accepted
    assert cfg.seed == 0        # default


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        SweepConfig.resolve({"shotz": 5}, {})


def test_config_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strateg"):
        SweepConfig.resolve({}, {"strategies": "I,X"})


def test_config_bounds_runs_to_one_seed_word():
    # only the config is built: a sweep would first make one label per run
    assert SweepConfig(runs=2**32 - 1).runs == 2**32 - 1
    with pytest.raises(ValueError, match=r"runs must be in \[1, 2\*\*32\), got 4294967296"):
        SweepConfig(runs=2**32)


def test_sweep_out_of_memory_exits_2_without_output(tmp_path, capsys, monkeypatch):
    # a --runs the config accepts can ask numpy for terabytes; job_counts
    # raises numpy's MemoryError here, so no test allocates the request
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.22 TiB for an array with shape "
                          "(4, 31, 4000000000, 2) and data type uint64")

    monkeypatch.setattr(noise, "job_counts", refuse)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--synth", "--runs", "4000000000", "--out", str(out)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: not enough memory: Unable to allocate 7.22 TiB for an array "
                            "with shape (4, 31, 4000000000, 2) and data type uint64\n")
    assert not out.exists()


def test_parse_matrix_presets_and_files(tmp_path):
    assert parse_matrix("bos").alice(0, 0) == 3.0
    assert parse_matrix("identity-coordination").alice(0, 0) == 1.0
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[[4, 1], [0, 0]], [[0, 0], [1, 4]]]))
    m = parse_matrix(str(path))
    assert m.alice(1, 1) == 1.0 and m.bob(1, 1) == 4.0


def test_parse_matrix_names_bad_cell(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[[3, 2], [0]], [[0, 0], [2, 3]]]))
    with pytest.raises(ValueError, match=r"cell \(0,1\)"):
        parse_matrix(str(path))


@pytest.mark.parametrize(
    "doc",
    [[[[3, 2], [0, 0]], [[0, 0], [2, 3]], [[1, 1], [1, 1]]],
     [[[3, 2], [0, 0], [9, 9]], [[0, 0], [2, 3]]]],
    ids=["extra-row", "extra-cell"],
)
def test_equilibrium_matrix_must_be_two_by_two(tmp_path, capsys, doc):
    # its first 2x2 cells are the default matrix, which would report as valid
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run_cli("equilibrium", "--matrix", str(path)) == EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"error: {path}: matrix must hold exactly 2 rows of 2 cells\n")


# --- equilibrium ----------------------------------------------------------------------

def test_equilibrium_default(capsys):
    assert run_cli("equilibrium") == EXIT_OK
    out = capsys.readouterr().out
    assert "0.6" in out and "0.4" in out and "1.2" in out and "108.33" in out


def test_equilibrium_identity_preset(capsys):
    assert run_cli("equilibrium", "--matrix", "identity-coordination", "--json") == EXIT_OK
    doc = strict_json(capsys.readouterr().out)
    assert doc["p_alice"] == pytest.approx(0.5)
    assert doc["q_bob"] == pytest.approx(0.5)
    # |00> and |11> equally likely, each paying 1 against the classical 0.5
    assert doc["quantum_equal_payoff"] == 1.0
    assert doc["advantage_percent"] == 100.0


def test_equilibrium_malformed_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[[3, 2], ["x", 0]], [[0, 0], [2, 3]]]))
    assert run_cli("equilibrium", "--matrix", str(path)) == EXIT_CONFIG
    assert "cell" in capsys.readouterr().err


@pytest.mark.parametrize("cell", [[3, True], ["3", 2], [3, 2, 1], [3, 10**400]],
                         ids=["bool", "string", "three-values", "huge-int"])
def test_equilibrium_matrix_cells_must_be_two_numbers(tmp_path, capsys, cell):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[cell, [0, 0]], [[0, 0], [2, 3]]]))
    assert run_cli("equilibrium", "--matrix", str(path)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path}: matrix cell (0,0) must be two numbers, got ")


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_equilibrium_refuses_an_overflowing_matrix(tmp_path, capsys, mode):
    # finite cells whose equal quantum payoff (1e308 + 1e308) / 2 overflows:
    # JSON has no Infinity, and "exceeds e_a by inf%" reports nothing
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[[1e308, 2], [9e307, 0]], [[9e307, 0], [1e308, 3]]]))
    assert run_cli("equilibrium", "--matrix", str(path), *mode) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err == "error: the matrix gives quantum_equal_payoff = inf, not finite\n"


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_equilibrium_reports_no_advantage_over_a_negative_payoff(tmp_path, capsys, mode):
    # e_a = -2/3: a percentage gain over a payoff that is not positive means nothing
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[[-1, -1], [0, 0]], [[0, 0], [-2, -3]]]))
    assert run_cli("equilibrium", "--matrix", str(path), *mode) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    if mode:
        doc = strict_json(captured.out)
        assert (doc["quantum_equal_payoff"], doc["advantage_percent"]) == (-1.5, None)
    else:
        assert "e_a                 = -0.666667\n" in captured.out
        assert "exceeds" not in captured.out


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_equilibrium_reports_a_negative_advantage_as_falling_short(tmp_path, capsys, mode):
    # e_a = 1.5 against the equal quantum payoff (1 + 1) / 2
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[[1, 1], [2, 2]], [[2, 2], [1, 1]]]))
    assert run_cli("equilibrium", "--matrix", str(path), *mode) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    if mode:
        assert strict_json(captured.out)["advantage_percent"] == 100.0 * (1.0 - 1.5) / 1.5
    else:
        assert captured.out.endswith("equal quantum payoff 1.0 falls short of e_a by 33.33%\n")
        assert "exceeds" not in captured.out


# --- sweep -----------------------------------------------------------------------------

def test_sweep_row_count_and_schema(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--synth", "--gamma-steps", "5", "--runs", "2", "--shots", "128",
        "--seed", "7", "--out", str(out),
    )
    assert code == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 5 * 2 * 4
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    assert {r["strategy"] for r in rows} == {"I", "H", "RY(pi/4)", "RY(pi)"}


def test_sweep_two_gamma_steps(tmp_path):
    out = tmp_path / "two.csv"
    assert run_cli(
        "sweep", "--synth", "--gamma-steps", "2", "--runs", "1", "--shots", "64",
        "--strategies", "I", "--out", str(out),
    ) == EXIT_OK
    gammas = {float(r["gamma"]) for r in read_rows(out)}
    assert gammas == {0.0, math.pi}


def test_sweep_zero_noise_matches_analytic(tmp_path):
    out = tmp_path / "ideal.csv"
    assert run_cli(
        "sweep", "--synth", "--noise-scale", "0", "--seed", "5",
        "--gamma-steps", "9", "--strategies", "I,H", "--out", str(out),
    ) == EXIT_OK
    rows = read_rows(out)
    assert len(rows) == 9 * 5 * 2
    for row in rows:
        # 5-sigma binomial bound on a payoff with weights <= 3 at 2048 shots
        bound = 5 * 3 / (2 * math.sqrt(2048))
        assert abs(float(row["ea"]) - float(row["ea_analytic"])) <= bound
        assert abs(float(row["eb"]) - float(row["eb_analytic"])) <= bound


def test_sweep_byte_identical_reruns_and_config(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["sweep", "--synth", "--gamma-steps", "6", "--runs", "3",
            "--shots", "256", "--seed", "13"]
    assert run_cli(*args, "--out", str(a)) == EXIT_OK
    assert run_cli(*args, "--out", str(b)) == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": True, "gamma_steps": 6, "runs": 3,
                               "shots": 256, "seed": 13}))
    assert run_cli("sweep", "--config", str(cfg), "--out", str(c)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


LABELS = ["I", "H", "RY(pi/4)", "RY(pi)"]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    runs=st.integers(1, 4),
    shots=st.integers(1, 5000),
    steps=st.integers(2, 9),
    strategies=st.lists(st.sampled_from(LABELS),
                        min_size=1, max_size=4, unique=True),
    noise_scale=st.sampled_from(["0", "1"]),
    variant=st.sampled_from(["paper", "corrected"]),
)
@example(seed=7, runs=50, shots=8192, steps=31, strategies=LABELS, noise_scale="1",
         variant="corrected")  # the heavy sweep
def test_sweep_csv_is_what_csv_writer_writes(seed, runs, shots, steps, strategies,
                                             noise_scale, variant):
    # the sweep assembles its text itself; csv.writer re-writing the parsed
    # rows must give the same bytes: UTF-8, CRLF line ends, nothing quoted
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        assert run_cli(
            "sweep", "--synth", "--seed", str(seed), "--runs", str(runs),
            "--shots", str(shots), "--gamma-steps", str(steps),
            "--strategies", ",".join(strategies), "--noise-scale", noise_scale,
            "--formula-variant", variant, "--out", str(out),
        ) == EXIT_OK
        data = out.read_bytes()
    rewritten = io.StringIO(newline="")
    csv.writer(rewritten).writerows(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    assert rewritten.getvalue().encode("utf-8") == data
    assert data.count(b"\r\n") == 1 + steps * runs * len(strategies)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    runs=st.integers(1, 3),
    shots=st.integers(1, 5000),
    steps=st.integers(2, 9),
    strategies=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True),
)
def test_strategy_subset_rows_match_the_full_sweep(seed, runs, shots, steps, strategies):
    # all strategies are sampled in one stacked job; a strategy's rows must not
    # depend on which other strategies share it
    common = ("sweep", "--synth", "--seed", str(seed), "--runs", str(runs),
              "--shots", str(shots), "--gamma-steps", str(steps))
    with tempfile.TemporaryDirectory() as tmp:
        full, part = Path(tmp) / "full.csv", Path(tmp) / "part.csv"
        assert run_cli(*common, "--out", str(full)) == EXIT_OK
        assert run_cli(*common, "--strategies", ",".join(strategies),
                       "--out", str(part)) == EXIT_OK
        header, *rows, end = full.read_bytes().split(b"\r\n")
        kept = [row for row in rows if row.split(b",", 1)[0].decode() in strategies]
        assert part.read_bytes().split(b"\r\n") == [header, *kept, end]
    assert len(kept) == steps * runs * len(strategies)


ORACLE_GRAPH = device.heavy_hex_graph(6)
ORACLE_CAL = device.synth_calibration(ORACLE_GRAPH, seed=11, profile="realistic")
ORACLE_PAYOFF = game.PayoffMatrix.battle_of_sexes()


@settings(max_examples=40, deadline=None)
@given(
    strategies=st.permutations(LABELS).flatmap(
        lambda order: st.integers(1, 4).map(lambda n: order[:n])),
    steps=st.integers(2, 8),
    runs=st.integers(1, 6),
    shots=st.integers(1, 5000),
    variant=st.sampled_from(["paper", "corrected"]),
    seed=st.integers(0, 2**32),
)
def test_sweep_rows_equal_a_per_row_oracle(strategies, steps, runs, shots, variant, seed):
    # each row joined from its own cell's counts, payoffs and curve values
    cfg = SweepConfig(seed=seed, runs=runs, shots=shots, gamma_steps=steps,
                      strategies=tuple(strategies), formula_variant=variant)
    plan = gcm.select_pairs(ORACLE_GRAPH, ORACLE_CAL, steps, cfg.min_separation)
    grid = default_gamma_grid(steps)
    expected = []
    for index, strategy in enumerate(CANONICAL_STRATEGIES):
        if strategy.label not in strategies:
            continue
        counts = noise.job_counts(plan, grid, [(strategy, strategy)], ORACLE_CAL,
                                  noise.NoiseModel(scale=cfg.noise_scale), shots, runs,
                                  [derive_seed(seed, index)])[0]
        curve = game.analytical_curves(strategy, grid, variant)
        for i, gamma in enumerate(grid):
            ana_a, ana_b = curve[i].tolist()
            for run in range(runs):
                freqs = counts[i, run] / shots
                ea, eb = game.payoff_table(freqs, ORACLE_PAYOFF).tolist()
                expected.append(",".join([strategy.label, repr(gamma), str(run),
                                          *map(repr, [*freqs.tolist(), ea, eb]),
                                          repr(ana_a), repr(ana_b)]))
    assert _sweep_rows(cfg, ORACLE_CAL, plan)[3] == expected


@given(st.lists(st.text(alphabet='IHRYrypi(/4) ,"\r\n\t', max_size=12), min_size=1, max_size=4))
@example(["I", "H", "RY(pi/4)", "RY(pi)"])
@example([" ry( PI / 4 )\r\n", "h\n"])
def test_sweep_config_admits_only_labels_needing_no_csv_quotes(texts):
    # the sweep writes each label unquoted, so no admitted label may hold a
    # character csv.writer would quote
    try:
        cfg = SweepConfig(strategies=tuple(texts))
    except ValueError:
        return
    for label in cfg.strategies:
        assert not set(label) & set(',"\r\n'), label


def test_sweep_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--synth", "--gamma-steps", "4", "--runs", "2",
            "--shots", "256", "--strategies", "I"]
    assert run_cli(*base, "--seed", "1", "--out", str(a)) == EXIT_OK
    assert run_cli(*base, "--seed", "2", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()


SMALL_SWEEP = ("sweep", "--synth", "--gamma-steps", "4", "--runs", "2", "--shots", "32")


@pytest.mark.parametrize(
    "argv, directory, message",
    [
        ((*SMALL_SWEEP, "--out", "no_such_dir/sweep.csv"), None,
         "error: cannot write no_such_dir/sweep.csv: "),
        # the CSV is written before the plots, and stays
        ((*SMALL_SWEEP, "--strategies", "H", "--svg", "--out", "sweep.csv"), "sweep_H.svg",
         "error: cannot write SVG: "),
        (("map", "--synth", "--out", "plan"), "plan", "error: cannot write plan: "),
    ],
    ids=["sweep-out-in-missing-dir", "sweep-svg-onto-a-directory", "map-out-onto-a-directory"],
)
def test_unwritable_output_exits_io(tmp_path, capsys, monkeypatch, argv, directory, message):
    monkeypatch.chdir(tmp_path)
    if directory:
        (tmp_path / directory).mkdir()
    assert run_cli(*argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(message)
    assert (tmp_path / "sweep.csv").exists() == ("--svg" in argv)


def test_sweep_requires_device_source(capsys):
    assert run_cli("sweep", "--gamma-steps", "4") == EXIT_CONFIG
    assert "coupling map" in capsys.readouterr().err


def test_sweep_svg_emission(tmp_path):
    out = tmp_path / "plot.csv"
    assert run_cli(
        "sweep", "--synth", "--gamma-steps", "5", "--runs", "3", "--shots", "128",
        "--strategies", "H,RY(pi/4)", "--svg", "--out", str(out),
    ) == EXIT_OK
    svg_h = tmp_path / "plot_H.svg"
    svg_r = tmp_path / "plot_RY_pi_4.svg"
    assert svg_h.exists() and svg_r.exists()
    body = svg_h.read_text()
    assert body.startswith("<svg") and "polyline" in body and "circle" in body


def test_sweep_respects_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "synth": True, "gamma_steps": 3, "runs": 1, "shots": 32,
        "strategies": "I", "out": str(tmp_path / "from_cfg.csv"),
    }))
    assert run_cli("sweep", "--config", str(cfg)) == EXIT_OK
    assert (tmp_path / "from_cfg.csv").exists()


# --- map -------------------------------------------------------------------------------

def test_map_heavy_hex_31_pairs(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = run_cli("map", "--synth", "--pairs", "31", "--seed", "4", "--out", str(out))
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "separation check: OK" in printed
    doc = strict_json(out.read_text())
    assert doc["min_separation"] == 2
    assert len(doc["assignments"]) == 31
    qubits = [q for e in doc["assignments"] for q in e["pair"]]
    assert len(set(qubits)) == 62


def test_map_infeasible_k(tmp_path, capsys):
    code = run_cli("map", "--synth", "--pairs", "200",
                   "--out", str(tmp_path / "x.json"))
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "error: cannot place 200 pairs; the search placed only 38\n"


def test_sweep_infeasible_grid_exits_infeasible(tmp_path, capsys):
    # 80 circuits need 80 separated pairs; the 127-qubit device holds fewer
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--synth", "--gamma-steps", "80", "--out", str(out)) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: cannot place 80 pairs; the search placed only 38\n"


def test_map_relaxed_separation(tmp_path, capsys):
    out = tmp_path / "plan1.json"
    code = run_cli("map", "--synth", "--pairs", "40", "--min-separation", "1",
                   "--out", str(out))
    assert code == EXIT_OK
    assert "separation check: OK" in capsys.readouterr().out
    import qbos.device as device
    import qbos.gcm as gcm
    plan = gcm.load_plan(out)
    ok, _ = gcm.verify_separation(plan, device.heavy_hex_graph(6))
    assert ok


@pytest.mark.parametrize(
    "argv",
    [
        ("map", "--synth", "--pairs", "0"),
        ("map", "--synth", "--pairs", "-3"),
        ("map", "--synth", "--min-separation", "0"),
        ("sweep", "--synth", "--min-separation", "0"),
    ],
    ids=["map-pairs-0", "map-pairs-negative", "map-separation-0", "sweep-separation-0"],
)
def test_bad_mapping_sizes_exit_config(tmp_path, capsys, argv):
    code = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("map", "--synth"), {"pairs": "5"}, "pairs must be an integer, got '5'"),
        (("sweep", "--synth"), {"shots": "abc"}, "shots must be an integer, got 'abc'"),
        (("sweep", "--synth"), {"runs": True}, "runs must be an integer, got True"),
        (("sweep",), {"synth": "yes"}, "synth must be true or false, got 'yes'"),
        (("sweep", "--synth"), {"strategies": [1, 2]},
         "strategies must be a list of strings, got [1, 2]"),
        (("sweep", "--synth", "--noise-scale", "nan"), None,
         "noise-scale must be a finite number >= 0, got nan"),
        (("sweep", "--synth", "--noise-scale", "inf"), None,
         "noise-scale must be a finite number >= 0, got inf"),
        (("sweep", "--synth", "--strategies", "RY(pi/0)"), None,
         "strategy 'RY(pi/0)' divides by zero"),
        (("sweep", "--coupling-map", "graph.json", "--calibration", "cal.json",
          "--seed", "-1"), None, "seed must be >= 0"),
        (("sweep", "--synth", "--strategies", "H,I,H"), None,
         "strategies listed more than once: ['H', 'I', 'H']"),
        (("sweep", "--synth", "--strategies", "RY(pi/" + "9" * 400 + ")"), None,
         "divides by more than the largest float"),
        (("sweep", "--synth"), {"noise_scale": 10**400}, "noise-scale must be a number, got 1"),
        (("sweep", "--synth", "--strategies", ","), None,
         "strategies must name at least one strategy"),
        (("sweep", "--synth"), {"strategies": []}, "strategies must name at least one strategy"),
        (("sweep", "--synth", "--gamma-steps", "2", "--runs", "1", "--strategies", "I",
          "--shots", str(2**63)), None, "shots must be in [1, 2**63), got 9223372036854775808"),
        (("sweep", "--synth"), {"formula_variant": "x"}, "unknown formula variant 'x'"),
        (("sweep", "--synth", "--strategies", "RY(0.3)"), None,
         "strategies outside the evaluated set: ['RY(0.3)']"),
        (("map", "--coupling-map", "graph.json"), None,
         "no calibration: pass --calibration PATH or --synth"),
        # a config file that is not UTF-8, as the JSON loaders all read it
        (("sweep", "--synth"), b"\xff", "cfg.json: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["map-pairs-str", "sweep-shots-str", "sweep-runs-bool", "sweep-synth-str",
         "sweep-strategies-ints", "noise-scale-nan", "noise-scale-inf", "ry-pi-over-0",
         "negative-seed-with-files", "sweep-strategies-repeated", "ry-pi-over-huge",
         "noise-scale-huge-int", "sweep-strategies-empty-flag",
         "sweep-strategies-empty-list", "shots-beyond-int64", "formula-variant-unknown",
         "strategy-outside-evaluated-set", "coupling-map-without-calibration",
         "config-not-utf8"],
)
def test_bad_config_values_exit_config(tmp_path, capsys, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    if "graph.json" in argv:
        from qbos.device import heavy_hex_graph, synth_calibration
        g = heavy_hex_graph(2)
        g.save("graph.json")
        synth_calibration(g, seed=1).save("cal.json")
    extra = ()
    if config is not None:
        cfg = tmp_path / "cfg.json"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(json.dumps(config))
        extra = ("--config", str(cfg))
    code = run_cli(*argv, *extra, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not (tmp_path / "out").exists()


def test_map_with_files(tmp_path, capsys):
    from qbos.device import heavy_hex_graph, synth_calibration
    g = heavy_hex_graph(2)
    cmap, calp = tmp_path / "g.json", tmp_path / "c.json"
    g.save(cmap)
    synth_calibration(g, seed=1).save(calp)
    out = tmp_path / "plan.json"
    code = run_cli("map", "--coupling-map", str(cmap), "--calibration", str(calp),
                   "--pairs", "3", "--out", str(out))
    assert code == EXIT_OK
    assert json.loads(out.read_text())["assignments"]


def renumbered(calib, perm, qubits=(), pairs=()):
    """calib with qubit q renamed perm[q], plus extra qubits (ids) and pairs, each
    with fixed figures."""
    figures = calib.qubit_figures.tolist()
    return device.CalibrationSnapshot(
        calib.timestamp, [perm[q] for q in calib.ids] + list(qubits),
        [column + [value] * len(qubits) for column, value in zip(figures, (0.02, 100.0, 90.0))],
        [(perm[a], perm[b]) for a, b in calib.pairs] + list(pairs),
        calib.two_qubit_errors.tolist() + [0.01] * len(pairs))


@st.composite
def renumbered_devices(draw):
    """(graph, calibration, k): a heavy-hex device of distance 2-4 whose qubit ids
    one permutation renames in both files, 0-3 extra calibrated qubits and pairs,
    and a circuit count the mapper can place.  An extra pair's ends are often
    qubits of the sweep's plan, so that it couples circuits the map keeps apart."""
    distance = draw(st.integers(2, 4))
    base = device.heavy_hex_graph(distance)
    n = base.num_qubits
    perm = draw(st.permutations(range(n)))
    graph = device.CouplingGraph(n, tuple((perm[a], perm[b]) for a, b in base.edges))
    calib = device.synth_calibration(base, seed=draw(st.integers(0, 2**16)))
    k = draw(st.integers(2, 2 * distance + 1))
    plan = gcm.select_pairs(graph, renumbered(calib, perm), k)
    qubits = draw(st.lists(st.integers(n, 2**70), max_size=3, unique=True))
    ends = st.one_of(st.sampled_from([q for pair in plan.assignments for q in pair]),
                     st.sampled_from(list(range(n)) + qubits))
    pairs = draw(st.lists(st.tuples(ends, ends).map(sorted).map(tuple).filter(
        lambda p: p[0] != p[1] and p not in graph.edges), max_size=3, unique=True))
    return graph, renumbered(calib, perm, qubits, pairs), k


HEAVY_HEX_127 = device.heavy_hex_graph(6)


@settings(max_examples=40, deadline=None)
@given(instance=renumbered_devices(), seed=st.integers(0, 2**32), runs=st.integers(1, 3),
       shots=st.integers(1, 512))
@example(instance=(HEAVY_HEX_127, renumbered(device.synth_calibration(HEAVY_HEX_127, seed=3),
                                             range(127), pairs=[(48, 119)]), 31),
         seed=3, runs=2, shots=512).via("a calibrated pair joins the first qubits of "
                                        "circuits 0 and 1 of seed 3's plan")
def test_sweep_from_files_counts_what_simulate_job_counts(instance, seed, runs, shots):
    # the CLI and the library read the same calibrated pairs for crosstalk, whatever
    # the qubit ids and whatever the calibration lists beyond the coupling map
    graph, calib, k = instance
    with tempfile.TemporaryDirectory() as tmp:
        cmap, cal, out = (Path(tmp) / name for name in ("g.json", "c.json", "sweep.csv"))
        graph.save(cmap)
        calib.save(cal)
        assert run_cli("sweep", "--coupling-map", str(cmap), "--calibration", str(cal),
                       "--gamma-steps", str(k), "--runs", str(runs), "--shots", str(shots),
                       "--seed", str(seed), "--out", str(out)) == EXIT_OK
        rows = read_rows(out)
        graph, calib = device.load_coupling_map(cmap), device.load_calibration(cal)
    plan = gcm.select_pairs(graph, calib, k)
    for index, strategy in enumerate(CANONICAL_STRATEGIES):
        spec = GameSpec(gamma_grid=default_gamma_grid(k), strategy_a=strategy,
                        strategy_b=strategy)
        job = noise.simulate_job(plan, spec, calib, noise.NoiseModel(), shots, runs,
                                 derive_seed(seed, index))
        want = job.counts.reshape(-1, 4).tolist()  # gamma-major, then run, as the rows
        got = [[round(float(row[f"p{label}"]) * shots) for label in OUTCOME_LABELS]
               for row in rows if row["strategy"] == strategy.label]
        assert got == want, strategy.label


# --- validate ---------------------------------------------------------------------------

def sweep_fixture(tmp_path, noise_scale="0", steps="7", runs="3"):
    out = tmp_path / "res.csv"
    assert run_cli(
        "sweep", "--synth", "--noise-scale", noise_scale, "--gamma-steps", steps,
        "--runs", runs, "--shots", "2048", "--seed", "21", "--out", str(out),
    ) == EXIT_OK
    return out


def test_validate_ideal_sweep(tmp_path, capsys):
    res = sweep_fixture(tmp_path)
    report_path = tmp_path / "report.json"
    code = run_cli("validate", str(res), "--out", str(report_path))
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "RMSE" in text
    doc = strict_json(report_path.read_text())
    for sv in doc["strategies"]:
        assert sv["rmse_a"] <= 3 / math.sqrt(2048 * 3)
        assert sv["rmse_b"] <= 3 / math.sqrt(2048 * 3)


def test_validate_round_trips_sweep_analytics(tmp_path):
    res = sweep_fixture(tmp_path)
    rows = read_rows(res)
    from qbos.game import Strategy
    from noise_oracles import analytical_payoffs
    for row in rows:
        ea, eb = analytical_payoffs(
            Strategy.parse(row["strategy"]), float(row["gamma"]), "corrected"
        )
        assert repr(ea) == row["ea_analytic"]
        assert repr(eb) == row["eb_analytic"]


def test_validate_truncated_csv(tmp_path, capsys):
    res = sweep_fixture(tmp_path)
    lines = res.read_text().splitlines()
    (tmp_path / "cut.csv").write_text("\n".join(lines[:-3]) + "\n")
    code = run_cli("validate", str(tmp_path / "cut.csv"))
    assert code == EXIT_SCHEMA
    assert "missing" in capsys.readouterr().err


def test_validate_names_a_one_run_file(tmp_path, capsys):
    # a file qbos itself wrote with --runs 1 has no run-to-run spread
    res = sweep_fixture(tmp_path, runs="1")
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    assert capsys.readouterr() == (
        "", f"error: {res}: the results hold 1 run per (strategy, gamma) cell; "
            "validation needs at least 2 runs\n")


def test_validate_bad_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("strategy,gamma\nI,0.0\n")
    assert run_cli("validate", str(bad)) == EXIT_SCHEMA
    assert "columns" in capsys.readouterr().err


def test_validate_rejects_a_repeated_column(tmp_path, capsys):
    res = sweep_fixture(tmp_path)
    with open(res, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("gamma")
    with open(res, "w", newline="") as fh:
        csv.writer(fh).writerows(row + [row[col]] for row in rows)
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    assert capsys.readouterr() == ("", "error: bad columns: repeated ['gamma']\n")


def test_validate_accepts_a_utf8_bom(tmp_path, capsys):
    res = sweep_fixture(tmp_path)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + res.read_bytes())
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_OK
    plain = capsys.readouterr()
    assert run_cli("validate", str(bom)) == EXIT_OK
    assert capsys.readouterr() == plain


def test_validate_reads_columns_in_any_order(tmp_path, capsys):
    res = sweep_fixture(tmp_path)
    with open(res, newline="") as fh:
        rows = list(csv.reader(fh))
    order = [10, 3, 0, 9, 1, 8, 2, 7, 4, 6, 5]
    permuted = tmp_path / "permuted.csv"
    with open(permuted, "w", newline="") as fh:
        csv.writer(fh).writerows([row[i] for i in order] for row in rows)
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_OK
    plain = capsys.readouterr()
    assert run_cli("validate", str(permuted)) == EXIT_OK
    assert capsys.readouterr() == plain


def tamper(path, row, column, edit):
    """Replace one cell of a results CSV by edit(old text); row 0 is the first data row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = edit(rows[row + 1][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"gamma": lambda v: "nan"}, "gamma = nan is not finite"),
        ({"p01": lambda v: "inf"}, "p01 = inf is not finite"),
        ({"ea": lambda v: "-inf"}, "ea = -inf is not finite"),
        ({"eb": lambda v: "nan"}, "eb = nan is not finite"),
        ({"p00": lambda v: repr(float(v) + 1e-6)}, "p00..p11 sum to"),
        # two finite probabilities whose sum overflows
        ({"p00": lambda v: "8.98846567431158e+307", "p01": lambda v: "8.988465674311579e+307"},
         "p00..p11 sum to inf, not 1 within 1e-09"),
        ({"ea": lambda v: repr(float(v) + 1e-6)}, "but p00..p11 give"),
        ({"eb": lambda v: repr(float(v) - 1e-6)}, "but p00..p11 give"),
        # p01 and p10 carry no payoff, so moving mass between them keeps the
        # sum and ea/eb while p01 goes negative
        ({"p01": lambda v: repr(float(v) - 0.5), "p10": lambda v: repr(float(v) + 0.5)},
         "p01 = -0.5 is outside [0, 1]"),
        ({"gamma": lambda v: "1e308"}, "gamma = 1e+308 is outside [0, pi]"),
        ({"gamma": lambda v: "-0.001"}, "gamma = -0.001 is outside [0, pi]"),
        # number text that int() or float() reads but the sweep never writes
        ({"run": lambda v: v + "_0"}, "run = '1_0' holds a blank, '_' or a non-ASCII character"),
        ({"gamma": lambda v: " 0.1 "}, "gamma = ' 0.1 ' holds a blank, '_' or a non-ASCII"),
        ({"run": lambda v: "+3"}, "run = '+3' is not a plain decimal int"),
        ({"run": lambda v: "03"}, "run = '03' is not a plain decimal int"),
        ({"p00": lambda v: "\uff11"}, "p00 = '\uff11' holds a blank, '_' or a non-ASCII"),
        ({"gamma": lambda v: "0.5\n"}, "gamma = '0.5\\n' holds a blank, '_' or a non-ASCII"),
        # the first bad field of the row, in the file's column order
        ({"run": lambda v: "+3", "p11": lambda v: v + " "}, "run = '+3' is not a plain"),
    ],
    ids=["gamma-nan", "p01-inf", "ea-neg-inf", "eb-nan", "p00-unnormalized", "p00-p01-overflow",
         "ea-tampered", "eb-tampered", "p01-negative", "gamma-huge", "gamma-negative",
         "run-underscore", "gamma-blanks", "run-plus-sign", "run-leading-zero",
         "p00-fullwidth-digit", "gamma-quoted-line-break", "run-before-p11"],
)
def test_validate_rejects_bad_rows(tmp_path, capsys, edits, message):
    res = sweep_fixture(tmp_path)
    for column, edit in edits.items():
        tamper(res, 4, column, edit)
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: results row 5: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("separator", ["\x1c", "\x1f"], ids=["file-separator", "unit-separator"])
def test_validate_rejects_ascii_separators_in_a_label(tmp_path, capsys, separator):
    # str.isspace() accepts \x1c-\x1f and Strategy.parse strips them, so every H
    # label rewritten as H + separator would read as a series of its own
    res = sweep_fixture(tmp_path)
    with open(res, newline="") as fh:
        rows = list(csv.reader(fh))
    first = next(n for n, row in enumerate(rows) if row[0] == "H")
    for row in rows[first:]:
        row[0] = row[0].replace("H", "H" + separator)
    with open(res, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err == (f"error: results row {first}: strategy = {'H' + separator!r} "
                            "holds a blank, '_' or a non-ASCII character\n")


@pytest.mark.parametrize("line_end", ["\n", "\r"], ids=["lf", "cr"])
def test_validate_reads_other_line_ends_and_quoted_fields(tmp_path, capsys, line_end):
    res = sweep_fixture(tmp_path)
    with open(res, newline="") as fh:
        rows = list(csv.reader(fh))
    other = tmp_path / "other.csv"
    with open(other, "w", newline="") as fh:
        csv.writer(fh, lineterminator=line_end, quoting=csv.QUOTE_ALL).writerows(rows)
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_OK
    plain = capsys.readouterr()
    assert run_cli("validate", str(other)) == EXIT_OK
    assert capsys.readouterr() == plain


def test_validate_short_row(tmp_path, capsys):
    res = sweep_fixture(tmp_path)
    with open(res, "a") as fh:
        fh.write("I,0.0,9,1.0\n")
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable results row: ") and err.count("\n") == 1


def test_validate_non_utf8_file(tmp_path, capsys):
    res = tmp_path / "bin.csv"
    res.write_bytes(b"\xff")
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {res}: 'utf-8' codec can't decode")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("row", [-1, 4], ids=["header", "data-row"])
def test_validate_oversized_field(tmp_path, capsys, row):
    # csv reads fields of at most 131,072 characters
    res = sweep_fixture(tmp_path)
    tamper(res, row, "strategy", lambda v: "x" * 200_000)
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {res}: field larger than field limit")
    assert captured.err.count("\n") == 1


def test_validate_missing_file(tmp_path):
    assert run_cli("validate", str(tmp_path / "absent.csv")) == EXIT_IO


def test_validate_directory_exits_io(tmp_path, capsys):
    assert run_cli("validate", str(tmp_path)) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ") and str(tmp_path) in captured.err
    assert captured.err.count("\n") == 1


def test_validate_rmse_method_flag(tmp_path, capsys):
    res = sweep_fixture(tmp_path, noise_scale="1.0", steps="5", runs="3")
    assert run_cli("validate", str(res), "--rmse-method", "mean_of_rmses") == EXIT_OK
    assert "RMSE" in capsys.readouterr().out


def test_validate_writes_no_report_when_out_fails(tmp_path, capsys):
    # the JSON is written first: exit 3 leaves stdout empty, as in sweep and map
    res = sweep_fixture(tmp_path)
    out = tmp_path / "absent" / "report.json"
    capsys.readouterr()
    assert run_cli("validate", str(res), "--out", str(out)) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def pad_first_row(data):
    """Two fields of the first data row padded to 70,000 characters each: every
    field stays within csv's 131,072-character limit, the line does not."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    for column in ("gamma", "ea_analytic"):
        rows[1][rows[0].index(column)] += "0" * 70_000
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


MISSING_ALL = f"error: bad columns: missing {list(CSV_COLUMNS)}, unexpected none\n"


def quoted_bad_header_short_row(data):
    """The file with every field quoted, eb_analytic dropped from the header
    and row 5 cut to 4 fields: the bad header is reported first."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    rows[0].remove("eb_analytic")
    rows[5] = rows[5][:4]
    text = io.StringIO()
    csv.writer(text, quoting=csv.QUOTE_ALL).writerows(rows)
    return text.getvalue().encode()


# files at the edge of the plain path that validate splits without csv; an
# empty message means the file validates as the sweep's own file does
@pytest.mark.parametrize(
    "edit, code, message",
    [
        (lambda d: b"", EXIT_SCHEMA, MISSING_ALL),
        (lambda d: d.split(b"\r\n")[0] + b"\r\n", EXIT_SCHEMA,
         "error: results file holds no rows\n"),
        # an empty first line is the header [], as csv reads it
        (lambda d: b"\r\n" + d, EXIT_SCHEMA, MISSING_ALL),
        (lambda d: d.replace(b"\r\n", b"\r"), EXIT_OK, ""),
        (lambda d: b"\xef\xbb\xbf\r\n" + d, EXIT_SCHEMA, MISSING_ALL),
        (lambda d: b'"strategy"' + d.removeprefix(b"strategy"), EXIT_OK, ""),
        (lambda d: d + b"I,0.0,9,1.0\r\n", EXIT_SCHEMA,
         "error: unreadable results row: row 85 has 4 fields, expected 11\n"),
        (lambda d: d.replace(b"\r\nI,0.0,", b"\r\nI,0.0\x00,", 1), EXIT_SCHEMA,
         "error: unreadable results row: could not convert string to float: '0.0\\x00'\n"),
        # float() reads 0_0.0 as 0.0; a '_' after the header line is never plain
        (lambda d: d.replace(b"\r\nI,0.0,", b"\r\nI,0_0.0,", 1), EXIT_SCHEMA,
         "error: results row 1: gamma = '0_0.0' holds a blank, '_' or a non-ASCII "
         "character\n"),
        (pad_first_row, EXIT_OK, ""),
        # float columns take any text float() reads within the plain syntax
        (lambda d: d.replace(b",0.0,", b",0.00,"), EXIT_OK, ""),
        (lambda d: d.replace(b",0.0,", b",0e0,"), EXIT_OK, ""),
        (quoted_bad_header_short_row, EXIT_SCHEMA,
         "error: bad columns: missing ['eb_analytic'], unexpected none\n"),
    ],
    ids=["empty", "header-only", "leading-blank-line", "lone-cr", "bom-then-crlf",
         "quoted-header", "ragged-row", "nul-in-field", "underscore-in-field",
         "long-line-of-short-fields", "zero-as-0.00", "zero-as-0e0",
         "quoted-bad-header-and-short-row"],
)
def test_validate_plain_path_boundary(tmp_path, capsys, edit, code, message):
    res = sweep_fixture(tmp_path)  # 4 strategies x 7 angles x 3 runs = 84 rows
    other = tmp_path / "other.csv"
    other.write_bytes(edit(res.read_bytes()))
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_OK
    plain = capsys.readouterr().out
    assert run_cli("validate", str(other)) == code
    assert capsys.readouterr() == ("" if message else plain, message)


# --- the plain-file reader against csv ---------------------------------------------------

def csv_columns(data):
    """csv.reader's header and columns of a results file, blank rows dropped, or
    None when csv cannot read it or a row does not hold len(header) fields."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    try:
        reader = csv.reader(text)
        header = next(reader, [])
        rows = [row for row in reader if row]
    except (UnicodeDecodeError, csv.Error):
        return None
    if any(len(row) != len(header) for row in rows):
        return None
    return header, dict(zip(header, zip(*rows)))


SWEEP_ALPHABET = "0123456789.-+eEnaifIHRYpi()/"
ODD_TEXTS = ['"', "\r", "\n", "\r\n", " ", "\x1c", "\x00", "_", ",", "\u00e9",
             "9" * 131_073]  # one character past csv's field size limit


@st.composite
def results_bytes(draw):
    """(bytes, plain): a file of equal-length rows in the sweep's alphabet with
    any line ends, blank lines and a byte-order mark, perhaps with a comma
    moved from one row to a later one, which keeps the file's field count, then
    with texts from ODD_TEXTS inserted or characters deleted; plain when no
    comma was moved and nothing was inserted or deleted."""
    width = draw(st.integers(0, 4))
    names = st.text(SWEEP_ALPHABET + "_", min_size=1, max_size=4)
    fields = st.text(SWEEP_ALPHABET, max_size=4)
    lines = [",".join(draw(st.lists(names, min_size=width, max_size=width)))]
    for _ in range(draw(st.integers(0, 4))):
        blank = draw(st.booleans()) and draw(st.booleans())
        lines.append("" if blank else ",".join(draw(st.lists(fields, min_size=width,
                                                             max_size=width))))
    rows = [n for n, line in enumerate(lines) if n and line]
    moved = width > 1 and len(rows) > 1 and draw(st.booleans())
    if moved:  # fields k and k + 1 of one row joined, a comma put into a later row
        src, dst = sorted(draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2,
                                        unique=True)))
        fields_of = lines[src].split(",")
        k = draw(st.integers(0, width - 2))
        fields_of[k:k + 2] = [fields_of[k] + fields_of[k + 1] or "0"]  # never a blank line
        lines[src] = ",".join(fields_of)
        at = draw(st.integers(0, len(lines[dst])))
        lines[dst] = lines[dst][:at] + "," + lines[dst][at:]
    ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")
    edits = draw(st.lists(st.tuples(st.integers(0, len(text)),
                                    st.sampled_from(ODD_TEXTS + [None])), max_size=2))
    for at, odd in edits:
        text = text[:at] + (odd or "") + text[at + (odd is None):]
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode(), not (edits or moved)


@settings(max_examples=300, deadline=None)
@given(results_bytes())
def test_plain_columns_reads_as_csv_or_declines(sample):
    data, plain = sample
    got = _plain_columns(data)
    if got is None:
        assert not plain, "a file of the sweep's alphabet declined"
    else:
        header, columns = got  # columns of lists, where csv's are of tuples
        assert (header, {name: tuple(v) for name, v in columns.items()}) == csv_columns(data)


def test_a_comma_moved_to_a_later_row_is_not_plain(tmp_path, capsys):
    # the file keeps its comma count, so only the rows' own widths tell
    res = sweep_fixture(tmp_path)
    lines = res.read_bytes().split(b"\r\n")
    lines[3] = lines[3].replace(b",", b"", 1)  # row 3 of 10 fields
    lines[6] += b","  # row 6 of 12
    data = b"\r\n".join(lines)
    assert data.count(b",") == res.read_bytes().count(b",")
    assert _plain_columns(data) is None
    res.write_bytes(data)
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    assert capsys.readouterr() == (
        "", "error: unreadable results row: row 3 has 10 fields, expected 11\n")


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL], ids=["plain", "quoted"])
@pytest.mark.parametrize("column", ["gamma", "run"])
def test_validate_names_the_first_unreadable_text_in_row_order(tmp_path, capsys, column,
                                                               quoting):
    # gamma and run are read once per distinct text, in the order the texts
    # first appear; an int() of more than 4,300 digits raises
    res = sweep_fixture(tmp_path)
    with open(res, newline="") as fh:
        rows = list(csv.reader(fh))
    c = rows[0].index(column)
    texts = {n: f"{n}x" if column == "gamma" else str(n % 9 + 1) * (4_301 + n)
             for n in (70, 7, 40, 2, 11, 30, 3, 20)}
    for n, text in texts.items():
        rows[n][c] = text
    with open(res, "w", newline="") as fh:
        csv.writer(fh, quoting=quoting).writerows(rows)
    with pytest.raises(ValueError) as first:
        (float if column == "gamma" else int)(texts[2])
    capsys.readouterr()
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    assert capsys.readouterr() == ("", f"error: unreadable results row: {first.value}\n")


# --- validate on mutated results files ---------------------------------------------------

@pytest.fixture(scope="module")
def valid_rows(tmp_path_factory):
    """Header and data rows of a valid 3-run, 5-angle sweep CSV."""
    out = tmp_path_factory.mktemp("valid") / "res.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("sweep", "--synth", "--gamma-steps", "5", "--runs", "3",
                       "--shots", "256", "--seed", "4", "--out", str(out)) == EXIT_OK
    with open(out, newline="") as fh:
        return list(csv.reader(fh))


cell_texts = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e400", "-0.0", "0", "1", "2", "-1", "I", "H",
                     "RY(pi)", "RY(pi/4)", "RY(pi/0)", "ry(7)", "X", "run", "ea"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.text(alphabet="0123456789.-+eEnaifRYpI()/, \"", max_size=12),
)


@st.composite
def mutations(draw):
    """(kind, row, column, text); "relabel" renames every row of row's strategy."""
    kind = draw(st.sampled_from(["delete", "duplicate", "edit", "relabel"]))
    row, column = draw(st.integers(0, 10_000)), draw(st.integers(0, 10_000))
    return kind, row, column, draw(cell_texts) if kind in ("edit", "relabel") else None


@settings(max_examples=200, deadline=None)
@given(st.lists(mutations(), min_size=1, max_size=4))
# a run label past int64 once broke the report's cell listing
@example(changes=[("edit", 1, 2, "9" * 400)])
# so did a strategy whose divisor overflows a float
@example(changes=[("relabel", 1, 0, "RY(pi/" + "9" * 400 + ")")])
# a row whose p00..p11 sum past the largest float once printed a numpy warning
@example(changes=[("edit", 25, 3, "8.98846567431158e+307"),
                  ("edit", 25, 4, "8.988465674311579e+307")])
def test_validate_mutated_csv_exits_0_or_5(valid_rows, changes):
    rows = [list(row) for row in valid_rows]
    for kind, r, c, text in changes:
        if not rows:
            break
        r %= len(rows)
        if kind == "delete":
            del rows[r]
        elif kind == "duplicate":
            rows.insert(r, list(rows[r]))
        elif kind == "relabel" and rows[r]:
            old = rows[r][0]
            rows = [[text, *row[1:]] if row and row[0] == old else row for row in rows]
        elif rows[r]:
            rows[r][c % len(rows[r])] = text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "res.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli("validate", str(path))
    assert code in (EXIT_OK, EXIT_SCHEMA)
    if code == EXIT_SCHEMA:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and "RMSE" in out.getvalue()


# --- malformed input files --------------------------------------------------------------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(),
              st.text(max_size=6)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6,
)
not_int = json_values.filter(lambda v: type(v) is not int)
not_number = json_values.filter(lambda v: type(v) not in (int, float))
not_finite = st.sampled_from([math.nan, math.inf, -math.inf])
huge_int = st.just(10**400)  # a JSON integer that no float holds


def is_matrix_cell(v):
    return (type(v) is list and len(v) == 2
            and all(type(x) in (int, float) and math.isfinite(x) for x in v))


def matrix_doc():
    return [[[3, 2], [0, 0]], [[0, 0], [2, 3]]]


def cmap_doc():
    return {"num_qubits": 4, "edges": [[0, 1], [1, 2], [2, 3]]}


def cal_doc():
    from qbos.device import CouplingGraph, synth_calibration
    return synth_calibration(CouplingGraph(4, ((0, 1), (1, 2), (2, 3))), seed=3).to_json()


SELF_LOOP_EDGE = {"pair": [1, 1], "two_qubit_error": 0.01}
NEGATIVE_QUBIT = {"id": -1, "readout_error": 0.02, "t1_us": 100.0, "t2_us": 90.0}
NEGATIVE_EDGE = {"pair": [1, -1], "two_qubit_error": 0.01}


def config_doc():
    return {"synth": True, "gamma_steps": 2, "shots": 1, "runs": 1}


@st.composite
def bad_pairs(draw, others):
    """A value for a qubit pair that is no pair of ints, a self-loop, out of
    range on the 4-qubit path, or a repeat of one of others."""
    return draw(st.one_of(
        json_values.filter(lambda v: not (type(v) is list and len(v) == 2)),
        st.tuples(json_values, json_values).map(list).filter(
            lambda v: not all(type(q) is int for q in v)),
        st.integers(0, 3).map(lambda q: [q, q]),
        st.tuples(st.integers(), st.integers()).map(list).filter(
            lambda v: not all(0 <= q < 4 for q in v)),
        st.sampled_from(others).map(lambda p: [p[1], p[0]]),
    ))


@st.composite
def malformed_matrix(draw):
    doc = matrix_doc()
    i, j, k = draw(st.integers(0, 1)), draw(st.integers(0, 1)), draw(st.integers(0, 1))
    where = draw(st.sampled_from(["doc", "row", "cell", "value", "extra-row", "extra-cell"]))
    if where == "doc":
        # at most 6 leaves, so never the 8 numbers of a 2x2 matrix
        return draw(json_values)
    valid_cell = st.lists(st.integers(-9, 9), min_size=2, max_size=2)
    if where == "extra-row":  # a valid 2x2 matrix plus a valid third row
        doc.append(draw(st.lists(valid_cell, min_size=2, max_size=2)))
    elif where == "extra-cell":  # row i gets a valid third cell
        doc[i].append(draw(valid_cell))
    elif where == "row":
        doc[i] = draw(json_values.filter(
            lambda v: not (type(v) is list and len(v) == 2 and all(map(is_matrix_cell, v)))))
    elif where == "cell":
        doc[i][j] = draw(json_values.filter(lambda v: not is_matrix_cell(v)))
    else:
        doc[i][j][k] = draw(st.one_of(not_number, not_finite, huge_int))
    return doc


@st.composite
def malformed_coupling_map(draw):
    doc = cmap_doc()
    where = draw(st.sampled_from(["doc", "drop", "num_qubits", "edges", "edge"]))
    if where == "doc":
        return draw(json_values)  # keys of at most 4 characters
    if where == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif where == "num_qubits":
        doc["num_qubits"] = draw(st.one_of(not_int, st.integers(max_value=3)))
    elif where == "edges":
        doc["edges"] = draw(json_values.filter(lambda v: type(v) is not list))
    else:
        i = draw(st.integers(0, 2))
        doc["edges"][i] = draw(bad_pairs([e for n, e in enumerate(doc["edges"]) if n != i]))
    return doc


@st.composite
def malformed_calibration(draw):
    doc = cal_doc()
    bad_error = st.one_of(not_number, huge_int,
                          st.floats().filter(lambda v: not 0.0 <= v <= 1.0))
    # an infinite coherence time is valid: it is the error-free limit
    bad_time = st.one_of(not_number, huge_int, st.floats(max_value=0.0),
                         st.sampled_from([math.nan, -math.inf]))
    field_values = {
        "id": st.one_of(not_int, st.integers().filter(lambda q: not 0 <= q < 4)),
        "readout_error": bad_error, "t1_us": bad_time, "t2_us": bad_time,
        "two_qubit_error": bad_error,
    }
    where = draw(st.sampled_from(["doc", "drop", "timestamp", "list", "entry",
                                  "drop-field", "field"]))
    if where == "doc":
        return draw(json_values)
    if where == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
        return doc
    if where == "timestamp":
        doc["timestamp"] = draw(json_values.filter(lambda v: type(v) is not str))
        return doc
    name = draw(st.sampled_from(["qubits", "edges"]))
    if where == "list":
        doc[name] = draw(json_values.filter(lambda v: type(v) is not list))
        return doc
    entries = doc[name]
    i = draw(st.integers(0, len(entries) - 1))
    if where == "entry":
        entries[i] = draw(json_values.filter(lambda v: type(v) is not dict))
        return doc
    key = draw(st.sampled_from(sorted(entries[i])))
    if where == "drop-field":
        del entries[i][key]
    elif key == "pair":
        entries[i][key] = draw(bad_pairs([e["pair"] for n, e in enumerate(entries) if n != i]))
    else:
        entries[i][key] = draw(field_values[key])
    return doc


@st.composite
def malformed_config(draw):
    doc = config_doc()
    names = [f.name for f in fields(SweepConfig)]
    not_bool = json_values.filter(lambda v: v is not None and type(v) is not bool)
    not_str = json_values.filter(lambda v: v is not None and type(v) is not str)
    at_most = lambda n: st.one_of(not_int.filter(lambda v: v is not None),
                                  st.integers(max_value=n))
    values = {
        "gamma_steps": at_most(1), "shots": at_most(0), "runs": at_most(0),
        "seed": at_most(-1), "pairs": at_most(0), "min_separation": at_most(0),
        "noise_scale": st.one_of(not_number.filter(lambda v: v is not None), not_finite,
                                 huge_int, st.floats(max_value=-1e-300)),
        "synth": not_bool, "svg": not_bool,
        "formula_variant": st.one_of(
            not_str, st.text(max_size=9).filter(lambda v: v not in ("paper", "corrected"))),
        "coupling_map": st.one_of(not_str, st.just("no-such-dir/graph.json")),
        "calibration": st.one_of(not_str, st.just("no-such-dir/cal.json")),
        "strategies": st.one_of(
            json_values.filter(lambda v: v is not None and type(v) not in (str, list)),
            st.lists(not_str, min_size=1, max_size=3),
            st.lists(st.sampled_from(["X", "RY(pi/0)", "ry(7)", " ", "H"]),
                     min_size=1, max_size=3).filter(lambda v: v != ["H"]),
        ),
    }
    where = draw(st.sampled_from(["doc", "unknown-key", "value"]))
    if where == "doc":
        return draw(json_values)  # keys of at most 4 characters, so unknown
    if where == "unknown-key":
        key = draw(st.text(min_size=1, max_size=8).filter(
            lambda k: k.replace("-", "_") not in names))
        doc[key] = draw(json_values)
    else:
        # --out is given on the command line and overrides the file's value
        key = draw(st.sampled_from(sorted(values)))
        doc[key] = draw(values[key])
    return doc


MALFORMED = {
    "config": (malformed_config(), config_doc),
    "matrix": (malformed_matrix(), matrix_doc),
    "coupling-map": (malformed_coupling_map(), cmap_doc),
    "calibration": (malformed_calibration(), cal_doc),
}


@st.composite
def malformed_files(draw, kind):
    """("doc", a malformed document), ("text", a cut JSON text), ("bytes", a
    JSON text behind a UTF-16 byte-order mark, not UTF-8) or ("missing", None)."""
    strategy, base = MALFORMED[kind]
    how = draw(st.sampled_from(["doc", "doc", "doc", "text", "bytes", "missing"]))
    if how == "text":
        text = json.dumps(base())
        return how, text[:draw(st.integers(0, len(text) - 1))]
    if how == "bytes":
        return how, b"\xff\xfe" + json.dumps(base()).encode()
    return how, draw(strategy) if how == "doc" else None


def run_on_file(kind, how, content, tmp):
    """Run the command that reads a kind of file on content; (code, stdout, stderr)."""
    path = tmp / "input.json"
    if how == "doc":
        path.write_text(json.dumps(content))
    elif how == "text":
        path.write_text(content)
    elif how == "bytes":
        path.write_bytes(content)
    cmap, cal = tmp / "g.json", tmp / "c.json"
    cmap.write_text(json.dumps(cmap_doc()))
    cal.write_text(json.dumps(cal_doc()))
    out = str(tmp / "out")
    argv = {
        "config": ("sweep", "--config", str(path), "--out", out),
        "matrix": ("equilibrium", "--matrix", str(path)),
        "coupling-map": ("map", "--coupling-map", str(path), "--calibration", str(cal),
                         "--pairs", "1", "--out", out),
        "calibration": ("map", "--coupling-map", str(cmap), "--calibration", str(path),
                        "--pairs", "1", "--out", out),
    }[kind]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run_cli(*argv)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_unmutated_input_files_are_valid(tmp_path, kind):
    code, _, err = run_on_file(kind, "doc", MALFORMED[kind][1](), tmp_path)
    assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_input_file_exits_2_or_3(kind, data):
    how, content = data.draw(malformed_files(kind))
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_on_file(kind, how, content, Path(tmp))
        assert not (Path(tmp) / "out").exists()
    assert code in (EXIT_CONFIG, EXIT_IO), err
    if how == "missing":
        assert code == EXIT_IO, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if how == "text":  # the decoder's message names the cut file
        assert err.startswith(f"error: {Path(tmp) / 'input.json'}: line "), err
    if how == "bytes":
        assert err.startswith(f"error: {Path(tmp) / 'input.json'}: 'utf-8' codec "), err


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("unreadable", ["missing", "directory"])
def test_unreadable_input_file_exits_3(tmp_path, kind, unreadable):
    # a file that cannot be opened is an I/O error, whichever option names it
    if unreadable == "directory":
        (tmp_path / "input.json").mkdir()
    code, out, err = run_on_file(kind, "missing", None, tmp_path)
    assert (code, out) == (EXIT_IO, "")
    assert err.startswith("error: [Errno ") and str(tmp_path / "input.json") in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["config", "matrix", "coupling-map", "calibration", "plan"])
def test_json_loaders_skip_a_utf8_bom(tmp_path, kind):
    from qbos.cli import load_config_file
    from qbos.device import load_calibration, load_coupling_map
    from qbos.gcm import MappingPlan, load_plan
    doc, load = {
        "config": (config_doc(), load_config_file),
        "matrix": (matrix_doc(), parse_matrix),
        "coupling-map": (cmap_doc(), load_coupling_map),
        "calibration": (cal_doc(), load_calibration),
        "plan": (MappingPlan(((1, 2), (5, 6))).to_json(), load_plan),
    }[kind]
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_text(json.dumps(doc))
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load(str(bom)) == load(str(plain))


@pytest.mark.parametrize("kind", ["config", "matrix", "coupling-map", "calibration", "plan"])
def test_deeply_nested_json_is_a_config_error(tmp_path, kind):
    # json's decoder recurses per level; a loader names the file instead of crashing
    from qbos.cli import load_config_file
    from qbos.device import load_calibration, load_coupling_map
    from qbos.gcm import load_plan
    nested = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "input.json"
    path.write_text(nested)
    load = {"config": load_config_file, "matrix": parse_matrix,
            "coupling-map": load_coupling_map, "calibration": load_calibration,
            "plan": load_plan}[kind]
    with pytest.raises(ValueError) as raised:
        load(str(path))
    assert str(raised.value).startswith(f"{path}: ")
    if kind in MALFORMED:
        code, out, err = run_on_file(kind, "text", nested, tmp_path)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "which, edit, message",
    [
        ("coupling-map", lambda d: d.update(num_qubits=1.5),
         "num_qubits must be an integer, got 1.5"),
        ("coupling-map", lambda d: d.update(num_qubits=True),
         "num_qubits must be an integer, got True"),
        ("coupling-map", lambda d: d["edges"].__setitem__(2, [2, "3"]),
         "edges[2] must be two integer qubit ids, got [2, '3']"),
        ("coupling-map", lambda d: d["edges"].__setitem__(2, [2, 3.7]),
         "edges[2] must be two integer qubit ids, got [2, 3.7]"),
        ("coupling-map", lambda d: d["edges"].__setitem__(2, [2, True]),
         "edges[2] must be two integer qubit ids, got [2, True]"),
        ("coupling-map", lambda d: d.pop("edges"), "edges must be a list, got None"),
        ("calibration", lambda d: d["qubits"][2].update(id=2.5),
         "qubits[2].id must be an integer, got 2.5"),
        ("calibration", lambda d: d["edges"][1].update(pair=[1]),
         "edges[1].pair must be two integer qubit ids, got [1]"),
        ("calibration", lambda d: d["qubits"][1].pop("t1_us"),
         "qubits[1].t1_us must be a number, got None"),
        ("calibration", lambda d: d["qubits"][1].update(readout_error="0.02"),
         "qubits[1].readout_error must be a number, got '0.02'"),
        ("calibration", lambda d: d["qubits"][0].update(t1_us=math.nan),
         "qubit 0: coherence times must be positive"),
        ("calibration", lambda d: d["qubits"][3].update(id=9),
         "calibration does not cover every qubit and edge"),
        ("coupling-map", lambda d: d.update(num_qubits=10**12),
         "calibration does not cover every qubit and edge"),
        ("calibration", lambda d: d.update(timestamp=5), "timestamp must be a string, got 5"),
        # the first bad entry in document order, and its first bad field, is named
        ("calibration", lambda d: (d["qubits"][1].update(readout_error="x"),
                                   d["qubits"][3].update(id=1.5)),
         "qubits[1].readout_error must be a number, got 'x'"),
        ("calibration", lambda d: (d["qubits"][2].update(id=2.5), d["qubits"][2].pop("t1_us")),
         "qubits[2].id must be an integer, got 2.5"),
        ("calibration", lambda d: d["qubits"].__setitem__(0, 5),
         "qubits[0].id must be an integer, got None"),
        # an entry is checked whole before the next one is read, and qubits before edges
        ("calibration", lambda d: (d["qubits"][0].update(readout_error=2.0),
                                   d["qubits"][1].update(t1_us="x")),
         "qubit 0: readout_error outside [0,1]"),
        ("calibration", lambda d: (d["qubits"][0].update(readout_error=2.0),
                                   d["edges"][0].update(pair=[0])),
         "qubit 0: readout_error outside [0,1]"),
        ("coupling-map", lambda d: d.update(edges=[[0, 1], [5, 1], [2, 2]]),
         "edge (5,1) out of range"),
        ("coupling-map", lambda d: d.update(edges=[[9, 9], [0, 7]]), "self-loop on qubit 9"),
        ("coupling-map", lambda d: d.update(edges=[[0, 1], [2, 3], [1, 0]]),
         "duplicate edges [(0, 1)]"),
        # entries the coupling map does not need still describe a valid device
        ("calibration", lambda d: d["edges"].append(SELF_LOOP_EDGE),
         "edge (1, 1): pair is a self-loop"),
        ("calibration", lambda d: (d["qubits"].append(NEGATIVE_QUBIT),
                                   d["edges"].append(NEGATIVE_EDGE)),
         "qubit -1: id must be >= 0"),
    ],
    ids=["num-qubits-float", "num-qubits-bool", "edge-id-string", "edge-id-float",
         "edge-id-bool", "edges-missing", "qubit-id-float", "pair-short", "t1-missing",
         "readout-string", "t1-nan", "qubit-id-uncovered", "num-qubits-huge", "timestamp-int",
         "first-entry-wins", "first-field-wins", "entry-not-object", "range-before-later-type",
         "qubits-before-edges", "edge-out-of-range-first", "self-loop-first",
         "duplicate-reversed", "extra-self-loop-pair", "extra-negative-qubit"],
)
def test_map_rejects_malformed_device_files(tmp_path, which, edit, message):
    doc = cmap_doc() if which == "coupling-map" else cal_doc()
    edit(doc)
    code, out, err = run_on_file(which, "doc", doc, tmp_path)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("extra, message", [
    ({"edges": [SELF_LOOP_EDGE]}, "edge (1, 1): pair is a self-loop"),
    ({"qubits": [NEGATIVE_QUBIT], "edges": [NEGATIVE_EDGE]}, "qubit -1: id must be >= 0"),
], ids=["self-loop-pair", "negative-qubit"])
def test_map_names_the_calibration_file_of_an_invalid_extra_entry(tmp_path, extra, message):
    # a calibration that covers the coupling map, plus an entry no device can have
    doc = cal_doc()
    for key, entries in extra.items():
        doc[key].extend(entries)
    code, out, err = run_on_file("calibration", "doc", doc, tmp_path)
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: {tmp_path / 'input.json'}: {message}\n")


def test_map_accepts_calibration_ids_past_int64(tmp_path):
    # a qubit id is any JSON integer: an extra qubit and edge past int64 change nothing
    doc = cal_doc()
    doc["qubits"].append({"id": 2**70, "readout_error": 0.02, "t1_us": 100.0, "t2_us": 90.0})
    doc["edges"].append({"pair": [0, 2**70], "two_qubit_error": 0.01})
    runs = []
    for name, content in (("plain", cal_doc()), ("extra", doc)):
        where = tmp_path / name
        where.mkdir()
        code, out, err = run_on_file("calibration", "doc", content, where)
        runs.append((code, out.replace(str(where), "DIR"), err, (where / "out").read_bytes()))
    assert runs[1] == runs[0]
    assert runs[0][:3] == (EXIT_OK, "selected 1 pairs on 4 qubits -> DIR/out\n"
                           "total score: 0.010732\nseparation check: OK\n", "")


def test_sweep_accepts_calibration_ids_past_int64(tmp_path):
    # the sweep's twin: an extra qubit and a pair from a plan qubit to it couple
    # no two circuits, so the CSV keeps every byte
    doc = cal_doc()
    doc["qubits"].append({"id": 2**70, "readout_error": 0.02, "t1_us": 100.0, "t2_us": 90.0})
    doc["edges"].append({"pair": [0, 2**70], "two_qubit_error": 0.01})
    cmap = tmp_path / "g.json"
    cmap.write_text(json.dumps(cmap_doc()))
    csvs = []
    for name, content in (("plain", cal_doc()), ("extra", doc)):
        cal, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        cal.write_text(json.dumps(content))
        assert run_cli("sweep", "--coupling-map", str(cmap), "--calibration", str(cal),
                       "--gamma-steps", "2", "--min-separation", "1", "--runs", "2",
                       "--shots", "64", "--out", str(out)) == EXIT_OK
        csvs.append(out.read_bytes())
    assert csvs[1] == csvs[0]
    assert len(csvs[0].split(b"\r\n")) == 1 + 2 * 2 * 4 + 1


def cal_doc_with(*edits):
    """cal_doc() with doc[section][i][key] = value for each edit (section, i, key,
    value), and doc[key] = value for each edit (key, value)."""
    doc = cal_doc()
    for *where, key, value in edits:
        (doc[where[0]][where[1]] if where else doc)[key] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=malformed_calibration(), other=malformed_calibration(),
       sections=st.sets(st.sampled_from(["qubits", "edges", "timestamp"])))
@example(doc=cal_doc_with(("qubits", 1, "id", True)), other=None, sections=set())
@example(doc=cal_doc_with(("edges", 1, "pair", [1, 2, 3])), other=None, sections=set())
@example(doc=cal_doc_with(("qubits", 0, "t1_us", 10**400)), other=None, sections=set())
@example(doc=cal_doc_with(("qubits", 2, "readout_error", 1.5),
                          ("edges", 0, "two_qubit_error", -0.5)), other=None, sections=set())
@example(doc=cal_doc_with(("qubits", 1, "t2_us", 0.0), ("timestamp", 5)),
         other=None, sections=set())
@example(doc=cal_doc_with(("qubits", 3, "id", 1), ("edges", 2, "pair", [1, 1])),
         other=None, sections=set())
@example(doc=cal_doc_with(("qubits", 0, "readout_error", 1.5), ("qubits", 2, "id", 2.0)),
         other=None, sections=set())  # a figure's value before a later id's type
def test_columnar_calibration_loader_agrees_with_the_per_entry_oracle(doc, other, sections):
    # one edit of a synth document, and maybe some sections of another such
    # document, so that two faults meet: the loader's bulk column tests give
    # the per-entry parser's values, or its first message exactly
    from qbos.device import CalibrationSnapshot
    if type(doc) is dict and type(other) is dict:
        doc.update({key: other[key] for key in sections if key in other})
    try:
        expected = parse_calibration(doc)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            CalibrationSnapshot.from_json(doc)
        assert str(raised.value) == str(err)
    else:
        cal = CalibrationSnapshot.from_json(doc)
        assert (cal.timestamp, *records(cal)) == expected
