"""End-to-end CLI tests: artifacts, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qbos.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    SweepConfig,
    main,
    parse_matrix,
)


def run_cli(*argv):
    return main(list(argv))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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


# --- equilibrium ----------------------------------------------------------------------

def test_equilibrium_default(capsys):
    assert run_cli("equilibrium") == EXIT_OK
    out = capsys.readouterr().out
    assert "0.6" in out and "0.4" in out and "1.2" in out and "108.33" in out


def test_equilibrium_identity_preset(capsys):
    assert run_cli("equilibrium", "--matrix", "identity-coordination", "--json") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["p_alice"] == pytest.approx(0.5)
    assert doc["q_bob"] == pytest.approx(0.5)


def test_equilibrium_malformed_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[[3, 2], ["x", 0]], [[0, 0], [2, 3]]]))
    assert run_cli("equilibrium", "--matrix", str(path)) == EXIT_CONFIG
    assert "cell" in capsys.readouterr().err


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


def test_sweep_byte_identical_reruns_and_parallel(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["sweep", "--synth", "--gamma-steps", "6", "--runs", "3",
            "--shots", "256", "--seed", "13"]
    assert run_cli(*args, "--out", str(a)) == EXIT_OK
    assert run_cli(*args, "--out", str(b)) == EXIT_OK
    assert run_cli(*args, "--out", str(c), "--workers", "4") == EXIT_OK
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_sweep_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--synth", "--gamma-steps", "4", "--runs", "2",
            "--shots", "256", "--strategies", "I"]
    assert run_cli(*base, "--seed", "1", "--out", str(a)) == EXIT_OK
    assert run_cli(*base, "--seed", "2", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()


def test_sweep_unwritable_output(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "sweep.csv"
    code = run_cli("sweep", "--synth", "--gamma-steps", "4", "--runs", "1",
                   "--shots", "32", "--out", str(out))
    assert code == EXIT_IO


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
    doc = json.loads(out.read_text())
    assert doc["min_separation"] == 2
    assert len(doc["assignments"]) == 31
    qubits = [q for e in doc["assignments"] for q in e["pair"]]
    assert len(set(qubits)) == 62


def test_map_infeasible_k(tmp_path, capsys):
    code = run_cli("map", "--synth", "--pairs", "200",
                   "--out", str(tmp_path / "x.json"))
    assert code == EXIT_INFEASIBLE
    assert "achievable" in capsys.readouterr().err


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
    "argv, config",
    [
        (("map", "--synth"), {"pairs": "5"}),
        (("sweep", "--synth"), {"shots": "abc"}),
        (("sweep", "--synth"), {"runs": True}),
        (("sweep",), {"synth": "yes"}),
        (("sweep", "--synth"), {"strategies": [1, 2]}),
        (("sweep", "--synth", "--noise-scale", "nan"), None),
        (("sweep", "--synth", "--noise-scale", "inf"), None),
        (("sweep", "--synth", "--strategies", "RY(pi/0)"), None),
        (("sweep", "--coupling-map", "graph.json", "--calibration", "cal.json",
          "--seed", "-1"), None),
        (("sweep", "--synth", "--strategies", "H,I,H"), None),
        (("sweep", "--synth", "--strategies", "RY(pi/" + "9" * 400 + ")"), None),
    ],
    ids=["map-pairs-str", "sweep-shots-str", "sweep-runs-bool", "sweep-synth-str",
         "sweep-strategies-ints", "noise-scale-nan", "noise-scale-inf", "ry-pi-over-0",
         "negative-seed-with-files", "sweep-strategies-repeated", "ry-pi-over-huge"],
)
def test_bad_config_values_exit_config(tmp_path, capsys, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    if "graph.json" in argv:
        from qbos.device import heavy_hex_graph, synth_calibration
        g = heavy_hex_graph(2)
        g.save("graph.json")
        synth_calibration(g, seed=1).save("cal.json")
    extra = ()
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        extra = ("--config", str(tmp_path / "cfg.json"))
    code = run_cli(*argv, *extra, "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
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
    doc = json.loads(report_path.read_text())
    for sv in doc["strategies"]:
        assert sv["rmse_a"] <= 3 / math.sqrt(2048 * 3)
        assert sv["rmse_b"] <= 3 / math.sqrt(2048 * 3)


def test_validate_round_trips_sweep_analytics(tmp_path):
    res = sweep_fixture(tmp_path)
    rows = read_rows(res)
    from qbos.game import Strategy, analytical_payoffs
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


def test_validate_bad_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("strategy,gamma\nI,0.0\n")
    assert run_cli("validate", str(bad)) == EXIT_SCHEMA
    assert "columns" in capsys.readouterr().err


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
        ({"ea": lambda v: repr(float(v) + 1e-6)}, "but p00..p11 give"),
        ({"eb": lambda v: repr(float(v) - 1e-6)}, "but p00..p11 give"),
        # p01 and p10 carry no payoff, so moving mass between them keeps the
        # sum and ea/eb while p01 goes negative
        ({"p01": lambda v: repr(float(v) - 0.5), "p10": lambda v: repr(float(v) + 0.5)},
         "p01 = -0.5 is outside [0, 1]"),
    ],
    ids=["gamma-nan", "p01-inf", "ea-neg-inf", "eb-nan", "p00-unnormalized",
         "ea-tampered", "eb-tampered", "p01-negative"],
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


def test_validate_short_row(tmp_path, capsys):
    res = sweep_fixture(tmp_path)
    with open(res, "a") as fh:
        fh.write("I,0.0,9,1.0\n")
    assert run_cli("validate", str(res)) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable results row: ") and err.count("\n") == 1


def test_validate_missing_file(tmp_path):
    assert run_cli("validate", str(tmp_path / "absent.csv")) == EXIT_IO


def test_validate_rmse_method_flag(tmp_path, capsys):
    res = sweep_fixture(tmp_path, noise_scale="1.0", steps="5", runs="3")
    assert run_cli("validate", str(res), "--rmse-method", "mean_of_rmses") == EXIT_OK
    assert "RMSE" in capsys.readouterr().out


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
