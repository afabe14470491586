"""The argparse tree of qbos: its help and usage errors byte for byte, command
dispatch by name, and a tree kept across main calls that carries nothing
from one call to the next."""

import csv

import pytest

from qbos import cli
from qbos.cli import EXIT_OK, main

TOP_USAGE = "usage: qbos [-h] {equilibrium,sweep,map,validate} ...\n"

SWEEP_USAGE = """\
usage: qbos sweep [-h] [--gamma-steps GAMMA_STEPS] [--shots SHOTS]
                  [--runs RUNS] [--strategies STRATEGIES]
                  [--noise-scale NOISE_SCALE] [--svg]
                  [--formula-variant {paper,corrected}] [--coupling-map PATH]
                  [--calibration PATH] [--synth]
                  [--min-separation MIN_SEPARATION] [--seed SEED]
                  [--config PATH] [--out OUT]
"""

VALIDATE_USAGE = """\
usage: qbos validate [-h] [--formula-variant {paper,corrected}]
                     [--rmse-method {rmse_of_means,mean_of_rmses}] [--out OUT]
                     results
"""

DEVICE_HELP = """\
  --coupling-map PATH   coupling-map JSON file
  --calibration PATH    calibration JSON file
  --synth               synthesize a 127-qubit heavy-hex device instead of
                        loading files
  --min-separation MIN_SEPARATION
                        minimum graph distance between mapped pairs (default
                        2)
  --seed SEED           master random seed
  --config PATH         JSON config file (flags override it)
  --out OUT             output path
"""

# stdout of `qbos [COMMAND] --help` at 80 columns
HELP = {
    "qbos": TOP_USAGE + """
Quantum Battle of the Sexes: simulation, mapping and validation

positional arguments:
  {equilibrium,sweep,map,validate}
    equilibrium         classical mixed-equilibrium report
    sweep               noisy payoff sweep over the gamma grid
    map                 select separated low-error qubit pairs
    validate            statistical validation of a sweep CSV

options:
  -h, --help            show this help message and exit
""",
    "equilibrium": """\
usage: qbos equilibrium [-h] [--matrix MATRIX] [--json]

options:
  -h, --help       show this help message and exit
  --matrix MATRIX  payoff preset (bos, identity-coordination) or JSON file
  --json           emit JSON instead of text
""",
    "sweep": SWEEP_USAGE + """
options:
  -h, --help            show this help message and exit
  --gamma-steps GAMMA_STEPS
  --shots SHOTS
  --runs RUNS
  --strategies STRATEGIES
                        comma list out of I,H,RY(pi/4),RY(pi)
  --noise-scale NOISE_SCALE
  --svg                 also write one SVG plot per strategy
  --formula-variant {paper,corrected}
""" + DEVICE_HELP,
    "map": """\
usage: qbos map [-h] [--pairs PAIRS] [--coupling-map PATH]
                [--calibration PATH] [--synth]
                [--min-separation MIN_SEPARATION] [--seed SEED]
                [--config PATH] [--out OUT]

options:
  -h, --help            show this help message and exit
  --pairs PAIRS         number of pairs
""" + DEVICE_HELP,
    "validate": VALIDATE_USAGE + """
positional arguments:
  results               CSV produced by the sweep command

options:
  -h, --help            show this help message and exit
  --formula-variant {paper,corrected}
  --rmse-method {rmse_of_means,mean_of_rmses}
  --out OUT             also write the report as JSON
""",
}


def exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    return (exit_info.value.code, *capsys.readouterr())


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "qbos" else [command, "--help"]
    assert exit_of(main, argv, capsys) == (0, HELP[command], "")


@pytest.mark.parametrize(
    "argv, err",
    [
        ([], TOP_USAGE + "qbos: error: the following arguments are required: command\n"),
        (["bogus"], TOP_USAGE + "qbos: error: argument command: invalid choice: 'bogus' "
                                "(choose from 'equilibrium', 'sweep', 'map', 'validate')\n"),
        (["sweep", "--workers", "2"], TOP_USAGE + "qbos: error: unrecognized arguments: "
                                                  "--workers 2\n"),
        (["sweep", "--runs", "abc"],
         SWEEP_USAGE + "qbos sweep: error: argument --runs: invalid int value: 'abc'\n"),
        (["validate"], VALIDATE_USAGE + "qbos validate: error: the following arguments "
                                        "are required: results\n"),
    ],
    ids=["no-command", "unknown-command", "unknown-flag", "non-int-runs", "validate-no-file"],
)
def test_usage_errors_exit_2(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_of(main, argv, capsys) == (2, "", err)


def test_help_follows_the_terminal_width_of_each_call(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_of(main, ["sweep", "--help"], capsys) == (0, HELP["sweep"], "")
    monkeypatch.setenv("COLUMNS", "40")
    fresh = cli.build_parser.__wrapped__()  # a tree built while COLUMNS is 40
    narrow = exit_of(fresh.parse_args, ["sweep", "--help"], capsys)
    assert narrow[1] != HELP["sweep"]
    assert exit_of(main, ["sweep", "--help"], capsys) == narrow
    assert (exit_of(main, ["bogus"], capsys)
            == exit_of(fresh.parse_args, ["bogus"], capsys))


def test_main_calls_the_command_bound_at_call_time(capsys, monkeypatch):
    assert main(["equilibrium"]) == EXIT_OK
    calls = []

    def stub(args):
        calls.append(args)
        return 7

    monkeypatch.setattr(cli, "cmd_map", stub)
    argv = ["map", "--synth", "--pairs", "3"]
    assert main(argv) == 7
    assert calls == [cli.build_parser().parse_args(argv)]
    assert calls[0].pairs == 3 and calls[0].synth


def test_a_kept_parser_carries_nothing_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--synth", "--gamma-steps", "2", "--shots", "16", "--out", str(out)]
    assert main([*argv, "--runs", "3", "--svg"]) == EXIT_OK
    svgs = list(tmp_path.glob("*.svg"))
    assert len(svgs) == 4
    for svg in svgs:
        svg.unlink()
    assert main(argv) == EXIT_OK
    with open(out, newline="") as fh:
        runs = [row["run"] for row in csv.DictReader(fh)]
    assert len(runs) == 4 * 2 * 5 and set(runs) == {"0", "1", "2", "3", "4"}
    assert not list(tmp_path.glob("*.svg"))
