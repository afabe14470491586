"""Command-line orchestration: equilibrium, sweep, map and validate.

Configuration precedence: command-line flags override values from an
optional JSON --config file, which override built-in defaults.  Every
command is deterministic given (config, seed): a sweep samples each
(strategy, circuit, run) cell from its own derived seed on one thread and
writes rows in canonical order, so repeated invocations produce
byte-identical artifacts.

The sweep CSV is UTF-8 with CRLF line ends, the last line included, and no
quoted field: labels are the canonical strategy labels, and every float is
written as its Python repr.  These are the bytes csv.writer writes with its
defaults; the sweep builds them as one text from the count arrays and
writes it with one call.

The parser is built once per process, on the first main call; main dispatches
by command name, to the cmd_* function the module holds at that call.

Exit codes: 0 success, 2 config/matrix error, 3 I/O error, 4 mapping
infeasible, 5 validation schema error.  Commands raise CommandError for 2, 5
and a failed write; main maps every other OSError to 3,
gcm.InfeasibleMappingError to 4 and a MemoryError, a request too large for
the host, to 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import device, game, gcm, noise, stats
from .device import _check_column, _load
from .statevec import check_shots, derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4
EXIT_SCHEMA = 5

CSV_COLUMNS = (
    "strategy", "gamma", "run",
    "p00", "p01", "p10", "p11",
    "ea", "eb", "ea_analytic", "eb_analytic",
)

HEAVY_HEX_DISTANCE_127 = 6

BOS = game.BATTLE_OF_SEXES


class CommandError(Exception):
    """CommandError(code, message) ends a command: main prints
    "error: <message>" and returns code."""


# SweepConfig field annotation, " | None" stripped -> its device._CHECKS description
_FIELD_TYPES = {"int": "an integer", "float": "a number", "bool": "true or false",
                "str": "a string", "tuple[str, ...]": "a list of strings"}


@dataclass
class SweepConfig:
    gamma_steps: int = 31
    shots: int = 2048
    runs: int = 5
    seed: int = 0
    strategies: tuple[str, ...] = tuple(s.label for s in game.CANONICAL_STRATEGIES)
    noise_scale: float = 1.0
    coupling_map: str | None = None
    calibration: str | None = None
    synth: bool = False
    pairs: int | None = None
    min_separation: int = 2
    out: str | None = None
    svg: bool = False
    formula_variant: str = "corrected"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (f.type.endswith(" | None") and value is None):
                _check_column((value,), _FIELD_TYPES[f.type.removesuffix(" | None")],
                              f.name.replace("_", "-"))
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(
                f"noise-scale must be a finite number >= 0, got {self.noise_scale!r}"
            )
        if self.gamma_steps < 2:
            raise ValueError("gamma-steps must be >= 2")
        check_shots(self.shots)
        if not 1 <= self.runs < 2**32:  # a run index is one 32-bit seed word
            raise ValueError(f"runs must be in [1, 2**32), got {self.runs}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.pairs is not None and self.pairs < 1:
            raise ValueError("pairs must be >= 1")
        if self.min_separation < 1:
            raise ValueError("min-separation must be >= 1")
        if self.formula_variant not in ("paper", "corrected"):
            raise ValueError(f"unknown formula variant {self.formula_variant!r}")
        if not self.strategies:
            raise ValueError("strategies must name at least one strategy")
        known = {s.label for s in game.CANONICAL_STRATEGIES}
        parsed = tuple(game.Strategy.parse(label).label for label in self.strategies)
        unknown = [label for label in parsed if label not in known]
        if unknown:
            raise ValueError(f"strategies outside the evaluated set: {unknown}")
        if len(set(parsed)) != len(parsed):
            raise ValueError(f"strategies listed more than once: {list(parsed)}")
        self.strategies = parsed

    @classmethod
    def resolve(cls, file_values: dict, cli_values: dict) -> "SweepConfig":
        merged: dict = {}
        names = {f.name for f in fields(cls)}
        for source in (file_values, cli_values):
            for key, value in source.items():
                norm = key.replace("-", "_")
                if norm not in names:
                    raise ValueError(f"unknown config key {key!r}")
                if value is not None:
                    merged[norm] = value
        if "strategies" in merged and isinstance(merged["strategies"], str):
            merged["strategies"] = tuple(
                s for s in (t.strip() for t in merged["strategies"].split(",")) if s
            )
        return cls(**merged)


def _config_object(doc) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def load_config_file(path) -> dict:
    return _load(path, _config_object)


def parse_matrix(spec_text: str) -> game.PayoffMatrix:
    """A payoff matrix from a preset name or a JSON file of 2x2 [a, b] cells."""
    presets = {
        "bos": game.PayoffMatrix.battle_of_sexes,
        "default": game.PayoffMatrix.battle_of_sexes,
        "identity-coordination": game.PayoffMatrix.identity_coordination,
    }
    if spec_text in presets:
        return presets[spec_text]()
    return _load(spec_text, _matrix_from_json)


def _matrix_from_json(doc) -> game.PayoffMatrix:
    cells = []
    for i in (0, 1):
        row = []
        for j in (0, 1):
            try:
                cell = doc[i][j]
            except (LookupError, TypeError) as err:
                raise ValueError(f"matrix cell ({i},{j}) is malformed: {err}") from err
            if not (isinstance(cell, list) and len(cell) == 2 and all(map(game.is_number, cell))):
                raise ValueError(f"matrix cell ({i},{j}) must be two numbers, got {cell!r}")
            row.append((float(cell[0]), float(cell[1])))
        cells.append(tuple(row))
    if len(doc) != 2 or len(doc[0]) != 2 or len(doc[1]) != 2:  # the loop read a 2x2 corner
        raise ValueError("matrix must hold exactly 2 rows of 2 cells")
    return game.PayoffMatrix(tuple(cells))


def _config_and_device(args):
    """The resolved config, coupling graph and calibration of sweep and map."""
    try:
        file_values = load_config_file(args.config) if args.config else {}
        cfg = SweepConfig.resolve(file_values, _cli_values(args))
        graph, calib = _resolve_device(cfg)
    except ValueError as err:
        raise CommandError(EXIT_CONFIG, err)
    return cfg, graph, calib


def _resolve_device(cfg: SweepConfig):
    """Graph and calibration from files, or synthesized with --synth."""
    if cfg.coupling_map:
        graph = device.load_coupling_map(cfg.coupling_map)
    elif cfg.synth:
        graph = device.heavy_hex_graph(HEAVY_HEX_DISTANCE_127)
    else:
        raise ValueError("no coupling map: pass --coupling-map PATH or --synth")
    if cfg.calibration:
        calib = device.load_calibration(cfg.calibration)
    elif cfg.synth:
        calib = device.synth_calibration(graph, seed=cfg.seed, profile="realistic")
    else:
        raise ValueError("no calibration: pass --calibration PATH or --synth")
    if not calib.covers(graph):
        raise ValueError("calibration does not cover every qubit and edge of the coupling map")
    return graph, calib


# --- equilibrium -----------------------------------------------------------------

def cmd_equilibrium(args) -> int:
    try:
        matrix = parse_matrix(args.matrix)
        eq = game.classical_mixed_equilibrium(matrix)
    except ValueError as err:
        raise CommandError(EXIT_CONFIG, err)
    # the maximally entangled state under identity strategies gives |00> and
    # |11> with probability 1/2 each
    quantum_equal = (matrix.alice(0, 0) + matrix.alice(1, 1)) / 2
    try:
        advantage = game.advantage_percent(quantum_equal, eq.e_a)
    except ValueError:
        advantage = None
    doc = {
        "p_alice": eq.p_alice,
        "q_bob": eq.q_bob,
        "e_a": eq.e_a,
        "e_b": eq.e_b,
        "coordination_prob": eq.coordination_prob,
        "quantum_equal_payoff": quantum_equal,
        "advantage_percent": advantage,
    }
    for name, value in doc.items():  # finite cells can overflow; JSON has no inf or nan
        if value is not None and not math.isfinite(value):
            raise CommandError(EXIT_CONFIG, f"the matrix gives {name} = {value!r}, not finite")
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        # the first five report values, each labelled in a 20-column field
        labels = ("p_alice", "q_bob", "e_a", "e_b", "coordination prob")
        for label, value in zip(labels, doc.values()):
            print(f"{label:<20}= {value:.6g}")
        if advantage is not None:
            relation = "exceeds" if advantage >= 0 else "falls short of"
            print(f"equal quantum payoff {quantum_equal} {relation} e_a by {abs(advantage):.2f}%")
    return EXIT_OK


# --- sweep ----------------------------------------------------------------------

def _sweep_rows(cfg: SweepConfig, calib, plan):
    """The strategies in canonical order, their (strategy, circuit, run, 2)
    payoffs and (circuit, 2) analytic curves, and the CSV line of every row of
    a sweep, without its line end, in canonical (strategy, circuit, run) order.

    One noise.job_counts call evolves and samples every strategy's cells.
    Strategy s samples cell (i, run) from derive_seed(derive_seed(seed, s), i,
    run), s being its canonical index, so every cell's counts are fixed by the
    config alone and a strategy's rows do not depend on which other strategies
    the sweep holds.

    Fields are reprs, as the module docstring says.  counts / shots divides
    elementwise, so every cell holding a count gets the same frequency bits.
    The six float columns p00..p11, ea and eb of all strategies share one
    repr table: each distinct float, told apart by its bits so that -0.0 and
    0.0 stay apart, is formatted once.  The label, gamma and run columns, and
    the analytic pair of each (strategy, circuit), repeat texts formatted once
    per value, and each line is one join of its row's fields.
    """
    grid = game.default_gamma_grid(cfg.gamma_steps)
    model = noise.NoiseModel(scale=cfg.noise_scale)
    canonical = {s.label: idx for idx, s in enumerate(game.CANONICAL_STRATEGIES)}
    labels = sorted(cfg.strategies, key=canonical.__getitem__)
    strategies = [game.Strategy.parse(label) for label in labels]
    seeds = [derive_seed(cfg.seed, canonical[label]) for label in labels]
    counts = noise.job_counts(plan, grid, [(s, s) for s in strategies], calib, model,
                              cfg.shots, cfg.runs, seeds)
    freqs = counts / cfg.shots
    payoffs = game.payoff_table(freqs, BOS)

    floats = np.concatenate([freqs, payoffs], axis=-1).reshape(-1, 6)
    distinct, index = np.unique(floats.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    columns = texts[index.reshape(-1, 6).T].tolist()  # p00, p01, p10, p11, ea, eb

    gammas = [text for text in map(repr, grid) for _ in range(cfg.runs)] * len(labels)
    runs = list(map(str, range(cfg.runs))) * (len(grid) * len(labels))
    curves = [game.analytical_curves(s, grid, cfg.formula_variant) for s in strategies]
    heads, tails = [], []
    for label, curve in zip(labels, curves):
        heads += [label] * (len(grid) * cfg.runs)
        for ana_a, ana_b in curve.tolist():
            tails += [f"{ana_a!r},{ana_b!r}"] * cfg.runs
    lines = list(map(",".join, zip(heads, gammas, runs, *columns, tails)))
    return labels, payoffs, curves, lines


def _svg_plot(path, label, grid, curves, means, halves) -> None:
    """Static SVG: analytic curves plus run means with CI bars; curves, means
    and CI half-widths hold one (alice, bob) pair per gamma."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 40, 50
    values = [v for pair in curves for v in pair]
    values += [v for pair_m, pair_h in zip(means, halves)
               for m, h in zip(pair_m, pair_h) for v in (m - h, m + h)]
    lo = min(0.0, min(values)) - 0.1
    hi = max(values) + 0.1

    def x(gamma):
        return ml + (width - ml - mr) * gamma / grid[-1]

    def y(v):
        return height - mb - (height - mt - mb) * (v - lo) / (hi - lo)

    def polyline(series, color, dash=""):
        pts = " ".join(f"{x(g):.2f},{y(v):.2f}" for g, v in zip(grid, series))
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
            f'points="{pts}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">'
        f"Payoffs vs entanglement angle, strategy {label}</text>",
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(width - mr + ml) / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">gamma (rad)</text>',
        f'<text x="16" y="{(height - mb + mt) / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 16 {(height - mb + mt) / 2:.0f})" '
        f'text-anchor="middle">payoff</text>',
    ]
    for tick in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        parts.append(
            f'<line x1="{x(tick):.2f}" y1="{height - mb}" x2="{x(tick):.2f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x(tick):.2f}" y="{height - mb + 18}" text-anchor="middle" '
            f'font-size="10">{tick:.3g}</text>'
        )
    v = lo
    while v <= hi:
        tick = round(v, 1)
        if tick >= lo:
            parts.append(
                f'<line x1="{ml - 5}" y1="{y(tick):.2f}" x2="{ml}" y2="{y(tick):.2f}" '
                f'stroke="black"/>'
            )
            parts.append(
                f'<text x="{ml - 8}" y="{y(tick) + 3:.2f}" text-anchor="end" '
                f'font-size="10">{tick:.2g}</text>'
            )
        v += 0.5
    parts.append(polyline([a for a, _ in curves], "#1f77b4"))
    parts.append(polyline([b for _, b in curves], "#ff7f0e", dash=' stroke-dasharray="5,3"'))
    for g, pair_m, pair_h in zip(grid, means, halves):
        for m, h, color, dx in zip(pair_m, pair_h, ("#1f77b4", "#ff7f0e"), (-2, 2)):
            cx = x(g) + dx
            parts.append(
                f'<line x1="{cx:.2f}" y1="{y(m - h):.2f}" x2="{cx:.2f}" y2="{y(m + h):.2f}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
            parts.append(f'<circle cx="{cx:.2f}" cy="{y(m):.2f}" r="2.5" fill="{color}"/>')
    parts.append(
        f'<text x="{width - mr - 10}" y="{mt + 12}" text-anchor="end" font-size="11" '
        f'fill="#1f77b4">E_A (solid: analytic, dots: runs)</text>'
    )
    parts.append(
        f'<text x="{width - mr - 10}" y="{mt + 28}" text-anchor="end" font-size="11" '
        f'fill="#ff7f0e">E_B (dashed: analytic, dots: runs)</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def cmd_sweep(args) -> int:
    cfg, graph, calib = _config_and_device(args)
    plan = gcm.select_pairs(graph, calib, cfg.gamma_steps, cfg.min_separation)
    out = cfg.out or "sweep.csv"
    labels, payoffs, curves, lines = _sweep_rows(cfg, calib, plan)
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            # "\r\n" ends every line, as csv.writer's default terminator does
            fh.write("\r\n".join([",".join(CSV_COLUMNS), *lines, ""]))
    except OSError as err:
        raise CommandError(EXIT_IO, f"cannot write {out}: {err}")

    if cfg.svg:
        grid = game.default_gamma_grid(cfg.gamma_steps)
        stem = out.removesuffix(".csv")
        for label, cells, curve in zip(labels, payoffs, curves):
            # the (gamma, player, run) series of the strategy, contiguous along the runs
            series = np.ascontiguousarray(cells.transpose(0, 2, 1))
            if cfg.runs >= 2:
                means, _, halves = stats._run_statistics(series)
            else:  # the one run's values, without a confidence bar
                means, halves = series[..., 0], np.zeros(series.shape[:2])
            safe = label.replace("(", "_").replace(")", "").replace("/", "_")
            try:
                _svg_plot(f"{stem}_{safe}.svg", label, grid,
                          curve.tolist(), means.tolist(), halves.tolist())
            except OSError as err:
                raise CommandError(EXIT_IO, f"cannot write SVG: {err}")
    print(f"wrote {len(lines)} rows to {out}")
    return EXIT_OK


# --- map -------------------------------------------------------------------------

def cmd_map(args) -> int:
    cfg, graph, calib = _config_and_device(args)
    k = cfg.pairs if cfg.pairs is not None else cfg.gamma_steps
    plan = gcm.select_pairs(graph, calib, k, cfg.min_separation)
    ok, violation = gcm.verify_separation(plan, graph)
    out = cfg.out or "mapping_plan.json"
    try:
        plan.save(out)
    except OSError as err:
        raise CommandError(EXIT_IO, f"cannot write {out}: {err}")
    print(f"selected {k} pairs on {graph.num_qubits} qubits -> {out}")
    print(f"total score: {gcm.plan_score(plan, calib):.6f}")
    print(f"separation check: {'OK' if ok else f'FAIL ({violation})'}")
    return EXIT_OK


# --- validate ----------------------------------------------------------------------

NUMERIC_COLUMNS = ("gamma", "p00", "p01", "p10", "p11", "ea", "eb")
ROW_TOL = 1e-9
PLAIN_RUN = re.compile(r"0|[1-9][0-9]*")  # a run index as the sweep writes it
BLANKS = "".join(filter(str.isspace, map(chr, range(128))))  # \t-\r, \x1c-\x1f and space


def _plain_columns(data: bytes):
    """The header and the columns (name -> field texts, blank rows dropped) of
    a plain results file, or None for any other file.

    A file is plain when, after an optional UTF-8 byte-order mark, it is ASCII,
    holds no quote or blank but its line breaks, holds no '_' after its header
    line, has no line longer than csv.field_size_limit(), and every non-empty
    line after the header holds len(header) fields.  csv.reader reads the same
    header and fields (NULs too; an empty first line is the header []), so the
    sweep's own files, which are plain, are split once: the non-empty lines joined
    with ",\n," split at commas into rows * (len(header) + 1) - 1 fields, every
    (len(header) + 1)-th the "\n" that no plain line holds.
    """
    data = data.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    start = re.match(rb"[^\r\n]*", data).end()  # the header line
    marks = (BLANKS + '"').encode().translate(None, b"\r\n")  # line breaks end rows
    if not data.isascii() or any(data.find(c) >= 0 for c in marks) or data.find(b"_", start) >= 0:
        return None
    lines = data.decode("ascii").splitlines() or [""]
    header = lines[0].split(",") if lines[0] else []
    body = list(filter(None, lines[1:]))
    if len(data) > csv.field_size_limit() and max(map(len, lines)) > csv.field_size_limit():
        return None
    if not body:
        return header, {}
    rows, width = len(body), len(header) + 1  # a row's fields and the "\n" that ends it
    joined = ",\n,".join(body)
    del lines, body  # dropped before the split: joined holds every line
    flat = joined.split(",")
    del joined
    if len(flat) != rows * width - 1 or flat[len(header)::width].count("\n") != rows - 1:
        return None
    return header, {name: flat[i::width] for i, name in enumerate(header)}


def _check_fields(columns, plain: bool, run_texts) -> None:
    """Reject the first field that is not ASCII or holds a blank or '_', and the
    first run that is not a plain decimal int: int() and float() read them, the
    sweep never writes them.  Unless the file is plain (_plain_columns) and
    every distinct run text (run_texts) passes, each column's joined text is
    checked, and only the fields of the columns that fail are scanned one by one."""

    def blank(text):  # not ASCII, or holding a blank or '_'
        return not text.isascii() or any(c in text for c in BLANKS + "_")

    if plain and all(map(PLAIN_RUN.fullmatch, run_texts)):
        return
    suspect = [column for column, texts in columns.items() if blank("".join(texts))
               or column == "run" and not all(map(PLAIN_RUN.fullmatch, run_texts))]
    for n, row in enumerate(zip(*map(columns.get, suspect)), 1):
        for column, field in zip(suspect, row):
            if blank(field):
                reason = "holds a blank, '_' or a non-ASCII character"
            elif column == "run" and not PLAIN_RUN.fullmatch(field):
                reason = "is not a plain decimal int"
            else:
                continue
            raise CommandError(EXIT_SCHEMA, f"results row {n}: {column} = {field!r} {reason}")


def _check_rows(values) -> None:
    """Reject the first non-finite value, gamma outside [0, pi], unnormalized
    row, probability outside [0, 1], or ea/eb that the row's p00..p11 do not
    give under the Battle of the Sexes matrix."""

    def fail(n, message):
        raise CommandError(EXIT_SCHEMA, f"results row {n + 1}: {message}")

    bad = ~np.isfinite(values)  # each 2-D scan is located only when it finds a fault
    if bad.any():
        n, c = np.argwhere(bad)[0]
        fail(n, f"{NUMERIC_COLUMNS[c]} = {float(values[n, c])!r} is not finite")
    gamma = values[:, 0]
    bad = np.flatnonzero((gamma < -game.GAMMA_SLACK) | (gamma > math.pi + game.GAMMA_SLACK))
    if len(bad):
        fail(bad[0], f"gamma = {float(gamma[bad[0]])!r} is outside [0, pi]")
    probs, paid = values[:, 1:5], values[:, 5:7]
    with np.errstate(over="ignore"):  # finite values can sum to inf, which fails below
        total = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(total - 1.0) > ROW_TOL)
    if len(bad):
        fail(bad[0], f"p00..p11 sum to {float(total[bad[0]])!r}, not 1 within {ROW_TOL}")
    bad = (probs < -ROW_TOL) | (probs > 1.0 + ROW_TOL)
    if bad.any():
        n, c = np.argwhere(bad)[0]
        fail(n, f"{NUMERIC_COLUMNS[1 + c]} = {float(probs[n, c])!r} is outside [0, 1]")
    derived = game.payoff_table(probs, BOS)
    bad = np.abs(derived - paid) > ROW_TOL
    if bad.any():
        n, c = np.argwhere(bad)[0]
        fail(n, f"{NUMERIC_COLUMNS[5 + c]} = {float(paid[n, c])!r} but p00..p11 give "
                f"{float(derived[n, c])!r}")


def cmd_validate(args) -> int:
    with open(args.results, "rb") as fh:
        data = fh.read()
    # a plain file, as the sweep writes it, is split at its commas; any other
    # goes through csv.reader, which gives the same header and fields
    split = _plain_columns(data)
    plain = split is not None
    ragged = None  # (n, fields) of the first row whose field count is not the header's
    if plain:  # a plain file's rows all hold len(header) fields
        header, columns = split
    else:
        try:
            reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                                                 newline=""))
            header = next(reader, [])
            rows = [row for row in reader if row]
        except (UnicodeDecodeError, csv.Error) as err:  # csv.Error: a field past the size limit
            raise CommandError(EXIT_SCHEMA, f"{args.results}: {err}")
        ragged = next(((n, len(row)) for n, row in enumerate(rows, 1)
                       if len(row) != len(header)), None)
        columns = dict(zip(header, zip(*rows)))
        del reader, rows  # the columns hold every field
    del data, split
    missing = [c for c in CSV_COLUMNS if c not in header]
    extra = [c for c in header if c not in CSV_COLUMNS]
    if missing or extra:
        raise CommandError(EXIT_SCHEMA, f"bad columns: missing {missing or 'none'}, "
                                        f"unexpected {extra or 'none'}")
    repeated = [c for c in dict.fromkeys(header) if header.count(c) > 1]
    if repeated:
        raise CommandError(EXIT_SCHEMA, f"bad columns: repeated {repeated}")
    if not columns:
        raise CommandError(EXIT_SCHEMA, "results file holds no rows")
    if ragged:
        raise CommandError(EXIT_SCHEMA, f"unreadable results row: row {ragged[0]} has "
                                        f"{ragged[1]} fields, expected {len(header)}")
    gamma_texts, gamma_code = stats.distinct_codes(columns["gamma"])
    run_texts, run_code = stats.distinct_codes(columns["run"])
    _check_fields(columns, plain, run_texts)
    n = len(run_code)
    try:
        # distinct gamma texts, every p00..eb field, distinct run texts: the first unreadable raises
        gamma = np.array(list(map(float, gamma_texts)))[gamma_code]
        texts = itertools.chain.from_iterable(map(columns.get, NUMERIC_COLUMNS[1:]))
        values = np.fromiter(map(float, texts), float, count=(len(NUMERIC_COLUMNS) - 1) * n)
        values = np.vstack((gamma, values.reshape(-1, n))).T
        runs = stats.exact_runs(list(map(int, run_texts)))[run_code]  # each distinct run typed once
    except ValueError as err:
        raise CommandError(EXIT_SCHEMA, f"unreadable results row: {err}")
    _check_rows(values)

    # over the whole column, so that the angle kept of 0.0 and -0.0 does not move
    gammas, gamma_index = np.unique(values[:, 0], return_inverse=True)
    try:
        report = stats.report_from_cells(
            columns["strategy"], gamma_index, runs, values[:, 5:7],
            gammas.tolist(), args.formula_variant, BOS, args.rmse_method,
        )
    except ValueError as err:  # stats.SchemaError included
        raise CommandError(EXIT_SCHEMA, f"{args.results}: {err}")
    if args.out:  # written first, so that exit 3 prints no report
        try:
            report.save(args.out)
        except OSError as err:
            raise CommandError(EXIT_IO, f"cannot write {args.out}: {err}")
    print(report.to_text())
    return EXIT_OK


# --- wiring -----------------------------------------------------------------------

def _cli_values(args) -> dict:
    values = {}
    for f in fields(SweepConfig):
        v = getattr(args, f.name, None)
        if v is not None and v is not False:
            values[f.name] = v
    return values


def _add_device_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coupling-map", metavar="PATH", help="coupling-map JSON file")
    p.add_argument("--calibration", metavar="PATH", help="calibration JSON file")
    p.add_argument("--synth", action="store_true", default=False,
                   help="synthesize a 127-qubit heavy-hex device instead of loading files")
    p.add_argument("--min-separation", type=int, dest="min_separation", default=None,
                   help="minimum graph distance between mapped pairs (default 2)")
    p.add_argument("--seed", type=int, default=None, help="master random seed")
    p.add_argument("--config", metavar="PATH", help="JSON config file (flags override it)")
    p.add_argument("--out", default=None, help="output path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbos",
        description="Quantum Battle of the Sexes: simulation, mapping and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", help="classical mixed-equilibrium report")
    p_eq.add_argument("--matrix", default="bos",
                      help="payoff preset (bos, identity-coordination) or JSON file")
    p_eq.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_sw = sub.add_parser("sweep", help="noisy payoff sweep over the gamma grid")
    p_sw.add_argument("--gamma-steps", type=int, dest="gamma_steps", default=None)
    p_sw.add_argument("--shots", type=int, default=None)
    p_sw.add_argument("--runs", type=int, default=None)
    p_sw.add_argument("--strategies", default=None,
                      help="comma list out of I,H,RY(pi/4),RY(pi)")
    p_sw.add_argument("--noise-scale", type=float, dest="noise_scale", default=None)
    p_sw.add_argument("--svg", action="store_true", default=False,
                      help="also write one SVG plot per strategy")
    p_sw.add_argument("--formula-variant", dest="formula_variant",
                      choices=("paper", "corrected"), default=None)
    _add_device_flags(p_sw)

    p_map = sub.add_parser("map", help="select separated low-error qubit pairs")
    p_map.add_argument("--pairs", type=int, default=None, help="number of pairs")
    _add_device_flags(p_map)

    p_val = sub.add_parser("validate", help="statistical validation of a sweep CSV")
    p_val.add_argument("results", help="CSV produced by the sweep command")
    p_val.add_argument("--formula-variant", dest="formula_variant",
                       choices=("paper", "corrected"), default="corrected")
    p_val.add_argument("--rmse-method", dest="rmse_method", default="rmse_of_means",
                       choices=("rmse_of_means", "mean_of_rmses"))
    p_val.add_argument("--out", default=None, help="also write the report as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"equilibrium": cmd_equilibrium, "sweep": cmd_sweep,
               "map": cmd_map, "validate": cmd_validate}[args.command]
    try:
        return command(args)
    except CommandError as err:
        code, message = err.args
    except gcm.InfeasibleMappingError as err:
        code, message = EXIT_INFEASIBLE, err
    except OSError as err:  # an unreadable file, whichever option named it
        code, message = EXIT_IO, err
    except MemoryError as err:  # a request too large for this host, such as a huge --runs
        code, message = EXIT_CONFIG, f"not enough memory: {str(err) or 'allocation failed'}"
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())
