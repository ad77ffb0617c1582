"""Command line front end.

Five subcommands map onto the library layers: ``evaluate`` (one working
point), ``optimize`` (best signal intensity plus the matching
reference-pulse floor), ``sweep`` (CSV grids for plotting), ``mc-validate``
(Monte Carlo against the analytic model) and ``budget`` (optical chain
intensities).

Outputs are deterministic: numbers are printed at 9 significant digits
(scientific below 1e-3), JSON key order is fixed, and Monte Carlo runs
are seeded, so identical invocations produce byte-identical files.

Exit codes: 0 success (and, for evaluate, secure), 2 usage, parameter or
arithmetic error (a non-finite number bound for JSON counts as one), 3
point evaluated insecure, 4 Monte Carlo disagrees with the analytic
model.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Sequence, get_type_hints

from .linkbudget import OpticalChain, afterpulse_error, crosstalk_false_click, propagate
from .montecarlo import (_EVE_MODES, EvePolicy, McConfig, compare_with_model, simulate,
                         simulate_attack)
from .optimize import (
    IDEAL_SOURCE,
    SweepGrid,
    brp_intensity_bound,
    disturbance_tradeoff,
    optimal_signal_intensity,
    sweep,
)
from .params import (
    DEFAULT_LOSS_DB_PER_KM,
    GYS_DETECTOR,
    IDEAL_DETECTOR,
    ChannelParams,
    DetectorParams,
    SourceParams,
    _check_finite,
    _check_grid,
    _check_integer,
)
from .security import evaluate_point

__all__ = ["main", "run", "format_number"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSECURE = 3
EXIT_MC_MISMATCH = 4

_MC_Z_LIMIT = 4.0
_MC_MIN_PULSES = 10_000


class UsageError(ValueError):
    """Bad flags, config keys or parameter values; maps to exit code 2."""


def _option(default: object, help_text: str, **flag: object):
    # a config-file key that is also a --kebab-case flag with this help text
    return field(default=default, metadata={"help": help_text, **flag})


@dataclass
class ExperimentConfig:
    """Every run parameter, merged from preset, config file and flags.

    Each field is a config-file key, parsed by its annotated type; a
    field with help text is also a ``--kebab-case`` flag.  ``mu_s`` is a
    comma list, and ``None`` means the command's own default.

    ``forward_multiphoton_lossless`` defaults to ``True``, the canonical
    splitting attack, while the library's ``montecarlo.EvePolicy``
    defaults to ``False``.  The difference is deliberate: the golden
    ``mc-validate --eve-mode pns`` output pins the CLI's ``True``, and
    only a policy without forwarding replays the honest stream exactly.
    """

    mu_s: tuple[float, ...] | None = _option(
        None, "signal intensity; a comma list sets the grid for optimize/sweep",
        metavar="MU[,MU...]")
    mu_b: float = _option(2.0e5, "reference pulse intensity")
    length_km: float = _option(146.0, "fiber length")
    loss_db_km: float = _option(DEFAULT_LOSS_DB_PER_KM, "fiber loss per km")
    eta_d: float = _option(GYS_DETECTOR.eta_d, "detector efficiency")
    y0: float = _option(GYS_DETECTOR.y0, "dark click probability per gate")
    e_detector: float = _option(GYS_DETECTOR.e_detector, "misalignment error rate")
    e_0: float = GYS_DETECTOR.e_0
    eve_mode: str = _option("none", "eavesdropper policy for mc-validate", choices=_EVE_MODES)
    suppress_fraction: float = _option(
        0.0, "single-photon blocking probability under pns")
    forward_multiphoton_lossless: bool = True
    n_pulses: int = _option(1_000_000, "Monte Carlo pulses")
    seed: int = _option(12345, "Monte Carlo seed")
    source_intensity: float = 8.0e5
    alice_split_long: float = 0.5
    bob_split_long: float = 0.5
    alice_attenuation_db: float = 56.0
    bob_attenuation_db: float = 56.0
    switch_crosstalk_db: float = 20.0
    p_afterpulse: float = 0.008


_KEY_TYPES = get_type_hints(ExperimentConfig)
_FLAG_FIELDS = tuple(f for f in fields(ExperimentConfig) if "help" in f.metadata)

# detector presets: the long-haul benchmark detector and a noiseless one
_PRESETS: dict[str, DetectorParams] = {"gys2004": GYS_DETECTOR, "ideal": IDEAL_DETECTOR}


def format_number(value: float) -> str:
    """Format a float at 9 significant digits, scientific below 1e-3."""
    return _texts([float(value)], "csv")[0]


def _texts(values: Sequence[object], fmt: str) -> list[str]:
    # each value as fmt prints it.  Its CSV cell: a float (np.float64 too) at 9
    # significant digits, scientific below 1e-3, a bool as true or false, and
    # anything else as str, so True, 1 and 1.0 spell differently
    texts = [
        ("nan" if value != value
         else "0" if value == 0  # -0.0 too
         else format(value, ".8e") if -1e-3 < value < 1e-3
         else format(value, ".9g")) if isinstance(value, float)
        else ("true" if value else "false") if isinstance(value, bool)
        else str(value)
        for value in values
    ]
    if fmt == "csv":
        return texts
    # its JSON token, where a float is the float its CSV text spells, so both
    # formats print one number
    tokens = [repr(float(text)) if isinstance(value, float) else json.dumps(value)
              for value, text in zip(values, texts)]
    # only a float's token can be one of these; a string's is quoted
    found = [tokens.index(token) for token in ("nan", "inf", "-inf") if token in tokens]
    if found:
        raise ValueError(f"Out of range float values are not JSON compliant: {tokens[min(found)]}")
    return tokens


def _grid_texts(outer: Sequence[object], inner_columns: Sequence[Sequence[object]],
                fmt: str) -> list[list[str]]:
    # the columns of a table ordered by (outer value, inner row), each distinct
    # text formatted once: the outer column, each value repeated once for every
    # inner row, then each inner column, repeated once for every outer value
    rows = len(inner_columns[0])
    outer_column = [text for text in _texts(outer, fmt) for _ in range(rows)]
    return [outer_column, *(_texts(column, fmt) * len(outer) for column in inner_columns)]


def _json_record(names: Sequence[str], indent: str) -> str:
    # a %-template of one record as json.dumps(indent=2) lays it out at this indent
    keys = [json.dumps(name).replace("%", "%%") for name in names]
    lines = ",\n".join(f"{indent}  {key}: %s" for key in keys)
    return f"{indent}{{\n{lines}\n{indent}}}"


def _render_texts(columns: dict[str, list[str]], fmt: str) -> str:
    # columns of equal length holding _texts, one per output field in output order
    rows = zip(*columns.values())
    if fmt == "csv":
        return "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    # json.dumps(indent=2) of the records: one bare object, or a list of them
    rows = list(rows)
    if not rows:
        return "[]\n"
    if len(rows) == 1:
        return _json_record(columns, "") % rows[0] + "\n"
    template = _json_record(columns, "  ")
    return "[\n" + ",\n".join([template % row for row in rows]) + "\n]\n"


def _render(records: list[dict[str, object]], fmt: str) -> str:
    names = records[0].keys() if records else ()
    return _render_texts({name: _texts([record[name] for record in records], fmt)
                          for name in names}, fmt)


def _emit(text: str, out: str | None) -> None:
    if out:
        # bytes, not text mode: identical output on every platform
        Path(out).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _parse_int(raw: str) -> int:
    try:
        return int(raw)  # first, so a seed near 2**64 stays exact
    except ValueError:  # an integral float such as 1e6 counts, as in McConfig
        return _check_integer("value", float(raw), float("-inf"))


_parse_int.__name__ = "int"  # argparse's message reads "invalid int value: ..."


def _parse_mu_list(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --mu-s value {raw!r}: {exc}") from None
    return values


def _read_config_file(path: str) -> dict[str, str]:
    try:
        # utf-8-sig: a byte-order mark some editors write is not part of the first key
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _parse_key(key: str, raw: str) -> object:
    kind = _KEY_TYPES[key]
    if key == "mu_s":
        parse, expected = _parse_mu_list, "a comma list of floats"
    else:
        parse, expected = {bool: _parse_bool, int: _parse_int}.get(kind, kind), kind.__name__
    try:
        return parse(raw)
    except ValueError:
        raise UsageError(
            f"bad value for config key {key!r}: {raw!r} (expected {expected})"
        ) from None


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    file_pairs = _read_config_file(args.config) if args.config else {}

    # a file preset is checked even where --preset (checked by argparse) overrides it
    file_preset = file_pairs.pop("preset", "") or "gys2004"
    if file_preset not in _PRESETS:
        raise UsageError(
            f"unknown preset {file_preset!r} (choices: {', '.join(sorted(_PRESETS))})"
        )
    config = ExperimentConfig(**asdict(_PRESETS[args.preset or file_preset]))

    for key, raw in file_pairs.items():
        if key not in _KEY_TYPES:
            raise UsageError(f"unknown config key {key!r} in {args.config}")
        setattr(config, key, _parse_key(key, raw))
    for f in _FLAG_FIELDS:
        choices = f.metadata.get("choices")
        value = getattr(config, f.name)
        if choices and value not in choices:
            raise UsageError(f"{f.name} must be {' or '.join(map(repr, choices))}, got {value!r}")

    # command line flags win over everything
    for f in _FLAG_FIELDS:
        value = getattr(args, f.name)
        if value is not None:
            setattr(config, f.name, _parse_mu_list(value) if f.name == "mu_s" else value)
    return config


def _from_config(cls: type, config: ExperimentConfig, **given: object):
    # a library record: each field not given is the config key of its name
    return cls(**{f.name: getattr(config, f.name) for f in fields(cls) if f.name not in given},
               **given)


def _channel(config: ExperimentConfig) -> ChannelParams:
    return ChannelParams(length_km=config.length_km, loss_db_per_km=config.loss_db_km)


def _single_mu(config: ExperimentConfig, command: str) -> float:
    if config.mu_s is None:
        return _SINGLE_MU_S
    if len(config.mu_s) != 1:
        raise UsageError(f"{command} takes a single --mu-s value, got {len(config.mu_s)}")
    return config.mu_s[0]


_SINGLE_MU_S = 0.5
_OPTIMIZE_GRID = tuple(i / 20 for i in range(2, 21))  # 0.10, 0.15, ..., 1.00
_SWEEP_MU_GRID = tuple(i / 10 for i in range(1, 11))  # 0.1, 0.2, ..., 1.0
_SWEEP_LENGTHS = tuple(float(length) for length in range(0, 201))
_DISTURBANCE_GRID = tuple(i / 400 for i in range(0, 101))  # 0 .. 0.25
_DISTANCE_VALUES = ("r_bob", "r_eve", "r_s")  # of a SweepRow, after mu_s and length_km
_DISTURBANCE_FIELDS = ("mu_s", "d", "i_ab", "i_ae")


def _cmd_evaluate(config: ExperimentConfig, args: argparse.Namespace) -> tuple[str, int]:
    mu_s = _single_mu(config, "evaluate")
    source = SourceParams(mu_s=mu_s, mu_b=config.mu_b)
    report = evaluate_point(source, _channel(config), _from_config(DetectorParams, config))
    record = {"mu_s": mu_s, "mu_b": config.mu_b, "length_km": config.length_km,
              "loss_db_km": config.loss_db_km, **asdict(report)}
    return _render([record], args.fmt), EXIT_OK if report.secure else EXIT_INSECURE


def _cmd_optimize(config: ExperimentConfig, args: argparse.Namespace) -> tuple[str, int]:
    grid = config.mu_s or _OPTIMIZE_GRID
    det = _from_config(DetectorParams, config)
    best = optimal_signal_intensity(det, config.loss_db_km, grid)
    channel = ChannelParams(length_km=best.distance_km, loss_db_per_km=config.loss_db_km)
    bound = brp_intensity_bound(best.mu_s_star, channel, det)
    return _render([{**best._asdict(), **bound._asdict()}], args.fmt), EXIT_OK


def _cmd_sweep(config: ExperimentConfig, args: argparse.Namespace) -> tuple[str, int]:
    det = _from_config(DetectorParams, config)
    # one rule for both axes; SweepGrid checks the distance axis again
    mu_values = _check_grid("mu_s_values", config.mu_s or _SWEEP_MU_GRID)
    fmt = args.fmt
    # every value is computed before any is formatted, so a bad input fails
    # with the library's error, not with a JSON one
    if args.axis == "distance":
        grid = SweepGrid(
            mu_s_values=mu_values,
            length_values_km=_SWEEP_LENGTHS,
            det=det,
            loss_db_per_km=config.loss_db_km,
        )
        rows = sweep(grid)  # ordered by (mu_s, length_km)
        texts = [*_grid_texts(grid.mu_s_values, [grid.length_values_km], fmt),
                 *(_texts(list(map(attrgetter(name), rows)), fmt) for name in _DISTANCE_VALUES)]
        columns = dict(zip(("mu_s", "length_km", *_DISTANCE_VALUES), texts))
    else:  # disturbance
        # +inf passes disturbance_tradeoff's > 0 rule; checked here, CSV and JSON reject it alike
        labels = (IDEAL_SOURCE, *(_check_finite("mu_s", mu_s) for mu_s in mu_values))
        i_ab, i_ae = zip(*[disturbance_tradeoff(label, d)
                           for label in labels for d in _DISTURBANCE_GRID])
        # i_ab depends on d alone, so the first source's block repeats for every source
        first_i_ab = i_ab[:len(_DISTURBANCE_GRID)]
        texts = [*_grid_texts(labels, [_DISTURBANCE_GRID, first_i_ab], fmt), _texts(i_ae, fmt)]
        columns = dict(zip(_DISTURBANCE_FIELDS, texts))
    return _render_texts(columns, fmt), EXIT_OK


def _cmd_mc_validate(config: ExperimentConfig, args: argparse.Namespace) -> tuple[str, int]:
    if config.n_pulses < _MC_MIN_PULSES:
        raise UsageError(
            f"mc-validate needs n_pulses >= {_MC_MIN_PULSES}, got {config.n_pulses}"
        )
    mu_s = _single_mu(config, "mc-validate")
    base = McConfig(
        n_pulses=config.n_pulses,
        source=SourceParams(mu_s=mu_s, mu_b=config.mu_b),
        channel=_channel(config),
        det=_from_config(DetectorParams, config),
        seed=config.seed,
    )
    comparisons = compare_with_model(base, simulate(base))
    if config.eve_mode == "pns":
        attacked = replace(base, eve=_from_config(EvePolicy, config, mode="pns"))
        comparisons.extend(
            row._replace(quantity=f"attack_{row.quantity}")
            for row in compare_with_model(attacked, simulate_attack(attacked))
        )
    records = [{**row._asdict(), "ok": abs(row.z) <= _MC_Z_LIMIT} for row in comparisons]
    all_ok = all(record["ok"] for record in records)
    return _render(records, args.fmt), EXIT_OK if all_ok else EXIT_MC_MISMATCH


def _cmd_budget(config: ExperimentConfig, args: argparse.Namespace) -> tuple[str, int]:
    chain = _from_config(OpticalChain, config, channel=_channel(config))
    report = propagate(chain)
    record = {
        "source_intensity": chain.source_intensity,
        "length_km": config.length_km,
        **asdict(report),
        "afterpulse_probability": config.p_afterpulse,
        "afterpulse_error": afterpulse_error(config.p_afterpulse),
        "crosstalk_false_click": crosstalk_false_click(
            report.switch_leak_at_signal_detector, config.eta_d),
    }
    return _render([record], args.fmt), EXIT_OK


def _add_shared_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("shared options")
    group.add_argument("--preset", choices=sorted(_PRESETS), help="parameter preset")
    group.add_argument("--config", metavar="PATH", help="flat key = value config file")
    for f in _FLAG_FIELDS:
        kind = _KEY_TYPES[f.name]
        group.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type={float: float, int: _parse_int}.get(kind), **f.metadata)
    group.add_argument("--format", dest="fmt", choices=["csv", "json"], help="output format")
    group.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and kept: parsing leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="brp-qkd",
        description="Security analysis of weak-pulse QKD protected by bright reference pulses.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # each command, its default output format and its help text; its handler
    # is _cmd_<command>, looked up when main runs
    commands = [
        ("evaluate", "json", "evaluate the security of one working point"),
        ("optimize", "json", "find the signal intensity maximizing secure reach"),
        ("sweep", "csv", "tabulate rates over a distance or disturbance grid"),
        ("mc-validate", "json", "check the analytic model against Monte Carlo"),
        ("budget", "json", "propagate intensities through the optical chain"),
    ]
    for name, fmt, help_text in commands:
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        _add_shared_options(sub)
        if name == "sweep":
            sub.add_argument("axis", choices=["distance", "disturbance"],
                             help="sweep variable")
        sub.set_defaults(fmt=fmt)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        text, code = handler(_build_config(args), args)
        _emit(text, args.out)
        return code
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
