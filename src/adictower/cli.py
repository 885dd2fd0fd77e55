"""Command line front end for the tower verifier.

Exit codes are part of the contract: 0 when every report entry passes,
1 when verification fails, 2 for invalid configuration and 3 for
unexpected internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, NamedTuple, Optional

from .exactalg.matrices import Matrix
from .exactalg.rings import Ring, RingError, integer_ring, polynomial_ring
from .fpmod.modules import ModuleMorphism, free_module
from .towers import (
    ML_HOLDS,
    ML_HOLDS_BY_SURJECTIVITY,
    TowerError,
    mittag_leffler_check,
)
from .verify.report import LEMMA_KEYS, PASS, VerificationReport
from .verify.pipeline import run_full_report


# The Mittag-Leffler control builds horizon + 2 modules and does work
# quadratic in the horizon.
MAX_HORIZON = 1024
# A whole CLI run of Z with g=2 takes 0.14 s at depth 128 (22 MB peak)
# and 0.33-0.34 s at the cap, with a 44 MB peak, and F_2[x] with
# g=x^2+x+1 0.17-0.18 s at depth 128 (22 MB) and 0.50-0.52 s at the cap
# with a 43 MB peak (five runs each, JSON output, warm bytecode cache,
# CPython 3.11, 2-core x86-64 container shared with other jobs).
MAX_DEPTH = 256
# The weak-epimorphism oracle lists every carrier and endomorphism element
# below the bound and encodes them in a few matrix products: a whole run at
# the cap of Z with g=2 at depth 16 takes 0.23-0.26 s and of F_2[x] with
# g=x^2+x+1 at depth 8 0.39-0.47 s, with 39 and 35 MB peaks (same
# container).
MAX_ORACLE_BOUND = 65536
# A configuration file is a few key=value lines; reading stops one byte
# past this cap, so an endless file such as /dev/zero is refused.
MAX_CONFIG_BYTES = 65536


class ConfigError(ValueError):
    """Invalid command line or configuration file input."""


class RunConfig(NamedTuple):
    ring: str = "z"
    char: Optional[int] = None
    ideal: str = "2"
    depth: int = 4
    fmt: str = "text"
    seed: int = 0
    oracle_bound: int = 4096
    horizon: int = 8
    lemma: Optional[str] = None
    ml_control: bool = False


_INT_KEYS = ("char", "depth", "seed", "oracle_bound", "horizon")
_STR_KEYS = ("ring", "ideal", "format", "lemma")
_FILE_KEYS = _INT_KEYS + _STR_KEYS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adictower",
        description="verify an ideal-power tower and its truncated limits",
        exit_on_error=False,
    )
    parser.add_argument("--ring", choices=("z", "poly"), default=None)
    parser.add_argument("--char", type=int, default=None)
    parser.add_argument("--ideal", default=None)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--format", choices=("text", "json"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--oracle-bound", type=int, default=None)
    parser.add_argument("--horizon", type=int, default=None)
    parser.add_argument("--lemma", choices=LEMMA_KEYS, default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--ml-control", action="store_true", default=False)
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_CONFIG_BYTES + 1)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}")
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"config file is larger than {MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file is not UTF-8: {err}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"config key {key} needs an integer, got {value!r}")
        else:
            values[key] = value
    return values


def parse_config(argv: Optional[List[str]] = None) -> RunConfig:
    parser = _build_parser()
    try:
        args, leftover = parser.parse_known_args(argv)
    except argparse.ArgumentError as err:
        raise ConfigError(str(err))
    if leftover:
        raise ConfigError(f"unrecognized arguments: {' '.join(leftover)}")
    file_values = _read_config_file(args.config) if args.config else {}
    defaults = RunConfig()

    def pick(key, field=None):
        field = field or key
        cli_value = getattr(args, key)
        if cli_value is not None:
            return cli_value
        return file_values.get(key, getattr(defaults, field))

    cfg = RunConfig(
        ring=pick("ring"),
        char=pick("char"),
        ideal=pick("ideal"),
        depth=pick("depth"),
        fmt=pick("format", "fmt"),
        seed=pick("seed"),
        oracle_bound=pick("oracle_bound"),
        horizon=pick("horizon"),
        lemma=pick("lemma"),
        ml_control=args.ml_control,
    )
    if cfg.ring not in ("z", "poly"):
        raise ConfigError(f"ring must be z or poly, got {cfg.ring!r}")
    if cfg.fmt not in ("text", "json"):
        raise ConfigError(f"format must be text or json, got {cfg.fmt!r}")
    if cfg.lemma is not None and cfg.lemma not in LEMMA_KEYS:
        raise ConfigError(f"unknown lemma key: {cfg.lemma}")
    if cfg.ring == "poly" and cfg.char is None:
        raise ConfigError("polynomial rings need --char")
    if cfg.ring == "z" and cfg.char is not None:
        raise ConfigError("--char only applies to polynomial rings")
    if not 1 <= cfg.depth <= MAX_DEPTH:
        raise ConfigError(f"depth must be in 1..{MAX_DEPTH}, got {cfg.depth}")
    if not 1 <= cfg.oracle_bound <= MAX_ORACLE_BOUND:
        raise ConfigError(
            f"oracle bound must be in 1..{MAX_ORACLE_BOUND}, got {cfg.oracle_bound}"
        )
    if not 1 <= cfg.horizon <= MAX_HORIZON:
        raise ConfigError(f"horizon must be in 1..{MAX_HORIZON}, got {cfg.horizon}")
    return cfg


def _make_ring(cfg: RunConfig) -> Ring:
    if cfg.ring == "z":
        return integer_ring()
    return polynomial_ring(cfg.char)


def emit_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json_tree(), indent=2) + "\n"
    lines = [f"adictower {report.tool['version']}"]
    tower = report.tower
    lines.append(
        f"tower: ring={tower['ring']} ideal=({tower['ideal']}) "
        f"depth={tower['depth']}"
    )
    settings = report.settings
    lemma = settings["lemma"] if settings["lemma"] else "all"
    lines.append(
        f"settings: seed={settings['seed']} "
        f"oracle-bound={settings['oracle_bound']} "
        f"horizon={settings['horizon']} lemma={lemma}"
    )
    for key in list(report.conditions) + list(report.lemmas):
        entry = report.entry(key)
        suffix = f" ({entry.witness})" if entry.witness else ""
        lines.append(f"{key}: {entry.status}{suffix}")
    lines.append(f"overall: {report.overall}")
    return "\n".join(lines) + "\n"


def run_ml_control(cfg: RunConfig) -> int:
    """Negative control: a strictly shrinking image chain that never
    stabilizes, so the horizon check must report it."""
    ring = integer_ring()
    free = free_module(ring, 1)
    doubling = ModuleMorphism(free, free, Matrix.from_rows(ring, [[2]]))
    modules = [free] * (cfg.horizon + 2)
    maps = [doubling] * (cfg.horizon + 1)
    check = mittag_leffler_check(modules, maps, cfg.horizon)
    print(f"mittag-leffler control: {check.verdict}")
    if check.verdict in (ML_HOLDS, ML_HOLDS_BY_SURJECTIVITY):
        return 0
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    try:
        cfg = parse_config(argv)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if cfg.ml_control:
            return run_ml_control(cfg)
        ring = _make_ring(cfg)
        generator = ring.parse(cfg.ideal)
        report = run_full_report(
            ring,
            generator,
            cfg.depth,
            seed=cfg.seed,
            oracle_bound=cfg.oracle_bound,
            horizon=cfg.horizon,
            lemma=cfg.lemma,
        )
    except RingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TowerError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    sys.stdout.write(emit_report(report, cfg.fmt))
    return 0 if report.overall == PASS else 1


if __name__ == "__main__":
    raise SystemExit(main())
