"""Run configuration: defaults overridden by config file, environment, flags.

The config file is flat ``key = value`` UTF-8 text (``#`` comments; a leading
BOM is ignored). Every key can also be set through an ``INTERESTPROF_<KEY>``
environment variable; explicit command-line flags win over both. Every layer
maps each key to its value and its source (``path:line: key``, the variable's
name or the flag), and a bad value, unreadable or out of range, is reported
under the source that set it. Values quoted in messages have their control
characters escaped.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .errors import (
    ConfigError, DataFormatError, check_utf8, escape_control, input_lines, open_input,
)

ENV_PREFIX = "INTERESTPROF_"
DEFAULT_TOP_K = 5
MAX_TOPK = 2**32 - 1  # a loaded image's label counts are packed as unsigned 32-bit ints
MECHANISMS = ("prob", "occ")


@dataclass
class RunConfig:
    taxonomy: str | None = None
    predictions: str | None = None
    labels: str | None = None
    classifier_cmd: str | None = None
    classifier_timeout: float = 600.0  # seconds the classifier command may run
    manifest: str | None = None
    out: str | None = None
    topk: int = DEFAULT_TOP_K
    mechanism: str = "occ"
    sweep: tuple[int, ...] = (5, 10, 50, 75, 100)
    tau: float = 0.1
    seed: int = 0
    skip_bad: bool = False
    force: bool = False
    attest_accuracy: bool = False
    # fixture generation
    users_per_topic: int = 10
    images: int = 100
    purity: float = 1.0

    def validate(self, sources: Mapping[str, str] | None = None) -> "RunConfig":
        """This config, or a ConfigError prefixed by the source of the bad key."""

        def fail(key: str, message: str):
            source = (sources or {}).get(key)
            raise ConfigError(f"{source}: {message}" if source else message)

        if self.topk < 1:
            fail("topk", f"topk must be >= 1, got {self.topk}")
        if self.topk > MAX_TOPK:
            fail("topk", f"topk must be <= {MAX_TOPK}, got {self.topk}")
        if self.mechanism not in MECHANISMS:
            fail("mechanism",
                 f"mechanism must be 'prob' or 'occ', got '{escape_control(self.mechanism)}'")
        if not self.sweep or any(s <= 0 for s in self.sweep) or \
                list(self.sweep) != sorted(set(self.sweep)):
            fail("sweep",
                 f"sweep values must be positive and strictly increasing: {list(self.sweep)}")
        if not 0.0 < self.classifier_timeout < math.inf:
            fail("classifier_timeout", "classifier_timeout must be a finite number of "
                 f"seconds > 0, got {self.classifier_timeout}")
        if not 0.0 < self.tau <= 1.0:
            fail("tau", f"tau must be in (0, 1], got {self.tau}")
        if not 0.0 <= self.purity <= 1.0:
            fail("purity", f"purity must be in [0, 1], got {self.purity}")
        if self.users_per_topic < 0:
            fail("users_per_topic", f"users_per_topic must be >= 0, got {self.users_per_topic}")
        if self.images < 1:
            fail("images", f"images must be >= 1, got {self.images}")
        return self


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def parse_sweep(raw: str, source: str = "sweep") -> tuple[int, ...]:
    """Comma-separated integers; a bad list is reported under ``source``."""
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(
            f"{source}: expected comma-separated integers, got '{escape_control(raw)}'"
        ) from None


_EXPECTED = {"bool": "a boolean", "int": "an integer", "float": "a number"}


_KINDS = {f.name: f.type for f in fields(RunConfig)}
_KEYS = set(_KINDS)
Layer = dict[str, tuple[object, str]]  # key -> (value, source)


def _coerce(key: str, raw: str, source: str):
    """Typed value of a setting; a bad value is reported under its source."""
    kind = _KINDS[key]
    raw = raw.strip()
    if key == "sweep":
        return parse_sweep(raw, source)
    try:
        if kind == "bool":
            return _BOOL_WORDS[raw.casefold()]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except (KeyError, ValueError):
        raise ConfigError(
            f"{source}: expected {_EXPECTED[kind]}, got '{escape_control(raw)}'"
        ) from None
    return raw


def parse_config_file(path: str | Path) -> Layer:
    """Flat key=value file into a typed override layer."""
    with open_input(path, "config") as fh:
        text = fh.read()
    values = {}
    for no, raw in enumerate(input_lines(text), start=1):
        try:  # an undecodable byte is a configuration error, like any bad line here
            check_utf8(raw, "line", no, str(path))
        except DataFormatError as exc:
            raise ConfigError(str(exc)) from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{no}: expected key = value")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{no}: unknown config key '{escape_control(key)}'")
        source = f"{path}:{no}: {key}"
        values[key] = (_coerce(key, raw_value, source), source)
    return values


def env_overrides(environ: Mapping[str, str] | None = None) -> Layer:
    environ = os.environ if environ is None else environ
    values = {}
    for key in sorted(_KEYS):
        name = ENV_PREFIX + key.upper()
        if name in environ:
            values[key] = (_coerce(key, environ[name], name), name)
    return values


def flag_overrides(flags: Mapping[str, object]) -> Layer:
    """Command-line values by key; the text of a number or sweep flag is coerced
    here, so a bad one is reported under its flag, such as ``--topk``."""
    values = {}
    for key, value in flags.items():
        if key in _KEYS and value is not None:
            source = "--" + key.replace("_", "-")
            if isinstance(value, str) and not _KINDS[key].startswith("str"):
                value = _coerce(key, value, source)
            values[key] = (value, source)
    return values


def build_config(*layers: Layer) -> RunConfig:
    """Merge defaults < config file < environment < CLI flags, then validate."""
    merged, sources = {}, {}
    for layer in layers:
        for key, (value, source) in layer.items():
            merged[key] = value
            sources[key] = source
    return RunConfig(**merged).validate(sources)
