"""INI-backed parameter loading with Hz-valued keys.

Recognized sections and keys (all values in Hz, i.e. cycles per second):

    [mechanics] freq_hz, gamma_hz
    [cavity]    kappa_hz
    [bath]      cutoff_hz
    [drive]     detuning_hz, coupling_hz

Keys omitted from a config file fall back to the built-in representative
parameter set; unknown sections or keys are rejected rather than ignored.
The file is UTF-8 read line by line (README's Configuration has the grammar):
[name] opens a section, key = value or key: value sets one value, blank and
#/; comment lines are skipped, and any other line is an error naming it.
"""

from __future__ import annotations

import math
import os
import re

from .errors import ConfigError
from .model import DriveParams, SystemParams

DEFAULT_VALUES_HZ = {
    "mechanics": {"freq_hz": 1.0e6, "gamma_hz": 5.0e3},
    "cavity": {"kappa_hz": 0.2e6},
    "bath": {"cutoff_hz": 1.0e6},
    "drive": {"detuning_hz": -1.0e6, "coupling_hz": 48.75e3},
}

_KEY_VALUE = re.compile(r"([^=:]+)[=:](.*)")


def _read_values(path: str, values: dict) -> None:
    """Set values[section][key] from the INI file at path (grammar in the module docstring)."""
    try:
        with open(path, "rb", buffering=0) as handle:
            content = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    if "\r" in content:  # text mode's newline rule: \r\n and a lone \r each end a line
        content = content.replace("\r\n", "\n").replace("\r", "\n")
    section, seen = None, set()
    for lineno, line in enumerate(content.split("\n"), start=1):
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        if line[0].isspace():
            raise ConfigError(f"{path}: line {lineno}: indented line {text!r}")
        if text[0] == "[" and text[-1] == "]":
            section = text[1:-1]
            if section not in values:
                raise ConfigError(f"{path}: unknown section [{section}]")
            if section in seen:
                raise ConfigError(f"{path}: line {lineno}: section [{section}] given twice")
            seen.add(section)
            continue
        match = _KEY_VALUE.fullmatch(text)
        if match is None:
            raise ConfigError(f"{path}: line {lineno}: not [section] or key = value: {text!r}")
        if section is None:
            raise ConfigError(f"{path}: line {lineno}: key before any [section] header")
        key, raw = match[1].strip().lower(), match[2].strip()
        if key not in values[section]:
            raise ConfigError(f"{path}: unknown key {key} in [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"{path}: line {lineno}: key {key} in [{section}] given twice")
        seen.add((section, key))
        try:
            values[section][key] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key} in [{section}] is not a number: {raw!r}") from exc
        if not math.isfinite(values[section][key]):
            raise ConfigError(f"{path}: key {key} in [{section}] must be finite: {raw!r}")


def load_config(path: str | None = None):
    """Resolve (SystemParams, DriveParams) from an INI file over the defaults."""
    values = {section: dict(kv) for section, kv in DEFAULT_VALUES_HZ.items()}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        _read_values(path, values)
    try:
        p = SystemParams.from_hz(**values["mechanics"], **values["cavity"], **values["bath"])
        d = DriveParams.from_hz(**values["drive"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return p, d
