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

A path that leads to no regular file (a missing file, a dangling symlink, a
path through a file, a directory, a FIFO, a device) is "config file not
found", found by os.path.isfile before anything is opened, so a FIFO never
blocks and a device is never touched.  A regular file is then read through
one descriptor, os.open and os.read to end of file; one that cannot be
opened or read, or is not UTF-8, is "cannot read config file".
"""

from __future__ import annotations

import math
import os

from .errors import ConfigError
from .model import DriveParams, SystemParams

DEFAULT_VALUES_HZ = {
    "mechanics": {"freq_hz": 1.0e6, "gamma_hz": 5.0e3},
    "cavity": {"kappa_hz": 0.2e6},
    "bath": {"cutoff_hz": 1.0e6},
    "drive": {"detuning_hz": -1.0e6, "coupling_hz": 48.75e3},
}


def _read_text(path: str) -> str:
    """The UTF-8 text of the regular file at path, read through one descriptor."""
    if not os.path.isfile(path):  # before opening: a directory, FIFO or device is never opened
        raise ConfigError(f"config file not found: {path}")
    try:
        fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    try:
        chunks = []
        while chunk := os.read(fd, 65536):
            chunks.append(chunk)
        return b"".join(chunks).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    finally:
        os.close(fd)


def _read_values(path: str, values: dict) -> None:
    """Set values[section][key] from the INI file at path (grammar in the module docstring)."""
    content = _read_text(path)
    if "\r" in content:  # text mode's newline rule: \r\n and a lone \r each end a line
        content = content.replace("\r\n", "\n").replace("\r", "\n")
    section, sections = None, set()
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
            if section in sections:
                raise ConfigError(f"{path}: line {lineno}: section [{section}] given twice")
            sections.add(section)
            keys, given = values[section], set()
            continue
        # The key is what precedes the first = or :, and it must not be empty.
        key, sep, raw = text.partition("=")
        if ":" in key:
            key, sep, raw = text.partition(":")
        if not (key and sep):
            raise ConfigError(f"{path}: line {lineno}: not [section] or key = value: {text!r}")
        if section is None:
            raise ConfigError(f"{path}: line {lineno}: key before any [section] header")
        key, raw = key.strip().lower(), raw.strip()
        if key not in keys:
            raise ConfigError(f"{path}: unknown key {key} in [{section}]")
        if key in given:
            raise ConfigError(f"{path}: line {lineno}: key {key} in [{section}] given twice")
        given.add(key)
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key} in [{section}] is not a number: {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{path}: key {key} in [{section}] must be finite: {raw!r}")
        keys[key] = value


def load_config(path: str | None = None):
    """Resolve (SystemParams, DriveParams) from an INI file over the defaults."""
    values = {section: dict(kv) for section, kv in DEFAULT_VALUES_HZ.items()}
    if path is not None:
        _read_values(path, values)
    try:
        p = SystemParams.from_hz(**values["mechanics"], **values["cavity"], **values["bath"])
        d = DriveParams.from_hz(**values["drive"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return p, d
