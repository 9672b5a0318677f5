"""INI-backed parameter loading with Hz-valued keys.

Recognized sections and keys (all values in Hz, i.e. cycles per second):

    [mechanics] freq_hz, gamma_hz
    [cavity]    kappa_hz
    [bath]      cutoff_hz
    [drive]     detuning_hz, coupling_hz

Keys omitted from a config file fall back to the built-in representative
parameter set; unknown sections or keys are rejected rather than ignored.
"""

from __future__ import annotations

import configparser
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


def load_config(path: str | None = None):
    """Resolve (SystemParams, DriveParams) from an INI file over the defaults."""
    values = {section: dict(kv) for section, kv in DEFAULT_VALUES_HZ.items()}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        # No header can name the default section "", so [DEFAULT] is an unknown section.
        parser = configparser.ConfigParser(default_section="")
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"{path}: unknown section [{section}]")
            # raw: a % in a value is literal text, not interpolation syntax.
            for key, raw in parser.items(section, raw=True):
                if key not in values[section]:
                    raise ConfigError(f"{path}: unknown key {key} in [{section}]")
                try:
                    values[section][key] = float(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}: key {key} in [{section}] is not a number: {raw!r}"
                    ) from exc
                if not math.isfinite(values[section][key]):
                    raise ConfigError(f"{path}: key {key} in [{section}] must be finite: {raw!r}")
    try:
        p = SystemParams.from_hz(
            freq_hz=values["mechanics"]["freq_hz"],
            kappa_hz=values["cavity"]["kappa_hz"],
            gamma_hz=values["mechanics"]["gamma_hz"],
            cutoff_hz=values["bath"]["cutoff_hz"],
        )
        d = DriveParams.from_hz(
            detuning_hz=values["drive"]["detuning_hz"],
            coupling_hz=values["drive"]["coupling_hz"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return p, d
