"""Physical parameters, bath spectral function, memory kernel, drift matrices.

Every quantity inside the package is an angular frequency in rad/s.  The
config file and the CLI speak ordinary frequency in Hz; the conversion
happens exactly once, at that boundary, through hz_to_rad / rad_to_hz.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

TWO_PI = 2.0 * math.pi


def hz_to_rad(value_hz: complex | np.ndarray) -> complex | np.ndarray:
    """Ordinary frequency (Hz) to angular frequency (rad/s): a scalar, or an array elementwise."""
    return TWO_PI * value_hz


def rad_to_hz(value_rad: complex | np.ndarray) -> complex | np.ndarray:
    """Angular frequency (rad/s) to ordinary frequency (Hz): a scalar, or an array elementwise."""
    return value_rad / TWO_PI


# Every nonzero rate lies within RATE_RANGE_HZ in magnitude.  The highest
# power of a rate any formula takes is the rate^4 of h^2 in
# epsolver._double_root (h = g*f - g_c^2 is quadratic in the rates).  Within
# the range a quartic lies between (2pi 1e-30)^4 ~ 1.6e-117 and
# (2pi 1e30)^4 ~ 1.6e123, and even their ratio, 1e240, stays below the
# largest float 1.8e308, so no quartic, product or quotient of two rates, or
# ratio of quartics overflows or underflows to zero.
RATE_RANGE_HZ = (1e-30, 1e30)
_RATE_RANGE = (hz_to_rad(RATE_RANGE_HZ[0]), hz_to_rad(RATE_RANGE_HZ[1]))


def _hz_text(hz: float) -> str:
    """hz at 6 significant digits, or its repr where those digits read back inside
    RATE_RANGE_HZ (as the range's end for a value just past it)."""
    text = f"{hz:.6g}"
    return repr(hz) if RATE_RANGE_HZ[0] <= abs(float(text)) <= RATE_RANGE_HZ[1] else text


def _require_rates(params) -> None:
    """ValueError naming every field of a parameter dataclass that is inf or nan,
    else, by its config key, every nonzero field whose magnitude lies outside
    RATE_RANGE_HZ (as_hz_dict lists the fields in declaration order).  Valid
    fields pass in one loop; the lists that name a bad field are built only then."""
    by_name = vars(params)  # the fields in declaration order, as __init__ set them
    low, high = _RATE_RANGE
    for value in by_name.values():
        if not (math.isfinite(value) and (value == 0.0 or low <= abs(value) <= high)):
            break
    else:
        return
    bad = [name for name, value in by_name.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")
    outside = [value != 0.0 and not low <= abs(value) <= high for value in by_name.values()]
    if any(outside):
        keys = params.as_hz_dict().items()
        bad = [f"{key} = {_hz_text(hz)} Hz" for out, (key, hz) in zip(outside, keys) if out]
        raise ValueError(
            f"{', '.join(bad)}: a nonzero rate must lie within "
            f"[{RATE_RANGE_HZ[0]:g}, {RATE_RANGE_HZ[1]:g}] Hz in magnitude"
        )


def _array_rows(table):
    """Rows of a dataclass of equal-length arrays, built lazily in array order.

    Each row is a named tuple with the dataclass's field names holding
    Python scalars (lists for multi-column fields); a field that is None
    reads as None in every row.
    """
    names = [f.name for f in fields(table)]
    row = namedtuple(f"{type(table).__name__}Row", names)
    columns = [getattr(table, name) for name in names]
    return map(row._make, zip(*(repeat(None) if col is None else col.tolist() for col in columns)))


_PACKAGE_DIR = os.path.join(os.path.dirname(__file__), "")  # frames of this package start with it


def _caller_stacklevel() -> int:
    """warnings.warn stacklevel, from the calling function, of the first frame
    outside this package and the dataclass-generated __init__, so a warning
    names the line that built the parameters (directly, or through from_hz
    or load_config).  The walk takes one step per frame and ends at the
    bottom of the stack at the latest."""
    frame, level = sys._getframe(1), 1
    while frame is not None and (
        frame.f_code.co_filename.startswith(_PACKAGE_DIR) or frame.f_code is SystemParams.__init__.__code__
    ):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class SystemParams:
    """Bare physical rates of the optomechanical system plus its bath.

    Attributes
    ----------
    omega_m : mechanical angular frequency (rad/s), > 0
    kappa   : optical decay rate (rad/s), > 0
    gamma   : bare mechanical decay rate (rad/s), >= 0 (zero is the
              memoryless limit, where the auxiliary-mode coupling vanishes)
    omega_c : bath crossover scale (rad/s), > 0
    """

    omega_m: float
    kappa: float
    gamma: float
    omega_c: float

    def __post_init__(self):
        _require_rates(self)
        if not (self.omega_m > 0 and self.kappa > 0 and self.omega_c > 0):
            raise ValueError("omega_m, kappa and omega_c must be strictly positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if not self.resolved_sideband:
            warnings.warn(
                "omega_m does not dominate kappa and gamma; "
                "outside the resolved-sideband regime",
                stacklevel=_caller_stacklevel(),
            )

    @property
    def g_c(self) -> float:
        """Auxiliary-mode coupling sqrt(gamma * omega_c / 2), always derived."""
        return math.sqrt(self.gamma * self.omega_c / 2.0)

    @property
    def resolved_sideband(self) -> bool:
        return self.omega_m > self.kappa and self.omega_m > self.gamma

    @classmethod
    def from_hz(cls, freq_hz, kappa_hz, gamma_hz, cutoff_hz) -> "SystemParams":
        return cls(
            omega_m=hz_to_rad(freq_hz),
            kappa=hz_to_rad(kappa_hz),
            gamma=hz_to_rad(gamma_hz),
            omega_c=hz_to_rad(cutoff_hz),
        )

    def as_hz_dict(self) -> dict:
        return {
            "mechanics.freq_hz": rad_to_hz(self.omega_m),
            "cavity.kappa_hz": rad_to_hz(self.kappa),
            "mechanics.gamma_hz": rad_to_hz(self.gamma),
            "bath.cutoff_hz": rad_to_hz(self.omega_c),
        }


@dataclass(frozen=True)
class DriveParams:
    """Control drive: detuning delta (rad/s, any sign) and coupling g (rad/s, >= 0)."""

    delta: float
    g: float

    def __post_init__(self):
        _require_rates(self)
        if self.g < 0:
            raise ValueError("coupling g must be non-negative")

    @classmethod
    def from_hz(cls, detuning_hz, coupling_hz) -> "DriveParams":
        return cls(delta=hz_to_rad(detuning_hz), g=hz_to_rad(coupling_hz))

    def as_hz_dict(self) -> dict:
        return {
            "drive.detuning_hz": rad_to_hz(self.delta),
            "drive.coupling_hz": rad_to_hz(self.g),
        }


def spectral_density(p: SystemParams, omega):
    """Bath spectral function gamma * w^2 / (w^2 + Omega_c^2), even in w.

    omega is a float or an array; a float gives a float.
    """
    w2 = omega * omega
    return p.gamma * w2 / (w2 + p.omega_c * p.omega_c)


def memory_kernel_smooth(p: SystemParams, t: float) -> float:
    """Smooth part of the memory kernel, -(gamma*Omega_c/2) * exp(-Omega_c|t|).

    The delta part of the kernel is never evaluated numerically; with the
    symmetric convention int_0^t delta(t-tau) b(tau) dtau = b(t)/2 it is
    absorbed into the -gamma/2 damping entry of the drift matrices below.
    """
    return -(p.gamma * p.omega_c / 2.0) * math.exp(-p.omega_c * abs(t))


# drift_nonmarkovian's change per unit coupling g: -i at (a, b) and (b, a), every real part +0.0,
# as drift(g=1) - drift(g=0) has them (a literal -1j is complex(-0.0, -1.0)).
_COUPLING = np.array([[0, complex(0.0, -1.0), 0], [complex(0.0, -1.0), 0, 0], [0, 0, 0]])


def drift_nonmarkovian(p: SystemParams, d: DriveParams) -> np.ndarray:
    """Three-mode drift (3x3 complex array), auxiliary bath mode c bordered onto (a, b).

    It is linear in d.g, changing by _COUPLING per unit g."""
    gc = p.g_c
    return np.array(
        [
            [1j * d.delta - p.kappa / 2.0, -1j * d.g, 0.0],
            [-1j * d.g, -(1j * p.omega_m + p.gamma / 2.0), -gc],
            [0.0, -gc, -p.omega_c],
        ],
        dtype=complex,
    )


def drift_markovian(p: SystemParams, d: DriveParams) -> np.ndarray:
    """Two-mode drift (2x2 complex array) with memoryless mechanical damping.

    It is the (a, b) block of drift_nonmarkovian: the bath mode only borders it.
    """
    return drift_nonmarkovian(p, d)[:2, :2]
