"""Frequency-domain input-output response of the driven linearized system.

Probe frequencies are offsets from the control laser.  The cavity response
is assembled from inverse susceptibilities

    chi_a^-1 = kappa/2 - i(omega + Delta)
    chi_b^-1 = gamma/2 - i(omega - omega_m)
    chi_c^-1 = Omega_c - i*omega

with the structured bath dressing the mechanics,
chi_b,eff^-1 = chi_b^-1 - g_c^2 * chi_c, and the common denominator
D = chi_a^-1 * chi_b,eff^-1 + G^2.  The reflection amplitude is computed in
two algebraically equivalent forms (susceptibility-sum and D-form) that are
kept as separate fields so their agreement stays testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .epsolver import mech_renorm
from .errors import SingularDenominator
from .model import DriveParams, SystemParams, _array_rows

# Coarse dip search grid and golden-section frequency resolution (in gamma).
DIP_WINDOW_GAMMAS = 25.0
DIP_COARSE_POINTS = 4001
DIP_XTOL_GAMMAS = 1e-3


@dataclass(frozen=True)
class Susceptibilities:
    """Inverse susceptibilities, common denominator and noise transfer at omega."""

    omega: float
    chi_a_inv: complex
    chi_b_inv: complex
    chi_b_eff_inv: complex
    chi_c_inv: complex
    d_denom: complex
    eta: complex


@dataclass(frozen=True)
class Spectrum:
    """Reflection response over probe frequencies, one array entry per omega.

    r is the susceptibility-sum form and s_aa the D-form of the same
    amplitude; both are retained so the algebraic identity between them can
    be checked downstream.  singular marks probe frequencies where the
    common denominator vanished; amplitudes are NaN there.
    """

    omega: np.ndarray
    r: np.ndarray
    r_sq: np.ndarray
    s_aa: np.ndarray
    s_axi: np.ndarray
    singular: np.ndarray

    def __iter__(self):
        """Rows in grid order, as named tuples with the field names above."""
        return _array_rows(self)


@dataclass(frozen=True)
class DipMetrics:
    """Location and depth of the reflection minimum near the mechanical line."""

    omega_min: float
    r_sq_min: float


@dataclass(frozen=True)
class Cooperativity:
    """Bare and bath-renormalized optomechanical cooperativities."""

    c: float
    c_eff: float


def susceptibilities(p: SystemParams, d: DriveParams, omega) -> Susceptibilities:
    """Inverse susceptibilities and derived quantities, elementwise in (complex) omega."""
    chi_a_inv = p.kappa / 2.0 - 1j * (omega + d.delta)
    chi_b_inv = p.gamma / 2.0 - 1j * (omega - p.omega_m)
    chi_c_inv = p.omega_c - 1j * omega
    chi_b_eff_inv = chi_b_inv - p.g_c**2 / chi_c_inv
    return Susceptibilities(
        omega=omega,
        chi_a_inv=chi_a_inv,
        chi_b_inv=chi_b_inv,
        chi_b_eff_inv=chi_b_eff_inv,
        chi_c_inv=chi_c_inv,
        d_denom=chi_a_inv * chi_b_eff_inv + d.g**2,
        eta=-math.sqrt(p.gamma) * 1j * omega / chi_c_inv,
    )


def _reflect(p: SystemParams, d: DriveParams, omega, markovian: bool) -> Spectrum:
    """Reflection of the one-sided cavity, elementwise over real omega.

    With markovian set, the bare mechanical susceptibility replaces the
    bath-dressed one and the noise transfer reduces to the white-noise
    amplitude sqrt(gamma).  Probe frequencies where |D| < 1e-12*kappa*omega_m
    come back flagged singular, with NaN amplitudes.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    s = susceptibilities(p, d, omega)
    chi_m_inv = s.chi_b_inv if markovian else s.chi_b_eff_inv
    eta = math.sqrt(p.gamma) if markovian else s.eta
    d_denom = s.chi_a_inv * chi_m_inv + d.g**2
    singular = np.abs(d_denom) < 1e-12 * p.kappa * p.omega_m
    with np.errstate(divide="ignore", invalid="ignore"):
        s_aa = 1.0 - p.kappa * chi_m_inv / d_denom
        r = np.where(chi_m_inv == 0, s_aa, 1.0 - p.kappa / (s.chi_a_inv + d.g**2 / chi_m_inv))
        s_axi = 1j * math.sqrt(p.kappa) * d.g * eta / d_denom
    nan = complex(math.nan, math.nan)
    r, s_aa, s_axi = (np.where(singular, nan, v) for v in (r, s_aa, s_axi))
    return Spectrum(omega, r, np.abs(r) ** 2, s_aa, s_axi, singular)


def spectrum(p: SystemParams, d: DriveParams, omega_grid, markovian: bool = False) -> Spectrum:
    """Reflection over a probe grid in one array pass; singular points come back flagged."""
    return _reflect(p, d, omega_grid, markovian)


def reflection(p: SystemParams, d: DriveParams, omega: float, markovian: bool = False) -> Spectrum:
    """The one-point case of spectrum, holding Python scalars instead of arrays.

    Raises SingularDenominator where the common denominator vanishes.
    """
    pt = _reflect(p, d, omega, markovian)
    if pt.singular[0]:
        raise SingularDenominator(f"response denominator vanishes at omega = {omega!r}")
    return Spectrum(*(getattr(pt, f.name).item() for f in fields(pt)))


def _golden_min(f, a: float, b: float, xtol: float):
    """Golden-section minimum of a scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(c), f(e)
    while (b - a) > xtol:
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(e)
    x = (a + b) / 2.0
    return x, f(x)


def dip_metrics(p: SystemParams, d: DriveParams, markovian: bool = False) -> DipMetrics:
    """Depth and location of the reflection dip near the mechanical resonance.

    Coarse scan over omega_m +/- 25*gamma followed by golden-section
    refinement down to 1e-3*gamma; probe frequencies where the response
    denominator vanishes are skipped as candidates.
    """

    def r_sq(omega):
        """|r|^2 elementwise over omega, inf where the response denominator vanishes."""
        pts = _reflect(p, d, omega, markovian)
        return np.where(pts.singular, math.inf, pts.r_sq)

    half_width = DIP_WINDOW_GAMMAS * p.gamma
    if half_width == 0.0:
        return DipMetrics(omega_min=p.omega_m, r_sq_min=r_sq(p.omega_m).item())
    grid = np.linspace(p.omega_m - half_width, p.omega_m + half_width, DIP_COARSE_POINTS)
    values = r_sq(grid)
    k = int(np.argmin(values))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, len(grid) - 1)])
    omega_min, r_min = _golden_min(lambda x: r_sq(x).item(), lo, hi, DIP_XTOL_GAMMAS * p.gamma)
    if values[k] < r_min:
        omega_min, r_min = float(grid[k]), float(values[k])
    return DipMetrics(omega_min=omega_min, r_sq_min=r_min)


def cooperativity(p: SystemParams, d: DriveParams) -> Cooperativity:
    """Bare cooperativity and its enhancement under the renormalized damping."""
    if p.gamma <= 0.0:
        raise ValueError("cooperativity needs gamma > 0")
    gamma_eff = mech_renorm(p).gamma_eff
    c = 4.0 * d.g**2 / (p.kappa * p.gamma)
    return Cooperativity(c=c, c_eff=4.0 * d.g**2 / (p.kappa * gamma_eff))
