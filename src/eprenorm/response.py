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

spectrum returns one Spectrum of arrays over a 1-D probe grid, which it does
not echo back, and flags singular points; reflection returns the same
Spectrum and raises SingularDenominator at a singular point instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    chi_a_inv: complex
    chi_b_inv: complex
    chi_b_eff_inv: complex
    chi_c_inv: complex
    d_denom: complex
    eta: complex


@dataclass(frozen=True)
class Spectrum:
    """Reflection response, one array entry per omega of the caller's probe grid.

    r is the susceptibility-sum form and s_aa the D-form of the same
    amplitude; both are retained so the algebraic identity between them can
    be checked downstream.  singular marks probe frequencies where the
    common denominator vanished; amplitudes are NaN there.
    """

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


def _inverse_chis(p: SystemParams, d: DriveParams, omega):
    """chi_a^-1, chi_b^-1, chi_c^-1 and chi_b,eff^-1, elementwise in omega."""
    chi_a_inv = p.kappa / 2.0 - 1j * (omega + d.delta)
    chi_b_inv = p.gamma / 2.0 - 1j * (omega - p.omega_m)
    chi_c_inv = p.omega_c - 1j * omega
    return chi_a_inv, chi_b_inv, chi_c_inv, chi_b_inv - p.g_c**2 / chi_c_inv


def _denominator(chi_a_inv, chi_m_inv, g: float):
    """D = chi_a^-1 * chi_m^-1 + G^2; the product overflows to inf past |omega| ~ 1e154,
    so callers hold np.errstate(over="ignore")."""
    return chi_a_inv * chi_m_inv + g**2


def _d_form(p: SystemParams, chi_m_inv, d_denom):
    """The D-form of the reflection amplitude, 1 - kappa * chi_m^-1 / D."""
    return 1.0 - p.kappa * chi_m_inv / d_denom


def _eta(p: SystemParams, omega, chi_c_inv):
    """Noise transfer of the bath-dressed mechanics, -sqrt(gamma) * i*omega / chi_c^-1."""
    return -math.sqrt(p.gamma) * 1j * omega / chi_c_inv


def susceptibilities(p: SystemParams, d: DriveParams, omega) -> Susceptibilities:
    """Inverse susceptibilities and derived quantities, elementwise in (complex) omega."""
    chi_a_inv, chi_b_inv, chi_c_inv, chi_b_eff_inv = _inverse_chis(p, d, omega)
    with np.errstate(over="ignore"):
        d_denom = _denominator(chi_a_inv, chi_b_eff_inv, d.g)
    return Susceptibilities(
        chi_a_inv=chi_a_inv,
        chi_b_inv=chi_b_inv,
        chi_b_eff_inv=chi_b_eff_inv,
        chi_c_inv=chi_c_inv,
        d_denom=d_denom,
        eta=_eta(p, omega, chi_c_inv),
    )


def _response(p: SystemParams, d: DriveParams, omega: np.ndarray, markovian: bool):
    """The reflection core over a 1-d array of real omega: (chi_c^-1, chi_m^-1, D,
    singular mask, susceptibility-sum r), each computed once.  chi_m^-1 is the bare
    (markovian) or bath-dressed mechanical inverse susceptibility.  r is unmasked;
    where chi_m^-1 = 0 it takes the D-form, whose value (1 for G != 0) the sum form
    cannot reach through G^2 / 0."""
    chi_a_inv, chi_b_inv, chi_c_inv, chi_b_eff_inv = _inverse_chis(p, d, omega)
    chi_m_inv = chi_b_inv if markovian else chi_b_eff_inv
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d_denom = _denominator(chi_a_inv, chi_m_inv, d.g)
        singular = np.abs(d_denom) < 1e-12 * p.kappa * p.omega_m
        r = 1.0 - p.kappa / (chi_a_inv + d.g**2 / chi_m_inv)
        at_zero = chi_m_inv == 0
        if at_zero.any():
            r[at_zero] = _d_form(p, chi_m_inv[at_zero], d_denom[at_zero])
    return chi_c_inv, chi_m_inv, d_denom, singular, r


def _r_sq(p: SystemParams, d: DriveParams, omega: np.ndarray, markovian: bool) -> np.ndarray:
    """|r|^2 over a 1-d array of real omega, inf where the response denominator vanishes."""
    *_, singular, r = _response(p, d, omega, markovian)
    return np.where(singular, math.inf, np.abs(r) ** 2)


def spectrum(p: SystemParams, d: DriveParams, omega_grid, markovian: bool = False) -> Spectrum:
    """Reflection of the one-sided cavity over a probe grid, in one array pass.

    With markovian set, the bare mechanical susceptibility replaces the
    bath-dressed one and the noise transfer reduces to the white-noise
    amplitude sqrt(gamma).  Probe frequencies where |D| < 1e-12*kappa*omega_m
    come back flagged singular, with NaN amplitudes; a grid not 1-D raises ValueError.
    """
    omega = np.asarray(omega_grid, dtype=float)
    if omega.ndim != 1:
        raise ValueError(f"spectrum grid must be 1-D, got shape {omega.shape}")
    chi_c_inv, chi_m_inv, d_denom, singular, r = _response(p, d, omega, markovian)
    eta = math.sqrt(p.gamma) if markovian else _eta(p, omega, chi_c_inv)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_aa = _d_form(p, chi_m_inv, d_denom)
        s_axi = 1j * math.sqrt(p.kappa) * d.g * eta / d_denom
    nan = complex(math.nan, math.nan)
    r, s_aa, s_axi = (np.where(singular, nan, v) for v in (r, s_aa, s_axi))
    return Spectrum(r, np.abs(r) ** 2, s_aa, s_axi, singular)


def reflection(p: SystemParams, d: DriveParams, omega, markovian: bool = False) -> Spectrum:
    """spectrum at one probe frequency omega (a length-1 Spectrum) or over a 1-D grid of them,
    raising SingularDenominator at the first probe frequency that spectrum flags singular."""
    grid = np.atleast_1d(np.asarray(omega, dtype=float))
    pt = spectrum(p, d, grid, markovian)
    if pt.singular.any():
        raise SingularDenominator(f"response denominator vanishes at omega = {float(grid[pt.singular.argmax()])!r}")
    return pt


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


def _dip_grid(p: SystemParams) -> np.ndarray:
    """The coarse dip scan, DIP_COARSE_POINTS over omega_m +/- DIP_WINDOW_GAMMAS*gamma."""
    half_width = DIP_WINDOW_GAMMAS * p.gamma
    return np.linspace(p.omega_m - half_width, p.omega_m + half_width, DIP_COARSE_POINTS)


def dip_metrics(p: SystemParams, d: DriveParams, markovian: bool = False) -> DipMetrics:
    """Depth and location of the reflection dip near the mechanical resonance.

    Coarse scan over omega_m +/- 25*gamma followed by golden-section
    refinement down to 1e-3*gamma (at gamma = 0 both collapse onto omega_m);
    probe frequencies where the response denominator vanishes are skipped
    as candidates.
    """

    def r_sq_at(omega: float) -> float:
        return _r_sq(p, d, np.array([omega], dtype=float), markovian).item()

    grid = _dip_grid(p)
    values = _r_sq(p, d, grid, markovian)
    k = int(np.argmin(values))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, len(grid) - 1)])
    omega_min, r_min = _golden_min(r_sq_at, lo, hi, DIP_XTOL_GAMMAS * p.gamma)
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
