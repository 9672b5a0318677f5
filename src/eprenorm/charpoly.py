"""Characteristic-polynomial machinery for the three-mode drift.

The cubic factorizes through

    p(lambda) = (lambda - i*delta + kappa/2) * h(lambda) + g(lambda) * G^2

with f = lambda + i*omega_m + gamma/2, g = lambda + Omega_c and
h = g*f - g_c^2.  Eliminating the auxiliary mode produces the self-energy
Sigma(lambda) = g_c^2 / (Omega_c + lambda) and the reduced 2x2 block whose
determinant reproduces p up to the factor (lambda + Omega_c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PolePseudomode
from .model import DriveParams, SystemParams, drift_markovian

# Relative cutoff below which lambda counts as sitting on the pseudomode pole.
POLE_RTOL = 1e-9


@dataclass(frozen=True)
class CubicPoly:
    """Monic cubic x^3 + c2*x^2 + c1*x + c0."""

    c2: complex
    c1: complex
    c0: complex

    def __call__(self, lam: complex) -> complex:
        return ((lam + self.c2) * lam + self.c1) * lam + self.c0

    def deriv(self, lam: complex) -> complex:
        return (3.0 * lam + 2.0 * self.c2) * lam + self.c1

    def deriv2(self, lam: complex) -> complex:
        return 6.0 * lam + 2.0 * self.c2


@dataclass(frozen=True)
class FactorTriple:
    """The factor values (f, g, h) at one complex frequency."""

    f: complex
    g: complex
    h: complex


def factors(p: SystemParams, lam: complex) -> FactorTriple:
    """Evaluate f, g and h = g*f - g_c^2 at lam."""
    f = lam + 1j * p.omega_m + p.gamma / 2.0
    g = lam + p.omega_c
    return FactorTriple(f=f, g=g, h=g * f - p.g_c**2)


def self_energy(p: SystemParams, lam: complex) -> complex:
    """Mechanical self-energy g_c^2 / (Omega_c + lam) from the eliminated mode."""
    den = p.omega_c + lam
    if abs(den) < POLE_RTOL * p.omega_c:
        raise PolePseudomode(f"lambda = {lam!r} sits on the pseudomode pole -Omega_c")
    return p.g_c**2 / den


def char_cubic(p: SystemParams, d: DriveParams) -> CubicPoly:
    """Monic characteristic cubic of the three-mode drift matrix.

    Coefficients come from expanding (lam+A)(lam+B)(lam+C) - g_c^2*(lam+A)
    + G^2*(lam+C) with A = kappa/2 - i*delta, B = i*omega_m + gamma/2 and
    C = Omega_c; this is an independent code path from pointwise evaluation
    through factors().
    """
    a = p.kappa / 2.0 - 1j * d.delta
    b = 1j * p.omega_m + p.gamma / 2.0
    c = complex(p.omega_c)
    gc2 = p.g_c**2
    g2 = d.g**2
    return CubicPoly(
        c2=a + b + c,
        c1=a * b + a * c + b * c - gc2 + g2,
        c0=a * b * c - gc2 * a + g2 * c,
    )


def cubic_roots(q: CubicPoly):
    """Roots of a monic cubic, sorted by imaginary then real part.

    Uses companion-matrix eigenvalues (robust near double roots), then one
    guarded Newton step per root: the step is kept only when it reduces
    |q|, which protects double roots where q' nearly vanishes.
    """
    companion = np.array(
        [
            [-q.c2, -q.c1, -q.c0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ],
        dtype=complex,
    )
    roots = []
    for lam in np.linalg.eigvals(companion):
        val = q(lam)
        dval = q.deriv(lam)
        if dval != 0:
            trial = lam - val / dval
            if abs(q(trial)) < abs(val):
                lam = trial
        roots.append(complex(lam))
    roots.sort(key=lambda z: (z.imag, z.real))
    return tuple(roots)


def schur_effective_block(p: SystemParams, d: DriveParams, lam: complex) -> np.ndarray:
    """Reduced 2x2 drift block: drift_markovian plus the self-energy at [1, 1].

    Satisfies det(lam*I - M) = (lam + Omega_c) * det(lam*I2 - M_eff(lam)).
    """
    sigma = self_energy(p, lam)
    block = drift_markovian(p, d)
    block[1, 1] += sigma
    return block


def third_root_viete(p: SystemParams, delta: float, lambda_ep: complex) -> complex:
    """Remaining root of the cubic given a double root, via the root-sum identity."""
    return -(p.omega_c + p.gamma / 2.0 + p.kappa / 2.0 + 1j * (p.omega_m - delta)) - 2.0 * lambda_ep
