"""Randomized parameter draws shared by the test modules."""

import math

from eprenorm import DriveParams, SystemParams


def draw_system(rng):
    """Random sideband-resolved parameter set with kappa > gamma (rad/s)."""
    omega_m = 2.0 * math.pi * 10.0 ** rng.uniform(5.5, 6.5)
    kappa = omega_m * rng.uniform(0.05, 0.5)
    gamma = kappa * rng.uniform(1e-3, 0.5)
    omega_c = omega_m * rng.uniform(0.3, 3.0)
    return SystemParams(omega_m=omega_m, kappa=kappa, gamma=gamma, omega_c=omega_c)


def draw_drive(rng, p):
    """Random red-detuned drive compatible with p."""
    return DriveParams(
        delta=-p.omega_m * rng.uniform(0.8, 1.2),
        g=p.kappa * rng.uniform(0.05, 1.0),
    )
