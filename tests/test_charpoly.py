"""Characteristic cubic: coefficients, factor route, Schur identity, roots."""

import math

import numpy as np
import pytest

from draws import draw_drive, draw_system
from eprenorm import DriveParams, drift_nonmarkovian, schur_effective_block, solve_exact_ep
from eprenorm.charpoly import (
    CubicPoly,
    char_cubic,
    cubic_roots,
    factors,
    self_energy,
    third_root_viete,
)
from eprenorm.errors import PolePseudomode


def test_cubic_poly_matches_polyval():
    q = CubicPoly(c2=1.5 - 2.0j, c1=-0.25 + 0.5j, c0=3.0 + 1.0j)
    coeffs = [1.0, q.c2, q.c1, q.c0]
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam = complex(rng.normal(), rng.normal())
        assert abs(q(lam) - np.polyval(coeffs, lam)) < 1e-12 * max(1.0, abs(q(lam)))
        dcoeffs = [3.0, 2.0 * q.c2, q.c1]
        assert abs(q.deriv(lam) - np.polyval(dcoeffs, lam)) < 1e-12 * max(
            1.0, abs(q.deriv(lam))
        )
        assert abs(q.deriv2(lam) - (6.0 * lam + 2.0 * q.c2)) == 0.0


def test_cubic_poly_must_be_monic():
    # The cubic is monic by construction: there is no leading coefficient to set.
    with pytest.raises(TypeError):
        CubicPoly(c2=0.0, c1=0.0, c0=0.0, c3=2.0)


def test_factors_closed_form(params):
    lam = complex(-0.3 * params.kappa, -0.9 * params.omega_m)
    tri = factors(params, lam)
    assert tri.f == lam + 1j * params.omega_m + params.gamma / 2.0
    assert tri.g == lam + params.omega_c
    assert abs(tri.h - (tri.g * tri.f - params.g_c**2)) == 0.0


def test_self_energy_value_and_pole(params):
    lam = 0.5j * params.omega_m
    sig = self_energy(params, lam)
    assert abs(sig - params.g_c**2 / (params.omega_c + lam)) == 0.0
    with pytest.raises(PolePseudomode):
        self_energy(params, complex(-params.omega_c))


def test_char_cubic_matches_determinant(params, drive):
    """Coefficient route equals det(lam*I - M) and the factor route."""
    q = char_cubic(params, drive)
    m = drift_nonmarkovian(params, drive)
    scale = max(params.omega_m, params.kappa, params.omega_c, abs(drive.delta))
    rng = np.random.default_rng(7)
    for _ in range(25):
        lam = complex(rng.normal(scale=scale), rng.normal(scale=scale))
        det = complex(np.linalg.det(lam * np.eye(3) - m))
        ref = max(abs(det), scale**3)
        assert abs(q(lam) - det) < 1e-10 * ref
        tri = factors(params, lam)
        via_factors = (lam - 1j * drive.delta + params.kappa / 2.0) * tri.h + (
            tri.g * drive.g**2
        )
        assert abs(q(lam) - via_factors) < 1e-10 * ref


def test_char_cubic_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(30):
        p = draw_system(rng)
        d = draw_drive(rng, p)
        q = char_cubic(p, d)
        m = drift_nonmarkovian(p, d)
        scale = max(p.omega_m, p.kappa, p.omega_c, abs(d.delta))
        lam = complex(rng.normal(scale=scale), rng.normal(scale=scale))
        det = complex(np.linalg.det(lam * np.eye(3) - m))
        assert abs(q(lam) - det) < 1e-8 * max(abs(det), scale**3)


def test_schur_identity_draws():
    """det(lam*I - M) == (lam + Omega_c) * det(lam*I2 - M_eff(lam))."""
    rng = np.random.default_rng(41)
    for _ in range(30):
        p = draw_system(rng)
        d = draw_drive(rng, p)
        m = drift_nonmarkovian(p, d)
        scale = max(p.omega_m, p.kappa, p.omega_c, abs(d.delta))
        lam = complex(rng.normal(scale=scale), rng.normal(scale=scale))
        if abs(lam + p.omega_c) < 1e-3 * p.omega_c:
            lam += 0.1 * p.omega_c
        full = complex(np.linalg.det(lam * np.eye(3) - m))
        block = schur_effective_block(p, d, lam)
        reduced = (lam + p.omega_c) * complex(np.linalg.det(lam * np.eye(2) - block))
        assert abs(full - reduced) < 1e-8 * max(abs(full), scale**3)


def test_cubic_roots_viete_reconstruction():
    rng = np.random.default_rng(59)
    for _ in range(30):
        p = draw_system(rng)
        d = draw_drive(rng, p)
        q = char_cubic(p, d)
        roots = cubic_roots(q)
        assert len(roots) == 3
        scale = max(abs(r) for r in roots)
        assert abs(sum(roots) + q.c2) < 1e-9 * max(scale, abs(q.c2))
        pair = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        assert abs(pair - q.c1) < 1e-8 * max(scale**2, abs(q.c1))
        prod = roots[0] * roots[1] * roots[2]
        assert abs(prod + q.c0) < 1e-8 * max(scale**3, abs(q.c0))
        # sorted by (imag, real)
        keys = [(r.imag, r.real) for r in roots]
        assert keys == sorted(keys)


def test_cubic_roots_handle_double_root(params):
    """At the coalescence point two returned roots straddle the double root."""
    sol = solve_exact_ep(params)
    q = char_cubic(params, sol.drive)
    roots = cubic_roots(q)
    close = sorted(abs(r - sol.lambda_ep) for r in roots)
    assert close[0] < 1e-6 * abs(sol.lambda_ep)
    assert close[1] < 1e-6 * abs(sol.lambda_ep)


def test_third_root_viete_consistency(params):
    lam = complex(-0.2 * params.kappa, -params.omega_m)
    delta = -0.97 * params.omega_m
    d = DriveParams(delta=delta, g=0.3 * params.kappa)
    q = char_cubic(params, d)
    expected = -q.c2 - 2.0 * lam
    got = third_root_viete(params, delta, lam)
    assert abs(got - expected) < 1e-12 * max(abs(expected), params.omega_m)


def test_memoryless_limit_has_pseudomode_root(params):
    """gamma = 0 decouples the auxiliary mode; -Omega_c must be a root."""
    import dataclasses

    p0 = dataclasses.replace(params, gamma=0.0)
    d = DriveParams(delta=-p0.omega_m, g=0.25 * p0.kappa)
    q = char_cubic(p0, d)
    scale = max(p0.omega_m, p0.kappa, p0.omega_c)
    assert abs(q(complex(-p0.omega_c))) < 1e-8 * scale**3
    roots = cubic_roots(q)
    assert min(abs(r + p0.omega_c) for r in roots) < 1e-9 * p0.omega_c
