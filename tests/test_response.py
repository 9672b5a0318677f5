"""Input-output reflection response, dip metrics, cooperativities."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import draw_drive, draw_system
from eprenorm import (
    DriveParams,
    SingularDenominator,
    char_cubic,
    cooperativity,
    cubic_roots,
    dip_metrics,
    hz_to_rad,
    markovian_ep,
    mech_renorm,
    rad_to_hz,
    reflection,
    solve_exact_ep,
    spectrum,
    susceptibilities,
)


def test_susceptibilities_closed_forms(params, drive):
    w = 1.03 * params.omega_m
    s = susceptibilities(params, drive, w)
    assert s.chi_a_inv == params.kappa / 2.0 - 1j * (w + drive.delta)
    assert s.chi_b_inv == params.gamma / 2.0 - 1j * (w - params.omega_m)
    assert s.chi_c_inv == params.omega_c - 1j * w
    assert s.chi_b_eff_inv == s.chi_b_inv - params.g_c**2 / s.chi_c_inv
    assert s.d_denom == s.chi_a_inv * s.chi_b_eff_inv + drive.g**2


def test_eta_vanishes_at_zero_frequency(params, drive):
    assert susceptibilities(params, drive, 0.0).eta == 0.0


def test_dressed_mechanics_at_matched_cutoff(params, drive):
    """With Omega_c = omega_m the dressed inverse susceptibility at the
    mechanical line is gamma/4 - i*gamma/4."""
    assert params.omega_c == params.omega_m
    s = susceptibilities(params, drive, params.omega_m)
    ref = params.gamma / 4.0 - 1j * params.gamma / 4.0
    assert abs(s.chi_b_eff_inv - ref) < 1e-12 * abs(ref)


def test_dressing_disappears_without_memory(params, drive):
    p0 = dataclasses.replace(params, gamma=0.0)
    s = susceptibilities(p0, drive, 0.7 * params.omega_m)
    assert s.chi_b_eff_inv == s.chi_b_inv


def test_eta_magnitude_and_two_path_form(params, drive):
    """|eta|^2 equals the bath spectral weight gamma*w^2/(w^2+Omega_c^2) and
    eta matches the direct-plus-scattered decomposition."""
    for w in np.logspace(2, 8, 25):
        s = susceptibilities(params, drive, float(w))
        ref = params.gamma * w**2 / (w**2 + params.omega_c**2)
        assert abs(abs(s.eta) ** 2 - ref) < 1e-12 * ref
        two_path = (
            math.sqrt(params.gamma)
            - params.g_c * math.sqrt(2.0 * params.omega_c) / s.chi_c_inv
        )
        assert abs(s.eta - two_path) < 1e-12 * math.sqrt(params.gamma)


def test_reflection_bare_cavity_on_resonance(params):
    d = DriveParams(delta=-params.omega_m, g=0.0)
    pt = reflection(params, d, params.omega_m)
    assert abs(pt.r - (-1.0)) < 1e-12


def test_reflection_off_resonant_limit(params, drive):
    pt = reflection(params, drive, -drive.delta + 50.0 * params.kappa)
    assert abs(pt.r_sq - 1.0) < 1e-3


def test_reflection_memoryless_on_resonance_value(params):
    mk = markovian_ep(params)
    pt = reflection(params, mk.drive, params.omega_m, markovian=True)
    ref = (1.0 - params.kappa / (params.kappa / 2.0 + 2.0 * mk.g_ep**2 / params.gamma)) ** 2
    assert abs(pt.r_sq - ref) < 1e-12


def test_reflection_dual_forms_agree():
    rng = np.random.default_rng(307)
    for _ in range(15):
        p = draw_system(rng)
        d = draw_drive(rng, p)
        for w in np.linspace(0.5 * p.omega_m, 1.5 * p.omega_m, 21):
            for markov in (False, True):
                try:
                    pt = reflection(p, d, float(w), markovian=markov)
                except SingularDenominator:
                    continue
                assert abs(pt.r - pt.s_aa) < 1e-12 * max(1.0, abs(pt.r))


def test_reflection_singular_denominator(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    d0 = DriveParams(delta=-params.omega_m, g=0.0)
    with pytest.raises(SingularDenominator):
        reflection(p0, d0, params.omega_m, markovian=True)


def test_spectrum_flags_singular_rows(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    d0 = DriveParams(delta=-params.omega_m, g=0.0)
    grid = [params.omega_m - params.kappa, params.omega_m, params.omega_m + params.kappa]
    spec = spectrum(p0, d0, grid, markovian=True)
    assert spec.singular.tolist() == [False, True, False]
    assert math.isnan(spec.r_sq[1])
    assert not math.isnan(spec.r_sq[0]) and not math.isnan(spec.r_sq[2])


def test_spectrum_arrays_match_pointwise_reflection():
    """Each Spectrum entry equals the scalar one-point evaluation, and the
    singular mask is exactly the set where scalar reflection raises."""
    rng = np.random.default_rng(4011)
    cases = []
    for _ in range(6):
        p = draw_system(rng)
        cases += [
            (p, draw_drive(rng, p), False),
            (p, solve_exact_ep(p).drive, False),
            (p, markovian_ep(p).drive, True),
        ]
        # memoryless and uncoupled: D = 0 at omega_m, and one ulp above it
        # |D| is below the singular threshold without being zero
        p0 = dataclasses.replace(p, gamma=0.0)
        cases.append((p0, DriveParams(delta=-p.omega_m, g=0.0), True))
    n_singular = 0
    for p, d, markov in cases:
        grid = np.linspace(0.5 * p.omega_m, 1.5 * p.omega_m, 40)
        grid = np.append(grid, [p.omega_m, np.nextafter(p.omega_m, np.inf)])
        spec = spectrum(p, d, grid, markovian=markov)
        assert spec.omega.tolist() == grid.tolist()
        for k, w in enumerate(grid):
            try:
                pt = reflection(p, d, float(w), markovian=markov)
            except SingularDenominator:
                assert spec.singular[k]
                assert np.isnan(spec.r[k]) and np.isnan(spec.r_sq[k])
                n_singular += 1
                continue
            assert not spec.singular[k]
            for name in ("r", "s_aa", "s_axi"):
                want = getattr(pt, name)
                got = getattr(spec, name)[k]
                assert abs(got - want) <= 4e-16 * max(1.0, abs(want))
            assert spec.r_sq[k] == pytest.approx(pt.r_sq, rel=1e-15, abs=1e-15)
    assert n_singular == 12


def test_reflection_unit_magnitude_without_coupling(params):
    d = DriveParams(delta=-params.omega_m, g=0.0)
    for w in np.linspace(0.2 * params.omega_m, 2.0 * params.omega_m, 31):
        pt = reflection(params, d, float(w))
        assert abs(pt.r_sq - 1.0) < 1e-12


def test_spectrum_single_dip_and_depths(params):
    """Across the probe window the dressed spectrum has exactly one interior
    minimum, and it is shallower than the memoryless one."""
    sol = solve_exact_ep(params)
    mk = markovian_ep(params)
    grid = hz_to_rad(np.linspace(900e3, 1100e3, 2001))
    spec = spectrum(params, sol.drive, grid)
    vals = spec.r_sq
    minima = [
        i
        for i in range(1, len(vals) - 1)
        if vals[i] < vals[i - 1] and vals[i] <= vals[i + 1]
    ]
    assert len(minima) == 1
    assert abs(rad_to_hz(grid[minima[0]]) - 999.4e3) < 200.0

    dip_nm = dip_metrics(params, sol.drive)
    dip_mk = dip_metrics(params, mk.drive, markovian=True)
    assert dip_mk.r_sq_min < dip_nm.r_sq_min
    assert np.max(np.abs(spec.r - spec.s_aa)) < 1e-12


def test_dip_metrics_values(params):
    sol = solve_exact_ep(params)
    mk = markovian_ep(params)
    dip_mk = dip_metrics(params, mk.drive, markovian=True)
    dip_nm = dip_metrics(params, sol.drive)
    assert abs(dip_mk.r_sq_min - 0.6555) < 0.01
    assert abs(dip_nm.r_sq_min - 0.8146) < 0.01
    assert abs(dip_mk.omega_min - params.omega_m) < hz_to_rad(20.0)
    assert abs(rad_to_hz(dip_nm.omega_min) - 999.360e3) < 50.0
    window = 25.0 * params.gamma
    assert abs(dip_mk.omega_min - params.omega_m) <= window
    assert abs(dip_nm.omega_min - params.omega_m) <= window


def test_dip_metrics_narrow_line(params):
    p_tiny = dataclasses.replace(params, gamma=hz_to_rad(1e-3))
    d = DriveParams(delta=-params.omega_m, g=0.1 * params.kappa)
    dip = dip_metrics(p_tiny, d)
    assert math.isfinite(dip.r_sq_min)
    assert abs(dip.omega_min - params.omega_m) <= 25.0 * p_tiny.gamma


def test_dip_metrics_memoryless_limit_degenerates(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    d = DriveParams(delta=-params.omega_m, g=0.1 * params.kappa)
    dip = dip_metrics(p0, d)
    assert dip.omega_min == p0.omega_m


def test_cooperativity_formulas(params):
    sol = solve_exact_ep(params)
    coop = cooperativity(params, sol.drive)
    assert abs(coop.c - 4.0 * sol.g_ep**2 / (params.kappa * params.gamma)) < 1e-12 * coop.c
    # ratio is the damping renormalization factor, exactly 2 at Omega_c==omega_m
    ratio = coop.c_eff / coop.c
    assert abs(ratio - 2.0) < 1e-12
    assert abs(ratio - params.gamma / mech_renorm(params).gamma_eff) < 1e-12


def test_cooperativity_slow_bath_limit(params):
    p_slow = dataclasses.replace(params, omega_c=1e-3 * params.omega_m)
    d = DriveParams(delta=-params.omega_m, g=0.1 * params.kappa)
    coop = cooperativity(p_slow, d)
    assert abs(coop.c_eff / coop.c - 1.0) < 2e-6


def test_cooperativity_requires_damping(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    with pytest.raises(ValueError):
        cooperativity(p0, DriveParams(delta=-params.omega_m, g=0.1 * params.kappa))


def test_response_poles_match_drift_eigenvalues(params):
    """The response denominator vanishes at probe frequencies i*lambda for
    every eigenvalue lambda of the three-mode drift."""
    sol = solve_exact_ep(params)
    roots = cubic_roots(char_cubic(params, sol.drive))
    for lam in roots:
        s = susceptibilities(params, sol.drive, 1j * lam)
        scale = abs(s.chi_a_inv * s.chi_b_eff_inv) + sol.g_ep**2
        assert abs(s.d_denom) < 1e-9 * scale
