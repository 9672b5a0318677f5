"""Exceptional-point solvers: closed form, perturbative shift, exact Newton."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_system
from eprenorm import (
    DegenerateDenominator,
    DriveParams,
    EpSolution,
    KIND_EXACT,
    KIND_MARKOVIAN,
    KIND_PERTURBATIVE,
    NoConvergence,
    NoMarkovianEp,
    OrderCheckFailed,
    SystemParams,
    TWO_PI,
    certify_order_two,
    char_cubic,
    cubic_roots,
    ep_candidates,
    hz_to_rad,
    markovian_ep,
    mech_renorm,
    perturbative_ep,
    solve_exact_ep,
)

# High-precision coordinates of the exact exceptional point at the default
# parameter set, used as a regression pin (independently cross-checked by
# the double-root and certificate tests below).
REF_DELTA_HZ = -998.6850325947265e3
REF_G_HZ = 49.37501085439698e3
REF_LAMBDA_HZ = complex(-50.62337558715875e3, -998.7174990285765e3)
REF_LAMBDA3_HZ = complex(-1001.2532488256825e3, -1.2500345375734e3)


def test_markovian_closed_form(params):
    sol = markovian_ep(params)
    assert sol.kind == KIND_MARKOVIAN
    assert sol.delta_ep == -params.omega_m
    assert sol.g_ep == (params.kappa - params.gamma) / 4.0
    lam = -(params.kappa + params.gamma) / 4.0 - 1j * params.omega_m
    assert sol.lambda_ep == lam
    # with delta = -omega_m the remaining root is exactly the bath pole
    assert abs(sol.lambda_3 + params.omega_c) < 1e-12 * params.omega_c
    # double root of the reduced quadratic: both residuals at rounding level
    s = max(abs(sol.lambda_ep), params.omega_m)
    assert sol.residual_p <= 1e-10 * sol.second_deriv_mag * s**2
    assert sol.residual_dp <= 1e-10 * sol.second_deriv_mag * s
    assert sol.second_deriv_mag == 2.0


def test_markovian_memoryless_limit(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    sol = markovian_ep(p0)
    assert sol.g_ep == p0.kappa / 4.0


def test_markovian_requires_kappa_above_gamma():
    p = SystemParams.from_hz(1.0e6, 1.0e3, 5.0e3, 1.0e6)
    with pytest.raises(NoMarkovianEp):
        markovian_ep(p)
    with pytest.raises(NoMarkovianEp):
        solve_exact_ep(p)


@pytest.mark.parametrize("kappa_hz", [1.0e3, 5.0e3], ids=["below", "equal"])
def test_kappa_gamma_guard_message(kappa_hz):
    """Every EP route refuses kappa <= gamma with markovian_ep's message, seeded or not."""
    p = SystemParams.from_hz(1.0e6, kappa_hz, 5.0e3, 1.0e6)
    expected = f"needs kappa > gamma, got kappa = {p.kappa!r}, gamma = {p.gamma!r}"
    seeded_exact = functools.partial(solve_exact_ep, seed=-1j * p.omega_m)
    for solver in (markovian_ep, perturbative_ep, solve_exact_ep, seeded_exact):
        with pytest.raises(NoMarkovianEp) as info:
            solver(p)
        assert str(info.value) == expected


def test_mech_renorm_closed_form(params):
    r = mech_renorm(params)
    den = params.omega_c**2 + params.omega_m**2
    assert r.gamma_eff == params.gamma * params.omega_m**2 / den
    assert r.omega_eff == params.omega_m * (
        1.0 - params.gamma * params.omega_c / (2.0 * den)
    )


def test_mech_renorm_limits(params):
    # crossover at the mechanical frequency: half the bare damping survives
    p_eq = dataclasses.replace(params, omega_c=params.omega_m)
    assert abs(mech_renorm(p_eq).gamma_eff - params.gamma / 2.0) < 1e-12 * params.gamma
    # slow bath: full damping recovered
    p_slow = dataclasses.replace(params, omega_c=1e-6 * params.omega_m)
    assert abs(mech_renorm(p_slow).gamma_eff - params.gamma) < 1e-9 * params.gamma
    # fast bath: damping suppressed as (omega_m/Omega_c)^2
    p_fast = dataclasses.replace(params, omega_c=1e6 * params.omega_m)
    assert mech_renorm(p_fast).gamma_eff < 1e-11 * params.gamma


def test_mech_renorm_bounds_random():
    rng = np.random.default_rng(13)
    for _ in range(25):
        p = draw_system(rng)
        r = mech_renorm(p)
        assert 0.0 < r.gamma_eff <= p.gamma
        assert 0.0 < r.omega_eff < p.omega_m


def test_perturbative_shift_values(params):
    base = markovian_ep(params)
    sol = perturbative_ep(params)
    assert sol.kind == KIND_PERTURBATIVE
    # at Omega_c == omega_m the shifts reduce to gamma/4 and gamma/8
    d_delta = sol.delta_ep - base.delta_ep
    d_g = sol.g_ep - base.g_ep
    assert abs(d_delta - hz_to_rad(1.25e3)) < 1e-9 * params.omega_m
    assert abs(d_g - hz_to_rad(0.625e3)) < 1e-9 * params.omega_m
    # relative coupling shift gamma/(2(kappa - gamma)) = 1/78 here
    rel = d_g / base.g_ep
    assert abs(rel - 1.0 / 78.0) < 2e-4
    # residuals are against the full cubic: small but nonzero
    assert sol.residual_p > 0.0


def test_perturbative_shift_vanishes_without_memory(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    base = markovian_ep(p0)
    sol = perturbative_ep(p0)
    assert sol.delta_ep == base.delta_ep
    assert sol.g_ep == base.g_ep


def test_perturbative_lambda3_is_remaining_root(params):
    sol = perturbative_ep(params)
    q = char_cubic(params, sol.drive)
    roots = cubic_roots(q)
    assert min(abs(r - sol.lambda_3) for r in roots) < 1e-6 * abs(sol.lambda_3)


def test_ep_candidates_memoryless_closed_form(params):
    """Without memory the candidate map lands exactly on the closed form."""
    p0 = dataclasses.replace(params, gamma=0.0)
    lam = -p0.kappa / 4.0 - 1j * p0.omega_m
    g_sq, delta = ep_candidates(p0, lam)
    assert abs(g_sq - (p0.kappa / 4.0) ** 2) < 1e-12 * (p0.kappa / 4.0) ** 2
    assert abs(delta - (-p0.omega_m)) < 1e-12 * p0.omega_m


def test_ep_candidates_fixed_point_at_exact_ep(params):
    sol = solve_exact_ep(params)
    g_sq, delta = ep_candidates(params, sol.lambda_ep)
    assert abs(math.sqrt(g_sq.real) - sol.g_ep) < 1e-10 * sol.g_ep
    assert abs(g_sq.imag) < 1e-9 * abs(g_sq)
    assert abs(delta.real - sol.delta_ep) < 1e-10 * abs(sol.delta_ep)
    assert abs(delta.imag) < 1e-9 * abs(sol.delta_ep)


def test_ep_candidates_generic_probe_is_complex(params):
    """Away from a coalescence the candidate coupling has an imaginary part."""
    g_sq, _ = ep_candidates(params, -1j * params.omega_m)
    assert abs(g_sq.imag) > 1e-12 * abs(g_sq)


def test_ep_candidates_degenerate_denominator(params):
    with pytest.raises(DegenerateDenominator):
        ep_candidates(params, complex(-params.omega_c, params.g_c))


def test_exact_ep_reference_coordinates(params):
    sol = solve_exact_ep(params)
    assert sol.kind == KIND_EXACT
    assert abs(sol.delta_ep - hz_to_rad(REF_DELTA_HZ)) < 1e-12 * abs(REF_DELTA_HZ) * TWO_PI
    assert abs(sol.g_ep - hz_to_rad(REF_G_HZ)) < 1e-12 * REF_G_HZ * TWO_PI
    ref_lam = TWO_PI * REF_LAMBDA_HZ
    ref_l3 = TWO_PI * REF_LAMBDA3_HZ
    assert abs(sol.lambda_ep - ref_lam) < 1e-12 * abs(ref_lam)
    assert abs(sol.lambda_3 - ref_l3) < 1e-12 * abs(ref_l3)


def test_exact_ep_coalescence_of_drift_eigenvalues(params):
    """At the solved coordinates two drift eigenvalues collapse onto lambda_ep."""
    from eprenorm import drift_nonmarkovian

    sol = solve_exact_ep(params)
    m = drift_nonmarkovian(params, sol.drive)
    eigs = sorted(np.linalg.eigvals(m), key=lambda z: abs(z - sol.lambda_ep))
    assert abs(eigs[0] - sol.lambda_ep) < 1e-4 * abs(sol.lambda_ep)
    assert abs(eigs[1] - sol.lambda_ep) < 1e-4 * abs(sol.lambda_ep)
    assert abs(eigs[2] - sol.lambda_3) < 1e-9 * abs(sol.lambda_3)


def test_exact_ep_custom_seed(params):
    ref = solve_exact_ep(params)
    seed = (-(params.kappa + params.gamma) / 4.0 - 1j * params.omega_m) * 1.02
    sol = solve_exact_ep(params, seed=seed)
    assert abs(sol.lambda_ep - ref.lambda_ep) < 1e-10 * abs(ref.lambda_ep)
    assert abs(sol.delta_ep - ref.delta_ep) < 1e-10 * abs(ref.delta_ep)
    assert abs(sol.g_ep - ref.g_ep) < 1e-10 * ref.g_ep


@pytest.mark.parametrize("where", ["pole", "zero"])
def test_exact_ep_single_seed_fails(params, where):
    """Newton runs from the caller's seed alone, and no perturbed seed is tried
    instead: on the pole of g_sq there is nothing to iterate from, and on a
    zero of g_sq (lam = -i omega_m without memory) sqrt(g_sq) has no derivative."""
    if where == "pole":
        p, seed = params, complex(-params.omega_c, params.g_c)
    else:
        p = dataclasses.replace(params, gamma=0.0)
        seed = -1j * p.omega_m
    with pytest.raises(NoConvergence):
        solve_exact_ep(p, seed=seed)


def test_exact_ep_memoryless_equals_markovian(params):
    p0 = dataclasses.replace(params, gamma=0.0)
    exact = solve_exact_ep(p0)
    mk = markovian_ep(p0)
    assert abs(exact.delta_ep - mk.delta_ep) < 1e-10 * abs(mk.delta_ep)
    assert abs(exact.g_ep - mk.g_ep) < 1e-10 * mk.g_ep
    assert abs(exact.lambda_ep - mk.lambda_ep) < 1e-10 * abs(mk.lambda_ep)


def test_exact_ep_monotone_memory_deformation(params):
    """Halving gamma pulls the exact point monotonically onto the closed form."""
    d_gaps = []
    g_gaps = []
    for k in range(10):
        pk = dataclasses.replace(params, gamma=params.gamma / 2.0**k)
        mk = markovian_ep(pk)
        sol = solve_exact_ep(pk)
        d_gaps.append(abs(sol.delta_ep - mk.delta_ep))
        g_gaps.append(abs(sol.g_ep - mk.g_ep))
    assert all(a > b for a, b in zip(d_gaps, d_gaps[1:]))
    assert all(a > b for a, b in zip(g_gaps, g_gaps[1:]))


def test_perturbative_consistent_with_exact(params):
    """First-order coordinates sit within a small fraction of their own shift."""
    mk = markovian_ep(params)
    pert = perturbative_ep(params)
    exact = solve_exact_ep(params)
    shift_d = abs(pert.delta_ep - mk.delta_ep)
    shift_g = abs(pert.g_ep - mk.g_ep)
    assert abs(exact.delta_ep - pert.delta_ep) <= 0.08 * shift_d
    assert abs(exact.g_ep - pert.g_ep) <= 1e-2 * shift_g

    # the leftover gap shrinks at least linearly in gamma
    p10 = dataclasses.replace(params, gamma=params.gamma / 10.0)
    gap = abs(exact.delta_ep - pert.delta_ep)
    gap10 = abs(solve_exact_ep(p10).delta_ep - perturbative_ep(p10).delta_ep)
    assert gap / gap10 >= 5.0


def test_residual_invariant_markovian_and_exact(params):
    """residual_p and residual_dp scale like a genuine double root."""

    def check(sol):
        s = max(abs(sol.lambda_ep), params.omega_m)
        assert sol.residual_p <= 1e-8 * sol.second_deriv_mag * s**2
        assert sol.residual_dp <= 1e-8 * sol.second_deriv_mag * s

    check(markovian_ep(params))
    check(solve_exact_ep(params))


def test_residual_invariant_random_draws():
    rng = np.random.default_rng(77)
    done = 0
    for _ in range(20):
        p = draw_system(rng)
        try:
            sol = solve_exact_ep(p)
        except Exception:
            continue
        s = max(abs(sol.lambda_ep), p.omega_m)
        assert sol.residual_p <= 1e-8 * sol.second_deriv_mag * s**2
        assert sol.residual_dp <= 1e-8 * sol.second_deriv_mag * s
        certify_order_two(p, sol)
        done += 1
    assert done >= 15


def test_residuals_are_the_certificate_magnitudes(params):
    """An EP's (residual_p, residual_dp, second_deriv_mag) equal its certificate's magnitudes."""
    rng = np.random.default_rng(5)
    draws = [draw_system(rng) for _ in range(10)]
    cases = [(p, solve_exact_ep(p), 1e-8) for p in [params, *draws]]
    cases.append((params, perturbative_ep(params), 1e-2))
    for p, sol, rtol in cases:
        cert = certify_order_two(p, sol, rtol=rtol)
        assert (sol.residual_p, sol.residual_dp, sol.second_deriv_mag) == (
            cert.p_mag,
            cert.dp_mag,
            cert.ddp_mag,
        )


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    kappa_rel=_log_uniform(1e-3, 0.5),
    gamma_rel=_log_uniform(1e-3, 0.5),
    cutoff_rel=_log_uniform(0.1, 10.0),
)
def test_exact_ep_converges_and_certifies(kappa_rel, gamma_rel, cutoff_rel):
    """kappa / omega_m, gamma / kappa and Omega_c / omega_m drawn log-uniformly."""
    omega_m = TWO_PI * 1e6
    kappa = kappa_rel * omega_m
    p = SystemParams(omega_m=omega_m, kappa=kappa, gamma=gamma_rel * kappa, omega_c=cutoff_rel * omega_m)
    certify_order_two(p, solve_exact_ep(p))


def test_certify_exact_passes(params):
    sol = solve_exact_ep(params)
    cert = certify_order_two(params, sol)
    assert cert.ddp_mag > 0.0
    assert cert.p_mag < cert.ddp_mag * params.omega_m**2
    assert cert.dp_mag < cert.ddp_mag * params.omega_m


def test_certify_perturbative_tolerance_dependence(params):
    """First-order coordinates certify only at a loose tolerance."""
    sol = perturbative_ep(params)
    with pytest.raises(OrderCheckFailed) as info:
        certify_order_two(params, sol, rtol=1e-8)
    assert info.value.p_mag >= 0.0
    assert info.value.dp_mag > 0.0
    assert info.value.ddp_mag > 0.0
    cert = certify_order_two(params, sol, rtol=1e-2)
    assert cert.ddp_mag > 0.0


def test_certify_rejects_arbitrary_point(params):
    q = char_cubic(params, DriveParams(delta=-params.omega_m, g=params.kappa / 8.0))
    lam = -params.kappa / 2.0 - 1.3j * params.omega_m
    fake = EpSolution(
        lambda_ep=lam,
        delta_ep=-params.omega_m,
        g_ep=params.kappa / 8.0,
        lambda_3=lam,
        residual_p=abs(q(lam)),
        residual_dp=abs(q.deriv(lam)),
        second_deriv_mag=abs(q.deriv2(lam)),
        kind=KIND_EXACT,
    )
    with pytest.raises(OrderCheckFailed):
        certify_order_two(params, fake)


def test_ep_solution_validation(params):
    lam = -params.kappa / 4.0 - 1j * params.omega_m
    common = dict(
        lambda_ep=lam,
        lambda_3=complex(-params.omega_c),
        residual_p=0.0,
        residual_dp=0.0,
        second_deriv_mag=2.0,
        kind=KIND_MARKOVIAN,
    )
    with pytest.raises(ValueError):
        EpSolution(delta_ep=-params.omega_m, g_ep=0.0, **common)
    with pytest.raises(ValueError):
        EpSolution(delta_ep=params.omega_m, g_ep=params.kappa / 4.0, **common)
    bad = dict(common, second_deriv_mag=0.0)
    with pytest.raises(ValueError):
        EpSolution(delta_ep=-params.omega_m, g_ep=params.kappa / 4.0, **bad)
