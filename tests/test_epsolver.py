"""Exceptional-point solvers: closed form, perturbative shift, exact Newton."""

import cmath
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draws import draw_system
from eprenorm import (
    DriveParams,
    SystemParams,
    certify_order_two,
    markovian_ep,
    mech_renorm,
    perturbative_ep,
    solve_exact_ep,
)
from eprenorm import epsolver, model
from eprenorm.charpoly import char_cubic, cubic_roots, factors
from eprenorm.epsolver import EpSolution, _ep_drive, ep_candidates
from eprenorm.errors import (
    DegenerateDenominator,
    NoConvergence,
    NoMarkovianEp,
    NonPhysicalEp,
    OrderCheckFailed,
    SolverFailure,
)
from eprenorm.model import TWO_PI, hz_to_rad

# High-precision coordinates of the exact exceptional point at the default
# parameter set, used as a regression pin (independently cross-checked by
# the double-root and certificate tests below).
REF_DELTA_HZ = -998.6850325947265e3
REF_G_HZ = 49.37501085439698e3
REF_LAMBDA_HZ = complex(-50.62337558715875e3, -998.7174990285765e3)
REF_LAMBDA3_HZ = complex(-1001.2532488256825e3, -1.2500345375734e3)


def test_markovian_closed_form(params):
    sol = markovian_ep(params)
    assert sol.delta_ep == -params.omega_m
    assert sol.g_ep == (params.kappa - params.gamma) / 4.0
    lam = -(params.kappa + params.gamma) / 4.0 - 1j * params.omega_m
    assert sol.lambda_ep == lam
    # with delta = -omega_m the remaining root is exactly the bath pole
    assert abs(sol.lambda_3 + params.omega_c) < 1e-12 * params.omega_c
    # double root of the reduced quadratic (lam + a)(lam + b) + g^2, whose
    # second derivative is 2: both residuals at rounding level
    a = params.kappa / 2.0 - 1j * sol.delta_ep
    b = 1j * params.omega_m + params.gamma / 2.0
    s = max(abs(lam), params.omega_m)
    assert abs((lam + a) * (lam + b) + sol.g_ep**2) <= 1e-10 * 2.0 * s**2
    assert abs(2.0 * lam + a + b) <= 1e-10 * 2.0 * s


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


def test_perturbative_shift_values(params, monkeypatch):
    base = markovian_ep(params)
    sol = perturbative_ep(params)
    # at Omega_c == omega_m the shifts reduce to gamma/4 and gamma/8
    d_delta = sol.delta_ep - base.delta_ep
    d_g = sol.g_ep - base.g_ep
    assert abs(d_delta - hz_to_rad(1.25e3)) < 1e-9 * params.omega_m
    assert abs(d_g - hz_to_rad(0.625e3)) < 1e-9 * params.omega_m
    # relative coupling shift gamma/(2(kappa - gamma)) = 1/78 here
    rel = d_g / base.g_ep
    assert abs(rel - 1.0 / 78.0) < 2e-4
    # a double root of the full cubic to first order only: |p| small but nonzero
    monkeypatch.setattr(epsolver, "CERT_RTOL", 1e-2)
    assert certify_order_two(params, sol).p_mag > 0.0


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


def test_perturbative_lambda_is_the_closest_root_pair_midpoint(params):
    """lambda_ep, the midpoint of the two closest drift eigenvalues, is the
    midpoint of the two closest roots of char_cubic (cubic_roots, the
    companion-matrix reference) to 1e-12, on the defaults and 200 devices."""
    rng = np.random.default_rng(2700)
    for p in [params, *(draw_system(rng) for _ in range(200))]:
        sol = perturbative_ep(p)
        roots = cubic_roots(char_cubic(p, sol.drive))
        i, j = min(((0, 1), (0, 2), (1, 2)), key=lambda ij: abs(roots[ij[0]] - roots[ij[1]]))
        assert abs(sol.lambda_ep - (roots[i] + roots[j]) / 2.0) <= 1e-12 * abs(sol.lambda_ep)


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


def test_exact_ep_coordinates_are_the_candidate_map(params):
    """delta_ep and g_ep are bit-equal to ep_candidates at lambda_ep, Re delta_c
    and Re sqrt(g_sq) with Re g_sq > 0, on the defaults (from the memoryless
    seed and from test_exact_ep_custom_seed's) and on 20 random devices."""
    rng = np.random.default_rng(2202)
    seed = (-(params.kappa + params.gamma) / 4.0 - 1j * params.omega_m) * 1.02
    cases = [(params, None), (params, seed), *((draw_system(rng), None) for _ in range(20))]
    for p, s in cases:
        sol = solve_exact_ep(p, seed=s)
        g_sq, delta_c = ep_candidates(p, sol.lambda_ep)
        assert g_sq.real > 0.0
        assert sol.delta_ep == delta_c.real
        assert sol.g_ep == cmath.sqrt(g_sq).real


def test_exact_ep_evaluates_three_double_roots_at_defaults(params, monkeypatch):
    """One solve at the defaults evaluates f, g, h three times: at the seed,
    after one Newton step, and after the final short step, whose evaluation
    also gives the drive coordinates."""
    calls = []

    def counted(p, lam):
        calls.append(lam)
        return factors(p, lam)

    monkeypatch.setattr(epsolver, "factors", counted)
    solve_exact_ep(params)
    assert len(calls) == 3


def test_double_root_reads_the_factors_of_factors(params):
    """_double_root's (g_sq, t, g_sq', t') are, bit for bit, the expressions of
    its docstring over factors(p, lam), the one statement of f, g and h: on the
    defaults and 20 draw_system devices, at the default seed (the memoryless
    lambda_ep) and at the converged lambda_ep."""
    rng = np.random.default_rng(2047)
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        for lam in (markovian_ep(p).lambda_ep, solve_exact_ep(p).lambda_ep):
            fac = factors(p, lam)
            f, g, h = fac.f, fac.g, fac.h
            den = g**2 + p.g_c**2
            g_sq, gh, dh = h**2 / den, g * h / den, f + g
            want = (g_sq, lam + p.kappa / 2.0 + gh, 2.0 * (h * dh - g * g_sq) / den,
                    1.0 + (h + g * dh - 2.0 * g * gh) / den)
            got = epsolver._double_root(p, lam)
            assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in want]


def _far_seed(p):
    """A real seed at -0.9 Omega_c, far from the memoryless coalescence value."""
    return complex(-0.9 * p.omega_c, 0.0)


def test_exact_ep_newton_reaches_the_ep_from_a_far_seed(monkeypatch):
    """From the real seed -0.9 Omega_c on device 1 every Newton step is taken in
    full: the solve takes 6 double-root evaluations and returns the
    default-seed solution exactly, which certifies."""
    p = draw_system(np.random.default_rng(1))
    ref = solve_exact_ep(p)
    calls = []
    double_root = epsolver._double_root

    def counted(p, lam):
        calls.append(lam)
        return double_root(p, lam)

    monkeypatch.setattr(epsolver, "_double_root", counted)
    sol = solve_exact_ep(p, seed=_far_seed(p))
    assert len(calls) == 6
    assert sol == ref
    certify_order_two(p, sol)


def test_exact_ep_far_seed_reaches_the_default_seed_ep_on_200_devices():
    """Each of the 200 devices draw_system(default_rng(k)), k < 200, reaches its
    default-seed lambda_ep from -0.9 Omega_c to 1e-12 relative."""
    for k in range(200):
        p = draw_system(np.random.default_rng(k))
        ref = solve_exact_ep(p).lambda_ep
        lam = solve_exact_ep(p, seed=_far_seed(p)).lambda_ep
        assert abs(lam - ref) <= 1e-12 * abs(ref), k


def test_exact_ep_iteration_cap_raises_no_convergence(monkeypatch):
    """The far seed needs more than MAX_ITER = 2 Newton steps, so the
    iteration stops at the cap with NoConvergence."""
    p = draw_system(np.random.default_rng(1))
    monkeypatch.setattr(epsolver, "MAX_ITER", 2)
    with pytest.raises(NoConvergence):
        solve_exact_ep(p, seed=_far_seed(p))


def test_exact_ep_keeps_the_iterate_when_the_final_step_meets_the_pole(params, monkeypatch):
    """The final short step is kept only if its residual norm is no larger; one
    that lands where den vanishes (norm inf) leaves the previous iterate, whose
    coordinates still certify."""
    calls = []
    double_root = epsolver._double_root

    def pole_at_third(p, lam):
        calls.append(lam)
        return None if len(calls) == 3 else double_root(p, lam)

    monkeypatch.setattr(epsolver, "_double_root", pole_at_third)
    sol = solve_exact_ep(params)
    assert len(calls) == 3
    assert sol.lambda_ep == calls[1]
    certify_order_two(params, sol)


@pytest.mark.parametrize("d_g_sq", [0j, complex(math.nan, 0.0)], ids=["zero", "nan"])
def test_exact_ep_singular_jacobian_raises_no_convergence(params, monkeypatch, d_g_sq):
    """A zero or non-finite Jacobian determinant ends the iteration as
    NoConvergence, not as a division by zero or a nan iterate."""
    monkeypatch.setattr(epsolver, "_double_root", lambda p, lam: (1 + 0j, lam, d_g_sq, 0j))
    with pytest.raises(NoConvergence):
        solve_exact_ep(params)


@pytest.mark.parametrize("seed", [math.nan, complex(0.0, math.inf), -math.inf, 1e80, complex(-7e30, 0.0)])
def test_exact_ep_rejects_a_seed_outside_the_rate_range(params, seed):
    """A seed that is not finite or above the rate range (rad/s) in magnitude is
    a ValueError at the boundary, not a solver failure or an OverflowError."""
    with pytest.raises(ValueError, match="seed must be finite with"):
        solve_exact_ep(params, seed=seed)


def test_exact_ep_default_seed_past_the_rate_range_still_solves():
    """At omega_m = 2 pi 1e30 rad/s, the top of the rate range, the memoryless
    seed has |lambda| = sqrt(omega_m^2 + ((kappa+gamma)/4)^2) > omega_m: the
    seed check is for a caller's seed only, so the default route solves."""
    omega_m = hz_to_rad(1e30)
    p = SystemParams(omega_m=omega_m, kappa=0.1 * omega_m, gamma=0.01 * omega_m, omega_c=omega_m)
    assert abs(markovian_ep(p).lambda_ep) > model._RATE_RANGE[1]
    certify_order_two(p, solve_exact_ep(p))


@pytest.mark.parametrize("seed", [0.0, 1e-300, complex(-1e-30, 1e-30), complex(0.0, -model._RATE_RANGE[1])])
def test_exact_ep_solves_from_zero_tiny_and_top_of_range_seeds(params, seed):
    """A zero, a tiny and a top-of-range seed are accepted and reach the EP."""
    ref = solve_exact_ep(params)
    sol = solve_exact_ep(params, seed=seed)
    assert abs(sol.lambda_ep - ref.lambda_ep) <= 1e-12 * abs(ref.lambda_ep)
    certify_order_two(params, sol)


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
    """The exact EP's |p| and |p'| scale like a genuine double root of the
    cubic; the memoryless EP is a double root of the quadratic only, which
    test_markovian_closed_form checks."""
    sol = solve_exact_ep(params)
    cert = certify_order_two(params, sol)
    s = max(abs(sol.lambda_ep), params.omega_m)
    assert cert.p_mag <= 1e-8 * cert.ddp_mag * s**2
    assert cert.dp_mag <= 1e-8 * cert.ddp_mag * s


def test_residual_invariant_random_draws():
    """Every one of the 20 devices solves and meets both residual bounds."""
    rng = np.random.default_rng(77)
    for _ in range(20):
        p = draw_system(rng)
        sol = solve_exact_ep(p)
        cert = certify_order_two(p, sol)
        s = max(abs(sol.lambda_ep), p.omega_m)
        assert cert.p_mag <= 1e-8 * cert.ddp_mag * s**2
        assert cert.dp_mag <= 1e-8 * cert.ddp_mag * s


def test_ep_drive_outside_the_rate_range_is_non_physical():
    """In-range rates near the range's end can put the EP coupling
    (kappa - gamma)/4 below it: each route that builds the EP drive reports
    NonPhysicalEp, a solver failure, instead of the drive's ValueError."""
    p = SystemParams.from_hz(freq_hz=1.0, kappa_hz=2e-30, gamma_hz=0.0, cutoff_hz=1.0)
    routes = [lambda: markovian_ep(p).drive, lambda: perturbative_ep(p), lambda: solve_exact_ep(p)]
    for route in routes:
        with pytest.raises(NonPhysicalEp, match="outside the rate range: drive.coupling_hz = 5e-31 Hz"):
            route()


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


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(
    freq_hz=_log_uniform(1e-20, 1e29),
    kappa_rel=_log_uniform(1e-3, 0.5),
    gamma_rel=_log_uniform(1e-3, 0.5),
    cutoff_rel=_log_uniform(0.1, 10.0),
    seed_mag=_log_uniform(*model._RATE_RANGE).map(lambda x: min(x, model._RATE_RANGE[1])),
    seed_arg=st.floats(-math.pi, math.pi),
)
def test_exact_ep_in_range_seeds_certify_or_fail(freq_hz, kappa_rel, gamma_rel, cutoff_rel, seed_mag, seed_arg):
    """Resolved-sideband devices at any rate scale, seeded within the rate range
    in magnitude at any angle: the solve returns an EP that certifies or raises
    a SolverFailure, nothing else, and that failure is never NoConvergence.
    (Far outside the regime, kappa >~ 100 omega_m, Newton can cycle.)"""
    omega_m = hz_to_rad(freq_hz)
    kappa = kappa_rel * omega_m
    p = SystemParams(omega_m=omega_m, kappa=kappa, gamma=gamma_rel * kappa, omega_c=cutoff_rel * omega_m)
    try:
        sol = solve_exact_ep(p, seed=cmath.rect(seed_mag, seed_arg))
    except SolverFailure as exc:
        assert not isinstance(exc, NoConvergence), exc
        return
    certify_order_two(p, sol)


# Strongly over-damped devices (kappa ~ 280 and ~ 950 omega_m), far outside the
# resolved-sideband regime, where plain Newton from the memoryless seed settles
# into a 4-cycle of iterates or reaches a different certified EP than a
# residual-decreasing line search reached: -101.77 - 0.28i and -397.93 - 0.32i
# in units of omega_m.
_OVERDAMPED_CYCLE = dict(omega_m=299741523796.9112, kappa=85257765780723.0,
                         gamma=3236379298285.6133, omega_c=23931825471875.227)
_OVERDAMPED_OTHER_EP = dict(omega_m=3001157.0975662116, kappa=2858589053.316626,
                            gamma=389652992.49638826, omega_c=838979970.3709348)


def test_exact_ep_cycles_on_a_strongly_over_damped_device():
    """This records today's behaviour: MAX_ITER full steps end in NoConvergence."""
    with pytest.warns(UserWarning, match="resolved-sideband"):
        p = SystemParams(**_OVERDAMPED_CYCLE)
    with pytest.raises(NoConvergence):
        solve_exact_ep(p)


def test_exact_ep_reaches_another_certified_ep_on_a_strongly_over_damped_device():
    """This records today's behaviour: the certified double root at
    (-239.88 + 103.70i) omega_m, with g > 0 and delta < 0."""
    with pytest.warns(UserWarning, match="resolved-sideband"):
        p = SystemParams(**_OVERDAMPED_OTHER_EP)
    sol = solve_exact_ep(p)
    assert abs(sol.lambda_ep / p.omega_m - complex(-239.8823047528902, 103.69701112657485)) <= 1e-9
    certify_order_two(p, sol)


def test_certify_exact_passes(params):
    sol = solve_exact_ep(params)
    cert = certify_order_two(params, sol)
    assert cert.ddp_mag > 0.0
    assert cert.p_mag < cert.ddp_mag * params.omega_m**2
    assert cert.dp_mag < cert.ddp_mag * params.omega_m


def test_certify_perturbative_tolerance_dependence(params, monkeypatch):
    """First-order coordinates certify only at a loose tolerance."""
    sol = perturbative_ep(params)
    assert epsolver.CERT_RTOL == 1e-8
    with pytest.raises(OrderCheckFailed) as info:
        certify_order_two(params, sol)
    assert info.value.p_mag >= 0.0
    assert info.value.dp_mag > 0.0
    assert info.value.ddp_mag > 0.0
    monkeypatch.setattr(epsolver, "CERT_RTOL", 1e-2)
    cert = certify_order_two(params, sol)
    assert cert.ddp_mag > 0.0


def test_certify_rejects_arbitrary_point(params):
    """A point that is no double root fails, and so does the cubic's inflection
    point -c2/3, where |p''| = 0 marks no order-two root."""
    drive = DriveParams(delta=-params.omega_m, g=params.kappa / 8.0)
    q = char_cubic(params, drive)
    for lam in (-params.kappa / 2.0 - 1.3j * params.omega_m, -q.c2 / 3.0):
        fake = EpSolution(lambda_ep=lam, delta_ep=drive.delta, g_ep=drive.g, lambda_3=lam)
        with pytest.raises(OrderCheckFailed) as info:
            certify_order_two(params, fake)
        assert info.value.ddp_mag == abs(q.deriv2(lam))
    assert info.value.ddp_mag == 0.0


def test_ep_solution_validation(params):
    """g > 0 and delta < 0 is the one physicality rule: _ep_drive applies it
    for every route and every EpSolution.drive read, as a NonPhysicalEp."""
    lam = -params.kappa / 4.0 - 1j * params.omega_m
    common = dict(lambda_ep=lam, lambda_3=complex(-params.omega_c))
    cases = [
        (-params.omega_m, 0.0, "drive.coupling_hz = 0 Hz"),
        (params.omega_m, params.kappa / 4.0, r"drive.detuning_hz = 1e\+06 Hz"),
    ]
    for delta, g, match in cases:
        with pytest.raises(NonPhysicalEp, match=match):
            _ep_drive(delta, g)
        with pytest.raises(NonPhysicalEp, match=match):
            EpSolution(delta_ep=delta, g_ep=g, **common).drive
    # gamma * Omega_c / (2 (Omega_c^2 + omega_m^2)) = 1.125 >= 1: omega_eff < 0
    with pytest.warns(UserWarning, match="resolved-sideband"):
        p = SystemParams.from_hz(freq_hz=1e6, kappa_hz=5e6, gamma_hz=4.5e6, cutoff_hz=1e6)
    with pytest.raises(NonPhysicalEp, match="g > 0 and delta < 0: drive.detuning_hz = 125000 Hz"):
        perturbative_ep(p)
