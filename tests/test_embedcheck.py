"""Cross-validation of the auxiliary-mode embedding by direct integration."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from draws import draw_drive, draw_system
from eprenorm import (
    DriveParams,
    SystemParams,
    compare_embeddings,
    convergence_order,
    drift_markovian,
    drift_nonmarkovian,
    embedcheck,
    mech_renorm,
    solve_exact_ep,
)
from eprenorm.embedcheck import (
    Trajectory,
    integrate_nonmarkovian,
    integrate_pseudomode,
    kernel_fourier_error,
)
from eprenorm.errors import StepTooLarge
from eprenorm.model import hz_to_rad, memory_kernel_smooth, spectral_density


def _default_dt(p):
    return 1.0 / (100.0 * p.omega_m)


def _propagated(arr, y0, times):
    """Exact linear evolution exp(arr*t) @ y0 at each time, via eig."""
    w, v = np.linalg.eig(arr)
    coef = np.linalg.solve(v, np.asarray(y0, dtype=complex))
    return (np.exp(np.outer(times, w)) * coef) @ v.T


def _rk4_stagewise(rhs, y0, n_steps, dt):
    """Reference: classical four-stage RK4 over tuples of complexes."""
    y = tuple(complex(v) for v in y0)
    out = [y]
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(tuple(a + dt / 2.0 * b for a, b in zip(y, k1)))
        k3 = rhs(tuple(a + dt / 2.0 * b for a, b in zip(y, k2)))
        k4 = rhs(tuple(a + dt * b for a, b in zip(y, k3)))
        y = tuple(
            a + dt / 6.0 * (b + 2.0 * c + 2.0 * d + e)
            for a, b, c, d, e in zip(y, k1, k2, k3, k4)
        )
        out.append(y)
    return np.array(out)


def test_propagator_matches_stagewise_rk4(params, drive):
    """Both integrators reproduce stage-wise RK4 over the whole trajectory.

    The propagator changes only the rounding order, so the relative
    deviation stays at accumulated round-off, far below 1e-12.
    """
    dt = _default_dt(params)
    t_final = 10.0 / params.kappa
    n_steps = int(round(t_final / dt))
    ca = 1j * drive.delta - params.kappa / 2.0
    cb = -(1j * params.omega_m + params.gamma / 2.0)
    ig = 1j * drive.g
    gc = params.g_c
    oc = params.omega_c
    mem = params.gamma * params.omega_c / 2.0

    def rhs_pseudomode(y):
        a, b, c = y
        return (ca * a - ig * b, -ig * a + cb * b - gc * c, -gc * b - oc * c)

    def rhs_accumulator(y):
        a, b, u = y
        return (ca * a - ig * b, -ig * a + cb * b + mem * u, -oc * u + b)

    cases = [
        (integrate_pseudomode(params, drive, (1.0, 0.5 - 0.5j, 0.25j), t_final, dt),
         _rk4_stagewise(rhs_pseudomode, (1.0, 0.5 - 0.5j, 0.25j), n_steps, dt)),
        (integrate_nonmarkovian(params, drive, (1.0, 0.5 - 0.5j), t_final, dt),
         _rk4_stagewise(rhs_accumulator, (1.0, 0.5 - 0.5j, 0.0), n_steps, dt)),
    ]
    for traj, ref in cases:
        assert traj.amps.shape == ref.shape == (n_steps + 1, 3)
        scale = float(np.max(np.linalg.norm(ref, axis=1)))
        err = float(np.max(np.linalg.norm(traj.amps - ref, axis=1)))
        assert err <= 1e-12 * scale


@pytest.mark.parametrize(
    "n_steps",
    [1, 2, 3, 63, 64, 65, 1023, 1024, 1025],
    ids=["one", "two", "three", "2^6-1", "2^6", "2^6+1", "2^10-1", "2^10", "2^10+1"],
)
def test_block_edges_match_stagewise_rk4(params, drive, n_steps):
    """Doubling propagation matches stage-wise RK4 at its block edges.

    Each iteration fills one block of k = min(m, n_steps + 1 - m) rows from
    P^m: n_steps = 2^j - 1 ends on a full doubling, 2^j on a last block of
    one row and 2^j + 1 on one of two.  A zero state stays exactly zero.
    """
    dt = _default_dt(params)
    t_final = n_steps * dt
    ca = 1j * drive.delta - params.kappa / 2.0
    cb = -(1j * params.omega_m + params.gamma / 2.0)
    ig = 1j * drive.g
    gc = params.g_c
    oc = params.omega_c
    mem = params.gamma * params.omega_c / 2.0

    def rhs_pseudomode(y):
        a, b, c = y
        return (ca * a - ig * b, -ig * a + cb * b - gc * c, -gc * b - oc * c)

    def rhs_accumulator(y):
        a, b, u = y
        return (ca * a - ig * b, -ig * a + cb * b + mem * u, -oc * u + b)

    cases = [
        (integrate_pseudomode(params, drive, (1.0, 0.5 - 0.5j, 0.25j), t_final, dt),
         _rk4_stagewise(rhs_pseudomode, (1.0, 0.5 - 0.5j, 0.25j), n_steps, dt)),
        (integrate_nonmarkovian(params, drive, (1.0, 0.5 - 0.5j), t_final, dt),
         _rk4_stagewise(rhs_accumulator, (1.0, 0.5 - 0.5j, 0.0), n_steps, dt)),
    ]
    for traj, ref in cases:
        assert traj.amps.shape == ref.shape == (n_steps + 1, 3)
        # linspace(0, n*dt, n + 1) may differ from k*dt in the last bit (n = 3 does).
        np.testing.assert_allclose(traj.times, np.arange(n_steps + 1) * dt, rtol=1e-15, atol=0.0)
        assert traj.times[-1] == t_final
        scale = float(np.max(np.linalg.norm(ref, axis=1)))
        err = float(np.max(np.linalg.norm(traj.amps - ref, axis=1)))
        assert err <= 1e-12 * scale

    zero_pm = integrate_pseudomode(params, drive, (0.0, 0.0, 0.0), t_final, dt)
    zero_direct = integrate_nonmarkovian(params, drive, (0.0, 0.0), t_final, dt)
    for traj in (zero_pm, zero_direct):
        assert traj.amps.shape == (n_steps + 1, 3)
        assert np.all(traj.amps == 0.0)


def _stepped_p(arrs, y0s, n_steps, t_finals):
    """Reference: one run per generator of arrs, each P stepped one row at a time."""
    pows = embedcheck._stability_polynomial(np.array(arrs), n_steps, np.array(t_finals)[:, None, None])
    amps = np.empty((n_steps + 1, len(arrs), 3), dtype=complex)
    amps[0] = y0s
    for k in range(n_steps):
        amps[k + 1] = (pows @ amps[k][..., None])[..., 0]
    return amps


def test_doubled_trajectories_match_stepping_p(params):
    """Both integrators, at the exact-EP drive and on 20 devices, for up to
    20,000 steps at the resolution limit: each doubled trajectory is within
    1e-12 (relative to its peak) of stepping its own P one row at a time."""
    cases = [(params, solve_exact_ep(params).drive)]
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    init = (1.0, 0.5 - 0.5j, 0.25j)
    for n_steps in (1000, 20000):
        runs, arrs, y0s, t_finals = [], [], [], []
        for p, d in cases:
            dt = embedcheck._resolution_limit(p, d)
            t_final = n_steps * dt
            acc = drift_nonmarkovian(p, d)
            acc[1, 2] = p.gamma * p.omega_c / 2.0
            acc[2, 1] = 1.0
            runs += [integrate_pseudomode(p, d, init, t_final, dt),
                     integrate_nonmarkovian(p, d, init[:2], t_final, dt)]
            arrs += [drift_nonmarkovian(p, d), acc]
            y0s += [init, (*init[:2], 0.0)]
            t_finals += [t_final, t_final]
        ref = _stepped_p(arrs, y0s, n_steps, t_finals)
        for i, run in enumerate(runs):
            assert run.amps.shape == ref[:, i].shape
            scale = float(np.max(np.linalg.norm(ref[:, i], axis=1)))
            err = float(np.max(np.linalg.norm(run.amps - ref[:, i], axis=1)))
            assert err <= 1e-12 * scale, f"n = {n_steps}, run {i}: {err / scale:.3g}"


def test_step_count_bound_checked_before_integrating(params, drive, monkeypatch):
    """Runs over MAX_STEPS fail before any trajectory is allocated; the
    4n run of convergence_order counts toward the bound."""

    def no_integration(*args):
        raise AssertionError("integration started despite the step bound")

    dt = _default_dt(params)
    too_long = (embedcheck.MAX_STEPS + 1) * dt
    monkeypatch.setattr(embedcheck, "_rk4_propagate", no_integration)
    with pytest.raises(ValueError, match="steps"):
        integrate_pseudomode(params, drive, (1.0, 0.0, 0.0), too_long, dt)
    with pytest.raises(ValueError, match="steps"):
        integrate_nonmarkovian(params, drive, (1.0, 0.0), math.inf, dt)
    with pytest.raises(ValueError, match="steps"):
        compare_embeddings(params, drive, (1.0, 0.0), too_long, dt)

    monkeypatch.setattr(embedcheck, "_order_endpoints", no_integration)
    limit = embedcheck._resolution_limit(params, drive)
    coarse_ok = (embedcheck.MAX_STEPS // 4 + 1) * limit
    with pytest.raises(ValueError, match="steps"):
        convergence_order(params, drive, (1.0, 0.0, 0.0), coarse_ok)


def test_resolution_limit_follows_the_fastest_drift_rate(params, drive):
    """L = MAX_DT_FRACTION / rho with rho the largest rate in the drift: omega_m
    at the defaults, bit for bit, and the cutoff, coupling or detuning where
    that one is faster."""
    fraction = embedcheck.MAX_DT_FRACTION
    assert embedcheck._resolution_limit(params, drive) == fraction / params.omega_m
    fast = 7.0 * params.omega_m
    cases = [
        (dataclasses.replace(params, omega_c=fast), drive),
        (params, dataclasses.replace(drive, g=fast)),
        (params, dataclasses.replace(drive, delta=-fast)),
    ]
    for p, d in cases:
        assert embedcheck._resolution_limit(p, d) == fraction / fast


def test_order_steps_is_the_fewest_within_the_limit(params, drive):
    """_order_steps is the fewest whole n with t_final/n <= L, found by brute
    force, on horizons within a few ulps of k*L; past the 4n bound it raises."""
    limit = embedcheck._resolution_limit(params, drive)
    eps = np.finfo(float).eps
    for k in (1, 3, 1000, 50000):
        for j in range(-2, 3):
            t_final = k * limit * (1.0 + j * eps)
            counts = np.arange(1, k + 2)
            fewest = int(counts[t_final / counts <= limit][0])
            if 4 * fewest > embedcheck.MAX_STEPS:
                with pytest.raises(ValueError, match="order check: 4n"):
                    embedcheck._order_steps(params, drive, t_final)
            else:
                assert embedcheck._order_steps(params, drive, t_final) == fewest, (k, j)


def test_zero_initial_state_stays_zero(params, drive):
    dt = _default_dt(params)
    traj = integrate_pseudomode(params, drive, (0.0, 0.0, 0.0), 1e-6, dt)
    assert np.all(traj.amps == 0.0)
    assert compare_embeddings(params, drive, (0.0, 0.0), 1e-6, dt) == 0.0


def test_bare_cavity_decay(params):
    d = DriveParams(delta=-params.omega_m, g=0.0)
    dt = _default_dt(params)
    traj = integrate_pseudomode(params, d, (1.0, 0.0, 0.0), 2.0 / params.kappa, dt)
    exact = np.exp((1j * d.delta - params.kappa / 2.0) * traj.times)
    assert float(np.max(np.abs(traj.amps[:, 0] - exact))) < 1e-6


def test_endpoint_matches_dense_propagator(params, drive):
    dt = _default_dt(params)
    y0 = (1.0, 0.5 - 0.5j, 0.25j)
    traj = integrate_pseudomode(params, drive, y0, 10.0 / params.kappa, dt)
    arr = drift_nonmarkovian(params, drive)
    exact = _propagated(arr, y0, [traj.times[-1]])[0]
    assert float(np.linalg.norm(traj.amps[-1] - exact)) < 1e-6 * float(
        np.linalg.norm(exact)
    )


def test_step_validation(params, drive):
    with pytest.raises(StepTooLarge):
        integrate_pseudomode(params, drive, (1.0, 0.0, 0.0), 1e-5, 1e-6)
    with pytest.raises(ValueError):
        integrate_pseudomode(params, drive, (1.0, 0.0, 0.0), -1.0, 1e-9)
    with pytest.raises(ValueError):
        integrate_nonmarkovian(params, drive, (1.0, 0.0), 1e-5, 0.0)


def test_embeddings_agree_at_defaults(params, drive):
    err = compare_embeddings(
        params, drive, (1.0, 1.0), 20.0 / params.kappa, _default_dt(params)
    )
    assert err < 1e-6


def test_convergence_is_fourth_order(params, drive):
    order, ratio = convergence_order(params, drive, (1.0, 1.0, 0.0), 20.0 / params.kappa)
    assert abs(order - 4.0) <= 0.05
    assert 12.0 <= ratio <= 20.0


def test_convergence_order_on_random_devices():
    """The order triple comes from each device's resolution limit, and all
    three runs end at t_final, so RK4 reads fourth order on every draw."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        p = draw_system(rng)
        d = draw_drive(rng, p)
        order, _ = convergence_order(p, d, (1.0, 1.0, 0.0), 20.0 / p.kappa)
        assert abs(order - 4.0) <= 0.05, f"seed {seed}: order {order}"


def test_convergence_order_at_the_step_bound(params, drive):
    """At the longest horizon the bound admits, 4n = MAX_STEPS, the order
    check still reads fourth order on the defaults and 20 devices: powers of
    P_h cost nothing per step, so the bound only limits how far rounding
    can build up."""
    n = embedcheck.MAX_STEPS // 4
    cases = [(params, drive)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    for k, (p, d) in enumerate(cases):
        t_final = n * embedcheck._resolution_limit(p, d)
        assert embedcheck._order_steps(p, d, t_final) == n, k
        order, _ = convergence_order(p, d, (1.0, 1.0, 0.0), t_final)
        assert abs(order - 4.0) <= 0.05, f"case {k}: order {order}"


def test_order_endpoints_match_stepped_runs(params, drive):
    """Each power endpoint of the order check is the last row of the stepped
    run with the same step, to rounding, on the defaults and 60 devices."""
    cases = [(params, drive)]
    for seed in range(60):
        rng = np.random.default_rng(seed)
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    y0 = (1.0, 1.0, 0.0)
    for p, d in cases:
        t_final = 20.0 / p.kappa
        n = embedcheck._order_steps(p, d, t_final)
        ends = embedcheck._order_endpoints(drift_nonmarkovian(p, d), y0, n, t_final)
        for end, m in zip(ends, (n, 2 * n, 4 * n)):
            stepped = integrate_pseudomode(p, d, y0, t_final, t_final / m)
            assert len(stepped.times) == m + 1
            ref = stepped.amps[-1]
            assert float(np.linalg.norm(end - ref)) <= 1e-10 * float(np.linalg.norm(ref))


def test_order_endpoints_are_matrix_powers_bit_for_bit(params, drive):
    """Row k of _order_endpoints is matrix_power(P_m, m) @ y0 for m = 2^k n,
    bit for bit, on the defaults and 20 devices, at t_final = 20/kappa and at
    1, 2 and 3 resolution limits: numpy's matrix_power(P, 2^k n) starts with
    the k squarings that make the stack's S = P_{h/2^k}^{2^k}.  At n = 3 its
    shortcut multiplies (S S) S where matrix_power(P, 3 * 2^k) multiplies
    S (S S), so there the rows agree to rounding only."""
    cases = [(params, drive)]
    rng = np.random.default_rng(34)
    for _ in range(20):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    y0 = (1.0, 0.5 - 0.5j, 0.25j)
    exact = rounded = 0
    for p, d in cases:
        arr = drift_nonmarkovian(p, d)
        limit = embedcheck._resolution_limit(p, d)
        for t_final in (20.0 / p.kappa, limit, 2.0 * limit, 3.0 * limit):
            n = embedcheck._order_steps(p, d, t_final)
            ends = embedcheck._order_endpoints(arr, y0, n, t_final)
            for end, m in zip(ends, (n, 2 * n, 4 * n)):
                ref = np.linalg.matrix_power(embedcheck._stability_polynomial(arr, m, t_final), m) @ np.array(y0)
                if n != 3:
                    assert np.array_equal(end, ref), (n, m)
                    exact += 1
                else:
                    assert float(np.linalg.norm(end - ref)) <= 1e-14 * float(np.linalg.norm(ref)), (n, m)
                    rounded += 1
    assert exact >= 9 * len(cases) and rounded >= 3


def _doubled_run(arr, y0, n_steps, t_final):
    """Reference: one run's doubling propagation as the single-run form wrote it,
    rows m..m+k-1 of one (n_steps + 1, 3) array filled by np.dot with P^m."""
    power = embedcheck._stability_polynomial(arr, n_steps, t_final)
    amps = np.empty((n_steps + 1, 3), dtype=complex)
    amps[0] = y0
    m = 1
    while m <= n_steps:
        rows = amps[m : 2 * m]
        np.dot(amps[: len(rows)], power.T, out=rows)
        m *= 2
        if m <= n_steps:
            power = power @ power
    return amps


def _compare_reference(p, d, init_ab, t_final, dt):
    """Reference: compare_embeddings as two public integrator runs and row norms."""
    pm = integrate_pseudomode(p, d, (init_ab[0], init_ab[1], 0.0), t_final, dt)
    direct = integrate_nonmarkovian(p, d, init_ab, t_final, dt)
    worst = float(np.max(np.linalg.norm(pm.amps[:, :2] - direct.amps[:, :2], axis=1)))
    scale = float(np.max(np.linalg.norm(direct.amps[:, :2], axis=1)))
    if scale == 0.0:
        return 0.0 if worst == 0.0 else math.inf
    return worst / scale


def _order_endpoints_reference(arr, y0, n, t_final):
    """Reference: _order_endpoints with one Horner form and one matrix_power per step size."""
    pows = np.stack([np.linalg.matrix_power(embedcheck._stability_polynomial(arr, k * n, t_final), k)
                     for k in (1, 2, 4)])
    return np.linalg.matrix_power(pows, n) @ np.asarray(y0, dtype=complex)


def _bit_identity_cases(params, drive):
    cases = [(params, drive)]
    rng = np.random.default_rng(39)
    for _ in range(20):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    return cases


def test_stacked_comparison_matches_two_runs_bit_for_bit(params, drive):
    """compare_embeddings propagates both generators as one stack and folds its
    norms from the columns; each run and the result keep the bits of two
    single runs and np.linalg.norm, on the defaults and 20 devices, at the CLI's
    default grid (dt = L/2 to 20/kappa), one step, and a t_final that is not a
    multiple of dt.  Each public integrator, a stack of one, keeps the bits of
    the single-run np.dot form too."""
    init_ab = (1.0, 0.5 - 0.5j)
    for p, d in _bit_identity_cases(params, drive):
        limit = embedcheck._resolution_limit(p, d)
        acc = drift_nonmarkovian(p, d)
        acc[1, 2] = p.gamma * p.omega_c / 2.0
        acc[2, 1] = 1.0
        for t_final, dt in ((20.0 / p.kappa, limit / 2.0), (limit, limit), (1000.5 * limit / 2.0, limit / 2.0)):
            n_steps = embedcheck._check_step(p, d, t_final, dt)
            err = compare_embeddings(p, d, init_ab, t_final, dt)
            assert err == _compare_reference(p, d, init_ab, t_final, dt), (p, t_final)
            assert 0.0 <= err < 1e-6
            y0 = (*init_ab, 0.25j)
            runs = [(integrate_pseudomode(p, d, y0, t_final, dt), drift_nonmarkovian(p, d), y0),
                    (integrate_nonmarkovian(p, d, init_ab, t_final, dt), acc, (*init_ab, 0.0))]
            for run, arr, y0 in runs:
                assert len(run.times) == n_steps + 1
                assert np.array_equal(run.amps, _doubled_run(arr, y0, n_steps, t_final))


def test_comparison_folds_each_amplitude_before_the_two(params, drive, monkeypatch):
    """compare_embeddings folds a row's squared parts as (re a^2 + im a^2) +
    (re b^2 + im b^2).  Crafted runs whose largest row rounds differently under
    (re a^2 + re b^2) + (im a^2 + im b^2) give that fold's value, not the other's."""
    pseudo = np.array([[0.5, 0.5, 0.0], [0.3 + 0.8j, 0.6 + 0.4j, 0.0]])
    accum = np.array([[0.5, 0.5, 0.0], [0.1 + 1.0j, 0.3 + 0.7j, 0.0]])
    monkeypatch.setattr(embedcheck, "_rk4_propagate", lambda *args: np.stack([pseudo, accum]))

    def fold(a, b, per_amplitude):
        if per_amplitude:
            return math.sqrt((a.real * a.real + a.imag * a.imag) + (b.real * b.real + b.imag * b.imag))
        return math.sqrt((a.real * a.real + b.real * b.real) + (a.imag * a.imag + b.imag * b.imag))

    (a, b), (a_ref, b_ref) = pseudo[1, :2] - accum[1, :2], accum[1, :2]
    code = fold(a, b, True) / fold(a_ref, b_ref, True)
    assert code != fold(a, b, False) / fold(a_ref, b_ref, False)  # the two folds round apart here
    dt = embedcheck._resolution_limit(params, drive) / 2.0
    assert compare_embeddings(params, drive, (1.0, 1.0), 10.0 * dt, dt) == code


def test_stacked_order_pass_matches_per_step_size_powers_bit_for_bit(params, drive):
    """_order_endpoints forms its three P in one stacked Horner form and squares
    them as a stack; the endpoints keep the bits of one Horner form and one
    matrix_power per step size, on the defaults and 20 devices, at t_final =
    20/kappa and at n = 1, 2 and 3 (n = 3 being matrix_power's shortcut)."""
    y0 = (1.0, 0.5 - 0.5j, 0.25j)
    ns = set()
    for p, d in _bit_identity_cases(params, drive):
        arr = drift_nonmarkovian(p, d)
        limit = embedcheck._resolution_limit(p, d)
        for t_final in (20.0 / p.kappa, limit, 2.0 * limit, 3.0 * limit):
            n = embedcheck._order_steps(p, d, t_final)
            ns.add(n)
            ends = embedcheck._order_endpoints(arr, y0, n, t_final)
            assert np.array_equal(ends, _order_endpoints_reference(arr, y0, n, t_final)), (p, n)
    assert {1, 2, 3} <= ns


def test_convergence_order_builds_no_trajectory(params, drive, monkeypatch):
    """The order check reads endpoints from propagator powers, never from a stepped run.
    A zero init has equal endpoints, so no differences: it reads (inf, inf)."""

    def no_trajectory(*args):
        raise AssertionError("the order check stepped a trajectory")

    monkeypatch.setattr(embedcheck, "_rk4_propagate", no_trajectory)
    order, ratio = convergence_order(params, drive, (1.0, 1.0, 0.0), 20.0 / params.kappa)
    assert abs(order - 4.0) <= 0.05
    assert 12.0 <= ratio <= 20.0
    assert convergence_order(params, drive, (0.0, 0.0, 0.0), 20.0 / params.kappa) == (math.inf, math.inf)


def test_runs_end_at_t_final(params, drive):
    """A run takes n = ceil(t_final/dt) steps of t_final/n and ends at t_final;
    a horizon within rounding of 1000*dt keeps 1000 steps."""
    dt = _default_dt(params)
    whole = 1000 * dt
    near = (np.nextafter(whole, 0.0), whole, np.nextafter(whole, 1.0))
    for t_final, n_steps in [(1000.5 * dt, 1001), *((t, 1000) for t in near)]:
        traj = integrate_nonmarkovian(params, drive, (1.0, 0.0), t_final, dt)
        assert len(traj.times) == n_steps + 1
        assert traj.times[-1] == t_final


def test_transient_from_excited_auxiliary_mode(params, drive):
    """A nonzero c(0) breaks the embedding identity by a transient that
    decays at the bath crossover rate."""
    t_final = 2.0 / params.omega_c
    dt = 1.0 / (200.0 * params.omega_c)
    pm = integrate_pseudomode(params, drive, (1.0, 0.5, 1.0), t_final, dt)
    dr = integrate_nonmarkovian(params, drive, (1.0, 0.5), t_final, dt)
    mapped = dr.amps.copy()
    mapped[:, 2] *= -params.g_c
    diff = np.linalg.norm(pm.amps - mapped, axis=1)
    assert diff[0] == 1.0
    slope = np.polyfit(pm.times, np.log(diff), 1)[0]
    assert abs(-slope - params.omega_c) < 0.05 * params.omega_c


def test_memoryless_limit_reduces_to_two_modes(params, drive):
    p0 = dataclasses.replace(params, gamma=0.0)
    dt = _default_dt(p0)
    traj = integrate_nonmarkovian(p0, drive, (1.0, -0.5j), 10.0 / p0.kappa, dt)
    arr = drift_markovian(p0, drive)
    exact = _propagated(arr, (1.0, -0.5j), [traj.times[-1]])[0]
    assert float(np.linalg.norm(traj.amps[-1, :2] - exact)) < 1e-6 * float(
        np.linalg.norm(exact)
    )


def test_fast_bath_approaches_renormalized_markovian():
    """At a cutoff far above the mechanics the convolution dynamics tracks
    the renormalized-rate two-mode model, not the bare-rate one."""
    p = SystemParams.from_hz(1.0e6, 0.2e6, 50e3, 1.0e9)
    d = DriveParams(delta=-p.omega_m, g=0.1 * p.kappa)
    t_final = 4e-7
    dt = 1.0 / (60.0 * p.omega_c)
    traj = integrate_nonmarkovian(p, d, (1.0, 1.0), t_final, dt)

    ren = mech_renorm(p)
    p_ren = dataclasses.replace(p, omega_m=ren.omega_eff, gamma=ren.gamma_eff)
    ref_ren = _propagated(drift_markovian(p_ren, d), (1.0, 1.0), traj.times)
    ref_bare = _propagated(drift_markovian(p, d), (1.0, 1.0), traj.times)

    scale = float(np.max(np.linalg.norm(ref_ren, axis=1)))
    err_ren = float(np.max(np.linalg.norm(traj.amps[:, :2] - ref_ren, axis=1))) / scale
    err_bare = float(np.max(np.linalg.norm(traj.amps[:, :2] - ref_bare, axis=1))) / scale
    assert err_ren < 1e-3
    assert err_ren < err_bare / 10.0


def test_long_run_stays_bounded(params, drive):
    traj = integrate_pseudomode(
        params, drive, (1.0, 1.0, 0.0), 20.0 / params.kappa, _default_dt(params)
    )
    norms = np.linalg.norm(traj.amps, axis=1)
    assert norms[-1] < norms[0]
    assert float(np.max(norms)) <= 5.0 * norms[0]


def test_kernel_fourier_consistency(params):
    assert kernel_fourier_error(params) < 1e-4
    p0 = dataclasses.replace(params, gamma=0.0)
    assert kernel_fourier_error(p0) == 0.0


def _kernel_error_full_line(p):
    """The kernel check as the complex trapezoid rule over the whole window."""
    t = 1.0 / p.omega_c
    w = embedcheck.KERNEL_WINDOW * p.omega_c
    omega = np.linspace(-w, w, embedcheck.KERNEL_POINTS)
    integrand = (spectral_density(p, np.abs(omega)) - p.gamma) * np.exp(-1j * omega * t)
    smooth = complex(np.trapezoid(integrand, omega)) / (2.0 * math.pi)
    return abs(smooth - memory_kernel_smooth(p, t)) / (p.gamma * p.omega_c / 2.0)


def test_kernel_check_on_the_half_line_matches_the_full_line(params):
    """Folding the even integrand onto w >= 0 changes the check only by rounding."""
    rng = np.random.default_rng(14)
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        assert math.isclose(kernel_fourier_error(p), _kernel_error_full_line(p), rel_tol=1e-10)


def _kernel_error_trapezoid(p):
    """The kernel check as np.trapezoid over the half line, with allocating temporaries."""
    t = 1.0 / p.omega_c
    omega = np.linspace(0.0, embedcheck.KERNEL_WINDOW * p.omega_c, embedcheck.KERNEL_POINTS // 2 + 1)
    w2 = omega * omega
    density = p.gamma * w2 / (w2 + p.omega_c * p.omega_c)
    smooth = float(np.trapezoid((density - p.gamma) * np.cos(omega * t), omega)) / math.pi
    return abs(smooth - memory_kernel_smooth(p, t)) / (p.gamma * p.omega_c / 2.0)


def test_kernel_check_is_the_trapezoid_rule_to_rounding(params):
    """The weight table's dot product is np.trapezoid's rule on the device's own
    phases and node spacings to within 1e-11 (relative), on the defaults and 20
    devices: the two differ only in rounding, 4.5e-12 at most over 200 devices,
    against a key that is itself a cancellation, eps * e^-1 / 7.6e-5 ~ 1e-12."""
    rng = np.random.default_rng(35)
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        assert math.isclose(kernel_fourier_error(p), _kernel_error_trapezoid(p), rel_tol=1e-11, abs_tol=0.0)


_KERNEL_BITS_CHILD = """
import numpy as np
from draws import draw_system
from eprenorm import SystemParams
from eprenorm.embedcheck import kernel_fourier_error
rng = np.random.default_rng(36)
devices = [SystemParams.from_hz(freq_hz=1e6, kappa_hz=0.2e6, gamma_hz=5e3, cutoff_hz=1e6)]
devices += [draw_system(rng) for _ in range(20)]
print(" ".join(float.hex(kernel_fourier_error(p)) for p in devices))
"""


def test_kernel_check_bits_do_not_depend_on_blas_threads():
    """kernel_fourier_err has the same bits under one BLAS thread and under two, on
    the defaults and 20 devices.  A dot product of the 20,001 nodes would not:
    OpenBLAS splits a ddot that long across its threads, and under two threads
    186 of 301 devices (the defaults and 300 draws) gave other last bits than
    under one."""
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH")]))
    bits = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _KERNEL_BITS_CHILD], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout.split())
    assert len(bits[0]) == 21 and bits[0] == bits[1]


def test_kernel_weights_are_one_read_only_table():
    """The weight table is built once, is read-only, and holds the trapezoid
    weights times cos(x) on the nodes x_k = omega_k / Omega_c."""
    weights = embedcheck._kernel_weights()
    assert embedcheck._kernel_weights() is weights
    assert not weights.flags.writeable
    assert weights.shape == (embedcheck.KERNEL_POINTS // 2 + 1,)
    nodes = np.linspace(0.0, embedcheck.KERNEL_WINDOW, len(weights))
    step = np.full(len(weights), nodes[1])
    step[[0, -1]] /= 2.0
    np.testing.assert_allclose(weights, step * np.cos(nodes), rtol=0.0, atol=1e-16)


def test_kernel_check_holds_three_node_arrays_at_most(params):
    """The traced peak of the kernel check is at most three node arrays, and in
    fact one and a half plus 16 KiB: the integrand is formed in the node array a
    quarter at a time (241,067 bytes measured at the defaults)."""
    node_array = (embedcheck.KERNEL_POINTS // 2 + 1) * 8
    kernel_fourier_error(params)
    tracemalloc.start()
    try:
        kernel_fourier_error(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * node_array + 16 * 1024


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0]), amps=np.zeros((1, 3), dtype=complex))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), amps=np.zeros((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), amps=np.zeros((3, 3), dtype=complex))
