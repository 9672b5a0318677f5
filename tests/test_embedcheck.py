"""Cross-validation of the auxiliary-mode embedding by direct integration."""

import dataclasses
import math

import numpy as np
import pytest

from draws import draw_drive, draw_system
from eprenorm import (
    DriveParams,
    SystemParams,
    compare_embeddings,
    convergence_order,
    drift_markovian,
    embedcheck,
    mech_renorm,
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
    return np.array([v @ (np.exp(w * t) * coef) for t in times])


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
    [1, embedcheck.BLOCK - 1, embedcheck.BLOCK, embedcheck.BLOCK + 1, 2 * embedcheck.BLOCK + 1],
    ids=["one", "block-1", "block", "block+1", "2block+1"],
)
def test_block_edges_match_stagewise_rk4(params, drive, n_steps):
    """Blocked propagation matches stage-wise RK4 for a single step, a
    short last block and exact multiples of the block, and keeps a zero
    state exactly zero."""
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
        assert np.array_equal(traj.times, np.arange(n_steps + 1) * dt)
        scale = float(np.max(np.linalg.norm(ref, axis=1)))
        err = float(np.max(np.linalg.norm(traj.amps - ref, axis=1)))
        assert err <= 1e-12 * scale

    zero_pm = integrate_pseudomode(params, drive, (0.0, 0.0, 0.0), t_final, dt)
    zero_direct = integrate_nonmarkovian(params, drive, (0.0, 0.0), t_final, dt)
    for traj in (zero_pm, zero_direct):
        assert traj.amps.shape == (n_steps + 1, 3)
        assert np.all(traj.amps == 0.0)


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

    monkeypatch.setattr(embedcheck, "integrate_pseudomode", no_integration)
    limit = embedcheck.MAX_DT_FRACTION / max(params.omega_m, params.omega_c)
    coarse_ok = (embedcheck.MAX_STEPS // 4 + 1) * limit
    with pytest.raises(ValueError, match="steps"):
        convergence_order(params, drive, (1.0, 0.0, 0.0), coarse_ok)


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
    from eprenorm import drift_nonmarkovian

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


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0]), amps=np.zeros((1, 3), dtype=complex))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), amps=np.zeros((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), amps=np.zeros((3, 3), dtype=complex))
