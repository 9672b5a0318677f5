"""Certifies the auxiliary-mode embedding of the exponential memory kernel.

Two integrators evolve the same mean-field dynamics through different
formulations: one carries the auxiliary mode c as a third dynamical
variable coupled via g_c, the other keeps the two physical modes and feeds
the memory convolution through the accumulator

    u(t) = int_0^t exp(-Omega_c (t - tau)) b(tau) dtau,
    du/dt = -Omega_c u + b,   u(0) = 0,

entering the mechanical equation as +(gamma*Omega_c/2) * u.  With c(0) = 0
the two right-hand sides are mathematically identical, so their trajectory
difference measures nothing but integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepTooLarge
from .model import DriveParams, SystemParams, drift_nonmarkovian, memory_kernel_smooth, spectral_density

# Resolution requirement: at least 50 steps per fastest period/decay.
MAX_DT_FRACTION = 1.0 / 50.0
# Largest step count of one run; trajectories are allocated whole, 56 bytes
# per step (48 of amps, 8 of times).
MAX_STEPS = 200_000
# Propagator powers P, P^2, ..., P^BLOCK held per run: each Python step fills
# up to BLOCK trajectory rows.  The (BLOCK, 3, 3) stack is a fixed extra
# 9 * 16 * BLOCK bytes.  Rounding grows as BLOCK shrinks, and past 64 the
# power build costs runs of 1,000-4,000 steps more than the shorter loop saves.
BLOCK = 64
# Fourier kernel check: trapezoid nodes over [-KERNEL_WINDOW, KERNEL_WINDOW] * Omega_c, an
# odd count so that w = 0 is one; the even integrand is summed over the half with w >= 0.
KERNEL_POINTS = 40001
KERNEL_WINDOW = 50.0


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled mean-amplitude history.

    amps has one row per time; columns are (a, b, c) for the three-mode
    integrator and (a, b, u) for the convolution integrator.
    """

    times: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        if len(self.times) < 2:
            raise ValueError("trajectory needs at least 2 samples")
        if self.times[1] <= self.times[0]:
            raise ValueError("times must increase")
        if self.amps.shape[0] != len(self.times):
            raise ValueError("one amplitude row per time sample")


def _check_step(p: SystemParams, t_final: float, dt: float) -> int:
    """Validate a fixed-step run of n = ceil(t_final/dt) steps of t_final/n and return n;
    a quotient up to 1e-12 (relative) above a whole number is rounding and keeps it."""
    if not t_final > 0.0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    limit = MAX_DT_FRACTION / max(p.omega_m, p.omega_c)
    if dt > limit:
        raise StepTooLarge(f"dt = {dt!r} exceeds resolution limit {limit!r}")
    steps = t_final / dt * (1.0 - 1e-12)
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_final/dt = {t_final / dt:.6g} steps exceed the bound of {MAX_STEPS}")
    return max(1, math.ceil(steps))


def _order_steps(p: SystemParams, t_final: float) -> int:
    """n of the order check, whose runs take n, 2n and 4n steps to t_final:
    the fewest steps within the resolution limit L.  Raises ValueError naming
    the check when 4n exceeds MAX_STEPS, so it fails before any run starts."""
    limit = MAX_DT_FRACTION / max(p.omega_m, p.omega_c)
    if t_final / limit > MAX_STEPS:  # n alone is over the bound, and ceil(inf) overflows
        n = t_final / limit
    else:
        n = _check_step(p, t_final, limit)
        if t_final / n > limit:  # a quotient snapped down leaves h just above L
            n += 1
    if 4 * n > MAX_STEPS:
        raise ValueError(f"order check: 4n = {4 * n:.6g} steps exceed the bound of {MAX_STEPS}")
    return n


def _rk4_propagate(arr, y0, n_steps: int, t_final: float) -> Trajectory:
    """Classical RK4 for dy/dt = arr @ y, stepped as y_{k+1} = P @ y_k, h = t_final/n_steps.

    For a constant linear generator the four RK4 stages collapse exactly
    into the stability polynomial P = sum_{j<=4} (h*arr)^j / j!, formed once
    (Horner form).  The powers P, P^2, ..., P^B (B = min(BLOCK, n_steps))
    are then stacked once, and each block of up to B rows is
    y_{k+j} = P^j @ y_k for j = 1..B: one matrix-vector product with the
    stack viewed as a (3B, 3) matrix.  Only the rounding order differs from
    stepping P one row at a time.
    """
    ha = (t_final / n_steps) * arr
    eye = np.eye(3)
    block = min(BLOCK, n_steps)
    pows = np.empty((block, 3, 3), dtype=complex)
    pows[0] = eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
    # One factor of P at a time.  Doubling (P^2h = P^h @ P^h) is faster but
    # adds the rounding of P^h twice over; its endpoints erred five times more.
    for j in range(1, block):
        np.dot(pows[0], pows[j - 1], out=pows[j])
    stacked = pows.reshape(3 * block, 3)
    amps = np.empty((n_steps + 1, 3), dtype=complex)
    amps[0] = y0
    flat = amps.reshape(-1)
    for k in range(0, n_steps, block):
        m = min(block, n_steps - k)
        np.dot(stacked[: 3 * m], amps[k], out=flat[3 * (k + 1) : 3 * (k + m + 1)])
    times = np.linspace(0.0, t_final, n_steps + 1)
    return Trajectory(times=times, amps=amps)


def integrate_pseudomode(
    p: SystemParams, d: DriveParams, init, t_final: float, dt: float
) -> Trajectory:
    """Integrate the three-mode system (a, b, c) from init with fixed-step RK4."""
    n_steps = _check_step(p, t_final, dt)
    return _rk4_propagate(drift_nonmarkovian(p, d), (init[0], init[1], init[2]), n_steps, t_final)


def integrate_nonmarkovian(
    p: SystemParams, d: DriveParams, init_ab, t_final: float, dt: float
) -> Trajectory:
    """Integrate the two-mode system with the memory convolution held in u.

    The returned third column is the accumulator u, which maps onto the
    auxiliary mode as c = -g_c * u.  The generator is drift_nonmarkovian with
    its two bath couplings replaced by the accumulator's: gamma*Omega_c/2
    feeding u into b, and 1 feeding b into u.
    """
    n_steps = _check_step(p, t_final, dt)
    arr = drift_nonmarkovian(p, d)
    arr[1, 2] = p.gamma * p.omega_c / 2.0
    arr[2, 1] = 1.0
    return _rk4_propagate(arr, (init_ab[0], init_ab[1], 0.0), n_steps, t_final)


def compare_embeddings(
    p: SystemParams, d: DriveParams, init_ab, t_final: float, dt: float
) -> float:
    """Maximum relative (a, b) deviation between the two formulations.

    The three-mode run starts with c(0) = 0 so the embedding is exact and
    any deviation is integrator error; the result is normalized by the peak
    amplitude norm of the convolution run.
    """
    pm = integrate_pseudomode(p, d, (init_ab[0], init_ab[1], 0.0), t_final, dt)
    direct = integrate_nonmarkovian(p, d, init_ab, t_final, dt)
    diff = np.linalg.norm(pm.amps[:, :2] - direct.amps[:, :2], axis=1)
    scale = float(np.max(np.linalg.norm(direct.amps[:, :2], axis=1)))
    worst = float(np.max(diff))
    if scale == 0.0:
        return 0.0 if worst == 0.0 else math.inf
    return worst / scale


def convergence_order(p: SystemParams, d: DriveParams, init, t_final: float):
    """Observed integrator order from endpoint self-differences at h, h/2, h/4.

    The device sets h = t_final/n, n the fewest steps within the resolution
    limit L; the runs take n, 2n and 4n steps to t_final, the 4n run checked
    against MAX_STEPS before any starts.  Returns (order, ratio) with ratio =
    |y_h - y_h/2| / |y_h/2 - y_h/4| and order = log2(ratio), near 4 for RK4.
    """
    n = _order_steps(p, t_final)
    ends = [
        integrate_pseudomode(p, d, init, t_final, t_final / (k * n)).amps[-1] for k in (1, 2, 4)
    ]
    d1 = float(np.linalg.norm(ends[0] - ends[1]))
    d2 = float(np.linalg.norm(ends[1] - ends[2]))
    if d2 == 0.0:
        return math.inf, math.inf
    ratio = d1 / d2
    return math.log2(ratio), ratio


def kernel_fourier_error(p: SystemParams) -> float:
    """Consistency of the smooth memory kernel with the bath spectral function.

    Numerically inverts K_smooth(t) = (1/2pi) int (I(|w|) - gamma) e^{-iwt} dw
    at t = 1/Omega_c over [-KERNEL_WINDOW*Omega_c, KERNEL_WINDOW*Omega_c] by
    the trapezoid rule (the flat gamma part is the local delta contribution
    and is subtracted before transforming) and returns the deviation from the
    closed form relative to the kernel amplitude gamma*Omega_c/2.

    The spectral function enters at |w| (and spectral_density depends on w
    only through w^2), so I(|w|) - gamma is even: the sin(wt) half of the
    exponential is odd and cancels over the symmetric window, node by node,
    and the cos(wt) half is even.  The full-line rule is therefore evaluated
    as (1/pi) times the same rule, at the same node spacing, over
    [0, KERNEL_WINDOW*Omega_c] of (I(w) - gamma) cos(wt): KERNEL_POINTS // 2
    + 1 real nodes (KERNEL_POINTS is odd, so w = 0 is a node of both).
    """
    t = 1.0 / p.omega_c
    amp = p.gamma * p.omega_c / 2.0
    if amp == 0.0:
        return 0.0
    omega = np.linspace(0.0, KERNEL_WINDOW * p.omega_c, KERNEL_POINTS // 2 + 1)
    integrand = (spectral_density(p, omega) - p.gamma) * np.cos(omega * t)
    smooth = float(np.trapezoid(integrand, omega)) / math.pi
    return abs(smooth - memory_kernel_smooth(p, t)) / amp
