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
# Largest step count of one run (the dt/4 run of convergence_order included);
# trajectories are allocated whole, 56 bytes per step (48 of amps, 8 of times).
MAX_STEPS = 200_000
# Propagator powers P, P^2, ..., P^BLOCK held per run: each Python step fills
# up to BLOCK trajectory rows.  The (BLOCK, 3, 3) stack is a fixed extra
# 9 * 16 * BLOCK bytes.  Rounding grows as BLOCK shrinks, and past 64 the
# power build costs runs of 1,000-4,000 steps more than the shorter loop saves.
BLOCK = 64
# Fourier kernel check: trapezoid nodes over [-KERNEL_WINDOW, KERNEL_WINDOW] * Omega_c.
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
    """Validate a fixed-step run and return its step count (at least 1)."""
    if not t_final > 0.0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    limit = MAX_DT_FRACTION / max(p.omega_m, p.omega_c)
    if dt > limit:
        raise StepTooLarge(f"dt = {dt!r} exceeds resolution limit {limit!r}")
    steps = t_final / dt
    if not steps < MAX_STEPS + 0.5:
        raise ValueError(f"t_final/dt = {steps:.6g} steps exceed the bound of {MAX_STEPS}"
                         " (the order check runs at dt/4)")
    return max(1, int(round(steps)))


def _rk4_propagate(arr, y0, n_steps: int, dt: float) -> Trajectory:
    """Classical RK4 for dy/dt = arr @ y, stepped as y_{k+1} = P @ y_k.

    For a constant linear generator the four RK4 stages collapse exactly
    into the stability polynomial P = sum_{j<=4} (h*arr)^j / j!, formed once
    (Horner form).  The powers P, P^2, ..., P^B (B = min(BLOCK, n_steps))
    are then stacked once, and each block of up to B rows is
    y_{k+j} = P^j @ y_k for j = 1..B: one matrix-vector product with the
    stack viewed as a (3B, 3) matrix.  Only the rounding order differs from
    stepping P one row at a time.
    """
    ha = dt * arr
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
    times = np.arange(n_steps + 1, dtype=float) * dt
    return Trajectory(times=times, amps=amps)


def integrate_pseudomode(
    p: SystemParams, d: DriveParams, init, t_final: float, dt: float
) -> Trajectory:
    """Integrate the three-mode system (a, b, c) from init with fixed-step RK4."""
    n_steps = _check_step(p, t_final, dt)
    return _rk4_propagate(drift_nonmarkovian(p, d), (init[0], init[1], init[2]), n_steps, dt)


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
    return _rk4_propagate(arr, (init_ab[0], init_ab[1], 0.0), n_steps, dt)


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


def convergence_order(p: SystemParams, d: DriveParams, init, t_final: float, dt: float):
    """Observed integrator order from endpoint self-differences at dt, dt/2, dt/4.

    Returns (order, ratio) with ratio = |y_dt - y_dt/2| / |y_dt/2 - y_dt/4|
    and order = log2(ratio); a clean 4th-order scheme gives ratio near 16.
    The finest run is checked against MAX_STEPS before any run starts.
    """
    _check_step(p, t_final, dt / 4.0)
    ends = [
        integrate_pseudomode(p, d, init, t_final, dt / k).amps[-1] for k in (1, 2, 4)
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
    """
    t = 1.0 / p.omega_c
    amp = p.gamma * p.omega_c / 2.0
    if amp == 0.0:
        return 0.0
    omega = np.linspace(-KERNEL_WINDOW * p.omega_c, KERNEL_WINDOW * p.omega_c, KERNEL_POINTS)
    integrand = (spectral_density(p, np.abs(omega)) - p.gamma) * np.exp(-1j * omega * t)
    smooth = complex(np.trapezoid(integrand, omega)) / (2.0 * math.pi)
    return abs(smooth - memory_kernel_smooth(p, t)) / amp
