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

# Resolution requirement: at least 50 steps per fastest rate of the drift.
MAX_DT_FRACTION = 1.0 / 50.0
# Largest step count of one run.  For the comparison it bounds allocation:
# trajectories are allocated whole, 56 bytes per step (48 of amps, 8 of
# times).  The order check allocates nothing per step, so for its 4n run it
# bounds rounding: RK4 still reads order 4 to 0.05 at 4n = MAX_STEPS.
MAX_STEPS = 200_000
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


def _resolution_limit(p: SystemParams, d: DriveParams) -> float:
    """The largest step L any run takes: MAX_DT_FRACTION / rho, with rho the
    largest |Re| or |Im| entry of drift_nonmarkovian(p, d), i.e.
    max(omega_m, Omega_c, |delta|, g, kappa/2, gamma/2, g_c)."""
    arr = drift_nonmarkovian(p, d)
    return MAX_DT_FRACTION / float(max(np.abs(arr.real).max(), np.abs(arr.imag).max()))


def _check_step(p: SystemParams, d: DriveParams, t_final: float, dt: float) -> int:
    """Validate a fixed-step run of n = ceil(t_final/dt) steps of t_final/n and return n;
    a quotient up to 1e-12 (relative) above a whole number is rounding and keeps it."""
    if not t_final > 0.0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    limit = _resolution_limit(p, d)
    if dt > limit:
        raise StepTooLarge(f"dt = {dt!r} exceeds resolution limit {limit!r}")
    steps = t_final / dt * (1.0 - 1e-12)
    if not steps <= MAX_STEPS:
        raise ValueError(f"t_final/dt = {t_final / dt:.6g} steps exceed the bound of {MAX_STEPS}")
    return max(1, math.ceil(steps))


def _order_steps(p: SystemParams, d: DriveParams, t_final: float) -> int:
    """n of the order check, whose runs take n, 2n and 4n steps to t_final:
    the fewest n with t_final/n <= L, the resolution limit.  Raises ValueError
    naming the check when 4n exceeds MAX_STEPS, so it fails before any run starts.
    The search starts one below the rounded quotient's ceiling, which is within
    one of the fewest n, so its loop takes at most two increments."""
    if not t_final > 0.0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    limit = _resolution_limit(p, d)
    n = t_final / limit
    if n <= MAX_STEPS:  # else n alone is over the bound, and ceil(inf) overflows
        # The quotient is rounded, so its ceiling may be one above or below the fewest n.
        n = max(1, math.ceil(n) - 1)
        while t_final / n > limit:
            n += 1
    if 4 * n > MAX_STEPS:
        raise ValueError(f"order check: 4n = {4 * n:.6g} steps exceed the bound of {MAX_STEPS}")
    return n


def _stability_polynomial(arr, n_steps: int, t_final: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = arr @ y, h = t_final/n_steps, as a matrix.

    For a constant linear generator the four RK4 stages collapse exactly
    into the stability polynomial P = sum_{j<=4} (h*arr)^j / j! (Horner
    form), so a step is y_{k+1} = P @ y_k.
    """
    ha = (t_final / n_steps) * arr
    eye = np.eye(3)
    return eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)


def _order_endpoints(arr, y0, n: int, t_final: float) -> np.ndarray:
    """Last rows of the n-, 2n- and 4n-step RK4 runs to t_final, as a (3, 3) array,
    without stepping: row k is P_{h/2^k}^{2^k n} @ y0, h = t_final/n.

    The stack P_h, P_{h/2}^2, P_{h/4}^4 (each advances by h) is raised to the
    n-th power by repeated squaring, O(log n) batched 3x3 products.
    matrix_power(P, 2^k n) starts with those k squarings, so each row has its
    bits, but at n = 3, whose numpy shortcut multiplies in another order.
    """
    pows = np.stack([np.linalg.matrix_power(_stability_polynomial(arr, k * n, t_final), k) for k in (1, 2, 4)])
    return np.linalg.matrix_power(pows, n) @ np.asarray(y0, dtype=complex)


def _rk4_propagate(arr, y0, n_steps: int, t_final: float) -> Trajectory:
    """Classical RK4 for dy/dt = arr @ y, stepped as y_{k+1} = P @ y_k, h = t_final/n_steps.

    P (_stability_polynomial) is formed once, and the trajectory doubles in
    length per iteration: once rows 0..m-1 are known, rows m..m+k-1 are
    y_{m+j} = P^m @ y_j, one product with k = min(m, n_steps + 1 - m), and
    P^m is then squared to P^2m.  That is ceil(log2(n_steps + 1)) iterations;
    only the rounding order differs from stepping P one row at a time.
    """
    power = _stability_polynomial(arr, n_steps, t_final)
    amps = np.empty((n_steps + 1, 3), dtype=complex)
    amps[0] = y0
    m = 1
    while m <= n_steps:
        rows = amps[m : 2 * m]  # k rows: the slice stops at row n_steps
        np.dot(amps[: len(rows)], power.T, out=rows)
        m *= 2
        if m <= n_steps:
            power = power @ power
    times = np.linspace(0.0, t_final, n_steps + 1)
    return Trajectory(times=times, amps=amps)


def integrate_pseudomode(
    p: SystemParams, d: DriveParams, init, t_final: float, dt: float
) -> Trajectory:
    """Integrate the three-mode system (a, b, c) from init with fixed-step RK4."""
    n_steps = _check_step(p, d, t_final, dt)
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
    n_steps = _check_step(p, d, t_final, dt)
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
    limit L; the three-mode runs take m = n, 2n and 4n steps to t_final, the
    4n run checked against MAX_STEPS before any work starts.  Each endpoint
    is P^m @ init (_order_endpoints), so no trajectory is stepped or stored.
    Returns (order, ratio) with ratio = |y_h - y_h/2| / |y_h/2 - y_h/4| and
    order = log2(ratio), near 4 for RK4.
    """
    n = _order_steps(p, d, t_final)
    ends = _order_endpoints(drift_nonmarkovian(p, d), (init[0], init[1], init[2]), n, t_final)
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

    A node array is 160 KB, past glibc's default mmap and trim thresholds
    (128 KiB), so temporaries of that size can grow the heap by more than
    the trim threshold and have it trimmed again when they are freed, each
    call then paying fresh page faults.  The fewer live at once, the rarer
    that is, so the function holds three node arrays at most: the nodes,
    spectral_density's result (which becomes the integrand) and one phase
    buffer, which takes the cosine and then the node spacings.  The
    trapezoid rule is np.trapezoid's own expression,
    (diff(x) * (y[1:] + y[:-1]) / 2).sum(), evaluated into those buffers.
    """
    t = 1.0 / p.omega_c
    amp = p.gamma * p.omega_c / 2.0
    if amp == 0.0:
        return 0.0
    omega = np.linspace(0.0, KERNEL_WINDOW * p.omega_c, KERNEL_POINTS // 2 + 1)
    integrand = spectral_density(p, omega)
    integrand -= p.gamma
    phase = np.multiply(omega, t)
    integrand *= np.cos(phase, out=phase)
    steps = np.subtract(omega[1:], omega[:-1], out=phase[:-1])
    pair_sums = np.add(integrand[1:], integrand[:-1], out=omega[:-1])
    steps *= pair_sums
    steps /= 2.0
    smooth = float(steps.sum()) / math.pi
    return abs(smooth - memory_kernel_smooth(p, t)) / amp
