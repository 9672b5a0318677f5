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

import functools
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


def _stability_polynomial(arr, n_steps, t_final: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = arr @ y, h = t_final/n_steps, as a matrix.

    For a constant linear generator the four RK4 stages collapse exactly
    into the stability polynomial P = sum_{j<=4} (h*arr)^j / j! (Horner
    form), so a step is y_{k+1} = P @ y_k.  arr may be a stack (s, 3, 3) and
    n_steps an (s, 1, 1) array of each one's steps; each P has its own bits.
    """
    ha = (t_final / n_steps) * arr
    eye = np.eye(3)
    return eye + ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)


def _order_endpoints(arr, y0, n: int, t_final: float) -> np.ndarray:
    """Last rows of the n-, 2n- and 4n-step RK4 runs to t_final, as a (3, 3) array,
    without stepping: row k is P_{h/2^k}^{2^k n} @ y0, h = t_final/n.

    One Horner form and stacked squarings make P_h, P_{h/2}^2, P_{h/4}^4 (each
    advances by h), raised to the n-th power by repeated squaring, O(log n)
    batched 3x3 products.  matrix_power(P, 2^k n) starts with those k
    squarings, so each row has its bits, but at n = 3, whose numpy shortcut
    multiplies in another order.
    """
    pows = _stability_polynomial(arr, np.array([n, 2 * n, 4 * n])[:, None, None], t_final)
    pows[1:] = pows[1:] @ pows[1:]
    pows[2] = pows[2] @ pows[2]
    return np.linalg.matrix_power(pows, n) @ np.asarray(y0, dtype=complex)


def _rk4_propagate(arrs, y0s, n_steps: int, t_final: float) -> np.ndarray:
    """Classical RK4 for dy/dt = arr @ y, stepped as y_{k+1} = P @ y_k, h = t_final/n_steps,
    for each generator of the stack arrs (s, 3, 3) from its row of y0s (s, 3);
    returns the amplitudes, (s, n_steps + 1, 3).

    The stack of P (_stability_polynomial) is formed once, and the runs
    double in length per iteration: once rows 0..m-1 are known, rows
    m..m+k-1 are y_{m+j} = P^m @ y_j, one product with k = min(m, n_steps + 1 - m),
    and P^m is then squared to P^2m.  That is ceil(log2(n_steps + 1))
    iterations; only the rounding order differs from stepping P one row at a
    time, and a run has the same bits in any stack.
    """
    power = _stability_polynomial(arrs, n_steps, t_final)
    amps = np.empty((len(arrs), n_steps + 1, 3), dtype=complex)
    amps[:, 0] = y0s
    m = 1
    while m <= n_steps:
        rows = amps[:, m : 2 * m]  # k rows: the slice stops at row n_steps
        np.matmul(amps[:, : rows.shape[1]], power.mT, out=rows)
        m *= 2
        if m <= n_steps:
            power = power @ power
    return amps


def _accumulator_drift(p: SystemParams, d: DriveParams) -> np.ndarray:
    """drift_nonmarkovian with the accumulator's couplings: gamma*Omega_c/2 from u to b, 1 from b to u."""
    arr = drift_nonmarkovian(p, d)
    arr[1, 2] = p.gamma * p.omega_c / 2.0
    arr[2, 1] = 1.0
    return arr


def integrate_pseudomode(
    p: SystemParams, d: DriveParams, init, t_final: float, dt: float
) -> Trajectory:
    """Integrate the three-mode system (a, b, c) from init with fixed-step RK4."""
    n_steps = _check_step(p, d, t_final, dt)
    amps = _rk4_propagate(drift_nonmarkovian(p, d)[None], [(init[0], init[1], init[2])], n_steps, t_final)
    return Trajectory(times=np.linspace(0.0, t_final, n_steps + 1), amps=amps[0])


def integrate_nonmarkovian(
    p: SystemParams, d: DriveParams, init_ab, t_final: float, dt: float
) -> Trajectory:
    """Integrate the two-mode system with the memory convolution held in u.

    The returned third column is the accumulator u, which maps onto the
    auxiliary mode as c = -g_c * u.  The generator is _accumulator_drift.
    """
    n_steps = _check_step(p, d, t_final, dt)
    amps = _rk4_propagate(_accumulator_drift(p, d)[None], [(init_ab[0], init_ab[1], 0.0)], n_steps, t_final)
    return Trajectory(times=np.linspace(0.0, t_final, n_steps + 1), amps=amps[0])


def compare_embeddings(
    p: SystemParams, d: DriveParams, init_ab, t_final: float, dt: float
) -> float:
    """Maximum relative (a, b) deviation between the two formulations.

    The three-mode run starts with c(0) = 0 so the embedding is exact and
    any deviation is integrator error; the result is normalized by the peak
    amplitude norm of the convolution run.  Both runs are one stack through
    _rk4_propagate, each with its public integrator's bits, and each norm is
    folded from the columns in the order np.linalg.norm(..., axis=1) sums.
    """
    y0 = (init_ab[0], init_ab[1], 0.0)
    n_steps = _check_step(p, d, t_final, dt)
    arrs = np.stack([drift_nonmarkovian(p, d), _accumulator_drift(p, d)])
    amps = _rk4_propagate(arrs, (y0, y0), n_steps, t_final)
    sq = np.stack([amps[0, :, :2] - amps[1, :, :2], amps[1, :, :2]]).view(float)  # re a, im a, re b, im b
    sq *= sq
    worst, scale = np.sqrt(np.max((sq[..., 0] + sq[..., 1]) + (sq[..., 2] + sq[..., 3]), axis=1)).tolist()
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
    order = log2(ratio), near 4 for RK4; (inf, inf) where y_h/2 = y_h/4,
    as for a zero init.
    """
    n = _order_steps(p, d, t_final)
    ends = _order_endpoints(drift_nonmarkovian(p, d), (init[0], init[1], init[2]), n, t_final)
    d1 = float(np.linalg.norm(ends[0] - ends[1]))
    d2 = float(np.linalg.norm(ends[1] - ends[2]))
    if d2 == 0.0:
        return math.inf, math.inf
    ratio = d1 / d2
    return math.log2(ratio), ratio


@functools.cache
def _kernel_weights() -> np.ndarray:
    """The kernel check's weight table: trapezoid weights times cos(x) on the nodes
    x_k = k * KERNEL_WINDOW / (KERNEL_POINTS // 2) of [0, KERNEL_WINDOW], in units
    of Omega_c.  Built on first use and read-only, as every call shares it."""
    nodes = np.linspace(0.0, KERNEL_WINDOW, KERNEL_POINTS // 2 + 1)
    weights = np.cos(nodes)
    weights *= KERNEL_WINDOW / (KERNEL_POINTS // 2)
    weights[[0, -1]] /= 2.0
    weights.flags.writeable = False
    return weights


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

    At t = 1/Omega_c the phase w_k t of node w_k = x_k Omega_c is x_k itself,
    the same for every device, and so are the trapezoid weights in units of
    Omega_c.  Their product is _kernel_weights, one table of 20,001 floats
    (160,008 bytes) built on the first call, and the rule is Omega_c times the
    pairwise sum of the integrand weighted by it, whose bits do not depend on
    how many threads BLAS runs.  I(w) is still spectral_density on
    the device's own nodes, so the check tests the package's I(w) against
    memory_kernel_smooth; the phase and the weights differ from the device's
    own w_k t and node spacings only in rounding.
    """
    t = 1.0 / p.omega_c
    amp = p.gamma * p.omega_c / 2.0
    if amp == 0.0:
        return 0.0
    # The integrand is formed in the node array, a quarter at a time, with the same bits: three
    # node-sized arrays live at once put the heap top past glibc's trim threshold after every
    # check, which handed it back and faulted it in again on the next.
    integrand = np.linspace(0.0, KERNEL_WINDOW * p.omega_c, KERNEL_POINTS // 2 + 1)
    for part in np.array_split(integrand, 4):
        part[:] = spectral_density(p, part)
    integrand -= p.gamma
    # Weighted in place and summed by numpy's pairwise reduction: np.dot would hand a vector this
    # long to BLAS, which splits it across its threads, so its last bits followed the thread count.
    integrand *= _kernel_weights()
    smooth = p.omega_c * float(np.add.reduce(integrand)) / math.pi
    return abs(smooth - memory_kernel_smooth(p, t)) / amp
