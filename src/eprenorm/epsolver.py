"""Exceptional-point location: memoryless closed form, linear-in-gamma
perturbative shift, and the numerically exact double root of the cubic.

The exact solver works on the double-root parametrization: given a trial
coalescence frequency lambda, the drive coordinates follow algebraically as

    g_sq  = h^2 / (g^2 + g_c^2)
    delta = -i * [lambda + kappa/2 + g*h / (g^2 + g_c^2)]

and lambda itself is fixed by requiring both to be real.  That reduces the
search to two real unknowns (x, y) = (Re lambda, Im lambda) with residuals
R1 = Im sqrt(g_sq) and R2 = Re[lambda + kappa/2 + g*h/(g^2+g_c^2)], solved
by one Newton iteration seeded at the memoryless coalescence value.
Both bracketed expressions are holomorphic in lambda, so the Jacobian of
(R1, R2) follows from their complex derivatives by Cauchy-Riemann.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .charpoly import char_cubic, factors, third_root_viete
from .errors import (
    DegenerateDenominator,
    NoConvergence,
    NoMarkovianEp,
    NonPhysicalEp,
    OrderCheckFailed,
)
from .model import _RATE_RANGE, DriveParams, SystemParams, drift_nonmarkovian, rad_to_hz

# Newton controls for solve_exact_ep; STEP_RTOL is relative to |lambda|.
STEP_RTOL = 1e-8
MAX_ITER = 100
# certify_order_two's bound on |p| and |p'|, relative to |p''| s^2 and |p''| s.
CERT_RTOL = 1e-8


@dataclass(frozen=True)
class EpSolution:
    """A located exceptional point: the coalescence frequency lambda_ep, its
    drive coordinates (delta_ep, g_ep) and the cubic's remaining root
    lambda_3.  certify_order_two measures how well it is a double root."""

    lambda_ep: complex
    delta_ep: float
    g_ep: float
    lambda_3: complex

    @property
    def drive(self) -> DriveParams:
        return _ep_drive(self.delta_ep, self.g_ep)


def _ep_drive(delta: float, g: float) -> DriveParams:
    """The drive at EP coordinates, or a NonPhysicalEp naming its key in Hz unless g > 0
    and delta < 0, both within the rate range (the perturbative shift past omega_eff <= 0
    and in-range rates near the range's ends can each break this)."""
    for key, value, ok in ("coupling", g, g > 0.0), ("detuning", delta, delta < 0.0):
        if not ok:
            raise NonPhysicalEp(f"exceptional point needs g > 0 and delta < 0: "
                                f"drive.{key}_hz = {rad_to_hz(value):.6g} Hz")
    try:
        return DriveParams(delta=delta, g=g)
    except ValueError as exc:
        raise NonPhysicalEp(f"exceptional point outside the rate range: {exc}") from None


@dataclass(frozen=True)
class MechRenorm:
    """Bath-shifted effective mechanical frequency and damping."""

    omega_eff: float
    gamma_eff: float


@dataclass(frozen=True)
class OrderCertificate:
    """Magnitudes of p, p' and p'' at a certified order-two double root."""

    p_mag: float
    dp_mag: float
    ddp_mag: float


def markovian_ep(p: SystemParams) -> EpSolution:
    """Closed-form exceptional point of the memoryless two-mode block.

    lambda_ep is the double root of the reduced quadratic
    (lam + kappa/2 - i*delta)(lam + gamma/2 + i*omega_m) + G^2, not of the
    full cubic.  Raises NoMarkovianEp unless kappa > gamma; the other two EP
    routes start from this one and share that guard.
    """
    if p.kappa <= p.gamma:
        raise NoMarkovianEp(f"needs kappa > gamma, got kappa = {p.kappa!r}, gamma = {p.gamma!r}")
    delta = -p.omega_m
    g = (p.kappa - p.gamma) / 4.0
    lam = -(p.kappa + p.gamma) / 4.0 - 1j * p.omega_m
    return EpSolution(lam, delta, g, third_root_viete(p, delta, lam))


def mech_renorm(p: SystemParams) -> MechRenorm:
    """Effective mechanical frequency and damping after bath elimination."""
    den = p.omega_c**2 + p.omega_m**2
    return MechRenorm(
        omega_eff=p.omega_m * (1.0 - p.gamma * p.omega_c / (2.0 * den)),
        gamma_eff=p.gamma * p.omega_m**2 / den,
    )


def _perturbative_drive(p: SystemParams) -> DriveParams:
    """perturbative_ep's coordinates as a drive, with no eigen-solve: markovian_ep's
    delta = -omega_m and g = (kappa - gamma)/4 with omega_m -> omega_eff and
    gamma -> gamma_eff, under markovian_ep's kappa > gamma guard and _ep_drive's rule."""
    markovian_ep(p)  # the kappa > gamma guard
    ren = mech_renorm(p)
    return _ep_drive(-ren.omega_eff, (p.kappa - ren.gamma_eff) / 4.0)


def perturbative_ep(p: SystemParams) -> EpSolution:
    """Memoryless exceptional point at the renormalized mechanics of mech_renorm.

    The coordinates are _perturbative_drive's, which carry the leading
    corrections in gamma.  lambda_ep is the midpoint of the two closest
    eigenvalues of drift_nonmarkovian at these coordinates, so it is a double
    root only to first order in gamma.
    """
    d = _perturbative_drive(p)
    lams = np.linalg.eigvals(drift_nonmarkovian(p, d)).tolist()
    i, j = min(((0, 1), (0, 2), (1, 2)), key=lambda ij: abs(lams[ij[0]] - lams[ij[1]]))
    lam = (lams[i] + lams[j]) / 2.0
    return EpSolution(lam, d.delta, d.g, third_root_viete(p, d.delta, lam))


def _double_root(p: SystemParams, lam: complex):
    """(g_sq, t, g_sq', t') at lam, or None where den = g^2 + g_c^2 vanishes.

    g_sq = h^2/den and t = lam + kappa/2 + g*h/den; the derivatives in lam
    use f' = g' = 1, h' = f + g and den' = 2g.
    """
    fac = factors(p, lam)
    den = fac.g**2 + p.g_c**2
    scale = max(abs(lam), p.omega_c) ** 2
    if abs(den) < 1e-12 * scale:
        return None
    g_sq = fac.h**2 / den
    gh = fac.g * fac.h / den
    dh = fac.f + fac.g
    d_g_sq = 2.0 * (fac.h * dh - fac.g * g_sq) / den
    dt = 1.0 + (fac.h + fac.g * dh - 2.0 * fac.g * gh) / den
    return g_sq, lam + p.kappa / 2.0 + gh, d_g_sq, dt


def ep_candidates(p: SystemParams, lam: complex):
    """Drive coordinates (g_sq, delta) that make lam a double root.

    Both returns are complex in general; lam is an admissible coalescence
    frequency only when g_sq is real positive and delta is real negative.
    """
    coords = _double_root(p, lam)
    if coords is None:
        raise DegenerateDenominator(f"g(lam)^2 + g_c^2 vanishes at lam = {lam!r}")
    g_sq, shifted, _, _ = coords
    return g_sq, -1j * shifted


def _residual_norm(coords) -> float:
    """|(Im sqrt(g_sq), Re t)| for a _double_root result, inf for None."""
    if coords is None:
        return math.inf
    return math.hypot(cmath.sqrt(coords[0]).imag, coords[1].real)


def solve_exact_ep(p: SystemParams, seed: complex | None = None) -> EpSolution:
    """Numerically exact exceptional point of the full three-mode cubic.

    Newton, every step taken in full, on (R1, R2) = (Im sqrt(g_sq), Re t)
    from the memoryless coalescence value or the caller's seed; R1 = 0 only
    for real non-negative g_sq, i.e. a real coupling.  With s = sqrt(g_sq),
    s' = g_sq' / (2 s), Cauchy-Riemann gives dR/dx = (Im s', Re t') and
    dR/dy = (Re s', -Im t').  A step within STEP_RTOL * |lambda| ends the
    iteration, so the coordinates carry full double precision; it is kept
    only if it does not raise the residual norm, so an exact seed stays exact.
    Where a device has several EPs, the one returned is the one this Newton
    reaches from its seed; from the memoryless double root on a
    resolved-sideband device that is the unique physical EP.
    The _double_root result at the accepted lambda is the drive: delta =
    Re(-i t) and g = Re s.  Raises ValueError for a caller's seed that is not
    finite or above the rate range in magnitude, NoConvergence if the
    iteration fails and, through _ep_drive, NonPhysicalEp unless the double
    root has a real g > 0 and a real delta < 0.
    """
    mk = markovian_ep(p)  # the kappa > gamma guard, seeded or not
    if seed is None:
        seed = mk.lambda_ep  # unchecked: |mk.lambda_ep| > omega_m, past the range at its top
    elif not (cmath.isfinite(seed) and abs(seed) <= _RATE_RANGE[1]):
        raise ValueError(f"seed must be finite with |seed| <= {_RATE_RANGE[1]!r} rad/s, got {seed!r}")
    lam, coords = seed, _double_root(p, seed)
    for _ in range(MAX_ITER):
        if coords is None:  # den vanishes at this iterate
            break
        g_sq, t, d_g_sq, dt = coords
        s = cmath.sqrt(g_sq)
        if s == 0.0:
            break
        ds = d_g_sq / (2.0 * s)
        r1, r2 = s.imag, t.real
        det = -(ds.real * dt.real + ds.imag * dt.imag)
        if det == 0.0 or not math.isfinite(det):
            break
        step = complex(r1 * dt.imag + r2 * ds.real, r1 * dt.real - r2 * ds.imag) / det
        trial = _double_root(p, lam + step)
        if abs(step) <= STEP_RTOL * abs(lam):
            if _residual_norm(trial) <= _residual_norm(coords):
                lam, coords = lam + step, trial
            g_sq, t = coords[:2]
            delta = (-1j * t).real
            g = cmath.sqrt(g_sq).real if g_sq.real > 0.0 else 0.0  # else sqrt(g_sq) is near-imaginary
            _ep_drive(delta, g)  # the physicality rule
            return EpSolution(lam, delta, g, third_root_viete(p, delta, lam))
        lam, coords = lam + step, trial
    raise NoConvergence(f"Newton iteration failed from seed {seed!r}")


def certify_order_two(p: SystemParams, sol: EpSolution) -> OrderCertificate:
    """Certify that sol marks an order-two double root of the full cubic.

    The one place that evaluates |p|, |p'| and |p''| at an EP.  |p''| must
    clear the floor 1e-3 * s, with s = max(|lambda_ep|, omega_m), that
    separates order two from order three; |p| and |p'| are then compared
    against CERT_RTOL * |p''| * s^2 and CERT_RTOL * |p''| * s, so the test is
    invariant under rescaling all rates.
    """
    lam = sol.lambda_ep
    q = char_cubic(p, sol.drive)
    cert = OrderCertificate(abs(q(lam)), abs(q.deriv(lam)), abs(q.deriv2(lam)))
    s = max(abs(lam), p.omega_m)
    ok = (
        cert.ddp_mag > 1e-3 * s
        and cert.p_mag <= CERT_RTOL * cert.ddp_mag * s**2
        and cert.dp_mag <= CERT_RTOL * cert.ddp_mag * s
    )
    if not ok:
        raise OrderCheckFailed(cert.p_mag, cert.dp_mag, cert.ddp_mag)
    return cert
