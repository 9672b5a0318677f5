"""Exceptional-point location: memoryless closed form, linear-in-gamma
perturbative shift, and the numerically exact double root of the cubic.

The exact solver works on the double-root parametrization: given a trial
coalescence frequency lambda, the drive coordinates follow algebraically as

    g_sq  = h^2 / (g^2 + g_c^2)
    delta = -i * [lambda + kappa/2 + g*h / (g^2 + g_c^2)]

and lambda itself is fixed by requiring both to be real.  That reduces the
search to two real unknowns (x, y) = (Re lambda, Im lambda) with residuals
R1 = Im sqrt(g_sq) and R2 = Re[lambda + kappa/2 + g*h/(g^2+g_c^2)], solved
by a damped Newton iteration seeded at the memoryless coalescence value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .charpoly import CubicPoly, char_cubic, cubic_roots, factors, third_root_viete
from .errors import (
    DegenerateDenominator,
    NoConvergence,
    NoMarkovianEp,
    NonPhysicalEp,
    OrderCheckFailed,
)
from .model import DriveParams, SystemParams

KIND_MARKOVIAN = "markovian"
KIND_PERTURBATIVE = "perturbative"
KIND_EXACT = "exact"

# Newton controls for solve_exact_ep.
FD_STEP_REL = 1e-6
RESIDUAL_RTOL = 1e-12
MAX_ITER = 100
MAX_HALVINGS = 30
RESTART_FRACTIONS = (0.01, 0.02, 0.05)


@dataclass(frozen=True)
class EpSolution:
    """A located exceptional point with its defect certificate data.

    residual_p and residual_dp are |p| and |p'| at lambda_ep for the
    polynomial the solution was computed against (the reduced quadratic for
    the memoryless kind, the full cubic otherwise); second_deriv_mag is
    |p''(lambda_ep)| for the same polynomial.
    """

    lambda_ep: complex
    delta_ep: float
    g_ep: float
    lambda_3: complex
    residual_p: float
    residual_dp: float
    second_deriv_mag: float
    kind: str

    def __post_init__(self):
        if self.g_ep <= 0.0:
            raise ValueError("exceptional point requires a positive coupling")
        if self.delta_ep >= 0.0:
            raise ValueError("exceptional point requires a red-detuned drive")
        if self.second_deriv_mag <= 0.0:
            raise ValueError("second derivative must not vanish at an order-two point")

    @property
    def drive(self) -> DriveParams:
        return DriveParams(delta=self.delta_ep, g=self.g_ep)


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


def _require_markovian_ep(p: SystemParams) -> None:
    """Raise NoMarkovianEp unless kappa > gamma (both EP solvers start from that EP)."""
    if p.kappa <= p.gamma:
        raise NoMarkovianEp(
            f"needs kappa > gamma, got kappa = {p.kappa!r}, gamma = {p.gamma!r}"
        )


def markovian_ep(p: SystemParams) -> EpSolution:
    """Closed-form exceptional point of the memoryless two-mode block.

    Residuals are evaluated against the reduced quadratic
    (lam + kappa/2 - i*delta)(lam + gamma/2 + i*omega_m) + G^2, whose double
    root the returned lambda_ep is.
    """
    _require_markovian_ep(p)
    delta = -p.omega_m
    g = (p.kappa - p.gamma) / 4.0
    lam = -(p.kappa + p.gamma) / 4.0 - 1j * p.omega_m

    a = p.kappa / 2.0 - 1j * delta
    b = 1j * p.omega_m + p.gamma / 2.0
    pval = (lam + a) * (lam + b) + g**2
    dpval = 2.0 * lam + a + b
    return EpSolution(
        lambda_ep=lam,
        delta_ep=delta,
        g_ep=g,
        lambda_3=third_root_viete(p, delta, lam),
        residual_p=abs(pval),
        residual_dp=abs(dpval),
        second_deriv_mag=2.0,
        kind=KIND_MARKOVIAN,
    )


def mech_renorm(p: SystemParams) -> MechRenorm:
    """Effective mechanical frequency and damping after bath elimination."""
    den = p.omega_c**2 + p.omega_m**2
    return MechRenorm(
        omega_eff=p.omega_m * (1.0 - p.gamma * p.omega_c / (2.0 * den)),
        gamma_eff=p.gamma * p.omega_m**2 / den,
    )


def perturbative_ep(p: SystemParams) -> EpSolution:
    """Memoryless exceptional point plus the leading corrections in gamma.

    lambda_ep is taken as the midpoint of the two closest roots of the full
    cubic at the shifted coordinates; residuals are against the full cubic
    and are expected small but nonzero.
    """
    base = markovian_ep(p)
    den = p.omega_c**2 + p.omega_m**2
    delta = base.delta_ep + p.omega_m * p.gamma * p.omega_c / (2.0 * den)
    g = base.g_ep + p.gamma * p.omega_c**2 / (4.0 * den)

    q = char_cubic(p, DriveParams(delta=delta, g=g))
    roots = cubic_roots(q)
    pairs = ((0, 1), (0, 2), (1, 2))
    i, j = min(pairs, key=lambda ij: abs(roots[ij[0]] - roots[ij[1]]))
    lam = (roots[i] + roots[j]) / 2.0
    return EpSolution(
        lambda_ep=lam,
        delta_ep=delta,
        g_ep=g,
        lambda_3=third_root_viete(p, delta, lam),
        residual_p=abs(q(lam)),
        residual_dp=abs(q.deriv(lam)),
        second_deriv_mag=abs(q.deriv2(lam)),
        kind=KIND_PERTURBATIVE,
    )


def ep_candidates(p: SystemParams, lam: complex):
    """Drive coordinates (g_sq, delta) that make lam a double root.

    Both returns are complex in general; lam is an admissible coalescence
    frequency only when g_sq is real positive and delta is real negative.
    """
    fac = factors(p, lam)
    den = fac.g**2 + p.g_c**2
    scale = max(abs(lam), p.omega_c) ** 2
    if abs(den) < 1e-12 * scale:
        raise DegenerateDenominator(f"g(lam)^2 + g_c^2 vanishes at lam = {lam!r}")
    g_sq = fac.h**2 / den
    delta = -1j * (lam + p.kappa / 2.0 + fac.g * fac.h / den)
    return g_sq, delta


def _reality_residuals(p: SystemParams, x: float, y: float):
    """Residuals (R1, R2) whose common zero is an exceptional point.

    R1 = Im sqrt(g_sq) vanishes only for real non-negative g_sq, so it
    enforces reality and sign of the coupling at once; R2 is the real part
    of the detuning expression before the -i factor.  Both carry rad/s
    units, which keeps a single omega_m-relative convergence test honest.
    """
    lam = complex(x, y)
    fac = factors(p, lam)
    den = fac.g**2 + p.g_c**2
    scale = max(abs(lam), p.omega_c) ** 2
    if abs(den) < 1e-12 * scale:
        return None
    r1 = cmath.sqrt(fac.h**2 / den).imag
    r2 = (lam + p.kappa / 2.0 + fac.g * fac.h / den).real
    return r1, r2


def _newton_from_seed(p: SystemParams, seed: complex):
    """Damped Newton on the reality residuals; returns lam or None."""
    x, y = seed.real, seed.imag
    tol = RESIDUAL_RTOL * p.omega_m
    res = _reality_residuals(p, x, y)
    if res is None:
        return None
    for _ in range(MAX_ITER):
        r1, r2 = res
        if abs(r1) < tol and abs(r2) < tol:
            return complex(x, y)
        step = FD_STEP_REL * max(math.hypot(x, y), p.omega_c)
        rx = _reality_residuals(p, x + step, y)
        ry = _reality_residuals(p, x, y + step)
        if rx is None or ry is None:
            return None
        j11 = (rx[0] - r1) / step
        j12 = (ry[0] - r1) / step
        j21 = (rx[1] - r2) / step
        j22 = (ry[1] - r2) / step
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            return None
        dx = (j12 * r2 - j22 * r1) / det
        dy = (j21 * r1 - j11 * r2) / det

        base_norm = math.hypot(r1, r2)
        scale_t = 1.0
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            trial = _reality_residuals(p, x + scale_t * dx, y + scale_t * dy)
            if trial is not None and math.hypot(*trial) < base_norm:
                accepted = trial
                break
            scale_t /= 2.0
        if accepted is None:
            return None
        x += scale_t * dx
        y += scale_t * dy
        res = accepted
    r1, r2 = res
    if abs(r1) < tol and abs(r2) < tol:
        return complex(x, y)
    return None


def _restart_seeds(seed: complex):
    for frac in RESTART_FRACTIONS:
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                yield complex(seed.real * (1.0 + sx * frac), seed.imag * (1.0 + sy * frac))


def solve_exact_ep(p: SystemParams, seed: complex | None = None) -> EpSolution:
    """Numerically exact exceptional point of the full three-mode cubic.

    Seeds the Newton iteration at the memoryless coalescence value (or the
    caller's seed), restarting from percent-level perturbed seeds on
    failure.  Converged frequencies failing the physicality selection
    (real positive coupling, real negative detuning) are rejected; among
    several admissible solutions the slowest-decaying one wins.
    """
    _require_markovian_ep(p)
    if seed is None:
        seed = -(p.kappa + p.gamma) / 4.0 - 1j * p.omega_m

    physical = []
    converged_any = False
    for trial_seed in (seed, *_restart_seeds(seed)):
        lam = _newton_from_seed(p, trial_seed)
        if lam is None:
            continue
        converged_any = True
        g_sq, delta = ep_candidates(p, lam)
        if g_sq.real <= 0.0 or delta.real >= 0.0:
            continue
        physical.append(lam)
        if trial_seed == seed:
            break
    if not physical:
        if converged_any:
            raise NonPhysicalEp("all converged double roots fail the physicality selection")
        raise NoConvergence("Newton iteration failed from all seeds")

    lam = max(physical, key=lambda z: z.real)
    g_sq, delta_c = ep_candidates(p, lam)
    delta = delta_c.real
    g = cmath.sqrt(g_sq).real
    q = char_cubic(p, DriveParams(delta=delta, g=g))
    return EpSolution(
        lambda_ep=lam,
        delta_ep=delta,
        g_ep=g,
        lambda_3=third_root_viete(p, delta, lam),
        residual_p=abs(q(lam)),
        residual_dp=abs(q.deriv(lam)),
        second_deriv_mag=abs(q.deriv2(lam)),
        kind=KIND_EXACT,
    )


def certify_order_two(p: SystemParams, sol: EpSolution, rtol: float = 1e-8) -> OrderCertificate:
    """Certify that sol marks an order-two double root of the full cubic.

    |p| and |p'| are compared against rtol * |p''| * s^2 and
    rtol * |p''| * s with s = max(|lambda_ep|, omega_m), so the test is
    invariant under rescaling all rates; |p''| itself must clear the floor
    1e-3 * s that separates order two from order three.
    """
    q = char_cubic(p, DriveParams(delta=sol.delta_ep, g=sol.g_ep))
    lam = sol.lambda_ep
    cert = OrderCertificate(
        p_mag=abs(q(lam)), dp_mag=abs(q.deriv(lam)), ddp_mag=abs(q.deriv2(lam))
    )
    s = max(abs(lam), p.omega_m)
    ddp_floor = 1e-3 * s
    ddp_eff = max(cert.ddp_mag, ddp_floor)
    ok = (
        cert.p_mag <= rtol * ddp_eff * s**2
        and cert.dp_mag <= rtol * ddp_eff * s
        and cert.ddp_mag > ddp_floor
    )
    if not ok:
        raise OrderCheckFailed(cert.p_mag, cert.dp_mag, cert.ddp_mag)
    return cert
