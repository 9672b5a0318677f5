"""Exceptional-point location: memoryless closed form, linear-in-gamma
perturbative shift, and the numerically exact double root of the cubic.

The exact solver works on the double-root parametrization: given a trial
coalescence frequency lambda, the drive coordinates follow algebraically as

    g_sq  = h^2 / (g^2 + g_c^2)
    delta = -i * [lambda + kappa/2 + g*h / (g^2 + g_c^2)]

and lambda itself is fixed by requiring both to be real.  That reduces the
search to two real unknowns (x, y) = (Re lambda, Im lambda) with residuals
R1 = Im sqrt(g_sq) and R2 = Re[lambda + kappa/2 + g*h/(g^2+g_c^2)], solved
by one damped Newton iteration seeded at the memoryless coalescence value.
Both bracketed expressions are holomorphic in lambda, so the Jacobian of
(R1, R2) follows from their complex derivatives by Cauchy-Riemann.
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

# Newton controls for solve_exact_ep; STEP_RTOL is relative to |lambda|.
STEP_RTOL = 1e-8
MAX_ITER = 100
MAX_HALVINGS = 30


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


def _magnitudes(q: CubicPoly, lam: complex):
    """(|q|, |q'|, |q''|) at lam, in EpSolution's and OrderCertificate's field order."""
    return abs(q(lam)), abs(q.deriv(lam)), abs(q.deriv2(lam))


def markovian_ep(p: SystemParams) -> EpSolution:
    """Closed-form exceptional point of the memoryless two-mode block.

    Residuals are evaluated against the reduced quadratic
    (lam + kappa/2 - i*delta)(lam + gamma/2 + i*omega_m) + G^2, whose double
    root the returned lambda_ep is.  Raises NoMarkovianEp unless kappa > gamma;
    the other two EP routes start from this one and share that guard.
    """
    if p.kappa <= p.gamma:
        raise NoMarkovianEp(f"needs kappa > gamma, got kappa = {p.kappa!r}, gamma = {p.gamma!r}")
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
    """Memoryless exceptional point at the renormalized mechanics of mech_renorm.

    The coordinates are markovian_ep's, delta = -omega_m and
    g = (kappa - gamma)/4, with omega_m -> omega_eff and gamma -> gamma_eff,
    which carries the leading corrections in gamma.  lambda_ep is taken as
    the midpoint of the two closest roots of the full cubic at these
    coordinates; residuals are against the full cubic and are expected
    small but nonzero.
    """
    markovian_ep(p)  # the kappa > gamma guard
    ren = mech_renorm(p)
    delta = -ren.omega_eff
    g = (p.kappa - ren.gamma_eff) / 4.0

    q = char_cubic(p, DriveParams(delta=delta, g=g))
    roots = cubic_roots(q)
    pairs = ((0, 1), (0, 2), (1, 2))
    i, j = min(pairs, key=lambda ij: abs(roots[ij[0]] - roots[ij[1]]))
    lam = (roots[i] + roots[j]) / 2.0
    return EpSolution(lam, delta, g, third_root_viete(p, delta, lam), *_magnitudes(q, lam),
                      kind=KIND_PERTURBATIVE)


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


def _newton(p: SystemParams, lam: complex):
    """Damped Newton on (R1, R2) = (Im sqrt(g_sq), Re t) from lam; returns lam or None.

    R1 = 0 only for real non-negative g_sq, i.e. a real coupling.  With
    s = sqrt(g_sq) and s' = g_sq' / (2 s), Cauchy-Riemann gives
    dR/dx = (Im s', Re t') and dR/dy = (Re s', -Im t').  A step within
    STEP_RTOL * |lam| ends the iteration; it is kept only if it does not
    raise the residual norm, so an exact seed stays exact.
    """
    coords = _double_root(p, lam)
    if coords is None:
        return None
    norm = _residual_norm(coords)
    for _ in range(MAX_ITER):
        g_sq, t, d_g_sq, dt = coords
        s = cmath.sqrt(g_sq)
        if s == 0.0:
            return None
        ds = d_g_sq / (2.0 * s)
        r1, r2 = s.imag, t.real
        det = -(ds.real * dt.real + ds.imag * dt.imag)
        if det == 0.0 or not math.isfinite(det):
            return None
        step = complex(r1 * dt.imag + r2 * ds.real, r1 * dt.real - r2 * ds.imag) / det
        if abs(step) <= STEP_RTOL * abs(lam):
            return lam + step if _residual_norm(_double_root(p, lam + step)) <= norm else lam
        for _ in range(MAX_HALVINGS + 1):
            coords = _double_root(p, lam + step)
            trial_norm = _residual_norm(coords)
            if trial_norm < norm:
                break
            step /= 2.0
        else:
            return None
        lam, norm = lam + step, trial_norm
    return None


def solve_exact_ep(p: SystemParams, seed: complex | None = None) -> EpSolution:
    """Numerically exact exceptional point of the full three-mode cubic.

    Runs one Newton iteration from the memoryless coalescence value (or the
    caller's seed) until its step falls within STEP_RTOL * |lambda|, so the
    coordinates carry full double precision.  Raises NoConvergence if the
    iteration fails and NonPhysicalEp if it lands on a double root without
    a real positive coupling and a real negative detuning.
    """
    mk = markovian_ep(p)
    seed = mk.lambda_ep if seed is None else seed
    lam = _newton(p, seed)
    if lam is None:
        raise NoConvergence(f"Newton iteration failed from seed {seed!r}")
    g_sq, delta_c = ep_candidates(p, lam)
    if g_sq.real <= 0.0 or delta_c.real >= 0.0:
        raise NonPhysicalEp(f"double root at lambda = {lam!r} fails the physicality selection")
    delta = delta_c.real
    g = cmath.sqrt(g_sq).real
    mags = _magnitudes(char_cubic(p, DriveParams(delta=delta, g=g)), lam)
    return EpSolution(lam, delta, g, third_root_viete(p, delta, lam), *mags, kind=KIND_EXACT)


def certify_order_two(p: SystemParams, sol: EpSolution, rtol: float = 1e-8) -> OrderCertificate:
    """Certify that sol marks an order-two double root of the full cubic.

    |p| and |p'| are compared against rtol * |p''| * s^2 and
    rtol * |p''| * s with s = max(|lambda_ep|, omega_m), so the test is
    invariant under rescaling all rates; |p''| itself must clear the floor
    1e-3 * s that separates order two from order three.
    """
    lam = sol.lambda_ep
    cert = OrderCertificate(*_magnitudes(char_cubic(p, sol.drive), lam))
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
