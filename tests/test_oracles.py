"""Oracles that share no code with the package: the exceptional point solved
at 40 digits in mpmath, with its third root and |p''| there, the memoryless
and perturbative routes' own formulas at 40 digits, the characteristic
cubic expanded in sympy, the Petermann factor from a general dense
eigendecomposition and, up the EP's peak, from 60-digit mpmath eigenvectors, the EP's first-order memory
shift by implicit differentiation in sympy, every coalescence of the cubic
over real (delta, g^2) from a sympy resultant, the square-root and inverse
laws of the hybrid gap and of K next to the EP, the law K = C / gamma at
the memoryless calibration with C from the same implicit differentiation,
the dip depths from the two-photon-resonance law of the cooperativity:
exact for the memoryless dip, and to first order in kappa/omega_m for the
dressed one, the printed dip locations and depths against the minimum of
|r|^2 solved in 40-digit mpmath, embedcheck's kernel key against the 30-digit
trapezoid rule, its order check against 40-digit powers of the RK4
stability polynomial and its comparison against the exact 0 of similar
generators, and the sweeps' closed-form eigenvalues against
50-digit mpmath ones of the same double matrices.

Each writes the three-mode drift matrix out from the physics, in the mode
basis (a, b, c) with g_c = sqrt(gamma * Omega_c / 2), except the last,
which takes the package's drift stacks as its input:

    M = [[i delta - kappa/2,  -i g,                      0       ],
         [-i g,               -(i omega_m + gamma/2),    -g_c    ],
         [0,                  -g_c,                      -Omega_c]]
"""

import dataclasses
import functools
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from draws import draw_drive, draw_system
from eprenorm import (
    SystemParams,
    certify_order_two,
    compare_embeddings,
    convergence_order,
    cooperativity,
    dip_metrics,
    drift_nonmarkovian,
    eigensystem,
    markovian_ep,
    perturbative_ep,
    solve_exact_ep,
    spectrum,
    sweep_petermann,
)
from eprenorm import embedcheck, response, spectral
from eprenorm.charpoly import char_cubic
from eprenorm.embedcheck import kernel_fourier_error
from eprenorm.errors import NoConvergence
from eprenorm.model import hz_to_rad
from test_parity import parity

ORACLE_DPS = 40
DRAW_SEEDS = range(20)


def _mp_exceptional_point(p: SystemParams):
    """(lambda, delta, g) in rad/s with p(lambda) = p'(lambda) = 0, from mpmath.

    Works in units of omega_m.  p is det(lambda I - M) by cofactor
    expansion and p' the sum of its principal 2x2 minors (Jacobi's formula);
    the four real equations Re/Im p = Re/Im p' = 0 are solved for
    (Re lambda, Im lambda, delta, g) by mpmath's multidimensional Newton,
    started at the memoryless closed form.  Also returns the largest
    residual at the root.
    """
    with mp.workdps(ORACLE_DPS):
        unit = mp.mpf(p.omega_m)
        omega_m, kappa, gamma, omega_c = (mp.mpf(v) / unit for v in (p.omega_m, p.kappa, p.gamma, p.omega_c))
        g_c = mp.sqrt(gamma * omega_c / 2)

        def equations(x, y, delta, g):
            lam = mp.mpc(x, y)
            a = [
                [lam - (1j * delta - kappa / 2), 1j * g, 0],
                [1j * g, lam + 1j * omega_m + gamma / 2, g_c],
                [0, g_c, lam + omega_c],
            ]
            m12 = a[1][1] * a[2][2] - a[1][2] * a[2][1]
            m02 = a[0][0] * a[2][2] - a[0][2] * a[2][0]
            m01 = a[0][0] * a[1][1] - a[0][1] * a[1][0]
            det = (
                a[0][0] * m12
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
            )
            ddet = m12 + m02 + m01
            return [det.real, det.imag, ddet.real, ddet.imag]

        seed = (-(kappa + gamma) / 4, -omega_m, -omega_m, (kappa - gamma) / 4)
        x, y, delta, g = mp.findroot(equations, seed)
        residual = max(abs(v) for v in equations(x, y, delta, g))
        return complex(mp.mpc(x, y) * unit), float(delta * unit), float(g * unit), float(residual)


def _mp_drift(p: SystemParams, delta, g):
    """The drift matrix M at (delta, g), in mpmath at the working precision."""
    omega_m, kappa, gamma, omega_c, delta, g = (mp.mpf(v) for v in (p.omega_m, p.kappa, p.gamma, p.omega_c, delta, g))
    g_c = mp.sqrt(gamma * omega_c / 2)
    return mp.matrix([
        [1j * delta - kappa / 2, -1j * g, 0],
        [-1j * g, -(1j * omega_m + gamma / 2), -g_c],
        [0, -g_c, -omega_c],
    ])


def _ep_devices(params):
    """The defaults and the DRAW_SEEDS devices of test_exact_ep_matches_mpmath_oracle."""
    return [params, *(draw_system(np.random.default_rng(seed)) for seed in DRAW_SEEDS)]


@pytest.mark.parametrize("seed", [None, *DRAW_SEEDS])
def test_exact_ep_matches_mpmath_oracle(seed, params):
    """solve_exact_ep agrees with the 40-digit root to 2e-15 relative in
    lambda, delta and g each, and lambda_3 with the 40-digit eigenvalue of M
    at that root farthest from it to 2e-15 of |lambda_3| (at most 4.0e-16
    and 6.2e-16 measured here and on 200 more devices).

    Newton runs until its step is within 1e-8 of |lambda| and then takes
    that step, so all three carry full double precision; g is held to its
    own size although it is only a few percent of omega_m.  The imaginary
    part of lambda_3 is a difference near zero, so its own relative error is
    larger (5.7e-13 at most over the 200).
    """
    p = params if seed is None else draw_system(np.random.default_rng(seed))
    lam, delta, g, residual = _mp_exceptional_point(p)
    assert residual < 1e-30
    assert g > 0.0 and delta < 0.0

    sol = solve_exact_ep(p)
    assert abs(sol.lambda_ep - lam) <= 2e-15 * abs(lam)
    assert abs(sol.delta_ep - delta) <= 2e-15 * abs(delta)
    assert abs(sol.g_ep - g) <= 2e-15 * g
    with mp.workdps(ORACLE_DPS):
        lam_3 = max(mp.eig(_mp_drift(p, delta, g), left=False, right=False), key=lambda v: abs(v - lam))
        assert abs(sol.lambda_3 - lam_3) <= 2e-15 * abs(lam_3)


@pytest.mark.parametrize("seed", [None, *DRAW_SEEDS])
def test_order_certificate_against_mpmath(seed, params):
    """certify_order_two at the exact EP: |p''| within 2e-15 relative of
    |6 lambda - 2 tr M| at the 40-digit root (5.5e-16 at most here and on 200
    more devices).  |p| and |p'| are rounding residuals with no correct
    digits, below 2e-15 |p''| s^2 and 2e-15 |p''| s, s = max(|lambda|, omega_m)
    (at most 2.2e-16 and 3.5e-16 measured), far inside CERT_RTOL = 1e-8."""
    p = params if seed is None else draw_system(np.random.default_rng(seed))
    lam, delta, g, _ = _mp_exceptional_point(p)
    sol = solve_exact_ep(p)
    cert = certify_order_two(p, sol)
    with mp.workdps(ORACLE_DPS):
        m = _mp_drift(p, delta, g)
        ddp = abs(6 * mp.mpc(lam) - 2 * (m[0, 0] + m[1, 1] + m[2, 2]))
        assert abs(cert.ddp_mag - ddp) <= 2e-15 * ddp
    s = max(abs(sol.lambda_ep), p.omega_m)
    assert cert.p_mag <= 2e-15 * cert.ddp_mag * s**2
    assert cert.dp_mag <= 2e-15 * cert.ddp_mag * s


def test_markovian_ep_is_its_formula_at_40_digits(params):
    """markovian_ep's delta = -omega_m, g = (kappa - gamma)/4 and lambda_ep =
    -(kappa + gamma)/4 - i omega_m each take one rounding of their 40-digit
    values, at most 1.1e-16 relative, on the defaults and 20 devices."""
    for p in _ep_devices(params):
        mk = markovian_ep(p)
        with mp.workdps(ORACLE_DPS):
            omega_m, kappa, gamma = (mp.mpf(v) for v in (p.omega_m, p.kappa, p.gamma))
            refs = (-omega_m, (kappa - gamma) / 4, -(kappa + gamma) / 4 - 1j * omega_m)
            for got, ref in zip((mk.delta_ep, mk.g_ep, mk.lambda_ep), refs):
                assert abs(got - ref) <= 2**-53 * abs(ref)


def test_perturbative_ep_is_its_formula_at_40_digits(params):
    """perturbative_ep against its own formulas at 40 digits, on the defaults
    and 20 devices: delta = -omega_eff and g = (kappa - gamma_eff)/4, with
    omega_eff = omega_m (1 - gamma Omega_c / (2 (Omega_c^2 + omega_m^2))) and
    gamma_eff = gamma omega_m^2 / (Omega_c^2 + omega_m^2), within 1e-15
    relative (1.6e-16 at most here and on 200 more devices), and lambda_ep,
    the midpoint of the two closest eigenvalues of M there, within 5e-15 of
    |lambda_ep| (1.3e-15).  The printed shifts, perturbative minus
    markovian, are within 1e-15 of omega_m (delta) and of the markovian g
    (g), 2.0e-16 at most; relative to the shifts themselves, a few percent
    of those, that is 1.6e-13 and 1.5e-14."""
    for p in _ep_devices(params):
        mk, pert = markovian_ep(p), perturbative_ep(p)
        with mp.workdps(ORACLE_DPS):
            omega_m, kappa, gamma, omega_c = (mp.mpf(v) for v in (p.omega_m, p.kappa, p.gamma, p.omega_c))
            den = omega_c**2 + omega_m**2
            delta = -omega_m * (1 - gamma * omega_c / (2 * den))
            g = (kappa - gamma * omega_m**2 / den) / 4
            lams = mp.eig(_mp_drift(p, delta, g), left=False, right=False)
            i, j = min(itertools.combinations(range(3), 2), key=lambda ij: abs(lams[ij[0]] - lams[ij[1]]))
            lam = (lams[i] + lams[j]) / 2
            assert abs(pert.delta_ep - delta) <= 1e-15 * abs(delta)
            assert abs(pert.g_ep - g) <= 1e-15 * g
            assert abs(pert.lambda_ep - lam) <= 5e-15 * abs(lam)
            g_mk = (kappa - gamma) / 4
            assert abs((pert.delta_ep - mk.delta_ep) - (delta + omega_m)) <= 1e-15 * omega_m
            assert abs((pert.g_ep - mk.g_ep) - (g - g_mk)) <= 1e-15 * g_mk


CENSUS_DPS = 50
# Coalescences of tools/parity.py's two pinned over-damped devices, delta / omega_m to 5 digits.
_OVERDAMPED_CENSUS = {"cycle": (-18.048, -0.52730, 16.016), "other_ep": (-156.97, -0.43575)}


def _mp_coeffs(expr, var):
    """Coefficients of a rational polynomial in var, highest degree first, as mpf."""
    return [mp.mpf(c.p) / c.q for c in sp.Poly(expr, var).all_coeffs()]


def _mp_roots(coeffs):
    """All roots of a polynomial, coefficients highest degree first, at the working precision."""
    return mp.polyroots(coeffs, maxsteps=500, extraprec=4 * CENSUS_DPS)


def _ep_census(p: SystemParams):
    """Every coalescence of the cubic over real (delta, u = g^2), in units of omega_m: [(delta, u)].

    det(lam - M) is expanded in sympy with the float rates as exact
    rationals.  Its discriminant in lam vanishes exactly where two
    eigenvalues coalesce; over real (delta, u) that is Re Disc = Im Disc = 0,
    two real polynomials, cubic in u.  Their resultant in u is one polynomial
    in delta (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 3)
    whose real roots mpmath finds at CENSUS_DPS digits.  At each, u is the
    common root of the two cubics, kept where the two agree and it is real.
    Also returns the resultant's degree.
    """
    delta, u = sp.symbols("delta u", real=True)
    lam = sp.Symbol("lam")
    unit = sp.Rational(p.omega_m)
    kappa, gamma, omega_c = (sp.Rational(v) / unit for v in (p.kappa, p.gamma, p.omega_c))
    # Rows of lam - M; the -(i g)^2 (lam + Omega_c) of the expansion is u (lam + Omega_c).
    a, b, c = lam - sp.I * delta + kappa / 2, lam + sp.I + gamma / 2, lam + omega_c
    disc = sp.discriminant(sp.expand(a * (b * c - gamma * omega_c / 2) + u * c), lam)
    parts = [sp.Poly(part, u, delta) for part in sp.expand(disc).as_real_imag()]
    resultant = parts[0].resultant(parts[1])
    census = []
    with mp.workdps(CENSUS_DPS):
        tol = mp.mpf(10) ** (-CENSUS_DPS // 2)
        for root in _mp_roots(_mp_coeffs(resultant, delta)):
            if abs(root.imag) > tol * max(1, abs(root)):
                continue
            cubics = [[mp.polyval(_mp_coeffs(coeff, delta), root.real)
                       for coeff in sp.Poly(part.as_expr(), u).all_coeffs()] for part in parts]
            pairs = itertools.product(*map(_mp_roots, cubics))
            u_re, u_im = min(pairs, key=lambda pair: abs(pair[0] - pair[1]))
            common = (u_re + u_im) / 2
            if abs(u_re - u_im) <= tol * max(1, abs(common)) and abs(common.imag) <= tol * max(1, abs(common)):
                census.append((float(root.real), float(mp.re(common))))
    return census, sp.Poly(resultant.as_expr(), delta).degree()


def _physical(census):
    """The census EPs a drive can reach: a red detuning and a real coupling, delta < 0 and u > 0."""
    return [(delta, u) for delta, u in census if delta < 0.0 and u > 0.0]


def _assert_is_census_ep(p: SystemParams, sol, ep):
    """sol's (delta, g^2) in units of omega_m within 1e-13 relative of the census EP, each."""
    delta, u = ep
    assert abs(sol.delta_ep / p.omega_m - delta) <= 1e-13 * abs(delta)
    assert abs((sol.g_ep / p.omega_m) ** 2 - u) <= 1e-13 * u


def test_ep_census_of_resolved_devices_has_one_physical_ep_and_solve_exact_ep_finds_it(params):
    """The defaults and 5 draw_system devices (resolved sidebands): the
    resultant has degree 13 and three real coalescences, one of them
    physical, and solve_exact_ep's Newton from the memoryless double root
    lands on it.  At the defaults the three lie at delta / omega_m =
    -0.99869, +0.7591 and +1.0503."""
    rng = np.random.default_rng(12)
    for p in [params, *(draw_system(rng) for _ in range(5))]:
        census, degree = _ep_census(p)
        assert degree == 13
        assert len(census) == 3
        [ep] = _physical(census)
        _assert_is_census_ep(p, solve_exact_ep(p), ep)
        if p is params:
            assert sorted(delta for delta, _ in census) == pytest.approx([-0.99869, 0.75910, 1.0503], rel=5e-5)


@pytest.mark.parametrize("name", sorted(_OVERDAMPED_CENSUS))
def test_ep_census_of_the_pinned_over_damped_devices_explains_today_s_outcomes(name):
    """tools/parity.py's two pinned over-damped devices (kappa of about 284
    and 950 omega_m) each have two physical census EPs.  On "cycle", which
    also has a blue-detuned one at +16.016, Newton from the memoryless double
    root reaches none of them and raises NoConvergence.  On "other_ep" it
    returns the census EP at -156.97, not the one at -0.43575 nearer the
    memoryless delta = -1."""
    with pytest.warns(UserWarning, match="resolved-sideband"):
        p = SystemParams(**parity.OVERDAMPED_PINNED[name])
    census, _ = _ep_census(p)
    deltas = [delta for delta, _ in census]
    for listed in _OVERDAMPED_CENSUS[name]:
        assert any(delta == pytest.approx(listed, rel=5e-5) for delta in deltas)
    physical = _physical(census)
    assert len(physical) == 2
    if name == "cycle":
        with pytest.raises(NoConvergence):
            solve_exact_ep(p)
    else:
        [ep] = [ep for ep in physical if ep[0] == pytest.approx(-156.97, rel=5e-5)]
        _assert_is_census_ep(p, solve_exact_ep(p), ep)


def _sympy_char_coefficients():
    """Coefficients (c2, c1, c0) of det(lam I - M), monic in lam, as functions
    of (omega_m, kappa, gamma, omega_c, delta, g)."""
    omega_m, kappa, gamma, omega_c, g = sp.symbols("omega_m kappa gamma omega_c g", positive=True)
    delta = sp.symbols("delta", real=True)
    lam = sp.symbols("lam")
    g_c = sp.sqrt(gamma * omega_c / 2)
    i = sp.I
    m = sp.Matrix(
        [
            [i * delta - kappa / 2, -i * g, 0],
            [-i * g, -(i * omega_m + gamma / 2), -g_c],
            [0, -g_c, -omega_c],
        ]
    )
    poly = sp.Poly(sp.expand((lam * sp.eye(3) - m).det()), lam)
    lead, *coeffs = poly.all_coeffs()
    assert lead == 1
    args = (omega_m, kappa, gamma, omega_c, delta, g)
    return [sp.lambdify(args, c, modules="mpmath") for c in coeffs]


def test_char_cubic_matches_sympy_determinant(params, drive):
    coeffs = _sympy_char_coefficients()
    rng = np.random.default_rng(404)
    cases = [(params, drive)]
    for _ in range(20):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    for p, d in cases:
        q = char_cubic(p, d)
        scale = max(p.omega_m, p.kappa, p.omega_c, abs(d.delta), d.g)
        with mp.workdps(ORACLE_DPS):
            ref = [complex(c(p.omega_m, p.kappa, p.gamma, p.omega_c, d.delta, d.g)) for c in coeffs]
        for power, (got, want) in enumerate(zip((q.c2, q.c1, q.c0), ref), start=1):
            assert abs(got - want) <= 1e-13 * scale**power


# The dense oracle loses accuracy as K grows; compare only below this K.
K_ORACLE_MAX = 1e4


def _eig_petermann(m):
    """Eigenvalues and K_i = |col_i(V)|^2 |row_i(V^-1)|^2 of a general eigendecomposition.

    Row i of V^-1 is the left eigenvector biorthonormal to column i of V, so
    this is <L|L><R|R>/|<L|R>|^2 with no symmetry assumed.
    """
    w, v = np.linalg.eig(m)
    return w, np.linalg.norm(v, axis=0) ** 2 * np.linalg.norm(np.linalg.inv(v), axis=1) ** 2


def _drift(p: SystemParams, delta: float, g: float):
    g_c = np.sqrt(p.gamma * p.omega_c / 2)
    return np.array(
        [
            [1j * delta - p.kappa / 2, -1j * g, 0],
            [-1j * g, -(1j * p.omega_m + p.gamma / 2), -g_c],
            [0, -g_c, -p.omega_c],
        ]
    )


def _assert_petermann_matches(lams, ks, m):
    """Every oracle mode below K_ORACLE_MAX has a mode in (lams, ks) with the same K to 1e-9."""
    w, k_ref = _eig_petermann(m)
    lams = np.asarray(lams)
    compared = []
    for lam, k in zip(w, k_ref):
        if k >= K_ORACLE_MAX:
            continue
        i = int(np.argmin(np.abs(lams - lam)))
        assert abs(ks[i] - k) <= 1e-9 * k
        compared.append(k)
    return compared


@pytest.mark.parametrize("n", [2, 3])
def test_petermann_matches_dense_oracle_on_symmetric_draws(n):
    rng = np.random.default_rng(61 + n)
    compared = []
    for _ in range(200):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = (a + a.T) / 2
        es = eigensystem(m)
        compared += _assert_petermann_matches(es.lambdas, es.petermann, m)
    assert len(compared) >= 190 * n
    assert max(compared) > 10.0


def test_petermann_sweep_through_ep_matches_dense_oracle(params):
    """Both calibrations, g from 0 to 1.5 g_ep with the exact EP on the grid."""
    sol = solve_exact_ep(params)
    grid = np.concatenate([np.linspace(0.0, 1.5, 61), np.linspace(0.99, 1.01, 41)]) * sol.g_ep
    grid = np.sort(np.append(grid, sol.g_ep))
    peaks = []
    for delta in (-params.omega_m, sol.delta_ep):
        sweep = sweep_petermann(params, delta, grid)
        compared = []
        for g, lams, ks in zip(grid, sweep.lambdas, sweep.petermann):
            compared += _assert_petermann_matches(lams, ks, _drift(params, delta, g))
        assert len(compared) >= 2 * len(grid)
        peaks.append(max(compared))
    # the memoryless calibration keeps K moderate; the exact one reaches far up the peak
    assert peaks[0] > 10.0 and peaks[1] > 500.0


MP_EIG_DPS = 60


def _mp_petermann(m):
    """Eigenvalues and K_i = <L|L><R|R>/|<L|R>|^2 from MP_EIG_DPS-digit left and right eigenvectors."""
    with mp.workdps(MP_EIG_DPS):
        lams, lefts, rights = mp.eig(mp.matrix(m.tolist()), left=True, right=True)
        n = len(lams)
        ks = []
        for i in range(n):
            ll = sum(abs(lefts[i, j]) ** 2 for j in range(n))
            rr = sum(abs(rights[j, i]) ** 2 for j in range(n))
            lr = abs(sum(lefts[i, j] * rights[j, i] for j in range(n))) ** 2
            ks.append(float(ll * rr / lr))
        return np.array([complex(lam) for lam in lams]), np.array(ks)


def test_petermann_up_the_peak_matches_mpmath_eigenvectors(params):
    """Above K_ORACLE_MAX the dense oracle runs out of digits; 60-digit
    eigenvectors carry K to 5e8 along delta_ep, on the defaults and 20
    draw_system devices.  Both K routes of the package are held to them:
    eigensystem's right vectors and the sweep's adjugate of lam - M, the K
    that petermann prints.  The K error grows as eps * K^2 (the eigenvector
    condition number times K); the worst cases measured here are 12 eps K^2
    for the sweep and 117 eps K^2 for eigensystem, both at K near 51."""
    offsets = np.logspace(-9, -2, 8)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1903)
    k_max = 0.0
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        sol = solve_exact_ep(p)
        grid = sol.g_ep * np.concatenate([1.0 - offsets[::-1], 1.0 + offsets])
        sweep = sweep_petermann(p, sol.delta_ep, grid)
        for g, lams, ks in zip(grid, sweep.lambdas, sweep.petermann):
            m = _drift(p, sol.delta_ep, g)
            lams_mp, ks_mp = _mp_petermann(m)
            es = eigensystem(m)
            routes = [*zip(es.lambdas, es.petermann), *zip(lams, ks)]
            assert len(routes) == 2 * len(lams_mp)
            for lam, k in routes:
                k_mp = ks_mp[np.argmin(np.abs(lams_mp - lam))]
                assert abs(k - k_mp) <= 1e3 * eps * k_mp**2, (p, g)
                k_max = max(k_max, k_mp)
    assert k_max > 1e8


@functools.cache
def _gamma_zero_ep():
    """The symbols (omega_m, kappa, omega_c, gamma, delta, g, lam), the drift
    matrix m, p(lam) = det(lam I - m) and the substitution at0 that puts the
    system at its EP at gamma = 0 (so g_c^2 = gamma Omega_c / 2 = 0):
    lam0 = -kappa/4 - i omega_m, delta0 = -omega_m, g0 = kappa/4."""
    omega_m, kappa, omega_c = sp.symbols("omega_m kappa omega_c", positive=True)
    gamma = sp.symbols("gamma", nonnegative=True)
    delta, g = sp.symbols("delta g", real=True)
    lam = sp.symbols("lam")
    i = sp.I
    g_c = sp.sqrt(gamma * omega_c / 2)
    m = sp.Matrix(
        [
            [i * delta - kappa / 2, -i * g, 0],
            [-i * g, -(i * omega_m + gamma / 2), -g_c],
            [0, -g_c, -omega_c],
        ]
    )
    p = sp.expand((lam * sp.eye(3) - m).det())
    at0 = {gamma: 0, lam: -kappa / 4 - i * omega_m, delta: -omega_m, g: kappa / 4}
    return (omega_m, kappa, omega_c, gamma, delta, g, lam), m, p, at0


@functools.cache
def _memory_shift_oracle():
    """Closed forms in (omega_m, kappa, omega_c), as float functions, of the
    exact EP's slopes at gamma = 0, (d delta_ep, d g_ep, d lambda_ep) / d gamma,
    and of the limit as gamma -> 0 of the first-order route's relative error
    (delta_exact - delta_pert) / (delta_exact - delta_mk).

    At gamma = 0 (so g_c^2 = gamma Omega_c / 2 = 0) the EP is
    lam0 = -kappa/4 - i omega_m, delta0 = -omega_m, g0 = kappa/4, a double
    root of p(lam) = det(lam I - M).  Differentiating p = 0 and p_lam = 0
    along gamma there, the first loses its d lam term (p_lam = 0), leaving
    p_delta d delta + p_g d g = -p_gamma: one complex equation for the two
    real slopes.  The second then gives d lam = -(p_lam,delta d delta +
    p_lam,g d g + p_lam,gamma) / p_lam,lam.  The first-order route is the
    memoryless EP at omega_eff = omega_m - Im Sigma(-i omega_m), with the
    self-energy Sigma(lam) = g_c^2 / (Omega_c + lam) taken at the Markov
    pole, so its detuning slope is d Im Sigma(-i omega_m) / d gamma, while
    delta_mk = -omega_m does not move.
    """
    (omega_m, kappa, omega_c, gamma, delta, g, lam), _, p, at0 = _gamma_zero_ep()
    i = sp.I
    p_lam = sp.diff(p, lam)
    assert sp.simplify(p.subs(at0)) == 0 and sp.simplify(p_lam.subs(at0)) == 0

    def d0(expr, var):
        return sp.expand(sp.diff(expr, var).subs(at0))

    p_delta, p_g, p_gamma = (d0(p, var) for var in (delta, g, gamma))
    lhs = sp.Matrix([[sp.re(p_delta), sp.re(p_g)], [sp.im(p_delta), sp.im(p_g)]])
    d_delta, d_g = (sp.simplify(s) for s in lhs.LUsolve(-sp.Matrix([sp.re(p_gamma), sp.im(p_gamma)])))
    d_lam = sp.simplify(
        -(d0(p_lam, delta) * d_delta + d0(p_lam, g) * d_g + d0(p_lam, gamma)) / d0(p_lam, lam)
    )
    self_energy = (gamma * omega_c / 2) / (omega_c - i * omega_m)
    d_pert = sp.diff(sp.im(sp.expand_complex(self_energy)), gamma)
    limit = sp.simplify(1 - d_pert / d_delta)
    args = (omega_m, kappa, omega_c)
    return [sp.lambdify(args, expr, modules="math") for expr in (d_delta, d_g, d_lam, limit)]


# The slopes are dimensionless (rad/s per rad/s).  At gamma = 1e-5 kappa their
# O(gamma) term is at most 3.3e-7 on these devices (it scales as about 0.033
# gamma / kappa), and solve_exact_ep's 1e-13 relative accuracy costs at most
# 1e-13 omega_m / gamma <= 2e-7 (kappa >= 0.05 omega_m): their sum stays below
# SLOPE_TOL.  The relative error's distance to its limit also falls linearly in
# gamma: at most 1.1e-6 at gamma = 1e-5 kappa and 1.1e-4 at 1e-3 kappa.
GAMMA_OVER_KAPPA = 1e-5
SLOPE_TOL = 1e-6
LIMIT_TOL = 1e-5


def _memory_shift_devices(params):
    rng = np.random.default_rng(1010)
    return [params, *(draw_system(rng) for _ in range(20))]


def test_memory_shift_oracle_closed_form_at_defaults(params):
    """The first-order route's relative error tends to
    kappa (8 Omega_c - kappa) / (16 (Omega_c^2 + omega_m^2)), 0.04875 at the defaults."""
    *_, limit = _memory_shift_oracle()
    args = (params.omega_m, params.kappa, params.omega_c)
    assert abs(limit(*args) - 0.04875) <= 1e-14
    for device in _memory_shift_devices(params):
        args = (device.omega_m, device.kappa, device.omega_c)
        closed = device.kappa * (8.0 * device.omega_c - device.kappa) / (16.0 * (device.omega_c**2 + device.omega_m**2))
        assert abs(limit(*args) - closed) <= 1e-14


def test_exact_ep_first_order_in_gamma_matches_sympy_oracle(params):
    """(delta_ep + omega_m) / gamma, (g_ep - kappa/4) / gamma and
    (lambda_ep - lam0) / gamma from solve_exact_ep match the oracle's slopes
    to SLOPE_TOL at gamma = GAMMA_OVER_KAPPA * kappa."""
    d_delta, d_g, d_lam, _ = _memory_shift_oracle()
    for device in _memory_shift_devices(params):
        p = dataclasses.replace(device, gamma=GAMMA_OVER_KAPPA * device.kappa)
        args = (p.omega_m, p.kappa, p.omega_c)
        sol = solve_exact_ep(p)
        lam0 = -p.kappa / 4.0 - 1j * p.omega_m
        assert abs((sol.delta_ep + p.omega_m) / p.gamma - d_delta(*args)) <= SLOPE_TOL
        assert abs((sol.g_ep - p.kappa / 4.0) / p.gamma - d_g(*args)) <= SLOPE_TOL
        assert abs((sol.lambda_ep - lam0) / p.gamma - d_lam(*args)) <= SLOPE_TOL


def test_first_order_route_relative_error_tends_to_oracle_limit(params):
    """The first-order route's error is a fixed fraction of the memory shift,
    not O(gamma^2): (delta_exact - delta_pert) / (delta_exact - delta_mk)
    approaches the oracle's limit linearly in gamma, reaching it to LIMIT_TOL
    at gamma = GAMMA_OVER_KAPPA * kappa."""
    *_, limit = _memory_shift_oracle()
    for device in _memory_shift_devices(params):
        gaps = []
        for gamma_rel in (1e2 * GAMMA_OVER_KAPPA, GAMMA_OVER_KAPPA):
            p = dataclasses.replace(device, gamma=gamma_rel * device.kappa)
            exact = solve_exact_ep(p).delta_ep
            rel = (exact - perturbative_ep(p).delta_ep) / (exact - (-p.omega_m))
            gaps.append(abs(rel - limit(p.omega_m, p.kappa, p.omega_c)))
        assert gaps[1] <= LIMIT_TOL
        assert gaps[0] >= 30.0 * gaps[1]


# Relative distances |g - g_ep| / g_ep of the order-two scaling test.
EP_OFFSETS = 10.0 ** -np.arange(3.0, 7.0)
EXPONENT_TOL = 0.01


@pytest.mark.parametrize("seed", [None, *range(20)])
def test_hybrid_gap_and_petermann_scale_as_an_order_two_ep(seed, params):
    """Along delta_ep, on either side of g_ep, the hybrid gap goes as
    |g - g_ep|^(1/2) and the largest K as |g - g_ep|^-1 (Kato's Puiseux
    series at an order-two EP; Berry 2003, Wiersig 2014): the log-log
    slopes over four decades are 1/2 and -1 to EXPONENT_TOL.  The hybrids
    are the two eigenvalues other than the one nearest -Omega_c."""
    p = params if seed is None else draw_system(np.random.default_rng(1300 + seed))
    sol = solve_exact_ep(p)
    log_offset = np.log(EP_OFFSETS * sol.g_ep)
    for side in (1.0, -1.0):
        sweep = sweep_petermann(p, sol.delta_ep, sol.g_ep * (1.0 + side * EP_OFFSETS))
        lams = sweep.lambdas
        order = np.argsort(-np.abs(lams + p.omega_c), axis=1)  # the bath branch last
        hybrids = np.take_along_axis(lams, order[:, :2], axis=1)
        gap_slope = np.polyfit(log_offset, np.log(np.abs(hybrids[:, 0] - hybrids[:, 1])), 1)[0]
        k_slope = np.polyfit(log_offset, np.log(sweep.petermann.max(axis=1)), 1)[0]
        assert abs(gap_slope - 0.5) <= EXPONENT_TOL
        assert abs(k_slope + 1.0) <= EXPONENT_TOL


@functools.cache
def _petermann_law_oracle():
    """C(omega_m, kappa, omega_c), as a float function, of the law K_mk ~ C / gamma
    for the largest hybrid K at the memoryless coordinates (delta_mk, g_mk).

    Next to an order-two EP, K_+- ~ ||adj(lam_ep - M)||_F^2 /
    (|lam_+ - lam_-|^2 |lam_ep - lam_3|^2), and p ~ p''/2 (lam - lam_ep)^2 +
    grad_theta p . dtheta gives (lam_+ - lam_-)^2 ~ -8 grad_theta p . dtheta / p''
    (Kato 1966; Berry 2003), with theta = (delta, g).  The memoryless point
    sits dtheta = gamma v from the exact EP, where v = d(theta_mk - theta_ep)/d
    gamma at gamma = 0 comes from _memory_shift_oracle's implicit
    differentiation and theta_mk = (-omega_m, (kappa - gamma)/4).  So, at
    gamma = 0 (lam0 = -kappa/4 - i omega_m, lam_3 = -Omega_c, drift M0),

        C = ||adj(lam0 - M0)||_F^2 |p''| / (8 |grad_theta p . v| |lam0 - lam_3|^2).

    The adjugate, p'' and grad_theta p are sympy's; the norm and moduli are
    taken on their complex values.
    """
    (omega_m, kappa, omega_c, _, delta, g, lam), m, p, at0 = _gamma_zero_ep()
    derivatives = (sp.diff(p, *var).subs(at0) for var in ((lam, 2), (delta,), (g,)))
    pieces = [*(lam * sp.eye(3) - m).adjugate().subs(at0), *derivatives]
    values = sp.lambdify((omega_m, kappa, omega_c), [sp.expand(piece) for piece in pieces], modules="cmath")
    d_delta, d_g, _, _ = _memory_shift_oracle()

    def law(omega_m, kappa, omega_c):
        *adj, ddp, p_delta, p_g = values(omega_m, kappa, omega_c)
        v_delta, v_g = -d_delta(omega_m, kappa, omega_c), -0.25 - d_g(omega_m, kappa, omega_c)
        lam0 = complex(-kappa / 4.0, -omega_m)
        slope = abs(p_delta * v_delta + p_g * v_g)
        return sum(abs(a) ** 2 for a in adj) * abs(ddp) / (8.0 * slope * abs(lam0 + omega_c) ** 2)

    return law


# Factors on gamma of the C / gamma test.
LAW_GAMMA_SCALES = (1e-3, 1e-4)


def test_memoryless_petermann_factor_is_c_over_gamma(params):
    """The abstract's suppressed Petermann factor as a law: the largest K of
    sweep_petermann at the memoryless coordinates is C / gamma, with C from
    _petermann_law_oracle.  With gamma scaled by 1e-4, gamma K_mk / C - 1 is at
    most 1e-4 on the defaults and 20 devices (at most 1.6e-5 measured), and it
    shrinks at least linearly in gamma: by at least 9 from gamma/1e3 to
    gamma/1e4 (9.5 - 18 measured).  At the default gamma, C / gamma = 27.586
    and criterion 05 prints K = 27.59."""
    law = _petermann_law_oracle()
    rng = np.random.default_rng(1500)
    for device in [params, *(draw_system(rng) for _ in range(20))]:
        c = law(device.omega_m, device.kappa, device.omega_c)
        gaps = []
        for scale in LAW_GAMMA_SCALES:
            p = dataclasses.replace(device, gamma=scale * device.gamma)
            mk = markovian_ep(p)
            k_mk = sweep_petermann(p, mk.delta_ep, [mk.g_ep, 2.0 * mk.g_ep]).petermann[0].max()
            gaps.append(abs(p.gamma * k_mk / c - 1.0))
        assert gaps[1] <= 1e-4
        assert gaps[0] >= 9.0 * gaps[1]
    assert law(params.omega_m, params.kappa, params.omega_c) / params.gamma == pytest.approx(27.586, abs=5e-4)


def test_memoryless_dip_depth_is_the_cooperativity_law(params):
    """At two-photon resonance the memoryless reflection is (C - 1)/(C + 1)
    (Weis et al. 2010), so the dip at the memoryless EP, where the curve is
    symmetric about omega_m, has depth ((C - 1)/(C + 1))^2 with
    C = 4 g^2 / (kappa gamma), to 1e-14 on the defaults and 20 devices."""
    rng = np.random.default_rng(1400)
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        drive = markovian_ep(p).drive
        c = cooperativity(p, drive).c
        assert c == pytest.approx(4.0 * drive.g**2 / (p.kappa * p.gamma), rel=1e-15)
        depth = dip_metrics(p, drive, markovian=True).r_sq_min
        assert abs(depth - ((c - 1.0) / (c + 1.0)) ** 2) <= 1e-14


# Factors on kappa and gamma of the dressed-dip test, three decades; omega_m
# and Omega_c stay fixed, so the scale is kappa/omega_m.
DIP_SCALES = 10.0 ** -np.arange(1.0, 4.0)


def _dressed_dip_gap(p):
    """|r|^2 at the dressed dip of the exact EP minus ((C_eff - 1)/(C_eff + 1))^2.

    The dip is dip_metrics' minimum refined on nested spectrum grids, each
    1/20 the width of the last, to a step of about 1e-12 gamma: dip_metrics
    stops at 1e-3 gamma, which leaves up to ~1e-7 in r_sq_min,
    more than the gap at the smallest scale on some devices."""
    drive = solve_exact_ep(p).drive
    dip = dip_metrics(p, drive)
    omega, half = dip.omega_min, 1e-2 * p.gamma
    for _ in range(8):
        grid = np.linspace(omega - half, omega + half, 101)
        r_sq = spectrum(p, drive, grid).r_sq
        omega, half = grid[np.argmin(r_sq)], half / 20.0
    depth = r_sq.min()
    assert -1e-15 <= dip.r_sq_min - depth <= 1e-6  # the same dip, within its search resolution
    c = cooperativity(p, drive).c_eff
    return depth - ((c - 1.0) / (c + 1.0)) ** 2


def test_dressed_dip_depth_tends_to_the_renormalized_cooperativity_law(params):
    """With kappa and gamma scaled by s, the dressed dip's depth at the exact
    EP approaches ((C_eff - 1)/(C_eff + 1))^2 (C_eff from cooperativity)
    linearly: the gap is a s + b s^2 + ..., so gap/s moves ten times less from
    s = 1e-2 to 1e-3 than from 1e-1 to 1e-2, on the defaults and 20 devices
    (ratios 0.096 - 0.101).  Where the s^2 term is at most 5 % of the gap at
    s = 1e-1, the log-log slope of |gap| is 1.00 +/- 0.02: on the defaults and
    17 of the 20 devices (0.994 - 1.003).  On the other 3 the first-order
    coefficient is small, and on two of them the gap changes sign between
    s = 1e-1 and 1e-2; the sign of a differs between devices."""
    rng = np.random.default_rng(1400)
    slopes = []
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        gaps = np.array([_dressed_dip_gap(dataclasses.replace(p, kappa=s * p.kappa, gamma=s * p.gamma))
                         for s in DIP_SCALES])
        first = gaps / DIP_SCALES
        assert 0.09 <= abs(first[2] - first[1]) / abs(first[1] - first[0]) <= 0.11
        if abs(first[0] / first[2] - 1.0) <= 0.05:
            slopes.append(np.polyfit(np.log(DIP_SCALES), np.log(np.abs(gaps)), 1)[0])
    assert len(slopes) >= 6 and np.all(np.abs(np.array(slopes) - 1.0) <= 0.02)


DIP_DPS = 40


def _mp_r_sq(p, d, markovian):
    """|r(omega)|^2 at DIP_DPS digits, written out from the susceptibilities:
    r = 1 - kappa / (chi_a^-1 + g^2 / chi_m^-1), chi_a^-1 = kappa/2 - i(omega + delta),
    chi_m^-1 = gamma/2 - i(omega - omega_m), less g_c^2 / (Omega_c - i omega) with
    g_c^2 = gamma Omega_c / 2 for the bath-dressed model."""
    kappa, gamma, omega_m, omega_c, delta, g = (mp.mpf(x) for x in (p.kappa, p.gamma, p.omega_m,
                                                                    p.omega_c, d.delta, d.g))

    def r_sq(omega):
        chi_a_inv = kappa / 2 - 1j * (omega + delta)
        chi_m_inv = gamma / 2 - 1j * (omega - omega_m)
        if not markovian:
            chi_m_inv -= gamma * omega_c / 2 / (omega_c - 1j * omega)
        return abs(1 - kappa / (chi_a_inv + g**2 / chi_m_inv)) ** 2

    return r_sq


@functools.cache
def _dip_errors(params, markovian):
    """(device, printed dip, d_omega, d_depth, curvature, d_at) for the curve of
    `spectrum` on the defaults and 20 devices: the dip that dip_metrics finds at
    the curve's EP drive, less the mpmath minimum omega* of |r|^2 (the root of its
    derivative, found from the printed location) and less |r|^2 at omega*;
    |r|^2'' at omega*; and the printed depth less |r|^2 at the printed location."""
    rng = np.random.default_rng(1900)
    rows = []
    with mp.workdps(DIP_DPS):
        for p in [params, *(draw_system(rng) for _ in range(20))]:
            drive = (markovian_ep(p) if markovian else solve_exact_ep(p)).drive
            dip = dip_metrics(p, drive, markovian=markovian)
            r_sq = _mp_r_sq(p, drive, markovian)
            printed = mp.mpf(dip.omega_min)
            omega = mp.findroot(lambda w: mp.diff(r_sq, w), printed, tol=mp.mpf(10) ** -60 * p.omega_m**2)
            assert abs(omega - printed) < p.gamma  # the same dip
            rows.append((p, dip, float(printed - omega), float(dip.r_sq_min - r_sq(omega)),
                         float(mp.diff(r_sq, omega, 2)), float(dip.r_sq_min - r_sq(printed))))
    return rows


def test_memoryless_dip_location_is_exact(params):
    """dip.markovian.omega_min_khz: at the memoryless EP the curve is symmetric
    about omega_m, the middle point of the coarse scan to an ulp or two, and the
    printed location is within 1e-15 (relative) of the mpmath minimum, on the
    defaults and 20 devices (5.8e-16 at most over 200)."""
    for p, dip, d_omega, *_ in _dip_errors(params, True):
        assert abs(d_omega) <= 1e-15 * dip.omega_min
        assert abs(dip.omega_min - p.omega_m) <= 1e-15 * p.omega_m


def test_memoryless_dip_depth_is_exact(params):
    """dip.markovian.r_sq_min is the mpmath minimum of |r|^2 to 1e-15, on the
    defaults and 20 devices (4.4e-16 at most over 200)."""
    for _, _, _, d_depth, *_ in _dip_errors(params, True):
        assert abs(d_depth) <= 1e-15


def test_dressed_dip_location_is_within_half_xtol(params):
    """dip.nonmarkovian.omega_min_khz is within xtol/2 = 5e-4 gamma of the mpmath
    minimum (xtol = 1e-3 gamma), golden section's bound for the midpoint of its
    last bracket, on the defaults and 20 devices (2.6e-4 gamma at most over 200;
    1.7e-7 relative at the defaults and 4.0e-5 at most, so 4 of the 12 printed
    digits are sure)."""
    for p, dip, d_omega, *_ in _dip_errors(params, False):
        assert abs(d_omega) <= 5e-4 * p.gamma


def test_dressed_dip_depth_is_r_sq_at_the_printed_location(params):
    """dip.nonmarkovian.r_sq_min is |r|^2 at the printed location to 1e-15, so it
    lies above the mpmath minimum by |r|^2'' d_omega^2 / 2 (to 1 %), which the
    location bound caps at |r|^2'' (xtol/2)^2 / 2, and by at most 1e-6, on the
    defaults and 20 devices (4.3e-12 at the defaults, 3.0e-7 at most over 200)."""
    for p, _, d_omega, d_depth, curvature, d_at in _dip_errors(params, False):
        assert abs(d_at) <= 1e-15
        assert -1e-15 <= d_depth <= 1.01 * curvature * d_omega**2 / 2.0 + 1e-15
        assert d_depth <= 1e-6


def test_spectrum_curves_match_mpmath(params):
    """spectrum's r_sq_markovian and r_sq_nonmarkovian columns, response._r_sq as
    cmd_spectrum prints them, are within 4e-15 (absolute) of |r|^2 of the same
    closed form at DIP_DPS digits, each curve at its own EP drive, on the defaults
    and 20 devices, at 51 points of the default 900-1100 kHz grid, 51 across
    omega_m +- 10 % and the printed dip location (1.0e-15 at most, 6.8e-15 relative):
    r is 1 less a ratio near 1 at the dip, so its error is a few eps of 1, not of
    |r|^2.  The NaNs fall exactly where spectrum flags a point singular."""
    grid = hz_to_rad(np.linspace(900.0, 1100.0, 2001) * 1e3)[::40]
    rng = np.random.default_rng(1903)
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        for locate, memoryless in ((markovian_ep, True), (solve_exact_ep, False)):
            drive = locate(p).drive
            dip = dip_metrics(p, drive, markovian=memoryless)
            omegas = np.concatenate([grid, p.omega_m * np.linspace(0.9, 1.1, 51), [dip.omega_min]])
            r_sq = response._r_sq(p, drive, omegas, memoryless, math.nan)
            singular = spectrum(p, drive, omegas, markovian=memoryless).singular
            assert np.array_equal(np.isnan(r_sq), singular), p
            with mp.workdps(DIP_DPS):
                exact = _mp_r_sq(p, drive, memoryless)
                for omega, value in zip(omegas[~singular].tolist(), r_sq[~singular].tolist()):
                    assert abs(value - exact(mp.mpf(omega))) <= 4e-15, (p, memoryless, omega)


@functools.cache
def _cooperativity_errors(params):
    """Relative errors of the spectrum summary's (c, c_eff), the cooperativities at
    the exact EP drive as cmd_spectrum takes them, on the defaults and 20 devices,
    against 4 g^2 / (kappa gamma) and 4 g^2 / (kappa gamma_eff) at the mpmath EP's g,
    with gamma_eff = gamma omega_m^2 / (omega_m^2 + Omega_c^2), the bath's spectral
    density at the mechanical frequency."""
    rng = np.random.default_rng(1901)
    rows = []
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        _, _, g, _ = _mp_exceptional_point(p)
        coop = cooperativity(p, solve_exact_ep(p).drive)
        with mp.workdps(ORACLE_DPS):
            g, kappa, gamma, omega_m, omega_c = (mp.mpf(x) for x in (g, p.kappa, p.gamma, p.omega_m, p.omega_c))
            c = 4 * g**2 / (kappa * gamma)
            c_eff = 4 * g**2 / (kappa * gamma * omega_m**2 / (omega_m**2 + omega_c**2))
            rows.append((float(abs(coop.c - c) / c), float(abs(coop.c_eff - c_eff) / c_eff)))
    return rows


def test_bare_cooperativity_is_exact(params):
    """cooperativity.c is within 2e-15 (relative) of the mpmath value, on the
    defaults and 20 devices (4.3e-16 at most; 7.9e-16 over 200 more), the
    exact EP's g carrying full double precision: all 12 printed digits hold."""
    for c_err, _ in _cooperativity_errors(params):
        assert c_err <= 2e-15


def test_renormalized_cooperativity_is_exact(params):
    """cooperativity.c_eff is within 2e-15 (relative) of the mpmath value, on the
    defaults and 20 devices (5.7e-16 at most; 9.1e-16 over 200 more)."""
    for _, c_eff_err in _cooperativity_errors(params):
        assert c_eff_err <= 2e-15


EMBED_DPS = 40


@functools.cache
def _mp_kernel_key():
    """kernel_fourier_err in exact arithmetic, the same for every device with gamma > 0:
    |(2/pi) T - e^-1| with T the 20,001-node trapezoid rule of cos x / (1 + x^2) on
    [0, 50], at 30 digits.  In x = omega / Omega_c the check's integrand
    (I(omega) - gamma) cos(omega t) at t = 1 / Omega_c is -gamma cos x / (1 + x^2),
    and the closed form it is held to is -(gamma Omega_c / 2) e^-1."""
    with mp.workdps(30):
        h = mp.mpf(1) / 400
        inner = mp.fsum(mp.cos(k * h) / (1 + (k * h) ** 2) for k in range(1, 20000))
        rule = h * (mp.mpf(1) / 2 + inner + mp.cos(50) / (1 + 50**2) / 2)
        return float(abs(2 / mp.pi * rule - mp.exp(-1)))


def test_kernel_fourier_err_is_the_rule_s_truncation_error(params):
    """kernel_fourier_err is within 1e-11 (relative) of its 30-digit value
    7.6402255220291810e-05, on the defaults and 20 devices (4.6e-13 at the
    defaults, 4.2e-12 at most, 4.5e-12 over 200 more): the key is a difference near 7.6e-5 of numbers near
    e^-1, so eps * e^-1 / 7.6e-5 ~ 1e-12 bounds it, and about 11 of its 16
    printed digits are correct."""
    key = _mp_kernel_key()
    assert abs(key - 7.6402255220291810e-05) <= 1e-20
    rng = np.random.default_rng(1902)
    for p in [params, *(draw_system(rng) for _ in range(20))]:
        assert abs(kernel_fourier_error(p) - key) <= 1e-11 * key, p


@functools.cache
def _order_errors(params, drive):
    """(ratio error, order error, bound) of convergence_order at the CLI's
    default horizon 20/kappa and init (1, 1, 0), on the defaults and 20
    devices.  The oracle takes the package's step count n and forms each
    endpoint P^m init, m = n, 2n and 4n, from EMBED_DPS-digit powers of the RK4
    stability polynomial P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24,
    h = t_final / m.  Each double endpoint is m products with a P rounded to
    eps, so the bound on the ratio's relative error is 4n eps |y_4n| / |y_2n - y_4n|."""
    rng = np.random.default_rng(1903)
    cases = [(params, drive)]
    for _ in range(20):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    rows = []
    for p, d in cases:
        t_final = 20.0 / p.kappa
        init = (1.0, 1.0, 0.0)
        n = embedcheck._order_steps(p, d, t_final)
        order, ratio = convergence_order(p, d, init, t_final)
        ends = embedcheck._order_endpoints(drift_nonmarkovian(p, d), init, n, t_final)
        eps = np.finfo(float).eps
        bound = 4 * n * eps * float(np.linalg.norm(ends[2]) / np.linalg.norm(ends[1] - ends[2]))
        with mp.workdps(EMBED_DPS):
            m_drift = _mp_drift(p, d.delta, d.g)
            y0 = mp.matrix(list(init))
            mp_ends = []
            for m in (n, 2 * n, 4 * n):
                hm = mp.mpf(t_final) / m * m_drift
                eye = mp.eye(3)
                step = eye + hm * (eye + hm * (eye + hm * (eye + hm / 4) / 3) / 2)
                mp_ends.append(step**m * y0)
            mp_ratio = mp.norm(mp_ends[0] - mp_ends[1]) / mp.norm(mp_ends[1] - mp_ends[2])
            rows.append((float(abs(ratio - mp_ratio) / mp_ratio), float(abs(order - mp.log(mp_ratio, 2))), bound))
    return rows


def test_order_ratio_matches_mpmath_powers(params, drive):
    """order_ratio is within 4n eps |y_4n| / |y_2n - y_4n| (relative) of the
    ratio of EMBED_DPS-digit endpoint differences, on the defaults and 20
    devices (0.12 of that bound at most, 0.25 over 200 more).  That is 2.0e-5 at
    the defaults (4 of 12 printed digits correct), 7.9e-3 at most here and
    4.3e-2 over the 200: the three endpoints agree to 1e-8 to 1e-11 of their
    size, and each carries rounding from up to 4n products."""
    rows = _order_errors(params, drive)
    for ratio_err, _, bound in rows:
        assert ratio_err <= bound
    assert rows[0][0] <= 1e-4


def test_order_estimate_matches_mpmath_powers(params, drive):
    """order_estimate = log2(order_ratio) is within bound / ln 2 of the
    EMBED_DPS-digit value, on the defaults and 20 devices: 2.9e-5 at the
    defaults (5 of 12 printed digits correct), 1.1e-2 at most here and 0.063
    over 200 more, where only the leading digit is sure."""
    rows = _order_errors(params, drive)
    for _, order_err, bound in rows:
        assert order_err <= bound / math.log(2.0)
    assert rows[0][1] <= 1e-4


def _cli_comparison(p, d):
    """compare_embeddings at the CLI's defaults: init (1, 1), t_final = 20/kappa, dt = L/2."""
    return compare_embeddings(p, d, (1.0, 1.0), 20.0 / p.kappa, embedcheck._resolution_limit(p, d) / 2.0)


def test_max_rel_err_is_rounding_of_zero(params, drive):
    """max_rel_err is 0 in exact arithmetic: the accumulator's generator is
    D M D^-1 with D = diag(1, 1, -1/g_c), checked here against M at EMBED_DPS
    digits; RK4's polynomial keeps the similarity and D leaves (a, b, 0) alone,
    so both runs have the same (a, b) at every step.  Every printed digit is
    rounding: the key is within 1e-14 of 0 on the defaults and 20 devices at
    the CLI's default grid (1.2e-16 at the defaults, 8.0e-16 at most, 2.2e-15
    over 200 more), and exactly 0 at gamma = 0, where g_c = 0 leaves (a, b)
    apart from the third mode in both generators."""
    rng = np.random.default_rng(1904)
    cases = [(params, drive)]
    for _ in range(20):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    for p, d in cases:
        with mp.workdps(EMBED_DPS):
            scale = [1, 1, -1 / mp.sqrt(mp.mpf(p.gamma) * mp.mpf(p.omega_c) / 2)]
            m_drift = _mp_drift(p, d.delta, d.g)
            acc = embedcheck._accumulator_drift(p, d)
            for i, j in itertools.product(range(3), repeat=2):
                similar = scale[i] * m_drift[i, j] / scale[j]
                assert abs(acc[i, j] - similar) <= 1e-15 * abs(similar), (p, i, j)
        assert 0.0 <= _cli_comparison(p, d) <= 1e-14, p
        assert _cli_comparison(dataclasses.replace(p, gamma=0.0), d) == 0.0, p
    assert _cli_comparison(params, drive) <= 1e-15


KERNEL_DPS = 50


def _mp_eigenvalues(m, seed):
    """The eigenvalues of the 3x3 double matrix m at KERNEL_DPS digits.

    det(lam I - m) is expanded exactly from m's entries.  Of seed (three
    double estimates), the root farthest from the other two is simple, and
    Newton takes it to full precision; the other two solve the deflated
    quadratic, so a close pair loses no digits.
    """
    with mp.workdps(KERNEL_DPS):
        a = [[mp.mpc(complex(x)) for x in row] for row in m]
        tr = a[0][0] + a[1][1] + a[2][2]
        c1 = sum(a[i][i] * a[j][j] - a[i][j] * a[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
        det = mp.det(mp.matrix(a))
        far = max(range(3), key=lambda i: min(abs(seed[i] - seed[j]) for j in range(3) if j != i))
        x = mp.mpc(complex(seed[far]))
        for _ in range(8):
            x -= (((x - tr) * x + c1) * x - det) / ((3 * x - 2 * tr) * x + c1)
        pair_sum = tr - x
        root = mp.sqrt(pair_sum**2 / 4 - (c1 - x * pair_sum))
        return np.array([complex(x), complex(pair_sum / 2 + root), complex(pair_sum / 2 - root)])


def _matched(got, ref):
    """got (3,) permuted onto ref (3,) with the smallest largest distance."""
    return min((got[list(perm)] for perm in itertools.permutations(range(3))), key=lambda g: np.abs(g - ref).max())


def _ep_stacks(devices):
    """Drift stacks of each device at both calibrations, on a +-10 % grid with the exact EP on it."""
    for p in devices:
        sol = solve_exact_ep(p)
        grid = np.sort(np.append(np.linspace(0.9, 1.1, 41) * sol.g_ep, sol.g_ep))
        for delta in (markovian_ep(p).delta_ep, sol.delta_ep):
            yield spectral._drift_stack(p, delta, grid)


def _kernel_stacks(params):
    """_ep_stacks of the defaults, 10 draw_system devices and 6 of tools/parity.py's over-damped draws."""
    rng = np.random.default_rng(2828)
    over_damped = parity.overdamped_devices()
    devices = [params, *(draw_system(rng) for _ in range(10))]
    devices += [SystemParams.from_hz(*over_damped[f"d{k:02d}"]) for k in range(6)]
    return _ep_stacks(devices)


@pytest.mark.filterwarnings("ignore::UserWarning")  # the over-damped devices are not sideband-resolved
def test_sweep_eigenvalues_match_mpmath_at_least_as_well_as_lapack(params):
    """The closed-form kernel of the sweeps against 50-digit eigenvalues of the
    same double matrices, with LAPACK's zgeev on the same rows as the yardstick.

    On every regular row (closest gap at least DEGENERACY_RTOL of max|lam|),
    the kernel's worst error relative to the row's max|lam|, and its worst
    componentwise error (each Re and each Im against its own magnitude), are
    no larger than zgeev's.  On a defective row the split of the pair is
    conditioned like sqrt(eps), but its midpoint and the third root are
    within 1e-14 of the row scale."""
    worst = {"kernel": [0.0, 0.0], "zgeev": [0.0, 0.0]}
    regular = defective = 0
    for stack in _kernel_stacks(params):
        kernel = spectral._closed_eigvals(stack)[0]
        zgeev = np.linalg.eigvals(stack)
        for m, lams, ref_seed in zip(stack, kernel, zgeev):
            ref = _mp_eigenvalues(m, ref_seed)
            scale = np.abs(ref).max()
            gaps = {(i, j): abs(ref[i] - ref[j]) for i, j in itertools.combinations(range(3), 2)}
            pair = min(gaps, key=gaps.get)
            if gaps[pair] < spectral.DEGENERACY_RTOL * scale:
                got = _matched(lams, ref)
                [third] = set(range(3)) - set(pair)
                midpoint = (got[pair[0]] + got[pair[1]] - ref[pair[0]] - ref[pair[1]]) / 2.0
                assert abs(midpoint) <= 1e-14 * scale
                assert abs(got[third] - ref[third]) <= 1e-14 * scale
                defective += 1
                continue
            regular += 1
            for name, row in (("kernel", lams), ("zgeev", ref_seed)):
                err = _matched(row, ref) - ref
                componentwise = max(np.max(np.abs(err.real / ref.real)), np.max(np.abs(err.imag / ref.imag)))
                worst[name] = [max(worst[name][0], np.abs(err).max() / scale), max(worst[name][1], componentwise)]
    assert regular >= 1300 and defective >= 20
    assert worst["kernel"][0] <= worst["zgeev"][0]
    assert worst["kernel"][1] <= worst["zgeev"][1]


@pytest.mark.parametrize("cutoff", [1e-6, 1e8, 1e10])
def test_sweep_eigenvalues_keep_their_own_digits_at_extreme_bath_cutoffs(params, cutoff):
    """With Omega_c = cutoff * omega_m the bath root and the hybrid pair lie
    orders of magnitude apart, so an error of eps times the row scale would
    be large against the smaller of them (and on a fast bath every row
    counts as defective by the row-scale rule of the test above).  Against 50-digit eigenvalues,
    on the defaults and 3 draw_system devices (_ep_stacks), the kernel holds
    each to its own scale: the bath root within 1e-14 of its magnitude, the
    pair's midpoint within 1e-14 of the pair's scale (its larger |lam|), each
    member of a pair whose gap is at least DEGENERACY_RTOL of that scale
    within 1e-14 of it too, and each member of a closer pair within 2
    sqrt(eps).  In each of these four, zgeev's worst error on the same rows
    is at least the kernel's, or both are within eps, the rounding of the
    double reference itself (measured: kernel at most 1.6e-16, 8.4e-17,
    1.7e-16 and 3.4e-10; zgeev up to 1.9e-16, 9.9e-16, 1.7e-12 and 7.4e-7)."""
    rng = np.random.default_rng(2829)
    bases = [params, *(draw_system(rng) for _ in range(3))]
    devices = [dataclasses.replace(p, omega_c=cutoff * p.omega_m) for p in bases]
    worst = {"kernel": [0.0] * 4, "zgeev": [0.0] * 4}
    close = 0
    for stack in _ep_stacks(devices):
        zgeev = np.linalg.eigvals(stack)
        for m, lams, ref_seed in zip(stack, spectral._closed_eigvals(stack)[0], zgeev):
            ref = _mp_eigenvalues(m, ref_seed)
            gaps = {(i, j): abs(ref[i] - ref[j]) for i, j in itertools.combinations(range(3), 2)}
            pair = min(gaps, key=gaps.get)
            [third] = set(range(3)) - set(pair)
            pair_scale = np.abs(ref[list(pair)]).max()
            split = 2 if gaps[pair] >= spectral.DEGENERACY_RTOL * pair_scale else 3
            close += split == 3
            for name, row in (("kernel", lams), ("zgeev", ref_seed)):
                err = _matched(row, ref) - ref
                errs = {0: abs(err[third]) / abs(ref[third]), 1: abs(err[list(pair)].sum()) / 2.0 / pair_scale}
                errs[split] = np.abs(err[list(pair)]).max() / pair_scale
                worst[name] = [max(w, errs.get(k, 0.0)) for k, w in enumerate(worst[name])]
    assert close >= 8
    assert max(worst["kernel"][:3]) <= 1e-14 and worst["kernel"][3] <= 3e-8
    assert all(k <= max(z, np.finfo(float).eps) for k, z in zip(worst["kernel"], worst["zgeev"]))


@pytest.mark.parametrize("g", [0.0, 1e-300, 1.0, 1e300, 1.7e308])
def test_sweep_eigenvalues_agree_with_lapack_at_extreme_couplings(params, g):
    """At couplings from 0 to near the largest double (rad/s), at both
    calibrations, the kernel's eigenvalues and zgeev's agree per row to
    1e-12 of the row scale, and every Petermann factor is at least 1."""
    for delta in (markovian_ep(params).delta_ep, solve_exact_ep(params).delta_ep):
        stack = spectral._drift_stack(params, delta, np.array([g, g]))
        lams, ks, _ = spectral._closed_eigvals(stack)
        for got, ref in zip(lams, np.linalg.eigvals(stack)):
            scale = np.abs(ref).max()  # compared in units of it: at 1.7e308 a difference overflows
            assert np.abs(_matched(got / scale, ref / scale) - ref / scale).max() <= 1e-12
        assert (ks >= 1.0).all()


# Digits of the small-root oracle: a root 1e-233 of its row's scale keeps over 60 of them.
SMALL_ROOT_DPS = 300
# Devices whose bath root lies far below the row scale: tools/parity.py's range_end edge
# (gamma = 0, so that root is exactly -Omega_c) and the defaults with a slow bath.
SMALL_ROOT_DEVICES = {
    "range_end": dict(freq_hz=1e-30, kappa_hz=1e-29, gamma_hz=0.0, cutoff_hz=1e-30),
    "cutoff_1e-20": dict(freq_hz=1e6, kappa_hz=0.2e6, gamma_hz=5e3, cutoff_hz=1e-20),
    "cutoff_1e-29": dict(freq_hz=1e6, kappa_hz=0.2e6, gamma_hz=5e3, cutoff_hz=1e-29),
}


@pytest.mark.filterwarnings("ignore::UserWarning")  # range_end is not sideband-resolved
@pytest.mark.parametrize("name", list(SMALL_ROOT_DEVICES))
def test_sweep_roots_far_below_the_row_scale_keep_their_own_digits(name):
    """Each root the kernel gives comes within 1e-12 of its own magnitude of
    the SMALL_ROOT_DPS-digit eigenvalues of the same double matrix, on eigs'
    default 40-60 kHz grid and at 0, 1e100 and 1e200 kHz, at the memoryless
    detuning.  There the bath root sits 1e-26 to 1e-233 of the row's largest
    |lam|, out of reach of one Newton step from a start good to eps of that
    scale."""
    p = SystemParams.from_hz(**SMALL_ROOT_DEVICES[name])
    g_khz = np.concatenate([np.linspace(40.0, 60.0, 41), [0.0, 1e100, 1e200]])
    stack = spectral._drift_stack(p, -p.omega_m, 2e3 * np.pi * g_khz)
    for g, m, row in zip(g_khz, stack, spectral._closed_eigvals(stack)[0]):
        with mp.workdps(SMALL_ROOT_DPS):
            ref = np.array([complex(lam) for lam in mp.eig(mp.matrix(m.tolist()), left=False, right=False)])
        err = min((np.abs(row[list(perm)] - ref) / np.abs(ref) for perm in itertools.permutations(range(3))), key=max)
        assert err.max() <= 1e-12, (g, err)
