"""Oracles that share no code with the package: the exceptional point solved
at 40 digits in mpmath, the characteristic cubic expanded in sympy, the
Petermann factor from a general dense eigendecomposition and, up the EP's
peak, from 60-digit mpmath eigenvectors, the EP's first-order memory
shift by implicit differentiation in sympy, the square-root and inverse
laws of the hybrid gap and of K next to the EP, and the dip depths from the
two-photon-resonance law of the cooperativity: exact for the memoryless
dip, and to first order in kappa/omega_m for the dressed one.

Each writes the three-mode drift matrix out from the physics, in the mode
basis (a, b, c) with g_c = sqrt(gamma * Omega_c / 2):

    M = [[i delta - kappa/2,  -i g,                      0       ],
         [-i g,               -(i omega_m + gamma/2),    -g_c    ],
         [0,                  -g_c,                      -Omega_c]]
"""

import dataclasses
import functools

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from draws import draw_drive, draw_system
from eprenorm import (
    SystemParams,
    cooperativity,
    dip_metrics,
    eigensystem,
    markovian_ep,
    perturbative_ep,
    solve_exact_ep,
    spectrum,
    sweep_petermann,
)
from eprenorm.charpoly import char_cubic
from eprenorm.model import hz_to_rad

ORACLE_DPS = 40
DRAW_SEEDS = range(6)


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


@pytest.mark.parametrize("seed", [None, *DRAW_SEEDS])
def test_exact_ep_matches_mpmath_oracle(seed, params):
    """solve_exact_ep agrees with the 40-digit root to 1e-13 relative in
    lambda, delta and g each.

    Newton runs until its step is within 1e-8 of |lambda| and then takes
    that step, so all three carry full double precision; g is held to its
    own size although it is only a few percent of omega_m.
    """
    p = params if seed is None else draw_system(np.random.default_rng(seed))
    lam, delta, g, residual = _mp_exceptional_point(p)
    assert residual < 1e-30
    assert g > 0.0 and delta < 0.0

    sol = solve_exact_ep(p)
    assert abs(sol.lambda_ep - lam) <= 1e-13 * abs(lam)
    assert abs(sol.delta_ep - delta) <= 1e-13 * abs(delta)
    assert abs(sol.g_ep - g) <= 1e-13 * g


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
        modes = eigensystem(m)
        lams, ks = zip(*((mode.lam, mode.petermann) for mode in modes))
        compared += _assert_petermann_matches(lams, ks, m)
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
        for g, lams_hz, ks in zip(grid, sweep.lambdas_hz, sweep.petermann):
            compared += _assert_petermann_matches(hz_to_rad(lams_hz), ks, _drift(params, delta, g))
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
    eigenvectors carry K to 5e8 along delta_ep.  Both K routes of the
    package are held to them: eigensystem's right vectors and the sweep's
    adjugate of lam - M.  The K error grows as eps * K^2 (the eigenvector
    condition number times K); the worst case measured on this path is
    51 eps K^2, for either route."""
    sol = solve_exact_ep(params)
    offsets = np.logspace(-9, -2, 15)
    eps = np.finfo(float).eps
    grid = sol.g_ep * np.concatenate([1.0 - offsets[::-1], 1.0 + offsets])
    sweep = sweep_petermann(params, sol.delta_ep, grid)
    k_max = 0.0
    for g, lams_hz, ks in zip(grid, sweep.lambdas_hz, sweep.petermann):
        m = _drift(params, sol.delta_ep, g)
        lams_mp, ks_mp = _mp_petermann(m)
        routes = [(mode.lam, mode.petermann) for mode in eigensystem(m)]
        routes += zip(hz_to_rad(lams_hz), ks)
        assert len(routes) == 2 * len(lams_mp)
        for lam, k in routes:
            k_mp = ks_mp[np.argmin(np.abs(lams_mp - lam))]
            assert abs(k - k_mp) <= 1e3 * eps * k_mp**2
            k_max = max(k_max, k_mp)
    assert k_max > 1e8


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
    p_lam = sp.diff(p, lam)
    at0 = {gamma: 0, lam: -kappa / 4 - i * omega_m, delta: -omega_m, g: kappa / 4}
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
        lams = hz_to_rad(sweep.lambdas_hz)
        order = np.argsort(-np.abs(lams + p.omega_c), axis=1)  # the bath branch last
        hybrids = np.take_along_axis(lams, order[:, :2], axis=1)
        gap_slope = np.polyfit(log_offset, np.log(np.abs(hybrids[:, 0] - hybrids[:, 1])), 1)[0]
        k_slope = np.polyfit(log_offset, np.log(sweep.petermann.max(axis=1)), 1)[0]
        assert abs(gap_slope - 0.5) <= EXPONENT_TOL
        assert abs(k_slope + 1.0) <= EXPONENT_TOL


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
