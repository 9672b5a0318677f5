"""Oracles that share no code with the package: the exceptional point solved
at 40 digits in mpmath, the characteristic cubic expanded in sympy, and the
Petermann factor from a general dense eigendecomposition.

Each writes the three-mode drift matrix out from the physics, in the mode
basis (a, b, c) with g_c = sqrt(gamma * Omega_c / 2):

    M = [[i delta - kappa/2,  -i g,                      0       ],
         [-i g,               -(i omega_m + gamma/2),    -g_c    ],
         [0,                  -g_c,                      -Omega_c]]
"""

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from conftest import draw_drive, draw_system
from eprenorm import SystemParams, char_cubic, eigensystem, hz_to_rad, solve_exact_ep, sweep_petermann

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
