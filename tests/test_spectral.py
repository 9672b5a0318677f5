"""Complex-symmetric eigensystems, Petermann factors, and coupling sweeps."""

import itertools
import math
import re

import numpy as np
import pytest

from draws import draw_drive, draw_system
from eprenorm import (
    DriveParams,
    SystemParams,
    drift_markovian,
    drift_nonmarkovian,
    eigensystem,
    markovian_ep,
    petermann_at,
    solve_exact_ep,
    spectral,
    sweep_eigs,
    sweep_petermann,
)
from eprenorm.charpoly import char_cubic, cubic_roots
from eprenorm.errors import NoConvergence
from eprenorm.model import hz_to_rad, rad_to_hz
from eprenorm.spectral import petermann
from test_epsolver import _OVERDAMPED_CYCLE, _OVERDAMPED_OTHER_EP


def _hybrid_indices(lams, omega_c):
    """Indices of the two cavity-mechanics branches (pseudomode excluded)."""
    pseudo = min(range(len(lams)), key=lambda i: abs(lams[i] + omega_c))
    return [i for i in range(len(lams)) if i != pseudo]


def test_diagonal_matrix_modes():
    diag = (-1.0 + 2.0j, -2.0 - 1.0j, -3.0 + 0.5j)
    m = (
        (diag[0], 0.0j, 0.0j),
        (0.0j, diag[1], 0.0j),
        (0.0j, 0.0j, diag[2]),
    )
    es = eigensystem(m)
    assert len(es.lambdas) == 3
    for lam, r, k, divergent, defective in zip(es.lambdas, es.rights, es.petermann, es.divergent, es.defective):
        assert min(abs(lam - d) for d in diag) < 1e-12
        assert abs(k - 1.0) < 1e-12
        assert not divergent and not defective
        # eigenvectors are (phase-fixed) basis vectors
        assert abs(np.max(np.abs(r)) - 1.0) < 1e-12
        assert np.sum(np.abs(r) > 1e-12) == 1


def test_eigenvector_residuals(params):
    mk = markovian_ep(params)
    arr = drift_nonmarkovian(params, mk.drive)
    fro = float(np.linalg.norm(arr))
    es = eigensystem(drift_nonmarkovian(params, mk.drive))
    for lam, rvec in zip(es.lambdas, es.rights):
        lvec = np.conj(rvec)
        assert np.linalg.norm(arr @ rvec - lam * rvec) < 1e-8 * fro
        assert (
            np.linalg.norm(arr.conj().T @ lvec - np.conj(lam) * lvec) < 1e-8 * fro
        )
        assert abs(np.linalg.norm(rvec) - 1.0) < 1e-12
        assert abs(np.linalg.norm(lvec) - 1.0) < 1e-12
        # phase convention: the largest-magnitude entry is real and positive
        pivot = rvec[np.argmax(np.abs(rvec))]
        assert pivot.imag == 0.0 and pivot.real > 0.0


def test_two_mode_block_defective_at_coalescence(params):
    mk = markovian_ep(params)
    es = eigensystem(drift_markovian(params, mk.drive))
    assert len(es.lambdas) == 2
    for k, divergent, defective in zip(es.petermann, es.divergent, es.defective):
        assert defective
        assert divergent
        assert math.isinf(k) or k > 1e6


def test_normal_matrix_has_unit_petermann():
    rng = np.random.default_rng(101)
    for _ in range(10):
        s = rng.normal(size=(3, 3))
        m = -1j * ((s + s.T) / 2.0)
        for k in eigensystem(m).petermann:
            assert abs(k - 1.0) < 1e-10


def test_petermann_recompute_matches(params, drive):
    es = eigensystem(drift_nonmarkovian(params, drive))
    for right, k in zip(es.rights, es.petermann):
        assert petermann(right) == k


def test_petermann_rescaling_invariance(params, drive):
    """K is independent of the (arbitrary) eigenvector normalizations."""
    rng = np.random.default_rng(7)
    es = eigensystem(drift_nonmarkovian(params, drive))
    for right, k in zip(es.rights, es.petermann):
        alpha = complex(rng.normal(), rng.normal())
        assert abs(petermann(alpha * right) - k) < 1e-12 * k


def test_decoupled_cavity_oracle(params):
    """At g = 0 the cavity mode is normal and the bc block is checked
    against a dense-eigendecomposition Petermann oracle."""
    d = DriveParams(delta=-params.omega_m, g=0.0)
    es = eigensystem(drift_nonmarkovian(params, d))

    lam_a = 1j * d.delta - params.kappa / 2.0
    bc = np.array(
        [
            [-(1j * params.omega_m + params.gamma / 2.0), -params.g_c],
            [-params.g_c, -params.omega_c],
        ],
        dtype=complex,
    )
    wr, vr = np.linalg.eig(bc)
    wl, vl = np.linalg.eig(bc.conj().T)
    oracle = {}
    for i in range(2):
        j = int(np.argmin(np.abs(np.conj(wl) - wr[i])))
        u = vl[:, j]
        v = vr[:, i]
        k = float(
            (np.vdot(u, u).real * np.vdot(v, v).real) / abs(np.vdot(u, v)) ** 2
        )
        oracle[wr[i]] = k

    for lam, k in zip(es.lambdas, es.petermann):
        if abs(lam - lam_a) < 1e-9 * abs(lam_a):
            assert abs(k - 1.0) < 1e-10
        else:
            lam_ref = min(oracle, key=lambda w: abs(w - lam))
            assert abs(lam - lam_ref) < 1e-9 * abs(lam_ref)
            assert abs(k - oracle[lam_ref]) < 1e-9 * oracle[lam_ref]


def test_biorthogonality_random_draws():
    """Distinct modes have near-zero cross overlaps <L_i|R_j>."""
    rng = np.random.default_rng(211)
    checked = 0
    for _ in range(30):
        p = draw_system(rng)
        d = draw_drive(rng, p)
        es = eigensystem(drift_nonmarkovian(p, d))
        lams = es.lambdas
        scale = max(abs(lam) for lam in lams)
        gap = min(
            abs(lams[i] - lams[j]) for i in range(3) for j in range(i + 1, 3)
        )
        if gap < 1e-2 * scale:
            continue
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                ov = abs(np.vdot(np.conj(es.rights[i]), es.rights[j]))
                assert ov < 1e-6
        checked += 1
    assert checked >= 20


def test_eigenvalue_sum_and_product(params, drive):
    arr = drift_nonmarkovian(params, drive)
    lams = eigensystem(drift_nonmarkovian(params, drive)).lambdas
    scale = max(abs(lam) for lam in lams)
    tr = complex(np.trace(arr))
    det = complex(np.linalg.det(arr))
    assert abs(sum(lams) - tr) < 1e-9 * max(abs(tr), scale)
    prod = lams[0] * lams[1] * lams[2]
    assert abs(prod - det) < 1e-9 * max(abs(det), scale**3)


def test_sweep_rows_match_char_cubic(params):
    delta = -params.omega_m
    grid = [hz_to_rad(g) for g in (42e3, 48.75e3, 55e3)]
    sweep = sweep_eigs(params, delta, grid)
    for g, lambdas in zip(grid, sweep.lambdas):
        roots = cubic_roots(char_cubic(params, DriveParams(delta=delta, g=g)))
        got = sorted(lambdas, key=lambda z: (z.imag, z.real))
        scale = max(abs(r) for r in roots)
        for a, b in zip(got, roots):
            assert abs(a - b) < 1e-9 * scale


def test_hybrid_branches_avoided_crossing(params):
    """With memory the two hybrid branches never touch across the sweep."""
    mk = markovian_ep(params)
    grid = np.linspace(hz_to_rad(40e3), hz_to_rad(60e3), 401)
    sweep = sweep_eigs(params, mk.delta_ep, grid, markovian_ref=True)
    min_gap = math.inf
    for lambdas in sweep.lambdas:
        i, j = _hybrid_indices(lambdas, params.omega_c)
        min_gap = min(min_gap, abs(lambdas[i] - lambdas[j]))
    assert sweep.markovian is not None and sweep.markovian.shape == (len(grid), 2)
    assert min_gap > 0.0
    # the closest approach stays a finite fraction of the coupling scale
    assert rad_to_hz(min_gap) > 1e3


def test_petermann_sweep_peak_near_exact_ep(params):
    sol = solve_exact_ep(params)
    grid = np.linspace(hz_to_rad(40e3), hz_to_rad(60e3), 401)
    sweep = sweep_petermann(params, sol.delta_ep, grid)
    best = max(
        range(len(grid)),
        key=lambda k: max(
            sweep.petermann[k, i] for i in _hybrid_indices(sweep.lambdas[k], params.omega_c)
        ),
    )
    g_ep_hz = rad_to_hz(sol.g_ep)
    step_hz = rad_to_hz(grid[1] - grid[0])
    assert abs(rad_to_hz(grid[best]) - g_ep_hz) <= step_hz + 1e-9


def test_petermann_peak_sharpens_under_refinement(params):
    """Zooming the coupling grid onto the exact point grows the peak factor."""
    sol = solve_exact_ep(params)
    peaks = []
    for half_hz in (50.0, 5.0, 0.5, 0.05):
        half = hz_to_rad(half_hz)
        grid = np.linspace(sol.g_ep - half, sol.g_ep + half, 32)
        sweep = sweep_petermann(params, sol.delta_ep, grid)
        peaks.append(
            max(
                max(ks[i] for i in _hybrid_indices(lambdas, params.omega_c))
                for lambdas, ks in zip(sweep.lambdas, sweep.petermann)
            )
        )
    assert all(a < b for a, b in zip(peaks, peaks[1:]))
    assert peaks[0] > 1e3
    assert peaks[-1] > 1e6


# On a row that eigensystem flags defective, the split of the near-coalescent
# pair is conditioned like sqrt(eps): two eigensolvers agree on each of its
# eigenvalues to 2 sqrt(eps) of the row scale, and on its midpoint and the
# third root to the 1e-12 of every other row.
DEFECTIVE_SPLIT_RTOL = 3e-8


def _row_matches_pointwise(lams, ks, divs, es):
    """Each pointwise mode of es has a row entry with the same eigenvalue, K and flag."""
    assert len(lams) == len(es.lambdas)
    scale = max(abs(lam) for lam in lams)
    defective = es.defective.any()
    unused = set(range(len(lams)))
    matched = []
    for lam, k_mode, divergent in zip(es.lambdas, es.petermann, es.divergent):
        k = min(unused, key=lambda idx: abs(lams[idx] - lam))
        unused.remove(k)
        matched.append(k)
        assert abs(lams[k] - lam) <= (DEFECTIVE_SPLIT_RTOL if defective else 1e-12) * scale
        assert divs[k] == divergent
        if k_mode < 1e4:
            assert abs(ks[k] - k_mode) <= 1e-9 * k_mode
    if defective:
        pair = np.flatnonzero(es.defective).tolist()
        [third] = set(range(len(es.lambdas))) - set(pair)
        midpoint = sum(lams[matched[i]] - es.lambdas[i] for i in pair) / 2.0
        assert abs(midpoint) <= 1e-12 * scale
        assert abs(lams[matched[third]] - es.lambdas[third]) <= 1e-12 * scale


def test_sweep_rows_match_pointwise_eigensystem(params):
    """The batched sweep reproduces per-point eigensystem calls, the EP included.

    The sweep's eigenvalues and K come from the closed-form kernel and
    eigensystem's from LAPACK's eigenvectors, so this checks one eigensolver
    and one K route against the other: the defaults and 20 devices, at the
    memoryless and the exact calibration, on a +-10 % grid with the exact EP
    on it.  Rows eigensystem flags defective are held as _row_matches_pointwise
    states."""
    rng = np.random.default_rng(2323)
    flagged = 0
    for p in [params] + [draw_system(rng) for _ in range(20)]:
        sol = solve_exact_ep(p)
        grid = np.sort(np.append(np.linspace(0.9, 1.1, 41) * sol.g_ep, sol.g_ep))
        for delta in (markovian_ep(p).delta_ep, sol.delta_ep):
            pet = sweep_petermann(p, delta, grid)
            eig = sweep_eigs(p, delta, grid, markovian_ref=True)
            for k, g in enumerate(grid):
                es = eigensystem(drift_nonmarkovian(p, DriveParams(delta=delta, g=g)))
                for sweep in (pet, eig):
                    _row_matches_pointwise(sweep.lambdas[k], sweep.petermann[k], sweep.divergent[k], es)
                mk_rad = eig.markovian[k]
                mk_ref = eigensystem(drift_markovian(p, DriveParams(delta=delta, g=g))).lambdas
                # matched as a pair: below the memoryless EP the two real parts tie
                mismatch = min(np.abs(mk_rad - mk_ref).max(), np.abs(mk_rad - mk_ref[::-1]).max())
                assert mismatch <= 1e-12 * np.abs(mk_rad).max()
            flagged += int(pet.divergent.any(axis=-1).sum())
    assert flagged > 20  # rows near each EP are flagged, so the flag comparison has teeth


def test_one_divergence_rule_governs_both_k_routes(params, monkeypatch):
    """With DIVERGENT_K lowered to 50, the adjugate K of a sweep and the vector
    K of eigensystem both flag a mode divergent exactly when it is defective
    or its K is not below 50, on a 401-point grid through the exact EP."""
    monkeypatch.setattr(spectral, "DIVERGENT_K", 50.0)
    sol = solve_exact_ep(params)
    gs = np.linspace(0.9, 1.1, 401) * sol.g_ep
    pet = sweep_petermann(params, sol.delta_ep, gs)
    lams, _, flags = spectral._closed_eigvals(spectral._drift_stack(params, sol.delta_ep, gs))
    defective = flags[spectral._branch_order(lams)]
    np.testing.assert_array_equal(pet.divergent, defective | ~(pet.petermann < 50.0))
    assert (pet.divergent & ~defective).sum() > 10 and defective.any()  # both parts of the rule act
    by_k = 0
    for g in gs:
        es = eigensystem(drift_nonmarkovian(params, DriveParams(delta=sol.delta_ep, g=g)))
        for k, divergent, defective in zip(es.petermann, es.divergent, es.defective):
            assert divergent == (defective or not k < 50.0)
            by_k += divergent and not defective
    assert by_k > 10


def test_sweeps_reject_negative_coupling(params):
    grid = hz_to_rad(np.array([-1e3, 50e3]))
    for sweep in (sweep_eigs, sweep_petermann):
        with pytest.raises(ValueError, match="coupling g must be non-negative"):
            sweep(params, -params.omega_m, grid)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_sweeps_reject_non_finite_coupling(params, value):
    """A non-finite grid point is named before any drift matrix is built."""
    grid = np.array([hz_to_rad(40e3), value, hz_to_rad(60e3)])
    for sweep in (sweep_eigs, sweep_petermann):
        with pytest.raises(ValueError, match=f"coupling g must be finite: grid point 1 is {value!r} rad/s"):
            sweep(params, -params.omega_m, grid)


def test_sweeps_name_a_non_finite_point_before_a_negative_one(params):
    """The finite check comes first: a grid holding a negative point and, after it, a nan names the nan."""
    grid = np.array([-hz_to_rad(1e3), np.nan, hz_to_rad(60e3)])
    for sweep in (sweep_eigs, sweep_petermann):
        with pytest.raises(ValueError, match="coupling g must be finite: grid point 1 is nan rad/s"):
            sweep(params, -params.omega_m, grid)


def test_sweeps_run_without_lapack(params, monkeypatch):
    """Both sweeps, the memoryless reference included, take their eigenvalues
    from the closed-form kernel: no LAPACK eigensolver is called."""

    def no_lapack(*args, **kwargs):
        raise AssertionError("a LAPACK eigensolver was called by a sweep")

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    sol = solve_exact_ep(params)
    grid = np.linspace(0.9, 1.1, 41) * sol.g_ep
    eig = sweep_eigs(params, sol.delta_ep, grid, markovian_ref=True)
    pet = sweep_petermann(params, sol.delta_ep, grid)
    assert np.isfinite(eig.lambdas).all() and np.isfinite(eig.markovian).all()
    assert np.isfinite(pet.petermann).all()


def test_petermann_sweep_computes_no_eigenvectors(params, monkeypatch):
    """A default 401-point Petermann sweep takes K from eigenvalues alone."""

    def no_eig(*args, **kwargs):
        raise AssertionError("np.linalg.eig called by a sweep")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    sol = solve_exact_ep(params)
    sweep = sweep_petermann(params, sol.delta_ep, np.linspace(0.0, 2.0, 401) * sol.g_ep)
    assert sweep.petermann.shape == (401, 3)
    assert np.isfinite(sweep.petermann).all()


def _devices(params, seed):
    """The defaults, 20 draw_system devices and test_epsolver's two pinned
    over-damped devices, whose resolved-sideband warning is expected here."""
    rng = np.random.default_rng(seed)
    with pytest.warns(UserWarning, match="resolved-sideband"):
        over_damped = [SystemParams(**_OVERDAMPED_CYCLE), SystemParams(**_OVERDAMPED_OTHER_EP)]
    return [params] + [draw_system(rng) for _ in range(20)] + over_damped


def _calibrations(p):
    """The memoryless EP of p and, where Newton reaches one, its exact EP."""
    try:
        return [markovian_ep(p), solve_exact_ep(p)]
    except NoConvergence:
        return [markovian_ep(p)]


def test_eigenvalue_sweep_matches_petermann_sweep(params):
    """sweep_eigs gives sweep_petermann's branches, K and flags bit for bit.

    Both are one _sweep on the same stack with the same ordering, so the
    results are equal, not close."""
    flagged = 0
    for p in _devices(params, 2121):
        for ep in _calibrations(p):
            grid = np.sort(np.append(np.linspace(0.8, 1.2, 201) * ep.g_ep, ep.g_ep))
            eig = sweep_eigs(p, ep.delta_ep, grid)
            pet = sweep_petermann(p, ep.delta_ep, grid)
            for field in ("lambdas", "petermann", "divergent"):
                np.testing.assert_array_equal(getattr(eig, field), getattr(pet, field))
            flagged += int(eig.divergent.any(axis=-1).sum())
    assert flagged > 20  # rows near each EP are flagged, so the flag comparison has teeth


# Couplings far below and far above the devices' own, up to the top of the double range.
_EXTREME_COUPLINGS = np.array([0.0, 1e-300, 1e-150, 1e150, 1e300, 3e307, 1.7e308])


def test_eigenvalue_sweep_flags_are_the_kernel_s_defective_flags(params):
    """sweep_eigs's divergent is _closed_eigvals' defective flag in branch order:
    the K half of the divergence rule flags no other mode, on grids through
    each calibration's EP (and 1e-12 of it on either side) plus extreme couplings."""
    flagged = 0
    for p in _devices(params, 3131):
        for ep in _calibrations(p):
            near = np.concatenate([np.linspace(0.8, 1.2, 41), 1.0 + np.array([-1e-12, 0.0, 1e-12])])
            grid = np.sort(np.concatenate([near * ep.g_ep, _EXTREME_COUPLINGS]))
            lams, _, defective = spectral._closed_eigvals(spectral._drift_stack(p, ep.delta_ep, grid))
            divergent = sweep_eigs(p, ep.delta_ep, grid).divergent
            np.testing.assert_array_equal(divergent, defective[spectral._branch_order(lams)])
            flagged += int(divergent.any(axis=-1).sum())
    assert flagged > 20


@pytest.mark.parametrize("grid", [np.zeros((2, 3)), np.float64(1e5)], ids=["2x3", "0-d"])
def test_sweeps_reject_a_grid_that_is_not_1d(params, grid):
    """A grid is one axis of couplings; it is not flattened."""
    for sweep in (sweep_eigs, sweep_petermann):
        with pytest.raises(ValueError, match=re.escape(f"sweep grid must be 1-D, got shape {grid.shape}")):
            sweep(params, -params.omega_m, grid)


def test_sweep_continuity_matches_rowwise_reference(params):
    """Composed adjacent-row permutations equal greedy row-by-row tracking."""
    grid = np.linspace(0.0, 2.0 * params.omega_m, 201)
    delta = -params.omega_m * 1.01
    sweep = sweep_eigs(params, delta, grid, markovian_ref=True)
    prev = prev_mk = None
    for g, row, row_mk in zip(grid, sweep.lambdas, sweep.markovian):
        d = DriveParams(delta=delta, g=g)
        for got, drift, last in (
            (row, drift_nonmarkovian, prev),
            (row_mk, drift_markovian, prev_mk),
        ):
            lams = list(eigensystem(drift(params, d)).lambdas)
            if last is not None:
                lams = min(
                    (list(perm) for perm in itertools.permutations(lams)),
                    key=lambda perm: sum(abs(a - b) for a, b in zip(perm, last)),
                )
            scale = max(abs(lam) for lam in lams)
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, lams))
            if drift is drift_nonmarkovian:
                prev = lams
            else:
                prev_mk = lams
    # the branches really do reorder along this grid
    assert any(
        sorted(range(3), key=lambda i: (lams[i].imag, lams[i].real)) != [0, 1, 2]
        for lams in sweep.lambdas
    )


def test_continuity_order_follows_crossing_branches():
    """Branch 2 crosses branch 1 and then branch 0 in imaginary part; tracking
    from imaginary-sorted rows must recover all three branches."""
    t = np.linspace(0.0, 1.0, 61)
    branches = np.stack([0.0 * t, 1.0 + 1j * np.ones_like(t), 2.0 + 1j * (2.0 - 3.0 * t)], axis=-1)
    raw = np.take_along_axis(branches, np.argsort(branches.imag, axis=-1), axis=-1)
    tracked = np.take_along_axis(raw, spectral._continuity_order(raw), axis=-1)
    np.testing.assert_array_equal(tracked, branches)


def _continuity_reference(lams):
    """Branch tracking as permutation arrays composed one step at a time."""
    perms = np.array(list(itertools.permutations(range(lams.shape[1]))))
    cost = np.abs(lams[1:, perms] - lams[:-1, None, :]).sum(axis=-1)
    steps = perms[cost.argmin(axis=-1)]
    return np.array(list(itertools.accumulate(steps, lambda order, step: step[order], initial=perms[0])))


@pytest.mark.parametrize("n", [2, 3])
def test_composition_table_composes_permutations(n):
    perms, table = spectral._PERMS[n], spectral._COMPOSE[n]
    np.testing.assert_array_equal(perms[0], np.arange(n))
    for i, j in itertools.product(range(len(perms)), repeat=2):
        np.testing.assert_array_equal(perms[table[i][j]], perms[j][perms[i]])


# (p, s, t) for rows [0, -1, 1] and [p, i s, i t].  Both hybrid points lie on the bisector of -1 and 1,
# so the identity and the (0, 2, 1) swap both cost p + sqrt(1 + s^2) + sqrt(1 + t^2) in exact
# arithmetic, with the two roots in different places.  On these draws (d_0 + d_1) + d_2 rounds the
# swap's cost below the identity's, where the reversed fold (d_2 + d_1) + d_0 ties them.
_FOLD_DRAWS = [
    (0.23442623538492244, 0.8447933159032436, 2.3265801062592986),
    (0.28173200576063423, 1.2176246242714361, 1.7284284669186973),
    (0.19619073940496912, 2.3434013924487633, 1.6379093828762425),
    (0.14848400626287217, 1.9641185523633455, 0.7766881071632633),
]


@pytest.mark.parametrize("p, s, t", _FOLD_DRAWS)
def test_continuity_cost_sums_modes_in_order(p, s, t):
    """A permutation's cost is (d_0 + d_1) + d_2, as _continuity_order states: on
    these two rows that fold alone picks the swap over the identity."""
    lams = np.array([[0.0, -1.0, 1.0], [p, 1j * s, 1j * t]])
    swap = [0, 2, 1]
    d_identity, d_swap = (np.abs(lams[1, order] * 0.0625 - lams[0] * 0.0625).tolist() for order in ([0, 1, 2], swap))
    assert (d_swap[0] + d_swap[1]) + d_swap[2] < (d_identity[0] + d_identity[1]) + d_identity[2]
    assert (d_swap[2] + d_swap[1]) + d_swap[0] == (d_identity[2] + d_identity[1]) + d_identity[0]
    np.testing.assert_array_equal(spectral._continuity_order(lams), [[0, 1, 2], swap])


def test_continuity_order_matches_array_composition_on_random_stacks():
    """Random stacks, exact ties included (rounded values, duplicated columns)."""
    rng = np.random.default_rng(2024)
    for _ in range(4):
        for n_rows, n in itertools.product(range(2, 61), (2, 3)):
            lams = rng.normal(size=(n_rows, n)) + 1j * rng.normal(size=(n_rows, n))
            duplicated = lams.copy()
            duplicated[:, -1] = duplicated[:, 0]
            for stack in (lams, np.round(lams), duplicated):
                np.testing.assert_array_equal(spectral._continuity_order(stack), _continuity_reference(stack))


@pytest.mark.parametrize("n_rows", [2, 3, 401])
def test_continuity_order_composes_only_the_moving_steps(n_rows):
    """Three modes whose raw rows are fixed branches in a chosen layout per row:
    a step moves exactly where the layout changes.  With no step moving, every
    step moving, and moves only at row 1 and at the last row, the order equals
    the row-by-row reference and tracks every row back to row 0's layout."""
    branches = np.array([0.0, 10.0 + 1.0j, -5.0 + 20.0j])
    perms = spectral._PERMS[3]
    rng = np.random.default_rng(41)
    edges = np.full(n_rows, 3)
    edges[0], edges[-1] = 0, 5
    layouts = {
        "none": np.zeros(n_rows, np.intp),
        "every": np.cumsum(rng.integers(1, len(perms), n_rows)) % len(perms),
        "row_1_and_last": edges,
    }
    for name, layout in layouts.items():
        moves = np.flatnonzero(np.diff(layout))
        expected = {"none": [], "every": np.arange(n_rows - 1), "row_1_and_last": sorted({0, n_rows - 2})}[name]
        np.testing.assert_array_equal(moves, expected, err_msg=name)
        raw = branches[perms[layout]]
        order = spectral._continuity_order(raw)
        np.testing.assert_array_equal(order, _continuity_reference(raw), err_msg=name)
        np.testing.assert_array_equal(np.take_along_axis(raw, order, axis=-1), np.resize(raw[0], raw.shape), err_msg=name)


def test_continuity_order_matches_array_composition_on_sweeps(params):
    """The two calibrations' three-mode and two-mode sweeps, defaults and random
    devices: the rows the sweeps hand _continuity_order (the closed-form
    kernel's, in _mode_order, as _branch_order puts them), and LAPACK's rows
    of the same stacks in _mode_order."""
    rng = np.random.default_rng(77)
    for p in [params] + [draw_system(rng) for _ in range(20)]:
        mk = markovian_ep(p)
        gs = np.linspace(0.8 * mk.g_ep, 1.2 * mk.g_ep, 401)
        for delta in (mk.delta_ep, solve_exact_ep(p).delta_ep):
            three = spectral._drift_stack(p, delta, gs)
            two = np.array([drift_markovian(p, DriveParams(delta=delta, g=g)) for g in gs])
            for matrices in (three, two):
                for raw in (spectral._closed_eigvals(matrices)[0], np.linalg.eigvals(matrices)):
                    lams = np.take_along_axis(raw, spectral._mode_order(raw), axis=-1)
                    np.testing.assert_array_equal(spectral._continuity_order(lams), _continuity_reference(lams))


def test_two_mode_modes_ordered_by_real_part_below_ep(params):
    """At delta = -omega_m below the EP both two-mode eigenvalues have
    Im = -omega_m; the tie is broken by the real part, not by rounding."""
    mk = markovian_ep(params)
    delta = -params.omega_m
    for g_hz in (10e3, 30e3, 40e3, 45e3, 48e3):
        lams = eigensystem(drift_markovian(params, DriveParams(delta=delta, g=hz_to_rad(g_hz)))).lambdas
        assert lams[0].real < lams[1].real
        grid = np.linspace(hz_to_rad(g_hz), mk.g_ep, 5)
        first = sweep_eigs(params, delta, grid, markovian_ref=True).markovian[0]
        assert first[0].real < first[1].real


def test_rank_deficient_and_drift_matrices_give_consistent_modes(params):
    """Rank-deficient matrices (a repeated eigenvalue of a diagonal matrix) and
    drift matrices: each mode is an eigenpair of LAPACK's eigenvalue, with a
    unit right vector whose largest entry is real and positive, the K of that
    vector and the flags of the closest-pair rule."""
    lam, mu = -1.0 + 2.0j, -3.0 + 0.5j
    degenerate = np.diag([lam, lam, mu])
    drift = [
        drift_nonmarkovian(params, DriveParams(delta=-params.omega_m, g=g))
        for g in (0.0, hz_to_rad(30e3), hz_to_rad(49e3))
    ]
    stack = np.array([degenerate, drift[0], np.diag([mu, lam, lam]), drift[1], drift[2]])

    for arr in stack:
        es = eigensystem(arr)
        fro = float(np.linalg.norm(arr))
        raw = np.linalg.eigvals(arr)
        lams = raw[spectral._mode_order(raw)]
        defective = _defective_reference(lams[None])[0]
        for i, (lam, right, k) in enumerate(zip(es.lambdas, es.rights, es.petermann)):
            assert abs(lams[i] - lam) <= 1e-14 * fro
            pivot = right[np.abs(right).argmax()]
            assert pivot.imag == 0.0 and pivot.real > 0.0
            assert k == pytest.approx(petermann(right), rel=1e-12)
            flag = bool(defective[i])
            assert (es.divergent[i], es.defective[i]) == (flag or not k < spectral.DIVERGENT_K, flag)
            for v, mat, val in ((right, arr, lam), (right.conj(), arr.conj().T, np.conj(lam))):
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12
                assert np.linalg.norm(mat @ v - val * v) < 1e-9 * fro
    assert eigensystem(degenerate).defective.tolist() == [False, True, True]


def _defective_reference(lams):
    """Defective flags set by stores into zeros at the closest pair of each row."""
    rows = np.arange(lams.shape[0])
    iu, ju = np.triu_indices(lams.shape[-1], 1)
    gaps = np.abs(lams[:, iu] - lams[:, ju])
    closest = gaps.argmin(axis=-1)
    i, j = iu[closest], ju[closest]
    scale = np.abs(lams).max(axis=-1)
    near = (scale > 0) & (gaps[rows, closest] < spectral.DEGENERACY_RTOL * scale)
    defective = np.zeros(lams.shape, dtype=bool)
    defective[rows[near], i[near]] = True
    defective[rows[near], j[near]] = True
    return defective


def test_defective_flags_match_store_reference(params):
    """Rank-deficient rows, rows at the exact EP and random symmetric draws."""
    lam, mu = -1.0 + 2.0j, -3.0 + 0.5j
    drift = [
        drift_nonmarkovian(params, DriveParams(delta=-params.omega_m, g=g))
        for g in (0.0, hz_to_rad(49e3))
    ]
    degenerate = [np.diag([lam, lam, mu]), np.diag([mu, lam, lam]), np.zeros((3, 3))]
    stacks = [np.array([degenerate[0], drift[0], degenerate[1], drift[1], degenerate[2]])]
    rng = np.random.default_rng(5)
    devices = [params] + [draw_system(rng) for _ in range(10)]
    at_ep = [(solve_exact_ep(p), markovian_ep(p)) for p in devices]
    stacks.append(np.array([drift_nonmarkovian(p, ex.drive) for p, (ex, _) in zip(devices, at_ep)]))
    stacks.append(np.array([drift_markovian(p, mk.drive) for p, (_, mk) in zip(devices, at_ep)]))
    for n in (2, 3):
        a = rng.normal(size=(200, n, n)) + 1j * rng.normal(size=(200, n, n))
        sym = a + a.swapaxes(-2, -1)
        near = np.diag(np.array([1.0, 1.0, 2.0][:n], dtype=complex)) + 1e-3 * sym
        stacks += [sym, near]
    flagged = 0
    for stack in stacks:
        systems = [eigensystem(m) for m in stack]
        lams, divergent, defective = (
            np.array([getattr(es, field) for es in systems]) for field in ("lambdas", "divergent", "defective")
        )
        np.testing.assert_array_equal(defective, _defective_reference(lams))
        assert not (defective & ~divergent).any()
        flagged += int(defective.any(axis=-1).sum())
    assert flagged > 20


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_petermann_is_scale_invariant(params, drive, scale):
    """K depends on the eigenvectors only, so scaling the drift leaves it unchanged."""
    m = drift_nonmarkovian(params, drive)
    ref = eigensystem(m).petermann
    assert eigensystem(scale * m).petermann == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_adjugate_petermann_is_scale_invariant(params, scale):
    """The sweep's K on a 401-row drift stack through the EP, scaled by 1e+-100
    and 1e+-150: the power-of-two row scaling keeps every cofactor product in range,
    so no floating-point error is raised and K is unchanged.  Row 200 is the
    exact EP."""
    sol = solve_exact_ep(params)
    gs = np.linspace(0.0, 2.0, 401) * sol.g_ep
    assert gs[200] == sol.g_ep
    stack = spectral._drift_stack(params, sol.delta_ep, gs)

    def ks(arr):
        lams, k, _ = spectral._closed_eigvals(arr)
        return np.take_along_axis(k, spectral._mode_order(lams), axis=-1)

    ref = ks(stack)
    with np.errstate(all="raise"):
        scaled = ks(scale * stack)
    moderate = ref < 1e4
    assert moderate.sum() > 1000
    assert (np.abs(scaled - ref)[moderate] <= 1e-11 * ref[moderate]).all()
    assert (scaled[~moderate] > 1e3).all()


def test_petermann_moderate_away_from_ep(params):
    """Factors collapse to order one well below the critical coupling."""
    sol = solve_exact_ep(params)
    for g in (sol.g_ep / 10.0, hz_to_rad(5e3)):
        ks = petermann_at(params, DriveParams(delta=sol.delta_ep, g=g))
        assert max(ks) < 2.0
        assert min(ks) >= 1.0


def test_peak_heights_on_coarse_and_fine_grids(params):
    """A 50 Hz-step grid keeps K moderate at the memoryless detuning; a
    dedicated fine grid through the exact point resolves the divergence."""
    sol = solve_exact_ep(params)

    gray = sweep_petermann(
        params, -params.omega_m, np.linspace(hz_to_rad(40e3), hz_to_rad(60e3), 401)
    )
    k_gray = max(
        max(ks[i] for i in _hybrid_indices(lambdas, params.omega_c))
        for lambdas, ks in zip(gray.lambdas, gray.petermann)
    )
    assert 10.0 < k_gray < 500.0

    red = sweep_petermann(
        params, sol.delta_ep, np.linspace(hz_to_rad(49.37e3), hz_to_rad(49.38e3), 1001)
    )
    k_red = max(
        max(ks[i] for i in _hybrid_indices(lambdas, params.omega_c))
        for lambdas, ks in zip(red.lambdas, red.petermann)
    )
    assert k_red >= 1e6


def test_eigensystem_rejects_non_square_input():
    for bad in (np.zeros((4, 4)), ((1.0, 2.0),)):
        with pytest.raises(ValueError):
            eigensystem(bad)


def test_eigensystem_rejects_non_symmetric_input(params, drive):
    rng = np.random.default_rng(101)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    anti_hermitian = -1j * (h + h.conj().T) / 2.0
    nudged = drift_nonmarkovian(params, drive)
    nudged[1, 2] = np.nextafter(nudged[1, 2].real, 0.0)
    for bad in (anti_hermitian, nudged):
        with pytest.raises(ValueError, match="must be symmetric"):
            eigensystem(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_eigensystem_rejects_non_finite_input(params, drive, value):
    on_diagonal = np.diag([value, 1.0])
    off_diagonal = drift_nonmarkovian(params, drive)
    off_diagonal[0, 2] = off_diagonal[2, 0] = value
    for bad in (on_diagonal, off_diagonal):
        with pytest.raises(ValueError, match="must be finite"):
            eigensystem(bad)


def _is_symmetric(m):
    return np.array_equal(m, m.swapaxes(-1, -2))


def test_drift_builders_are_exactly_symmetric(params, drive):
    """The core takes left = conj(right), which holds only for M == M^T."""
    rng = np.random.default_rng(29)
    cases = [(params, drive)]
    for _ in range(40):
        p = draw_system(rng)
        cases.append((p, draw_drive(rng, p)))
    for p, d in cases:
        assert _is_symmetric(drift_markovian(p, d))
        assert _is_symmetric(drift_nonmarkovian(p, d))
        gs = np.linspace(0.0, 3.0 * d.g, 17)
        stack = spectral._drift_stack(p, d.delta, gs)
        two_stack = np.array([drift_markovian(p, DriveParams(delta=d.delta, g=g)) for g in gs])
        for arr in (two_stack, stack):
            assert _is_symmetric(arr)
        # The sweep's memoryless reference reads the (a, b) block of the three-mode stack.
        np.testing.assert_array_equal(stack[:, :2, :2], two_stack)


def test_sweep_rejects_short_grid(params):
    with pytest.raises(ValueError):
        sweep_eigs(params, -params.omega_m, [hz_to_rad(50e3)])


# The ordering and kernel written with reductions and sorts along the mode axis of row-major
# (N, n) arrays, one Python call per row to compose the continuity steps, and the stack built
# from two drifts.  They define the bits that the column arithmetic of spectral must keep.
_REF_PERMS = {n: np.array(list(itertools.permutations(range(n)))) for n in (2, 3)}
_REF_COMPOSE = {n: [[p.tolist().index(b[a].tolist()) for b in p] for a in p] for n, p in _REF_PERMS.items()}
_REF_PAIRS = {n: np.triu_indices(n, 1) for n in (2, 3)}
_REF_PAIR_MODES = {n: (np.arange(n) == i[:, None]) | (np.arange(n) == j[:, None]) for n, (i, j) in _REF_PAIRS.items()}
_REF_FAR = 3 - _REF_PAIRS[3][0] - _REF_PAIRS[3][1]
_REF_PREVIOUS = {n: np.array([max(i - 1, 0) for i in range(n)]) for n in (2, 3)}
_REF_CUBE_ROOTS = np.array([1.0, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5))])
_REF_SIGNS = np.array([1.0, -1.0])


def _rowwise_mode_order(lams):
    flat = lams.reshape(-1, lams.shape[-1])
    rows = np.arange(len(flat))[:, None]
    by_imag = np.argsort(flat.imag, axis=-1)
    imag = flat.imag[rows, by_imag] * 0.5
    scale = np.abs(flat).max(axis=-1) * 0.5
    tier = np.cumsum(imag - imag[:, _REF_PREVIOUS[flat.shape[-1]]] > spectral.IMAG_TIE_RTOL * scale[:, None], axis=-1)
    return by_imag[rows, np.lexsort((flat.real[rows, by_imag], tier), axis=-1)].reshape(lams.shape)


def _rowwise_defective(lams):
    iu, ju = _REF_PAIRS[lams.shape[-1]]
    gaps = np.abs(lams[..., iu] - lams[..., ju])
    near = gaps.min(axis=-1) < spectral.DEGENERACY_RTOL * np.abs(lams).max(axis=-1)
    return _REF_PAIR_MODES[lams.shape[-1]][gaps.argmin(axis=-1)] & near[..., None]


def _rowwise_continuity_order(lams):
    n = lams.shape[1]
    perms, compose = _REF_PERMS[n], _REF_COMPOSE[n]
    scaled = lams * 0.0625
    dist = np.abs(scaled[1:, :, None] - scaled[:-1, None, :])
    steps = dist[:, perms, np.arange(n)].sum(axis=-1).argmin(axis=-1).tolist()
    return perms[list(itertools.accumulate(steps, lambda order, step: compose[order][step], initial=0))]


def _rowwise_charpoly(lam, m00, m11, m22, s01, s02, s12, triple):
    d0, d1, d2 = lam - m00, lam - m11, lam - m22
    c0, c1, c2 = d1 * d2 - s12, d0 * d2 - s02, d0 * d1 - s01
    return d0 * c0 - d1 * s02 - d2 * s01 + triple, (c0, c1, c2)


def _rowwise_closed_eigvals(stack):
    _, exponent = np.frexp(np.abs(stack.view(float)).max(axis=(-2, -1)))
    m = np.ldexp(stack.view(float), -exponent[:, None, None]).view(complex)
    if stack.shape[-1] == 2:
        a, b, c = m[:, 0, 0, None], m[:, 1, 1, None], m[:, 0, 1, None]
        lams = (a + b) / 2.0 + np.sqrt(((a - b) / 2.0) ** 2 + c * c) * _REF_SIGNS
        return np.ldexp(lams.view(float), exponent[:, None]).view(complex), None, None
    m00, m11, m22 = m[:, 0, 0, None], m[:, 1, 1, None], m[:, 2, 2, None]
    m01, m02, m12 = m[:, 0, 1, None], m[:, 0, 2, None], m[:, 1, 2, None]
    entries = (m00, m11, m22, m01 * m01, m02 * m02, m12 * m12, -2.0 * m01 * m02 * m12)
    mean = (m00 + m11 + m22) / 3.0
    q, (c0, c1, c2) = _rowwise_charpoly(mean, *entries)
    p = c0 + c1 + c2
    s = np.sqrt(q * q / 4.0 + p * p * p / 27.0)
    w = (np.where((q.conj() * s).real > 0.0, -s, s) - q / 2.0) ** (1.0 / 3.0) * _REF_CUBE_ROOTS
    starts = w - p / (3.0 * np.where(w == 0.0, 1.0, w)) + mean
    iu, ju = _REF_PAIRS[3]
    rows = np.arange(len(stack))
    closest = np.abs(starts[:, iu] - starts[:, ju]).argmin(axis=-1)
    x = starts[rows, _REF_FAR[closest], None]
    c = (starts[rows, iu[closest], None] + starts[rows, ju[closest], None]) / 2.0
    pc, (c0, c1, c2) = _rowwise_charpoly(c, *entries)
    y = c - x
    y = np.where(y == 0.0, 1.0, y)
    uv = pc / y
    half = (c0 + c1 + c2 - uv) / (2.0 * y)
    lams = np.concatenate([x, c - half + np.sqrt(half * half - uv) * _REF_SIGNS], axis=-1)
    defective = _rowwise_defective(lams)
    det, (c0, c1, c2) = _rowwise_charpoly(lams, *entries)
    slope = c0 + c1 + c2
    simple = slope != 0.0
    ks = np.divide(np.abs(c0) + np.abs(c1) + np.abs(c2), np.abs(slope), out=np.full(slope.shape, np.inf), where=simple)
    step = np.divide(det, slope, out=np.zeros_like(det), where=simple & ~defective)
    lams -= step
    for _ in range(8):
        small = np.abs(step) > 1e-3 * np.abs(lams)
        if not small.any():
            break
        det, (c0, c1, c2) = _rowwise_charpoly(lams, *entries)
        slope = c0 + c1 + c2
        step = np.divide(det, slope, out=np.zeros_like(det), where=small & (slope != 0.0))
        lams -= step
    ks *= ks
    return np.ldexp(lams.view(float), exponent[:, None]).view(complex), ks, defective


def _two_drift_stack(p, delta, gs):
    m0 = drift_nonmarkovian(p, DriveParams(delta=delta, g=0.0))
    dm = drift_nonmarkovian(p, DriveParams(delta=delta, g=1.0)) - m0
    return m0 + gs[:, None, None] * dm


def _rowwise_sweep(p, delta, gs):
    """(lambdas, petermann, divergent, markovian) of sweep_eigs(..., markovian_ref=True) from the references."""
    stack = _two_drift_stack(p, delta, gs)
    rows = np.arange(len(gs))[:, None]

    def branch_order(lams):
        order = _rowwise_mode_order(lams)
        return rows, order[rows, _rowwise_continuity_order(lams[rows, order])]

    lams, ks, defective = _rowwise_closed_eigvals(stack)
    mk = _rowwise_closed_eigvals(stack[:, :2, :2])[0]
    order = branch_order(lams)
    return lams[order], ks[order], (defective | ~(ks < spectral.DIVERGENT_K))[order], mk[branch_order(mk)]


def _assert_same_bits(got, want):
    """Equal shape, dtype and bytes, so a signed zero counts."""
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def _assert_kernel_and_ordering_match_references(p, delta, gs):
    """_drift_stack, _closed_eigvals, _mode_order, _defective, _continuity_order and
    sweep_eigs bit for bit against the row-wise references, on the 3x3 stack and its 2x2 block."""
    stack = spectral._drift_stack(p, delta, gs)
    _assert_same_bits(stack, _two_drift_stack(p, delta, gs))
    for block in (stack, stack[:, :2, :2]):
        want = _rowwise_closed_eigvals(block)
        got = spectral._closed_eigvals(block)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                _assert_same_bits(g, w)
        order = _rowwise_mode_order(want[0])
        # The kernel flags its scaled roots; a gap of these unscaled ones overflows at the top of the range.
        with np.errstate(over="ignore"):
            flags = _rowwise_defective(want[0])
        ordered = np.take_along_axis(want[0], order, axis=-1)
        continued = _rowwise_continuity_order(ordered)
        # The kernel's own (mode-major) layout, and the same values row-major.
        for lams, ordered in ((got[0], np.take_along_axis(got[0], order, axis=-1)), (want[0], ordered)):
            _assert_same_bits(spectral._mode_order(lams), order)
            with np.errstate(over="ignore"):
                _assert_same_bits(spectral._defective(lams), flags)
            _assert_same_bits(spectral._continuity_order(ordered), continued)
    sweep = sweep_eigs(p, delta, gs, markovian_ref=True)
    for g, w in zip((sweep.lambdas, sweep.petermann, sweep.divergent, sweep.markovian), _rowwise_sweep(p, delta, gs)):
        _assert_same_bits(g, w)


def test_column_arithmetic_matches_rowwise_references_on_devices(params):
    """The defaults and 20 devices, each at both calibrations on a grid from g = 0
    through its EP, and on the EP's own neighbourhood with the EP itself in it."""
    rng = np.random.default_rng(3737)
    for p in [params] + [draw_system(rng) for _ in range(20)]:
        for ep in _calibrations(p):
            for grid in (np.linspace(0.0, 2.0, 201), np.append(np.linspace(0.9, 1.1, 40), 1.0)):
                _assert_kernel_and_ordering_match_references(p, ep.delta_ep, np.sort(grid * ep.g_ep))


def test_column_arithmetic_matches_rowwise_references_on_random_sweeps(params):
    """1,000 random sweeps of 2 to 500 rows, log-uniform: a device of 21, a detuning
    within 20 % of the memoryless EP's, and sorted random couplings up to 3 g_ep,
    some from g = 0."""
    rng = np.random.default_rng(4242)
    devices = [(p, markovian_ep(p)) for p in [params] + [draw_system(rng) for _ in range(20)]]
    for k in range(1000):
        p, mk = devices[k % len(devices)]
        gs = np.sort(rng.uniform(0.0, 3.0, int(np.exp(rng.uniform(np.log(2.0), np.log(501.0)))))) * mk.g_ep
        if k % 5 == 0:
            gs[0] = 0.0
        _assert_kernel_and_ordering_match_references(p, mk.delta_ep * rng.uniform(0.8, 1.2), gs)


def test_column_arithmetic_matches_rowwise_references_on_cli_grids(params):
    """The golden eigs --markovian-ref grid (40 to 60 kHz in 41 points at delta = -omega_m,
    across the memoryless EP), the top-of-range grid (0 to 2.7e304 kHz in 3 points) and a
    sweep from g = 0 at kappa = gamma, whose first memoryless row is an exact double root."""
    _assert_kernel_and_ordering_match_references(params, -params.omega_m, hz_to_rad(np.linspace(40.0, 60.0, 41) * 1e3))
    _assert_kernel_and_ordering_match_references(params, -params.omega_m, hz_to_rad(np.linspace(0.0, 2.7e304, 3) * 1e3))
    tied = SystemParams(omega_m=params.omega_m, kappa=params.kappa, gamma=params.kappa, omega_c=params.omega_c)
    gs = hz_to_rad(np.linspace(0.0, 60.0, 401) * 1e3)
    [[first, second]] = spectral._closed_eigvals(spectral._drift_stack(tied, -tied.omega_m, gs[:2])[:1, :2, :2])[0]
    assert first == second
    _assert_kernel_and_ordering_match_references(tied, -tied.omega_m, gs)


def test_one_row_orderings_match_rowwise_references(params):
    """eigensystem's one-row (n,) inputs to _mode_order and _defective: LAPACK's
    eigenvalues of drifts of 20 devices at random drives and at their EPs, rows
    with exact ties in Im, in Re and in both, and a row whose Im gap is exactly
    the tie tolerance (max|lam| = 1), which counts as tied."""
    rng = np.random.default_rng(515)
    rows = []
    for p in [params] + [draw_system(rng) for _ in range(20)]:
        drives = [draw_drive(rng, p) for _ in range(10)] + [ep.drive for ep in _calibrations(p)]
        for d in drives:
            rows += [np.linalg.eigvals(drift_nonmarkovian(p, d)), np.linalg.eigvals(drift_markovian(p, d))]
    lam, mu = complex(-1.0, 2.0), complex(-3.0, 2.0)
    rows += [np.array(r, dtype=complex) for r in ([lam, lam, mu], [mu, lam, lam], [lam, mu, lam], [lam, lam],
                                                  [0.0, -0.0, 0.0], [complex(1.0, -0.0), complex(-1.0, 0.0)],
                                                  [1.0, complex(-0.5, 2.0 * (spectral.IMAG_TIE_RTOL * 0.5))])]
    for lams in rows:
        _assert_same_bits(spectral._mode_order(lams), _rowwise_mode_order(lams))
        _assert_same_bits(spectral._defective(lams), _rowwise_defective(lams))
