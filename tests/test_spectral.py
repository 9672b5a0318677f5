"""Complex-symmetric eigensystems, Petermann factors, and coupling sweeps."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from draws import draw_drive, draw_system
from eprenorm import (
    DriveParams,
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
from eprenorm.model import hz_to_rad, rad_to_hz
from eprenorm.spectral import petermann


def _hybrid_indices(lams_hz, cutoff_hz):
    """Indices of the two cavity-mechanics branches (pseudomode excluded)."""
    pseudo = min(range(len(lams_hz)), key=lambda i: abs(lams_hz[i] + cutoff_hz))
    return [i for i in range(len(lams_hz)) if i != pseudo]


def test_diagonal_matrix_modes():
    diag = (-1.0 + 2.0j, -2.0 - 1.0j, -3.0 + 0.5j)
    m = (
        (diag[0], 0.0j, 0.0j),
        (0.0j, diag[1], 0.0j),
        (0.0j, 0.0j, diag[2]),
    )
    modes = eigensystem(m)
    assert len(modes) == 3
    for mode in modes:
        assert min(abs(mode.lam - d) for d in diag) < 1e-12
        assert abs(mode.petermann - 1.0) < 1e-12
        assert not mode.divergent and not mode.defective
        # eigenvectors are (phase-fixed) basis vectors
        r = np.array(mode.right)
        assert abs(np.max(np.abs(r)) - 1.0) < 1e-12
        assert np.sum(np.abs(r) > 1e-12) == 1


def test_eigenvector_residuals(params):
    mk = markovian_ep(params)
    arr = drift_nonmarkovian(params, mk.drive)
    fro = float(np.linalg.norm(arr))
    modes = eigensystem(drift_nonmarkovian(params, mk.drive))
    for mode in modes:
        rvec = np.array(mode.right)
        lvec = np.conj(mode.right)
        assert np.linalg.norm(arr @ rvec - mode.lam * rvec) < 1e-8 * fro
        assert (
            np.linalg.norm(arr.conj().T @ lvec - np.conj(mode.lam) * lvec) < 1e-8 * fro
        )
        assert abs(np.linalg.norm(rvec) - 1.0) < 1e-12
        assert abs(np.linalg.norm(lvec) - 1.0) < 1e-12
        # phase convention: the largest-magnitude entry is real and positive
        pivot = rvec[np.argmax(np.abs(rvec))]
        assert pivot.imag == 0.0 and pivot.real > 0.0


def test_two_mode_block_defective_at_coalescence(params):
    mk = markovian_ep(params)
    modes = eigensystem(drift_markovian(params, mk.drive))
    assert len(modes) == 2
    for mode in modes:
        assert mode.defective
        assert mode.divergent
        assert math.isinf(mode.petermann) or mode.petermann > 1e6


def test_normal_matrix_has_unit_petermann():
    rng = np.random.default_rng(101)
    for _ in range(10):
        s = rng.normal(size=(3, 3))
        m = -1j * ((s + s.T) / 2.0)
        for mode in eigensystem(m):
            assert abs(mode.petermann - 1.0) < 1e-10


def test_petermann_recompute_matches(params, drive):
    for mode in eigensystem(drift_nonmarkovian(params, drive)):
        assert petermann(mode) == mode.petermann


def test_petermann_rescaling_invariance(params, drive):
    """K is independent of the (arbitrary) eigenvector normalizations."""
    rng = np.random.default_rng(7)
    for mode in eigensystem(drift_nonmarkovian(params, drive)):
        alpha = complex(rng.normal(), rng.normal())
        scaled = dataclasses.replace(mode, right=tuple(alpha * r for r in mode.right))
        assert abs(petermann(scaled) - mode.petermann) < 1e-12 * mode.petermann


def test_decoupled_cavity_oracle(params):
    """At g = 0 the cavity mode is normal and the bc block is checked
    against a dense-eigendecomposition Petermann oracle."""
    d = DriveParams(delta=-params.omega_m, g=0.0)
    modes = eigensystem(drift_nonmarkovian(params, d))

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

    for mode in modes:
        if abs(mode.lam - lam_a) < 1e-9 * abs(lam_a):
            assert abs(mode.petermann - 1.0) < 1e-10
        else:
            lam_ref = min(oracle, key=lambda w: abs(w - mode.lam))
            assert abs(mode.lam - lam_ref) < 1e-9 * abs(lam_ref)
            assert abs(mode.petermann - oracle[lam_ref]) < 1e-9 * oracle[lam_ref]


def test_biorthogonality_random_draws():
    """Distinct modes have near-zero cross overlaps <L_i|R_j>."""
    rng = np.random.default_rng(211)
    checked = 0
    for _ in range(30):
        p = draw_system(rng)
        d = draw_drive(rng, p)
        modes = eigensystem(drift_nonmarkovian(p, d))
        lams = [mode.lam for mode in modes]
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
                ov = abs(np.vdot(np.conj(modes[i].right), np.array(modes[j].right)))
                assert ov < 1e-6
        checked += 1
    assert checked >= 20


def test_eigenvalue_sum_and_product(params, drive):
    arr = drift_nonmarkovian(params, drive)
    lams = [mode.lam for mode in eigensystem(drift_nonmarkovian(params, drive))]
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
    for g, coord_hz, lambdas_hz in zip(grid, sweep.coord_hz, sweep.lambdas_hz):
        assert abs(coord_hz - rad_to_hz(g)) < 1e-12 * rad_to_hz(g)
        roots = cubic_roots(char_cubic(params, DriveParams(delta=delta, g=g)))
        got = sorted(
            (hz_to_rad(lam) for lam in lambdas_hz), key=lambda z: (z.imag, z.real)
        )
        scale = max(abs(r) for r in roots)
        for a, b in zip(got, roots):
            assert abs(a - b) < 1e-9 * scale


def test_hybrid_branches_avoided_crossing(params):
    """With memory the two hybrid branches never touch across the sweep."""
    mk = markovian_ep(params)
    grid = np.linspace(hz_to_rad(40e3), hz_to_rad(60e3), 401)
    sweep = sweep_eigs(params, mk.delta_ep, grid, markovian_ref=True)
    cutoff_hz = rad_to_hz(params.omega_c)
    min_gap = math.inf
    for lambdas_hz in sweep.lambdas_hz:
        i, j = _hybrid_indices(lambdas_hz, cutoff_hz)
        min_gap = min(min_gap, abs(lambdas_hz[i] - lambdas_hz[j]))
    assert sweep.markovian_hz is not None and sweep.markovian_hz.shape == (len(grid), 2)
    assert min_gap > 0.0
    # the closest approach stays a finite fraction of the coupling scale
    assert min_gap > 1e3


def test_petermann_sweep_peak_near_exact_ep(params):
    sol = solve_exact_ep(params)
    grid = np.linspace(hz_to_rad(40e3), hz_to_rad(60e3), 401)
    sweep = sweep_petermann(params, sol.delta_ep, grid)
    cutoff_hz = rad_to_hz(params.omega_c)
    best = max(
        range(len(grid)),
        key=lambda k: max(
            sweep.petermann[k, i] for i in _hybrid_indices(sweep.lambdas_hz[k], cutoff_hz)
        ),
    )
    g_ep_hz = rad_to_hz(sol.g_ep)
    step_hz = rad_to_hz(grid[1] - grid[0])
    assert abs(sweep.coord_hz[best] - g_ep_hz) <= step_hz + 1e-9


def test_petermann_peak_sharpens_under_refinement(params):
    """Zooming the coupling grid onto the exact point grows the peak factor."""
    sol = solve_exact_ep(params)
    cutoff_hz = rad_to_hz(params.omega_c)
    peaks = []
    for half_hz in (50.0, 5.0, 0.5, 0.05):
        half = hz_to_rad(half_hz)
        grid = np.linspace(sol.g_ep - half, sol.g_ep + half, 32)
        sweep = sweep_petermann(params, sol.delta_ep, grid)
        peaks.append(
            max(
                max(ks[i] for i in _hybrid_indices(lambdas_hz, cutoff_hz))
                for lambdas_hz, ks in zip(sweep.lambdas_hz, sweep.petermann)
            )
        )
    assert all(a < b for a, b in zip(peaks, peaks[1:]))
    assert peaks[0] > 1e3
    assert peaks[-1] > 1e6


def _row_matches_pointwise(lams_hz, ks, divs, modes):
    """Each pointwise mode has a row entry with the same eigenvalue, K and flag;
    with ks None (an eigenvalue-only row) the flag is the mode's defective one."""
    assert len(lams_hz) == len(modes)
    lams = [hz_to_rad(lam) for lam in lams_hz]
    scale = max(abs(lam) for lam in lams)
    unused = set(range(len(lams)))
    for mode in modes:
        k = min(unused, key=lambda idx: abs(lams[idx] - mode.lam))
        unused.remove(k)
        assert abs(lams[k] - mode.lam) <= 1e-12 * scale
        assert divs[k] == (mode.defective if ks is None else mode.divergent)
        if ks is not None and mode.petermann < 1e4:
            assert abs(ks[k] - mode.petermann) <= 1e-9 * mode.petermann


def test_sweep_rows_match_pointwise_eigensystem(params):
    """The batched sweep reproduces per-point eigensystem calls, the EP included.

    The sweep's K comes from the adjugate of lam - M and eigensystem's from
    its right vectors, so this also checks one K route against the other:
    the defaults and 20 devices, at the memoryless and the exact
    calibration, on a +-10 % grid with the exact EP on it."""
    rng = np.random.default_rng(2323)
    flagged = 0
    for p in [params] + [draw_system(rng) for _ in range(20)]:
        sol = solve_exact_ep(p)
        grid = np.sort(np.append(np.linspace(0.9, 1.1, 41) * sol.g_ep, sol.g_ep))
        for delta in (markovian_ep(p).delta_ep, sol.delta_ep):
            pet = sweep_petermann(p, delta, grid)
            eig = sweep_eigs(p, delta, grid, markovian_ref=True)
            for k, g in enumerate(grid):
                modes = eigensystem(drift_nonmarkovian(p, DriveParams(delta=delta, g=g)))
                _row_matches_pointwise(pet.lambdas_hz[k], pet.petermann[k], pet.divergent[k], modes)
                _row_matches_pointwise(eig.lambdas_hz[k], None, eig.divergent[k], modes)
                mk_modes = eigensystem(drift_markovian(p, DriveParams(delta=delta, g=g)))
                mk_rad = hz_to_rad(eig.markovian_hz[k])
                mk_ref = np.array([m.lam for m in mk_modes])
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
    defective = sweep_eigs(params, sol.delta_ep, gs).divergent
    np.testing.assert_array_equal(pet.divergent, defective | ~(pet.petermann < 50.0))
    assert (pet.divergent & ~defective).sum() > 10 and defective.any()  # both parts of the rule act
    by_k = 0
    for g in gs:
        for mode in eigensystem(drift_nonmarkovian(params, DriveParams(delta=sol.delta_ep, g=g))):
            assert mode.divergent == (mode.defective or not mode.petermann < 50.0)
            by_k += mode.divergent and not mode.defective
    assert by_k > 10


def test_sweeps_reject_negative_coupling(params):
    grid = hz_to_rad(np.array([-1e3, 50e3]))
    for sweep in (sweep_eigs, sweep_petermann):
        with pytest.raises(ValueError, match="coupling g must be non-negative"):
            sweep(params, -params.omega_m, grid)


def test_petermann_sweep_computes_no_eigenvectors(params, monkeypatch):
    """A default 401-point Petermann sweep takes K from eigenvalues alone."""

    def no_eig(*args, **kwargs):
        raise AssertionError("np.linalg.eig called by a sweep")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    sol = solve_exact_ep(params)
    sweep = sweep_petermann(params, sol.delta_ep, np.linspace(0.0, 2.0, 401) * sol.g_ep)
    assert sweep.petermann.shape == (401, 3)
    assert np.isfinite(sweep.petermann).all()


def test_eigenvalue_sweep_matches_petermann_sweep(params):
    """sweep_eigs gives sweep_petermann's branches bit for bit and its flags, and no K.

    Both take their eigenvalues from the same np.linalg.eigvals call on the
    same stack and the same ordering, so the branches are equal, not close."""
    rng = np.random.default_rng(2121)
    flagged = 0
    for p in [params] + [draw_system(rng) for _ in range(20)]:
        for ep in (markovian_ep(p), solve_exact_ep(p)):
            grid = np.sort(np.append(np.linspace(0.8, 1.2, 201) * ep.g_ep, ep.g_ep))
            eig = sweep_eigs(p, ep.delta_ep, grid)
            pet = sweep_petermann(p, ep.delta_ep, grid)
            np.testing.assert_array_equal(eig.lambdas_hz, pet.lambdas_hz)
            np.testing.assert_array_equal(eig.divergent, pet.divergent)
            assert eig.petermann is None
            flagged += int(eig.divergent.any(axis=-1).sum())
    assert flagged > 20  # rows near each EP are flagged, so the flag comparison has teeth


def test_sweep_continuity_matches_rowwise_reference(params):
    """Composed adjacent-row permutations equal greedy row-by-row tracking."""
    grid = np.linspace(0.0, 2.0 * params.omega_m, 201)
    delta = -params.omega_m * 1.01
    sweep = sweep_eigs(params, delta, grid, markovian_ref=True)
    prev = prev_mk = None
    for g, row_hz, row_mk_hz in zip(grid, sweep.lambdas_hz, sweep.markovian_hz):
        d = DriveParams(delta=delta, g=g)
        for lams_hz, drift, last in (
            (row_hz, drift_nonmarkovian, prev),
            (row_mk_hz, drift_markovian, prev_mk),
        ):
            lams = [mode.lam for mode in eigensystem(drift(params, d))]
            if last is not None:
                lams = min(
                    (list(perm) for perm in itertools.permutations(lams)),
                    key=lambda perm: sum(abs(a - b) for a, b in zip(perm, last)),
                )
            got = [hz_to_rad(lam) for lam in lams_hz]
            scale = max(abs(lam) for lam in lams)
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, lams))
            if drift is drift_nonmarkovian:
                prev = lams
            else:
                prev_mk = lams
    # the branches really do reorder along this grid
    assert any(
        sorted(range(3), key=lambda i: (lams_hz[i].imag, lams_hz[i].real)) != [0, 1, 2]
        for lams_hz in sweep.lambdas_hz
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


def test_continuity_order_matches_array_composition_on_sweeps(params):
    """The two calibrations' three-mode and two-mode sweeps, defaults and random devices."""
    rng = np.random.default_rng(77)
    for p in [params] + [draw_system(rng) for _ in range(20)]:
        mk = markovian_ep(p)
        gs = np.linspace(0.8 * mk.g_ep, 1.2 * mk.g_ep, 401)
        for delta in (mk.delta_ep, solve_exact_ep(p).delta_ep):
            lams = spectral._eigensystems(spectral._drift_stack(p, delta, gs))[0]
            two_stack = np.array([drift_markovian(p, DriveParams(delta=delta, g=g)) for g in gs])
            two = spectral._ordered(np.linalg.eigvals(two_stack))[1]
            for stack in (lams, two):
                np.testing.assert_array_equal(spectral._continuity_order(stack), _continuity_reference(stack))


def test_two_mode_modes_ordered_by_real_part_below_ep(params):
    """At delta = -omega_m below the EP both two-mode eigenvalues have
    Im = -omega_m; the tie is broken by the real part, not by rounding."""
    mk = markovian_ep(params)
    delta = -params.omega_m
    for g_hz in (10e3, 30e3, 40e3, 45e3, 48e3):
        modes = eigensystem(drift_markovian(params, DriveParams(delta=delta, g=hz_to_rad(g_hz))))
        assert modes[0].lam.real < modes[1].lam.real
        grid = np.linspace(hz_to_rad(g_hz), mk.g_ep, 5)
        first = sweep_eigs(params, delta, grid, markovian_ref=True).markovian_hz[0]
        assert first[0].real < first[1].real


def test_batched_rank_deficient_rows_match_single_rows(params):
    """Rank-deficient rows (a repeated eigenvalue of a diagonal matrix) inside
    a batch give the same modes as alone, without disturbing the regular rows."""
    lam, mu = -1.0 + 2.0j, -3.0 + 0.5j
    degenerate = np.diag([lam, lam, mu])
    drift = [
        drift_nonmarkovian(params, DriveParams(delta=-params.omega_m, g=g))
        for g in (0.0, hz_to_rad(30e3), hz_to_rad(49e3))
    ]
    stack = np.array([degenerate, drift[0], np.diag([mu, lam, lam]), drift[1], drift[2]])

    lams, rights, ks, divs, defs = spectral._eigensystems(stack)
    lefts = rights.conj()

    for row, arr in enumerate(stack):
        modes = eigensystem(arr)
        fro = float(np.linalg.norm(arr))
        for i, mode in enumerate(modes):
            assert abs(lams[row, i] - mode.lam) <= 1e-14 * fro
            assert np.allclose(rights[row, i], mode.right, rtol=0, atol=1e-12)
            assert ks[row, i] == pytest.approx(mode.petermann, rel=1e-12)
            assert (divs[row, i], defs[row, i]) == (mode.divergent, mode.defective)
            for vec, mat, val in ((rights, arr, mode.lam), (lefts, arr.conj().T, np.conj(mode.lam))):
                v = vec[row, i]
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12
                assert np.linalg.norm(mat @ v - val * v) < 1e-9 * fro


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
        lams, _, _, divergent, defective = spectral._eigensystems(stack)
        np.testing.assert_array_equal(defective, _defective_reference(lams))
        assert not (defective & ~divergent).any()
        flagged += int(defective.any(axis=-1).sum())
    assert flagged > 20


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_petermann_is_scale_invariant(params, drive, scale):
    """K depends on the eigenvectors only, so scaling the drift leaves it unchanged."""
    m = drift_nonmarkovian(params, drive)
    ref = [mode.petermann for mode in eigensystem(m)]
    assert [mode.petermann for mode in eigensystem(scale * m)] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_adjugate_petermann_is_scale_invariant(params, scale):
    """The sweep's K on a 401-row drift stack through the EP, scaled by 1e+-100
    and 1e+-150: the row normalization keeps every cofactor product in range,
    so no floating-point error is raised and K is unchanged.  Row 200 is the
    exact EP."""
    sol = solve_exact_ep(params)
    gs = np.linspace(0.0, 2.0, 401) * sol.g_ep
    assert gs[200] == sol.g_ep
    stack = spectral._drift_stack(params, sol.delta_ep, gs)

    def ks(arr):
        _, lams, _ = spectral._ordered(np.linalg.eigvals(arr))
        return spectral._adjugate_petermann(arr, lams)

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
    cutoff_hz = rad_to_hz(params.omega_c)

    gray = sweep_petermann(
        params, -params.omega_m, np.linspace(hz_to_rad(40e3), hz_to_rad(60e3), 401)
    )
    k_gray = max(
        max(ks[i] for i in _hybrid_indices(lambdas_hz, cutoff_hz))
        for lambdas_hz, ks in zip(gray.lambdas_hz, gray.petermann)
    )
    assert 10.0 < k_gray < 500.0

    red = sweep_petermann(
        params, sol.delta_ep, np.linspace(hz_to_rad(49.37e3), hz_to_rad(49.38e3), 1001)
    )
    k_red = max(
        max(ks[i] for i in _hybrid_indices(lambdas_hz, cutoff_hz))
        for lambdas_hz, ks in zip(red.lambdas_hz, red.petermann)
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
