"""Eigendecomposition of the complex-symmetric drift matrices, Petermann
factors, and coupling/detuning sweeps.

Every drift the package builds satisfies M = M^T (the couplings are -ig/-ig
and -g_c/-g_c), so M^H = conj(M) and the left eigenvector of each mode is
the conjugate of its right one.  Everything runs through one batched core
on an (N, n, n) stack, n = 2 or 3: one np.linalg.eigvals call over the
stack, then right eigenvectors from explicit null-space construction (the
largest row cross product of M - lam for 3x3, the adjugate-row formula for
2x2), written out with array slicing for all rows and modes at once.  Where
even the largest candidate is below CROSS_NORM_RTOL * |M|_F^2 (rank <= 1,
e.g. decoupled or diagonal matrices) that (row, mode) is masked and
recomputed by inverse iteration on its own.  With L = conj(R) the Petermann
factor of a mode is

    K = (<L|L> <R|R>) / |<L|R>|^2 = <R|R>^2 / |R^T R|^2

(Siegman, PRA 39, 1253 (1989); Berry, J. Mod. Opt. 50, 63 (2003)), which
is unity for a normal mode and diverges at an exceptional point.
eigensystem is the core on a batch of one; a sweep is one core call over
its whole coupling grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, permutations

import numpy as np

from .charpoly import cubic_roots  # noqa: F401  (alias kept: bench/tests traces it as spectral.cubic_roots)
from .model import DriveParams, SystemParams, _array_rows, drift_markovian, drift_nonmarkovian, rad_to_hz

# |<L|R>|^2 below this fraction of <L|L><R|R> counts as numerically divergent.
DIVERGENT_OVERLAP_RTOL = 1e-30
# Eigenvalue gaps below this fraction of max|lam| flag both modes defective.
DEGENERACY_RTOL = 1e-3
# Cross-product candidates below this fraction of |M|_F^2 trigger inverse iteration.
CROSS_NORM_RTOL = 1e-12
# Imaginary parts within this fraction of max|lam| count as tied when ordering modes.
IMAG_TIE_RTOL = 1e-9

_PERMS = {n: np.array(list(permutations(range(n)))) for n in (2, 3)}


@dataclass(frozen=True)
class EigenMode:
    """One eigenvalue with its right eigenvector and Petermann factor.

    The left eigenvector of a complex-symmetric matrix is conj(right).
    divergent marks a Petermann factor at or beyond double-precision reach
    (overlap underflow or a defective pair); the finite computed value is
    still reported so log-scale consumers have a number to plot.
    """

    lam: complex
    right: tuple
    petermann: float
    divergent: bool
    defective: bool


@dataclass(frozen=True)
class Sweep:
    """A coupling sweep as column arrays, one row per grid point.

    coord_hz (N,) holds the grid; lambdas_hz, petermann and divergent are
    (N, 3) with columns ordered by branch continuity; markovian_hz (N, 2)
    holds the memoryless two-mode eigenvalues, or is None when not asked
    for.  Frequencies are in Hz (cycles), converted once from rad/s.
    Iterating yields one named-tuple row per grid point with these fields.
    Continuity does not define branch labels at a coalescence, so past an
    EP two branches' labels can swap on a last-bit change of the inputs.
    """

    coord_hz: np.ndarray
    lambdas_hz: np.ndarray
    petermann: np.ndarray
    divergent: np.ndarray
    markovian_hz: np.ndarray | None = None

    def __iter__(self):
        return _array_rows(self)


def _sorted_eigvals(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix ordered by (Im, Re), near-equal Im counting as tied."""
    lams = np.linalg.eigvals(stack)
    lams = np.take_along_axis(lams, np.argsort(lams.imag, axis=-1), axis=-1)
    tol = IMAG_TIE_RTOL * np.abs(lams).max(axis=-1, keepdims=True)
    tier = np.cumsum(np.diff(lams.imag, axis=-1, prepend=lams.imag[:, :1]) > tol, axis=-1)
    return np.take_along_axis(lams, np.lexsort((lams.real, tier), axis=-1), axis=-1)


def _inverse_iteration(b: np.ndarray, scale: float) -> np.ndarray:
    """Few rounds of regularized inverse iteration for a near-null vector."""
    n = b.shape[0]
    eps = 1e-12 * max(scale, 1.0)
    v = np.ones(n, dtype=complex) / math.sqrt(n)
    for _ in range(3):
        try:
            w = np.linalg.solve(b + eps * np.eye(n), v)
        except np.linalg.LinAlgError:
            eps *= 1e3
            continue
        nrm = np.linalg.norm(w)
        if nrm == 0:
            break
        v = w / nrm
    return v


def _null_vectors(arr: np.ndarray, lams: np.ndarray, fro: np.ndarray) -> np.ndarray:
    """Phase-fixed unit right eigenvectors, shape (N, mode, component)."""
    n = arr.shape[-1]
    b = arr[:, None] - lams[..., None, None] * np.eye(n)
    if n == 2:
        cands = np.stack([b[..., 1], -b[..., 0]], axis=-1)
    else:
        x, y = b[..., [0, 0, 1], :], b[..., [1, 2, 2], :]
        fwd, bwd = [1, 2, 0], [2, 0, 1]
        cands = x[..., fwd] * y[..., bwd] - x[..., bwd] * y[..., fwd]
    norms = np.linalg.norm(cands, axis=-1)
    best = norms.argmax(axis=-1)[..., None]
    vecs = np.take_along_axis(cands, best[..., None], axis=-2)[..., 0, :]
    small = np.take_along_axis(norms, best, axis=-1)[..., 0] < CROSS_NORM_RTOL * fro[:, None] ** 2
    for row, mode in zip(*np.nonzero(small)):
        vecs[row, mode] = _inverse_iteration(b[row, mode], fro[row])

    # Unit norm with the largest entry rotated to the positive real axis.
    pivot = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=-1)[..., None], axis=-1)
    mag = np.abs(pivot)
    vecs = vecs * np.divide(pivot.conj(), mag, out=np.ones_like(pivot), where=mag > 0)
    nrm = np.linalg.norm(vecs, axis=-1, keepdims=True)
    return np.divide(vecs, nrm, out=vecs, where=nrm > 0)


def _petermann_values(right: np.ndarray):
    """Petermann factors <R|R>^2 / |R^T R|^2 and underflow flags of rights (..., component)."""
    rr = np.einsum("...i,...i->...", right.conj(), right).real
    lr_sq = np.abs(np.einsum("...i,...i->...", right, right)) ** 2
    with np.errstate(divide="ignore"):
        k = np.where(lr_sq == 0.0, np.inf, rr * rr / lr_sq)
    return k, lr_sq < DIVERGENT_OVERLAP_RTOL * rr * rr


def _eigensystems(arr: np.ndarray):
    """Batched core: (lams, rights, petermann, divergent, defective).

    Modes of each row are ordered as by _sorted_eigvals; rights have shape
    (N, mode, component), the rest (N, mode).  Every matrix of the stack is
    complex-symmetric, so the left vectors are conj(rights).  The closest pair of
    eigenvalues in a row is flagged defective when its gap is below
    DEGENERACY_RTOL * max|lam|, the signature of a nearby coalescence; a
    defective mode also counts as divergent.
    """
    lams = _sorted_eigvals(arr)
    rights = _null_vectors(arr, lams, np.linalg.norm(arr, axis=(-2, -1)))

    rows = np.arange(arr.shape[0])
    iu, ju = np.triu_indices(arr.shape[-1], 1)
    gaps = np.abs(lams[:, iu] - lams[:, ju])
    closest = gaps.argmin(axis=-1)
    i, j = iu[closest], ju[closest]
    scale = np.abs(lams).max(axis=-1)
    near = (scale > 0) & (gaps[rows, closest] < DEGENERACY_RTOL * scale)
    defective = np.zeros(lams.shape, dtype=bool)
    defective[rows[near], i[near]] = True
    defective[rows[near], j[near]] = True

    k, underflow = _petermann_values(rights)
    return lams, rights, k, underflow | defective, defective


def petermann(mode: EigenMode) -> float:
    """Recompute the Petermann factor of a mode from its right vector."""
    right = np.asarray(mode.right, dtype=complex)[None, None]
    return float(_petermann_values(right)[0][0, 0])


def eigensystem(m):
    """Full eigendecomposition of a complex-symmetric 2x2 or 3x3 matrix.

    Modes come back ordered by eigenvalue (imaginary part, then real part;
    imaginary parts within 1e-9 max|lam| count as equal), each with its right
    vector; the left one is conj(right).  See _eigensystems for the defective flag.
    Raises ValueError for any other shape, for an inf or nan entry and for a
    matrix that is not exactly symmetric (M != M^T).
    """
    arr = np.asarray(m, dtype=complex)
    if arr.shape not in ((2, 2), (3, 3)):
        raise ValueError(f"eigensystem needs a 2x2 or 3x3 matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("eigensystem: the matrix entries must be finite")
    # Entries are finite here, so bitwise equality is the whole symmetry test.
    if not np.array_equal(arr, arr.T):
        raise ValueError("eigensystem: the matrix must be symmetric (M == M^T)")
    lams, rights, ks, divergent, defective = (a[0] for a in _eigensystems(arr[None]))
    return [
        EigenMode(
            lam=complex(lams[i]),
            right=tuple(rights[i]),
            petermann=float(ks[i]),
            divergent=bool(divergent[i]),
            defective=bool(defective[i]),
        )
        for i in range(len(lams))
    ]


def petermann_at(p: SystemParams, d: DriveParams):
    """Petermann factors of the three-mode drift at one drive point."""
    return tuple(mode.petermann for mode in eigensystem(drift_nonmarkovian(p, d)))


def _drift_stack(drift, p: SystemParams, delta: float, gs: np.ndarray) -> np.ndarray:
    """drift(p, (delta, g)) for every g of the grid; the drift is linear in g."""
    m0 = drift(p, DriveParams(delta=delta, g=0.0))
    dm = drift(p, DriveParams(delta=delta, g=1.0)) - m0
    return m0 + gs[:, None, None] * dm


def _continuity_order(lams: np.ndarray) -> np.ndarray:
    """Per-row mode indices that continue each branch from the row before.

    Every adjacent pair of raw rows gets the permutation minimizing the total
    distance to the previous row; composing these along the grid orders each
    row relative to its own raw layout (branch tracking).
    """
    perms = _PERMS[lams.shape[1]]
    cost = np.abs(lams[1:, perms] - lams[:-1, None, :]).sum(axis=-1)
    steps = perms[cost.argmin(axis=-1)]
    return np.array(list(accumulate(steps, lambda order, step: step[order], initial=perms[0])))


def _sweep(p: SystemParams, delta: float, g_grid, markovian_ref: bool) -> Sweep:
    gs = np.asarray(g_grid, dtype=float).ravel()
    if len(gs) < 2:
        raise ValueError("sweep grid needs at least 2 points")
    if np.any(gs < 0):
        raise ValueError("coupling g must be non-negative")
    lams, _, ks, divergent, _ = _eigensystems(_drift_stack(drift_nonmarkovian, p, delta, gs))
    order = _continuity_order(lams)
    mk_hz = None
    if markovian_ref:
        mk = _sorted_eigvals(_drift_stack(drift_markovian, p, delta, gs))
        mk_hz = rad_to_hz(np.take_along_axis(mk, _continuity_order(mk), axis=-1))
    return Sweep(
        coord_hz=rad_to_hz(gs),
        lambdas_hz=rad_to_hz(np.take_along_axis(lams, order, axis=-1)),
        petermann=np.take_along_axis(ks, order, axis=-1),
        divergent=np.take_along_axis(divergent, order, axis=-1),
        markovian_hz=mk_hz,
    )


def sweep_eigs(p: SystemParams, delta: float, g_grid, markovian_ref: bool = False) -> Sweep:
    """Eigenvalue branches vs coupling at fixed detuning, continuity-matched.

    With markovian_ref, the Sweep also carries the two eigenvalues of the
    memoryless two-mode block at each grid point, for side-by-side comparison.
    """
    return _sweep(p, delta, g_grid, markovian_ref=markovian_ref)


def sweep_petermann(p: SystemParams, delta: float, g_grid) -> Sweep:
    """Petermann factors vs coupling at fixed detuning (markovian_hz is None)."""
    return _sweep(p, delta, g_grid, markovian_ref=False)
