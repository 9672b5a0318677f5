"""Eigendecomposition of the complex-symmetric drift matrices, Petermann
factors, and coupling/detuning sweeps.

Every drift the package builds satisfies M = M^T (the couplings are -ig/-ig
and -g_c/-g_c), so M^H = conj(M) and the left eigenvector of each mode is
the conjugate of its right one.  Everything runs through one batched core
on an (N, n, n) stack, n = 2 or 3: one np.linalg.eig call (LAPACK zgeev,
which balances and scales each matrix) gives the eigenvalues and the right
eigenvectors of every row, and one ordering rule puts the modes of each row
in (Im, Re) order.  Each right vector has unit norm and its largest-magnitude
entry real and positive.  With L = conj(R) the Petermann factor of a mode is

    K = (<L|L> <R|R>) / |<L|R>|^2 = <R|R>^2 / |R^T R|^2

(Siegman, PRA 39, 1253 (1989); Berry, J. Mod. Opt. 50, 63 (2003)), which
is unity for a normal mode and diverges at an exceptional point.
eigensystem is the core on a batch of one; a sweep is one core call over
its whole coupling grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations

import numpy as np

from .charpoly import cubic_roots  # noqa: F401  (alias kept: bench/tests traces it as spectral.cubic_roots)
from .model import DriveParams, SystemParams, _array_rows, drift_markovian, drift_nonmarkovian, rad_to_hz

# |<L|R>|^2 below this fraction of <L|L><R|R> counts as numerically divergent.
DIVERGENT_OVERLAP_RTOL = 1e-30
# Eigenvalue gaps below this fraction of max|lam| flag both modes defective.
DEGENERACY_RTOL = 1e-3
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


def _mode_order(lams: np.ndarray) -> np.ndarray:
    """Per-row mode indices ordering lams (N, n) by (Im, Re), near-equal Im counting as tied."""
    by_imag = np.argsort(lams.imag, axis=-1)
    imag = np.take_along_axis(lams.imag, by_imag, axis=-1)
    tol = IMAG_TIE_RTOL * np.abs(lams).max(axis=-1, keepdims=True)
    tier = np.cumsum(np.diff(imag, axis=-1, prepend=imag[:, :1]) > tol, axis=-1)
    real = np.take_along_axis(lams.real, by_imag, axis=-1)
    return np.take_along_axis(by_imag, np.lexsort((real, tier), axis=-1), axis=-1)


def _petermann_values(right: np.ndarray):
    """Petermann factors <R|R>^2 / |R^T R|^2 and underflow flags of rights (..., component)."""
    rr = np.einsum("...i,...i->...", right.conj(), right).real
    lr_sq = np.abs(np.einsum("...i,...i->...", right, right)) ** 2
    with np.errstate(divide="ignore"):
        k = np.where(lr_sq == 0.0, np.inf, rr * rr / lr_sq)
    return k, lr_sq < DIVERGENT_OVERLAP_RTOL * rr * rr


def _eigensystems(arr: np.ndarray):
    """Batched core: (lams, rights, petermann, divergent, defective).

    One np.linalg.eig call over the stack; the modes of each row are put in
    _mode_order.  rights have shape (N, mode, component), the rest (N, mode).
    Each right vector is LAPACK's unit vector with its largest-magnitude entry
    rotated to the positive real axis.  Every matrix of the stack is
    complex-symmetric, so the left vectors are conj(rights).  The closest pair of
    eigenvalues in a row is flagged defective when its gap is below
    DEGENERACY_RTOL * max|lam|, the signature of a nearby coalescence; a
    defective mode also counts as divergent.
    """
    lams, vecs = np.linalg.eig(arr)
    order = _mode_order(lams)
    lams = np.take_along_axis(lams, order, axis=-1)
    rights = np.take_along_axis(vecs.swapaxes(-2, -1), order[..., None], axis=-2)
    pivot = np.take_along_axis(rights, np.abs(rights).argmax(axis=-1)[..., None], axis=-1)
    rights = rights * (pivot.conj() / np.abs(pivot))

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
        mk = np.linalg.eigvals(_drift_stack(drift_markovian, p, delta, gs))
        mk = np.take_along_axis(mk, _mode_order(mk), axis=-1)
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
