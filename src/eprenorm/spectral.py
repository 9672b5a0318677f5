"""Eigendecomposition of the complex-symmetric drift matrices, Petermann
factors, and coupling/detuning sweeps.

Every drift the package builds satisfies M = M^T (the couplings are -ig/-ig
and -g_c/-g_c), so M^H = conj(M) and the left eigenvector of each mode is
the conjugate of its right one.  Every eigenvalue comes from one batched
LAPACK zgeev call on an (N, n, n) stack, n = 2 or 3, which balances and
scales each matrix, and one ordering rule puts the modes of each row in
(Im, Re) order.

eigensystem asks zgeev for the right eigenvectors too (np.linalg.eig, on a
batch of one).  Each right vector has unit norm and its largest-magnitude
entry real and positive.  With L = conj(R) the Petermann factor of a mode is

    K = (<L|L> <R|R>) / |<L|R>|^2 = <R|R>^2 / |R^T R|^2

(Siegman, PRA 39, 1253 (1989); Berry, J. Mod. Opt. 50, 63 (2003)), which
is unity for a normal mode and diverges at an exceptional point.

A sweep computes no vectors: np.linalg.eigvals (the same zgeev, which gives
the same eigenvalues) runs once over its whole coupling grid.  A Petermann
sweep takes K from those eigenvalues through the spectral projector of a
simple eigenvalue, P_k = adj(lam_k - M) / p'(lam_k) (Kato, Perturbation
Theory for Linear Operators, 1966):

    K_k = ||P_k||_F^2 = ||adj(lam_k - M)||_F^2 / prod_{j != k} |lam_k - lam_j|^2.

The two K routes share nothing after zgeev, so each checks the other; both
flag a mode divergent when defective or K is not below DIVERGENT_K (nan too).
The memoryless reference is the (a, b) block of the same stack (drift_markovian).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations

import numpy as np

from .charpoly import cubic_roots  # noqa: F401  (alias kept: bench/tests traces it as spectral.cubic_roots)
from .model import DriveParams, SystemParams, _array_rows, drift_nonmarkovian, rad_to_hz

# A Petermann factor at or beyond this (or nan) counts as numerically divergent, in both K routes.
DIVERGENT_K = 1e30
# Eigenvalue gaps below this fraction of max|lam| flag both modes defective.
DEGENERACY_RTOL = 1e-3
# Imaginary parts within this fraction of max|lam| count as tied when ordering modes.
IMAG_TIE_RTOL = 1e-9

_PERMS = {n: np.array(list(permutations(range(n)))) for n in (2, 3)}
# _COMPOSE[n][i][j] indexes _PERMS[n][j][_PERMS[n][i]]: order i, then step j (0 is the identity).
_COMPOSE = {n: [[p.tolist().index(b[a].tolist()) for b in p] for a in p] for n, p in _PERMS.items()}
_PAIRS = {n: np.triu_indices(n, 1) for n in (2, 3)}
# _PAIR_MODES[n][q, m]: mode m is one of the two modes of pair q of _PAIRS[n].
_PAIR_MODES = {n: (np.arange(n) == i[:, None]) | (np.arange(n) == j[:, None]) for n, (i, j) in _PAIRS.items()}


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
    (N, 3) with columns ordered by branch continuity; petermann is None for
    an eigenvalue-only sweep (sweep_eigs), whose divergent is the defective
    flag; markovian_hz (N, 2) holds the memoryless two-mode eigenvalues, or
    is None when not asked for.  Frequencies are in Hz (cycles), converted
    once from rad/s.  A Petermann sweep takes K from the eigenvalues alone
    (_adjugate_petermann); its divergent marks a defective mode or a K at
    or beyond 1e30, as eigensystem's does.
    Iterating yields one named-tuple row per grid point with these fields.
    Continuity does not define branch labels at a coalescence, so past an
    EP two branches' labels can swap on a last-bit change of the inputs.
    """

    coord_hz: np.ndarray
    lambdas_hz: np.ndarray
    petermann: np.ndarray | None
    divergent: np.ndarray
    markovian_hz: np.ndarray | None = None

    def __iter__(self):
        return _array_rows(self)


def _mode_order(lams: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per-row mode indices ordering lams (N, n) by (Im, Re), Im within IMAG_TIE_RTOL * scale (N,) tied."""
    by_imag = np.argsort(lams.imag, axis=-1)
    imag = np.take_along_axis(lams.imag, by_imag, axis=-1)
    tol = IMAG_TIE_RTOL * scale[:, None]
    tier = np.cumsum(np.diff(imag, axis=-1, prepend=imag[:, :1]) > tol, axis=-1)
    real = np.take_along_axis(lams.real, by_imag, axis=-1)
    return np.take_along_axis(by_imag, np.lexsort((real, tier), axis=-1), axis=-1)


def _petermann_values(right: np.ndarray) -> np.ndarray:
    """Petermann factors <R|R>^2 / |R^T R|^2 of rights (..., component), inf where R^T R is 0."""
    rr = np.einsum("...i,...i->...", right.conj(), right).real
    lr_sq = np.abs(np.einsum("...i,...i->...", right, right)) ** 2
    with np.errstate(divide="ignore"):
        return np.where(lr_sq == 0.0, np.inf, rr * rr / lr_sq)


def _ordered(lams: np.ndarray):
    """Row ordering of eigenvalues lams (N, n): (order, ordered lams, defective).

    order puts the modes of each row in _mode_order.  The closest pair of
    eigenvalues in a row is flagged defective when its gap is below
    DEGENERACY_RTOL * max|lam|, the signature of a nearby coalescence; the
    test reads eigenvalues only, so an eigvals sweep gets it too.
    """
    scale = np.abs(lams).max(axis=-1)
    order = _mode_order(lams, scale)
    lams = np.take_along_axis(lams, order, axis=-1)
    iu, ju = _PAIRS[lams.shape[-1]]
    gaps = np.abs(lams[:, iu] - lams[:, ju])
    closest = gaps.argmin(axis=-1)
    near = (scale > 0) & (gaps[np.arange(len(gaps)), closest] < DEGENERACY_RTOL * scale)
    return order, lams, _PAIR_MODES[lams.shape[-1]][closest] & near[:, None]


def _eigensystems(arr: np.ndarray):
    """Batched core: (lams, rights, petermann, divergent, defective).

    One np.linalg.eig call over the stack, then _ordered.  rights have shape
    (N, mode, component), the rest (N, mode).  Each right vector is LAPACK's
    unit vector with its largest-magnitude entry rotated to the positive real
    axis.  Every matrix of the stack is complex-symmetric, so the left vectors
    are conj(rights).  Divergent is defective or K not below DIVERGENT_K.
    """
    lams, vecs = np.linalg.eig(arr)
    order, lams, defective = _ordered(lams)
    rights = np.take_along_axis(vecs.swapaxes(-2, -1), order[..., None], axis=-2)
    pivot = np.take_along_axis(rights, np.abs(rights).argmax(axis=-1)[..., None], axis=-1)
    rights = rights * (pivot.conj() / np.abs(pivot))
    k = _petermann_values(rights)
    return lams, rights, k, defective | ~(k < DIVERGENT_K), defective


def petermann(mode: EigenMode) -> float:
    """Recompute the Petermann factor of a mode from its right vector."""
    right = np.asarray(mode.right, dtype=complex)[None, None]
    return float(_petermann_values(right)[0, 0])


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


def _drift_stack(p: SystemParams, delta: float, gs: np.ndarray) -> np.ndarray:
    """drift_nonmarkovian(p, (delta, g)) for every g of the grid; the drift is linear in g."""
    m0 = drift_nonmarkovian(p, DriveParams(delta=delta, g=0.0))
    dm = drift_nonmarkovian(p, DriveParams(delta=delta, g=1.0)) - m0
    return m0 + gs[:, None, None] * dm


def _continuity_order(lams: np.ndarray) -> np.ndarray:
    """Per-row mode indices that continue each branch from the row before.

    Every adjacent pair of raw rows gets the permutation minimizing the total
    distance to the previous row; composing these along the grid orders each
    row relative to its own raw layout (branch tracking).  The steps are
    composed as indices into _PERMS through the _COMPOSE table.
    """
    n = lams.shape[1]
    perms, compose = _PERMS[n], _COMPOSE[n]
    dist = np.abs(lams[1:, :, None] - lams[:-1, None, :])
    steps = dist[:, perms, np.arange(n)].sum(axis=-1).argmin(axis=-1).tolist()
    return perms[list(accumulate(steps, lambda order, step: compose[order][step], initial=0))]


def _adjugate_petermann(stack: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Petermann factors (N, 3) of the symmetric 3x3 stack (N, 3, 3) from its eigenvalues lams (N, 3).

    K_k = ||adj(lam_k - M)||_F^2 / prod_{j != k} |lam_k - lam_j|^2, and inf
    where the gap product is 0.  Each row is first divided by its max|lam|:
    K does not change, and the cofactor products stay in range whatever the
    scale of M.
    adj(lam - M) is symmetric, so its six distinct cofactors suffice, each
    off-diagonal one counted twice.
    """
    scale = np.abs(lams).max(axis=-1)
    scale = np.where(scale > 0, scale, 1.0)
    m = stack / scale[:, None, None]
    lam = lams / scale[:, None]
    d0, d1, d2 = (lam - m[:, i, i, None] for i in range(3))
    a01, a02, a12 = (-m[:, i, j, None] for i, j in ((0, 1), (0, 2), (1, 2)))
    diag = (d1 * d2 - a12 * a12, d0 * d2 - a02 * a02, d0 * d1 - a01 * a01)
    off = (a02 * a12 - a01 * d2, a01 * a12 - a02 * d1, a01 * a02 - a12 * d0)
    num = sum(np.abs(c) ** 2 for c in diag) + 2.0 * sum(np.abs(c) ** 2 for c in off)
    g01, g02, g12 = (np.abs(lam[:, i] - lam[:, j]) ** 2 for i, j in ((0, 1), (0, 2), (1, 2)))
    den = np.stack([g01 * g02, g01 * g12, g02 * g12], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.inf, num / den)


def _sweep(p: SystemParams, delta: float, g_grid, markovian_ref: bool, petermann: bool) -> Sweep:
    """One sweep over the grid from one np.linalg.eigvals call and _ordered, no vectors.

    With petermann, K comes from _adjugate_petermann and divergent also marks
    a K not below DIVERGENT_K; markovian_ref reads stack[:, :2, :2].
    """
    gs = np.asarray(g_grid, dtype=float).ravel()
    if len(gs) < 2:
        raise ValueError("sweep grid needs at least 2 points")
    if np.any(gs < 0):
        raise ValueError("coupling g must be non-negative")
    stack = _drift_stack(p, delta, gs)
    _, lams, divergent = _ordered(np.linalg.eigvals(stack))
    if petermann:
        ks = _adjugate_petermann(stack, lams)
        divergent = divergent | ~(ks < DIVERGENT_K)
    order = _continuity_order(lams)
    mk_hz = None
    if markovian_ref:
        _, mk, _ = _ordered(np.linalg.eigvals(stack[:, :2, :2]))
        mk_hz = rad_to_hz(np.take_along_axis(mk, _continuity_order(mk), axis=-1))
    return Sweep(
        coord_hz=rad_to_hz(gs),
        lambdas_hz=rad_to_hz(np.take_along_axis(lams, order, axis=-1)),
        petermann=np.take_along_axis(ks, order, axis=-1) if petermann else None,
        divergent=np.take_along_axis(divergent, order, axis=-1),
        markovian_hz=mk_hz,
    )


def sweep_eigs(p: SystemParams, delta: float, g_grid, markovian_ref: bool = False) -> Sweep:
    """Eigenvalue branches vs coupling at fixed detuning, continuity-matched.

    Eigenvalues only: petermann is None and divergent is the defective
    (coalescence) flag of _ordered.  With markovian_ref, the Sweep also
    carries the two eigenvalues of the memoryless two-mode block at each grid
    point, for side-by-side comparison.
    """
    return _sweep(p, delta, g_grid, markovian_ref=markovian_ref, petermann=False)


def sweep_petermann(p: SystemParams, delta: float, g_grid) -> Sweep:
    """Petermann factors vs coupling at fixed detuning (markovian_hz is None)."""
    return _sweep(p, delta, g_grid, markovian_ref=False, petermann=True)
