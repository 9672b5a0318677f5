"""Eigendecomposition of the complex-symmetric drift matrices, Petermann
factors, and coupling/detuning sweeps.

Every drift the package builds satisfies M = M^T (the couplings are -ig/-ig
and -g_c/-g_c), so M^H = conj(M) and the left eigenvector of each mode is
the conjugate of its right one.  One ordering rule puts the modes of each
row in (Im, Re) order, and one closest-pair test flags defective modes.

eigensystem takes the eigenvalues and right eigenvectors of its one matrix
from LAPACK's zgeev (np.linalg.eig), which balances and scales the matrix,
and returns them as one Eigensystem of column arrays, as a sweep returns one
Sweep.  Each right vector has unit norm and its largest-magnitude entry real
and positive.  With L = conj(R) the Petermann factor of a mode, petermann(R), is

    K = (<L|L> <R|R>) / |<L|R>|^2 = <R|R>^2 / |R^T R|^2

(Siegman, PRA 39, 1253 (1989); Berry, J. Mod. Opt. 50, 63 (2003)), which
is unity for a normal mode and diverges at an exceptional point.

A sweep computes no vectors and calls no LAPACK: _closed_eigvals solves
every row of its (N, 3, 3) drift stack in one batched pass (Cardano's
roots, the closest pair solved again from its midpoint, Newton steps),
and the memoryless (N, 2, 2) block in another (the quadratic formula).
Every sweep takes K from the same pass, through the spectral projector of
a simple eigenvalue, P_k = adj(lam_k - M) / p'(lam_k) (Kato, Perturbation
Theory for Linear Operators, 1966), with p'(lam_k) = prod_{j != k} (lam_k - lam_j):

    K_k = ||P_k||_F^2 = ||adj(lam_k - M)||_F^2 / |p'(lam_k)|^2,

read off the diagonal cofactors of lam_k - M.  The two eigensolvers and the
two K routes share no code, so each checks the other; both flag a mode
divergent when defective or K is not below DIVERGENT_K (nan too).  The
memoryless reference is the (a, b) block of the same stack (drift_markovian).
Sweeps, like every result of the package, are in rad/s.

Work across the 2 or 3 modes of a row is column arithmetic.  The kernel
runs mode-major, row k of an (n, N) array holding mode k at every grid
point, and returns its (N, n) results as views of that layout.  A sum,
minimum or maximum over the modes is one ufunc call per mode over the whole
grid, in a fixed order, (x_0 + x_1) + x_2, with the first index winning a
tie, never a reduction with axis=-1: numpy runs such a reduction's inner
loop once per row.  At 401 rows (2-core VM, numpy 2.4) a row maximum of
|lam| took 18 us against 2.0 us for the np.maximum fold, and the
continuity costs' sums over (400, 6, 3) 41 us against 3.3 us; at 5 rows
the two forms are within 0.4 us.  Elementwise ufuncs give the same bits in
either layout, and tests/test_spectral.py holds the row-wise forms as the
references that every result must match byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, permutations

import numpy as np

from .charpoly import cubic_roots  # noqa: F401  (alias kept: bench/tests traces it as spectral.cubic_roots)
from .model import _COUPLING, DriveParams, SystemParams, _array_rows, drift_nonmarkovian

# A Petermann factor at or beyond this (or nan) counts as numerically divergent, in both K routes.
DIVERGENT_K = 1e30
# Eigenvalue gaps below this fraction of max|lam| flag both modes defective.
DEGENERACY_RTOL = 1e-3
# Imaginary parts within this fraction of max|lam| count as tied when ordering modes.
IMAG_TIE_RTOL = 1e-9

_PERMS = {n: np.array(list(permutations(range(n)))) for n in (2, 3)}
# _COMPOSE[n][i][j] indexes _PERMS[n][j][_PERMS[n][i]]: order i, then step j (0 is the identity).
_COMPOSE = {n: [[p.tolist().index(b[a].tolist()) for b in p] for a in p] for n, p in _PERMS.items()}
# _MATCHED[n][j, q]: the distance entry i * n + j, i = _PERMS[n][q][j], that permutation q takes for mode j.
_MATCHED = {n: (p * n + np.arange(n)).T for n, p in _PERMS.items()}
_PAIRS = {n: np.triu_indices(n, 1) for n in (2, 3)}
# _IN_PAIR[n][m, q]: mode m is one of the two modes of pair q of _PAIRS[n].
_IN_PAIR = {n: (np.arange(n)[:, None] == i) | (np.arange(n)[:, None] == j) for n, (i, j) in _PAIRS.items()}
# _FAR[q]: the mode outside pair q of _PAIRS[3].
_FAR = 3 - _PAIRS[3][0] - _PAIRS[3][1]
# The three branches of Cardano's cube root and the two signs of the quadratic formula, one row each.
_CUBE_ROOTS = np.array([[1.0], [complex(-0.5, 0.75**0.5)], [complex(-0.5, -(0.75**0.5))]])
_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class Eigensystem:
    """The modes of one matrix as column arrays, one entry per mode in (Im, Re) order.

    lambdas, petermann, divergent and defective are (n,); rights (n, n) holds
    one right vector per row, of unit norm with its largest-magnitude entry
    real and positive.  The left eigenvector of a complex-symmetric matrix is
    conj(right).  divergent marks a Petermann factor at or beyond
    double-precision reach (overlap underflow or a defective pair); the
    finite computed value is still reported so log-scale consumers have a
    number to plot.
    """

    lambdas: np.ndarray
    petermann: np.ndarray
    divergent: np.ndarray
    defective: np.ndarray
    rights: np.ndarray


@dataclass(frozen=True)
class Sweep:
    """A coupling sweep as column arrays, one row per grid point, in rad/s.

    lambdas, petermann and divergent are (N, 3) with columns ordered by
    branch continuity; markovian (N, 2) holds the memoryless two-mode
    eigenvalues, or is None when not asked for.  K comes from the cofactors
    of the closed-form eigenvalue pass (_closed_eigvals), and divergent
    marks a defective mode or a K at or beyond DIVERGENT_K, as eigensystem's
    does.  Each eigenvalue is accurate to about 1e-14 of its row's largest
    |lam|, and each one outside a defective pair to its own magnitude too,
    but a component far below its eigenvalue's magnitude (the real part of
    a +-ig pair at g far above every other rate) carries no correct digits.
    Iterating yields one named-tuple row per grid point with these fields.
    Continuity does not define branch labels at a coalescence, so past an
    EP two branches' labels can swap on a last-bit change of the inputs.
    """

    lambdas: np.ndarray
    petermann: np.ndarray
    divergent: np.ndarray
    markovian: np.ndarray | None = None

    def __iter__(self):
        return _array_rows(self)


def _mode_order(lams: np.ndarray) -> np.ndarray:
    """Mode indices ordering each row of lams (..., n) by (Im, Re); Im parts within
    IMAG_TIE_RTOL * max|lam| of their row count as tied.

    A tier starts at each sorted Im part more than the tolerance above the
    one before it, and each tier is put in Re order, ties kept in Im order."""
    n = lams.shape[-1]
    flat = lams.reshape(-1, n)
    rows = np.arange(len(flat))[:, None]
    by_imag = np.argsort(flat.imag, axis=-1)
    ordered = flat[rows, by_imag]
    # Halved, which is exact above the subnormals, so no difference of two Im parts overflows.
    imag = ordered.imag.T * 0.5
    tol = IMAG_TIE_RTOL * (reduce(np.maximum, np.abs(flat).T) * 0.5)
    # opens[k - 1]: sorted mode k starts a new tier.  Where every mode has its own, the Im order is the order.
    opens = [imag[k] - imag[k - 1] > tol for k in range(1, n)]
    if reduce(np.logical_and, opens).all():
        return by_imag.reshape(lams.shape)
    # The tier of each sorted mode, as a running count of the tiers opened up to it.
    tier = np.zeros(flat.shape, np.intp)
    for k, opened in enumerate(opens, 1):
        tier[:, k] = tier[:, k - 1] + opened
    return by_imag[rows, np.lexsort((ordered.real, tier), axis=-1)].reshape(lams.shape)


def _defective(lams: np.ndarray) -> np.ndarray:
    """Per-mode flags (N, n), or (n,) for one row: the closest pair of eigenvalues in a row,
    the first such in _PAIRS order, where its gap is below DEGENERACY_RTOL * max|lam|,
    the signature of a nearby coalescence."""
    modes = lams.T
    iu, ju = _PAIRS[len(modes)]
    gaps = np.abs(modes[iu] - modes[ju])
    near = reduce(np.minimum, gaps) < DEGENERACY_RTOL * reduce(np.maximum, np.abs(modes))
    return (_IN_PAIR[len(modes)][:, gaps.argmin(axis=0)] & near).T


def petermann(rights) -> np.ndarray:
    """Petermann factors <R|R>^2 / |R^T R|^2 of right vectors (..., component), inf where R^T R is 0."""
    rr = np.einsum("...i,...i->...", np.conj(rights), rights).real
    lr_sq = np.abs(np.einsum("...i,...i->...", rights, rights)) ** 2
    with np.errstate(divide="ignore"):
        return np.where(lr_sq == 0.0, np.inf, rr * rr / lr_sq)


def eigensystem(m) -> Eigensystem:
    """Full eigendecomposition of a complex-symmetric 2x2 or 3x3 matrix, as one Eigensystem.

    Modes come back ordered by eigenvalue (imaginary part, then real part;
    imaginary parts within 1e-9 max|lam| count as equal), each with its right
    vector; the left one is conj(right).  The closest pair of modes is
    defective where its gap is below DEGENERACY_RTOL * max|lam|, and a mode is
    divergent where it is defective or its K is not below DIVERGENT_K (nan too).
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
    lams, vecs = np.linalg.eig(arr)
    order = _mode_order(lams)
    lams, rights = lams[order], vecs.T[order]
    pivot = rights[np.arange(len(rights)), np.abs(rights).argmax(axis=-1)]
    rights = rights * (pivot.conj() / np.abs(pivot))[:, None]
    ks = petermann(rights)
    defective = _defective(lams)
    return Eigensystem(lams, ks, defective | ~(ks < DIVERGENT_K), defective, rights)


def petermann_at(p: SystemParams, d: DriveParams) -> np.ndarray:
    """Petermann factors (3,) of the three-mode drift at one drive point, in eigensystem's mode order."""
    return eigensystem(drift_nonmarkovian(p, d)).petermann


def _drift_stack(p: SystemParams, delta: float, gs: np.ndarray) -> np.ndarray:
    """drift_nonmarkovian(p, (delta, g)) for every g of the grid; the drift is linear in g,
    m0 + g * _COUPLING with m0 the drift at g = 0."""
    return drift_nonmarkovian(p, DriveParams(delta=delta, g=0.0)) + gs[:, None, None] * _COUPLING


def _branch_order(lams: np.ndarray):
    """Index (rows, modes) that takes raw eigenvalue rows lams (N, n) to
    _mode_order and then continues each branch along the grid (_continuity_order)."""
    rows = np.arange(len(lams))[:, None]
    order = _mode_order(lams)
    return rows, order[rows, _continuity_order(lams[rows, order])]


def _continuity_order(lams: np.ndarray) -> np.ndarray:
    """Per-row mode indices that continue each branch from the row before.

    Every adjacent pair of raw rows gets the permutation minimizing the total
    distance to the previous row, the first such in _PERMS order; composing
    these along the grid orders each row relative to its own raw layout
    (branch tracking).  A permutation's distance sums its modes in order,
    (d_0 + d_1) + d_2.  Distances are taken on lams / 16, exact above the
    subnormals, so no finite input overflows: a part of a difference is at
    most DBL_MAX / 8, and three distances sum below DBL_MAX.  Each step that
    moves is composed through the _COMPOSE[n] table, for 2 modes as for 3.
    """
    n = lams.shape[1]
    compose = _COMPOSE[n]
    scaled = np.multiply(lams.T, 0.0625, order="C")  # mode-major, so each difference below runs along the grid
    # dist[i * n + j, r] = |lam_i of row r + 1 - lam_j of row r| (scaled), and cost[q, r] that of _PERMS[n][q].
    dist = np.abs(scaled[:, None, 1:] - scaled[None, :, :-1]).reshape(n * n, -1)
    cost = reduce(np.add, dist[_MATCHED[n]])
    steps = cost.argmin(axis=0)
    # Only the steps that move compose; a row takes the order composed over the moves before it.
    moves = steps.nonzero()[0]
    orders = np.fromiter(accumulate(steps[moves].tolist(), lambda o, s: compose[o][s], initial=0), np.intp)
    return _PERMS[n][orders[np.searchsorted(moves, np.arange(len(lams)))]]


def _charpoly(lam, m00, m11, m22, s01, s02, s12, triple):
    """(det(lam - M), d det / d lam, its three diagonal cofactors) for symmetric 3x3 rows of M, in cofactor form.

    Each entry argument holds one entry of every matrix, (N,): the diagonal
    m_ii, the squared off-diagonal entries s_ij = m_ij^2 and triple = -2 m01
    m02 m12; lam is (N,) or mode-major (n, N).  The derivative is the sum of
    the cofactors, (c0 + c1) + c2.
    """
    d0, d1, d2 = lam - m00, lam - m11, lam - m22
    c0, c1, c2 = d1 * d2 - s12, d0 * d2 - s02, d0 * d1 - s01
    return d0 * c0 - d1 * s02 - d2 * s01 + triple, c0 + c1 + c2, (c0, c1, c2)


def _closed_eigvals(stack: np.ndarray):
    """Eigenvalues (N, n) of a symmetric stack (N, n, n), n = 2 or 3, in closed form: (lams, ks, defective).

    Each row is first scaled by a power of two taken from the largest real or
    imaginary part of its entries, which is exact and keeps every product in
    range (ldexp, so an entry near 1.7e308 rad/s needs no 2**1024).  n = 2 is
    the quadratic formula, and ks and defective are None.

    n = 3 starts from Cardano's roots of the depressed cubic, with the
    larger-magnitude branch of w^3.  The start x outside the closest pair is
    kept; the pair lam_1, lam_2 is solved again from the midpoint c of its
    starts, where, with u = c - lam_1, v = c - lam_2 and y = c - x,

        p(c) = u v y,    p'(c) = u v + (u + v) y,

    p = det(lam - M) in cofactor form (_charpoly), and lam_1,2 = c - (u + v)/2
    -+ sqrt((u + v)^2/4 - u v).  This loses no digits to
    the row scale: a pair far smaller than x (a fast bath's hybrid modes)
    keeps its own relative accuracy, and a defective pair's midpoint is
    exact to rounding, where Cardano's start is off by sqrt(eps) of the
    scale.  defective is _defective of these roots.  One loop of at most 9
    Newton steps on p follows.  The first step moves every root outside a
    defective pair (a step from a double root moves it by noise), and each
    later one the roots that the step before moved by more than 1e-3 of
    themselves.  A start is good to eps of the row scale only, so a root
    far below that scale (a slow bath's, or the bath's beside a huge
    coupling) takes the later steps.

    Each root is then accurate to about 1e-14 of the row's largest |lam|,
    and each outside a defective pair to its own magnitude, down to a root
    that underflows in the scaled row (below about 1e-308 of the scale, as
    a 1e-20 Hz bath at a 2.7e304 kHz coupling).  A component far below its
    root's magnitude carries no correct digits: at g = 1e200 kHz the real
    part of the hybrid pair, -51.25 kHz beside +-1e200 kHz, comes out near
    +1e168 kHz (zgeev's is no better).

    ks are the Petermann factors from the diagonal cofactors at the roots
    before the Newton steps.  adj(lam_k - M) of a simple eigenvalue is the
    symmetric rank-one z z^T with z an eigenvector, so ||adj||_F =
    sum_i |adj_ii|, and sum_i adj_ii = p'(lam_k):

        K_k = ||adj(lam_k - M)||_F^2 / |p'(lam_k)|^2 = (sum_i |adj_ii|)^2 / |sum_i adj_ii|^2,

    which is at least 1 and inf where p'(lam_k) is 0.  No division by zero
    or invalid operation happens on finite input, so no np.errstate is set.
    """
    _, exponent = np.frexp(np.abs(stack.view(float)).max(axis=(-2, -1)))
    m = np.ldexp(stack.view(float), -exponent[:, None, None]).view(complex)
    # Mode-major from here: row k of an (n, N) array is mode k of every matrix, and each (N,) entry broadcasts.
    if stack.shape[-1] == 2:
        a, b, c = m[:, 0, 0], m[:, 1, 1], m[:, 0, 1]
        lams = (a + b) / 2.0 + np.sqrt(((a - b) / 2.0) ** 2 + c * c) * _SIGNS
        return _unscaled(lams, exponent), None, None
    m00, m11, m22 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    m01, m02, m12 = m[:, 0, 1], m[:, 0, 2], m[:, 1, 2]
    entries = (m00, m11, m22, m01 * m01, m02 * m02, m12 * m12, -2.0 * m01 * m02 * m12)
    # t = lam - mean solves t^3 + p t + q = 0, with q = det(mean - M) and p its lam-derivative there.
    mean = (m00 + m11 + m22) / 3.0
    q, p, _ = _charpoly(mean, *entries)
    s = np.sqrt(q * q / 4.0 + p * p * p / 27.0)
    w = (np.where((q.conj() * s).real > 0.0, -s, s) - q / 2.0) ** (1.0 / 3.0) * _CUBE_ROOTS
    starts = w - p / (3.0 * np.where(w == 0.0, 1.0, w)) + mean  # w = 0 only where p = q = 0
    iu, ju = _PAIRS[3]
    rows = np.arange(len(stack))
    closest = np.abs(starts[iu] - starts[ju]).argmin(axis=0)
    x = starts[_FAR[closest], rows]
    c = (starts[iu[closest], rows] + starts[ju[closest], rows]) / 2.0
    pc, slope, _ = _charpoly(c, *entries)
    y = c - x
    y = np.where(y == 0.0, 1.0, y)  # a triple root: p(c) = p'(c) = 0 whatever y is
    uv = pc / y
    half = (slope - uv) / (2.0 * y)  # (u + v) / 2
    lams = np.concatenate([x[None], c - half + np.sqrt(half * half - uv) * _SIGNS])
    defective = _defective(lams.T).T  # mode-major, as lams
    det, slope, (c0, c1, c2) = _charpoly(lams, *entries)
    ks = np.divide(np.abs(c0) + np.abs(c1) + np.abs(c2), np.abs(slope), out=np.full(slope.shape, np.inf), where=slope != 0.0)
    moving = ~defective & (slope != 0.0)
    for _ in range(9):
        step = np.divide(det, slope, out=np.zeros_like(det), where=moving)
        lams -= step
        moving = np.abs(step) > 1e-3 * np.abs(lams)
        if not moving.any():
            break
        det, slope = _charpoly(lams, *entries)[:2]
        moving &= slope != 0.0
    ks *= ks
    return _unscaled(lams, exponent), ks.T, defective.T


def _unscaled(lams: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Mode-major scaled roots (n, N) times 2**exponent of their rows, as (N, n)."""
    n, rows = lams.shape
    return np.ldexp(lams.view(float).reshape(n, rows, 2), exponent[:, None]).reshape(n, -1).view(complex).T


def _sweep(p: SystemParams, delta: float, g_grid, markovian_ref: bool) -> Sweep:
    """One sweep over the grid from _closed_eigvals, no vectors and no LAPACK.

    Each row's modes are put in _mode_order and then continued along the grid
    (_continuity_order); divergent is defective or K not below DIVERGENT_K;
    markovian_ref reads stack[:, :2, :2].
    """
    gs = np.asarray(g_grid, dtype=float)
    if gs.ndim != 1:
        raise ValueError(f"sweep grid must be 1-D, got shape {gs.shape}")
    if len(gs) < 2:
        raise ValueError("sweep grid needs at least 2 points")
    if not (0.0 <= gs.min() and gs.max() < np.inf):  # each fails at a nan
        finite = np.isfinite(gs)
        if not finite.all():
            bad = int(finite.argmin())
            raise ValueError(f"coupling g must be finite: grid point {bad} is {float(gs[bad])!r} rad/s")
        raise ValueError("coupling g must be non-negative")
    stack = _drift_stack(p, delta, gs)
    lams, ks, defective = _closed_eigvals(stack)
    order = _branch_order(lams)
    markovian = None
    if markovian_ref:
        mk, _, _ = _closed_eigvals(stack[:, :2, :2])
        markovian = mk[_branch_order(mk)]
    return Sweep(lams[order], ks[order], (defective | ~(ks < DIVERGENT_K))[order], markovian)


def sweep_eigs(p: SystemParams, delta: float, g_grid, markovian_ref: bool = False) -> Sweep:
    """Eigenvalue branches vs coupling at fixed detuning, continuity-matched.

    The Sweep is sweep_petermann's, K and divergent included; with
    markovian_ref it also carries the two eigenvalues of the memoryless
    two-mode block at each grid point, for side-by-side comparison.
    """
    return _sweep(p, delta, g_grid, markovian_ref)


def sweep_petermann(p: SystemParams, delta: float, g_grid) -> Sweep:
    """Petermann factors vs coupling at fixed detuning (markovian is None)."""
    return _sweep(p, delta, g_grid, markovian_ref=False)
