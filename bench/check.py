"""Output checker that shares no code with eprenorm (numpy and stdlib only).

Every check rebuilds the physics it needs from the device's Hz parameters:
the three-mode drift matrix

    M = [[i*delta - kappa/2, -i*G,                      0       ],
         [-i*G,              -(i*omega_m + gamma/2),    -g_c    ],
         [0,                 -g_c,                      -Omega_c]]

with g_c = sqrt(gamma * Omega_c / 2), its memoryless 2x2 block, and the
closed-form reflection of the memoryless model.  A failed check raises
CheckError with a message naming the quantity.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi
KHZ = TWO_PI * 1e3  # rad/s per kHz

# Closest eigenvalue pair at a reported EP, relative to max |lambda|.  The
# reported (delta, g) carry 17 digits; a double root perturbed by 1e-16
# splits by ~1e-8 relative, while a 1 % error in g splits it by ~1e-2.
EP_GAP_RTOL = 1e-6
# Printed 12-digit values versus independently computed ones.
PRINT_RTOL = 1e-9
# Eigenvalues of a sweep row against numpy's, relative to max |lambda|.
EIG_RTOL = 1e-6
# Petermann factors compared only where well conditioned.
K_COMPARE_MAX = 1e4
K_RTOL = 1e-5
R_SQ_TOL = 1e-9
ORDER_TOL = 0.25
MAX_REL_ERR_LIMIT = 1e-5
KERNEL_ERR_LIMIT = 1e-2


class CheckError(Exception):
    """An output failed an independent check."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _rates(dev):
    """(omega_m, kappa, gamma, Omega_c, g_c) in rad/s."""
    wm, ka, ga, oc = (TWO_PI * v for v in (dev.freq_hz, dev.kappa_hz, dev.gamma_hz, dev.cutoff_hz))
    return wm, ka, ga, oc, math.sqrt(ga * oc / 2.0)


def drift(dev, delta, g):
    """Three-mode drift matrices, shape (N, 3, 3), for rad/s delta and g arrays."""
    wm, ka, ga, oc, gc = _rates(dev)
    g = np.atleast_1d(np.asarray(g, dtype=float))
    m = np.zeros((g.size, 3, 3), dtype=complex)
    m[:, 0, 0] = 1j * np.asarray(delta) - ka / 2.0
    m[:, 0, 1] = m[:, 1, 0] = -1j * g
    m[:, 1, 1] = -(1j * wm + ga / 2.0)
    m[:, 1, 2] = m[:, 2, 1] = -gc
    m[:, 2, 2] = -oc
    return m


def drift_markovian(dev, delta, g):
    """The memoryless two-mode block, shape (N, 2, 2)."""
    return drift(dev, delta, g)[:, :2, :2]


def petermann_factors(mats):
    """Petermann factors from eig: K_i = |col_i(V)|^2 |row_i(V^-1)|^2, sorted per row."""
    _, vr = np.linalg.eig(mats)
    vl = np.linalg.inv(vr)
    k = np.sum(np.abs(vr) ** 2, axis=-2) * np.sum(np.abs(vl) ** 2, axis=-1)
    return np.sort(k, axis=-1)


def _match_error(a, b):
    """Smallest max |a - perm(b)| per row over all permutations of b's columns."""
    perms = [np.max(np.abs(a - b[:, list(p)]), axis=-1)
             for p in itertools.permutations(range(a.shape[-1]))]
    return np.min(np.stack(perms), axis=0)


def parse_kv(text):
    """Key-value report: '# key = value' comments and 'key = value' lines."""
    comments, values = {}, {}
    for line in text.splitlines():
        if " = " not in line:
            continue
        key, value = line.split(" = ", 1)
        if key.startswith("# "):
            comments[key[2:]] = value
        else:
            values[key] = value
    return comments, values


def parse_csv(text):
    comments, _ = parse_kv("\n".join(ln for ln in text.splitlines() if ln.startswith("#")))
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    _require(len(body) >= 2, "CSV has no data rows")
    columns = body[0].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in body[1:]])
    _require(rows.shape[1] == len(columns), "CSV row width differs from its header")
    return comments, columns, rows


def _json_table(text):
    doc = json.loads(text)
    columns = doc["columns"]
    rows = np.array([[math.nan if c is None else c for c in row] for row in doc["rows"]], dtype=float)
    _require(rows.ndim == 2 and rows.shape[1] == len(columns), "JSON row width differs from columns")
    return doc, columns, rows


def _check_params(params_hz, dev):
    expect = {
        "mechanics.freq_hz": dev.freq_hz,
        "mechanics.gamma_hz": dev.gamma_hz,
        "cavity.kappa_hz": dev.kappa_hz,
        "bath.cutoff_hz": dev.cutoff_hz,
    }
    for key, want in expect.items():
        got = float(params_hz[key])
        _require(abs(got - want) <= PRINT_RTOL * abs(want), f"manifest {key} = {got} != {want}")


def check_ep(text, dev):
    """The reported exact (delta, g) is a coalescence of the drift; returns (delta, g) in kHz."""
    comments, v = parse_kv(text)
    _check_params(comments, dev)
    wm, ka, ga, _, _ = _rates(dev)
    mk_delta, mk_g = float(v["markovian_delta_khz"]), float(v["markovian_g_khz"])
    _require(math.isclose(mk_delta * KHZ, -wm, rel_tol=PRINT_RTOL), "markovian delta != -omega_m")
    _require(math.isclose(mk_g * KHZ, (ka - ga) / 4.0, rel_tol=PRINT_RTOL),
             "markovian g != (kappa - gamma) / 4")

    delta_khz, g_khz = float(v["exact_delta_khz"]), float(v["exact_g_khz"])
    _require(delta_khz < 0 and g_khz > 0, "exact EP is not red-detuned with positive coupling")
    lams = np.linalg.eigvals(drift(dev, delta_khz * KHZ, g_khz * KHZ)[0])
    scale = float(np.max(np.abs(lams)))
    pairs = [(0, 1), (0, 2), (1, 2)]
    i, j = min(pairs, key=lambda ij: abs(lams[ij[0]] - lams[ij[1]]))
    gap = abs(lams[i] - lams[j])
    _require(gap <= EP_GAP_RTOL * scale, f"eigenvalues at the EP do not coalesce: gap/scale = {gap / scale:.3g}")
    third = lams[3 - i - j]
    lam_ep = complex(float(v["lambda_ep_re_khz"]), float(v["lambda_ep_im_khz"])) * KHZ
    lam_3 = complex(float(v["lambda_3_re_khz"]), float(v["lambda_3_im_khz"])) * KHZ
    _require(abs(lam_ep - (lams[i] + lams[j]) / 2.0) <= EP_GAP_RTOL * scale, "lambda_ep is off the double root")
    _require(abs(lam_3 - third) <= EP_GAP_RTOL * scale, "lambda_3 is off the third root")
    return delta_khz, g_khz


def _check_k_columns(dev, g_khz, delta_khz, k, div, label):
    """Every K >= 1 or flagged divergent; well-conditioned rows match numpy's K."""
    finite = np.isfinite(k)
    _require(np.all(np.isin(div, (0.0, 1.0))), f"{label}: divergent flags are not 0/1")
    _require(np.all((finite & (k >= 1.0 - 1e-9)) | (div == 1.0)),
             f"{label}: a Petermann factor is below 1 or non-finite without its divergent flag")
    ref = petermann_factors(drift(dev, delta_khz * KHZ, g_khz * KHZ))
    good = np.all(finite & (div == 0.0) & (k < K_COMPARE_MAX), axis=1)
    if np.any(good):
        got = np.sort(k[good], axis=1)
        err = np.max(np.abs(got - ref[good]) / ref[good])
        _require(err <= K_RTOL, f"{label}: Petermann factors differ from numpy's by {err:.3g} relative")


def _petermann_blocks(columns, rows):
    """(suffix, K array, divergent array) per calibration block of a petermann table."""
    blocks = []
    for c, name in enumerate(columns):
        if name.startswith("k_plus"):
            suffix = name[len("k_plus"):]
            blocks.append((suffix, rows[:, c:c + 3], rows[:, c + 3:c + 6]))
    _require(blocks, "petermann table has no K columns")
    return blocks


def check_petermann_csv(text, dev, delta_khz, g_points):
    """Short text-mode petermann probe at the exact EP calibration."""
    comments, columns, rows = parse_csv(text)
    _check_params(comments, dev)
    _require(rows.shape[0] == g_points, f"expected {g_points} rows, got {rows.shape[0]}")
    grid_delta = float(comments["grid.delta_khz.exact"])
    _require(math.isclose(grid_delta, delta_khz, rel_tol=PRINT_RTOL), "probe detuning != exact EP detuning")
    for suffix, k, div in _petermann_blocks(columns, rows):
        _check_k_columns(dev, rows[:, 0], delta_khz, k, div, f"petermann{suffix}")


def check_petermann_json(text, dev):
    doc, columns, rows = _json_table(text)
    _check_params(doc["manifest"]["params_hz"], dev)
    grid = doc["manifest"]["grid"]
    _require(rows.shape[0] == grid["g_points"], "petermann row count != g_points")
    blocks = _petermann_blocks(columns, rows)
    _require(len(blocks) == 2, "petermann --delta-mode both must give two calibrations")
    for suffix, k, div in blocks:
        delta = float(grid[f"delta_khz.{suffix.lstrip('_')}"])
        _check_k_columns(dev, rows[:, 0], delta, k, div, f"petermann{suffix}")


def check_eigs_json(text, dev):
    """Eigenvalues sum to the trace and match numpy's, for both models."""
    doc, columns, rows = _json_table(text)
    _check_params(doc["manifest"]["params_hz"], dev)
    grid = doc["manifest"]["grid"]
    _require(rows.shape[0] == grid["g_points"], "eigs row count != g_points")
    _require(len(columns) == 11, "eigs --markovian-ref must give 11 columns")
    delta = float(grid["delta_khz"]) * KHZ
    g = rows[:, 0] * KHZ
    lams = (rows[:, 1:4] + 1j * rows[:, 4:7]) * KHZ
    mk = (rows[:, 7:9] + 1j * rows[:, 9:11]) * KHZ
    for label, got, mats in (("three-mode", lams, drift(dev, delta, g)),
                             ("markovian", mk, drift_markovian(dev, delta, g))):
        scale = np.max(np.abs(got), axis=1)
        trace = np.trace(mats, axis1=1, axis2=2)
        err = np.max(np.abs(got.sum(axis=1) - trace) / scale)
        _require(err <= EIG_RTOL, f"{label}: eigenvalue sum differs from the trace by {err:.3g}")
        err = np.max(_match_error(got, np.linalg.eigvals(mats)) / scale)
        _require(err <= EIG_RTOL, f"{label}: eigenvalues differ from numpy's by {err:.3g}")


def check_spectrum_json(text, dev):
    """|r|^2 <= 1, the memoryless curve matches its closed form, c_eff/c identity."""
    doc, columns, rows = _json_table(text)
    _check_params(doc["manifest"]["params_hz"], dev)
    _require(columns == ["omega_khz", "r_sq_markovian", "r_sq_nonmarkovian"], "spectrum columns")
    _require(rows.shape[0] == doc["manifest"]["grid"]["omega_points"], "spectrum row count")
    r_sq = rows[:, 1:]
    finite = np.isfinite(r_sq)
    _require(np.all(r_sq[finite] <= 1.0 + R_SQ_TOL) and np.all(r_sq[finite] >= 0.0),
             "|r|^2 outside [0, 1]")

    wm, ka, ga, oc, _ = _rates(dev)
    w = rows[:, 0] * KHZ
    g = (ka - ga) / 4.0
    chi_a = ka / 2.0 - 1j * (w - wm)
    chi_b = ga / 2.0 - 1j * (w - wm)
    ref = np.abs(1.0 - ka * chi_b / (chi_a * chi_b + g * g)) ** 2
    err = np.max(np.abs(rows[:, 1] - ref))
    _require(err <= R_SQ_TOL, f"memoryless |r|^2 differs from its closed form by {err:.3g}")

    summary = doc["summary"]
    coop = summary["cooperativity"]
    ratio = (oc * oc + wm * wm) / (wm * wm)
    _require(math.isclose(coop["c_eff"] / coop["c"], ratio, rel_tol=PRINT_RTOL),
             "c_eff / c != (Omega_c^2 + omega_m^2) / omega_m^2")
    window = 25.0 * dev.gamma_hz / 1e3
    for key in ("dip_markovian", "dip_nonmarkovian"):
        dip = summary[key]
        _require(0.0 <= dip["r_sq_min"] <= 1.0 + R_SQ_TOL, f"{key}: r_sq_min outside [0, 1]")
        _require(abs(dip["omega_min_khz"] - dev.freq_hz / 1e3) <= window * (1 + 1e-9),
                 f"{key}: dip outside omega_m +- 25 gamma")


def check_embedcheck_json(text, dev):
    doc = json.loads(text)
    _check_params(doc["manifest"]["params_hz"], dev)
    e = doc["embedcheck"]
    _require(e["status"] == "PASS", "embedcheck status is not PASS")
    _require(0.0 <= e["max_rel_err"] <= MAX_REL_ERR_LIMIT, "embedding trajectories disagree")
    order = e["order_estimate"]
    _require(order is not None and abs(order - 4.0) <= ORDER_TOL, f"integrator order {order} is not ~4")
    _require(0.0 <= e["kernel_fourier_err"] <= KERNEL_ERR_LIMIT, "memory kernel disagrees with I(w)")


def check_op(workload, dev, texts, probe_points):
    """Check the outputs of one op, in call order; raises CheckError."""
    if workload == "scan":
        delta_khz, _ = check_ep(texts[0], dev)
        check_petermann_csv(texts[1], dev, delta_khz, probe_points)
    elif workload == "sweep":
        check_petermann_json(texts[0], dev)
        check_eigs_json(texts[1], dev)
    elif workload == "selfcheck":
        check_spectrum_json(texts[0], dev)
        check_embedcheck_json(texts[1], dev)
    else:
        raise ValueError(f"unknown workload {workload!r}")
