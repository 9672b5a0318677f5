"""Command-line interface emitting the toolkit's tables and sweep data.

Subcommands: ep (exceptional-point coordinate table), eigs (eigenvalue
branches vs coupling), petermann (mode-nonorthogonality sweep), spectrum
(reflection spectra plus dip and cooperativity summaries) and embedcheck
(integrator cross-validation of the memory embedding).

Each subcommand cmd_<name>(args, p, d) only computes its Table: grid
metadata, columns, data, footer, summary and exit code.  main() alone loads
the configuration, stamps the manifest, writes the artifact through _emit
and maps errors to exit codes.

All file outputs are deterministic: floats are fixed at 12 significant
digits (parameter tables use 17), rows follow grid order, and the manifest
timestamp honors SOURCE_DATE_EPOCH.  JSON is laid out exactly as
json.dumps(doc, indent=2, sort_keys=True).  A table's cells follow one rule,
stated by _cell_rule: a table of fewer than DIGIT_PASS_MIN_CELLS cells takes
it cell by cell, a larger one takes _digit_pass, which prints the same bytes
from arrays of bytes, with no Python object per cell, and sends only its rare
cells (non-finite, outside 1e-4 <= |x| < 1e11, or within 2.5e-4 of a rounding
tie) to the rule.
--quiet without --out builds no artifact.
main(argv) may be called repeatedly in one process; the parser is built on
the first call and reused.  Exit codes: 0 success, 1 invalid configuration,
arguments, output path or SOURCE_DATE_EPOCH, or a warning raised as an
error, 2 solver failure, 3 failed numerical check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
import warnings
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import load_config
from .embedcheck import _resolution_limit, compare_embeddings, convergence_order, kernel_fourier_error
from .epsolver import _perturbative_drive, certify_order_two, markovian_ep, solve_exact_ep
from .errors import ConfigError, OrderCheckFailed, SolverFailure, ToolkitError
from .model import DriveParams, SystemParams, hz_to_rad, rad_to_hz
from .response import _r_sq, cooperativity, dip_metrics
from .spectral import sweep_eigs, sweep_petermann

MAX_REL_ERR_LIMIT = 1e-5
# Largest --g-points / --omega-points accepted; grids are allocated whole.
MAX_GRID_POINTS = 100_000
# Largest SOURCE_DATE_EPOCH: 9999-12-31T23:59:59Z, the last second with a 4-digit year.
MAX_EPOCH = 253_402_300_799

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2, and which reads
    a value such as -1e3 as a negative number, not an option, as it reads -1000."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class Table(NamedTuple):
    """One subcommand's result: what _emit writes and the exit code main returns."""

    grid: dict
    columns: list | None = None
    data: np.ndarray | None = None
    footer: list | tuple = ()
    summary: dict | None = None
    code: int = EXIT_OK


def _manifest(args, p: SystemParams, d: DriveParams, grid: dict) -> dict:
    """Provenance block of every artifact, stamped at SOURCE_DATE_EPOCH or else now."""
    raw = os.environ.get("SOURCE_DATE_EPOCH", "").strip()
    if raw and not (raw.isascii() and raw.isdigit()):
        raise ConfigError(f"SOURCE_DATE_EPOCH={raw!r} is not a whole number of seconds (ASCII digits only)")
    if raw and (len(raw.lstrip("0")) > len(str(MAX_EPOCH)) or int(raw) > MAX_EPOCH):
        raise ConfigError(f"SOURCE_DATE_EPOCH={raw} is out of range (at most {MAX_EPOCH})")
    epoch = int(raw) if raw else int(time.time())
    return {
        "command": args.command,
        "params_hz": {**p.as_hz_dict(), **d.as_hz_dict()},
        "grid": grid,
        "out": args.out,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch)),
    }


def _json_cell(text: str) -> str:
    """JSON form of one ".12g" text: json.dumps(float(text)), which is repr(float(text)), or null
    where the value is not finite."""
    value = float(text)
    return repr(value) if math.isfinite(value) else "null"


def _cell_rule(values, as_json: bool) -> list:
    """The texts of a list of floats: format(x, ".12g"), or in JSON the _json_cell of that.

    The package's one statement of the cell rule.  Small tables take it cell
    by cell, and _digit_pass reproduces it byte for byte on large ones.
    """
    texts = list(map(format, values, repeat(".12g")))
    return list(map(_json_cell, texts)) if as_json else texts


# Tables of at least this many cells take _digit_pass; smaller ones take _cell_rule cell by cell.
# Below it the pass's fixed cost, some 40 numpy calls, outweighs the format calls it saves.
DIGIT_PASS_MIN_CELLS = 200
# The digit pass takes a large table in blocks of rows of at most this many cells (or one row),
# so that its (cells, 4) arrays of 8-byte words stay under 128 KiB, glibc's default mmap
# threshold: larger ones are mapped and unmapped, with page faults, on every block, and raise the
# threshold for the process, which grows its heap.  Its memory then does not grow with the table.
_DIGIT_BLOCK_CELLS = 4000
# The separators (between cells, between rows) of a table's text block, in CSV and in JSON.
_SEPARATORS = {False: (",", "\n"), True: (",\n      ", "\n    ],\n    [\n      ")}
# The digit pass's mask rows: row (sign, e + 5, last) of a (2, 17, 13) grid, for sign 0 or 1,
# exponent e in -5 to 11 and last nonzero digit place last in 0 to 12, then one for rare cells.
_RARE_KEY = 2 * 17 * 13


def _digit_masks():
    """The digit pass's mask rows, CSV's then JSON's, as 0xff or 0 bytes ANDed in 8-byte words.

    A cell's 32 bytes are its marker, "-", "0.000", the rare-cell
    placeholder, then its 12 mantissa digits, each followed by a point.
    Row (sign, e + 5, last) keeps:
    - the marker, and the "-" if sign;
    - for e < 0, "0." and -e - 1 zeros, then digits 1 to last;
    - for e >= 0, digits 1 to max(last, e + 1), with the point after digit
      e + 1 when a digit follows it; in JSON a whole number (last <= e + 1)
      keeps one digit more, a zero: 40 -> 40.0.
    last = 0 is a zero mantissa, shown as one 0.  The rare row keeps the
    marker and the placeholder.
    """
    as_json = np.arange(2)[:, None, None, None, None]
    sign = np.arange(2)[:, None, None, None]
    e = np.arange(-5, 12)[:, None, None]
    last = np.maximum(np.arange(13)[:, None], 1)
    byte = np.arange(32)
    place = (byte - 6) // 2  # digit `place` sits at byte 6 + 2 place, its point at 7 + 2 place
    whole = last <= e + 1
    shown = np.maximum(last, e + 1) + (whole & (as_json == 1))
    keep = (
        (byte == 0)
        | ((byte == 1) & (sign == 1))
        | ((byte >= 2) & (byte <= 3) & (e < 0))
        | ((byte >= 4) & (byte <= 6) & (byte - 4 < -e - 1))
        | ((byte >= 8) & (byte % 2 == 0) & (place <= shown))
        | ((byte >= 9) & (byte % 2 == 1) & (place == e + 1) & (shown > e + 1))
    )
    rows = np.zeros((2, _RARE_KEY + 1, 32), dtype=np.uint8)
    rows[:, :_RARE_KEY] = keep.reshape(2, _RARE_KEY, 32)
    rows[:, _RARE_KEY, [0, 7]] = 1
    return (rows * np.uint8(0xFF)).view(np.uint64)


def _digit_words():
    """The digit pass's words and places.

    - words: (10,002,) 8-byte words.  Word g < 10,000 holds the 4-digit
      group g, each digit followed by a point slot: "d.d.d.d.".  Words
      10,000 and 10,001 are a cell's first word: its marker, "," within a
      row or ";" at a row's start, then "-0.000" and the rare-cell
      placeholder "%".
    - places: (3, 10,000), the place in a 12-digit mantissa of the last
      nonzero digit of g as its first, second or third group; 0 where g = 0.
    """
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)  # digits[:, g] are g's four
    words = np.full((10_002, 8), ord("."), dtype=np.uint8)
    words[:10_000, ::2] = digits.T + ord("0")
    words[10_000:] = np.frombuffer(b",-0.000%;-0.000%", np.uint8).reshape(2, 8)
    last = ((digits > 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    places = np.where(last > 0, last + np.array([[0], [4], [8]], dtype=np.uint8), 0)
    return words.view(np.uint64).ravel(), places


# The digit pass's tables, built at import (see _digit_words and _digit_masks, whose (2, 443, 4)
# rows are CSV's and JSON's); _POWERS holds 10**k, each exact, for the exponent index e + 5 = 0 to 16.
_WORDS, _PLACES = _digit_words()
_MASKS = _digit_masks()
_POWERS = np.array([float(10**k) for k in range(16, -1, -1)])


def _cell_words(x: np.ndarray, cols: int):
    """The digit pass's words and mask rows for the cells x of a table cols wide, in row order.

    Returns the (cells, 4) indices of each cell's words in the words
    table, each cell's mask row and which cells are exact.  A cell x with
    1e-4 <= |x| < 1e11 is printed in fixed notation by ".12g":
    - e = floor(log10|x|), and y = |x| 10**(11 - e) is in [1e11, 1e12).
      10**(11 - e) is exact, so y carries one rounding, at most half an ulp
      below 2**40, 6.1e-5, and m = rint(y) is the 12-digit mantissa that
      ".12g" rounds to;
    - unless y lies within 2.5e-4 of a half-integer, or y falls outside
      [1e11, 1e12 - 0.5) because log10 was off by one.
    Those cells, the non-finite ones and those outside the range are rare,
    and take the rare row; a zero is exact, as m = 0 at e = 0.
    """
    size = np.abs(x)
    fixed = (size >= 1e-4) & (size < 1e11)
    # log10 + 5 is positive, so truncation floors it: e + 5 in 0 to 16.
    e = (np.log10(np.where(fixed, size, 1.0)) + 5.0).astype(np.intp)
    y = np.where(fixed, size, 0.0)
    y *= _POWERS[e]
    m = np.rint(y)
    exact = (fixed & (y >= 1e11) & (m < 1e12) & (np.abs(y - m) < 0.5 - 2.5e-4)) | (size == 0.0)
    index = np.empty((x.size, 4), np.int64)  # int64, so that it views as the uint64 mask rows
    index[:, 0] = 10_000
    index[::cols, 0] = 10_001
    m *= exact
    low = m.astype(np.intp)
    high = low // 100_000_000
    low -= high * 100_000_000
    mid = low // 10_000
    low -= mid * 10_000
    index[:, 1], index[:, 2], index[:, 3] = high, mid, low
    last = np.maximum(np.take(_PLACES[0], high), np.take(_PLACES[1], mid))
    np.maximum(last, np.take(_PLACES[2], low), out=last)
    key = (np.signbit(x) * 17 + e) * 13 + last  # row (sign, e + 5, last)
    key[~exact] = _RARE_KEY
    return index, key, exact


def _digit_pass(table: np.ndarray, as_json: bool) -> str:
    """The text block of a (rows, columns) table, built with no Python object per cell.

    The same bytes as _cell_rule's texts joined by _SEPARATORS.  Each cell's
    four words, ANDed with its mask row, keep the bytes of its text; one
    bytes.translate drops the rest, and the markers become the separators.
    Rare cells leave their placeholder "%", the only "%" in the bytes, which
    their _cell_rule texts replace before the separators go in.
    """
    x = table.ravel()
    index, key, exact = _cell_words(x, table.shape[1])
    cells = np.take(_WORDS, index)
    cells &= np.take(_MASKS[int(as_json)], key, axis=0, out=index.view(np.uint64))  # index is spent
    raw = cells.tobytes().translate(None, b"\0")[1:]
    rare = np.flatnonzero(~exact)
    if rare.size:
        pieces = raw.split(b"%")
        joined = [b""] * (2 * len(pieces) - 1)
        joined[::2] = pieces
        joined[1::2] = map(str.encode, _cell_rule(x[rare].tolist(), as_json))
        raw = b"".join(joined)
    cell_sep, row_sep = _SEPARATORS[as_json]
    if as_json:
        raw = raw.replace(b",", cell_sep.encode())
    return raw.replace(b";", row_sep.encode()).decode("ascii")


def _table_text(data, as_json: bool) -> str:
    """A table's rows as one text block: its CSV lines, or the "rows" value of its JSON document.

    A table of at least DIGIT_PASS_MIN_CELLS cells takes _digit_pass, in
    blocks of rows, a smaller one _cell_rule; both give the same bytes.
    """
    table = np.asarray(data, dtype=float)
    cell_sep, row_sep = _SEPARATORS[as_json]
    if table.size >= DIGIT_PASS_MIN_CELLS:
        rows = max(1, _DIGIT_BLOCK_CELLS // table.shape[1])
        text = row_sep.join([_digit_pass(table[i : i + rows], as_json) for i in range(0, len(table), rows)])
    else:
        cells = _cell_rule(table.ravel().tolist(), as_json)
        text = row_sep.join(map(cell_sep.join, zip(*[iter(cells)] * table.shape[1])))
    if as_json:
        return f"[\n    [\n      {text}\n    ]\n  ]" if text else "[]"
    return text


def _null_non_finite(value):
    """value with every non-finite float in it, at any depth of nested dicts, as None."""
    if isinstance(value, dict):
        return {key: _null_non_finite(item) for key, item in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(args, manifest: dict, table: Table):
    """Write one Table's artifact to --out or stdout; with --quiet and no --out, build nothing.

    Text: the manifest as "# key = value" comment lines (parameters at 12
    significant digits, grid entries as "# grid.key"); with columns, a CSV
    header and one line per row of the (rows, columns) array data; then the
    footer lines.
    JSON: one json.dumps(doc, indent=2, sort_keys=True) + "\\n" of {"manifest",
    "columns", "rows": null, **summary}, each non-finite float null, and the
    table's text block from _table_text in place of that null: a top-level
    key is the only text at indent 2 on its own line, and JSON escapes every
    newline inside a string.
    """
    if args.quiet and not args.out:
        return
    if table.columns is not None:
        rows = _table_text(table.data, args.json)
    if args.json:
        doc = _null_non_finite({"manifest": manifest, **(table.summary or {})})
        if table.columns is not None:
            doc.update(columns=list(table.columns), rows=None)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if table.columns is not None:
            text = text.replace('\n  "rows": null', '\n  "rows": ' + rows, 1)
    else:
        lines = [
            "# eprenorm manifest",
            *(f"# {key} = {manifest[key]}" for key in ("version", "command", "timestamp")),
            f"# out = {manifest['out'] or '-'}",
            *(f"# {key} = {value:.12g}" for key, value in sorted(manifest["params_hz"].items())),
            *(f"# grid.{key} = {value}" for key, value in sorted(manifest["grid"].items())),
        ]
        if table.columns is not None:
            lines.append(",".join(table.columns))
            if rows:
                lines.append(rows)
        lines += table.footer
        text = "\n".join(lines) + "\n"
    if args.out:
        # Under a non-UTF-8 locale a non-ASCII argv path arrives surrogate-escaped; write back its own bytes.
        with open(args.out, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_float(text: str) -> float:
    """argparse type for float flags: a number that is neither inf nor nan."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _resolve_delta(p: SystemParams, mode: str) -> float:
    """Detuning in rad/s for a --delta-mode token."""
    if mode == "markovian":
        return -p.omega_m
    if mode == "exact":
        return solve_exact_ep(p).delta_ep
    if mode.startswith("value:"):
        try:
            delta = hz_to_rad(_finite_float(mode[len("value:"):]) * 1e3)
            return DriveParams(delta=delta, g=0.0).delta  # the rate range check
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ConfigError(f"bad --delta-mode value {mode!r}: {exc}") from None
    raise ConfigError(f"unknown --delta-mode: {mode!r} (use markovian, exact or value:<kHz>)")


def _khz(value_rad):
    """kHz of an angular frequency (scalar or array)."""
    return rad_to_hz(value_rad) / 1e3


def cmd_ep(args, p: SystemParams, d: DriveParams) -> Table:
    """Markovian, perturbative and exact EP coordinates plus the order check; the
    perturbative route prints its coordinates alone, so it runs no eigen-solve."""
    mk = markovian_ep(p)
    pert = _perturbative_drive(p)
    exact = solve_exact_ep(p)
    cert = certify_order_two(p, exact)

    table = {
        "markovian_delta_khz": _khz(mk.delta_ep),
        "markovian_g_khz": _khz(mk.g_ep),
        "perturbative_delta_khz": _khz(pert.delta),
        "perturbative_g_khz": _khz(pert.g),
        "shift_delta_khz": _khz(pert.delta - mk.delta_ep),
        "shift_g_khz": _khz(pert.g - mk.g_ep),
        "exact_delta_khz": _khz(exact.delta_ep),
        "exact_g_khz": _khz(exact.g_ep),
        "lambda_ep_re_khz": _khz(exact.lambda_ep.real),
        "lambda_ep_im_khz": _khz(exact.lambda_ep.imag),
        "lambda_3_re_khz": _khz(exact.lambda_3.real),
        "lambda_3_im_khz": _khz(exact.lambda_3.imag),
        "residual_p": cert.p_mag,
        "residual_dp": cert.dp_mag,
        "second_deriv_mag": cert.ddp_mag,
        "certificate_p_mag": cert.p_mag,
        "certificate_dp_mag": cert.dp_mag,
        "certificate_ddp_mag": cert.ddp_mag,
    }
    footer = [f"{key} = {value:.17g}" for key, value in table.items()]
    return Table({}, footer=footer, summary={"ep": table})


def _grid(args, axis: str, min_points: int):
    """The --<axis>-min/-max/-points grid: (rad/s array, kHz column, manifest grid)."""
    lo, hi, n = (getattr(args, f"{axis}_{key}") for key in ("min", "max", "points"))
    if not min_points <= n <= MAX_GRID_POINTS:
        raise ConfigError(f"--{axis}-points must be between {min_points} and {MAX_GRID_POINTS}")
    if not hi > lo:
        raise ConfigError(f"--{axis}-max must exceed --{axis}-min")
    # Couplings are magnitudes; probe frequencies may be negative.
    if axis == "g" and lo < 0:
        raise ConfigError("--g-min must be non-negative")
    bounds = {f"--{axis}-min": lo, f"--{axis}-max": hi, f"the --{axis}-min/max span": hi - lo}
    for flag, value in bounds.items():
        if not math.isfinite(hz_to_rad(value * 1e3)):
            raise ConfigError(f"{flag} = {value!r} kHz is not finite in rad/s")
    grid_rad = hz_to_rad(np.linspace(lo, hi, n) * 1e3)
    meta = {f"{axis}_min_khz": lo, f"{axis}_max_khz": hi, f"{axis}_points": n}
    return grid_rad, _khz(grid_rad), meta


def cmd_eigs(args, p: SystemParams, d: DriveParams) -> Table:
    """Continuity-matched eigenvalue branches versus coupling."""
    grid_rad, g_khz, grid = _grid(args, "g", 2)
    delta = _resolve_delta(p, args.delta_mode)
    sweep = sweep_eigs(p, delta, grid_rad, markovian_ref=args.markovian_ref)
    grid.update(delta_mode=args.delta_mode, delta_khz=f"{_khz(delta):.12g}")

    columns = ["g_khz", "re_l1_khz", "re_l2_khz", "re_l3_khz", "im_l1_khz", "im_l2_khz", "im_l3_khz"]
    lams = [rad_to_hz(sweep.lambdas)]
    if args.markovian_ref:
        columns += ["mk_re_l1_khz", "mk_re_l2_khz", "mk_im_l1_khz", "mk_im_l2_khz"]
        lams.append(rad_to_hz(sweep.markovian))
    parts = [part for lam in lams for part in (lam.real / 1e3, lam.imag / 1e3)]
    return Table(grid, columns, np.column_stack([g_khz, *parts]))


def _branch_roles(lams, omega_c: float):
    """Indices (plus, minus, pseudo) for one continuity-ordered row of eigenvalues.

    The branch tracking the eliminated bath mode is the one nearest
    -Omega_c; of the two hybrid branches, the slower-decaying one (larger
    real part) is labeled plus.
    """
    idx = list(range(len(lams)))
    pseudo = min(idx, key=lambda i: abs(lams[i] + omega_c))
    hybrids = [i for i in idx if i != pseudo]
    hybrids.sort(key=lambda i: lams[i].real, reverse=True)
    return hybrids[0], hybrids[1], pseudo


def cmd_petermann(args, p: SystemParams, d: DriveParams) -> Table:
    """Petermann factors of the three branches versus coupling."""
    grid_rad, g_khz, grid = _grid(args, "g", 2)
    modes = ["markovian", "exact"] if args.delta_mode == "both" else [args.delta_mode]
    calibrations = [(mode, _resolve_delta(p, mode)) for mode in modes]

    grid["delta_mode"] = args.delta_mode
    columns = ["g_khz"]
    blocks = [g_khz[:, None]]
    for label, delta in calibrations:
        sweep = sweep_petermann(p, delta, grid_rad)
        name = label.split(":")[0]
        suffix = "" if len(calibrations) == 1 else f"_{name}"
        columns += [
            f"{col}{suffix}"
            for col in ("k_plus", "k_minus", "k_3", "div_plus", "div_minus", "div_3")
        ]
        roles = _branch_roles(sweep.lambdas[0].tolist(), p.omega_c)
        blocks += [sweep.petermann[:, roles], sweep.divergent[:, roles]]
        grid[f"delta_khz.{name}"] = f"{_khz(delta):.12g}"
    return Table(grid, columns, np.hstack(blocks))


def cmd_spectrum(args, p: SystemParams, d: DriveParams) -> Table:
    """Reflection spectra with dip metrics and cooperativity summaries.

    Each curve is evaluated at its own exceptional point: the memoryless
    model at the closed-form coordinates, the bath-dressed model at the
    numerically exact ones.
    """
    if not args.markovian_only and p.gamma <= 0.0:
        raise ConfigError("mechanics.gamma_hz must be > 0 for the cooperativity summary"
                          " (--markovian-only emits the memoryless curve alone)")
    omegas, omega_khz, grid = _grid(args, "omega", 1)
    grid["markovian_only"] = int(args.markovian_only)

    columns, series, summary = ["omega_khz"], [omega_khz], {}
    curves = [("markovian", markovian_ep, True), ("nonmarkovian", solve_exact_ep, False)]
    for name, locate, memoryless in curves[: 1 if args.markovian_only else 2]:
        drive = locate(p).drive
        dip = dip_metrics(p, drive, markovian=memoryless)
        columns.append(f"r_sq_{name}")
        series.append(_r_sq(p, drive, omegas, memoryless, math.nan))  # spectrum(...).r_sq, alone
        summary[f"dip_{name}"] = {"omega_min_khz": _khz(dip.omega_min), "r_sq_min": dip.r_sq_min}
    if not args.markovian_only:
        coop = cooperativity(p, drive)  # the last curve's drive: the exact EP
        summary["cooperativity"] = {"c": coop.c, "c_eff": coop.c_eff}
    # The CSV footer repeats the summary with dotted keys (dip_markovian -> dip.markovian).
    footer = [
        f"# {key.replace('_', '.', 1)}.{name} = {value:.12g}"
        for key, block in summary.items()
        for name, value in block.items()
    ]
    return Table(grid, columns, np.column_stack(series), footer, {"summary": summary})


def cmd_embedcheck(args, p: SystemParams, d: DriveParams) -> Table:
    """Cross-validate the auxiliary-mode embedding against direct convolution:
    --dt sets the comparison's step only (default L/2), the order check runs
    at L, L/2 and L/4 from the resolution limit L, and every run ends at
    t_final.  The order check runs first, from propagator powers, so a
    horizon too long for either check fails before any trajectory is stepped."""
    t_final = args.t_final if args.t_final is not None else 20.0 / p.kappa
    dt = args.dt if args.dt is not None else _resolution_limit(p, d) / 2.0
    order, ratio = convergence_order(p, d, (1.0, 1.0, 0.0), t_final)
    max_rel_err = compare_embeddings(p, d, (1.0, 1.0), t_final, dt)
    kernel_err = kernel_fourier_error(p)
    status = "PASS" if max_rel_err <= MAX_REL_ERR_LIMIT else "FAIL"

    report = {
        "max_rel_err": max_rel_err,
        "order_estimate": order,
        "order_ratio": ratio,
        "kernel_fourier_err": kernel_err,
        "status": status,
    }
    formats = {"order_estimate": ".12g", "order_ratio": ".12g", "status": ""}
    footer = [f"{key} = {value:{formats.get(key, '.17g')}}" for key, value in report.items()]
    return Table(
        {"t_final_s": f"{t_final:.12g}", "dt_s": f"{dt:.12g}"},
        footer=footer,
        summary={"embedcheck": report},
        code=EXIT_OK if status == "PASS" else EXIT_CHECK,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eprenorm",
        description="Exceptional points of a linearized optomechanical system "
        "with a structured mechanical bath.",
    )
    parser.add_argument("--config", metavar="PATH", help="INI parameter file")
    parser.add_argument("--out", metavar="PATH", help="write output to a file")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of CSV/text")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ep", help="exceptional-point coordinate table")

    def add_g_flags(sp, delta_default):
        sp.add_argument("--g-min", type=_finite_float, default=40.0, help="sweep start (kHz)")
        sp.add_argument("--g-max", type=_finite_float, default=60.0, help="sweep end (kHz)")
        sp.add_argument("--g-points", type=int, default=401, help="grid size")
        sp.add_argument(
            "--delta-mode",
            default=delta_default,
            help="detuning calibration: markovian, exact or value:<kHz>",
        )

    eigs = sub.add_parser("eigs", help="eigenvalue branches vs coupling")
    add_g_flags(eigs, "markovian")
    eigs.add_argument(
        "--markovian-ref",
        action="store_true",
        help="append the two-mode reference eigenvalues",
    )

    pet = sub.add_parser("petermann", help="Petermann factors vs coupling")
    add_g_flags(pet, "exact")

    spec = sub.add_parser("spectrum", help="reflection spectra and dip metrics")
    spec.add_argument("--omega-min", type=_finite_float, default=900.0, help="probe start (kHz)")
    spec.add_argument("--omega-max", type=_finite_float, default=1100.0, help="probe end (kHz)")
    spec.add_argument("--omega-points", type=int, default=2001, help="grid size")
    spec.add_argument("--markovian-only", action="store_true", help="emit only the memoryless curve")

    emb = sub.add_parser("embedcheck", help="memory-embedding cross-validation")
    emb.add_argument("--t-final", type=_finite_float, default=None, help="integration horizon (s)")
    emb.add_argument("--dt", type=_finite_float, default=None, help="comparison step (s)")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main() reuses: built on its first call, never changed after."""
    return build_parser()


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning for main: one "eprenorm: warning:" line on stderr."""
    sys.stderr.write(f"eprenorm: warning: {message}\n")


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    # Looked up per call, so a rebinding of cli.cmd_* (tracing, tests) takes effect.
    command = globals()[f"cmd_{args.command}"]
    # A shown warning (the resolved-sideband one) prints as one line; one the filters raise
    # as an error exits 1.  The filters, and library callers, are untouched.
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            p, d = load_config(args.config)
            table = command(args, p, d)
            manifest = _manifest(args, p, d, table.grid)
            _emit(args, manifest, table)
        except SolverFailure as exc:
            sys.stderr.write(f"eprenorm: solver failure: {exc}\n")
            return EXIT_SOLVER
        except OrderCheckFailed as exc:
            sys.stderr.write(f"eprenorm: check failure: {exc}\n")
            return EXIT_CHECK
        except (ToolkitError, ValueError, OSError, Warning) as exc:
            sys.stderr.write(f"eprenorm: error: {exc}\n")
            return EXIT_USAGE
    return table.code


if __name__ == "__main__":
    sys.exit(main())
