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
json.dumps(doc, indent=2, sort_keys=True).  Each table cell is formatted
once, as its ".12g" text: CSV prints that text, and JSON lays the same text
out as json.dumps would print float(text).  No float is parsed back: a
decimal of at most 15 significant digits round-trips exactly through a
double, so repr(float(text)) has the text's own digits and only a few
layout fixups remain (listed at _json_rows).  --quiet without --out builds
no artifact.  main(argv) may be called repeatedly in one process; the
parser is built on the first call and reused.  Exit codes: 0 success, 1
invalid configuration, arguments, output path or SOURCE_DATE_EPOCH, 2
solver failure, 3 failed numerical check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import load_config
from .embedcheck import (
    MAX_DT_FRACTION, _order_steps, compare_embeddings, convergence_order, kernel_fourier_error
)
from .epsolver import certify_order_two, markovian_ep, perturbative_ep, solve_exact_ep
from .errors import ConfigError, OrderCheckFailed, SolverFailure, ToolkitError
from .model import DriveParams, SystemParams, hz_to_rad, rad_to_hz
from .response import cooperativity, dip_metrics, spectrum
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
    """argparse variant whose usage errors exit with code 1, not 2."""

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
    digits = raw.isascii() and raw.isdigit()
    if digits and (len(raw.lstrip("0")) > len(str(MAX_EPOCH)) or int(raw) > MAX_EPOCH):
        raise ConfigError(f"SOURCE_DATE_EPOCH={raw} is out of range (at most {MAX_EPOCH})")
    epoch = int(raw) if digits else int(time.time())
    return {
        "command": args.command,
        "params_hz": {**p.as_hz_dict(), **d.as_hz_dict()},
        "grid": grid,
        "out": args.out,
        "version": __version__,
        "timestamp": datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def _json_cell(text: str) -> str:
    """JSON form of a ".12g" text that is not plain fixed notation with a point."""
    if "e" not in text:
        # inf, -inf and nan end in f or n; anything else is a whole number.
        return "null" if text[-1] in "fn" else text + ".0"
    exponent = int(text[text.index("e") + 1 :])
    if 12 <= exponent <= 15 or exponent < -307:
        return repr(float(text))
    return text


def _json_rows(cells, width: int) -> str:
    """The "rows" value of an indent=2 document, from row-major ".12g" cell texts.

    Each cell's JSON value is float(text), written as json.dumps writes it
    (repr), or null if not finite.  A ".12g" text has at most 12
    significant digits, and every decimal with at most 15 is recovered
    exactly from its double, so repr(float(text)) has the digits of the
    text itself and only the layout can differ.  The text is thus its own
    JSON form, except that:
    - inf, -inf and nan become null;
    - a text with no point and no exponent gains ".0" (40 -> 40.0, -0 -> -0.0);
    - exponents 12 to 15 take repr(float(text)), because ".12g" switches
      to e-notation at 1e12 where repr waits until 1e16;
    - so do exponents below -307, where a double may be subnormal and
      carry fewer than 12 digits.
    The common case, a text with a point and no exponent, is kept as is
    after two substring tests; _json_cell handles the rest.
    """
    if not cells:
        return "[]"
    texts = [t if "." in t and "e" not in t else _json_cell(t) for t in cells]
    rows = map(",\n      ".join, zip(*[iter(texts)] * width))
    body = "\n    ],\n    [\n      ".join(rows)
    return f"[\n    [\n      {body}\n    ]\n  ]"


def _emit(args, manifest: dict, columns=None, data=None, footer=(), summary=None):
    """Write one artifact to --out or stdout; with --quiet and no --out, build nothing.

    Text: the manifest as "# key = value" comment lines (parameters at 12
    significant digits, grid entries as "# grid.key"); with columns, a CSV
    header and one line per row of the (rows, columns) array data; then the
    footer lines.
    JSON: {"manifest", "columns", "rows", **summary}, byte for byte
    json.dumps(doc, indent=2, sort_keys=True) + "\\n".  Each table cell is
    printed once as format(x, ".12g"); that one text is the CSV cell, and
    _json_rows lays it out as the JSON value float(text), null if not
    finite, without converting it back to a float.
    """
    if args.quiet and not args.out:
        return
    if columns is not None:
        flat = np.asarray(data, dtype=float).ravel().tolist()
        cells = list(map(format, flat, repeat(".12g")))
    if args.json:
        doc = {"manifest": manifest, **(summary or {})}
        if columns is not None:
            doc["columns"] = list(columns)
        parts = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
                 for key, value in doc.items()}
        if columns is not None:
            parts["rows"] = _json_rows(cells, len(columns))
        text = ",\n".join(f"  {json.dumps(key)}: {parts[key]}" for key in sorted(parts))
        text = f"{{\n{text}\n}}\n"
    else:
        lines = [
            "# eprenorm manifest",
            *(f"# {key} = {manifest[key]}" for key in ("version", "command", "timestamp")),
            f"# out = {manifest['out'] or '-'}",
            *(f"# {key} = {value:.12g}" for key, value in sorted(manifest["params_hz"].items())),
            *(f"# grid.{key} = {value}" for key, value in sorted(manifest["grid"].items())),
        ]
        if columns is not None:
            lines.append(",".join(columns))
            lines += map(",".join, zip(*[iter(cells)] * len(columns)))
        lines += footer
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
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
            return hz_to_rad(_finite_float(mode[len("value:"):]) * 1e3)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"bad --delta-mode value {mode!r}: {exc}") from None
    raise ConfigError(f"unknown --delta-mode: {mode!r} (use markovian, exact or value:<kHz>)")


def _khz(value_rad):
    """kHz of an angular frequency (scalar or array)."""
    return rad_to_hz(value_rad) / 1e3


def cmd_ep(args, p: SystemParams, d: DriveParams) -> Table:
    """Markovian, perturbative and exact EP coordinates plus the order check."""
    mk = markovian_ep(p)
    pert = perturbative_ep(p)
    exact = solve_exact_ep(p)
    cert = certify_order_two(p, exact)

    table = {
        "markovian_delta_khz": _khz(mk.delta_ep),
        "markovian_g_khz": _khz(mk.g_ep),
        "perturbative_delta_khz": _khz(pert.delta_ep),
        "perturbative_g_khz": _khz(pert.g_ep),
        "shift_delta_khz": _khz(pert.delta_ep - mk.delta_ep),
        "shift_g_khz": _khz(pert.g_ep - mk.g_ep),
        "exact_delta_khz": _khz(exact.delta_ep),
        "exact_g_khz": _khz(exact.g_ep),
        "lambda_ep_re_khz": _khz(exact.lambda_ep.real),
        "lambda_ep_im_khz": _khz(exact.lambda_ep.imag),
        "lambda_3_re_khz": _khz(exact.lambda_3.real),
        "lambda_3_im_khz": _khz(exact.lambda_3.imag),
        "residual_p": exact.residual_p,
        "residual_dp": exact.residual_dp,
        "second_deriv_mag": exact.second_deriv_mag,
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
    lams = [sweep.lambdas_hz]
    if args.markovian_ref:
        columns += ["mk_re_l1_khz", "mk_re_l2_khz", "mk_im_l1_khz", "mk_im_l2_khz"]
        lams.append(sweep.markovian_hz)
    parts = [part for lam in lams for part in (lam.real / 1e3, lam.imag / 1e3)]
    return Table(grid, columns, np.column_stack([g_khz, *parts]))


def _branch_roles(lams_hz, omega_c_hz: float):
    """Indices (plus, minus, pseudo) for one continuity-ordered row of eigenvalues.

    The branch tracking the eliminated bath mode is the one nearest
    -Omega_c; of the two hybrid branches, the slower-decaying one (larger
    real part) is labeled plus.
    """
    idx = list(range(len(lams_hz)))
    pseudo = min(idx, key=lambda i: abs(lams_hz[i] + omega_c_hz))
    hybrids = [i for i in idx if i != pseudo]
    hybrids.sort(key=lambda i: lams_hz[i].real, reverse=True)
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
        roles = _branch_roles(sweep.lambdas_hz[0].tolist(), rad_to_hz(p.omega_c))
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

    mk = markovian_ep(p)
    mk_dip = dip_metrics(p, mk.drive, markovian=True)
    columns = ["omega_khz", "r_sq_markovian"]
    summary = {
        "dip_markovian": {"omega_min_khz": _khz(mk_dip.omega_min), "r_sq_min": mk_dip.r_sq_min}
    }
    series = [omega_khz, spectrum(p, mk.drive, omegas, markovian=True).r_sq]

    if not args.markovian_only:
        exact = solve_exact_ep(p)
        nm_dip = dip_metrics(p, exact.drive, markovian=False)
        coop = cooperativity(p, exact.drive)
        columns.append("r_sq_nonmarkovian")
        series.append(spectrum(p, exact.drive, omegas, markovian=False).r_sq)
        summary["dip_nonmarkovian"] = {
            "omega_min_khz": _khz(nm_dip.omega_min),
            "r_sq_min": nm_dip.r_sq_min,
        }
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
    t_final.  A horizon too long for either check fails before anything
    integrates."""
    t_final = args.t_final if args.t_final is not None else 20.0 / p.kappa
    dt = args.dt if args.dt is not None else MAX_DT_FRACTION / (2.0 * max(p.omega_m, p.omega_c))
    _order_steps(p, t_final)
    max_rel_err = compare_embeddings(p, d, (1.0, 1.0), t_final, dt)
    order, ratio = convergence_order(p, d, (1.0, 1.0, 0.0), t_final)
    kernel_err = kernel_fourier_error(p)
    status = "PASS" if max_rel_err <= MAX_REL_ERR_LIMIT else "FAIL"

    footer = [
        f"max_rel_err = {max_rel_err:.17g}",
        f"order_estimate = {order:.12g}",
        f"order_ratio = {ratio:.12g}",
        f"kernel_fourier_err = {kernel_err:.17g}",
        f"status = {status}",
    ]
    report = {
        "max_rel_err": max_rel_err,
        "order_estimate": order if math.isfinite(order) else None,
        "order_ratio": ratio if math.isfinite(ratio) else None,
        "kernel_fourier_err": kernel_err,
        "status": status,
    }
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


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    # Looked up per call, so a rebinding of cli.cmd_* (tracing, tests) takes effect.
    command = globals()[f"cmd_{args.command}"]
    try:
        p, d = load_config(args.config)
        table = command(args, p, d)
        manifest = _manifest(args, p, d, table.grid)
        _emit(args, manifest, table.columns, table.data, table.footer, table.summary)
    except SolverFailure as exc:
        sys.stderr.write(f"eprenorm: solver failure: {exc}\n")
        return EXIT_SOLVER
    except OrderCheckFailed as exc:
        sys.stderr.write(f"eprenorm: check failure: {exc}\n")
        return EXIT_CHECK
    except (ToolkitError, ValueError, OSError) as exc:
        sys.stderr.write(f"eprenorm: error: {exc}\n")
        return EXIT_USAGE
    return table.code


if __name__ == "__main__":
    sys.exit(main())
