"""Command-line interface emitting the toolkit's tables and sweep data.

Subcommands: ep (exceptional-point coordinate table), eigs (eigenvalue
branches vs coupling), petermann (mode-nonorthogonality sweep), spectrum
(reflection spectra plus dip and cooperativity summaries) and embedcheck
(integrator cross-validation of the memory embedding).

All file outputs are deterministic: floats are fixed at 12 significant
digits (parameter tables use 17), rows follow grid order, and the manifest
timestamp honors SOURCE_DATE_EPOCH.  Every artifact goes through _emit, and
JSON is laid out exactly as json.dumps(doc, indent=2, sort_keys=True).
main(argv) may be called repeatedly in one process; the parser is built on
the first call and reused.  Exit codes: 0 success, 1 invalid configuration
or arguments, 2 solver failure, 3 failed numerical check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from . import __version__
from .config import load_config
from .embedcheck import compare_embeddings, convergence_order, kernel_fourier_error
from .epsolver import certify_order_two, markovian_ep, perturbative_ep, solve_exact_ep
from .errors import (
    ConfigError,
    DegenerateDenominator,
    NoConvergence,
    NoMarkovianEp,
    NonPhysicalEp,
    OrderCheckFailed,
    PolePseudomode,
    SingularDenominator,
    StepTooLarge,
    ToolkitError,
)
from .model import DriveParams, SystemParams, hz_to_rad, rad_to_hz
from .response import cooperativity, dip_metrics, spectrum
from .spectral import sweep_eigs, sweep_petermann

MAX_REL_ERR_LIMIT = 1e-5
# Largest --g-points / --omega-points accepted; grids are allocated whole.
MAX_GRID_POINTS = 100_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3

_SOLVER_ERRORS = (
    NoMarkovianEp,
    NoConvergence,
    NonPhysicalEp,
    SingularDenominator,
    PolePseudomode,
    DegenerateDenominator,
)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every emitted artifact."""

    command: str
    params_hz: dict
    grid: dict
    out_path: str | None
    version: str
    timestamp: str

    def comment_lines(self):
        lines = [
            "# eprenorm manifest",
            f"# version = {self.version}",
            f"# command = {self.command}",
            f"# timestamp = {self.timestamp}",
            f"# out = {self.out_path or '-'}",
        ]
        lines += [f"# {key} = {value:.12g}" for key, value in sorted(self.params_hz.items())]
        lines += [f"# grid.{key} = {value}" for key, value in sorted(self.grid.items())]
        return lines

    def to_dict(self):
        return {
            "command": self.command,
            "params_hz": dict(sorted(self.params_hz.items())),
            "grid": dict(sorted(self.grid.items())),
            "out": self.out_path,
            "version": self.version,
            "timestamp": self.timestamp,
        }


def _timestamp() -> str:
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    epoch = int(raw) if raw and raw.strip().isdigit() else int(time.time())
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _manifest(args, p: SystemParams, d: DriveParams, grid: dict) -> RunManifest:
    return RunManifest(
        command=args.command,
        params_hz={**p.as_hz_dict(), **d.as_hz_dict()},
        grid=grid,
        out_path=args.out,
        version=__version__,
        timestamp=_timestamp(),
    )


def _json_rows(cells, width: int) -> str:
    """The "rows" value of an indent=2 document, from row-major cell texts.

    Each cell becomes float(text); the C encoder writes them all as
    [[a, b], [c, d]], whose item separators are then re-laid as the indented
    layout at nesting level 1.  Cells are numbers only, so ", " and "], ["
    occur nowhere else, and non-finite values become null.
    """
    flat = json.dumps(list(zip(*[iter(map(float, cells))] * width)))
    if flat == "[]":
        return flat
    flat = flat.replace("-Infinity", "null").replace("Infinity", "null").replace("NaN", "null")
    body = flat[2:-2].replace("], [", "\n    ],\n    [\n      ").replace(", ", ",\n      ")
    return f"[\n    [\n      {body}\n    ]\n  ]"


def _emit(args, manifest: RunManifest, columns=None, data=None, footer=(), summary=None):
    """Write one artifact to --out or stdout (nothing with --quiet).

    Text: the manifest comment block; with columns, a CSV header and one
    line per row of the (rows, columns) array data; then the footer lines.
    JSON: {"manifest", "columns", "rows", **summary}, byte for byte
    json.dumps(doc, indent=2, sort_keys=True) + "\\n".  Each table cell is
    printed once as format(x, ".12g"); its JSON value is float() of that
    text, null if not finite.
    """
    if columns is not None:
        flat = np.asarray(data, dtype=float).ravel().tolist()
        cells = list(map(format, flat, repeat(".12g")))
    if args.json:
        doc = {"manifest": manifest.to_dict(), **(summary or {})}
        if columns is not None:
            doc["columns"] = list(columns)
        parts = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
                 for key, value in doc.items()}
        if columns is not None:
            parts["rows"] = _json_rows(cells, len(columns))
        text = ",\n".join(f"  {json.dumps(key)}: {parts[key]}" for key in sorted(parts))
        text = f"{{\n{text}\n}}\n"
    else:
        lines = manifest.comment_lines()
        if columns is not None:
            lines.append(",".join(columns))
            lines += map(",".join, zip(*[iter(cells)] * len(columns)))
        lines += footer
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    elif not args.quiet:
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


def cmd_ep(args) -> int:
    """Markovian, perturbative and exact EP coordinates plus the order check."""
    p, d = load_config(args.config)
    mk = markovian_ep(p)
    pert = perturbative_ep(p)
    exact = solve_exact_ep(p)
    cert = certify_order_two(p, exact)
    manifest = _manifest(args, p, d, grid={})

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
    _emit(args, manifest, footer=footer, summary={"ep": table})
    return EXIT_OK


def _g_grid(args):
    """Coupling grid of a sweep: (rad/s array, kHz column)."""
    if not 2 <= args.g_points <= MAX_GRID_POINTS:
        raise ConfigError(f"--g-points must be between 2 and {MAX_GRID_POINTS}")
    if not args.g_max > args.g_min:
        raise ConfigError("--g-max must exceed --g-min")
    if args.g_min < 0:
        raise ConfigError("--g-min must be non-negative")
    grid_rad = hz_to_rad(np.linspace(args.g_min, args.g_max, args.g_points) * 1e3)
    return grid_rad, _khz(grid_rad)


def cmd_eigs(args) -> int:
    """Continuity-matched eigenvalue branches versus coupling."""
    p, d = load_config(args.config)
    grid_rad, g_khz = _g_grid(args)
    delta = _resolve_delta(p, args.delta_mode)
    sweep = sweep_eigs(p, delta, grid_rad, markovian_ref=args.markovian_ref)
    grid_meta = {
        "g_min_khz": args.g_min,
        "g_max_khz": args.g_max,
        "g_points": args.g_points,
        "delta_mode": args.delta_mode,
        "delta_khz": f"{_khz(delta):.12g}",
    }
    manifest = _manifest(args, p, d, grid_meta)

    columns = ["g_khz", "re_l1_khz", "re_l2_khz", "re_l3_khz", "im_l1_khz", "im_l2_khz", "im_l3_khz"]
    lams = [sweep.lambdas_hz]
    if args.markovian_ref:
        columns += ["mk_re_l1_khz", "mk_re_l2_khz", "mk_im_l1_khz", "mk_im_l2_khz"]
        lams.append(sweep.markovian_hz)
    parts = [part for lam in lams for part in (lam.real / 1e3, lam.imag / 1e3)]
    _emit(args, manifest, columns, np.column_stack([g_khz, *parts]))
    return EXIT_OK


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


def cmd_petermann(args) -> int:
    """Petermann factors of the three branches versus coupling."""
    p, d = load_config(args.config)
    grid_rad, g_khz = _g_grid(args)
    if args.delta_mode == "both":
        calibrations = [("markovian", -p.omega_m), ("exact", solve_exact_ep(p).delta_ep)]
    else:
        calibrations = [(args.delta_mode, _resolve_delta(p, args.delta_mode))]
    omega_c_hz = rad_to_hz(p.omega_c)

    grid_meta = {
        "g_min_khz": args.g_min,
        "g_max_khz": args.g_max,
        "g_points": args.g_points,
        "delta_mode": args.delta_mode,
    }
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
        roles = _branch_roles(sweep.lambdas_hz[0].tolist(), omega_c_hz)
        blocks += [sweep.petermann[:, roles], sweep.divergent[:, roles]]
        grid_meta[f"delta_khz.{name}"] = f"{_khz(delta):.12g}"
    manifest = _manifest(args, p, d, grid_meta)
    _emit(args, manifest, columns, np.hstack(blocks))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    """Reflection spectra with dip metrics and cooperativity summaries.

    Each curve is evaluated at its own exceptional point: the memoryless
    model at the closed-form coordinates, the bath-dressed model at the
    numerically exact ones.
    """
    p, d = load_config(args.config)
    if not 1 <= args.omega_points <= MAX_GRID_POINTS:
        raise ConfigError(f"--omega-points must be between 1 and {MAX_GRID_POINTS}")
    if not args.omega_max > args.omega_min:
        raise ConfigError("--omega-max must exceed --omega-min")
    omegas = hz_to_rad(np.linspace(args.omega_min, args.omega_max, args.omega_points) * 1e3)

    mk = markovian_ep(p)
    mk_dip = dip_metrics(p, mk.drive, markovian=True)
    columns = ["omega_khz", "r_sq_markovian"]
    summary = {
        "dip_markovian": {"omega_min_khz": _khz(mk_dip.omega_min), "r_sq_min": mk_dip.r_sq_min}
    }
    series = [_khz(omegas), spectrum(p, mk.drive, omegas, markovian=True).r_sq]

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

    grid_meta = {
        "omega_min_khz": args.omega_min,
        "omega_max_khz": args.omega_max,
        "omega_points": args.omega_points,
        "markovian_only": int(args.markovian_only),
    }
    manifest = _manifest(args, p, d, grid_meta)
    _emit(args, manifest, columns, np.column_stack(series), footer, {"summary": summary})
    return EXIT_OK


def cmd_embedcheck(args) -> int:
    """Cross-validate the auxiliary-mode embedding against direct convolution."""
    p, d = load_config(args.config)
    t_final = args.t_final if args.t_final is not None else 20.0 / p.kappa
    dt = args.dt if args.dt is not None else 1.0 / (100.0 * p.omega_m)
    init_ab = (1.0, 1.0)

    # The order check runs first: its up-front step bound covers the dt/4 run.
    order, ratio = convergence_order(p, d, (1.0, 1.0, 0.0), t_final, dt)
    max_rel_err = compare_embeddings(p, d, init_ab, t_final, dt)
    kernel_err = kernel_fourier_error(p)
    status = "PASS" if max_rel_err <= MAX_REL_ERR_LIMIT else "FAIL"

    manifest = _manifest(args, p, d, {"t_final_s": f"{t_final:.12g}", "dt_s": f"{dt:.12g}"})
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
    _emit(args, manifest, footer=footer, summary={"embedcheck": report})
    return EXIT_OK if status == "PASS" else EXIT_CHECK


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
    spec.add_argument(
        "--markovian-only", action="store_true", help="emit only the memoryless curve"
    )

    emb = sub.add_parser("embedcheck", help="memory-embedding cross-validation")
    emb.add_argument("--t-final", type=_finite_float, default=None, help="integration horizon (s)")
    emb.add_argument("--dt", type=_finite_float, default=None, help="integrator step (s)")
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
        return command(args)
    except (ConfigError, StepTooLarge, ValueError) as exc:
        sys.stderr.write(f"eprenorm: error: {exc}\n")
        return EXIT_USAGE
    except _SOLVER_ERRORS as exc:
        sys.stderr.write(f"eprenorm: solver failure: {exc}\n")
        return EXIT_SOLVER
    except OrderCheckFailed as exc:
        sys.stderr.write(f"eprenorm: check failure: {exc}\n")
        return EXIT_CHECK
    except ToolkitError as exc:
        sys.stderr.write(f"eprenorm: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
