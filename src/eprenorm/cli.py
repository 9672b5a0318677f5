"""Command-line interface emitting the toolkit's tables and sweep data.

Subcommands: ep (exceptional-point coordinate table), eigs (eigenvalue
branches vs coupling), petermann (mode-nonorthogonality sweep), spectrum
(reflection spectra plus dip and cooperativity summaries) and embedcheck
(integrator cross-validation of the memory embedding).

All file outputs are deterministic: floats are fixed at 12 significant
digits (parameter tables use 17), rows follow grid order, and the manifest
timestamp honors SOURCE_DATE_EPOCH.  Exit codes: 0 success, 1 invalid
configuration or arguments, 2 solver failure, 3 failed numerical check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

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
        lines += [f"# {key} = {_fmt(value)}" for key, value in sorted(self.params_hz.items())]
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


def _fmt(value) -> str:
    return format(float(value), ".12g")


def _fmt17(value) -> str:
    return format(float(value), ".17g")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


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


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    elif not args.quiet:
        sys.stdout.write(text)


def _resolve_delta(p: SystemParams, mode: str) -> float:
    """Detuning in rad/s for a --delta-mode token."""
    if mode == "markovian":
        return -p.omega_m
    if mode == "exact":
        return solve_exact_ep(p).delta_ep
    if mode.startswith("value:"):
        try:
            return hz_to_rad(float(mode[len("value:"):]) * 1e3)
        except ValueError:
            raise ConfigError(f"bad --delta-mode value: {mode!r}") from None
    raise ConfigError(f"unknown --delta-mode: {mode!r} (use markovian, exact or value:<kHz>)")


def _khz(value_rad: float) -> float:
    return rad_to_hz(value_rad) / 1e3


def _csv(manifest: RunManifest, columns, rows, footer=()):
    lines = manifest.comment_lines()
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(row))
    lines += footer
    return "\n".join(lines) + "\n"


def _json_doc(manifest: RunManifest, payload: dict) -> str:
    return json.dumps({"manifest": manifest.to_dict(), **payload}, indent=2, sort_keys=True) + "\n"


def _kv_report(manifest: RunManifest, pairs) -> str:
    lines = manifest.comment_lines()
    lines += [f"{key} = {value}" for key, value in pairs]
    return "\n".join(lines) + "\n"


def cmd_ep(args) -> int:
    """Markovian, perturbative and exact EP coordinates plus the order check."""
    p, d = load_config(args.config)
    mk = markovian_ep(p)
    pert = perturbative_ep(p)
    exact = solve_exact_ep(p)
    cert = certify_order_two(p, exact)
    manifest = _manifest(args, p, d, grid={})

    table = [
        ("markovian_delta_khz", _khz(mk.delta_ep)),
        ("markovian_g_khz", _khz(mk.g_ep)),
        ("perturbative_delta_khz", _khz(pert.delta_ep)),
        ("perturbative_g_khz", _khz(pert.g_ep)),
        ("shift_delta_khz", _khz(pert.delta_ep - mk.delta_ep)),
        ("shift_g_khz", _khz(pert.g_ep - mk.g_ep)),
        ("exact_delta_khz", _khz(exact.delta_ep)),
        ("exact_g_khz", _khz(exact.g_ep)),
        ("lambda_ep_re_khz", _khz(exact.lambda_ep.real)),
        ("lambda_ep_im_khz", _khz(exact.lambda_ep.imag)),
        ("lambda_3_re_khz", _khz(exact.lambda_3.real)),
        ("lambda_3_im_khz", _khz(exact.lambda_3.imag)),
        ("residual_p", exact.residual_p),
        ("residual_dp", exact.residual_dp),
        ("second_deriv_mag", exact.second_deriv_mag),
        ("certificate_p_mag", cert.p_mag),
        ("certificate_dp_mag", cert.dp_mag),
        ("certificate_ddp_mag", cert.ddp_mag),
    ]
    if args.json:
        _emit(args, _json_doc(manifest, {"ep": {key: value for key, value in table}}))
    else:
        _emit(args, _kv_report(manifest, [(key, _fmt17(value)) for key, value in table]))
    return EXIT_OK


def _g_grid(args):
    if not 2 <= args.g_points <= MAX_GRID_POINTS:
        raise ConfigError(f"--g-points must be between 2 and {MAX_GRID_POINTS}")
    if not args.g_max > args.g_min:
        raise ConfigError("--g-max must exceed --g-min")
    if args.g_min < 0:
        raise ConfigError("--g-min must be non-negative")
    khz = np.linspace(args.g_min, args.g_max, args.g_points)
    return khz, [hz_to_rad(k * 1e3) for k in khz]


def cmd_eigs(args) -> int:
    """Continuity-matched eigenvalue branches versus coupling."""
    p, d = load_config(args.config)
    _, grid_rad = _g_grid(args)
    delta = _resolve_delta(p, args.delta_mode)
    rows = sweep_eigs(p, delta, grid_rad, markovian_ref=args.markovian_ref)
    grid_meta = {
        "g_min_khz": args.g_min,
        "g_max_khz": args.g_max,
        "g_points": args.g_points,
        "delta_mode": args.delta_mode,
        "delta_khz": _fmt(_khz(delta)),
    }
    manifest = _manifest(args, p, d, grid_meta)

    columns = ["g_khz", "re_l1_khz", "re_l2_khz", "re_l3_khz", "im_l1_khz", "im_l2_khz", "im_l3_khz"]
    if args.markovian_ref:
        columns += ["mk_re_l1_khz", "mk_re_l2_khz", "mk_im_l1_khz", "mk_im_l2_khz"]
    data = []
    for row in rows:
        cells = [row.coord_hz / 1e3]
        cells += [lam.real / 1e3 for lam in row.lambdas_hz]
        cells += [lam.imag / 1e3 for lam in row.lambdas_hz]
        if args.markovian_ref:
            cells += [lam.real / 1e3 for lam in row.markovian_hz]
            cells += [lam.imag / 1e3 for lam in row.markovian_hz]
        data.append([_fmt(c) for c in cells])
    if args.json:
        payload = {"columns": columns, "rows": [[float(c) for c in row] for row in data]}
        _emit(args, _json_doc(manifest, payload))
    else:
        _emit(args, _csv(manifest, columns, data))
    return EXIT_OK


def _branch_roles(row, omega_c_hz: float):
    """Indices (plus, minus, pseudo) for one continuity-ordered row.

    The branch tracking the eliminated bath mode is the one nearest
    -Omega_c; of the two hybrid branches, the slower-decaying one (larger
    real part) is labeled plus.
    """
    idx = list(range(len(row.lambdas_hz)))
    pseudo = min(idx, key=lambda i: abs(row.lambdas_hz[i] + omega_c_hz))
    hybrids = [i for i in idx if i != pseudo]
    hybrids.sort(key=lambda i: row.lambdas_hz[i].real, reverse=True)
    return hybrids[0], hybrids[1], pseudo


def cmd_petermann(args) -> int:
    """Petermann factors of the three branches versus coupling."""
    p, d = load_config(args.config)
    _, grid_rad = _g_grid(args)
    if args.delta_mode == "both":
        calibrations = [("markovian", -p.omega_m), ("exact", solve_exact_ep(p).delta_ep)]
    else:
        calibrations = [(args.delta_mode, _resolve_delta(p, args.delta_mode))]
    omega_c_hz = rad_to_hz(p.omega_c)

    columns = ["g_khz"]
    per_cal_rows = []
    deltas = {}
    for label, delta in calibrations:
        rows = sweep_petermann(p, delta, grid_rad)
        suffix = "" if len(calibrations) == 1 else f"_{label.split(':')[0]}"
        columns += [
            f"k_plus{suffix}",
            f"k_minus{suffix}",
            f"k_3{suffix}",
            f"div_plus{suffix}",
            f"div_minus{suffix}",
            f"div_3{suffix}",
        ]
        roles = _branch_roles(rows[0], omega_c_hz)
        per_cal_rows.append((rows, roles))
        deltas[label] = delta

    grid_meta = {
        "g_min_khz": args.g_min,
        "g_max_khz": args.g_max,
        "g_points": args.g_points,
        "delta_mode": args.delta_mode,
    }
    for label, delta in deltas.items():
        grid_meta[f"delta_khz.{label.split(':')[0]}"] = _fmt(_khz(delta))
    manifest = _manifest(args, p, d, grid_meta)

    data = []
    for kik, _g in enumerate(grid_rad):
        cells = [_fmt(rad_to_hz(_g) / 1e3)]
        for rows, (i_plus, i_minus, i_pseudo) in per_cal_rows:
            row = rows[kik]
            cells += [
                _fmt(row.petermann[i_plus]),
                _fmt(row.petermann[i_minus]),
                _fmt(row.petermann[i_pseudo]),
                str(int(row.divergent[i_plus])),
                str(int(row.divergent[i_minus])),
                str(int(row.divergent[i_pseudo])),
            ]
        data.append(cells)
    if args.json:
        payload = {
            "columns": columns,
            "rows": [[_json_safe(float(c)) for c in row] for row in data],
        }
        _emit(args, _json_doc(manifest, payload))
    else:
        _emit(args, _csv(manifest, columns, data))
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
    omegas = [
        hz_to_rad(k * 1e3)
        for k in np.linspace(args.omega_min, args.omega_max, args.omega_points)
    ]

    mk = markovian_ep(p)
    mk_points = spectrum(p, mk.drive, omegas, markovian=True)
    mk_dip = dip_metrics(p, mk.drive, markovian=True)
    footer = [
        f"# dip.markovian.omega_min_khz = {_fmt(_khz(mk_dip.omega_min))}",
        f"# dip.markovian.r_sq_min = {_fmt(mk_dip.r_sq_min)}",
    ]
    columns = ["omega_khz", "r_sq_markovian"]
    summary = {
        "dip_markovian": {"omega_min_khz": _khz(mk_dip.omega_min), "r_sq_min": mk_dip.r_sq_min}
    }
    series = [mk_points]

    exact = None
    if not args.markovian_only:
        exact = solve_exact_ep(p)
        nm_points = spectrum(p, exact.drive, omegas, markovian=False)
        nm_dip = dip_metrics(p, exact.drive, markovian=False)
        coop = cooperativity(p, exact.drive)
        columns.append("r_sq_nonmarkovian")
        series.append(nm_points)
        footer += [
            f"# dip.nonmarkovian.omega_min_khz = {_fmt(_khz(nm_dip.omega_min))}",
            f"# dip.nonmarkovian.r_sq_min = {_fmt(nm_dip.r_sq_min)}",
            f"# cooperativity.c = {_fmt(coop.c)}",
            f"# cooperativity.c_eff = {_fmt(coop.c_eff)}",
        ]
        summary["dip_nonmarkovian"] = {
            "omega_min_khz": _khz(nm_dip.omega_min),
            "r_sq_min": nm_dip.r_sq_min,
        }
        summary["cooperativity"] = {"c": coop.c, "c_eff": coop.c_eff}

    grid_meta = {
        "omega_min_khz": args.omega_min,
        "omega_max_khz": args.omega_max,
        "omega_points": args.omega_points,
        "markovian_only": int(args.markovian_only),
    }
    manifest = _manifest(args, p, d, grid_meta)

    data = []
    for k, omega in enumerate(omegas):
        cells = [_fmt(_khz(omega))]
        cells += [_fmt(pts[k].r_sq) for pts in series]
        data.append(cells)
    if args.json:
        payload = {
            "columns": columns,
            "rows": [[_json_safe(float(c)) for c in row] for row in data],
            "summary": summary,
        }
        _emit(args, _json_doc(manifest, payload))
    else:
        _emit(args, _csv(manifest, columns, data, footer=footer))
    return EXIT_OK


def cmd_embedcheck(args) -> int:
    """Cross-validate the auxiliary-mode embedding against direct convolution."""
    p, d = load_config(args.config)
    t_final = args.t_final if args.t_final is not None else 20.0 / p.kappa
    dt = args.dt if args.dt is not None else 1.0 / (100.0 * p.omega_m)
    init_ab = (1.0, 1.0)

    max_rel_err = compare_embeddings(p, d, init_ab, t_final, dt)
    order, ratio = convergence_order(p, d, (1.0, 1.0, 0.0), t_final, dt)
    kernel_err = kernel_fourier_error(p)
    passed = max_rel_err <= MAX_REL_ERR_LIMIT

    grid_meta = {"t_final_s": _fmt(t_final), "dt_s": _fmt(dt)}
    manifest = _manifest(args, p, d, grid_meta)
    pairs = [
        ("max_rel_err", _fmt17(max_rel_err)),
        ("order_estimate", _fmt(order)),
        ("order_ratio", _fmt(ratio)),
        ("kernel_fourier_err", _fmt17(kernel_err)),
        ("status", "PASS" if passed else "FAIL"),
    ]
    if args.json:
        payload = {
            "embedcheck": {
                "max_rel_err": max_rel_err,
                "order_estimate": _json_safe(order),
                "order_ratio": _json_safe(ratio),
                "kernel_fourier_err": kernel_err,
                "status": "PASS" if passed else "FAIL",
            }
        }
        _emit(args, _json_doc(manifest, payload))
    else:
        _emit(args, _kv_report(manifest, pairs))
    return EXIT_OK if passed else EXIT_CHECK


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

    ep = sub.add_parser("ep", help="exceptional-point coordinate table")
    ep.set_defaults(func=cmd_ep)

    def add_g_flags(sp, delta_default):
        sp.add_argument("--g-min", type=float, default=40.0, help="sweep start (kHz)")
        sp.add_argument("--g-max", type=float, default=60.0, help="sweep end (kHz)")
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
    eigs.set_defaults(func=cmd_eigs)

    pet = sub.add_parser("petermann", help="Petermann factors vs coupling")
    add_g_flags(pet, "exact")
    pet.set_defaults(func=cmd_petermann)

    spec = sub.add_parser("spectrum", help="reflection spectra and dip metrics")
    spec.add_argument("--omega-min", type=float, default=900.0, help="probe start (kHz)")
    spec.add_argument("--omega-max", type=float, default=1100.0, help="probe end (kHz)")
    spec.add_argument("--omega-points", type=int, default=2001, help="grid size")
    spec.add_argument(
        "--markovian-only", action="store_true", help="emit only the memoryless curve"
    )
    spec.set_defaults(func=cmd_spectrum)

    emb = sub.add_parser("embedcheck", help="memory-embedding cross-validation")
    emb.add_argument("--t-final", type=float, default=None, help="integration horizon (s)")
    emb.add_argument("--dt", type=float, default=None, help="integrator step (s)")
    emb.set_defaults(func=cmd_embedcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
