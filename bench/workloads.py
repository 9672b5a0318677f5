"""Seeded inputs and the CLI-call bundles ("ops") of each workload.

The program under test sees only what this module produces: INI files and
argv lists for ``eprenorm.cli.main``.  Devices are drawn log-uniformly
around the paper's parameter set (mechanics 1 MHz, linewidth 5 kHz, cavity
0.2 MHz, bath cutoff 1 MHz), always with kappa > gamma and omega_m > kappa,
i.e. in the sideband-resolved regime where every subcommand succeeds.

Only the standard library is used, so inputs for a seed are identical
across numpy versions.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "scan": "many devices, ep plus a 5-point petermann probe per op: short calls "
    "where cli/config overhead and epsolver weigh most",
    "sweep": "401-point petermann (both calibrations) and eigs sweeps across the EP: "
    "exercises the spectral core, bypasses response and embedcheck",
    "selfcheck": "2001-point spectrum with dip searches plus a fixed-step embedcheck: "
    "exercises response and integrators, bypasses spectral",
}

DEVICES = {"scan": 64, "sweep": 3, "selfcheck": 8}

PAPER_HZ = {"freq_hz": 1.0e6, "gamma_hz": 5.0e3, "kappa_hz": 0.2e6, "cutoff_hz": 1.0e6}
# Log-uniform spread factor per parameter: value = paper * exp(U(-ln f, ln f)).
SPREAD = {"freq_hz": 1.25, "gamma_hz": 2.0, "kappa_hz": 2.0, "cutoff_hz": 2.0}

SCAN_PROBE_POINTS = 5
SCAN_PROBE_HALF_WIDTH = 0.02  # +-2 % of the device's exact g_ep
SWEEP_WINDOW = (0.85, 1.2)  # times the first-order estimate of g_ep
SPECTRUM_HALF_WIDTH_KHZ = 100.0
EMBED_STEPS = 1000  # integrator steps per embedcheck run, the same for every draw
EMBED_STEPS_PER_PERIOD = 100.0  # dt = 1 / (100 * max(omega_m, Omega_c))


@dataclass(frozen=True)
class Device:
    """One drawn parameter set, in Hz exactly as written to its INI file."""

    freq_hz: float
    gamma_hz: float
    kappa_hz: float
    cutoff_hz: float
    detuning_hz: float
    coupling_hz: float

    def ini(self) -> str:
        return (
            "[mechanics]\n"
            f"freq_hz = {self.freq_hz!r}\n"
            f"gamma_hz = {self.gamma_hz!r}\n"
            "[cavity]\n"
            f"kappa_hz = {self.kappa_hz!r}\n"
            "[bath]\n"
            f"cutoff_hz = {self.cutoff_hz!r}\n"
            "[drive]\n"
            f"detuning_hz = {self.detuning_hz!r}\n"
            f"coupling_hz = {self.coupling_hz!r}\n"
        )

    def g_ep_estimate_khz(self) -> float:
        """Closed-form coupling plus its first-order memory shift (paper eq.)."""
        den = self.cutoff_hz**2 + self.freq_hz**2
        g_hz = (self.kappa_hz - self.gamma_hz) / 4.0
        g_hz += self.gamma_hz * self.cutoff_hz**2 / (4.0 * den)
        return g_hz / 1e3


def draw_device(rng: random.Random) -> Device:
    vals = {}
    for key, base in PAPER_HZ.items():
        spread = math.log(SPREAD[key])
        vals[key] = base * math.exp(rng.uniform(-spread, spread))
    g_mk_hz = (vals["kappa_hz"] - vals["gamma_hz"]) / 4.0
    return Device(
        detuning_hz=-vals["freq_hz"],
        coupling_hz=g_mk_hz * math.exp(rng.uniform(-0.2, 0.2)),
        **vals,
    )


@dataclass
class Inputs:
    """The seeded devices of one workload run."""

    workload: str
    seed: int
    devices: list

    def digest(self) -> str:
        """sha256 over every INI text and every static argv, in op order."""
        h = hashlib.sha256(f"{self.workload}:{self.seed}\n".encode())
        for k, dev in enumerate(self.devices):
            h.update(dev.ini().encode())
            for argv in static_argv(self.workload, dev, f"<config{k}>"):
                h.update(("\x1f".join(argv) + "\n").encode())
        return h.hexdigest()


def generate(workload: str, seed: int) -> Inputs:
    if workload not in DEVICES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return Inputs(workload, seed, [draw_device(rng) for _ in range(DEVICES[workload])])


def write_configs(inputs: Inputs, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for dev, path in zip(inputs.devices, config_paths(inputs, directory)):
        with open(path, "w") as fh:
            fh.write(dev.ini())


def embed_grid(dev: Device):
    """(dt, t_final) in seconds giving EMBED_STEPS steps at the resolution limit / 2."""
    fastest = 2.0 * math.pi * max(dev.freq_hz, dev.cutoff_hz)
    dt = 1.0 / (EMBED_STEPS_PER_PERIOD * fastest)
    return dt, EMBED_STEPS * dt


def static_argv(workload: str, dev: Device, config: str):
    """The argv lists of one op that do not depend on an earlier call's output."""
    if workload == "scan":
        return [["--config", config, "ep"]]
    if workload == "sweep":
        g = dev.g_ep_estimate_khz()
        window = ["--g-min", repr(g * SWEEP_WINDOW[0]), "--g-max", repr(g * SWEEP_WINDOW[1])]
        return [
            ["--config", config, "--json", "petermann", "--delta-mode", "both", *window],
            ["--config", config, "--json", "eigs", "--markovian-ref", *window],
        ]
    if workload == "selfcheck":
        f_khz = dev.freq_hz / 1e3
        dt, t_final = embed_grid(dev)
        return [
            [
                "--config", config, "--json", "spectrum",
                "--omega-min", repr(f_khz - SPECTRUM_HALF_WIDTH_KHZ),
                "--omega-max", repr(f_khz + SPECTRUM_HALF_WIDTH_KHZ),
            ],
            ["--config", config, "--json", "embedcheck", "--dt", repr(dt), "--t-final", repr(t_final)],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def scan_probe_argv(config: str, g_ep_khz: float):
    """The scan op's second call: a short petermann grid around the exact g_ep."""
    return [
        "--config", config, "petermann",
        "--g-min", repr(g_ep_khz * (1.0 - SCAN_PROBE_HALF_WIDTH)),
        "--g-max", repr(g_ep_khz * (1.0 + SCAN_PROBE_HALF_WIDTH)),
        "--g-points", str(SCAN_PROBE_POINTS),
    ]


def config_paths(inputs: Inputs, directory: str):
    return [os.path.join(directory, f"device{k:03d}.ini") for k in range(len(inputs.devices))]
